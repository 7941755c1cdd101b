"""Contracts for normed abelian groups and rings, plus inequality certificates.

Everything numerically produced by this library carries a
:class:`Certificate`: a list of named inequalities ``lhs <= rhs`` that can be
re-checked after the fact.  Instances declare either exact-rational or
floating semantics; certificates built over floating instances add an
explicit absolute slack (default ``1e-9``) to every right-hand side, so that
a valid certificate is a statement about real numbers, not about rounding
luck.

Elements of a completion are never materialized; see
:mod:`idemkit.colimit` for the (finite representative, tail bound) encoding.

A :class:`CertEntry` is a named tuple, as are the result records that the
small certified operations return (certified units and idempotents, limit
elements, transfers, classes, equivalence verdicts): a certificate of a
sub-millisecond operation holds a dozen entries, and a named tuple is two
to three times cheaper to build than a frozen dataclass.  Records are
immutable either way; a named tuple also unpacks, indexes and compares
equal to the plain tuple of its fields.  A :class:`Certificate` itself
stays a mutable dataclass.
"""

from __future__ import annotations

import functools
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .errors import ConfigError

#: A norm value: a nonnegative real, exact (``int``/``Fraction``) on exact
#: instances and ``float`` on floating ones.  ``math.inf`` marks the empty
#: infimum of a bounded search.
NormValue = Union[int, Fraction, float]

DEFAULT_FLOAT_SLACK = 1e-9


def as_fraction(x) -> Fraction:
    """Parse an exact rational from int, Fraction or a string like ``"1/2"``."""
    if isinstance(x, bool):
        raise ConfigError("booleans are not rationals")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot read {x!r} as an exact rational") from exc
    raise ConfigError(f"cannot read {x!r} as an exact rational")


def _norm_to_json(v: NormValue):
    # exact types first: the Fraction check goes through ABCMeta
    if type(v) is float or type(v) is int:
        return v
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return v
    return float(v)


def _norm_from_json(v) -> NormValue:
    if isinstance(v, str):
        return Fraction(v)
    return v


# ---------------------------------------------------------------------------
# certificates


class CertEntry(NamedTuple):
    """One verified inequality ``lhs <= rhs``.

    Advisory entries are recorded for inspection but excluded from overall
    validity (used for bounds that are reported side by side with the one a
    result is actually keyed on).  A named tuple, so it is immutable and
    cheap to build; it also unpacks, indexes and compares equal to the
    plain tuple ``(name, lhs, rhs, advisory)``.
    """

    name: str
    lhs: NormValue
    rhs: NormValue
    advisory: bool = False

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs

    def to_json(self) -> dict:
        d = {"name": self.name, "lhs": _norm_to_json(self.lhs), "rhs": _norm_to_json(self.rhs)}
        if self.advisory:
            d["advisory"] = True
        return d

    @staticmethod
    def from_json(d: dict) -> "CertEntry":
        return CertEntry(
            name=d["name"],
            lhs=_norm_from_json(d["lhs"]),
            rhs=_norm_from_json(d["rhs"]),
            advisory=bool(d.get("advisory", False)),
        )


@dataclass
class Certificate:
    """A recomputable record of named verified inequalities.

    ``slack`` is added to the right-hand side of every entry at insertion
    time (0 for exact instances).  Validity is recomputed from the stored
    entries, never cached.
    """

    entries: list[CertEntry] = field(default_factory=list)
    slack: float = 0.0

    def add(self, name: str, lhs: NormValue, rhs: NormValue, advisory: bool = False) -> CertEntry:
        if self.slack:
            rhs = rhs + self.slack
        entry = CertEntry(name, lhs, rhs, advisory)
        self.entries.append(entry)
        return entry

    def extend(self, other: "Certificate", prefix: str = "") -> None:
        """Absorb another certificate's entries, optionally name-prefixed.

        Entries are immutable, so with no prefix the entries themselves are
        appended, not copies; a prefix makes renamed copies.
        """
        if not prefix:
            self.entries.extend(other.entries)
            return
        self.entries.extend(
            CertEntry(prefix + name, lhs, rhs, advisory) for name, lhs, rhs, advisory in other.entries
        )

    @property
    def valid(self) -> bool:
        return all(e.holds for e in self.entries if not e.advisory)

    def entry(self, name: str) -> CertEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def valid_for(self, prefixes: Iterable[str]) -> bool:
        """Validity restricted to entries whose name starts with a prefix;
        advisory entries are skipped, as in :attr:`valid`."""
        pres = tuple(prefixes)
        return all(e.holds for e in self.entries if not e.advisory and e.name.startswith(pres))

    def to_json(self) -> list[dict]:
        return [e.to_json() for e in self.entries]

    @staticmethod
    def from_json(entries: list[dict]) -> "Certificate":
        return Certificate([CertEntry.from_json(d) for d in entries])


# ---------------------------------------------------------------------------
# instances


class AlgebraInstance(ABC):
    """Operation table realizing a concrete normed ring.

    An element is a numpy array of shape ``shape`` and dtype ``dtype``
    (scalar instances use plain numbers, shape ``()``); all arithmetic goes
    through this table.  Every operation also accepts extra leading batch
    axes, which is what lets one instance serve as another's entries.  The
    defaults below are entrywise numpy arithmetic, which is the ring
    structure of every scalar instance.  An instance declares
    ``exact = True`` when its arithmetic and norm are exact rationals
    (``dtype=object`` holding Python ints, norms as ``int`` or ``Fraction``);
    floating instances carry ``slack``, the absolute tolerance added to
    certified right-hand sides.  Whether the ring axioms (unit norm at most
    1, submultiplicativity) hold is measured, not declared:
    :func:`check_norm_axioms` audits them on any instance, containers over
    a normed group that is no ring included.

    All operations are pure; instances are immutable after construction and
    safe to share between threads.
    """

    kind: str = "abstract"
    exact: bool = False
    slack: float = DEFAULT_FLOAT_SLACK
    #: whether the norm reads only the magnitudes of the scalar entries, so
    #: that ``norm(-x) == norm(x)`` bit for bit; a floating spectral norm
    #: meets the symmetry axiom only up to rounding
    magnitude_norm: bool = False
    #: trailing axes of an element; ``()`` for scalars
    shape: tuple = ()
    #: numpy dtype of element arrays
    dtype: Any = complex

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def int_scale(self, k: int, x):
        """``k``-fold sum of ``x``."""
        return k * x

    @abstractmethod
    def one(self): ...

    @abstractmethod
    def zero(self): ...

    @abstractmethod
    def norms(self, x):
        """Norms of a stack of elements, one per index of its batch axes."""

    def norm(self, x) -> NormValue:
        n = self.norms(x)
        return n if self.exact else float(n)

    @abstractmethod
    def random_element(self, rng): ...

    @abstractmethod
    def describe(self) -> dict:
        """JSON descriptor, e.g. ``{"kind": "matrix", "n": 4, ...}``."""

    # derived operations

    def sub(self, x, y):
        # one pass, equal bit for bit to add(x, neg(y)) for the entrywise
        # add and neg above; an instance overriding either overrides this
        return x - y

    def distance(self, x, y) -> NormValue:
        return self.norm(self.sub(x, y))

    def try_inverse(self, x):
        """Direct inverse where the instance supports one; raises otherwise."""
        raise NotImplementedError(f"{self.kind}: no direct inverse")

    def certificate(self) -> Certificate:
        """Fresh certificate with this instance's slack policy."""
        return Certificate(slack=0.0 if self.exact else self.slack)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


# ---------------------------------------------------------------------------
# scaled integers


class ScaledIntegers(AlgebraInstance):
    """The integers with norm ``r * |n|`` for a positive rational scale ``r``.

    A normed abelian group for every ``r``; the ring axioms (unit norm at
    most 1, submultiplicativity) hold together only for ``r = 1``, and the
    axiom audit flags that honestly.  An integral scale is stored as an
    ``int``, so norms are Python ints; a fractional one as a ``Fraction``,
    so norms are ``Fraction``s.  Both render alike in reports.
    """

    kind = "scaled-integers"
    exact = True
    slack = 0.0
    magnitude_norm = True
    dtype = object

    def __init__(self, r=1):
        r = as_fraction(r)
        if r <= 0:
            raise ConfigError("scale must be positive")
        self.r = r.numerator if r.denominator == 1 else r

    def one(self) -> int:
        return 1

    def zero(self) -> int:
        return 0

    def norms(self, x):
        return self.r * np.abs(x)

    def norm(self, x: int) -> NormValue:
        return self.r * abs(x)

    def random_element(self, rng) -> int:
        return int(rng.integers(-9, 10))

    def describe(self) -> dict:
        return {"kind": self.kind, "r": _norm_to_json(self.r)}


# ---------------------------------------------------------------------------
# norm-axiom audit


def check_norm_axioms(instance: AlgebraInstance, samples: Sequence) -> Certificate:
    """Audit the norm axioms on a sample set; failures become invalid entries.

    Entries: ``zero-norm``, per-sample ``symmetry[i]``, per-ordered-pair
    ``triangle[i,j]``, and the ring axioms ``unit-norm`` and ``submul[i,j]``.
    Nothing is raised; a violated axiom is simply an entry with
    ``lhs > rhs``.  ``Certificate.valid_for(GROUP_AXIOM_PREFIXES)`` gives
    the normed-group verdict when the ring axioms are not part of the
    instance's contract.  Each sample's norm is measured once and read by
    all three entry kinds.

    An instance with axes is audited one sample row per call: the samples
    are stacked once, their norms and their negations' norms are measured
    in one :meth:`~AlgebraInstance.norms` call each, and each sample ``x``
    forms ``add(x, stack)`` and ``mul(x, stack)`` in one call each, so
    ``s`` samples take ``s`` products where pairs would take ``s**2``.
    The values are those of the pairs, bit for bit.  A scalar instance
    keeps one call per pair: its operations are Python arithmetic, which
    a numpy batch only slows.
    """
    cert = instance.certificate()
    cert.add("zero-norm", instance.norm(instance.zero()), 0)
    if instance.shape and len(samples):
        stack = np.stack(samples)
        measured = instance.norms(stack).tolist()
        negated = instance.norms(instance.neg(stack)).tolist()

        def table(op):  # norm(op(x, y)) for all ordered pairs, one call per x
            return [n for x in samples for n in instance.norms(op(x, stack)).tolist()]

    else:
        measured = [instance.norm(x) for x in samples]
        negated = [instance.norm(instance.neg(x)) for x in samples]

        def table(op):
            return [instance.norm(op(x, y)) for x, y in itertools.product(samples, repeat=2)]

    for i, (nx, n_neg) in enumerate(zip(measured, negated)):
        cert.add(f"symmetry[{i}]", abs(n_neg - nx), 0)
    pairs = list(itertools.product(enumerate(measured), repeat=2))
    for ((i, nx), (j, ny)), n_sum in zip(pairs, table(instance.add)):
        cert.add(f"triangle[{i},{j}]", n_sum, nx + ny)
    cert.add("unit-norm", instance.norm(instance.one()), 1)
    for ((i, nx), (j, ny)), n_prod in zip(pairs, table(instance.mul)):
        cert.add(f"submul[{i},{j}]", n_prod, nx * ny)
    return cert


GROUP_AXIOM_PREFIXES = ("zero-norm", "symmetry", "triangle")


# ---------------------------------------------------------------------------
# tensor norms on exactly checkable inputs


#: the largest ``support_bound`` searched: the table holds ``2*b**3 + 1``
#: int64 entries and building it takes time growing about like ``b**6``
MAX_SUPPORT_BOUND = 32


@functools.lru_cache(maxsize=None)
def _min_term_cost(b: int) -> dict[int, int]:
    """Min of ``sum |x_i*y_i|`` to write each reachable integer as
    ``sum x_i*y_i`` with at most ``b`` terms and ``|x_i|, |y_i| <= b``.

    Brute force by ``b`` rounds of min-plus relaxation: round ``k`` extends
    every value reached with fewer than ``k`` terms by every nonzero
    product, keeping partial sums within ``b**3``.  The costs live in an
    int64 array indexed by ``v + b**3``, with one vectorized update per
    product; unreached values hold a sentinel.
    """
    products = sorted({x * y for x in range(-b, b + 1) for y in range(-b, b + 1)} - {0})
    reach = b * b * b
    unreached = np.iinfo(np.int64).max // 2
    best = np.full(2 * reach + 1, unreached, dtype=np.int64)
    best[reach] = 0
    # no early exit: round k (from 0) is the first to reach +-(k+1)*b**2,
    # at most b**3, so every one of the b rounds changes the table
    for _ in range(b):
        nxt = best.copy()
        for p in products:
            # w = v + p for every v with |w| <= reach
            dst, src = (nxt[p:], best[:-p]) if p > 0 else (nxt[:p], best[-p:])
            np.minimum(dst, src + abs(p), out=dst)
        best = nxt
    (reached,) = np.nonzero(best < unreached)
    return dict(zip((reached - reach).tolist(), best[reached].tolist()))


def tensor_norm_int(m: int, r, s, support_bound: int) -> NormValue:
    """Projective tensor norm of the integer ``m`` across scales ``r`` and ``s``.

    Brute-force infimum of ``sum_i r|x_i| * s|y_i|`` over decompositions
    ``m = sum_i x_i * y_i`` with at most ``support_bound`` terms and factors
    bounded by ``support_bound``.  This search is an independent oracle: the
    infimum equals ``r*s*|m|`` for any bound large enough to contain the
    one-term decomposition ``m = m * 1``, and the value is monotone
    nonincreasing in the bound.  Returns ``inf`` when the searched set is
    empty.  A bound outside 1 to ``MAX_SUPPORT_BOUND`` raises
    :class:`ConfigError`.
    """
    if not 0 < support_bound <= MAX_SUPPORT_BOUND:
        raise ConfigError(f"support_bound must be an integer from 1 to {MAX_SUPPORT_BOUND}")
    r, s = as_fraction(r), as_fraction(s)
    table = _min_term_cost(int(support_bound))
    if m not in table:
        return math.inf
    return r * s * table[m]
