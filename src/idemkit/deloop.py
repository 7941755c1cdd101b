"""Desk-scale shadow of the sequence-space endomorphism ring.

Column-finite operators on the l1 module of countable sequences are stored
column-sparse, because the operator norm here is a column functional (max
over columns of the column sum of entry norms) and is then exact for
sparse data.  The zeroth-entry corner idempotent cuts out an isometric
copy of the inner ring; the finite collapse certificate shows that at any
finite truncation the two-sided span of that corner is everything, which
is exactly why the delooped class is invisible at every finite level; and
the swindle conjugator is the even/odd interleaving bijection whose
conjugation identity forces additive invariants of the full operator ring
to vanish.

Whether the column norm agrees with the sup-ratio operator norm for every
inner instance is not assumed (it does when the inner norm is attained on
singletons); certificates use the column norm by definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from .core import AlgebraInstance, Certificate, NormValue, ScaledIntegers
from .errors import ConfigError
from .instances import COMPLEX


@dataclass(frozen=True)
class EndOperator:
    """Column-finite operator on countable sequences over an inner instance.

    ``columns`` maps a column index to a tuple of ``(row, entry)`` pairs;
    absent columns are zero.  Entries with zero norm are dropped at
    construction, so equality of operators is equality of columns.
    """

    inner: AlgebraInstance
    columns: dict = field(default_factory=dict)

    @staticmethod
    def from_columns(inner: AlgebraInstance, columns: dict) -> "EndOperator":
        clean = {}
        for j, entries in columns.items():
            merged: dict[int, Any] = {}
            for i, v in entries:
                merged[i] = inner.add(merged[i], v) if i in merged else v
            kept = tuple(
                (i, v) for i, v in sorted(merged.items()) if inner.norm(v) != 0
            )
            if kept:
                clean[int(j)] = kept
        return EndOperator(inner, clean)

    @staticmethod
    def identity(inner: AlgebraInstance, support: int) -> "EndOperator":
        one = inner.one()
        return EndOperator(inner, {j: ((j, one),) for j in range(support)})

    @staticmethod
    def zero(inner: AlgebraInstance) -> "EndOperator":
        return EndOperator(inner, {})

    @staticmethod
    def matrix_unit(inner: AlgebraInstance, i: int, j: int, value=None) -> "EndOperator":
        value = inner.one() if value is None else value
        return EndOperator.from_columns(inner, {j: ((i, value),)})

    @staticmethod
    def shift(inner: AlgebraInstance, support: int, offset: int = 1) -> "EndOperator":
        one = inner.one()
        return EndOperator(inner, {j: ((j + offset, one),) for j in range(support)})

    def compose(self, other: "EndOperator") -> "EndOperator":
        """``self`` after ``other``; column-finite composition."""
        if self.inner is not other.inner and self.inner.describe() != other.inner.describe():
            raise ConfigError("operator composition needs a common inner instance")
        inner = self.inner
        out: dict[int, list] = {}
        for j, entries in other.columns.items():
            acc: dict[int, Any] = {}
            for i, b in entries:
                for r, a in self.columns.get(i, ()):
                    v = inner.mul(a, b)
                    acc[r] = inner.add(acc[r], v) if r in acc else v
            if acc:
                out[j] = list(acc.items())
        return EndOperator.from_columns(inner, out)

    def add(self, *others: "EndOperator") -> "EndOperator":
        """Sum with any number of operators, merged in one pass."""
        out: dict[int, list] = {j: list(e) for j, e in self.columns.items()}
        for other in others:
            for j, entries in other.columns.items():
                out.setdefault(j, []).extend(entries)
        return EndOperator.from_columns(self.inner, out)

    def entry(self, i: int, j: int):
        for r, v in self.columns.get(j, ()):
            if r == i:
                return v
        return self.inner.zero()

    def column_norm(self, j: int) -> NormValue:
        return sum((self.inner.norm(v) for _, v in self.columns.get(j, ())), start=0)


def end_norm(op: EndOperator) -> NormValue:
    """Max over nonempty columns of the l1 column sum; exact for sparse data."""
    if not op.columns:
        return 0
    return max(op.column_norm(j) for j in op.columns)


@dataclass(frozen=True)
class CornerIdempotent:
    """The coordinate projection onto one sequence entry (default the zeroth).

    As an operator it is exactly idempotent and its norm equals the norm of
    the inner unit, which is what makes the corner a normed subring with
    the induced norm: compressing by it collapses ``e*b*e`` to the single
    entry ``b.entry(i, i)``, with ``end_norm(e*b*e) == inner.norm(b[i,i])``,
    an isometric copy of the inner instance.
    """

    index: int = 0

    def as_operator(self, inner: AlgebraInstance) -> EndOperator:
        return EndOperator.matrix_unit(inner, self.index, self.index)

    def norm(self, inner: AlgebraInstance) -> NormValue:
        return end_norm(self.as_operator(inner))


# ---------------------------------------------------------------------------
# finite truncation collapse


@dataclass(frozen=True)
class CollapseCertificate:
    """Witness that the two-sided span of the corner is everything at size n.

    ``pairs`` are operators ``(a_k, b_k)`` with ``sum_k a_k * e * b_k``
    equal to the identity on the first ``n`` coordinates, exactly.  It
    follows that the quotient of the truncated operator ring by the
    two-sided span of the corner is the zero ring, so its idempotent
    classes are trivial: the delooped class is invisible at every finite
    truncation, and only the full column-finite ring sees it.
    """

    n: int
    pairs: tuple
    cert: Certificate

    @property
    def valid(self) -> bool:
        return self.cert.valid


def finite_collapse_certificate(n: int, inner: Optional[AlgebraInstance] = None) -> CollapseCertificate:
    """Pairs ``(E_{k0}, E_{0k})`` with ``sum_k E_{k0} e E_{0k} = 1_n`` exactly.

    ``n`` is at most ``2**16``, the swindle check's largest support: each
    index holds a few operators, about 2 KB.
    """
    if not 1 <= n <= 2**16:
        raise ConfigError("truncation size must be between 1 and 2**16")
    inner = COMPLEX if inner is None else inner
    e = CornerIdempotent(0).as_operator(inner)
    pairs = tuple(
        (EndOperator.matrix_unit(inner, k, 0), EndOperator.matrix_unit(inner, 0, k))
        for k in range(n)
    )
    total = EndOperator.zero(inner).add(*(a_k.compose(e).compose(b_k) for a_k, b_k in pairs))
    identity = EndOperator.identity(inner, n)
    deviation = _column_deviation(total, identity)
    cert = Certificate(slack=0.0)
    cert.add("collapse-identity", deviation, 0)
    cert.add("corner-norm", end_norm(e), inner.norm(inner.one()))
    return CollapseCertificate(n=n, pairs=pairs, cert=cert)


def _column_deviation(a: EndOperator, b: EndOperator) -> NormValue:
    worst: NormValue = 0
    for j in set(a.columns) | set(b.columns):
        da = dict(a.columns.get(j, ()))
        db = dict(b.columns.get(j, ()))
        col: NormValue = 0
        for i in set(da) | set(db):
            va = da.get(i, a.inner.zero())
            vb = db.get(i, a.inner.zero())
            col = col + a.inner.distance(va, vb)
        if col > worst:
            worst = col
    return worst


# ---------------------------------------------------------------------------
# the swindle conjugator


@dataclass(frozen=True)
class SwindleReport:
    """Counts from an exhaustive swindle check below ``support``.

    ``cert`` holds the three counts as entries ``collisions``,
    ``roundtrip-failures`` and ``conjugation-mismatches``, each against 0;
    ``valid`` is its verdict.
    """

    support: int
    collisions: int
    roundtrip_failures: int
    conjugation_mismatches: int
    checked_columns: int
    cert: Certificate

    @property
    def valid(self) -> bool:
        return self.cert.valid

    def to_json(self) -> dict:
        """The check's inputs; the counts and verdict live in ``cert``."""
        return {"support": self.support, "checked_columns": self.checked_columns}


def _dyadic_pair(i: int, j: int) -> int:
    """Pairing ``(i, j) -> 2**i * (2j + 1) - 1``, a bijection onto the naturals."""
    return (1 << i) * (2 * j + 1) - 1


def _dyadic_unpair(n: int) -> tuple[int, int]:
    m = n + 1
    i = (m & -m).bit_length() - 1
    return i, ((m >> i) - 1) // 2


def swindle_conjugator(support: int) -> SwindleReport:
    """Verify the interleaving bijection and the swindle identity.

    The bijection sends ``k`` in the first copy of the naturals to ``2k``
    and ``k`` in the second copy to ``2k + 1``; ``divmod(n, 2)`` inverts it.
    Exhaustively checks, on all indices below ``support``:

    * the even/odd map has no collisions and inverts correctly;
    * conjugating the block operator ``x (+) T(y)`` by it gives exactly the
      infinite-direct-sum form of the interleaved input, where ``T(y)`` is
      the block-diagonal sum of countably many copies of ``y`` under a
      fixed dyadic pairing of index pairs.

    The check is integer index bookkeeping over exact integer entries, so
    there is no floating error; a nonzero mismatch count means the
    construction is wrong, not imprecise.
    """
    if not 1 <= support <= 2**16:
        raise ConfigError("support must be between 1 and 2**16")

    images = set()
    collisions = 0
    roundtrip_failures = 0
    for k in range(support):
        for copy in (0, 1):
            n = 2 * k + copy
            if n in images:
                collisions += 1
            images.add(n)
            if divmod(n, 2) != (k, copy):
                roundtrip_failures += 1

    inner = ScaledIntegers(1)
    x = EndOperator.shift(inner, support + 2, offset=1)
    y = EndOperator.shift(inner, support + 2, offset=2)

    def t_column(op: EndOperator, col: int) -> dict[int, int]:
        i, j = _dyadic_unpair(col)
        return {_dyadic_pair(i, r): val for r, val in op.columns.get(j, ())}

    def conjugated_column(col: int) -> dict[int, int]:
        k, copy = divmod(col, 2)
        if copy == 0:
            return {2 * r: val for r, val in x.columns.get(k, ())}
        return {2 * r + 1: val for r, val in t_column(y, k).items()}

    def interleaved_column(col: int) -> dict[int, int]:
        # blocks under the shifted pairing: block 0 is x, blocks >= 1 are y
        if col % 2 == 0:
            return {2 * r: val for r, val in x.columns.get(col // 2, ())}
        i, j = _dyadic_unpair((col - 1) // 2)
        return {2 * _dyadic_pair(i, r) + 1: val for r, val in y.columns.get(j, ())}

    conjugation_mismatches = 0
    for col in range(support):
        if conjugated_column(col) != interleaved_column(col):
            conjugation_mismatches += 1

    cert = Certificate()
    cert.add("collisions", collisions, 0)
    cert.add("roundtrip-failures", roundtrip_failures, 0)
    cert.add("conjugation-mismatches", conjugation_mismatches, 0)
    return SwindleReport(
        support=support,
        collisions=collisions,
        roundtrip_failures=roundtrip_failures,
        conjugation_mismatches=conjugation_mismatches,
        checked_columns=support,
        cert=cert,
    )
