"""Concrete normed-ring instances and the towers used by colimit experiments.

Every element is one numpy array whose shape is the container's own axes
followed by the inner instance's shape: ``(n, n) + inner.shape`` for
matrices, ``(points,) + inner.shape`` for sampled functions and
``(truncation,) + inner.shape`` for sequences.  The dtype is complex128 over
the complex scalars and ``object`` (Python ints) over the scaled integers,
whose norms are exact: ``int``s for an integral scale, ``Fraction``s
otherwise.  Operations accept extra leading batch axes, so a container can
be another container's inner instance: the products of all blocks of a
nested matrix are one batched inner call.  The default matrix
norm is the max-column-l1 norm, which realizes matrices as endomorphisms of
finite l1 powers and is exactly computable; the spectral norm is available
for complex scalars only.  A sup-norm sequence (descriptor mode ``"linf"``)
is the sampled function algebra on ``range(truncation)``.

Infinite spaces are represented only through finite grids; nothing in this
module claims to bound a true supremum over an infinite domain.
"""

from __future__ import annotations

import functools
import math
from abc import abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .core import AlgebraInstance, ScaledIntegers, as_fraction
from .errors import ConfigError, IdemkitError


class ComplexScalars(AlgebraInstance):
    """The complex numbers with the modulus norm."""

    kind = "complex"
    exact = False
    magnitude_norm = True

    def one(self):
        return complex(1)

    def zero(self):
        return complex(0)

    # the ufunc itself, so that a container's entry norms cost no extra frame
    norms = staticmethod(np.abs)

    def norm(self, x) -> float:
        return abs(x)

    def random_element(self, rng):
        return complex(rng.standard_normal(), rng.standard_normal())

    def serialize_element(self, x):
        return [float(x.real), float(x.imag)]

    def describe(self) -> dict:
        return {"kind": self.kind}


COMPLEX = ComplexScalars()


def over_complex(instance) -> bool:
    """Whether ``instance`` is a container whose entries are complex scalars."""
    return isinstance(getattr(instance, "inner", None), ComplexScalars)


#: largest identity, in entries, that a container keeps as a template to
#: copy: above about 2**14 entries (128 x 128 complex) a fresh ``np.zeros``
#: and a write of the unit are faster than a copy (2 vCPUs), and a kept
#: template would hold one more element per instance, 256 MB at the top
#: level of a depth-12 uhf tower
ONE_TEMPLATE_ENTRIES = 2**14


class Container(AlgebraInstance):
    """Arrays of inner-instance entries along the container's own axes.

    A container of at most ``ONE_TEMPLATE_ENTRIES`` entries builds its
    identity once, on the first :meth:`one` call, and returns a fresh copy
    of it from then on; a larger one builds a fresh identity on each call.
    Each subclass builds its identity in ``_identity``.
    """

    def __init__(self, inner: AlgebraInstance, axes: tuple):
        self.inner = inner
        self.axes = axes
        self.shape = axes + inner.shape
        self.dtype = inner.dtype
        self.exact = inner.exact
        self.slack = inner.slack
        self.magnitude_norm = inner.magnitude_norm

    def _entry_mul(self, x, y):
        """Entrywise products; scalar entries multiply in numpy directly."""
        return self.inner.mul(x, y) if self.inner.shape else x * y

    @abstractmethod
    def _identity(self):
        """A new identity element."""

    @functools.cached_property
    def _one(self):
        # the template, or None where building anew is cheaper than a copy
        return self._identity() if math.prod(self.shape) <= ONE_TEMPLATE_ENTRIES else None

    def one(self):
        # a fresh array either way, so that every caller may write into it
        return self._identity() if self._one is None else self._one.copy()

    def zero(self):
        # 0 of complex128, and the int 0 of object arrays
        return np.zeros(self.shape, self.dtype)

    def random_element(self, rng):
        if isinstance(self.inner, ComplexScalars):
            return rng.standard_normal(self.axes) + 1j * rng.standard_normal(self.axes)
        # entry by entry in row-major order: the draws of the inner generator
        entries = [self.inner.random_element(rng) for _ in range(math.prod(self.axes))]
        return np.array(entries, dtype=self.dtype).reshape(self.shape)

    def serialize_element(self, x):
        # the entries along one axis; MatrixAlgebra lists its rows instead
        return [self.inner.serialize_element(v) for v in x]


class MatrixAlgebra(Container):
    """Square matrices over an inner instance.

    ``norm_kind`` is ``"col-l1"`` (max over columns of the column sum of
    inner norms; submultiplicative, identity has norm 1) or ``"spectral"``
    (largest singular value; complex scalars only).
    """

    kind = "matrix"

    def __init__(self, inner: AlgebraInstance, n: int, norm_kind: str = "col-l1"):
        if n < 1:
            raise ConfigError("matrix size must be positive")
        if norm_kind not in ("col-l1", "spectral"):
            raise ConfigError(f"unknown matrix norm {norm_kind!r}")
        if norm_kind == "spectral" and not isinstance(inner, ComplexScalars):
            raise ConfigError("spectral norm requires complex scalars")
        super().__init__(inner, (n, n))
        self.n = n
        self.norm_kind = norm_kind
        if norm_kind == "spectral":
            self.magnitude_norm = False

    def mul(self, x, y):
        if not self.inner.shape:
            return x @ y
        # every block product x[i, k] * y[k, j] in one batched inner call,
        # then the sum over k in order (numpy's einsum and sum reorder it)
        d = len(self.inner.shape)
        products = self.inner.mul(np.expand_dims(x, -d - 1), np.expand_dims(y, -d - 3))
        return functools.reduce(self.inner.add, np.moveaxis(products, -d - 2, 0))

    def _identity(self):
        out = self.zero()
        # the diagonal of the flattened matrix axes, one entry in n + 1
        out.reshape((self.n * self.n,) + self.inner.shape)[:: self.n + 1] = self.inner.one()
        return out

    def norms(self, x):
        if self.norm_kind == "spectral":
            return np.linalg.norm(x, 2, axis=(-2, -1))
        # the ufunc reductions that ndarray.sum and ndarray.max dispatch to
        return np.maximum.reduce(np.add.reduce(self.inner.norms(x), axis=-2), axis=-1)

    def try_inverse(self, x):
        if not over_complex(self):
            raise NotImplementedError("direct inverse only over complex scalars")
        return np.linalg.inv(x)

    def serialize_element(self, x):
        return [[self.inner.serialize_element(v) for v in row] for row in x]

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "norm": self.norm_kind,
            "inner": self.inner.describe(),
        }


class SampledFunctionAlgebra(Container):
    """Functions on a finite grid with values in an inner instance.

    Pointwise operations, sup norm over the grid.  This is the honest
    finite stand-in for function rings on infinite spaces: the norm is a
    max over the listed points, nothing more.
    """

    kind = "functions"

    def __init__(self, grid: Sequence, inner: AlgebraInstance):
        if len(grid) == 0:
            raise ConfigError("grid must be nonempty")
        self.grid = tuple(grid)
        super().__init__(inner, (len(self.grid),))

    @property
    def size(self) -> int:
        return len(self.grid)

    def mul(self, x, y):
        return self._entry_mul(x, y)

    def _identity(self):
        return np.full(self.shape, self.inner.one(), dtype=self.dtype)

    def norms(self, x):
        return np.maximum.reduce(self.inner.norms(x), axis=-1)

    def try_inverse(self, x):
        if not over_complex(self):
            raise NotImplementedError("direct inverse only over complex scalars")
        if np.any(x == 0):
            raise IdemkitError("function vanishes somewhere; not invertible")
        return 1.0 / x

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "points": list(self.grid),
            "inner": self.inner.describe(),
        }


class SequenceAlgebra(Container):
    """Truncated l1 sequence algebras over an inner instance.

    Sum norm with the truncated convolution product (unit is the delta at
    index 0); coordinatewise multiplication would make the all-ones unit
    too large for a normed ring, while convolution keeps the norm
    submultiplicative and the unit norm equal to the inner unit's.  The
    sup-norm, coordinatewise variant is ``SampledFunctionAlgebra`` on
    ``range(truncation)``; only mode ``"l1"`` is accepted here.
    """

    kind = "sequence"

    def __init__(self, mode: str, truncation: int, inner: AlgebraInstance):
        if mode != "l1":
            raise ConfigError(
                f"unknown sequence mode {mode!r}; sup-norm sequences are "
                "SampledFunctionAlgebra(range(truncation), inner)"
            )
        if truncation < 1:
            raise ConfigError("truncation must be positive")
        self.mode = mode
        self.truncation = truncation
        super().__init__(inner, (truncation,))

    def mul(self, x, y):
        # truncated convolution, dropping degrees >= truncation: degree k
        # sums x[i] * y[k - i] over i = 0..k in order, one shifted product
        # of whole sequences per i; the operands are broadcast first, since
        # moving the sequence axis to the front would misalign batch axes.
        # The batch axes that lead one operand only stay outermost in
        # memory, so that the products of one element with a stack are laid
        # out as a stack of single products: numpy reduces the sequence
        # axis of each in the same order, and their norms match bit for bit
        axis = -1 - len(self.inner.shape)
        lead = abs(np.ndim(x) - np.ndim(y))
        xs, ys = (np.moveaxis(v, axis, lead) for v in np.broadcast_arrays(x, y))
        out = np.zeros(xs.shape, self.dtype)
        xs, ys, acc = (np.moveaxis(v, lead, 0) for v in (xs, ys, out))
        t = self.truncation
        for i in range(t):
            acc[i:] = self.inner.add(acc[i:], self._entry_mul(xs[i : i + 1], ys[: t - i]))
        return np.moveaxis(out, lead, axis)

    def _identity(self):
        out = self.zero()
        out[0] = self.inner.one()
        return out

    def norms(self, x):
        return np.add.reduce(self.inner.norms(x), axis=-1)

    def describe(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "truncation": self.truncation,
            "inner": self.inner.describe(),
        }


# ---------------------------------------------------------------------------
# towers


@dataclass
class Tower:
    """A sequence of instances with norm-nonincreasing unital connecting maps.

    Models a sequential colimit of normed rings; the colimit itself is
    never materialized.  ``_connect(i, x)`` is the image of a level-``i``
    element at level ``i + 1``; for the towers built here every connecting
    map is isometric, so a level norm is also the norm in the colimit.
    """

    kind: str
    levels: list[AlgebraInstance]
    _connect: Callable = field(repr=False)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def push(self, x, i: int, j: int):
        """Image of a level-``i`` element at level ``j >= i``."""
        if not 0 <= i <= j <= self.depth:
            raise ConfigError(f"push {i} -> {j} outside tower of depth {self.depth}")
        for k in range(i, j):
            x = self._connect(k, x)
        return x

    def describe(self) -> dict:
        return {"kind": self.kind, "depth": self.depth}


def make_uhf_tower(depth: int) -> Tower:
    """Matrix sizes doubling, connecting map ``a -> diag(a, a)``.

    Levels are complex matrix algebras of size ``2**i`` with the
    max-column-l1 norm; the connecting maps are unital isometries and
    preserve the normalized trace.
    """
    if not 1 <= depth <= 12:
        raise ConfigError("uhf tower depth must be between 1 and 12")
    levels = [MatrixAlgebra(COMPLEX, 2**i) for i in range(depth + 1)]

    def connect(i, a):
        return np.kron(np.eye(2, dtype=complex), a)

    return Tower(kind="uhf", levels=levels, _connect=connect)


def cantor_grid(i: int) -> tuple[str, ...]:
    """All bit strings of length ``i`` in lexicographic order."""
    if i == 0:
        return ("",)
    return tuple(format(k, f"0{i}b") for k in range(2**i))


def make_cantor_tower(depth: int) -> Tower:
    """Function algebras on binary grids, connected by dropping the new bit.

    Level ``i`` is the complex function algebra on the ``2**i`` bit strings
    of length ``i``; the connecting map is precomposition with the
    projection that forgets the last bit, i.e. each value is repeated
    twice.  Commutative, so idempotent classes are literal indicator
    functions.
    """
    if not 0 <= depth <= 16:
        raise ConfigError("cantor tower depth must be between 0 and 16")
    levels = [SampledFunctionAlgebra(cantor_grid(i), COMPLEX) for i in range(depth + 1)]

    def connect(i, v):
        return np.repeat(v, 2)

    return Tower(kind="cantor", levels=levels, _connect=connect)


# ---------------------------------------------------------------------------
# seeded generators

_MAX_GENERATOR_RETRIES = 64


def random_unit(instance: MatrixAlgebra, rng, spread: float = 1.0):
    """Random well-conditioned invertible matrix (complex scalars only).

    A draw is accepted when its spectral condition number is below 1e3.
    Since ``cond_2(s) <= norm_F(s) * norm_F(inv(s))``, a Frobenius product
    below 0.999e3 decides acceptance without an SVD; only draws at or above
    that cut pay for ``np.linalg.cond``.  Accepts and rejects are those of
    the condition-number rule alone, so the seeded stream is unchanged.
    """
    if not (isinstance(instance, MatrixAlgebra) and over_complex(instance)):
        raise ConfigError("random units need complex matrices")
    return _draw_unit(instance.n, rng, spread)[0]


def _draw_unit(n: int, rng, spread: float):
    """``(s, inv(s))`` for the next accepted draw of :func:`random_unit`."""
    for _ in range(_MAX_GENERATOR_RETRIES):
        s = np.eye(n, dtype=complex) + spread * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / max(1.0, math.sqrt(n))
        try:
            s_inv = np.linalg.inv(s)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(s) * np.linalg.norm(s_inv) < 0.999e3 or np.linalg.cond(s) < 1e3:
            return s, s_inv
    raise IdemkitError("failed to draw a well-conditioned unit")


def conjugated_projector(instance: MatrixAlgebra, rank: int, rng, spread: float = 1.0):
    """Random idempotent of the given rank: a conjugated 0/1 diagonal.

    ``s @ diag(mask)`` is ``s`` with its columns scaled by the mask, so the
    idempotent is one product, ``(s * mask) @ s_inv``; the diagonal is
    never built.
    """
    if not (isinstance(instance, MatrixAlgebra) and over_complex(instance)):
        raise ConfigError("projector generator needs complex matrices")
    n = instance.n
    if not 0 <= rank <= n:
        raise ConfigError("rank out of range")
    mask = np.zeros(n)
    mask[rng.permutation(n)[:rank]] = 1.0
    s, s_inv = _draw_unit(n, rng, spread)
    return (s * mask) @ s_inv


def random_almost_idempotent(instance: MatrixAlgebra, t: float, seed: int):
    """Element ``a`` with defect ``norm(a*a - a)`` inside ``[t/2, t]``.

    Built as a conjugated 0/1 diagonal plus a scaled perturbation, with the
    scale found by bisection on the measured defect.  Deterministic for
    equal seeds.  ``t = 0`` returns the exact conjugated projector.
    """
    if not 0 <= t < 0.25:
        raise ConfigError("target defect must lie in [0, 1/4)")
    rng = np.random.default_rng(seed)
    n = instance.n
    defect = lambda a: instance.norm(a @ a - a)
    for _ in range(_MAX_GENERATOR_RETRIES):
        rank = int(rng.integers(0, n + 1))
        base = conjugated_projector(instance, rank, rng, spread=0.5)
        if t == 0:
            return base
        p = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p /= instance.norm(p)
        # grow the scale until the defect band is bracketed, then bisect
        lo, hi = 0.0, t / 4
        for _ in range(60):
            d = defect(base + hi * p)
            if d >= t / 2:
                break
            lo, hi = hi, 2 * hi
        else:
            continue
        # d is always the defect at hi: each scale is measured once
        for _ in range(200):
            if t / 2 <= d <= t:
                return base + hi * p
            mid = (lo + hi) / 2
            d_mid = defect(base + mid * p)
            if d_mid >= t / 2:
                hi, d = mid, d_mid
            else:
                lo = mid
    raise IdemkitError("could not reach the requested defect band")


# ---------------------------------------------------------------------------
# descriptors

TOWER_KINDS = ("uhf", "cantor")

#: the most entries one product of a descriptor may form or walk one at a
#: time (see :func:`product_work`), as for 4096 x 4096 complex matrices; at
#: least an element's entry count, so it bounds elements and held entries
#: too.  ``norm-audit`` bounds by it the work of one row, the products of
#: one sample with all samples + 2 of them, which it forms in one call
MAX_ELEMENT_ENTRIES = 4096**2


def product_work(instance: AlgebraInstance) -> int:
    """The work of one product of ``instance``, the entries it forms or
    walks one at a time, as :func:`parse_instance` counts and bounds it."""
    work = 1
    while isinstance(instance, Container):
        work *= _level_work(type(instance), instance.axes[0], instance.inner)
        instance = instance.inner
    return work


def _level_work(cls, size: int, inner: AlgebraInstance) -> int:
    """The factor by which a container level of class ``cls`` and size
    ``size`` over ``inner`` multiplies the work of an inner product."""
    if issubclass(cls, MatrixAlgebra):
        # a BLAS matmul forms only its n**2 outputs; an object matmul, or
        # one over a non-scalar inner instance, forms all n**3 products
        return size**2 if isinstance(inner, ComplexScalars) else size**3
    return size**2 if issubclass(cls, SequenceAlgebra) else size


_REQUIRED = object()


def parse_instance(desc: dict) -> AlgebraInstance:
    """Build an instance from a JSON descriptor.

    Accepts the flat form ``{"kind": "matrix", "n": 4, ...}`` and the
    enveloped form ``{"kind": "matrix", "params": {"n": 4, ...}}``, and
    checks field types (booleans are not integers).  The ``inner`` chain
    is walked without recursion and built innermost first.  Before a level
    is built, the work of one of its products (:func:`product_work`), the
    entries it forms or walks one at a time, must be at most
    ``MAX_ELEMENT_ENTRIES``: 1 for a scalar; ``n**2`` for a matrix
    over complex scalars (a BLAS matmul forms only its outputs), ``n**3``
    over scaled integers (an object matmul multiplies entry by entry) and
    ``n**3 * w`` over a non-scalar inner instance of work ``w``; ``points *
    w`` for functions and ``"linf"`` sequences (sampled functions on
    ``range(truncation)``); ``truncation**2 * w`` for an l1 sequence.
    Batched along one more axis, as ``collapse`` batches them, products
    may form arrays of at most 32 axes, the most that ``np.broadcast``
    takes (``SequenceAlgebra.mul`` calls it).
    """
    levels = []  # (size, constructor over the inner instance), outermost first
    while True:
        kind, d = _unwrap("instance", desc)
        if kind in ("complex", "scaled-integers"):
            _reject_extras(kind, d, () if kind == "complex" else ("r",))
            instance = COMPLEX if kind == "complex" else ScaledIntegers(as_fraction(d.get("r", 1)))
            break
        if kind == "matrix":
            _reject_extras(kind, d, ("n", "norm", "inner"))
            size, norm = _field(kind, d, "n", int), _field(kind, d, "norm", str, "col-l1")
            build = functools.partial(MatrixAlgebra, n=size, norm_kind=norm)
        elif kind == "functions":
            _reject_extras(kind, d, ("points", "inner"))
            points = _field(kind, d, "points", (int, list), 2)
            size = points if isinstance(points, int) else len(points)  # len(range) overflows
            grid = range(points) if isinstance(points, int) else points
            build = functools.partial(SampledFunctionAlgebra, grid)
        elif kind == "sequence":
            _reject_extras(kind, d, ("mode", "truncation", "inner"))
            mode, size = _field(kind, d, "mode", str, "l1"), _field(kind, d, "truncation", int, 8)
            build = functools.partial(SequenceAlgebra, mode, size)
            if mode == "linf":
                build = functools.partial(SampledFunctionAlgebra, range(size))
        elif kind in TOWER_KINDS:
            raise ConfigError(f"{kind!r} is a tower descriptor; use parse_tower")
        else:
            raise ConfigError(f"unknown instance kind {kind!r}")
        levels.append((size, build))
        desc = _field(kind, d, "inner", dict, {"kind": "complex"})
    # innermost first, from a batch axis; a size below 1 is refused when built
    work, axes = 1, 1
    for size, build in reversed(levels):
        work *= _level_work(build.func, size, instance)
        # over a scalar x @ y, else n**3 block products
        axes += (3 if instance.shape else 2) if build.func is MatrixAlgebra else 1
        if abs(work) > MAX_ELEMENT_ENTRIES:
            raise ConfigError(f"a product would form or walk over {MAX_ELEMENT_ENTRIES} entries")
        if axes > 32:  # numpy's limit, not a size policy
            raise ConfigError("a product would form arrays of more than 32 axes")
        instance = build(instance)
    return instance


def parse_tower(desc: dict) -> Tower:
    """Build a tower from a JSON descriptor like ``{"kind": "uhf", "depth": 6}``."""
    kind, d = _unwrap("tower", desc)
    _reject_extras(kind, d, ("depth",))
    depth = _field(kind, d, "depth", int, 4)
    if kind == "uhf":
        return make_uhf_tower(depth)
    if kind == "cantor":
        return make_cantor_tower(depth)
    raise ConfigError(f"unknown tower kind {kind!r}")


def _unwrap(what: str, desc) -> tuple:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ConfigError(f"{what} descriptor needs a 'kind': {desc!r}")
    d = dict(desc)
    kind = d.pop("kind")
    if set(d) == {"params"}:
        if not isinstance(d["params"], dict):
            raise ConfigError(f"{what} descriptor 'params' must be an object: {d['params']!r}")
        d = dict(d["params"])
    return kind, d


def _field(kind: str, d: dict, name: str, types, default=_REQUIRED):
    if name not in d:
        if default is _REQUIRED:
            raise ConfigError(f"{kind!r} descriptor needs the field {name!r}")
        return default
    value = d[name]
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{kind!r} field {name!r} has the wrong type: {value!r}")
    return value


def _reject_extras(kind: str, d: dict, allowed: tuple) -> None:
    extras = set(d) - set(allowed)
    if extras:
        raise ConfigError(f"unknown fields for {kind!r}: {sorted(extras)}")


def registered_instances() -> list[AlgebraInstance]:
    """The standard zoo audited by the norm-axiom acceptance test.

    Only instances claiming the full ring contract appear here; scaled
    integers with scale other than 1 are normed groups whose deliberately
    failing ring axioms are exercised separately.
    """
    return [
        COMPLEX,
        ScaledIntegers(1),
        MatrixAlgebra(COMPLEX, 2),
        MatrixAlgebra(COMPLEX, 4),
        MatrixAlgebra(COMPLEX, 2, norm_kind="spectral"),
        MatrixAlgebra(ScaledIntegers(1), 2),
        MatrixAlgebra(MatrixAlgebra(COMPLEX, 2), 2),
        SampledFunctionAlgebra(cantor_grid(2), COMPLEX),
        SequenceAlgebra("l1", 6, COMPLEX),
        SampledFunctionAlgebra(range(6), COMPLEX),
    ]
