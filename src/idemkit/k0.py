"""Idempotent classes, equivalence testing and K0 presentations.

General conjugacy search is undecidable, so equivalence is decided through
complete class keys plus explicit unit construction, never by unbounded
search: integer rank (rounded trace) for complex matrix algebras, the
pointwise 0/1 vector for sampled commutative algebras.  The keys are
conjugation invariants, and on the instances supported here they are
complete.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, NamedTuple, Optional

import numpy as np

from .calculus import (
    CertifiedIdempotent,
    CertifiedUnit,
    certify_unit,
    conjugating_unit,
    conjugation_bound,
)
from .core import AlgebraInstance, Certificate
from .errors import ConfigError
from .instances import (
    ComplexScalars,
    MatrixAlgebra,
    SampledFunctionAlgebra,
    Tower,
    over_complex,
)

#: tolerance at which a rounded trace still counts as the integer rank
RANK_TOL = 1e-6

#: seed of the Gaussian sketch whose image spans an idempotent's range
_SKETCH_SEED = 0x1DE


class IdempotentClass(NamedTuple):
    """A certified idempotent together with its conjugation-invariant key.

    An immutable named tuple ``(representative, key, cert)``.
    """

    representative: CertifiedIdempotent
    key: Any
    cert: Certificate


def classify(instance: AlgebraInstance, e: CertifiedIdempotent) -> IdempotentClass:
    """Compute the class key of a certified idempotent.

    Complex matrix algebras and the complex scalars (a scalar is its own
    trace): the rank, i.e. the trace rounded to the nearest integer,
    certified both against the hard rounding threshold 0.5 and the
    integrality tolerance ``RANK_TOL``.  Sampled commutative algebras over
    the complex scalars: the gridwise 0/1 vector.
    """
    cert = instance.certificate()
    if isinstance(instance, ComplexScalars) or (
        isinstance(instance, MatrixAlgebra) and over_complex(instance)
    ):
        rank, gap = _rounded_trace(e.e)
        cert.add("rank-gap", gap, 0.5)
        cert.add("rank-integrality", gap, RANK_TOL)
        return IdempotentClass(e, rank, cert)
    if isinstance(instance, SampledFunctionAlgebra) and over_complex(instance):
        values = np.asarray(e.e)
        bits = grid_bits(values)
        # hypot is the scalar complex abs; numpy's vectorized abs can differ by an ulp
        gap = values - bits
        cert.add("grid-gap", float(np.hypot(gap.real, gap.imag).max()), RANK_TOL)
        if np.any((bits != 0) & (bits != 1)):
            raise ConfigError("sampled element is not near a 0/1 vector")
        return IdempotentClass(e, tuple(bits.tolist()), cert)
    raise ConfigError(f"no complete class key for instance kind {instance.kind!r}")


def _rounded_trace(x) -> tuple[int, float]:
    """The trace rounded to an integer, and its distance from that integer;
    a scalar is its own trace."""
    tr = complex(np.trace(np.atleast_2d(x)))
    rank = int(round(tr.real))
    return rank, abs(tr - rank)


def grid_bits(values) -> np.ndarray:
    """Real parts of a grid vector rounded to integers, half to even as
    ``round`` does."""
    return np.rint(np.asarray(values).real).astype(np.int64)


def normalized_trace_key(instance: MatrixAlgebra, e) -> Fraction:
    """Rank over matrix size, as an exact rational (the tower-level key)."""
    return Fraction(_rounded_trace(e)[0], instance.n)


# ---------------------------------------------------------------------------
# equivalence


class EquivalenceResult(NamedTuple):
    """Outcome of :func:`are_equivalent`, as an immutable named tuple.

    ``verdict`` is ``"yes"`` (with the certified ``unit``), ``"no"`` (with
    the differing keys as ``witness``) or ``"unknown"``.
    """

    verdict: str  # "yes" | "no" | "unknown"
    unit: Optional[CertifiedUnit] = None
    witness: Optional[dict] = None


def are_equivalent(
    instance: AlgebraInstance,
    e: CertifiedIdempotent,
    f: CertifiedIdempotent,
    tol: float = 1e-9,
) -> EquivalenceResult:
    """Decide conjugacy of two certified idempotents.

    "yes" comes with a certified conjugating unit, obtained either by
    proximity (when ``2*norm(e)*norm(e-f) + norm(e-f)**2 < 1``) or, on
    complex matrix algebras, by an explicit frame-matching unit between
    idempotents of equal rank: one QR per idempotent, no SVD
    (:func:`_matrix_conjugator`).  "no" comes with the differing class keys.
    "unknown" is returned when neither route applies.
    """
    try:
        key_e = classify(instance, e).key
        key_f = classify(instance, f).key
        if key_e != key_f:
            return EquivalenceResult("no", witness={"key_e": key_e, "key_f": key_f})
    except ConfigError:
        key_e = key_f = None
    ne, dist = instance.norm(e.e), instance.distance(e.e, f.e)
    if conjugation_bound(ne, dist) < 1:
        unit = conjugating_unit(instance, e, f, tol, e_norm=ne, distance=dist)
        return EquivalenceResult("yes", unit=unit)
    if isinstance(instance, MatrixAlgebra) and over_complex(instance) and key_e is not None:
        return EquivalenceResult(
            "yes", unit=_matrix_conjugator(instance, e, f, int(key_e), tol)
        )
    return EquivalenceResult("unknown")


def _matrix_conjugator(
    instance: MatrixAlgebra,
    e: CertifiedIdempotent,
    f: CertifiedIdempotent,
    rank: int,
    tol: float,
) -> CertifiedUnit:
    """Explicit unit between equal-rank idempotents: one QR per idempotent, no SVD.

    Each idempotent ``p`` gets a unitary frame ``q`` (:func:`_frame`) in
    which ``q* p q = [[1, x], [0, 0]]``, so ``w = q [[1, -x], [0, 1]]``
    satisfies ``p w = w diag(1_r, 0)`` and has the explicit inverse
    ``[[1, x], [0, 1]] q*``.  The unit ``we wf^-1`` is therefore
    ``qe [[1, xf - xe], [0, 1]] qf*``, and its inverse is the same with
    ``e`` and ``f`` swapped; no linear system is solved.  The frame algebra
    is plain numpy, so the only instance products are the certificate's.
    """
    g = np.random.default_rng(_SKETCH_SEED).standard_normal((instance.n, rank))
    (qe, xe), (qf, xf) = _frame(e.e, g), _frame(f.e, g)
    d = xf - xe
    u = _shear(qe, d) @ qf.conj().T
    u_inv = _shear(qf, -d) @ qe.conj().T
    cert = instance.certificate()
    certify_unit(instance, cert, e.e, f.e, u, u_inv, tol)
    return CertifiedUnit(u, u_inv, cert)


def _frame(p, g):
    """Unitary ``q`` whose first ``r`` columns span ``range(p)``, and
    ``x = q1* p q2``.

    ``q`` is the complete QR factor of the sketch ``p g`` (``g`` real
    Gaussian, ``n x r``), whose columns span ``range(p)`` with probability
    one; the last ``n - r`` columns are orthogonal to ``range(p)``, so the
    bottom row of ``q* p q`` vanishes and ``q1* p q1 = 1``.
    """
    q = np.linalg.qr(p @ g, mode="complete")[0]
    r = g.shape[1]
    # multi_dot picks the cheaper order: about r n^2 or (n - r) n^2 multiply-adds
    return q, np.linalg.multi_dot([q[:, :r].conj().T, p, q[:, r:]])


def _shear(q, d):
    """``q [[1, d], [0, 1]]`` for an ``r x (n - r)`` block ``d``."""
    r = d.shape[0]
    out = q.copy()
    out[:, r:] += q[:, :r] @ d
    return out


# ---------------------------------------------------------------------------
# K0 presentations


@dataclass(frozen=True)
class K0Presentation:
    """A finitely presented abelian group with a class-key map.

    ``group`` is one of ``"Z"``, ``"Z^k"`` or ``"Z[1/2]"``; ``free_rank``
    is the number of free generators (``None`` for the dyadic colimit).
    """

    group: str
    free_rank: Optional[int]
    generators: tuple
    presentation: str
    class_map: str

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "free_rank": self.free_rank,
            "generators": [str(g) for g in self.generators],
            "presentation": self.presentation,
            "class_map": self.class_map,
        }


def k0_of_instance(instance) -> K0Presentation:
    """K0 presentation for supported instances and towers.

    Complex matrix algebras give the integers generated by the rank-1
    class (size stabilization identifies every matrix class with its
    rank); sampled commutative algebras over the complex scalars give one
    integer per grid point; the doubling matrix tower gives the dyadic
    rationals presented as the colimit of multiplication-by-2 maps, with
    the normalized trace as class map.
    """
    if isinstance(instance, ComplexScalars):
        return K0Presentation(
            "Z", 1, ("[rank 1]",), "free abelian group on the rank-1 class", "rank"
        )
    if isinstance(instance, MatrixAlgebra) and over_complex(instance):
        return K0Presentation(
            "Z",
            1,
            ("[rank 1]",),
            "free abelian group on the rank-1 class; size stabilization merges "
            "matrix classes with equal rank",
            "rank",
        )
    if isinstance(instance, SampledFunctionAlgebra) and over_complex(instance):
        k = instance.size
        return K0Presentation(
            "Z" if k == 1 else f"Z^{k}",
            k,
            tuple(f"[point {p}]" for p in instance.grid),
            "free abelian group on the grid-point indicators",
            "pointwise 0/1 vector",
        )
    if isinstance(instance, Tower):
        if instance.kind == "uhf":
            return K0Presentation(
                "Z[1/2]",
                None,
                ("[normalized rank 1/2^i at level i]",),
                "colim(Z --*2--> Z --*2--> ...), one copy per tower level",
                "normalized trace, an exact dyadic rational",
            )
        raise ConfigError(
            f"unsupported instance kind for K0: tower {instance.kind!r} "
            "(its colimit presentation is not finitely generated; use a level)"
        )
    raise ConfigError(f"unsupported instance kind for K0: {getattr(instance, 'kind', instance)!r}")
