"""Transfer of idempotents and equivalences between tower levels and colimit.

The colimit of a tower is never materialized: an element of it is a
:class:`LimitElement`, a finite-level representative plus a certified tail
bound, and every output is conditional on that promise.  The inequalities
that drive the transfers are evaluated as runtime certificate entries:
``h(eps) + eps`` for pushing an idempotent class down to a finite level,
and ``eps * norm(e) * (eps + norm(u) + norm(u_inv))`` for pulling an
equivalence back.  "Advancing the level" is a deterministic scan from the
current level upward with a measured approximation error per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Optional

import numpy as np

from .calculus import (
    CertifiedIdempotent,
    CertifiedUnit,
    _inverse_sqrt_excess,
    _lift,
    certify_idempotent,
    certify_unit,
    conjugating_unit,
    conjugation_bound,
    conjugation_threshold,
    h_bound,
    intertwiner,
    neumann_inverse,
)
from .core import Certificate
from .errors import ConfigError, PreconditionError, TowerTooShallowError
from .instances import (
    MatrixAlgebra,
    SampledFunctionAlgebra,
    Tower,
    conjugated_projector,
    random_almost_idempotent,
)
from .k0 import grid_bits, normalized_trace_key


class LimitElement(NamedTuple):
    """A colimit element: level representative plus certified tail bound.

    ``tail_bound`` bounds the colimit distance between the representative's
    image and the intended limit element; it is the caller's certified
    promise, and the transfers add it to the bounds they certify.  An
    immutable named tuple ``(level, representative, tail_bound)``.
    """

    level: int
    representative: Any
    tail_bound: float = 0.0


def colim_norm_bound(tower: Tower, x: LimitElement) -> float:
    """Certified upper bound for the norm of ``x`` in the colimit."""
    return float(tower.levels[x.level].norm(x.representative)) + x.tail_bound


def default_eps(e_norm_bound: float) -> float:
    """Default transfer accuracy: small enough that the final conjugation
    step is guaranteed to pass its proximity threshold."""
    return min(0.01, conjugation_threshold(e_norm_bound) / 2)


# ---------------------------------------------------------------------------
# class keys at tower levels and in the colimit


def level_class_key(tower: Tower, level: int, e):
    """Conjugation-invariant key of a level idempotent, colimit-normalized.

    Doubling matrix towers: the normalized trace as an exact rational.
    Binary-grid function towers: the 0/1 vector reduced to its shortest
    representative (repeated halving of duplicated pairs), which is
    invariant under pushing to deeper levels.
    """
    inst = tower.levels[level]
    if isinstance(inst, MatrixAlgebra):
        return normalized_trace_key(inst, e)
    if isinstance(inst, SampledFunctionAlgebra):
        bits = grid_bits(e)
        while bits.size > 1 and np.array_equal(bits[::2], bits[1::2]):
            bits = bits[::2]
        return tuple(bits.tolist())
    raise ConfigError(f"no colimit class key for level kind {inst.kind!r}")


# ---------------------------------------------------------------------------
# surjective transfer: colimit idempotent -> finite level


class SurjectiveTransfer(NamedTuple):
    """Outcome of :func:`transfer_surjective`: the level reached, the
    certified level idempotent, the conjugating unit and the transfer
    certificate, as an immutable named tuple."""

    level: int
    idempotent: CertifiedIdempotent
    unit: CertifiedUnit
    cert: Certificate


def transfer_surjective(
    tower: Tower,
    e: LimitElement,
    eps: Optional[float] = None,
    tol: float = 1e-12,
) -> SurjectiveTransfer:
    """Represent a colimit idempotent by a certified finite-level one.

    Scans levels from ``e.level`` upward for the first whose pushed
    representative ``a`` has ``defect + 2 * tail < eps``, polishes ``a``
    to an exact-level idempotent, certifies the colimit distance against
    ``h(eps) + eps``, and returns the conjugating unit witnessing that
    both define the same class.  The unit's elements are
    :class:`LimitElement` values; its inversion residuals certify the
    representative at its level, and the colimit statements are
    conditional on ``e.tail_bound``.

    Products already formed are read, not formed again: the lift reads
    the scan's ``a*a`` and the defect measured on it, and the unit
    ``1 - e - a + 2*e*a`` reads the ``e*a`` that the lift's ``commute``
    entry was measured on (``a*a`` itself when no Newton step is needed).
    For an exact level idempotent the whole round trip is then that one
    product, since the unit is within ``tol`` of 1 and its inverse is 1.
    Norms are read the same way, and a norm that only a zero tail
    multiplies is not measured: the ``surjective-transfer`` lhs is the
    lift's ``distance-derived`` lhs plus the tail, the input's colimit
    norm is ``norm(e_j)`` plus the tail when ``e_j`` is the input
    representative, and ``norm(1 - e_j)`` and ``norm(u_inv)`` are measured
    only for a nonzero tail.  An exact level idempotent at its own level so
    takes four norms: the scan's defect, ``norm(2a - 1)``, ``norm(e_j)``
    and the inversion's ``norm(1 - u)``.
    """
    norm_e = None
    if eps is None:
        norm_e = colim_norm_bound(tower, e)
        eps = default_eps(norm_e)
    tail = e.tail_bound
    for j in range(e.level, tower.depth + 1):
        a_j = tower.push(e.representative, e.level, j)
        inst = tower.levels[j]
        a_sq = inst.mul(a_j, a_j)
        defect = inst.distance(a_sq, a_j)
        if float(defect) + 2 * tail < eps:
            break
    else:
        raise TowerTooShallowError(
            f"tower too shallow: no level has defect + 2*tail below eps = {eps}"
        )
    lifted, ea = _lift(inst, a_j, a_sq, "corrected", tol, defect)
    e_j = lifted.e

    dist = float(lifted.cert.entry("distance-derived").lhs) + tail
    b_e = float(inst.norm(e_j))
    if norm_e is None:
        norm_e = b_e + tail if e_j is e.representative else colim_norm_bound(tower, e)
    cert = inst.certificate()
    cert.add("surjective-transfer", dist, h_bound(eps) + eps)
    cert.extend(lifted.cert, prefix="lift:")

    # conjugating unit between the lifted idempotent's image and e:
    # proximity conjugation applies in the colimit because the certified
    # distance keeps 2*norm*d + d**2 below 1, which is the checkable
    # inequality here (the unit-distance bound itself needs two exact
    # idempotents and is only measurable at a single level, see
    # conjugating_unit)
    bound = conjugation_bound(b_e, dist)
    if bound >= 1:
        raise PreconditionError(
            f"transfer distance {dist} fails the conjugation threshold (bound {bound})"
        )
    u_rep = intertwiner(inst, e_j, a_j, ea)
    # a zero tail needs neither norm(1 - e_j) nor, below, norm(u_inv)
    tail_u = tail * (b_e + float(inst.norm(inst.sub(inst.one(), e_j)))) if tail else 0.0
    unit_cert = inst.certificate()
    unit_cert.add("conjugation-threshold", bound, 1)
    # the intertwining identity is algebraic: with e idempotent in the
    # colimit, the error is the lifted defect times (2*norm(e) + 1)
    unit_cert.add(
        "intertwine",
        float(lifted.cert.entry("defect").lhs) * (2 * norm_e + 1),
        tol * (1 + b_e + norm_e),
    )
    inverted = neumann_inverse(inst, u_rep, tol)
    unit_cert.extend(inverted.cert)
    tail_v = _inverse_tail(float(inst.norm(inverted.u_inv)), tail_u) if tail_u else 0.0
    unit = CertifiedUnit(
        LimitElement(j, u_rep, tail_u),
        LimitElement(j, inverted.u_inv, tail_v),
        unit_cert,
    )
    return SurjectiveTransfer(level=j, idempotent=lifted, unit=unit, cert=cert)


def _inverse_tail(inv_norm: float, tail: float) -> float:
    """Tail bound for the inverse of a perturbed unit."""
    if tail == 0:
        return 0.0
    if inv_norm * tail >= 1:
        return math.inf
    return inv_norm * inv_norm * tail / (1 - inv_norm * tail)


# ---------------------------------------------------------------------------
# injective transfer: colimit equivalence -> finite level


class InjectiveTransfer(NamedTuple):
    """Outcome of :func:`transfer_injective`: the level reached, the
    composed conjugating unit and its certificate (the unit's own), as an
    immutable named tuple."""

    level: int
    unit: CertifiedUnit
    cert: Certificate


def transfer_injective(
    tower: Tower,
    level: int,
    e_i: CertifiedIdempotent,
    f_i: CertifiedIdempotent,
    u: LimitElement,
    eps: Optional[float] = None,
    tol: float = 1e-9,
) -> InjectiveTransfer:
    """Turn a colimit conjugacy into an exact conjugacy at a finite level.

    ``u`` is a unit in the colimit promised to satisfy ``e*u = u*f``.  The
    scan pushes everything to each level ``j`` upward, measures the gap
    ``norm(u_j_inv * e_j * u_j - f_j)`` against the certified bound
    ``eps * norm(e) * (eps + norm(u) + norm(u_inv))``, and closes the
    remaining gap by a proximity conjugation, composing both units into
    one exact-level conjugator.  The closing conjugation's entries, and the
    defects of the idempotents it joins, are recorded as ``closing:``,
    ``closing:d:`` and ``closing:f:`` entries.
    """
    inst_u = tower.levels[u.level]
    u_inv_rep = inst_u.try_inverse(u.representative)
    b_e = float(tower.levels[level].norm(e_i.e))
    nu = colim_norm_bound(tower, u)
    nu_inv_rep = float(inst_u.norm(u_inv_rep))
    nu_inv = nu_inv_rep + _inverse_tail(nu_inv_rep, u.tail_bound)
    if eps is None:
        eps = max(default_eps(b_e), 2 * u.tail_bound)
    if u.tail_bound >= eps:
        raise TowerTooShallowError(
            f"tower too shallow: unit tail {u.tail_bound} never drops below eps = {eps}"
        )
    bound_rhs = eps * b_e * (eps + nu + nu_inv)

    start = max(level, u.level)
    for j in range(start, tower.depth + 1):
        inst = tower.levels[j]
        e_j = tower.push(e_i.e, level, j)
        f_j = tower.push(f_i.e, level, j)
        u_j = tower.push(u.representative, u.level, j)
        u_j_inv = tower.push(u_inv_rep, u.level, j)
        d = inst.mul(inst.mul(u_j_inv, e_j), u_j)
        nd, gap = inst.norm(d), inst.distance(d, f_j)
        if conjugation_bound(nd, gap) >= 1:
            continue
        cert = inst.certificate()
        cert.add("injective-bound", float(gap), bound_rhs)
        d_cert = certify_idempotent(inst, d, tol)
        f_cert = certify_idempotent(inst, f_j, tol)
        # each norm measured once: the scan's for d and the gap, one for f_j,
        # and at the start level e_j is e_i, whose norm is b_e
        nf = inst.norm(f_j)
        closing = conjugating_unit(inst, d_cert, f_cert, tol, e_norm=nd, f_norm=nf, distance=gap)
        total = inst.mul(u_j, closing.u)
        total_inv = inst.mul(closing.u_inv, u_j_inv)
        ne = b_e if j == level else float(inst.norm(e_j))
        certify_unit(
            inst, cert, e_j, f_j, total, total_inv, tol, intertwine_rhs=tol * (1 + ne + float(nf))
        )
        cert.extend(closing.cert, prefix="closing:")
        cert.extend(d_cert.cert, prefix="closing:d:")
        cert.extend(f_cert.cert, prefix="closing:f:")
        return InjectiveTransfer(level=j, unit=CertifiedUnit(total, total_inv, cert), cert=cert)
    raise TowerTooShallowError(
        "tower too shallow: the conjugation threshold was never met within depth"
    )


# ---------------------------------------------------------------------------
# Monte-Carlo class-preservation check


@dataclass
class CompareReport:
    """Outcome of :func:`k0_colimit_compare`.

    ``records`` holds one JSON record per trial: its inputs and class keys.
    ``certificates`` holds ``(name, Certificate)`` pairs, left out of
    ``to_json``: for each trial ``i``, its transfer certificate as
    ``transfer[i]`` and its conjugating unit's certificate as ``unit[i]``,
    then ``round-trip``, whose entry ``mismatches`` must be 0.  A record is
    tied to its two certificates by its ``trial`` index alone.
    """

    tower: dict
    trials: int
    mismatches: int
    records: list = field(default_factory=list)
    certificates: list = field(default_factory=list)

    @property
    def all_certificates_valid(self) -> bool:
        return all(cert.valid for _, cert in self.certificates)

    def to_json(self) -> dict:
        return {"tower": self.tower, "trials": self.trials, "records": self.records}


def _random_level_idempotent(tower: Tower, level: int, rng, almost: bool):
    """Trial data: a level element and an honest tail bound.

    Exact trials promise tail 0; almost-idempotent trials promise the
    certified distance to the nearest idempotent (the prefactor-aware lift
    bound), since the represented colimit element is that idempotent, not
    the perturbed representative itself.
    """
    inst = tower.levels[level]
    if isinstance(inst, MatrixAlgebra):
        if almost:
            e = random_almost_idempotent(inst, 1e-4, seed=int(rng.integers(0, 2**31)))
            t = float(inst.distance(inst.mul(e, e), e))
            two_a = float(inst.norm(inst.sub(inst.int_scale(2, e), inst.one())))
            tail = two_a * _inverse_sqrt_excess(t) / 2 + inst.slack
            return e, tail
        rank = int(rng.integers(0, inst.n + 1))
        return conjugated_projector(inst, rank, rng, spread=0.4), 0.0
    if isinstance(inst, SampledFunctionAlgebra):
        bits = rng.integers(0, 2, inst.size)
        return bits.astype(complex), 0.0
    raise ConfigError(f"no trial generator for level kind {inst.kind!r}")


def k0_colimit_compare(tower: Tower, trials: int, seed: int, eps: float = 0.01) -> CompareReport:
    """Monte-Carlo round trip: limit class -> finite level -> limit class.

    Each trial draws a level idempotent, views it as a colimit element with
    tail 0, transfers it back to a finite level, and compares the
    colimit-normalized class keys.  The mismatch count must be 0.
    """
    report = CompareReport(tower=tower.describe(), trials=trials, mismatches=0)
    for idx in range(trials):
        rng = np.random.default_rng([seed, idx])
        level = int(rng.integers(0, tower.depth + 1))
        almost = isinstance(tower.levels[level], MatrixAlgebra) and idx % 4 == 3
        e, tail = _random_level_idempotent(tower, level, rng, almost)
        key_in = level_class_key(tower, level, e)
        result = transfer_surjective(tower, LimitElement(level, e, tail), eps=eps)
        key_out = level_class_key(tower, result.level, result.idempotent.e)
        ok = key_in == key_out
        if not ok:
            report.mismatches += 1
        report.records.append(
            {
                "trial": idx,
                "level_in": level,
                "key_in": str(key_in),
                "level_out": result.level,
                "key_out": str(key_out),
                "match": ok,
            }
        )
        report.certificates.append((f"transfer[{idx}]", result.cert))
        report.certificates.append((f"unit[{idx}]", result.unit.cert))
    round_trip = Certificate()
    round_trip.add("mismatches", report.mismatches, 0)
    report.certificates.append(("round-trip", round_trip))
    return report
