"""Trivialization of idempotent paths by adaptive interval refinement.

A path of idempotents in a matrix algebra, sampled on demand, is cut into
segments whose adjacent samples are at most ``SEGMENT_GAP`` apart; the
samples' intertwiners multiply into one global unit intertwining the two
endpoints, and the reverse product, closed once by Newton-Schulz steps,
inverts it.  That unit is the finite certificate behind the homotopy
invariance of idempotent classes.  The refinement is adaptive (only
segments whose gap exceeds the cap are split) rather than uniform dyadic:
this is a deliberate reinterpretation of the usual nested-interval
argument, chosen because it samples only where the path moves fast.

Excision-style decompositions of the path ring itself have no finite model
and are out of scope here; this module certifies class constancy along a
path, nothing more.

The random paths of :func:`conjugation_path` sample ``exp(tX)`` and
``exp(-tX)`` together with numpy alone, by scaling and squaring of one
diagonal Padé approximant (:func:`_expm_pair`); idemkit needs no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calculus import (
    CertifiedIdempotent,
    CertifiedUnit,
    certify_idempotent,
    certify_unit,
    intertwiner,
)
from .core import AlgebraInstance
from .errors import ConfigError, PathError
from .instances import COMPLEX, MatrixAlgebra
from .k0 import classify

#: a segment is accepted when its two samples are at most this far apart
SEGMENT_GAP = 0.25


@dataclass
class IdempotentPath:
    """A sampled path ``t -> e(t)`` of idempotents with a Lipschitz hint.

    Every sample is certified once, on first use: its defect certificate
    against ``sample_tol`` is formed from the one product ``e*e`` and kept,
    and a defect that is not at most ``sample_tol`` (NaN included) aborts
    with a diagnostic.  The hint is validated on every sampled pair, and a
    violation aborts too, rather than returning an uncertified unit.
    """

    instance: AlgebraInstance
    sampler: Callable[[float], object]
    lipschitz_hint: float
    sample_tol: float = 1e-9
    _certified: dict = field(default_factory=dict, repr=False)

    def at(self, t: float):
        return self.certified(t).e

    def certified(self, t: float) -> CertifiedIdempotent:
        """The sample at ``t`` with its defect certificate, formed on first use."""
        if t not in self._certified:
            sample = certify_idempotent(self.instance, self.sampler(t), self.sample_tol)
            defect = float(sample.defect)
            if not defect <= self.sample_tol:  # NaN fails too
                raise PathError(
                    f"path sample at t={t} fails the idempotent check: defect {defect}"
                )
            self._certified[t] = sample
        return self._certified[t]


def path_trivialize(path: IdempotentPath, max_depth: int = 24, tol: float = 1e-8) -> CertifiedUnit:
    """One unit intertwining the path's endpoints, closed once.

    Adaptively bisects until every adjacent pair of samples is at most
    ``SEGMENT_GAP`` apart.  With the intertwiner ``v(e, f) = e*f +
    (1-e)*(1-f)`` of two certified samples, ``e*v(e, f) = v(e, f)*f`` and
    ``v(f, e)*v(e, f) = 1 - (e-f)**2``, so ``u = v(e_0, e_1)...v(e_{k-1},
    e_k)`` intertwines the endpoints and the reverse product ``x =
    v(e_k, e_{k-1})...v(e_1, e_0)`` is an approximate inverse.  Each
    product starts from its first factor, so ``k`` segments take ``k - 1``
    composing products per side.  Newton-Schulz steps ``x <- x*(2 - u*x)``
    square ``1 - u*x``; they stop once ``norm(u*x - 1) <= tol/100`` or once
    a step does not halve it, the rounding floor.  Stopped at ``tol/100``,
    the loop also measures ``norm(x*u - 1)``, which on wide paths reads
    hundreds of times larger, and takes further steps, which square it too,
    while it is above ``tol`` and halves.  The gap cap only keeps
    ``1 - u*x`` small enough for the steps to converge; the certificate is
    the one check: ``norm(e(0)*u - u*e(1)) <= tol`` with both residuals of
    ``x`` (as the last step measured them), every segment's gap
    against ``SEGMENT_GAP`` and the segment-count bound
    ``2*ceil(L/SEGMENT_GAP) + 2``.  Raises :class:`PathError` for a
    negative ``max_depth`` or a hint that is not finite, when some gap stays
    above ``SEGMENT_GAP`` at depth ``max_depth`` (the path is too wild for
    its hint) or when the hint itself is violated.
    """
    if max_depth < 0:
        raise PathError("max_depth must be nonnegative")
    L = float(path.lipschitz_hint)
    if not math.isfinite(L):
        raise PathError(f"the Lipschitz hint must be finite, got {L}")
    inst = path.instance
    # each segment's gap, measured once
    points = [0.0, 1.0]
    gaps = [float(inst.distance(path.at(0.0), path.at(1.0)))]
    fresh = [0]  # the segments whose gap no earlier depth checked against the hint

    for depth in range(max_depth + 1):
        for k in fresh:
            s, t = points[k], points[k + 1]
            if gaps[k] > L * (t - s) + inst.slack:
                raise PathError(
                    f"path violates its Lipschitz hint on [{s}, {t}]: "
                    f"gap {gaps[k]} > {L} * {t - s}"
                )
        bad = [k for k, gap in enumerate(gaps) if gap > SEGMENT_GAP]
        if not bad:
            break
        if depth == max_depth:
            raise PathError(
                f"path too wild for hint: {len(bad)} segment(s) above threshold "
                f"{SEGMENT_GAP} at depth {max_depth}"
            )
        # split left to right, so the first sample to fail is the one a
        # pass over every point would meet first; each split moves the
        # later segments one place right
        fresh = []
        for shift, k in enumerate(bad):
            k += shift
            s, t = points[k], points[k + 1]
            m = (s + t) / 2
            e = path.at(m)
            points.insert(k + 1, m)
            gaps[k : k + 1] = [
                float(inst.distance(path.at(s), e)),
                float(inst.distance(e, path.at(t))),
            ]
            fresh += [k, k + 1]

    samples = [path.at(t) for t in points]
    u = intertwiner(inst, samples[0], samples[1])
    x = intertwiner(inst, samples[1], samples[0])
    for e, f in zip(samples[1:], samples[2:]):
        u = inst.mul(u, intertwiner(inst, e, f))
        x = inst.mul(intertwiner(inst, f, e), x)
    one = inst.one()
    d = inst.sub(inst.mul(u, x), one)
    residual = inst.norm(d)
    while residual > tol / 100:
        x = inst.sub(x, inst.mul(x, d))
        d = inst.sub(inst.mul(u, x), one)
        last, residual = residual, inst.norm(d)
        if not residual < last / 2:  # the rounding floor (NaN included)
            break
    right = None
    if residual <= tol / 100:
        # the x*u the certificate reads; a step x <- (2 - x*u)*x, the same
        # iterate, squares both residuals
        d_right = inst.sub(inst.mul(x, u), one)
        right = inst.norm(d_right)
        while right > tol:
            x = inst.sub(x, inst.mul(d_right, x))
            residual = inst.distance(inst.mul(u, x), one)
            d_right = inst.sub(inst.mul(x, u), one)
            last, right = right, inst.norm(d_right)
            if not right < last / 2:
                break

    cert = inst.certificate()
    e0, e1 = path.at(0.0), path.at(1.0)
    certify_unit(
        inst, cert, e0, e1, u, x, tol, intertwine_rhs=tol, residual_left=residual, residual_right=right
    )
    cert.add("segments", len(gaps), 2 * math.ceil(L / SEGMENT_GAP) + 2)
    for k, gap in enumerate(gaps):
        cert.add(f"segment-gap[{k}]", gap, SEGMENT_GAP)
    return CertifiedUnit(u, x, cert)


# ---------------------------------------------------------------------------
# canned paths and the rank-constancy experiment


def rotation_path(instance: MatrixAlgebra) -> IdempotentPath:
    """Rank-1 projector conjugated by a quarter turn in the first two axes."""
    n = instance.n
    if n < 2:
        raise PathError("rotation path needs size at least 2")
    mask = np.zeros(n)
    mask[0] = 1.0

    def sample(t: float):
        angle = math.pi * t / 2
        r = np.eye(n, dtype=complex)
        r[0, 0] = r[1, 1] = math.cos(angle)
        r[0, 1] = -math.sin(angle)
        r[1, 0] = math.sin(angle)
        # r @ diag(mask) @ r.T in one product
        return (r * mask) @ r.T

    return IdempotentPath(instance, sample, lipschitz_hint=2.0 * math.pi)


#: Padé degrees with the largest column-l1 norm ``theta_m`` of ``a`` for
#: which the [m/m] approximant keeps ``exp(a)`` to double precision
#: (Higham 2005, Table 2.3)
_PADE_THETA = (
    (3, 1.495585217958292e-2),
    (5, 2.539398330063230e-1),
    (7, 9.504178996162932e-1),
    (9, 2.097847961257068e0),
    (13, 5.371920351148152e0),
)


def _pade_rows(m: int):
    """The [m/m] Padé numerator's coefficients as rows over ``(1, a^2, a^4, ...)``.

    The numerator ``V + U`` of ``exp`` has coefficients ``b_j = (2m - j)! /
    (j! (m - j)!)``, scaled so that ``b_m = 1``.  Below degree 13 the two
    rows give ``V`` and ``W``, with the odd part ``U = a W``.  Degree 13
    uses only ``1, a^2, a^4, a^6``: rows 0 and 1 give the outer parts of
    ``V`` and ``W``, rows 2 and 3 the inner parts that ``a^6`` multiplies.
    """
    f = math.factorial
    b = [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]
    if m < 13:
        return np.array([b[0::2], b[1::2]])
    return np.array([b[0:8:2], b[1:8:2], (0.0, *b[8::2]), (0.0, *b[9::2])])


_PADE_ROWS = {m: _pade_rows(m) for m, _ in _PADE_THETA}


def _expm_pair(a):
    """``(exp(a), exp(-a))`` for a square array ``a``, from one set of powers.

    Scaling and squaring with the diagonal Padé approximant (Higham, SIAM
    J. Matrix Anal. Appl. 26(4), 2005): the degree is the lowest ``m`` in
    3, 5, 7, 9, 13 whose ``theta_m`` bounds the column-l1 norm of ``a``;
    above ``theta_13``, ``a`` is halved ``s`` times and both factors are
    squared ``s`` times.  With ``U`` odd and ``V`` even in ``a``, the
    approximant is ``r(a) = (V - U)^-1 (V + U)`` and ``r(-a) = (V + U)^-1
    (V - U)`` exactly, so both factors come from one batched solve.
    """
    n = len(a)
    norm = float(np.abs(a).sum(axis=0).max())
    for m, theta in _PADE_THETA:
        if norm <= theta:
            break
    s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
    if s:
        a = a * 0.5**s
    rows = _PADE_ROWS[m]
    powers = np.empty((rows.shape[1], n, n), dtype=np.result_type(a, 1.0))
    powers[0] = np.eye(n)
    np.matmul(a, a, out=powers[1])
    for j in range(2, len(powers)):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    vw = (rows @ powers.reshape(len(powers), -1)).reshape(-1, n, n)
    if m == 13:
        vw = vw[:2] + powers[3] @ vw[2:]
    v, w = vw
    u = a @ w
    q = np.empty_like(vw)
    np.subtract(v, u, out=q[0])
    np.add(v, u, out=q[1])
    pair = np.linalg.solve(q, q[::-1])
    for _ in range(s):
        pair = pair @ pair
    return pair[0], pair[1]


def conjugation_path(instance: MatrixAlgebra, rank: int, seed: int, spread: float = 0.5) -> IdempotentPath:
    """Smooth path ``t -> exp(tX) p exp(-tX)`` for a random direction ``X``.

    ``p`` is a 0/1 diagonal projector of the given rank and ``X`` has norm
    ``spread``; each sample takes both exponentials from one
    :func:`_expm_pair`.  Raises :class:`ConfigError` for a rank outside
    ``[0, n]``, a negative or non-finite spread, or a spread so large
    (about 350 or more) that the path's Lipschitz hint is not finite.
    """
    n = instance.n
    if not 0 <= rank <= n:
        raise ConfigError("rank out of range")
    if not 0 <= spread < math.inf:
        raise ConfigError("spread must be finite and nonnegative")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x *= spread / float(instance.norm(x))
    mask = np.zeros(n)
    mask[rng.permutation(n)[:rank]] = 1.0
    nx = float(instance.norm(x))
    try:
        # the norm of the 0/1 diagonal p, col-l1 or spectral alike
        max_e = float(mask.max()) * math.exp(2 * nx)
    except OverflowError:
        max_e = math.inf
    hint = 2 * nx * max_e * 1.5
    if not math.isfinite(hint):
        raise ConfigError(f"spread {spread} gives a Lipschitz hint that is not finite")

    def sample(t: float):
        g, ginv = _expm_pair(t * x)
        # g @ p @ ginv in one product
        return (g * mask) @ ginv

    return IdempotentPath(instance, sample, lipschitz_hint=hint)


@dataclass
class ExperimentReport:
    size: int
    trials: int
    failures: list
    max_segments: list

    @property
    def all_constant(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "size": self.size,
            "trials": self.trials,
            "failures": self.failures,
            "max_segments": self.max_segments,
            "all_constant": self.all_constant,
        }


def homotopy_invariance_experiment(
    n: int, trials: int, seed: int, tol: float = 1e-8
) -> ExperimentReport:
    """Random smooth idempotent paths must preserve the endpoint class key.

    Each trial conjugates a fixed projector by a one-parameter group of
    units, trivializes the path, and compares the integer keys of the two
    endpoints, classified from the samples the path has already certified;
    the failure list must come back empty.
    """
    if n > 8:
        raise PathError("experiment sizes above 8 are not supported")
    inst = MatrixAlgebra(COMPLEX, n)
    report = ExperimentReport(size=n, trials=trials, failures=[], max_segments=[])
    for idx in range(trials):
        rng = np.random.default_rng([seed, idx])
        rank = int(rng.integers(0, n + 1))
        path = conjugation_path(inst, rank, seed=int(rng.integers(0, 2**31)))
        unit = path_trivialize(path, tol=tol)
        key0 = classify(inst, path.certified(0.0)).key
        key1 = classify(inst, path.certified(1.0)).key
        report.max_segments.append(int(unit.cert.entry("segments").lhs))
        if key0 != key1 or not unit.cert.valid:
            report.failures.append(
                {"trial": idx, "key0": key0, "key1": key1, "valid": unit.cert.valid}
            )
    return report
