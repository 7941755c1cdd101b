"""Trivialization of idempotent paths by adaptive interval refinement.

A path of idempotents in a matrix algebra, sampled on demand, is cut into
segments short enough that adjacent samples are conjugate by proximity;
the per-segment units compose into one global unit intertwining the two
endpoints, which is the finite certificate behind the homotopy invariance
of idempotent classes.  The refinement is adaptive (only segments that
violate the proximity threshold are split) rather than uniform dyadic:
this is a deliberate reinterpretation of the usual nested-interval
argument, chosen because it minimizes the number of unit compositions and
with it the accumulated floating error.

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
    neumann_inverse,
)
from .core import AlgebraInstance
from .errors import ConfigError, PathError
from .instances import COMPLEX, MatrixAlgebra
from .k0 import classify

#: a segment is accepted when its conjugation bound stays below this margin
SEGMENT_MARGIN = 0.5


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


def segment_threshold(max_norm: float) -> float:
    """Largest adjacent-sample distance accepted by the refinement.

    Solves ``2*B*g + g**2 = SEGMENT_MARGIN`` for the path's running norm
    bound ``B``, keeping every accepted segment well inside the proximity
    conjugation threshold.
    """
    b = float(max_norm)
    return math.sqrt(b * b + SEGMENT_MARGIN) - b


def path_trivialize(path: IdempotentPath, max_depth: int = 24, tol: float = 1e-8) -> CertifiedUnit:
    """Compose per-segment proximity conjugations into one global unit.

    Adaptively bisects until every adjacent pair of samples is within the
    segment threshold, then certifies ``norm(e(0)*u - u*e(1)) <= tol``
    together with the unit's residuals, the per-segment gaps, and the
    segment-count bound ``2*ceil(L/threshold) + 2``.  Each segment's unit
    is the intertwiner ``e*f + (1-e)*(1-f)`` of its two certified samples,
    inverted by :func:`~idemkit.calculus.neumann_inverse`.  No segment gets
    a certificate of its own: a gap ``g`` within the threshold keeps
    ``norm(u - 1) <= 2*B*g + g**2 <= SEGMENT_MARGIN < 1``, so the threshold
    is the one proximity check, ``neumann_inverse`` still refuses
    ``norm(1 - u) >= 1``, and the composed unit's certificate is the one
    check of the result.  The composition starts from the first segment's
    unit, so ``k`` segments take ``k - 1`` composing products per side.
    Raises :class:`PathError` for a negative ``max_depth`` or a hint that
    is not finite, when some gap stays above threshold at depth
    ``max_depth`` (the path is too wild for its hint) or when the hint
    itself is violated.
    """
    if max_depth < 0:
        raise PathError("max_depth must be nonnegative")
    L = float(path.lipschitz_hint)
    if not math.isfinite(L):
        raise PathError(f"the Lipschitz hint must be finite, got {L}")
    inst = path.instance
    # each point's norm and each segment's gap, measured once
    points = [0.0, 1.0]
    norms = [float(inst.norm(path.at(t))) for t in points]
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
        threshold = segment_threshold(max(norms))
        bad = [k for k, gap in enumerate(gaps) if gap > threshold]
        if not bad:
            break
        if depth == max_depth:
            raise PathError(
                f"path too wild for hint: {len(bad)} segment(s) above threshold "
                f"{threshold} at depth {max_depth}"
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
            norms.insert(k + 1, float(inst.norm(e)))
            gaps[k : k + 1] = [
                float(inst.distance(path.at(s), e)),
                float(inst.distance(e, path.at(t))),
            ]
            fresh += [k, k + 1]

    # the last pass's points, gaps and threshold are the accepted segmentation;
    # composition can amplify per-segment residuals by the product of unit
    # norms, so each segment's series is truncated two orders tighter
    seg_tol = tol / (100 * len(gaps))
    samples = [path.at(t) for t in points]
    # one segment's unit at a time: at n = 1024 each holds 32 MB
    units = (
        neumann_inverse(inst, intertwiner(inst, e, f), seg_tol)
        for e, f in zip(samples, samples[1:])
    )
    first = next(units)
    u, u_inv = first.u, first.u_inv
    for unit in units:
        u = inst.mul(u, unit.u)
        u_inv = inst.mul(unit.u_inv, u_inv)

    cert = inst.certificate()
    certify_unit(inst, cert, path.at(0.0), path.at(1.0), u, u_inv, tol, intertwine_rhs=tol)
    cert.add("segments", len(gaps), 2 * math.ceil(L / threshold) + 2)
    for k, gap in enumerate(gaps):
        cert.add(f"segment-gap[{k}]", gap, threshold)
    return CertifiedUnit(u, u_inv, cert)


# ---------------------------------------------------------------------------
# canned paths and the rank-constancy experiment


def rotation_path(instance: MatrixAlgebra) -> IdempotentPath:
    """Rank-1 projector conjugated by a quarter turn in the first two axes."""
    n = instance.n
    if n < 2:
        raise PathError("rotation path needs size at least 2")
    p = np.zeros((n, n), dtype=complex)
    p[0, 0] = 1.0

    def sample(t: float):
        angle = math.pi * t / 2
        r = np.eye(n, dtype=complex)
        r[0, 0] = r[1, 1] = math.cos(angle)
        r[0, 1] = -math.sin(angle)
        r[1, 0] = math.sin(angle)
        return r @ p @ r.T

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
    p = np.zeros((n, n), dtype=complex)
    idx = rng.permutation(n)[:rank]
    p[idx, idx] = 1.0
    nx = float(instance.norm(x))
    try:
        max_e = float(instance.norm(p)) * math.exp(2 * nx)
    except OverflowError:
        max_e = math.inf
    hint = 2 * nx * max_e * 1.5
    if not math.isfinite(hint):
        raise ConfigError(f"spread {spread} gives a Lipschitz hint that is not finite")

    def sample(t: float):
        g, ginv = _expm_pair(t * x)
        return g @ p @ ginv

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
