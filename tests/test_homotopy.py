"""Idempotent path trivialization and the rank-constancy experiment."""

import math

import numpy as np
import pytest

from idemkit import homotopy
from idemkit.calculus import certify_idempotent, certify_unit, intertwiner
from idemkit.errors import ConfigError, PathError
from idemkit.homotopy import (
    SAMPLE_TOL,
    IdempotentPath,
    conjugation_path,
    homotopy_invariance_experiment,
    path_trivialize,
    rotation_path,
)
from idemkit.instances import COMPLEX, MatrixAlgebra
from idemkit.k0 import classify

from test_calculus import _CountingMatrices, _products

M2 = MatrixAlgebra(COMPLEX, 2)


def test_constant_path_gives_unit_one_and_single_segment():
    e = np.diag([1.0 + 0j, 0j])
    path = IdempotentPath(M2, lambda t: e, lipschitz_hint=0.0)
    unit = path_trivialize(path, tol=1e-10)
    assert np.array_equal(unit.u, np.eye(2))
    assert unit.cert.entry("segments").lhs == 1
    assert unit.cert.valid


@pytest.mark.parametrize("n", [1, 2, 7, 64, 128])
def test_path_samples_are_the_dense_diagonal_products(n):
    # each sample forms one product where the dense diagonal took two; the
    # values agree bit for bit but for the sign of exact zeros (== equates)
    inst = MatrixAlgebra(COMPLEX, n)
    for rank in sorted({0, 1, n // 2, n}):
        path = conjugation_path(inst, rank, seed=n + rank)
        rng = np.random.default_rng(n + rank)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x *= 0.5 / float(inst.norm(x))
        p = np.zeros((n, n), dtype=complex)
        idx = rng.permutation(n)[:rank]
        p[idx, idx] = 1.0
        for t in (0.0, 0.375, 1.0):
            g, g_inv = homotopy._expm_pair(t * x)
            assert np.array_equal(path.sampler(t), g @ p @ g_inv)
    if n >= 2:
        p = np.zeros((n, n), dtype=complex)
        p[0, 0] = 1.0
        for t in (0.0, 0.3, 1.0):
            r = np.eye(n, dtype=complex)
            r[0, 0] = r[1, 1] = math.cos(math.pi * t / 2)
            r[0, 1], r[1, 0] = -math.sin(math.pi * t / 2), math.sin(math.pi * t / 2)
            assert np.array_equal(rotation_path(inst).sampler(t), r @ p @ r.T)


def test_rotating_projector_trivializes():
    path = rotation_path(M2)
    unit = path_trivialize(path, tol=1e-8)
    e0, e1 = path.at(0.0), path.at(1.0)
    assert M2.distance(M2.mul(e0, unit.u), M2.mul(unit.u, e1)) <= 1e-8
    assert unit.cert.valid
    k0 = classify(M2, certify_idempotent(M2, e0, 1e-9)).key
    k1 = classify(M2, certify_idempotent(M2, e1, 1e-9)).key
    assert k0 == k1 == 1


def test_discontinuous_rank_jump_fails_at_max_depth():
    e_low = np.diag([1.0 + 0j, 0j])

    def sample(t):
        return e_low if t < 0.5 else M2.zero()

    path = IdempotentPath(M2, sample, lipschitz_hint=1000.0)
    with pytest.raises(PathError):
        path_trivialize(path, max_depth=8, tol=1e-8)


def test_lipschitz_hint_violation_aborts_with_diagnostic():
    path = rotation_path(M2)
    lying = IdempotentPath(M2, path.sampler, lipschitz_hint=0.01)
    with pytest.raises(PathError, match="Lipschitz"):
        path_trivialize(lying, tol=1e-8)


def test_non_idempotent_sample_rejected():
    path = IdempotentPath(M2, lambda t: 0.5 * np.eye(2, dtype=complex), lipschitz_hint=1.0)
    with pytest.raises(PathError, match="defect"):
        path_trivialize(path, tol=1e-8)


def test_nan_sample_is_rejected_by_the_sample_check():
    # NaN > tol is false, so the check must read "not defect <= tol"; the
    # later unit inversion would fail only with a PreconditionError
    nan = np.full((2, 2), math.nan, dtype=complex)
    path = IdempotentPath(M2, lambda t: nan, lipschitz_hint=1.0)
    with pytest.raises(PathError, match="fails the idempotent check: defect nan"):
        path_trivialize(path, tol=1e-8)


def test_rank_constant_at_every_sample():
    for path in (rotation_path(M2), conjugation_path(MatrixAlgebra(COMPLEX, 4), 2, seed=3)):
        path_trivialize(path, tol=1e-8)
        inst = path.instance
        keys = {
            classify(inst, certify_idempotent(inst, sample.e, 1e-8)).key
            for sample in path._certified.values()
        }
        assert len(keys) == 1


def test_composition_soundness_residuals():
    path = rotation_path(MatrixAlgebra(COMPLEX, 3))
    unit = path_trivialize(path, tol=1e-8)
    inst = MatrixAlgebra(COMPLEX, 3)
    assert inst.distance(inst.mul(unit.u, unit.u_inv), inst.one()) <= 1e-8
    assert inst.distance(inst.mul(unit.u_inv, unit.u), inst.one()) <= 1e-8
    # the Newton-Schulz steps close u*x - 1 to tol/100, not just to tol
    unit = path_trivialize(conjugation_path(M2, 1, seed=3, spread=2), tol=1e-8)
    assert unit.cert.entry("residual-left").lhs <= 1e-10


def test_segment_count_obeys_bisection_bound():
    for n, seed in ((2, 0), (4, 1)):
        inst = MatrixAlgebra(COMPLEX, n)
        path = conjugation_path(inst, rank=1, seed=seed)
        unit = path_trivialize(path, tol=1e-8)
        entry = unit.cert.entry("segments")
        assert entry.holds, (entry.lhs, entry.rhs)


def test_each_sample_is_certified_once(monkeypatch):
    import idemkit.homotopy as homotopy

    calls = []
    monkeypatch.setattr(
        homotopy, "certify_idempotent", lambda *a: calls.append(a) or certify_idempotent(*a)
    )
    unit = path_trivialize(rotation_path(MatrixAlgebra(COMPLEX, 3)), tol=1e-8)
    segments = int(unit.cert.entry("segments").lhs)
    assert segments > 1
    assert len(calls) == segments + 1


def test_negative_max_depth_rejected():
    with pytest.raises(PathError, match="max_depth"):
        path_trivialize(rotation_path(M2), max_depth=-1)


def test_experiment_empty():
    report = homotopy_invariance_experiment(2, 0, seed=0)
    assert report.trials == 0
    assert report.all_constant
    assert report.to_json()["max_segments"] == []


def test_experiment_rank_constancy():
    report = homotopy_invariance_experiment(4, 10, seed=21)
    assert report.failures == []
    assert len(report.max_segments) == 10
    assert all(m >= 1 for m in report.max_segments)


def test_experiment_report_schema():
    blob = homotopy_invariance_experiment(2, 3, seed=5).to_json()
    assert set(blob) == {"size", "trials", "failures", "max_segments", "all_constant"}


def _paths():
    yield rotation_path(MatrixAlgebra(COMPLEX, 3))
    for seed in (3, 11, 12):
        yield conjugation_path(MatrixAlgebra(COMPLEX, 4), 2, seed=seed)


@pytest.mark.parametrize("path", _paths(), ids=["rotation3", "random4-3", "random4-11", "random4-12"])
def test_trivialization_equals_the_explicit_composition_from_one(path):
    unit = path_trivialize(path, tol=1e-8)
    inst, points = path.instance, sorted(path._certified)
    samples = [certify_idempotent(inst, path.at(t), SAMPLE_TOL) for t in points]
    assert [s.cert for s in samples] == [path.certified(t).cert for t in points]
    u = inst.one()
    for ce, cf in zip(samples, samples[1:]):
        u = inst.mul(u, intertwiner(inst, ce.e, cf.e))
    assert np.array_equal(unit.u, u)
    cert = inst.certificate()
    certify_unit(inst, cert, path.at(0.0), path.at(1.0), u, unit.u_inv, 1e-8, intertwine_rhs=1e-8)
    assert unit.cert.entries[: len(cert.entries)] == cert.entries


def test_trivialization_composes_segments_minus_one_pairs():
    inst = _CountingMatrices(4)
    path = conjugation_path(inst, 2, seed=3)
    unit = []
    total = _products(inst, lambda: unit.append(path_trivialize(path, tol=1e-8)))
    segments = int(unit[0].cert.entry("segments").lhs)
    samples = [path.at(t) for t in sorted(path._certified)]
    assert len(samples) == segments + 1 > 2
    # one e*e per sample, the two intertwiners of each segment, segments - 1
    # composing pairs, the start residual u*x, two products in each of the
    # three Newton-Schulz steps, the residual-right's x*u and the two
    # intertwine products of the final certificate
    steps = 3
    assert total == len(samples) + 2 * segments + 2 * (segments - 1) + 1 + 2 * steps + 3


def _sheared_rotation(inst):
    """The rotation path conjugated by ``S = [[1, 10], [0, 1]]``, with the
    rotation's hint ``2*pi`` times ``norm(S) * norm(S^-1) = 121``."""
    s = np.array([[1.0, 10.0], [0.0, 1.0]], dtype=complex)
    s_inv = np.linalg.inv(s)
    rotation = rotation_path(inst).sampler
    return IdempotentPath(inst, lambda t: s @ rotation(t) @ s_inv, lipschitz_hint=2 * math.pi * 121)


@pytest.mark.parametrize(
    "make, segments",
    [
        pytest.param(
            lambda: conjugation_path(MatrixAlgebra(COMPLEX, 4), 2, seed=0, spread=10), 270, id="random4-spread10"
        ),
        pytest.param(lambda: _sheared_rotation(M2), 664, id="sheared-rotation"),
    ],
)
def test_long_paths_trivialize_in_few_segments(make, segments):
    unit = path_trivialize(make(), tol=1e-8)
    assert unit.cert.valid
    assert unit.cert.entry("segments").lhs == segments


def test_newton_schulz_stops_at_the_rounding_floor():
    inst = _CountingMatrices(2)
    path = rotation_path(inst)
    unit = []
    total = _products(inst, lambda: unit.append(path_trivialize(path, tol=1e-300)))
    cert = unit[0].cert
    # no residual reaches tol/100, so only the halving rule ends the steps
    assert cert.entry("residual-left").lhs > 1e-302
    assert cert.valid
    assert total == 75


def test_newton_schulz_steps_on_until_the_right_residual_reaches_tol():
    # stopped at tol/100 on the left, x*u - 1 read 1.01e-8 here and held
    # only through the slack
    inst = _CountingMatrices(8)
    path = conjugation_path(inst, 3, seed=0, spread=10)
    unit = []
    total = _products(inst, lambda: unit.append(path_trivialize(path, tol=1e-8)))
    cert = unit[0].cert
    u, x = unit[0].u, unit[0].u_inv
    one = inst.one()
    assert cert.entry("residual-right").lhs <= 1e-8
    assert cert.entry("residual-right").lhs == inst.distance(inst.mul(x, u), one)
    assert cert.entry("residual-left").lhs == inst.distance(inst.mul(u, x), one)
    assert cert.valid
    # one step more: x, then u*x and x*u measured again
    assert total == 4367


def test_experiment_classifies_the_samples_its_paths_certified(monkeypatch):
    keys = []

    def spy(inst, e):
        cls = classify(inst, e)
        keys.append(cls.key)
        return cls

    monkeypatch.setattr(homotopy, "classify", spy)
    report = homotopy_invariance_experiment(4, 5, seed=13)
    assert keys == [4, 4, 4, 4, 0, 0, 0, 0, 3, 3]
    assert report.to_json() == {
        "size": 4,
        "trials": 5,
        "failures": [],
        "max_segments": [1, 1, 1, 1, 2],
        "all_constant": True,
    }


def test_experiment_forms_only_the_trivialization_products(monkeypatch):
    inst = _CountingMatrices(4)
    monkeypatch.setattr(homotopy, "MatrixAlgebra", lambda scalars, n: inst)
    total = _products(inst, lambda: homotopy_invariance_experiment(4, 5, seed=13))
    expected = 0
    for idx in range(5):
        rng = np.random.default_rng([13, idx])
        rank = int(rng.integers(0, 5))
        path = conjugation_path(inst, rank, seed=int(rng.integers(0, 2**31)))
        expected += _products(inst, lambda: path_trivialize(path, tol=1e-8))
    # classifying an endpoint reads the path's own certified sample
    assert total == expected


# norms of ``a`` that reach each Padé degree 3, 5, 7, 9, 13 and the squaring branch
_EXPM_NORMS = (0.01, 0.2, 0.9, 2.0, 5.0, 50.0)


@pytest.mark.parametrize("n", [1, 2, 4, 8, 64])
def test_expm_pair_matches_scipy_expm(n):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    degree = lambda r: next((m for m, theta in homotopy._PADE_THETA if r <= theta), "squared")
    assert [degree(r) for r in _EXPM_NORMS] == [3, 5, 7, 9, 13, "squared"]
    inst = MatrixAlgebra(COMPLEX, n)
    rng = np.random.default_rng([71, n])
    for r in _EXPM_NORMS:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a *= r / inst.norm(a)
        g, g_inv = homotopy._expm_pair(a)
        for got, x in ((g, a), (g_inv, -a)):
            ref = scipy_linalg.expm(x)
            assert inst.distance(got, ref) <= 1e-13 * inst.norm(ref)
        assert inst.distance(g @ g_inv, inst.one()) <= 1e-13 * inst.norm(g) * inst.norm(g_inv)


@pytest.mark.parametrize("rank", [-1, 5, 9])
def test_conjugation_path_rejects_a_rank_outside_the_size(rank):
    with pytest.raises(ConfigError, match="rank"):
        conjugation_path(MatrixAlgebra(COMPLEX, 4), rank, seed=0)


@pytest.mark.parametrize("spread", [math.nan, math.inf, -math.inf, -0.5])
def test_conjugation_path_rejects_a_negative_or_non_finite_spread(spread):
    with pytest.raises(ConfigError, match="spread"):
        conjugation_path(MatrixAlgebra(COMPLEX, 4), 2, seed=0, spread=spread)


@pytest.mark.parametrize("rank", [0, 2])
def test_conjugation_path_rejects_a_spread_whose_hint_overflows(rank):
    # exp(2 * spread) overflows a float above a spread of about 355
    with pytest.raises(ConfigError, match="Lipschitz hint"):
        conjugation_path(MatrixAlgebra(COMPLEX, 4), rank, seed=0, spread=400.0)
    path = conjugation_path(MatrixAlgebra(COMPLEX, 4), 2, seed=0, spread=300.0)
    assert math.isfinite(path.lipschitz_hint)


@pytest.mark.parametrize("hint", [math.inf, math.nan])
def test_path_trivialize_rejects_a_non_finite_hint_before_sampling(hint):
    calls = []
    sampler = rotation_path(M2).sampler
    path = IdempotentPath(M2, lambda t: calls.append(t) or sampler(t), lipschitz_hint=hint)
    with pytest.raises(PathError, match="Lipschitz hint must be finite"):
        path_trivialize(path, tol=1e-8)
    assert calls == []


def _refine_by_full_passes(path):
    """The segmentation a pass over every gap at each depth reaches:
    ``(points, gaps)``."""
    inst, points = path.instance, [0.0, 1.0]
    while True:
        gaps = [float(inst.distance(path.at(s), path.at(t))) for s, t in zip(points, points[1:])]
        bad = [k for k, gap in enumerate(gaps) if gap > homotopy.SEGMENT_GAP]
        if not bad:
            return points, gaps
        for k in reversed(bad):
            points.insert(k + 1, (points[k] + points[k + 1]) / 2)


@pytest.mark.parametrize(
    "n, make, norms",
    [
        pytest.param(2, rotation_path, 43, id="rotation2"),
        # the random path measures its direction twice; its 0/1 diagonal's
        # norm is read off the mask, not measured
        pytest.param(4, lambda inst: conjugation_path(inst, 2, seed=0), 14, id="random4-0"),
        pytest.param(4, lambda inst: conjugation_path(inst, 2, seed=0, spread=2), 44, id="random4-spread2"),
    ],
)
def test_refinement_measures_each_point_and_gap_once(n, make, norms):
    inst = _CountingMatrices(n)
    unit = path_trivialize(make(inst), tol=1e-8)
    assert inst.norm_calls == norms
    points, gaps = _refine_by_full_passes(make(MatrixAlgebra(COMPLEX, n)))
    cert = inst.certificate()
    for k, gap in enumerate(gaps):
        cert.add(f"segment-gap[{k}]", gap, homotopy.SEGMENT_GAP)
    assert unit.cert.entry("segments").lhs == len(points) - 1
    assert unit.cert.entries[-len(gaps):] == cert.entries


_JUMP = np.diag([0j, 1.0 + 0j])  # 1.0 from the path's start, beyond the hint's 0.75 at 0.25
_HALF = 0.5 * np.eye(2, dtype=complex)  # no idempotent


@pytest.mark.parametrize(
    "special, error",
    [
        pytest.param({0.25: _JUMP, 0.75: _HALF}, "t=0.75 fails the idempotent check", id="sample-first"),
        pytest.param({0.25: _HALF, 0.75: _HALF}, "t=0.25 fails the idempotent check", id="leftmost-sample"),
        pytest.param({0.25: _JUMP}, r"Lipschitz hint on \[0.0, 0.25\]", id="hint"),
    ],
)
def test_refinement_raises_the_error_a_full_pass_meets_first(special, error):
    # the rotation's midpoints 0.25 and 0.75 are both new at depth 2
    rotation = rotation_path(M2).sampler
    path = IdempotentPath(M2, lambda t: special.get(t, rotation(t)), lipschitz_hint=3.0)
    with pytest.raises(PathError, match=error):
        path_trivialize(path, tol=1e-8)
