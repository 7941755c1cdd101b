"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single ``[criterion NN] PASS`` line after its assertions
so that a ``pytest -s`` run doubles as the acceptance report.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import idemkit as ik
from idemkit.cli import ExperimentConfig, run
from idemkit.core import GROUP_AXIOM_PREFIXES


def _pass(num: int, text: str) -> None:
    print(f"\n[criterion {num:02d}] PASS - {text}")


def _exact_idempotent_pair(rng, n: int):
    """Exactly representable idempotent pair within the proximity bound."""
    k = int(rng.integers(0, n + 1))
    scale = 0.5 / max(1, k)
    x = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) * scale
    delta = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) * (
        scale / 25
    )
    e = np.zeros((n, n), dtype=complex)
    e[:k, :k] = np.eye(k)
    f = e.copy()
    e[:k, k:] = x
    f[:k, k:] = x + delta
    p = np.eye(n)[rng.permutation(n)]
    return p @ e @ p.T, p @ f @ p.T


# ---------------------------------------------------------------------------


def test_criterion_01_neumann_certification():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(500):
        n = int(rng.choice([2, 4, 8]))
        inst = ik.MatrixAlgebra(ik.COMPLEX, n)
        m = inst.random_element(rng)
        m *= rng.uniform(0, 0.9) / inst.norm(m)
        u = np.eye(n, dtype=complex) - m
        unit = ik.neumann_inverse(inst, u, 1e-9)
        tail = unit.cert.entry("tail-bound").lhs
        for name in ("residual-left", "residual-right"):
            assert unit.cert.entry(name).lhs <= tail + 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _pass(1, f"500 geometric-series inversions certified in {elapsed:.2f}s")


def test_criterion_02_corrected_lifting():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    for trial in range(500):
        n = int(rng.integers(2, 9))
        inst = ik.MatrixAlgebra(ik.COMPLEX, n)
        t = float(rng.uniform(0.02, 0.2))
        a = ik.random_almost_idempotent(inst, t, seed=trial)
        lifted = ik.lift_idempotent(inst, a, "corrected", 1e-10)
        t_meas = float(inst.distance(inst.mul(a, a), a))
        two_a = float(inst.norm(inst.sub(inst.int_scale(2, a), inst.one())))
        derived = two_a * ((1 - 4 * t_meas) ** -0.5 - 1) / 2
        assert lifted.cert.entry("defect").lhs <= 1e-9
        assert lifted.cert.entry("commute").lhs <= 1e-9
        assert inst.distance(lifted.e, a) <= derived + 1e-9
    for i in range(1000):
        case = np.random.default_rng([102, i])
        a = complex(case.uniform(-0.3, 1.3), case.uniform(-0.5, 0.5))
        if abs(a * a - a) >= 0.2:
            continue
        lifted = ik.lift_idempotent(ik.COMPLEX, a, "corrected", 1e-12)
        expected = 1.0 if (2 * a - 1).real > 0 else 0.0
        assert abs(lifted.e - expected) <= 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 20
    _pass(2, f"500 matrix lifts + 1000 scalar oracle cases in {elapsed:.2f}s")


def test_criterion_03_series_variant_evidence():
    printed = ik.lift_idempotent(ik.COMPLEX, 0.1 + 0j, "printed", 1e-13)
    assert printed.cert.entry("defect").lhs >= 0.1
    assert not printed.cert.valid
    # independent exact-rational evaluation to 30 terms
    e30 = ik.scalar_lift_rational(Fraction(1, 10), "printed", 30)
    assert abs(float(e30) - 0.2) < 1e-6
    assert abs(float(e30 * e30 - e30)) == pytest.approx(0.16, abs=1e-6)
    corrected = ik.lift_idempotent(ik.COMPLEX, 0.1 + 0j, "corrected", 1e-13)
    assert corrected.cert.entry("defect").lhs <= 1e-12
    distance = abs(corrected.e - 0.1)
    assert abs(distance - ik.h_bound(0.09)) <= 1e-12
    assert abs(distance - 0.1) <= 1e-12
    _pass(3, "uncorrected series fails idempotency (defect 0.16); corrected hits h exactly")


def test_criterion_04_integer_coefficients():
    assert [ik.printed_coefficient(n) for n in range(1, 7)] == [1, -1, 2, -5, 14, -42]
    for n in range(1, 65):
        binom = Fraction(1)
        for k in range(n):
            binom *= (Fraction(1, 2) - k) / (k + 1)
        value = Fraction(2) ** (2 * n - 1) * binom
        assert value.denominator == 1
        catalan = math.comb(2 * (n - 1), n - 1) // n
        assert ik.printed_coefficient(n) == value.numerator == (-1) ** (n - 1) * catalan
    _pass(4, "series coefficients are signed Catalan numbers through n = 64, exactly")


def test_criterion_05_conjugating_unit():
    rng = np.random.default_rng(105)
    for _ in range(500):
        n = int(rng.choice([2, 4, 8]))
        inst = ik.MatrixAlgebra(ik.COMPLEX, n)
        e, f = _exact_idempotent_pair(rng, n)
        assert inst.distance(e @ e, e) == 0.0
        assert inst.distance(f @ f, f) == 0.0
        d = inst.distance(e, f)
        ne, nf = inst.norm(e), inst.norm(f)
        assert ik.conjugation_bound(ne, d) < 1
        unit = ik.conjugating_unit(
            inst,
            ik.certify_idempotent(inst, e, 0),
            ik.certify_idempotent(inst, f, 0),
            1e-9,
        )
        lhs = inst.distance(inst.mul(e, unit.u), inst.mul(unit.u, f))
        scale = max(1.0, ne * inst.norm(unit.u), inst.norm(unit.u) * nf)
        assert lhs <= 8 * np.spacing(scale)
        assert inst.distance(unit.u, inst.one()) <= 2 * ne * d + d * d + 1e-9
    _pass(5, "500 proximity conjugations intertwine within 8 ulps")


def test_criterion_06_colimit_transfer_round_trips():
    start = time.monotonic()
    uhf = ik.k0_colimit_compare(ik.make_uhf_tower(6), 100, seed=106)
    assert uhf.mismatches == 0
    certificates = dict(uhf.certificates)
    for record in uhf.records:
        entry = certificates[f"transfer[{record['trial']}]"].entry("surjective-transfer")
        assert entry.lhs <= entry.rhs
        assert Fraction(record["key_in"]) == Fraction(record["key_out"])
    cantor = ik.k0_colimit_compare(ik.make_cantor_tower(8), 100, seed=106)
    assert cantor.mismatches == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60
    _pass(6, f"200 tower round trips, keys preserved exactly, in {elapsed:.2f}s")


def test_criterion_07_injective_transfer_bound():
    tower = ik.make_uhf_tower(6)
    for idx in range(100):
        rng = np.random.default_rng([107, idx])
        level = int(rng.integers(0, tower.depth + 1))
        inst = tower.levels[level]
        rank = int(rng.integers(0, inst.n + 1))
        e = ik.conjugated_projector(inst, rank, rng, spread=0.4)
        f = ik.conjugated_projector(inst, rank, rng, spread=0.4)
        ce = ik.certify_idempotent(inst, e, 1e-9)
        cf = ik.certify_idempotent(inst, f, 1e-9)
        res = ik.are_equivalent(inst, ce, cf, 1e-9)
        assert res.verdict == "yes"
        transfer = ik.transfer_injective(
            tower, level, ce, cf, ik.LimitElement(level, res.unit.u, 0.0), eps=0.01
        )
        assert transfer.cert.entry("injective-bound").holds
    _pass(7, "100 injective transfers within eps*norm(e)*(eps + norm(u) + norm(u_inv))")


def test_criterion_08_path_trivialization():
    start = time.monotonic()
    m2 = ik.MatrixAlgebra(ik.COMPLEX, 2)
    path = ik.rotation_path(m2)
    unit = ik.path_trivialize(path, tol=1e-8)
    e0, e1 = path.at(0.0), path.at(1.0)
    assert m2.distance(m2.mul(e0, unit.u), m2.mul(unit.u, e1)) <= 1e-8
    report = ik.homotopy_invariance_experiment(4, 50, seed=108)
    assert report.failures == []
    jump = ik.IdempotentPath(
        m2,
        lambda t: np.diag([1.0 + 0j, 0j]) if t < 0.5 else m2.zero(),
        lipschitz_hint=1000.0,
    )
    with pytest.raises(ik.PathError):
        ik.path_trivialize(jump, max_depth=8, tol=1e-8)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    _pass(8, f"rotation + 50 random paths trivialized, rank constant, in {elapsed:.2f}s")


def test_criterion_09_deloop_shadows():
    corner = ik.CornerIdempotent(0)
    assert ik.end_norm(corner.as_operator(ik.COMPLEX)) == 1.0
    for n in range(1, 65):
        assert ik.finite_collapse_certificate(n).valid
    swindle = ik.swindle_conjugator(4096)
    assert swindle.valid
    assert swindle.cert.entry("collisions").lhs == 0
    assert swindle.to_json()["checked_columns"] == 4096
    _pass(9, "corner norm 1 exactly; collapse exact to n=64; swindle exhaustive to 4096")


def test_criterion_10_foundations():
    for inst in ik.registered_instances():
        rng = np.random.default_rng(110)
        samples = [inst.one(), inst.zero()] + [inst.random_element(rng) for _ in range(10)]
        cert = ik.check_norm_axioms(inst, samples)  # 144 ordered pairs
        assert cert.valid_for(GROUP_AXIOM_PREFIXES)
        assert cert.valid
        slack = 0.0 if inst.exact else inst.slack
        for entry in cert.entries:
            raw_rhs = entry.rhs - slack if slack else entry.rhs
            if inst.exact:
                assert entry.lhs <= raw_rhs
            else:
                ulp = np.spacing(max(abs(float(raw_rhs)), 1.0))
                assert float(entry.lhs) <= float(raw_rhs) + 4 * ulp
    scales = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    for m in range(-8, 9):
        for r in scales:
            for s in scales:
                assert ik.tensor_norm_int(m, r, s, 8) == r * s * abs(m)
    _pass(10, "axiom audits exact/within 4 ulps on the registry; tensor norm exact on sweep")


def test_criterion_11_reproducibility(tmp_path):
    configs = [
        {"command": "transfer", "tower": {"kind": "uhf", "depth": 4}, "trials": 10, "seed": 9},
        {"command": "lift", "instance": {"kind": "complex"}, "defect": 0.09, "seed": 9},
        {"command": "swindle-check", "support": 128},
    ]
    for i, base in enumerate(configs):
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        code_a = run(ExperimentConfig.from_dict({**base, "out": str(a)}))
        code_b = run(ExperimentConfig.from_dict({**base, "out": str(b)}))
        assert code_a == code_b
        assert a.read_bytes() == b.read_bytes()
    _pass(11, "re-running each config with equal seeds is byte-identical")
