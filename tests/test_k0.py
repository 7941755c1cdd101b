"""Class keys, equivalence decisions, direct sums and K0 presentations."""

from fractions import Fraction

import numpy as np
import pytest

from idemkit.calculus import certify_idempotent, conjugation_bound
from idemkit.errors import ConfigError
from idemkit.instances import (
    COMPLEX,
    MatrixAlgebra,
    SampledFunctionAlgebra,
    ScaledIntegers,
    cantor_grid,
    conjugated_projector,
    make_cantor_tower,
    make_uhf_tower,
    random_unit,
)
from idemkit.k0 import (
    _matrix_conjugator,
    are_equivalent,
    classify,
    grid_bits,
    k0_of_instance,
    normalized_trace_key,
)

from test_calculus import _CountingMatrices

M2 = MatrixAlgebra(COMPLEX, 2)


def _cert(inst, e, tol=1e-9):
    return certify_idempotent(inst, e, tol)


# ---------------------------------------------------------------------------
# class keys


def test_classify_rank_of_projectors():
    rng = np.random.default_rng(3)
    inst = MatrixAlgebra(COMPLEX, 5)
    for rank in range(6):
        e = conjugated_projector(inst, rank, rng, spread=0.4)
        cls = classify(inst, _cert(inst, e))
        assert cls.key == rank
        assert cls.cert.valid


def test_classify_complex_scalars_rounds_the_value():
    for value, key in ((0j, 0), (1 + 0j, 1), (1 - 3e-7 + 4e-7j, 1), (0.3 + 0j, 0)):
        cls = classify(COMPLEX, _cert(COMPLEX, value, tol=1))
        gap = abs(value - key)
        assert cls.key == key and type(cls.key) is int
        assert cls.cert.entry("rank-gap").lhs == gap
        assert cls.cert.entry("rank-integrality").holds == (gap <= 1e-6 + COMPLEX.slack)
    assert not classify(COMPLEX, _cert(COMPLEX, 0.3 + 0j, tol=1)).cert.valid


def test_class_key_is_conjugation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        inst = MatrixAlgebra(COMPLEX, n)
        e = conjugated_projector(inst, int(rng.integers(0, n + 1)), rng, spread=0.4)
        u = random_unit(inst, rng, spread=0.4)
        conj = np.linalg.inv(u) @ e @ u
        assert classify(inst, _cert(inst, conj, 1e-6)).key == classify(inst, _cert(inst, e)).key


def test_classify_sampled_bits():
    inst = SampledFunctionAlgebra(cantor_grid(2), COMPLEX)
    ind = np.isin(inst.grid, ["01", "10"]).astype(complex)
    assert classify(inst, _cert(inst, ind)).key == (0, 1, 1, 0)


def test_classify_unsupported_instance():
    inst = MatrixAlgebra(ScaledIntegers(1), 2)
    with pytest.raises(ConfigError):
        classify(inst, _cert(inst, inst.one(), 0))


def test_normalized_trace_key_is_exact_rational():
    inst = MatrixAlgebra(COMPLEX, 8)
    e = conjugated_projector(inst, 3, np.random.default_rng(9), spread=0.4)
    assert normalized_trace_key(inst, e) == Fraction(3, 8)


# ---------------------------------------------------------------------------
# equivalence


def test_equal_idempotents_yes_with_unit_one():
    e = np.diag([1.0 + 0j, 0j])
    res = are_equivalent(M2, _cert(M2, e), _cert(M2, e))
    assert res.verdict == "yes"
    assert np.allclose(res.unit.u, np.eye(2))


def test_swapped_diagonals_yes_via_permutation():
    e = np.diag([1.0 + 0j, 0j])
    f = np.diag([0j, 1.0 + 0j])
    res = are_equivalent(M2, _cert(M2, e), _cert(M2, f))
    assert res.verdict == "yes"
    u = res.unit.u
    assert M2.distance(M2.mul(e, u), M2.mul(u, f)) <= 1e-12
    assert np.allclose(np.abs(u), [[0, 1], [1, 0]])
    assert res.unit.cert.valid


def test_different_ranks_no_with_witness():
    e = np.diag([1.0 + 0j, 0j])
    res = are_equivalent(M2, _cert(M2, e), _cert(M2, np.eye(2, dtype=complex)))
    assert res.verdict == "no"
    assert res.witness == {"key_e": 1, "key_f": 2}


def test_commutative_equivalence_iff_gridwise_equal():
    inst = SampledFunctionAlgebra(cantor_grid(3), COMPLEX)
    e = np.isin(inst.grid, ["000", "101"]).astype(complex)
    f = np.isin(inst.grid, ["000", "110"]).astype(complex)
    same = are_equivalent(inst, _cert(inst, e), _cert(inst, e.copy()))
    assert same.verdict == "yes"
    diff = are_equivalent(inst, _cert(inst, e), _cert(inst, f))
    assert diff.verdict == "no"


def test_unknown_without_key_or_proximity():
    inst = MatrixAlgebra(ScaledIntegers(1), 2)
    e = np.array([[1, 0], [0, 0]], dtype=object)
    f = np.array([[0, 0], [0, 1]], dtype=object)
    res = are_equivalent(inst, _cert(inst, e, 0), _cert(inst, f, 0))
    assert res.verdict == "unknown"


def test_random_equal_rank_pairs_get_certified_units():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        inst = MatrixAlgebra(COMPLEX, n)
        rank = int(rng.integers(0, n + 1))
        e = conjugated_projector(inst, rank, rng, spread=0.4)
        f = conjugated_projector(inst, rank, rng, spread=0.4)
        res = are_equivalent(inst, _cert(inst, e), _cert(inst, f))
        assert res.verdict == "yes"
        assert res.unit.cert.valid


CONJUGATOR_ENTRIES = ["intertwine", "residual-left", "residual-right"]


def _assert_conjugator_cert(unit, bound=None):
    assert unit.cert.valid
    assert [entry.name for entry in unit.cert.entries] == CONJUGATOR_ENTRIES
    if bound is not None:
        assert max(entry.lhs for entry in unit.cert.entries) <= bound


@pytest.mark.parametrize("norm_kind", ["col-l1", "spectral"])
@pytest.mark.parametrize("spread", [0.4, 0.5])
def test_far_pairs_get_units_with_tiny_residuals(norm_kind, spread):
    rng = np.random.default_rng(37)
    for n in (2, 3, 4, 5, 8, 16, 32, 64):
        inst = MatrixAlgebra(COMPLEX, n, norm_kind)
        for rank in range(n + 1) if n <= 8 else (0, 1, n // 2, n - 1, n):
            e, f = (_cert(inst, conjugated_projector(inst, rank, rng, spread)) for _ in range(2))
            _assert_conjugator_cert(_matrix_conjugator(inst, e, f, rank, 1e-9), 1e-11)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_swapped_coordinate_projectors(n):
    inst = MatrixAlgebra(COMPLEX, n)
    for rank in (1, n // 2):
        e = np.diag(np.arange(n) < rank).astype(complex)
        f = e[::-1, ::-1].copy()
        res = are_equivalent(inst, _cert(inst, e), _cert(inst, f))
        assert res.verdict == "yes"
        _assert_conjugator_cert(res.unit, 1e-11 if n <= 64 else None)
        # orthogonal projectors have x = 0 in their frames, so u is unitary
        assert np.allclose(res.unit.u_inv, res.unit.u.conj().T, rtol=0, atol=1e-12)


def test_ranks_zero_and_full_called_directly():
    rng = np.random.default_rng(41)
    for n in (1, 2, 7, 64):
        inst = MatrixAlgebra(COMPLEX, n)
        for rank in (0, n):
            e, f = (_cert(inst, conjugated_projector(inst, rank, rng, 0.5)) for _ in range(2))
            unit = _matrix_conjugator(inst, e, f, rank, 1e-9)
            _assert_conjugator_cert(unit, 1e-11)
            if rank == 0:
                assert np.array_equal(unit.u, np.eye(n)) and np.array_equal(unit.u_inv, np.eye(n))


def test_far_route_needs_no_svd_inverse_or_solve(monkeypatch):
    inst = _CountingMatrices(64)
    rng = np.random.default_rng(43)
    e, f = (_cert(inst, conjugated_projector(inst, 20, rng, 0.5)) for _ in range(2))
    assert conjugation_bound(inst.norm(e.e), inst.distance(e.e, f.e)) >= 1

    def refuse(*args, **kwargs):
        raise AssertionError("the far route must not factor or invert")

    for name in ("svd", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    inst.products = 0
    res = are_equivalent(inst, e, f)
    assert inst.products == 4
    assert res.verdict == "yes"
    _assert_conjugator_cert(res.unit, 1e-11)


# ---------------------------------------------------------------------------
# direct sums


def _direct_sum(instance_e, e, instance_f, f):
    """The block-diagonal sum of two certified idempotents, certified in
    the matrix algebra of combined size over the same inner instance."""
    m, n = instance_e.n, instance_f.n
    total = MatrixAlgebra(instance_e.inner, m + n, instance_e.norm_kind)
    block = total.zero()
    block[:m, :m], block[m:, m:] = e.e, f.e
    return total, _cert(total, block)


def test_direct_sum_with_zero_preserves_rank():
    rng = np.random.default_rng(17)
    e = conjugated_projector(M2, 1, rng, spread=0.4)
    zero2 = MatrixAlgebra(COMPLEX, 2)
    total, summed = _direct_sum(M2, _cert(M2, e), zero2, _cert(zero2, zero2.zero(), 0))
    assert total.n == 4
    assert classify(total, summed).key == 1


def test_direct_sum_rank_additivity():
    rng = np.random.default_rng(19)
    for _ in range(100):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        im, inn = MatrixAlgebra(COMPLEX, m), MatrixAlgebra(COMPLEX, n)
        e = conjugated_projector(im, int(rng.integers(0, m + 1)), rng, spread=0.4)
        f = conjugated_projector(inn, int(rng.integers(0, n + 1)), rng, spread=0.4)
        ce, cf = _cert(im, e), _cert(inn, f)
        total, summed = _direct_sum(im, ce, inn, cf)
        assert classify(total, summed).key == classify(im, ce).key + classify(inn, cf).key


def test_direct_sum_of_zeros_is_zero():
    z = _cert(M2, M2.zero(), 0)
    total, summed = _direct_sum(M2, z, M2, z)
    assert np.array_equal(summed.e, total.zero())
    assert classify(total, summed).key == 0


# ---------------------------------------------------------------------------
# K0 presentations


def test_k0_of_scalars_is_z():
    pres = k0_of_instance(COMPLEX)
    assert pres.group == "Z" and pres.free_rank == 1


def test_k0_of_matrix_algebra_is_z():
    assert k0_of_instance(M2).group == "Z"


def test_k0_of_cantor_levels():
    for i in (0, 1, 3):
        inst = SampledFunctionAlgebra(cantor_grid(i), COMPLEX)
        pres = k0_of_instance(inst)
        assert pres.free_rank == 2**i
        assert pres.group == ("Z" if i == 0 else f"Z^{2**i}")


def test_k0_of_uhf_tower_is_dyadic():
    pres = k0_of_instance(make_uhf_tower(4))
    assert pres.group == "Z[1/2]"
    assert pres.free_rank is None


def test_k0_unsupported_kinds():
    with pytest.raises(ConfigError):
        k0_of_instance(make_cantor_tower(3))
    with pytest.raises(ConfigError):
        k0_of_instance(ScaledIntegers(1))


def test_group_completion_law_on_keys():
    # the class map extends additively: [e] + [f] - [e (+) f] = 0
    rng = np.random.default_rng(23)
    for _ in range(50):
        e = conjugated_projector(M2, int(rng.integers(0, 3)), rng, spread=0.4)
        f = conjugated_projector(M2, int(rng.integers(0, 3)), rng, spread=0.4)
        ce, cf = _cert(M2, e), _cert(M2, f)
        total, summed = _direct_sum(M2, ce, M2, cf)
        assert (
            classify(M2, ce).key + classify(M2, cf).key - classify(total, summed).key == 0
        )


def test_mat2_has_exactly_three_classes_by_brute_force():
    rng = np.random.default_rng(29)
    keys = set()
    for _ in range(10_000):
        e = conjugated_projector(M2, int(rng.integers(0, 3)), rng, spread=0.5)
        keys.add(classify(M2, _cert(M2, e, 1e-6)).key)
    assert keys == {0, 1, 2}


def test_grid_bits_round_half_to_even_like_round():
    values = np.array([0.5, 1.5, 2.5, -0.5, 0.49 + 3j, 1e-12], dtype=complex)
    bits = grid_bits(values)
    assert bits.tolist() == [round(v.real) for v in values]
    assert all(type(b) is int for b in bits.tolist())


def test_grid_gap_matches_the_scalar_loop():
    rng = np.random.default_rng(21)
    inst = SampledFunctionAlgebra(range(64), COMPLEX)
    for _ in range(20):
        noise = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        values = rng.integers(0, 2, 64) + noise * 10.0 ** rng.uniform(-16, -2)
        cls = classify(inst, certify_idempotent(inst, values, 1.0))
        bits = tuple(int(round(v.real)) for v in values)
        assert cls.key == bits
        assert cls.cert.entry("grid-gap").lhs == float(max(abs(v - b) for v, b in zip(values, bits)))
