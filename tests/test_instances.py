"""Concrete instances, towers and seeded generators."""

import math
from fractions import Fraction

import numpy as np
import pytest

from idemkit import deloop
from idemkit.core import ScaledIntegers, check_norm_axioms
from idemkit.errors import ConfigError
from idemkit.instances import (
    COMPLEX,
    ComplexScalars,
    MAX_ELEMENT_ENTRIES,
    ONE_TEMPLATE_ENTRIES,
    MatrixAlgebra,
    SampledFunctionAlgebra,
    SequenceAlgebra,
    _draw_unit,
    cantor_grid,
    conjugated_projector,
    make_cantor_tower,
    make_uhf_tower,
    parse_instance,
    parse_tower,
    product_work,
    random_almost_idempotent,
    random_unit,
    registered_instances,
)

ULPS = 4


def _within_ulps(lhs, rhs):
    return float(lhs) <= float(rhs) + ULPS * np.spacing(max(abs(float(rhs)), 1.0))


# ---------------------------------------------------------------------------
# matrix algebras


def test_matrix_identity_norm_is_one():
    for n in (1, 2, 5):
        inst = MatrixAlgebra(COMPLEX, n)
        assert inst.norm(inst.one()) == 1.0


def test_unit_matrix_norm_equals_inner_unit_norm():
    for inner in (COMPLEX, ScaledIntegers(2), MatrixAlgebra(COMPLEX, 2)):
        inst = MatrixAlgebra(inner, 3)
        for i in range(3):
            for j in range(3):
                unit = inst.zero()
                unit[i, j] = inner.one()
                assert inst.norm(unit) == inner.norm(inner.one())


def test_matrix_submultiplicativity_random_pairs():
    inst = MatrixAlgebra(COMPLEX, 4)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = inst.random_element(rng), inst.random_element(rng)
        assert _within_ulps(inst.norm(inst.mul(x, y)), inst.norm(x) * inst.norm(y))


def test_generic_matrix_path_agrees_with_numeric_on_integers():
    exact = MatrixAlgebra(ScaledIntegers(1), 2)
    x = np.array([[1, 2], [3, -4]], dtype=object)
    y = np.array([[0, 1], [1, 0]], dtype=object)
    assert exact.mul(x, y).tolist() == [[2, 1], [-4, 3]]
    assert exact.norm(x) == 6  # max column sum: |2| + |-4|
    assert np.array_equal(exact.add(x, exact.neg(x)), exact.zero())


def test_spectral_norm_requires_complex():
    with pytest.raises(ConfigError):
        MatrixAlgebra(ScaledIntegers(1), 2, norm_kind="spectral")
    inst = MatrixAlgebra(COMPLEX, 2, norm_kind="spectral")
    assert inst.norm(inst.one()) == pytest.approx(1.0)


def test_nested_matrix_algebra():
    inner = MatrixAlgebra(COMPLEX, 2)
    outer = MatrixAlgebra(inner, 2)
    one = outer.one()
    assert outer.norm(one) == 1.0
    assert outer.distance(outer.mul(one, one), one) == 0.0


def test_nested_matrix_product_is_the_blockwise_product():
    inner = MatrixAlgebra(COMPLEX, 2)
    outer = MatrixAlgebra(inner, 3)
    rng = np.random.default_rng(4)
    x, y = outer.random_element(rng), outer.random_element(rng)
    assert x.shape == (3, 3, 2, 2)
    expected = outer.zero()
    for i in range(3):
        for j in range(3):
            acc = inner.mul(x[i, 0], y[0, j])
            for k in (1, 2):
                acc = inner.add(acc, inner.mul(x[i, k], y[k, j]))
            expected[i, j] = acc
    assert np.array_equal(outer.mul(x, y), expected)


_NESTED = [
    MatrixAlgebra(COMPLEX, 3),
    MatrixAlgebra(ScaledIntegers(2), 2),
    MatrixAlgebra(MatrixAlgebra(COMPLEX, 2), 2),
    MatrixAlgebra(SequenceAlgebra(3, COMPLEX), 2),
    SampledFunctionAlgebra(range(3), MatrixAlgebra(COMPLEX, 2)),
    SequenceAlgebra(4, MatrixAlgebra(ScaledIntegers(1), 2)),
    SequenceAlgebra(3, SequenceAlgebra(2, COMPLEX)),
]


@pytest.mark.parametrize("inst", _NESTED, ids=lambda i: str(i.describe()))
def test_operations_accept_leading_batch_axes(inst):
    rng = np.random.default_rng(6)
    xs = [inst.random_element(rng) for _ in range(2)]
    ys = [inst.random_element(rng) for _ in range(2)]
    assert all(x.shape == inst.shape and x.dtype == inst.dtype for x in xs)
    products = inst.mul(np.stack(xs), np.stack(ys))
    by_one = inst.mul(np.stack(xs), ys[0])
    norms = inst.norms(np.stack(xs))
    for b in range(2):
        assert np.array_equal(products[b], inst.mul(xs[b], ys[b]))
        assert np.array_equal(by_one[b], inst.mul(xs[b], ys[0]))
        assert norms[b] == inst.norm(xs[b])


def _method_norms(inst, x):
    """Container norms through ``ndarray.sum`` and ``ndarray.max``."""
    inner = inst.inner.norms(x)
    if isinstance(inst, MatrixAlgebra):
        return inner.sum(axis=-2).max(axis=-1)
    if isinstance(inst, SampledFunctionAlgebra):
        return inner.max(axis=-1)
    return inner.sum(axis=-1)


@pytest.mark.parametrize(
    "inst",
    [*_NESTED, SampledFunctionAlgebra(range(4), ScaledIntegers("1/2")), SequenceAlgebra(5, COMPLEX)],
    ids=lambda i: str(i.describe()),
)
def test_container_zero_and_norms_match_the_ndarray_method_forms(inst):
    zero = inst.zero()
    full = np.full(inst.shape, inst.inner.zero(), dtype=inst.dtype)
    assert zero.dtype == full.dtype and np.array_equal(zero, full)
    assert [type(v) for v in zero.flat] == [type(v) for v in full.flat]
    rng = np.random.default_rng(8)
    batch = np.stack([inst.random_element(rng) for _ in range(3)])
    xs = [batch, batch[0], zero]
    if not inst.exact:
        # NaN, infinite and negative-zero entries, alone and in a batch
        special = batch[0].copy()
        special.flat[:3] = [complex(np.nan, 1.0), complex(-np.inf, 0.0), complex(-0.0, -0.0)]
        negative_zero = batch[1].copy()
        negative_zero.flat[::2] = complex(-0.0, -0.0)
        xs += [special, negative_zero, np.stack([negative_zero, special, batch[2]])]
    for x in xs:
        norms, expected = inst.norms(x), _method_norms(inst, x)
        assert type(norms) is type(expected)
        if inst.exact:
            assert np.array_equal(norms, expected)
            assert [type(v) for v in np.ravel(norms)] == [type(v) for v in np.ravel(expected)]
        else:
            # bit for bit, NaN and the sign of zero included
            assert norms.dtype == expected.dtype and norms.tobytes() == expected.tobytes()


class _DoubledComplex(ComplexScalars):
    def norms(self, x):
        return 2 * np.abs(x)


def test_container_entry_norms_follow_an_inner_instance_that_overrides_them():
    # a container asks its inner instance for the entry norms, an override included
    for inst in (MatrixAlgebra(_DoubledComplex(), 2), SampledFunctionAlgebra(range(2), _DoubledComplex())):
        assert inst.norm(inst.one()) == 2.0


def _built_one(inst):
    """The identity as ``one`` built it on each call before it kept a template."""
    if isinstance(inst, MatrixAlgebra):
        out = inst.zero()
        out.reshape((inst.n * inst.n,) + inst.inner.shape)[:: inst.n + 1] = inst.inner.one()
        return out
    if isinstance(inst, SampledFunctionAlgebra):
        return np.full(inst.shape, inst.inner.one(), dtype=inst.dtype)
    out = inst.zero()
    out[0] = inst.inner.one()
    return out


@pytest.mark.parametrize(
    "inst",
    [
        MatrixAlgebra(COMPLEX, 3),
        # the largest identity kept as a template, and the smallest built on each call
        MatrixAlgebra(COMPLEX, math.isqrt(ONE_TEMPLATE_ENTRIES)),
        MatrixAlgebra(COMPLEX, math.isqrt(ONE_TEMPLATE_ENTRIES) + 1),
        MatrixAlgebra(ScaledIntegers(1), 3),
        MatrixAlgebra(ScaledIntegers("1/2"), 2),
        MatrixAlgebra(MatrixAlgebra(COMPLEX, 2), 2),
        SampledFunctionAlgebra(range(4), COMPLEX),
        SampledFunctionAlgebra(range(3), MatrixAlgebra(ScaledIntegers(1), 2)),
        SampledFunctionAlgebra(range(ONE_TEMPLATE_ENTRIES + 1), COMPLEX),
        SequenceAlgebra(5, COMPLEX),
        SequenceAlgebra(3, MatrixAlgebra(COMPLEX, 2)),
    ],
    ids=lambda i: f"{i.kind}-{math.prod(i.shape)}-{np.dtype(i.dtype)}",
)
def test_one_returns_a_fresh_writable_identity(inst):
    expected = _built_one(inst)
    first = inst.one()
    assert first.dtype == expected.dtype and np.array_equal(first, expected)
    assert [type(v) for v in first.flat] == [type(v) for v in expected.flat]
    assert first.flags.writeable and first.flags.owndata
    first.fill(7)
    second = inst.one()
    assert not np.shares_memory(first, second)
    assert np.array_equal(second, expected)
    assert [type(v) for v in second.flat] == [type(v) for v in expected.flat]


# ---------------------------------------------------------------------------
# sampled functions and sequences


def test_sampled_idempotents_are_zero_one_valued():
    inst = SampledFunctionAlgebra(cantor_grid(3), COMPLEX)
    ind = np.isin(inst.grid, ["010", "111"]).astype(complex)
    assert inst.distance(inst.mul(ind, ind), ind) == 0.0
    assert set(np.asarray(ind)) <= {0j, 1 + 0j}
    # conversely, a defect-free sampled element has only 0/1 values
    for v in np.asarray(ind):
        assert v * v - v == 0


def test_sequence_l1_unit_and_convolution():
    inst = SequenceAlgebra(5, COMPLEX)
    one = inst.one()
    assert inst.norm(one) == 1.0
    x = np.array([0, 1, 0, 0, 0], dtype=complex)  # the shift generator
    sq = inst.mul(x, x)
    assert np.allclose(sq, [0, 0, 1, 0, 0])
    # truncation drops high degrees, so the norm stays submultiplicative
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, b = inst.random_element(rng), inst.random_element(rng)
        assert inst.norm(inst.mul(a, b)) <= inst.norm(a) * inst.norm(b) + 1e-9


def test_sequence_product_matches_numpy_convolution():
    inst = SequenceAlgebra(7, COMPLEX)
    rng = np.random.default_rng(8)
    for _ in range(10):
        a, b = inst.random_element(rng), inst.random_element(rng)
        np.testing.assert_allclose(inst.mul(a, b), np.convolve(a, b)[:7], rtol=1e-13, atol=1e-13)


def test_sequence_linf_is_coordinatewise():
    inst = parse_instance({"kind": "sequence", "mode": "linf", "truncation": 4})
    assert inst.norm(inst.one()) == 1.0
    a = np.array([1, 2, 3, 4], dtype=complex)
    b = np.array([2, 0, 1, 1], dtype=complex)
    assert np.allclose(inst.mul(a, b), [2, 0, 3, 4])
    assert inst.norm(a) == 4.0


def test_only_container_levels_invert_directly():
    # transfer_injective asks a direct inverse of uhf and cantor levels only;
    # complex scalars keep the base class's refusal
    with pytest.raises(NotImplementedError, match="complex"):
        COMPLEX.try_inverse(2 + 0j)
    inst = SampledFunctionAlgebra(cantor_grid(1), COMPLEX)
    assert np.array_equal(inst.try_inverse(np.array([2, 4j])), [0.5, -0.25j])


# ---------------------------------------------------------------------------
# registered-instance audit


@pytest.mark.parametrize("inst", registered_instances(), ids=lambda i: str(i.describe()))
def test_registered_instance_norm_axioms(inst):
    rng = np.random.default_rng(7)
    samples = [inst.one(), inst.zero()] + [inst.random_element(rng) for _ in range(6)]
    cert = check_norm_axioms(inst, samples)
    assert cert.valid


# ---------------------------------------------------------------------------
# towers


def test_uhf_tower_shape_and_unitality():
    tower = make_uhf_tower(3)
    assert [lv.n for lv in tower.levels] == [1, 2, 4, 8]
    for i in range(tower.depth):
        image = tower.push(tower.levels[i].one(), i, i + 1)
        assert tower.levels[i + 1].distance(image, tower.levels[i + 1].one()) == 0.0


def test_uhf_connecting_maps_are_short_on_samples():
    tower = make_uhf_tower(4)
    rng = np.random.default_rng(11)
    for _ in range(100):
        i = int(rng.integers(0, tower.depth))
        x = tower.levels[i].random_element(rng)
        assert tower.levels[i + 1].norm(tower.push(x, i, i + 1)) <= tower.levels[i].norm(x) + 1e-12


def test_uhf_normalized_trace_preserved_on_idempotents():
    tower = make_uhf_tower(4)
    rng = np.random.default_rng(13)
    for _ in range(100):
        i = int(rng.integers(0, tower.depth))
        inst = tower.levels[i]
        e = conjugated_projector(inst, int(rng.integers(0, inst.n + 1)), rng, spread=0.4)
        before = np.trace(e) / inst.n
        after = np.trace(tower.push(e, i, i + 1)) / tower.levels[i + 1].n
        assert abs(before - after) < 1e-10


def test_cantor_tower_shape_and_cylinder_pushforward():
    tower = make_cantor_tower(4)
    assert [lv.size for lv in tower.levels] == [1, 2, 4, 8, 16]
    lvl2 = tower.levels[2]
    ind = np.isin(lvl2.grid, ["01"]).astype(complex)
    for j in (3, 4):
        pushed = tower.push(ind, 2, j)
        inst = tower.levels[j]
        assert inst.distance(inst.mul(pushed, pushed), pushed) == 0.0
        assert pushed.sum() == 2 ** (j - 2)


def test_cantor_connecting_maps_are_short_and_unital():
    tower = make_cantor_tower(5)
    rng = np.random.default_rng(17)
    for _ in range(100):
        i = int(rng.integers(0, tower.depth))
        x = tower.levels[i].random_element(rng)
        assert tower.levels[i + 1].norm(tower.push(x, i, i + 1)) <= tower.levels[i].norm(x) + 1e-12
    one = tower.levels[0].one()
    assert tower.levels[2].distance(tower.push(one, 0, 2), tower.levels[2].one()) == 0.0


def test_tower_depth_bounds():
    with pytest.raises(ConfigError):
        make_uhf_tower(13)
    with pytest.raises(ConfigError):
        make_cantor_tower(17)
    assert make_cantor_tower(0).depth == 0


# ---------------------------------------------------------------------------
# seeded generators


def _cond_only_unit(n, rng, spread):
    """The unit draw deciding by the spectral condition number alone."""
    for _ in range(64):
        s = np.eye(n, dtype=complex) + spread * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        ) / max(1.0, np.sqrt(n))
        if np.linalg.cond(s) < 1e3:
            return s
    raise AssertionError("no well-conditioned draw")


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("spread", [0.4, 1, 3, 10])
def test_random_unit_matches_condition_number_rule(n, spread):
    inst = MatrixAlgebra(COMPLEX, n)
    for seed in range(50):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_unit(inst, rng, spread), _cond_only_unit(n, ref_rng, spread))
        assert rng.random() == ref_rng.random()


def test_random_unit_frobenius_cut_falls_back_to_cond(monkeypatch):
    # this draw's Frobenius product is at the cut, its condition number below 1e3
    cond_calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda s: cond_calls.append(1) or cond(s))
    s = random_unit(MatrixAlgebra(COMPLEX, 32), np.random.default_rng(24), 3)
    monkeypatch.undo()
    assert cond_calls == [1]
    assert np.array_equal(s, _cond_only_unit(32, np.random.default_rng(24), 3))


class _QueuedNormals:
    """A generator stand-in returning listed arrays from ``standard_normal``."""

    def __init__(self, arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        return self.arrays.pop(0)


def test_random_unit_retries_singular_and_ill_conditioned_draws():
    zero = np.zeros((2, 2))
    singular = np.array([[0.0, np.sqrt(2)], [np.sqrt(2), 0.0]])  # s = [[1, 1], [1, 1]]
    ill = singular + np.array([[0.0, 0.0], [0.0, 1e-6]])
    draws = [singular, zero, ill, zero, zero, zero]
    rng, ref_rng = _QueuedNormals(draws), _QueuedNormals(draws)
    s = random_unit(MatrixAlgebra(COMPLEX, 2), rng, 1.0)
    assert np.array_equal(s, _cond_only_unit(2, ref_rng, 1.0))
    assert np.array_equal(s, np.eye(2)) and rng.arrays == []


def test_conjugated_projector_needs_no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SVD called")

    inst = MatrixAlgebra(COMPLEX, 64)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "cond", refuse)
    e = conjugated_projector(inst, 20, np.random.default_rng(3), spread=0.4)
    monkeypatch.undo()
    rng = np.random.default_rng(3)
    d = np.zeros((64, 64), dtype=complex)
    idx = rng.permutation(64)[:20]
    d[idx, idx] = 1.0
    s = _cond_only_unit(64, rng, 0.4)
    assert np.array_equal(e, s @ d @ np.linalg.inv(s))


@pytest.mark.parametrize("n", [1, 2, 7, 64, 128])
def test_conjugated_projector_is_the_dense_diagonal_product(n):
    # the masked product equals s @ d @ s_inv bit for bit but for the sign
    # of exact zeros, which == does not tell apart, and draws alike
    inst = MatrixAlgebra(COMPLEX, n)
    for rank in sorted({0, 1, n // 2, n}):
        rng, ref = np.random.default_rng([n, rank]), np.random.default_rng([n, rank])
        e = conjugated_projector(inst, rank, rng, spread=0.5)
        d = np.zeros((n, n), dtype=complex)
        idx = ref.permutation(n)[:rank]
        d[idx, idx] = 1.0
        s, s_inv = _draw_unit(n, ref, 0.5)
        assert np.array_equal(e, s @ d @ s_inv)
        assert rng.random() == ref.random()


def test_random_almost_idempotent_band_contract():
    inst = MatrixAlgebra(COMPLEX, 2)
    a = random_almost_idempotent(inst, 0.09, seed=41)
    d = inst.distance(inst.mul(a, a), a)
    assert 0.045 <= d <= 0.09


def test_random_almost_idempotent_zero_defect_limit():
    inst = MatrixAlgebra(COMPLEX, 3)
    a = random_almost_idempotent(inst, 0.0, seed=5)
    assert inst.distance(inst.mul(a, a), a) < 1e-12


def test_random_almost_idempotent_reproducible():
    inst = MatrixAlgebra(COMPLEX, 4)
    a = random_almost_idempotent(inst, 0.1, seed=99)
    b = random_almost_idempotent(inst, 0.1, seed=99)
    assert np.array_equal(a, b)
    c = random_almost_idempotent(inst, 0.1, seed=100)
    assert not np.array_equal(a, c)


def test_random_almost_idempotent_rejects_bad_defect():
    inst = MatrixAlgebra(COMPLEX, 2)
    with pytest.raises(ConfigError):
        random_almost_idempotent(inst, 0.3, seed=0)


# ---------------------------------------------------------------------------
# descriptors


def test_instance_descriptor_round_trip():
    desc = {"kind": "matrix", "n": 4, "norm": "col-l1", "inner": {"kind": "complex"}}
    inst = parse_instance(desc)
    assert inst.describe() == desc


def test_descriptor_envelope_form_accepted():
    flat = parse_instance({"kind": "scaled-integers", "r": "1/2"})
    enveloped = parse_instance({"kind": "scaled-integers", "params": {"r": "1/2"}})
    assert flat.describe() == enveloped.describe()
    assert flat.r == Fraction(1, 2)


def test_descriptor_unknown_fields_rejected():
    with pytest.raises(ConfigError):
        parse_instance({"kind": "matrix", "n": 2, "wat": 1})
    with pytest.raises(ConfigError):
        parse_instance({"kind": "mystery"})
    with pytest.raises(ConfigError):
        parse_tower({"kind": "uhf", "depth": 2, "wat": 1})


def test_tower_descriptor_round_trip():
    tower = parse_tower({"kind": "uhf", "depth": 6})
    assert tower.describe() == {"kind": "uhf", "depth": 6}
    assert parse_tower({"kind": "cantor", "depth": 3}).depth == 3
    with pytest.raises(ConfigError):
        parse_instance({"kind": "uhf", "depth": 2})


def test_linf_sequence_descriptor_is_the_function_alias():
    inst = parse_instance({"kind": "sequence", "mode": "linf", "truncation": 5})
    assert isinstance(inst, SampledFunctionAlgebra)
    assert inst.grid == tuple(range(5))
    # the l1 descriptor is written back with its mode
    assert parse_instance({"kind": "sequence", "truncation": 5}).describe()["mode"] == "l1"


@pytest.mark.parametrize(
    "desc",
    [
        {"kind": "matrix"},
        {"kind": "matrix", "n": "abc"},
        {"kind": "matrix", "n": True},
        {"kind": "matrix", "n": 2.0},
        {"kind": "matrix", "n": 2, "norm": 1},
        {"kind": "matrix", "n": 2, "inner": "complex"},
        {"kind": "matrix", "params": 3},
        {"kind": "functions", "points": "abc"},
        {"kind": "sequence", "truncation": False},
        {"kind": "scaled-integers", "r": "abc"},
        {"kind": "scaled-integers", "r": "1/0"},
    ],
)
def test_descriptor_field_types_are_checked(desc):
    with pytest.raises(ConfigError):
        parse_instance(desc)


def test_descriptor_element_size_is_capped_before_allocation():
    assert MAX_ELEMENT_ENTRIES == 4096**2
    assert parse_instance({"kind": "matrix", "n": 4096}).shape == (4096, 4096)
    # at the work bound: 256**3 block products of one entry, the longest l1
    # sequence, object matmuls over scaled integers and matrices over l1
    # sequences; a sup-norm sequence is pointwise, one entry per point
    assert parse_instance({"kind": "matrix", "n": 256, "inner": {"kind": "matrix", "n": 1}})
    assert parse_instance({"kind": "sequence", "truncation": 4096})
    assert parse_instance({"kind": "sequence", "mode": "linf", "truncation": 2**20})
    assert parse_instance({"kind": "matrix", "n": 256, "inner": {"kind": "scaled-integers"}})
    assert parse_instance({"kind": "matrix", "n": 4, "inner": {"kind": "sequence", "truncation": 512}})
    assert parse_instance({"kind": "matrix", "n": 16, "inner": {"kind": "sequence", "truncation": 64}})
    for desc in (
        {"kind": "matrix", "n": 100000},
        {"kind": "matrix", "n": 4097},
        {"kind": "functions", "points": 10**12},
        {"kind": "sequence", "truncation": 10**12},
        {"kind": "sequence", "mode": "linf", "truncation": 10**12},
        {"kind": "matrix", "n": 2049, "inner": {"kind": "matrix", "n": 2}},
        {"kind": "functions", "points": 4096, "inner": {"kind": "sequence", "truncation": 4097}},
        {"kind": "matrix", "n": 257, "inner": {"kind": "matrix", "n": 1}},
        {"kind": "matrix", "n": 64, "inner": {"kind": "sequence", "truncation": 65}},
        {"kind": "sequence", "truncation": 4097},
        {"kind": "matrix", "n": 257, "inner": {"kind": "scaled-integers"}},
        {"kind": "matrix", "n": 16, "inner": {"kind": "sequence", "truncation": 4096}},
        {"kind": "matrix", "n": 4, "inner": {"kind": "sequence", "truncation": 4096}},
        {"kind": "functions", "points": 2, "inner": {"kind": "sequence", "truncation": 4096}},
    ):
        with pytest.raises(ConfigError):
            parse_instance(desc)


def test_product_work_is_the_count_that_parse_instance_bounds():
    for desc, work in (
        ({"kind": "complex"}, 1),
        ({"kind": "scaled-integers", "r": "1/2"}, 1),
        ({"kind": "matrix", "n": 6}, 6**2),
        ({"kind": "matrix", "n": 6, "inner": {"kind": "scaled-integers"}}, 6**3),
        ({"kind": "matrix", "n": 4, "inner": {"kind": "matrix", "n": 2}}, 4**3 * 2**2),
        ({"kind": "functions", "points": 5, "inner": {"kind": "sequence", "truncation": 3}}, 45),
        ({"kind": "sequence", "mode": "linf", "truncation": 7}, 7),
    ):
        inst = parse_instance(desc)
        assert product_work(inst) == work
        # at least the entries of an element, so a bound on the work of
        # products (collapse's too) bounds the entries they hold
        assert work >= math.prod(inst.shape)
    for inst in registered_instances():
        assert product_work(inst) >= math.prod(inst.shape)
    # a norm-audit row at the default 8 samples is 10 products: the largest
    # sizes it accepts where a product forms more entries than it outputs
    for desc, largest in (
        (lambda n: {"kind": "matrix", "n": n, "inner": {"kind": "scaled-integers"}}, 118),
        (lambda t: {"kind": "matrix", "n": 4, "inner": {"kind": "sequence", "truncation": t}}, 161),
        (lambda t: {"kind": "sequence", "truncation": t}, 1295),
    ):
        for size in (largest, largest + 1):
            row = 10 * product_work(parse_instance(desc(size)))
            assert (row <= MAX_ELEMENT_ENTRIES) == (size == largest)


def _nested(kind: str, size_field: str, levels: int) -> dict:
    desc = {"kind": "complex"}
    for _ in range(levels):
        desc = {"kind": kind, size_field: 1, "inner": desc}
    return desc


def test_descriptor_nesting_is_capped_at_numpys_axes():
    # a batch axis, then 3 axes per matrix level over a non-scalar inner
    # instance (2 at the innermost) and 1 per sequence or function level
    deepest = parse_instance(_nested("sequence", "truncation", 31))
    assert deepest.shape == (1,) * 31
    assert parse_instance(_nested("functions", "points", 31)).shape == (1,) * 31
    assert parse_instance(_nested("matrix", "n", 10)).shape == (1,) * 20
    # the deepest sequence still runs batched products, which broadcast 32 axes
    assert deloop.finite_collapse_certificate(1, deepest).valid
    for desc in (
        _nested("sequence", "truncation", 32),
        _nested("functions", "points", 32),
        _nested("matrix", "n", 11),
        # far past the recursion limit: the chain is walked, not recursed
        _nested("functions", "points", 100_000),
    ):
        with pytest.raises(ConfigError, match="32 axes"):
            parse_instance(desc)


def test_tower_descriptor_types_are_checked():
    for desc in ({"kind": "uhf", "depth": "3"}, {"kind": "cantor", "depth": True}):
        with pytest.raises(ConfigError):
            parse_tower(desc)
