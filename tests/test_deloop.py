"""Column-sparse operators, the corner, collapse and swindle checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from idemkit import deloop
from idemkit.core import Certificate, ScaledIntegers
from idemkit.deloop import (
    CornerIdempotent,
    EndOperator,
    _collapse_positions,
    _dyadic_pair,
    _dyadic_unpair,
    end_norm,
    finite_collapse_certificate,
    swindle_conjugator,
)
from idemkit.errors import ConfigError
from idemkit.instances import COMPLEX, ComplexScalars, MatrixAlgebra, SampledFunctionAlgebra


# ---------------------------------------------------------------------------
# norms


def test_end_norm_identity_and_zero():
    identity = EndOperator.from_columns(COMPLEX, {j: ((j, 1 + 0j),) for j in range(10)})
    assert end_norm(identity) == 1.0
    assert end_norm(EndOperator(COMPLEX)) == 0


def test_end_norm_stacked_column():
    a = 1.5 + 2j
    op = EndOperator.from_columns(COMPLEX, {0: ((0, a), (1, a))})
    assert end_norm(op) == pytest.approx(2 * abs(a))


def test_end_norm_submultiplicative_on_random_sparse_pairs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ops = []
        for _ in range(2):
            cols = {}
            for j in rng.integers(0, 12, size=4):
                cols[int(j)] = tuple(
                    (int(i), complex(rng.standard_normal(), rng.standard_normal()))
                    for i in rng.integers(0, 12, size=3)
                )
            ops.append(EndOperator.from_columns(COMPLEX, cols))
        a, b = ops
        assert end_norm(a.compose(b)) <= end_norm(a) * end_norm(b) + 1e-9


def test_zero_entries_are_dropped():
    op = EndOperator.from_columns(COMPLEX, {0: ((0, 0j), (1, 1 + 0j))})
    assert op.columns == {0: ((1, 1 + 0j),)}


# ---------------------------------------------------------------------------
# the corner


def test_corner_is_idempotent_with_unit_norm():
    e = CornerIdempotent(0)
    op = e.as_operator(COMPLEX)
    assert op.compose(op).columns == op.columns
    assert end_norm(op) == 1.0
    assert end_norm(CornerIdempotent(0).as_operator(ScaledIntegers(1))) == 1


def test_corner_roundtrip_examples():
    a = 2 - 1j
    b = EndOperator.from_columns(
        COMPLEX, {0: ((0, a), (3, 5 + 0j)), 2: ((1, 7 + 0j),)}
    )
    e = CornerIdempotent(0).as_operator(COMPLEX)
    compressed = e.compose(b).compose(e)
    assert compressed.columns == {0: ((0, a),)}
    assert end_norm(compressed) == pytest.approx(abs(a))


# ---------------------------------------------------------------------------
# finite collapse


def test_collapse_size_one():
    cc = finite_collapse_certificate(1)
    assert cc.valid
    assert cc.cert.entry("collapse-identity").lhs == 0


def _explicit_pairs(n, inner):
    """The collapse's pairs ``(a_k, b_k)`` as operators, at the positions
    that ``_collapse_positions`` gives, with the inner unit as their entry."""
    (a_rows, a_cols), (b_rows, b_cols) = (
        (rows.tolist(), cols.tolist()) for rows, cols in _collapse_positions(np.arange(n))
    )
    return [
        (EndOperator.matrix_unit(inner, a_row, a_col), EndOperator.matrix_unit(inner, b_row, b_col))
        for a_row, a_col, b_row, b_col in zip(a_rows, a_cols, b_rows, b_cols)
    ]


def _pair_sum(pairs, inner):
    e = CornerIdempotent(0).as_operator(inner)
    merged = {}
    for a_k, b_k in pairs:
        for j, entries in a_k.compose(e).compose(b_k).columns.items():
            merged.setdefault(j, []).extend(entries)
    return EndOperator.from_columns(inner, merged)


def test_collapse_size_three_explicit_pairs():
    cc = finite_collapse_certificate(3)
    assert cc.valid
    # pairs are the single-entry operators into and out of coordinate 0
    pairs = _explicit_pairs(3, COMPLEX)
    for k, (a_k, b_k) in enumerate(pairs):
        assert a_k.columns == {0: ((k, 1 + 0j),)}
        assert b_k.columns == {k: ((0, 1 + 0j),)}
    assert _pair_sum(pairs, COMPLEX).columns == {j: ((j, 1 + 0j),) for j in range(3)}

    inner = MatrixAlgebra(COMPLEX, 2)
    cc = finite_collapse_certificate(3, inner)
    assert cc.valid
    one = inner.one()
    pairs = _explicit_pairs(3, inner)
    for k, (a_k, b_k) in enumerate(pairs):
        [(a_col, ((a_row, a_val),))] = a_k.columns.items()
        [(b_col, ((b_row, b_val),))] = b_k.columns.items()
        assert (a_col, a_row, b_col, b_row) == (0, k, k, 0)
        assert np.array_equal(a_val, one) and np.array_equal(b_val, one)
    total = _pair_sum(pairs, inner)
    assert sorted(total.columns) == [0, 1, 2]
    for j, entries in total.columns.items():
        [(row, value)] = entries
        assert row == j and np.array_equal(value, one)


def test_collapse_exact_up_to_sixty_four():
    for n in (2, 16, 64):
        assert finite_collapse_certificate(n).valid


def test_collapse_over_matrix_inner_instance():
    inner = MatrixAlgebra(COMPLEX, 2)
    cc = finite_collapse_certificate(4, inner)
    assert cc.valid
    assert cc.cert.entry("corner-norm").lhs == 1.0


def test_collapse_rejects_bad_size():
    with pytest.raises(ConfigError):
        finite_collapse_certificate(0)


def test_collapse_holds_no_operators_and_peaks_small():
    # holding the 2n witness operators and merging twice peaked at 26.7 MB
    tracemalloc.start()
    try:
        cc = finite_collapse_certificate(2**14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cc.valid
    assert peak < 18 * 2**20
    assert [f.name for f in dataclasses.fields(cc)] == ["cert"]
    assert not any(isinstance(v, EndOperator) for v in vars(cc).values())


class _CountingComplex(ComplexScalars):
    muls = 0

    def mul(self, x, y):
        self.muls += 1
        return super().mul(x, y)


@pytest.mark.parametrize("n", [1, 3, 1024])
def test_collapse_composes_no_operators_and_makes_two_batched_products(n, monkeypatch):
    # the operator composition made 2n compositions of one product each
    composes = 0
    compose = EndOperator.compose

    def counted(self, other):
        nonlocal composes
        composes += 1
        return compose(self, other)

    monkeypatch.setattr(EndOperator, "compose", counted)
    inner = _CountingComplex()
    assert finite_collapse_certificate(n, inner).valid
    assert composes == 0
    assert inner.muls == 2


def _operator_collapse_cert(n, inner):
    """The collapse certificate from 2n operator compositions merged with
    the negated identity, as the check formed it before it ran on index
    arrays.  It builds its pairs from the module's positions, so a patched
    pairing reaches it too.  Each column lists the identity's entry first,
    then the terms' entries in order, and ``from_columns`` sums them."""
    one = inner.one()
    e = CornerIdempotent(0).as_operator(inner)
    (a_rows, a_cols), (b_rows, b_cols) = (
        (rows.tolist(), cols.tolist()) for rows, cols in deloop._collapse_positions(np.arange(n))
    )
    merged = {j: [(j, inner.neg(one))] for j in range(n)}
    for a_row, a_col, b_row, b_col in zip(a_rows, a_cols, b_rows, b_cols):
        a_k = EndOperator.matrix_unit(inner, a_row, a_col)
        term = a_k.compose(e).compose(EndOperator.matrix_unit(inner, b_row, b_col))
        for j, entries in term.columns.items():
            merged.setdefault(j, []).extend(entries)
    cert = Certificate(slack=0.0)
    cert.add("collapse-identity", end_norm(EndOperator.from_columns(inner, merged)), 0)
    cert.add("corner-norm", end_norm(e), inner.norm(inner.one()))
    return cert


def _assert_same_cert(cert, oracle):
    assert cert.entries == oracle.entries
    assert [type(e.lhs) for e in cert.entries] == [type(e.lhs) for e in oracle.entries]


COLLAPSE_INNERS = [COMPLEX, ScaledIntegers(1), ScaledIntegers("1/2"), MatrixAlgebra(COMPLEX, 2)]
COLLAPSE_IDS = ["complex", "r=1", "r=1/2", "matrix-2"]


@pytest.mark.parametrize("inner", COLLAPSE_INNERS, ids=COLLAPSE_IDS)
@pytest.mark.parametrize("n", [1, 2, 3, 1024])
def test_collapse_equals_the_operator_composition(n, inner):
    cc = finite_collapse_certificate(n, inner)
    _assert_same_cert(cc.cert, _operator_collapse_cert(n, inner))
    assert cc.cert.entry("collapse-identity").lhs == 0
    assert type(cc.cert.entry("collapse-identity").lhs) is int


def _shifted_rows(k):
    # E_{k0} -> E_{(k+1) mod n, 0}: every column keeps -1 and gains a 1 below
    (a_rows, a_cols), b = _collapse_positions(k)
    return ((a_rows + 1) % k.size, a_cols), b


def _all_at_the_corner(k):
    # every term lands on (0, 0): one group of n + 1 entries
    (_, a_cols), (b_rows, _) = _collapse_positions(k)
    return (np.zeros_like(k), a_cols), (b_rows, np.zeros_like(k))


def _all_in_column_zero(k):
    # every term lands in column 0: its column sum differs from every row's
    a, (b_rows, _) = _collapse_positions(k)
    return a, (b_rows, np.zeros_like(k))


def _odd_terms_missing(k):
    # b_k's row misses the corner's column for odd k, so those terms vanish
    a, (b_rows, b_cols) = _collapse_positions(k)
    return a, (b_rows + k % 2, b_cols)


@pytest.mark.parametrize("inner", COLLAPSE_INNERS, ids=COLLAPSE_IDS)
@pytest.mark.parametrize(
    "wrong", [_shifted_rows, _all_at_the_corner, _all_in_column_zero, _odd_terms_missing]
)
@pytest.mark.parametrize("block", [deloop.COLLAPSE_BLOCK, 4])
def test_a_wrong_pairing_gives_the_operator_compositions_lhs(wrong, inner, block, monkeypatch):
    # a block of 4 inner entries splits the 2n = 14 merged entries into
    # several blocks (one 2 x 2 matrix each over the matrices), and the
    # corner group of n + 1 entries overruns its block
    monkeypatch.setattr(deloop, "_collapse_positions", wrong)
    monkeypatch.setattr(deloop, "COLLAPSE_BLOCK", block)
    cc = finite_collapse_certificate(7, inner)
    oracle = _operator_collapse_cert(7, inner)
    _assert_same_cert(cc.cert, oracle)
    assert oracle.entry("collapse-identity").lhs > 0
    assert not cc.valid


@pytest.mark.parametrize("n", [1, 2, 3, 33, 1024])
def test_blocked_collapse_equals_the_operator_composition(n, monkeypatch):
    monkeypatch.setattr(deloop, "COLLAPSE_BLOCK", 8)
    for inner in COLLAPSE_INNERS:
        _assert_same_cert(finite_collapse_certificate(n, inner).cert, _operator_collapse_cert(n, inner))


def test_collapse_peaks_near_one_block_over_wide_matrices():
    # the operator composition peaked at 129 MB here, holding all n terms
    inner = MatrixAlgebra(COMPLEX, 64)
    tracemalloc.start()
    try:
        cc = finite_collapse_certificate(256, inner)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cc.valid
    assert peak < 8 * 2**20


def test_collapse_caps_the_inner_entries_it_holds():
    with pytest.raises(ConfigError, match="inner entries"):
        finite_collapse_certificate(2**16, MatrixAlgebra(COMPLEX, 64))
    # functions on 4096 points: a product's work is its 4096 entries
    wide = SampledFunctionAlgebra(range(4096), COMPLEX)
    cap = deloop.MAX_ELEMENT_ENTRIES // 4096
    assert finite_collapse_certificate(cap, wide).valid
    with pytest.raises(ConfigError, match="inner entries"):
        finite_collapse_certificate(cap + 1, wide)


# ---------------------------------------------------------------------------
# the swindle


@pytest.mark.parametrize("support", [1, 2, 3, 512, 2**16])
def test_swindle_report_valid_at_moderate_support(support):
    # support 1 has no odd column; 2**16 is the cap
    report = swindle_conjugator(support)
    assert report.valid
    assert report.cert.entry("collisions").lhs == 0
    assert report.cert.entry("roundtrip-failures").lhs == 0
    assert report.cert.entry("conjugation-mismatches").lhs == 0
    assert report.to_json()["checked_columns"] == support
    assert all(type(e.lhs) is int for e in report.cert.entries)


def _scalar_unpair(n):
    m = n + 1
    i = (m & -m).bit_length() - 1
    return i, ((m >> i) - 1) // 2


def test_dyadic_pairing_round_trips_on_arrays():
    n = np.arange(2**17, dtype=np.int64)
    i, j = _dyadic_unpair(n)
    assert i.dtype == j.dtype == np.int64
    assert np.array_equal(_dyadic_pair(i, j), n)
    assert list(zip(i.tolist(), j.tolist())) == [_scalar_unpair(k) for k in range(2**17)]
    i32, j32 = _dyadic_unpair(n.astype(np.int32))
    assert i32.dtype == j32.dtype == np.int32
    assert np.array_equal(i32, i) and np.array_equal(j32, j)
    assert _dyadic_pair(i32, j32).dtype == np.int32
    assert np.array_equal(_dyadic_pair(i32, j32), n)


def test_swindle_certificate_catches_a_non_injective_pairing(monkeypatch):
    # both conjugation routes share the pairing, so only its own count sees this
    pair = deloop._dyadic_pair
    monkeypatch.setattr(deloop, "_dyadic_pair", lambda i, j: pair(i, j) + (i == 3))
    report = swindle_conjugator(4096)
    assert report.cert.entry("conjugation-mismatches").lhs == 0
    assert report.cert.entry("pairing-collisions").lhs > 0
    assert not report.valid
    counts = [e.lhs for e in report.cert.entries]
    assert counts == _whole_array_swindle_counts(4096) == [0, 0, 0, 126]


def _whole_array_swindle_counts(support):
    """The four counts of the swindle check on int64 arrays over the whole
    support at once, as the check ran before it walked blocks.  It pairs
    through the module's functions, so a patched pairing reaches it too."""
    pair, unpair = deloop._dyadic_pair, deloop._dyadic_unpair

    def repeats(values):
        ordered = np.sort(values, axis=None)
        return int(np.count_nonzero(ordered[1:] == ordered[:-1]))

    half = np.arange(support, dtype=np.int64)[:, None]
    parity = np.arange(2, dtype=np.int64)
    images = 2 * half + parity
    collisions = repeats(images)
    back_half, back_parity = np.divmod(images, 2)
    roundtrip_failures = int(np.count_nonzero((back_half != half) | (back_parity != parity)))

    cols = np.arange(support + 2, dtype=np.int64)
    x_rows, x_vals = cols + 1, np.ones_like(cols)
    y_rows, y_vals = cols + 2, np.ones_like(cols)

    col = cols[:support]
    k, copy = np.divmod(col, 2)
    i, j = unpair(k)
    t_rows = pair(i, y_rows[j])
    conj_rows = np.where(copy == 0, 2 * x_rows[k], 2 * t_rows + 1)
    conj_vals = np.where(copy == 0, x_vals[k], y_vals[j])

    even, odd = col[0::2] // 2, (col[1::2] - 1) // 2
    i, j = unpair(odd)
    inter_rows, inter_vals = np.empty_like(col), np.empty_like(col)
    inter_rows[0::2], inter_vals[0::2] = 2 * x_rows[even], x_vals[even]
    inter_rows[1::2], inter_vals[1::2] = 2 * pair(i, y_rows[j]) + 1, y_vals[j]
    mismatched = (conj_rows != inter_rows) | (conj_vals != inter_vals)
    conjugation_mismatches = int(np.count_nonzero(mismatched))

    pairing_collisions = repeats(t_rows[copy == 1])
    return [collisions, roundtrip_failures, conjugation_mismatches, pairing_collisions]


BLOCK = deloop.SWINDLE_BLOCK


@pytest.mark.parametrize(
    "support", [1, 2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1, 2**16]
)
def test_blocked_swindle_counts_equal_the_whole_array_check(support):
    report = swindle_conjugator(support)
    assert [e.lhs for e in report.cert.entries] == _whole_array_swindle_counts(support)


def test_swindle_counts_a_pairing_collision_between_two_blocks(monkeypatch):
    # column 1 lies in block 0 and column BLOCK + 1 in block 1; the mutant
    # sends the latter's paired row onto the former's, and nothing else moves
    pair = deloop._dyadic_pair
    first = pair(0, 2)  # column 1: k = 0 unpairs to (0, 0), and y shifts j by 2
    i, j = _scalar_unpair(BLOCK // 2)
    later = pair(i, j + 2)
    monkeypatch.setattr(
        deloop, "_dyadic_pair", lambda i, j: np.where(pair(i, j) == later, first, pair(i, j))
    )
    report = swindle_conjugator(2 * BLOCK + 1)
    assert report.cert.entry("conjugation-mismatches").lhs == 0
    assert report.cert.entry("pairing-collisions").lhs == 1
    assert not report.valid


def test_swindle_working_set_stays_small_at_the_cap():
    # the whole-array check peaked at 11.25 MB here
    tracemalloc.start()
    try:
        swindle_conjugator(2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_swindle_support_bounds():
    with pytest.raises(ConfigError):
        swindle_conjugator(0)
    with pytest.raises(ConfigError):
        swindle_conjugator(2**16 + 1)


def test_swindle_report_serializes():
    report = swindle_conjugator(16)
    blob = report.to_json()
    assert report.cert.valid and blob == {"support": 16, "checked_columns": 16}


def test_swindle_report_valid_reads_its_certificate():
    report = swindle_conjugator(64)
    assert [e.name for e in report.cert.entries] == [
        "collisions",
        "roundtrip-failures",
        "conjugation-mismatches",
        "pairing-collisions",
    ]
    assert [e.lhs for e in report.cert.entries] == [0, 0, 0, 0]
    assert report.valid and report.cert.valid


def test_collapse_size_is_capped_before_allocation():
    with pytest.raises(ConfigError, match="2\\*\\*16"):
        finite_collapse_certificate(10**9)
