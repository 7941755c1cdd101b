"""Certificates, norm axioms and tensor norms."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from idemkit.calculus import (
    CertifiedIdempotent,
    CertifiedUnit,
    certify_idempotent,
    lift_idempotent,
)
from idemkit.colimit import (
    InjectiveTransfer,
    LimitElement,
    SurjectiveTransfer,
    transfer_injective,
    transfer_surjective,
)
from idemkit.core import (
    Certificate,
    CertEntry,
    GROUP_AXIOM_PREFIXES,
    MAX_SUPPORT_BOUND,
    ScaledIntegers,
    _min_term_cost,
    _norm_to_json,
    check_norm_axioms,
    tensor_norm_int,
)
from idemkit.errors import ConfigError
from idemkit.homotopy import path_trivialize, rotation_path
from idemkit.instances import (
    COMPLEX,
    MatrixAlgebra,
    SampledFunctionAlgebra,
    SequenceAlgebra,
    conjugated_projector,
    make_uhf_tower,
    parse_instance,
    random_almost_idempotent,
    registered_instances,
)
from idemkit.k0 import EquivalenceResult, IdempotentClass, are_equivalent, classify


# ---------------------------------------------------------------------------
# certificates


def test_certificate_validity_is_recomputable():
    cert = Certificate()
    cert.add("a", 1, 2)
    cert.add("b", 3, 3)
    assert cert.valid
    cert.add("c", 5, 4)
    assert not cert.valid


def test_certificate_slack_applies_to_rhs():
    cert = Certificate(slack=1e-9)
    entry = cert.add("x", 1.0, 1.0)
    assert entry.rhs == 1.0 + 1e-9


def test_certificate_exact_entries_stay_fractions():
    cert = Certificate(slack=0.0)
    entry = cert.add("x", Fraction(1, 3), Fraction(1, 2))
    assert isinstance(entry.rhs, Fraction)


def test_advisory_entries_do_not_affect_validity():
    cert = Certificate()
    cert.add("hard", 1, 2)
    cert.add("soft", 9, 1, advisory=True)
    assert cert.valid
    assert not cert.entry("soft").holds


def test_valid_for_skips_advisory_entries_like_valid():
    cert = Certificate()
    cert.add("triangle[0,0]", 1, 2)
    cert.add("triangle[0,1]", 9, 1, advisory=True)
    cert.add("submul[0,0]", 9, 1)
    assert cert.valid_for(("triangle",))
    assert not cert.valid_for(("submul",))


def test_certificate_json_round_trip():
    cert = Certificate()
    cert.add("float", 0.5, 1.0)
    cert.add("exact", Fraction(1, 3), Fraction(2, 3))
    cert.add("soft", 2, 1, advisory=True)
    back = Certificate.from_json(cert.to_json())
    assert back.to_json() == cert.to_json()
    assert back.entry("exact").lhs == Fraction(1, 3)
    assert back.entry("soft").advisory


@pytest.mark.parametrize(
    "value, expected",
    [
        (True, True),
        (0, 0),
        (-0.0, -0.0),
        (float("inf"), float("inf")),
        (float("nan"), float("nan")),
        (np.float64(0.1), 0.1),
        (np.int64(3), 3.0),
        (Fraction(4), 4),
        (Fraction(-1, 3), "-1/3"),
    ],
    ids=repr,
)
def test_norm_to_json_keeps_each_value_and_type(value, expected):
    # repr tells -0.0 from 0.0 and equates NaN with itself
    got = _norm_to_json(value)
    assert (type(got), repr(got)) == (type(expected), repr(expected))


def test_cert_entry_from_json_parses_fraction_strings():
    e = CertEntry.from_json({"name": "x", "lhs": "1/3", "rhs": "1/2"})
    assert e.holds and e.lhs == Fraction(1, 3)


def test_prefixed_extend_makes_cert_entries():
    inner = Certificate()
    inner.add("a", 1, 2)
    inner.add("b", 3, 1, advisory=True)
    outer = Certificate()
    outer.extend(inner, prefix="p:")
    assert [type(e) for e in outer.entries] == [CertEntry, CertEntry]
    assert outer.entries == [CertEntry("p:a", 1, 2), CertEntry("p:b", 3, 1, advisory=True)]
    assert outer.valid and not outer.entry("p:b").holds
    # with no prefix the entries themselves are shared
    outer.extend(inner)
    assert outer.entries[2] is inner.entries[0]


@pytest.fixture(scope="module")
def op_results():
    """One result of each small certified op, built by the library."""
    inst = MatrixAlgebra(COMPLEX, 4)
    rng = np.random.default_rng(5)
    lift = lift_idempotent(inst, random_almost_idempotent(inst, 0.1, seed=3), "corrected", 1e-10)
    e, f = (certify_idempotent(inst, conjugated_projector(inst, 2, rng), 1e-9) for _ in range(2))
    equivalence = are_equivalent(inst, e, f)
    tower = make_uhf_tower(3)
    level_e = conjugated_projector(tower.levels[1], 1, rng, spread=0.4)
    limit = LimitElement(1, level_e, 0.0)
    sur = transfer_surjective(tower, limit, eps=0.01)
    level_f = certify_idempotent(tower.levels[1], level_e, 1e-9)
    inj = transfer_injective(tower, 1, level_f, level_f, LimitElement(1, tower.levels[1].one()), eps=0.01)
    path = path_trivialize(rotation_path(MatrixAlgebra(COMPLEX, 2)), tol=1e-8)
    return {
        "lift": lift,
        "equivalence": equivalence,
        "class": classify(inst, e),
        "limit": limit,
        "transfer": sur,
        "injective": inj,
        "path": path,
        "entry": lift.cert.entries[0],
    }


def test_records_are_immutable_tuples(op_results):
    records = [*op_results.values(), op_results["transfer"].unit, op_results["equivalence"].unit]
    kinds = {type(r) for r in records}
    assert kinds == {
        CertEntry,
        CertifiedIdempotent,
        CertifiedUnit,
        EquivalenceResult,
        IdempotentClass,
        LimitElement,
        SurjectiveTransfer,
        InjectiveTransfer,
    }
    for record in records:
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None
    # a record unpacks, indexes and compares equal as the tuple of its fields
    entry = op_results["entry"]
    name, lhs, rhs, advisory = entry
    assert entry == (name, lhs, rhs, advisory) and entry[0] == entry.name
    assert op_results["lift"].defect == op_results["lift"].cert.entry("defect").lhs


@pytest.mark.parametrize("which", ["lift", "transfer", "path"])
def test_op_certificates_round_trip_through_json(op_results, which):
    cert = op_results[which].cert
    back = Certificate.from_json(cert.to_json())
    assert back.to_json() == cert.to_json()
    assert all(type(e) is CertEntry for e in back.entries)
    assert back.valid == cert.valid


# ---------------------------------------------------------------------------
# norm-axiom audit


def test_complex_scalars_pass_all_axioms():
    cert = check_norm_axioms(COMPLEX, [1 + 0j, 1j, 1 + 1j])
    assert cert.valid


def test_scaled_integers_r2_is_group_but_flagged_as_ring():
    cert = check_norm_axioms(ScaledIntegers(2), [1, -1, 3, -3])
    assert cert.valid_for(GROUP_AXIOM_PREFIXES)
    unit = cert.entry("unit-norm")
    assert unit.lhs == 2 and not unit.holds
    assert not cert.valid


def test_scaled_integers_half_fails_submultiplicativity():
    inst = ScaledIntegers(Fraction(1, 2))
    cert = check_norm_axioms(inst, [1, 2, -3])
    assert cert.valid_for(GROUP_AXIOM_PREFIXES)
    # |1*1|/2 = 1/2 > (1/2)*(1/2)
    assert not cert.entry("submul[0,0]").holds
    assert not inst.is_banach_ring


def test_matrix_axioms_on_random_pairs():
    inst = MatrixAlgebra(COMPLEX, 2)
    rng = np.random.default_rng(1)
    samples = [inst.random_element(rng) for _ in range(8)]
    cert = check_norm_axioms(inst, samples)
    assert cert.valid  # 64 ordered pairs; slack 1e-9 absorbs roundoff


class _CountingNorms(MatrixAlgebra):
    """Complex matrices that count their ``norms`` calls, the elements
    those calls measure, and their ``mul`` calls."""

    def __init__(self, n):
        super().__init__(COMPLEX, n)
        self.norms_calls = self.measured = self.mul_calls = 0

    def norms(self, x):
        self.norms_calls += 1
        self.measured += np.asarray(x).size // (self.n * self.n)
        return super().norms(x)

    def mul(self, x, y):
        self.mul_calls += 1
        return super().mul(x, y)


@pytest.mark.parametrize("s", [1, 4, 10])
def test_norm_audit_measures_each_sample_norm_once(s):
    inst = _CountingNorms(3)
    rng = np.random.default_rng(s)
    samples = [inst.random_element(rng) for _ in range(s)]
    check_norm_axioms(inst, samples)
    # zero and unit; the samples and their negations, one batch each; and
    # per sample one batch of its sums and one of its products
    assert inst.norms_calls == 2 + 2 + 2 * s
    # zero and unit, each sample and its negation, each pair's sum and product
    assert inst.measured == 2 + 2 * s + 2 * s * s
    assert inst.mul_calls == s


def _pairwise_norm_axioms(instance, samples) -> Certificate:
    """The audit one pair per call: the oracle of the batched rows."""
    cert = instance.certificate()
    cert.add("zero-norm", instance.norm(instance.zero()), 0)
    measured = [(i, x, instance.norm(x)) for i, x in enumerate(samples)]
    for i, x, nx in measured:
        cert.add(f"symmetry[{i}]", abs(instance.norm(instance.neg(x)) - nx), 0)
    for (i, x, nx), (j, y, ny) in itertools.product(measured, repeat=2):
        cert.add(f"triangle[{i},{j}]", instance.norm(instance.add(x, y)), nx + ny)
    cert.add("unit-norm", instance.norm(instance.one()), 1)
    for (i, x, nx), (j, y, ny) in itertools.product(measured, repeat=2):
        cert.add(f"submul[{i},{j}]", instance.norm(instance.mul(x, y)), nx * ny)
    return cert


_AUDITED = registered_instances() + [
    parse_instance(d)
    for d in (
        {"kind": "matrix", "n": 3, "norm": "spectral"},
        {"kind": "sequence", "truncation": 16},
        {"kind": "matrix", "n": 8, "inner": {"kind": "matrix", "n": 8}},
        {"kind": "functions", "points": 16},
        {"kind": "sequence", "truncation": 9, "inner": {"kind": "matrix", "n": 3}},
        # sequence products batched over block products, at a length that
        # numpy sums pairwise
        {"kind": "matrix", "n": 3, "inner": {"kind": "sequence", "truncation": 9}},
        {"kind": "matrix", "n": 3, "inner": {"kind": "scaled-integers", "r": "1/2"}},
    )
]


@pytest.mark.parametrize("inst", _AUDITED, ids=lambda inst: json.dumps(inst.describe()))
def test_norm_audit_rows_match_the_pairwise_oracle_bit_for_bit(inst):
    rng = np.random.default_rng(5)
    samples = [inst.one(), inst.zero()] + [inst.random_element(rng) for _ in range(4)]
    rows, pairs = check_norm_axioms(inst, samples), _pairwise_norm_axioms(inst, samples)
    exact = lambda cert: [
        (e.name, repr(e.lhs), type(e.lhs), repr(e.rhs), type(e.rhs)) for e in cert.entries
    ]
    assert exact(rows) == exact(pairs)


# ---------------------------------------------------------------------------
# tensor norm on scaled integers


def test_tensor_norm_trivial_and_derived_values():
    assert tensor_norm_int(0, 1, 1, 3) == 0
    assert tensor_norm_int(1, 1, 1, 4) == 1
    assert tensor_norm_int(6, Fraction(1, 2), 3, 8) == 9


def test_tensor_norm_matches_closed_form_on_sweep():
    scales = (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))
    for m in range(-8, 9):
        for r in scales:
            for s in scales:
                assert tensor_norm_int(m, r, s, 8) == r * s * abs(m)


def test_tensor_norm_monotone_nonincreasing_in_bound():
    values = [tensor_norm_int(6, 1, 1, b) for b in range(1, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_tensor_norm_rejects_zero_bound():
    with pytest.raises(ConfigError):
        tensor_norm_int(1, 1, 1, 0)


def test_tensor_norm_rejects_a_bound_above_the_cap():
    # the search table has 2*b**3 + 1 entries and takes time about like b**6
    with pytest.raises(ConfigError, match="support_bound"):
        tensor_norm_int(1, 1, 1, MAX_SUPPORT_BOUND + 1)
    with pytest.raises(ConfigError, match="support_bound"):
        tensor_norm_int(1, 1, 1, 1000)


def _dict_min_term_cost(b):
    """The table as rounds over a dict of reached values: the reference."""
    products = sorted({x * y for x in range(-b, b + 1) for y in range(-b, b + 1)} - {0})
    reach = b * b * b
    best = {0: 0}
    for _ in range(b):
        nxt = dict(best)
        for v, cost in best.items():
            for p in products:
                w = v + p
                if abs(w) > reach:
                    continue
                c = cost + abs(p)
                if c < nxt.get(w, c + 1):
                    nxt[w] = c
        if nxt == best:
            break
        best = nxt
    return best


@pytest.mark.parametrize("b", range(1, 9))
def test_min_term_cost_table_matches_dict_reference(b):
    table = _min_term_cost(b)
    assert table == _dict_min_term_cost(b)
    assert all(type(k) is int and type(v) is int for k, v in table.items())


def test_min_term_cost_reaches_the_cube_only_in_its_last_round():
    # +-b**3 takes b terms of +-b*b, so the last of the b rounds still adds
    # values: a round count cut short, or an exit on an unchanged round
    # that fired early, would miss them
    for b in range(1, 13):
        table = _min_term_cost(b)
        assert min(table) == -(b**3) and max(table) == b**3
        assert table[b**3] == table[-(b**3)] == b**3


# ---------------------------------------------------------------------------
# scaled integers and the element wrapper


@given(st.integers(-10**6, 10**6))
def test_scaled_integers_norm_zero_iff_zero(n):
    inst = ScaledIntegers(Fraction(3, 7))
    assert (inst.norm(n) == 0) == (n == 0)
    assert inst.norm(n) == Fraction(3, 7) * abs(n)


def test_integral_scale_norms_are_ints_equal_to_fractions():
    for r in (1, 3, Fraction(6, 2), "2"):
        inst = ScaledIntegers(r)
        scale = Fraction(r)
        assert type(inst.r) is int and inst.r == scale
        for x in (-7, 0, 5):
            assert type(inst.norm(x)) is int and inst.norm(x) == scale * abs(x)
    m = MatrixAlgebra(ScaledIntegers(3), 2)
    x = np.array([[1, -2], [3, 4]], dtype=object)
    assert type(m.norm(x)) is int and m.norm(x) == Fraction(3) * 6
    assert ScaledIntegers(3).describe() == {"kind": "scaled-integers", "r": 3}


def test_fractional_scale_norms_stay_fractions():
    inst = ScaledIntegers("1/2")
    assert inst.norm(3) == Fraction(3, 2) and type(inst.norm(3)) is Fraction
    m = MatrixAlgebra(inst, 2)
    x = np.array([[1, -2], [4, 4]], dtype=object)
    assert type(m.norm(x)) is Fraction and m.norm(x) == 3


def test_int_scale_matches_repeated_addition():
    inst = MatrixAlgebra(ScaledIntegers(1), 2)
    x = np.array([[1, 2], [3, 4]], dtype=object)
    assert inst.int_scale(5, x).tolist() == [[5, 10], [15, 20]]
    assert np.array_equal(inst.int_scale(0, x), inst.zero())
    assert inst.int_scale(-2, x).tolist() == [[-2, -4], [-6, -8]]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    if a.dtype == object:
        return all(type(u) is type(v) and u == v for u, v in zip(a.flat, b.flat))
    return a.tobytes() == b.tobytes()


def _fractions(rng, shape):
    values = [Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 6))) for _ in range(np.prod(shape))]
    return np.array(values, dtype=object).reshape(shape)


@pytest.mark.parametrize(
    "inst",
    [
        COMPLEX,
        MatrixAlgebra(COMPLEX, 5),
        MatrixAlgebra(COMPLEX, 5, "spectral"),
        MatrixAlgebra(ScaledIntegers(Fraction(1, 2)), 3),
        MatrixAlgebra(MatrixAlgebra(COMPLEX, 2), 3),
        SequenceAlgebra("l1", 6, COMPLEX),
        SampledFunctionAlgebra(range(5), COMPLEX),
    ],
    ids=["complex", "col-l1", "spectral", "scaled-fractions", "nested", "l1-sequence", "functions"],
)
def test_sub_equals_add_of_neg_bit_for_bit(inst):
    rng = np.random.default_rng(31)
    for _ in range(20):
        if inst.dtype == object:
            x, y = _fractions(rng, inst.shape), _fractions(rng, inst.shape)
        else:
            x, y = inst.random_element(rng), inst.random_element(rng)
            if inst.shape:
                # signed zeros and equal entries, where a sign slip would show
                x.flat[0], y.flat[0] = complex(-0.0, 0.0), complex(0.0, -0.0)
                x.flat[-1] = y.flat[-1]
        assert _same_bits(inst.sub(x, y), inst.add(x, inst.neg(y)))
