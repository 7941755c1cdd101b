"""Tower transfers, colimit norm bounds and class-key round trips."""

from fractions import Fraction

import numpy as np
import pytest

from idemkit.calculus import certify_idempotent, h_bound, intertwiner, lift_idempotent, neumann_inverse
from idemkit.colimit import (
    LimitElement,
    _random_level_idempotent,
    colim_norm_bound,
    default_eps,
    k0_colimit_compare,
    level_class_key,
    transfer_injective,
    transfer_surjective,
)
from idemkit.errors import TowerTooShallowError
from idemkit.instances import (
    MatrixAlgebra,
    Tower,
    conjugated_projector,
    make_cantor_tower,
    make_uhf_tower,
    random_almost_idempotent,
)

from test_calculus import _CountingMatrices, _products

UHF4 = make_uhf_tower(4)
CANTOR5 = make_cantor_tower(5)


def _cert(inst, e, tol=1e-9):
    return certify_idempotent(inst, e, tol)


# ---------------------------------------------------------------------------
# colimit norm bounds


def _same_transfer(implicit, explicit):
    """Same level, certificate entries and unit, and the same lifted idempotent."""
    assert implicit.level == explicit.level
    assert implicit.cert.entries == explicit.cert.entries
    assert implicit.unit.cert.entries == explicit.unit.cert.entries
    held = [(implicit.unit.u, explicit.unit.u), (implicit.unit.u_inv, explicit.unit.u_inv)]
    if hasattr(implicit, "idempotent"):
        held.append((implicit.idempotent.e, explicit.idempotent.e))
    for got, want in held:
        if isinstance(got, LimitElement):
            assert got.tail_bound == want.tail_bound
            got, want = got.representative, want.representative
        assert np.array_equal(got, want)


def test_default_eps_keeps_conjugation_feasible():
    assert default_eps(1.0) <= 0.01
    assert default_eps(100.0) > 0
    # the transfers take eps from the colimit norm bound, which adds the tail
    x = LimitElement(1, UHF4.levels[1].one(), 0.1)
    assert colim_norm_bound(UHF4, x) == pytest.approx(1.1)
    # omitting eps gives the default passed explicitly, in both transfers;
    # first the README's library example, an exact rank-2 projector at level 6
    tower = make_uhf_tower(6)
    e = conjugated_projector(tower.levels[6], 2, np.random.default_rng(0))
    x = LimitElement(6, e, 0.0)
    result = transfer_surjective(tower, x)
    assert result.level == 6
    assert level_class_key(tower, result.level, result.idempotent.e) == Fraction(1, 32)
    assert result.cert.valid and result.unit.cert.valid
    _same_transfer(result, transfer_surjective(tower, x, eps=default_eps(colim_norm_bound(tower, x))))
    # an almost-idempotent with a tail, whose lift moves the representative
    a, tail = _random_level_idempotent(UHF4, 2, np.random.default_rng(127), almost=True)
    y = LimitElement(2, a, tail)
    result = transfer_surjective(UHF4, y)
    assert tail > 0 and result.idempotent.e is not a and result.cert.valid
    _same_transfer(result, transfer_surjective(UHF4, y, eps=default_eps(colim_norm_bound(UHF4, y))))
    # injective: default_eps(norm(e)), or twice the unit's tail where that is larger
    inst = UHF4.levels[2]
    e = np.diag([1, 0, 0, 0]).astype(complex)
    f = np.diag([0, 1, 0, 0]).astype(complex)
    swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
    b_e = float(inst.norm(e))
    for target, u, eps in [
        (f, LimitElement(2, swap, 0.0), default_eps(b_e)),
        (e, LimitElement(2, inst.one(), 0.008), 0.016),
    ]:
        assert eps == max(default_eps(b_e), 2 * u.tail_bound)
        args = (UHF4, 2, _cert(inst, e), _cert(inst, target), u)
        result = transfer_injective(*args)
        assert result.level == 2 and result.cert.valid
        _same_transfer(result, transfer_injective(*args, eps=eps))


# ---------------------------------------------------------------------------
# surjective transfer


def test_exact_idempotent_at_level_zero_round_trips():
    e = UHF4.levels[0].one()
    result = transfer_surjective(UHF4, LimitElement(0, e, 0.0), eps=0.01)
    assert result.level == 0
    assert np.array_equal(result.idempotent.e, e)
    assert np.array_equal(result.unit.u.representative, UHF4.levels[0].one())
    assert result.cert.valid and result.unit.cert.valid


def test_cantor_cylinder_recovered_exactly():
    lvl3 = CANTOR5.levels[3]
    ind = np.isin(lvl3.grid, ["010"]).astype(complex)
    result = transfer_surjective(CANTOR5, LimitElement(3, ind, 0.0), eps=0.01)
    assert result.level == 3
    assert np.array_equal(result.idempotent.e, ind)
    assert np.allclose(result.unit.u.representative, CANTOR5.levels[3].one())


def test_uhf_rank_two_projector_keeps_normalized_trace():
    tower = make_uhf_tower(6)
    inst = tower.levels[6]
    e = conjugated_projector(inst, 2, np.random.default_rng(0), spread=0.4)
    result = transfer_surjective(tower, LimitElement(6, e, 0.0), eps=0.01)
    assert level_class_key(tower, result.level, result.idempotent.e) == Fraction(2, 64)
    assert result.cert.entry("surjective-transfer").lhs < h_bound(0.01) + 0.01


def test_surjective_transfer_certificate_on_almost_idempotent():
    inst = UHF4.levels[3]
    a = random_almost_idempotent(inst, 1e-4, seed=4)
    t = float(inst.distance(inst.mul(a, a), a))
    two_a = float(inst.norm(inst.sub(inst.int_scale(2, a), inst.one())))
    tail = two_a * ((1 - 4 * t) ** -0.5 - 1) / 2 + 1e-9
    result = transfer_surjective(UHF4, LimitElement(3, a, tail), eps=0.01)
    assert result.cert.valid and result.unit.cert.valid


def test_tower_too_shallow_when_defect_exceeds_eps():
    inst = UHF4.levels[2]
    a = random_almost_idempotent(inst, 0.2, seed=8)
    with pytest.raises(TowerTooShallowError):
        transfer_surjective(UHF4, LimitElement(2, a, 0.0), eps=0.01)


# ---------------------------------------------------------------------------
# injective transfer


def test_injective_trivial_pair():
    inst = UHF4.levels[1]
    e = np.diag([1.0 + 0j, 0j])
    res = transfer_injective(
        UHF4, 1, _cert(inst, e), _cert(inst, e), LimitElement(1, inst.one(), 0.0), eps=0.01
    )
    assert res.level == 1
    assert np.allclose(res.unit.u, np.eye(2))
    assert res.cert.valid


def test_injective_uhf_swap_example():
    inst = UHF4.levels[2]
    e = np.diag([1, 0, 0, 0]).astype(complex)
    f = np.diag([0, 1, 0, 0]).astype(complex)
    swap = np.eye(4, dtype=complex)[[1, 0, 2, 3]]
    res = transfer_injective(
        UHF4, 2, _cert(inst, e), _cert(inst, f), LimitElement(2, swap, 0.0), eps=0.01
    )
    assert res.level == 2
    assert res.cert.valid
    assert res.cert.entry("injective-bound").holds
    j = res.level
    e_j = UHF4.push(e, 2, j)
    f_j = UHF4.push(f, 2, j)
    inst_j = UHF4.levels[j]
    assert inst_j.distance(inst_j.mul(e_j, res.unit.u), inst_j.mul(res.unit.u, f_j)) <= 1e-9
    # the closing conjugation's two idempotents keep their defect entries
    assert [e.name for e in res.cert.entries[-2:]] == ["closing:d:defect", "closing:f:defect"]
    entry, oracle = res.cert.entry("closing:f:defect"), _cert(inst_j, f_j).cert.entry("defect")
    assert (entry.lhs, entry.rhs, entry.holds) == (oracle.lhs, oracle.rhs, True)


def test_injective_distinct_cylinders_never_conjugate():
    lvl = CANTOR5.levels[2]
    e = np.isin(lvl.grid, ["00"]).astype(complex)
    f = np.isin(lvl.grid, ["11"]).astype(complex)
    with pytest.raises(TowerTooShallowError):
        transfer_injective(
            CANTOR5, 2, _cert(lvl, e), _cert(lvl, f), LimitElement(2, lvl.one(), 0.0), eps=0.01
        )


# ---------------------------------------------------------------------------
# class keys and round trips


def test_cantor_key_reduces_pushed_vectors():
    ind = np.isin(CANTOR5.levels[2].grid, ["01"]).astype(complex)
    pushed = CANTOR5.push(ind, 2, 5)
    assert level_class_key(CANTOR5, 5, pushed) == level_class_key(CANTOR5, 2, ind)


def test_cantor_key_matches_the_scalar_loop():
    rng = np.random.default_rng(31)
    for _ in range(30):
        level = int(rng.integers(0, 6))
        base = rng.integers(0, 2, 2 ** int(rng.integers(0, level + 1)))
        e = np.repeat(base, 2**level // base.size).astype(complex)
        bits = tuple(int(round(v.real)) for v in e)
        while len(bits) > 1 and bits[::2] == bits[1::2]:
            bits = bits[::2]
        key = level_class_key(CANTOR5, level, e)
        assert key == bits and all(type(b) is int for b in key)


def test_uhf_key_stable_under_pushing():
    inst = UHF4.levels[2]
    e = conjugated_projector(inst, 3, np.random.default_rng(2), spread=0.4)
    assert level_class_key(UHF4, 2, e) == Fraction(3, 4)
    assert level_class_key(UHF4, 4, UHF4.push(e, 2, 4)) == Fraction(3, 4)


def test_compare_on_single_level_tower_is_trivial():
    tower = make_cantor_tower(0)
    report = k0_colimit_compare(tower, 10, seed=1)
    assert report.mismatches == 0
    assert report.all_certificates_valid


def test_compare_uhf_and_cantor_small():
    assert k0_colimit_compare(make_uhf_tower(4), 25, seed=2).mismatches == 0
    assert k0_colimit_compare(make_cantor_tower(6), 25, seed=2).mismatches == 0


def test_compare_report_round_trips_to_json():
    report = k0_colimit_compare(make_uhf_tower(2), 5, seed=3)
    blob = report.to_json()
    assert blob["trials"] == 5
    assert len(blob["records"]) == 5
    assert all("key_in" in rec for rec in blob["records"])


def test_compare_report_certificates_are_the_transfers_then_round_trip():
    report = k0_colimit_compare(make_uhf_tower(2), 4, seed=3)
    names = [name for name, _ in report.certificates]
    pairs = [f"{kind}[{i}]" for i in range(4) for kind in ("transfer", "unit")]
    assert names == [*pairs, "round-trip"]
    round_trip = report.certificates[-1][1]
    assert [e.name for e in round_trip.entries] == ["mismatches"]
    assert round_trip.valid


# ---------------------------------------------------------------------------
# entries read from products already formed


def _counting_uhf_tower(depth):
    return Tower("uhf", [_CountingMatrices(2**i) for i in range(depth + 1)], make_uhf_tower(depth)._connect)


def _tower_products(tower, run):
    for inst in tower.levels:
        inst.products = 0
    out = run()
    return sum(inst.products for inst in tower.levels), out


def _explicit(inst, a, result):
    """Every product-derived value of a surjective transfer from ``a``, with
    each product formed explicitly: the lift's defect and commute entries,
    the unit ``1 - e - a + 2*e*a`` and its two inversion residuals."""
    e = result.idempotent.e
    u, u_inv = result.unit.u.representative, result.unit.u_inv.representative
    one = inst.one()
    entries = {
        "lift:defect": inst.distance(inst.mul(e, e), e),
        "lift:commute": inst.distance(inst.mul(e, a), inst.mul(a, e)),
        "residual-left": inst.distance(inst.mul(u, u_inv), one),
        "residual-right": inst.distance(inst.mul(u_inv, u), one),
    }
    return entries, intertwiner(inst, e, a)


@pytest.mark.parametrize("seed", [7, 11, 12])
@pytest.mark.parametrize("tower", [make_uhf_tower(4), make_cantor_tower(6)], ids=["uhf4", "cantor6"])
def test_surjective_transfer_entries_equal_the_explicit_products(tower, seed):
    for idx in range(16):
        rng = np.random.default_rng([seed, idx])
        level = int(rng.integers(0, tower.depth + 1))
        almost = isinstance(tower.levels[level], MatrixAlgebra) and idx % 4 == 3
        e, tail = _random_level_idempotent(tower, level, rng, almost)
        result = transfer_surjective(tower, LimitElement(level, e, tail), eps=0.01)
        inst = tower.levels[result.level]
        entries, unit = _explicit(inst, tower.push(e, level, result.level), result)
        assert np.array_equal(result.unit.u.representative, unit)
        for name, value in entries.items():
            cert = result.cert if name.startswith("lift:") else result.unit.cert
            assert cert.entry(name).lhs == value, (idx, name)
        # the colimit distance is the lift's measured distance plus the tail
        lift_distance = result.cert.entry("lift:distance-derived").lhs
        assert result.cert.entry("surjective-transfer").lhs == lift_distance + tail, idx


def test_surjective_transfer_of_an_exact_projector_forms_one_product():
    tower = _counting_uhf_tower(4)
    rng = np.random.default_rng(107)
    for level, inst in enumerate(tower.levels):
        for rank in sorted({0, 1, inst.n // 2, inst.n}):
            p = conjugated_projector(inst, rank, rng, spread=0.4)
            products, result = _tower_products(
                tower, lambda: transfer_surjective(tower, LimitElement(level, p, 0.0), eps=0.01)
            )
            assert products == 1  # the scan's p*p
            assert result.level == level and result.cert.valid and result.unit.cert.valid


def test_surjective_transfer_forms_only_its_lift_and_its_inversion():
    # the unit's e*a is the product the lift's commute entry was measured
    # on: forming it again would be one product more
    tower = _counting_uhf_tower(3)
    rng = np.random.default_rng(109)
    for idx in range(8):
        level = 1 + idx % tower.depth
        inst = tower.levels[level]
        a, tail = _random_level_idempotent(tower, level, rng, almost=True)
        products, result = _tower_products(
            tower, lambda: transfer_surjective(tower, LimitElement(level, a, tail), eps=0.01)
        )
        assert result.level == level
        lift = _products(inst, lambda: lift_idempotent(inst, a, "corrected", 1e-12))
        unit = intertwiner(inst, result.idempotent.e, a)
        inversion = _products(inst, lambda: neumann_inverse(inst, unit, 1e-12))
        assert lift >= 5  # a*a, at least one Newton step, both commute products
        assert products == lift + inversion


def _tower_norm_calls(tower, run):
    for inst in tower.levels:
        inst.norm_calls = 0
    run()
    return sum(inst.norm_calls for inst in tower.levels)


def test_transfers_measure_each_norm_they_hold_once(monkeypatch):
    tower = _counting_uhf_tower(3)
    inst = tower.levels[2]
    p = conjugated_projector(inst, 2, np.random.default_rng(113), spread=0.4)
    # the scan's defect, norm(2a - 1), norm(e) and the inversion's one: the
    # lift reads the scan's defect, its commute and distance entries are
    # exact zeros, the input's colimit norm is norm(e) plus the tail, and
    # norm(1 - e) and norm(u_inv) are multiplied only by the zero tail
    e = LimitElement(2, p, 0.0)
    assert _tower_norm_calls(tower, lambda: transfer_surjective(tower, e, eps=0.01)) == 4
    # with a tail, each of those norms is measured, and once
    a, tail = _random_level_idempotent(tower, 2, np.random.default_rng(127), almost=True)
    seen = []
    monkeypatch.setattr(inst, "norm", lambda x: seen.append(x) or type(inst).norm(inst, x))
    result = transfer_surjective(tower, LimitElement(2, a, tail), eps=0.01)
    e_j, u_inv = result.idempotent.e, result.unit.u_inv.representative
    assert tail > 0 and result.level == 2 and e_j is not a
    for held in (a, inst.sub(inst.one(), e_j), u_inv):
        assert sum(x.shape == held.shape and np.array_equal(x, held) for x in seen) == 1
    monkeypatch.undo()
    # norm(u_inv) is measured once, for both the bound and the inverse tail;
    # the closing conjugation reads the scan's norm(d) and gap and one
    # norm(f_j), and at the start level the unit's bound reads norm(e)
    c = _cert(inst, p)
    u = LimitElement(2, inst.one(), 0.0)
    assert _tower_norm_calls(tower, lambda: transfer_injective(tower, 2, c, c, u, eps=0.01)) == 14
