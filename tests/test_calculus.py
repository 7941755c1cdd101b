"""Certified inversion, proximity conjugation and idempotent polishing."""

import math
from fractions import Fraction

import numpy as np
import pytest

from idemkit.calculus import (
    catalan,
    certify_idempotent,
    certify_unit,
    conjugating_unit,
    conjugation_bound,
    corrected_coefficient,
    h_bound,
    intertwiner,
    invertibility_radius,
    lift_idempotent,
    neumann_inverse,
    printed_coefficient,
    quasi_inverse_mod_ideal,
    scalar_lift_rational,
)
from idemkit.errors import PreconditionError, SeriesTruncationError
from idemkit.instances import (
    COMPLEX,
    MatrixAlgebra,
    SequenceAlgebra,
    random_almost_idempotent,
)

M2 = MatrixAlgebra(COMPLEX, 2)


def _rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


# ---------------------------------------------------------------------------
# geometric-series inversion


def test_neumann_on_identity():
    unit = neumann_inverse(COMPLEX, 1 + 0j, 1e-12)
    assert unit.u_inv == 1
    assert unit.cert.entry("tail-bound").lhs == 0
    assert unit.cert.valid


def test_neumann_scalar_half():
    unit = neumann_inverse(COMPLEX, 0.5 + 0j, 1e-10)
    assert abs(unit.u_inv - 2.0) < 1e-9
    assert unit.cert.valid


def test_neumann_nilpotent_is_exact_after_one_term():
    n = np.array([[0, 0.5], [0, 0]], dtype=complex)
    u = np.eye(2, dtype=complex) - n
    unit = neumann_inverse(M2, u, 1e-9)
    assert np.array_equal(unit.u_inv, np.eye(2) + n)
    assert unit.cert.valid


def test_neumann_precondition_failure():
    with pytest.raises(PreconditionError):
        neumann_inverse(COMPLEX, -1 + 0j, 1e-9)  # norm(1 - u) = 2


def test_neumann_residuals_within_tail_on_random_contractions():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.choice([2, 4, 8]))
        inst = MatrixAlgebra(COMPLEX, n)
        m = inst.random_element(rng)
        m *= rng.uniform(0, 0.9) / inst.norm(m)
        unit = neumann_inverse(inst, np.eye(n, dtype=complex) - m, 1e-9)
        assert unit.cert.valid


# ---------------------------------------------------------------------------
# invertibility radius


def test_radius_examples():
    assert invertibility_radius(COMPLEX, neumann_inverse(COMPLEX, 1 + 0j, 1e-12)) == pytest.approx(
        1.0, abs=1e-9
    )
    # u = 2 is outside the series hypothesis; certify its inverse directly
    from idemkit.calculus import CertifiedUnit
    from idemkit.core import Certificate

    cert = Certificate()
    cert.add("residual-left", 0.0, 1e-12)
    cert.add("residual-right", 0.0, 1e-12)
    unit = CertifiedUnit(complex(2), complex(0.5), cert)
    assert invertibility_radius(COMPLEX, unit) == pytest.approx(2.0)


def test_radius_diag_matrix():
    u = np.diag([1.0 + 0j, 0.5 + 0j])
    unit = neumann_inverse(M2, u, 1e-12)
    assert invertibility_radius(M2, unit) == pytest.approx(0.5, abs=1e-6)


def test_radius_contract_on_nearby_elements():
    u = np.diag([1.0 + 0j, 0.5 + 0j])
    unit = neumann_inverse(M2, u, 1e-12)
    eps = invertibility_radius(M2, unit)
    rng = np.random.default_rng(31)
    for _ in range(20):
        p = M2.random_element(rng)
        v = u + 0.99 * eps * p / M2.norm(p)
        w = M2.mul(unit.u_inv, v)
        assert M2.norm(M2.sub(M2.one(), w)) < 1  # invertible by the series


# ---------------------------------------------------------------------------
# proximity conjugation


def test_equal_idempotents_give_unit_one():
    e = np.diag([1.0 + 0j, 0j])
    cu = conjugating_unit(M2, certify_idempotent(M2, e, 0), certify_idempotent(M2, e, 0), 1e-9)
    assert np.array_equal(cu.u, np.eye(2))


def test_zero_idempotents_give_unit_one():
    z = M2.zero()
    cu = conjugating_unit(M2, certify_idempotent(M2, z, 0), certify_idempotent(M2, z, 0), 1e-9)
    assert np.array_equal(cu.u, np.eye(2))


def test_rotated_projector_conjugation():
    e = np.diag([1.0 + 0j, 0j])
    r = _rotation(0.1)
    f = r @ e @ r.T
    cu = conjugating_unit(M2, certify_idempotent(M2, e, 1e-9), certify_idempotent(M2, f, 1e-9), 1e-9)
    assert M2.distance(M2.mul(e, cu.u), M2.mul(cu.u, f)) <= 1e-12
    assert cu.cert.valid


def test_conjugation_precondition_failure():
    e = np.diag([1.0 + 0j, 0j])
    f = np.eye(2, dtype=complex)  # distance 1, bound = 2*1*1 + 1 = 3
    with pytest.raises(PreconditionError):
        conjugating_unit(M2, certify_idempotent(M2, e, 0), certify_idempotent(M2, f, 0), 1e-9)


def test_intertwine_identity_independent_of_distance():
    # e*u = e*f = u*f is algebra, not proximity: check it for far-apart
    # exactly representable idempotents
    rng = np.random.default_rng(37)
    for _ in range(50):
        n = int(rng.choice([2, 4, 8]))
        inst = MatrixAlgebra(COMPLEX, n)
        k = int(rng.integers(0, n + 1))
        x = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) * 2.0
        y = (rng.standard_normal((k, n - k)) + 1j * rng.standard_normal((k, n - k))) * 2.0
        e = np.zeros((n, n), dtype=complex)
        e[:k, :k] = np.eye(k)
        f = e.copy()
        e[:k, k:] = x
        f[:k, k:] = y
        assert inst.distance(e @ e, e) == 0.0
        u = intertwiner(inst, e, f)
        lhs = inst.distance(inst.mul(e, u), inst.mul(u, f))
        scale = max(1.0, inst.norm(e) * inst.norm(u), inst.norm(u) * inst.norm(f))
        assert lhs <= 8 * np.spacing(scale)


# ---------------------------------------------------------------------------
# the distance bound h


def test_h_bound_values():
    assert h_bound(0) == 0
    assert h_bound(Fraction(3, 16)) == pytest.approx(0.25)
    assert h_bound(0.09) == pytest.approx(0.1)


def test_h_bound_monotone_and_dominates_t():
    ts = np.linspace(0, 0.24, 50)
    hs = [h_bound(t) for t in ts]
    assert all(a <= b for a, b in zip(hs, hs[1:]))
    assert all(h >= t for h, t in zip(hs, ts))


def test_h_bound_domain():
    with pytest.raises(PreconditionError):
        h_bound(0.25)
    with pytest.raises(PreconditionError):
        h_bound(-0.01)


def test_h_bound_matches_catalan_partial_sums():
    for t in (0.01, 0.1, 0.2):
        n_terms = 40
        partial = sum(catalan(n - 1) * t**n for n in range(1, n_terms + 1))
        tail = catalan(n_terms) * t ** (n_terms + 1) / (1 - 4 * t)
        assert abs(h_bound(t) - partial) <= tail + 1e-15


# ---------------------------------------------------------------------------
# series coefficients


def test_first_six_printed_coefficients():
    assert [printed_coefficient(n) for n in range(1, 7)] == [1, -1, 2, -5, 14, -42]


def test_printed_coefficients_are_signed_catalans():
    for n in range(1, 65):
        assert printed_coefficient(n) == (-1) ** (n - 1) * catalan(n - 1)


def test_printed_coefficients_match_rational_binomial_oracle():
    # independent recomputation of 2**(2n-1) * binom(1/2, n)
    for n in range(1, 65):
        binom = Fraction(1)
        for k in range(n):
            binom *= (Fraction(1, 2) - k) / (k + 1)
        value = Fraction(2) ** (2 * n - 1) * binom
        assert value.denominator == 1
        assert printed_coefficient(n) == value.numerator


def test_corrected_coefficients_are_integers_and_halved_central_binomials():
    for n in range(1, 65):
        assert corrected_coefficient(n) == (-1) ** n * math.comb(2 * n, n) // 2


# ---------------------------------------------------------------------------
# idempotent polishing


def test_lift_of_exact_idempotent_is_identity():
    e = np.diag([1.0 + 0j, 0j])
    for variant in ("printed", "corrected"):
        lifted = lift_idempotent(M2, e, variant, 1e-12)
        assert np.array_equal(lifted.e, e)


def test_lift_scalar_corrected_recovers_zero():
    lifted = lift_idempotent(COMPLEX, 0.1 + 0j, "corrected", 1e-13)
    assert abs(lifted.e) <= 1e-12
    assert abs(abs(lifted.e - 0.1) - h_bound(0.09)) <= 1e-12
    assert lifted.cert.valid


def test_lift_scalar_printed_fails_idempotency():
    lifted = lift_idempotent(COMPLEX, 0.1 + 0j, "printed", 1e-13)
    assert abs(lifted.e - 0.2) <= 1e-10
    assert lifted.cert.entry("defect").lhs == pytest.approx(0.16, abs=1e-10)
    assert not lifted.cert.valid
    # the printed distance still satisfies the classical bound
    assert lifted.cert.entry("distance-h").holds


def test_lift_rational_oracle_pins_both_variants():
    a = Fraction(1, 10)
    printed = scalar_lift_rational(a, "printed", 30)
    corrected = scalar_lift_rational(a, "corrected", 30)
    assert abs(float(printed) - 0.2) < 1e-12
    assert abs(float(abs(printed**2 - printed)) - 0.16) < 1e-12
    assert abs(float(corrected)) < 1e-12


def test_lift_scalar_oracle_nearest_of_zero_one():
    for i in range(100):
        rng = np.random.default_rng([71, i])
        a = complex(rng.uniform(-0.3, 1.3), rng.uniform(-0.5, 0.5))
        if abs(a * a - a) >= 0.2:
            continue
        lifted = lift_idempotent(COMPLEX, a, "corrected", 1e-12)
        expected = 1.0 if (2 * a - 1).real > 0 else 0.0
        assert abs(lifted.e - expected) <= 1e-9


def test_lift_matrix_corrected_contract():
    rng = np.random.default_rng(73)
    for trial in range(50):
        n = int(rng.integers(2, 9))
        inst = MatrixAlgebra(COMPLEX, n)
        t = float(rng.uniform(0.02, 0.2))
        a = random_almost_idempotent(inst, t, seed=1000 + trial)
        lifted = lift_idempotent(inst, a, "corrected", 1e-10)
        assert lifted.cert.entry("defect").lhs <= 1e-9
        assert lifted.cert.entry("commute").lhs <= 1e-9
        assert lifted.cert.entry("distance-derived").holds


def test_lift_commutes_means_products_commute():
    inst = MatrixAlgebra(COMPLEX, 4)
    a = random_almost_idempotent(inst, 0.15, seed=7)
    lifted = lift_idempotent(inst, a, "corrected", 1e-11)
    assert inst.distance(inst.mul(lifted.e, a), inst.mul(a, lifted.e)) <= 1e-9


def test_lift_precondition_failure():
    with pytest.raises(PreconditionError):
        lift_idempotent(COMPLEX, 0.5 + 0.6j, "corrected", 1e-9)
    with pytest.raises(PreconditionError):
        lift_idempotent(COMPLEX, 0.1 + 0j, "mystery", 1e-9)


# ---------------------------------------------------------------------------
# quasi-inverses modulo an ideal


def test_quasi_inverse_trivial():
    unit = quasi_inverse_mod_ideal(COMPLEX, 0j, 0j, 1e-12)
    assert unit.u_inv == 1
    assert unit.cert.valid


def test_quasi_inverse_on_truncated_sequence_with_small_tail():
    inst = SequenceAlgebra("l1", 8, COMPLEX)
    head = np.array([0.2, 0.1, 0.05, 0.05, 0, 0, 0, 0], dtype=complex)
    tail_part = np.array([0, 0, 0, 0, 0.1, 0.1, 0.05, 0.05], dtype=complex)
    a = head + tail_part
    assert inst.distance(a, head) == pytest.approx(0.3)
    unit = quasi_inverse_mod_ideal(inst, a, head, 1e-10)
    assert unit.cert.valid
    assert unit.cert.entry("witness-distance").lhs == pytest.approx(0.3)


def test_quasi_inverse_witness_too_far():
    with pytest.raises(PreconditionError):
        quasi_inverse_mod_ideal(COMPLEX, 1.2 + 0j, 0j, 1e-9)


# ---------------------------------------------------------------------------
# misc


def test_conjugation_bound_formula():
    assert conjugation_bound(1.0, 0.1) == pytest.approx(0.21)


def test_series_coefficient_overflow_is_a_truncation_error():
    # the corrected series needs a coefficient past float range before the
    # tail bound can reach 1e-300
    a = complex(h_bound(0.09))
    with pytest.raises(SeriesTruncationError):
        lift_idempotent(COMPLEX, a, "corrected", 1e-300)


def test_certify_unit_records_intertwine_then_residuals():
    u = _rotation(0.3)
    e = np.diag([1, 0]).astype(complex)
    f = u.conj().T @ e @ u
    cert = M2.certificate()
    certify_unit(M2, cert, e, f, u, u.conj().T, 1e-9)
    assert cert.names() == ["intertwine", "residual-left", "residual-right"]
    assert cert.entry("intertwine").rhs == 1e-9 * (1 + M2.norm(e) + M2.norm(f)) + M2.slack
    assert cert.valid
    only = M2.certificate()
    certify_unit(M2, only, e, f, u, None, 1e-9, intertwine_rhs=0.5)
    assert only.names() == ["intertwine"]
    assert only.entry("intertwine").rhs == 0.5 + M2.slack
