"""Certified inversion, proximity conjugation and idempotent polishing."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from idemkit import calculus
from idemkit.calculus import (
    catalan,
    certify_idempotent,
    certify_unit,
    conjugating_unit,
    conjugation_bound,
    corrected_coefficient,
    h_bound,
    intertwiner,
    lift_idempotent,
    neumann_inverse,
    printed_coefficient,
    scalar_lift_rational,
)
from idemkit.core import ScaledIntegers
from idemkit.errors import PreconditionError, SeriesTruncationError
from idemkit.instances import (
    COMPLEX,
    MatrixAlgebra,
    SequenceAlgebra,
    conjugated_projector,
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


def test_neumann_precondition_reads_the_norm_not_the_spectrum():
    # in a truncated sequence algebra the shift x is nilpotent, so 1 - x is
    # invertible, but norm(x) = 1 leaves the series without a certificate
    inst = SequenceAlgebra("l1", 4, COMPLEX)
    x = np.array([0, 1, 0, 0], dtype=complex)
    with pytest.raises(PreconditionError, match="not below 1"):
        neumann_inverse(inst, inst.sub(inst.one(), x), 1e-9)
    unit = neumann_inverse(inst, inst.sub(inst.one(), 0.5 * x), 1e-9)
    assert unit.cert.valid
    assert np.allclose(unit.u_inv, [1, 0.5, 0.25, 0.125])


def test_neumann_residuals_within_tail_on_random_contractions():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.choice([2, 4, 8]))
        inst = MatrixAlgebra(COMPLEX, n)
        m = inst.random_element(rng)
        m *= rng.uniform(0, 0.9) / inst.norm(m)
        unit = neumann_inverse(inst, np.eye(n, dtype=complex) - m, 1e-9)
        assert unit.cert.valid
    # and over a convolution algebra: u = 1 + (a - head) with an l1 tail of
    # 0.3 in degrees 4 to 7, whose square truncates to 0, so 1 - (a - head)
    # is the exact inverse
    inst = SequenceAlgebra("l1", 8, COMPLEX)
    head = np.array([0.2, 0.1, 0.05, 0.05, 0, 0, 0, 0], dtype=complex)
    a = head + np.array([0, 0, 0, 0, 0.1, 0.1, 0.05, 0.05], dtype=complex)
    unit = neumann_inverse(inst, inst.add(inst.one(), inst.sub(a, head)), 1e-10)
    tail = unit.cert.entry("tail-bound").lhs
    assert unit.cert.valid
    assert np.array_equal(unit.u_inv, inst.sub(inst.one(), inst.sub(a, head)))
    assert unit.cert.entry("residual-left").lhs <= tail
    assert unit.cert.entry("residual-right").lhs <= tail


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


def test_h_bound_keeps_precision_for_tiny_defects():
    assert h_bound(1e-20) == pytest.approx(1e-20, rel=1e-12)


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


def test_corrected_coefficients_match_rational_binomial_oracle():
    # independent recomputation of 2**(2n-1) * binom(-1/2, n)
    for n in range(1, 65):
        binom = Fraction(1)
        for k in range(n):
            binom *= (Fraction(-1, 2) - k) / (k + 1)
        value = Fraction(2) ** (2 * n - 1) * binom
        assert value.denominator == 1
        assert corrected_coefficient(n) == value.numerator


def test_corrected_coefficients_are_integers_and_halved_central_binomials():
    for n in range(1, 65):
        assert corrected_coefficient(n) == (-1) ** n * math.comb(2 * n, n) // 2


def _clear_coefficient_caches():
    for fn in vars(calculus).values():
        if callable(getattr(fn, "cache_clear", None)):
            fn.cache_clear()


def test_coefficients_from_cleared_caches_match_closed_forms():
    try:
        _clear_coefficient_caches()
        for n in range(1, 601):
            assert printed_coefficient(n) == (-1) ** (n - 1) * catalan(n - 1)
            assert corrected_coefficient(n) == (-1) ** n * math.comb(2 * n, n) // 2
        # a cold call far past the cache is a loop, not a deep recursion
        _clear_coefficient_caches()
        assert printed_coefficient(3000) == -catalan(2999)
        assert corrected_coefficient(3000) == math.comb(6000, 3000) // 2
    finally:
        _clear_coefficient_caches()


def test_coefficient_memo_under_concurrent_callers():
    orders = [np.random.default_rng(seed).permutation(np.arange(1, 301)).tolist() for seed in range(8)]
    results = [None] * len(orders)

    def work(i):
        results[i] = {n: printed_coefficient(n) for n in orders[i]}

    interval = sys.getswitchinterval()
    try:
        _clear_coefficient_caches()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(orders))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        _clear_coefficient_caches()
    for got in results:
        assert got == {n: (-1) ** (n - 1) * catalan(n - 1) for n in range(1, 301)}


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
# misc


def test_conjugation_bound_formula():
    assert conjugation_bound(1.0, 0.1) == pytest.approx(0.21)


def test_series_coefficient_overflow_is_a_truncation_error():
    # the printed series needs a coefficient past float range before the
    # tail bound can reach 1e-300
    a = complex(h_bound(0.09))
    with pytest.raises(SeriesTruncationError, match="coefficient 521 overflows"):
        lift_idempotent(COMPLEX, a, "printed", 1e-300)


def test_certify_unit_records_intertwine_then_residuals():
    u = _rotation(0.3)
    e = np.diag([1, 0]).astype(complex)
    f = u.conj().T @ e @ u
    cert = M2.certificate()
    certify_unit(M2, cert, e, f, u, u.conj().T, 1e-9)
    assert [x.name for x in cert.entries] == ["intertwine", "residual-left", "residual-right"]
    assert cert.entry("intertwine").rhs == 1e-9 * (1 + M2.norm(e) + M2.norm(f)) + M2.slack
    assert cert.valid
    only = M2.certificate()
    certify_unit(M2, only, e, f, u, None, 1e-9, intertwine_rhs=0.5)
    assert [x.name for x in only.entries] == ["intertwine"]
    assert only.entry("intertwine").rhs == 0.5 + M2.slack


# ---------------------------------------------------------------------------
# fast paths against the term-by-term series


def _pinned_almost_idempotent(inst, t, seed):
    """``p + h*x`` with ``h`` bisected until the defect is within 1e-9 of ``t``."""
    rng = np.random.default_rng(seed)
    base = conjugated_projector(inst, int(rng.integers(1, inst.n)), rng, spread=0.5)
    x = inst.random_element(rng)
    x /= inst.norm(x)
    defect = lambda h: inst.norm(inst.sub(inst.mul(base + h * x, base + h * x), base + h * x))
    lo, hi = 0.0, t
    while defect(hi) < t:
        hi *= 2
    for _ in range(200):
        mid = (lo + hi) / 2
        if t * (1 - 1e-9) <= defect(mid) <= t:
            return base + mid * x
        lo, hi = (mid, hi) if defect(mid) < t else (lo, mid)
    raise AssertionError(f"could not pin the defect at {t}")


def _series_lift(inst, a, variant, tol):
    """The lift summed term by term, with the certificate entries of
    :func:`lift_idempotent`: the reference for both fast paths."""
    s = inst.sub(inst.mul(a, a), a)
    t = float(inst.norm(s))
    coefficient = corrected_coefficient if variant == "corrected" else printed_coefficient
    acc, s_pow, term_bound, n = inst.zero(), None, abs(coefficient(1)) * t, 0
    while True:
        n += 1
        s_pow = s if s_pow is None else inst.mul(s_pow, s)
        acc = inst.add(acc, inst.int_scale(coefficient(n), s_pow))
        next_bound = term_bound * abs(coefficient(n + 1)) / abs(coefficient(n)) * t
        if next_bound / (1 - 4 * t) <= tol:
            break
        term_bound = next_bound
    two_a_minus_1 = inst.sub(inst.int_scale(2, a), inst.one())
    if variant == "corrected":
        e = inst.add(a, inst.mul(two_a_minus_1, acc))
    else:
        e = inst.sub(a, acc)
    dist = inst.distance(e, a)
    cert = inst.certificate()
    cert.add("tail-bound", next_bound / (1 - 4 * t), tol)
    cert.add("defect", inst.distance(inst.mul(e, e), e), tol)
    cert.add("commute", inst.distance(inst.mul(e, a), inst.mul(a, e)), tol)
    cert.add("distance-h", dist, (1 - math.sqrt(1 - 4 * t)) / 2, advisory=variant == "corrected")
    derived = float(inst.norm(two_a_minus_1)) * ((1 - 4 * t) ** -0.5 - 1) / 2
    cert.add("distance-derived", dist, derived, advisory=variant == "printed")
    return e, cert


@pytest.mark.parametrize("variant", ["corrected", "printed"])
def test_lift_fast_paths_match_the_term_by_term_series(variant):
    # the series' float coefficients overflow before its tail reaches
    # 1e-12 at defects above about 0.235
    for i, t in enumerate(np.linspace(0.02, 0.235, 12)):
        n = 2 + i % 7
        inst = MatrixAlgebra(COMPLEX, n)
        a = _pinned_almost_idempotent(inst, float(t), seed=200 + i)
        fast = lift_idempotent(inst, a, variant, 1e-12)
        e, reference = _series_lift(inst, a, variant, 1e-12)
        assert inst.distance(fast.e, e) <= 1e-12
        assert [x.name for x in fast.cert.entries] == [x.name for x in reference.entries]
        assert [x.holds for x in fast.cert.entries] == [x.holds for x in reference.entries]


@pytest.mark.parametrize("variant", ["corrected", "printed"])
def test_scalar_lift_matches_the_rational_oracle(variant):
    for t in (0.02, 0.1, 0.2, 0.235):
        a = Fraction(h_bound(t)).limit_denominator(10**6)
        s = abs(float(a * a - a))
        terms = math.ceil(math.log(1e-15 * (1 - 4 * s)) / math.log(4 * s))
        exact = float(scalar_lift_rational(a, variant, terms))
        lifted = lift_idempotent(COMPLEX, complex(a), variant, 1e-12)
        assert abs(lifted.e - exact) <= 1e-12


def test_neumann_product_form_matches_the_geometric_series():
    rng = np.random.default_rng(41)
    tol = 1e-9
    for i, q in enumerate(np.linspace(0.05, 0.95, 14)):
        n = 2 + i % 7
        inst = MatrixAlgebra(COMPLEX, n)
        d = inst.random_element(rng)
        d *= q / inst.norm(d)
        u = inst.sub(inst.one(), d)
        unit = neumann_inverse(inst, u, tol)
        # the series summed term by term, d**k for k < 2**f, where f is the
        # first factor count whose bound on norm(d**(2**f)), over 1 - q, is
        # at most tol: r_0 = q, r_f = min(norm(d**(2**(f-1)))**2, r_(f-1)**2)
        powers = [inst.one(), d]
        factors, r = 0, q
        while r / (1 - q) > tol:
            factors += 1
            while len(powers) < 2**factors:
                powers.append(inst.mul(powers[-1], d))
            r = min(inst.norm(powers[2 ** (factors - 1)]) ** 2, r * r)
        series = sum(powers[: 2**factors])
        assert inst.distance(unit.u_inv, series) <= 1e-12
        tail = r / (1 - q)
        reference = inst.certificate()
        reference.add("tail-bound", tail, tol)
        reference.add("residual-left", inst.distance(inst.mul(u, series), inst.one()), tail)
        reference.add("residual-right", inst.distance(inst.mul(series, u), inst.one()), tail)
        assert unit.cert.entry("tail-bound").lhs == pytest.approx(tail, rel=1e-9)
        assert [x.holds for x in unit.cert.entries] == [x.holds for x in reference.entries]


@pytest.mark.parametrize("tol", [1e-10, 1e-15])
def test_tail_bound_is_positive_for_every_nonzero_defect(tol):
    for t in (1e-12, 1e-9, 1e-6, 0.02, 0.1, 0.2, 0.235):
        a = complex(h_bound(t))
        for variant in ("corrected", "printed"):
            assert lift_idempotent(COMPLEX, a, variant, tol).cert.entry("tail-bound").lhs > 0
        m4 = MatrixAlgebra(COMPLEX, 4)
        b = random_almost_idempotent(m4, t, seed=5)
        assert lift_idempotent(m4, b, "corrected", tol).cert.entry("tail-bound").lhs > 0


def test_newton_lift_near_a_quarter_and_its_step_cap():
    lifted = lift_idempotent(COMPLEX, complex(h_bound(0.25 - 2**-50)), "corrected", 1e-12)
    assert lifted.cert.valid
    with pytest.raises(SeriesTruncationError, match="Newton"):
        lift_idempotent(COMPLEX, 0.1 + 0j, "corrected", -1.0)  # no step count meets it


# ---------------------------------------------------------------------------
# work counts


class _CountingMatrices(MatrixAlgebra):
    """Complex matrices that count their products and their norms."""

    def __init__(self, n):
        super().__init__(COMPLEX, n)
        self.products = 0
        self.norm_calls = 0

    def mul(self, x, y):
        self.products += 1
        return super().mul(x, y)

    def norm(self, x):
        self.norm_calls += 1
        return super().norm(x)


def _products(inst, run):
    inst.products = 0
    run()
    return inst.products


def test_neumann_product_count():
    inst = _CountingMatrices(16)
    d = inst.random_element(np.random.default_rng(43))
    d *= 0.9 / inst.norm(d)
    u = inst.sub(inst.one(), d)
    assert _products(inst, lambda: neumann_inverse(inst, u, 1e-9)) <= 8


def test_neumann_never_uses_more_products_than_the_series():
    inst = _CountingMatrices(4)
    rng = np.random.default_rng(47)
    for q in [0.0, 1e-12, *np.linspace(0.01, 0.99, 60)]:
        d = inst.random_element(rng)
        d *= q / inst.norm(d)
        u = inst.sub(inst.one(), d)
        n_terms = 0
        while q and q ** (n_terms + 1) / (1 - q) > 1e-9:
            n_terms += 1
        assert _products(inst, lambda: neumann_inverse(inst, u, 1e-9)) <= n_terms + 2


@pytest.mark.parametrize("variant, budget", [("corrected", 11), ("printed", 10)])
def test_lift_product_count_at_defect_0_2(variant, budget):
    inst = _CountingMatrices(16)
    a = _pinned_almost_idempotent(inst, 0.2, seed=53)
    assert _products(inst, lambda: lift_idempotent(inst, a, variant, 1e-10)) <= budget


def _measured_printed_length(inst, s, t, tol):
    """The printed series' a-priori length ``n0``, then its length and tail
    bound from the norms of the powers of ``s``, every length below the
    current one tried in turn: the reference for :func:`calculus._series_sum`."""
    n0 = next(
        m for m in itertools.count(1) if abs(printed_coefficient(m + 1)) * t ** (m + 1) / (1 - 4 * t) <= tol
    )
    n, tail = n0, None
    powers, r = [s], [1.0, t]
    while len(powers) < math.isqrt(n):
        powers.append(inst.mul(powers[-1], s))
        k = len(powers)
        r.append(max(min(r[-1] * t, inst.norm(powers[-1])), sys.float_info.min))
        for m in range(1, n):
            bound = sum(
                abs(printed_coefficient(j)) * r[k] ** (j // k) * r[j % k] for j in range(m + 1, m + k + 1)
            ) / (1 - 4**k * r[k])
            if bound <= tol:
                n, tail = m, bound
                break
    return n0, n, tail


@pytest.mark.parametrize("norm_kind", ["col-l1", "spectral"])
@pytest.mark.parametrize("n", [16, 64])
def test_measured_printed_series_is_within_its_tail_bound_of_the_a_priori_series(n, norm_kind):
    inst = MatrixAlgebra(COMPLEX, n, norm_kind)
    tol = 1e-10
    for i, t in enumerate((0.05, 0.2, 0.24)):
        a = _pinned_almost_idempotent(inst, t, seed=97 + i)
        lifted = lift_idempotent(inst, a, "printed", tol)
        e0, cert0 = _series_lift(inst, a, "printed", tol)
        tail = lifted.cert.entry("tail-bound").lhs
        s = inst.sub(inst.mul(a, a), a)
        n0, terms, reference = _measured_printed_length(inst, s, float(inst.norm(s)), tol)
        assert terms < n0
        assert tail == pytest.approx(reference, rel=1e-12)
        assert 0 < tail <= tol
        assert inst.distance(lifted.e, e0) <= tail + 1e-12
        assert [x.holds for x in lifted.cert.entries] == [x.holds for x in cert0.entries]


def test_scalar_printed_series_is_within_its_tail_bound_of_its_sum():
    # for real a in (0, 1/2) the printed series sums to a + h(norm(a*a - a));
    # on scalars the measured bound is below the a-priori one, and it
    # shortens the series at t = 0.05, 0.14 and 0.165 (tol 1e-10) and at
    # t = 0.05 and 0.235 (tol 1e-13)
    measured = 0
    for tol in (1e-10, 1e-13):
        for t in (0.02, 0.05, 0.09, 0.14, 0.165, 0.2, 0.235):
            a = complex(h_bound(t))
            lifted = lift_idempotent(COMPLEX, a, "printed", tol)
            tail = lifted.cert.entry("tail-bound").lhs
            assert 0 < tail <= tol
            assert abs(lifted.e - (a + h_bound(abs(a * a - a)))) <= tail + 1e-15
            measured += tail != _series_lift(COMPLEX, a, "printed", tol)[1].entry("tail-bound").lhs
    assert measured == 5


def test_printed_series_keeps_the_a_priori_length_on_the_readme_scalar():
    a = complex(h_bound(0.09))
    lifted = lift_idempotent(COMPLEX, a, "printed", 1e-9)
    _, cert0 = _series_lift(COMPLEX, a, "printed", 1e-9)
    assert lifted.cert.entry("tail-bound").lhs == cert0.entry("tail-bound").lhs


def test_printed_series_on_a_nilpotent_defect_keeps_a_positive_tail_bound():
    # a = 1 + N with N*N = 0: s = N exactly, and s*s is exactly 0
    inst = _CountingMatrices(4)
    a = inst.one()
    a[0, 3] = 0.1
    lifted = []
    products = _products(inst, lambda: lifted.append(lift_idempotent(inst, a, "printed", 1e-10)))
    cert = lifted[0].cert
    assert 0 < cert.entry("tail-bound").lhs <= 1e-10
    # one term: e = a - s = 1
    assert np.array_equal(lifted[0].e, inst.one())
    assert cert.valid
    # a*a, s*s, e*e, e*a and a*e
    assert products == 5


@pytest.mark.parametrize("norm_kind", ["col-l1", "spectral"])
@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_neumann_inverse_within_its_tail_bound_of_the_direct_inverse(n, norm_kind):
    inst = MatrixAlgebra(COMPLEX, n, norm_kind)
    rng = np.random.default_rng(59 + n)
    for q in (0.05, 0.5, 0.9, 0.99):
        d = inst.random_element(rng)
        d *= q / inst.norm(d)
        u = inst.sub(inst.one(), d)
        unit = neumann_inverse(inst, u, 1e-9)
        tail = unit.cert.entry("tail-bound").lhs
        assert unit.cert.valid and tail <= 1e-9
        assert inst.distance(unit.u_inv, np.linalg.inv(u)) <= tail + 1e-12


@pytest.mark.parametrize("norm_kind", ["col-l1", "spectral"])
@pytest.mark.parametrize("n", [2, 4, 8, 64])
def test_corrected_lift_within_its_tail_bound_of_the_matrix_sign(n, norm_kind):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    inst = MatrixAlgebra(COMPLEX, n, norm_kind)
    for i, t in enumerate((1e-6, 0.02, 0.1, 0.2, 0.24)):
        a = random_almost_idempotent(inst, t, seed=61 + i)
        lifted = lift_idempotent(inst, a, "corrected", 1e-10)
        tail = lifted.cert.entry("tail-bound").lhs
        assert lifted.cert.valid and tail <= 1e-10
        assert lifted.defect <= 1e-10
        sign = scipy_linalg.signm(2 * a - np.eye(n))
        assert inst.distance(lifted.e, (np.eye(n) + sign) / 2) <= tail + 1e-12


def _a_priori_newton_steps(t, x, tol):
    """The step count fixed from ``t = norm(a*a - a)`` and ``x = norm(2a - 1)``
    alone: ``t -> t*t*(3 + 4t)`` and ``x -> x*(1 + 2t)`` per step."""
    for steps in range(calculus.NEWTON_STEP_CAP + 1):
        if x * calculus._inverse_sqrt_excess(t) / 2 <= tol:
            return steps
        x *= 1 + 2 * t
        t = max(t * t * (3 + 4 * t), sys.float_info.min)
    raise AssertionError("no a-priori step count")


@pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-15, 1e-300])
def test_measured_stops_never_take_more_products_than_the_a_priori_rule(tol):
    inst = _CountingMatrices(8)
    rng = np.random.default_rng(67)
    for q in [0.0, 1e-12, *np.linspace(0.01, 0.99, 25)]:
        d = inst.random_element(rng)
        d *= q / inst.norm(d)
        u = inst.sub(inst.one(), d)
        n_terms = 0
        while q and q ** (n_terms + 1) / (1 - q) > tol:
            n_terms += 1
        factors = n_terms.bit_length()
        unit = []
        products = _products(inst, lambda: unit.append(neumann_inverse(inst, u, tol)))
        assert products <= 2 * max(factors, 1)
        assert unit[0].cert.entry("tail-bound").lhs <= tol
    for i, t in enumerate(np.linspace(0.0, 0.245, 25)):
        a = random_almost_idempotent(inst, float(t), seed=71 + i)
        s = inst.norm(inst.sub(inst.mul(a, a), a))
        x = inst.norm(inst.sub(inst.int_scale(2, a), inst.one()))
        steps = _a_priori_newton_steps(s, x, tol)
        lifted = []
        products = _products(inst, lambda: lifted.append(lift_idempotent(inst, a, "corrected", tol)))
        assert products <= 2 * steps + 3
        assert lifted[0].cert.entry("tail-bound").lhs <= tol


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_inputs_are_rejected_before_any_product(bad):
    inst = _CountingMatrices(4)
    u = inst.one()
    u[1, 2] = bad
    inst.products = 0
    with pytest.raises(PreconditionError, match="not below 1"):
        neumann_inverse(inst, u, 1e-9)
    assert inst.products == 0
    a = random_almost_idempotent(inst, 0.1, seed=73)
    a[0, 3] = bad
    inst.products = 0
    with pytest.raises(PreconditionError, match="not below 1/4"), np.errstate(invalid="ignore"):
        lift_idempotent(inst, a, "corrected", 1e-10)
    assert inst.products == 1  # the a*a the defect is measured on
    with pytest.raises(PreconditionError, match="not below 1"):
        neumann_inverse(COMPLEX, complex(bad, 0), 1e-9)
    with pytest.raises(PreconditionError, match="not below 1/4"):
        lift_idempotent(COMPLEX, complex(bad, 0), "corrected", 1e-10)


def test_intertwiner_in_one_product_is_the_two_product_form_exactly():
    inst = MatrixAlgebra(ScaledIntegers(), 5)
    rng = np.random.default_rng(79)
    counting = _CountingMatrices(5)
    for _ in range(20):
        e, f = (inst.random_element(rng) for _ in range(2))
        one = inst.one()
        two_products = inst.add(inst.mul(e, f), inst.mul(inst.sub(one, e), inst.sub(one, f)))
        assert np.array_equal(intertwiner(inst, e, f), two_products)
    x = counting.random_element(rng)
    assert _products(counting, lambda: intertwiner(counting, x, x)) == 1


def _powers(instance, s, p):
    """``[s, s**2, .., s**p]``."""
    powers = [s]
    for _ in range(1, p):
        powers.append(instance.mul(powers[-1], s))
    return powers


@pytest.mark.parametrize(
    "inst",
    [
        MatrixAlgebra(ScaledIntegers(), 3),
        MatrixAlgebra(COMPLEX, 5),
        MatrixAlgebra(MatrixAlgebra(COMPLEX, 2), 3),
    ],
    ids=["integers", "complex", "nested"],
)
def test_paterson_stockmeyer_keeps_integer_coefficients_on_exact_instances(inst):
    s = inst.random_element(np.random.default_rng(83))
    if not inst.exact:
        s *= 0.2 / inst.norm(s)  # within the series' radius of convergence, 1/4
    s_before = s.copy()
    coefficients = [printed_coefficient(k) for k in range(1, 40)]
    value = calculus._paterson_stockmeyer(inst, _powers(inst, s, 6), coefficients)
    power, expected = s, inst.zero()
    for c in coefficients:
        expected = inst.add(expected, inst.int_scale(c, power))
        power = inst.mul(power, s)
    # the block sums write into arrays of their own, never into the powers
    assert np.array_equal(s, s_before)
    assert value.shape == inst.shape and value.dtype == inst.dtype
    if inst.exact:
        assert np.array_equal(value, expected)
        assert all(type(v) is int for v in value.flat)
    else:
        assert inst.distance(value, expected) <= 1e-12 * inst.norm(expected)


def test_neumann_factor_cap():
    # norm(d**(2**f)) = 0.9999**(2**f) falls below 1e-13 only at f = 19
    with pytest.raises(SeriesTruncationError, match="14 factors"):
        neumann_inverse(COMPLEX, 1e-4 + 0j, 1e-9)
    assert neumann_inverse(COMPLEX, 0.01 + 0j, 1e-9).cert.valid  # f = 12


# ---------------------------------------------------------------------------
# entries read from products already formed


def _zero_factor_units(inst, rng, tol):
    """Units ``u`` with ``q / (1 - q) <= tol`` for ``q = norm(1 - u)``."""
    for q in (0.0, 1e-17, 1e-15, 1e-12, tol / 2):
        d = inst.random_element(rng)
        d *= q / inst.norm(d)
        yield inst.sub(inst.one(), d)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_zero_factor_inverse_forms_no_product_and_records_the_measured_norm(n):
    inst = _CountingMatrices(n)
    one = inst.one()
    for u in _zero_factor_units(inst, np.random.default_rng(89 + n), 1e-9):
        q = inst.norm(inst.sub(one, u))
        unit = []
        assert _products(inst, lambda: unit.append(neumann_inverse(inst, u, 1e-9))) == 0
        (unit,) = unit
        assert np.array_equal(unit.u_inv, one)
        tail = unit.cert.entry("tail-bound").lhs
        for name, product in (("residual-left", inst.mul(u, one)), ("residual-right", inst.mul(one, u))):
            lhs = unit.cert.entry(name).lhs
            # the product it no longer forms, the measured norm, and no slack
            assert lhs == inst.distance(product, one) == q
            assert lhs <= tail


def test_zero_factor_residuals_stay_exact_on_scaled_integer_matrices():
    inst = MatrixAlgebra(ScaledIntegers("1/1000"), 3)
    one = inst.one()
    u = one.copy()
    u[0, 1] = 1
    unit = neumann_inverse(inst, u, 0.01)  # q / (1 - q) = 1/999
    assert np.array_equal(unit.u_inv, one)
    for name, product in (("residual-left", inst.mul(u, one)), ("residual-right", inst.mul(one, u))):
        lhs = unit.cert.entry(name).lhs
        assert type(lhs) is Fraction and lhs == Fraction(1, 1000) == inst.distance(product, one)
        assert lhs <= unit.cert.entry("tail-bound").lhs


def test_zero_factor_residuals_under_the_spectral_norm_are_the_products():
    # norm(-x) and norm(x) can differ in the last bit through the SVD, so
    # norm(1 - u) does not stand in for norm(u*1 - 1) there
    inst = MatrixAlgebra(COMPLEX, 8, "spectral")
    one = inst.one()
    for u in _zero_factor_units(inst, np.random.default_rng(97), 1e-9):
        unit = neumann_inverse(inst, u, 1e-9)
        assert unit.cert.entry("residual-left").lhs == inst.distance(inst.mul(u, one), one)
        assert unit.cert.entry("residual-right").lhs == inst.distance(inst.mul(one, u), one)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_lift_of_an_exact_projector_reads_a_squared_for_commute(n):
    inst = _CountingMatrices(n)
    rng = np.random.default_rng(101 + n)
    for rank in (0, 1, n // 2, n):
        p = conjugated_projector(inst, rank, rng, spread=0.4)
        lifted = []
        assert _products(inst, lambda: lifted.append(lift_idempotent(inst, p, "corrected", 1e-12))) == 1
        (lifted,) = lifted
        assert lifted.e is p
        commute = inst.distance(inst.mul(p, p), inst.mul(p, p))
        assert lifted.cert.entry("commute").lhs == commute == 0
        assert lifted.cert.entry("defect").lhs == inst.distance(inst.mul(p, p), p)


@pytest.mark.parametrize(
    "inst",
    [
        MatrixAlgebra(COMPLEX, 3),
        MatrixAlgebra(COMPLEX, 3, "spectral"),
        MatrixAlgebra(ScaledIntegers(1), 3),
        MatrixAlgebra(ScaledIntegers("1/2"), 3),
    ],
    ids=["col-l1", "spectral", "integers", "halves"],
)
def test_lift_needing_no_newton_step_records_the_exact_zero_difference(inst):
    a = inst.zero()
    a[0, :2] = inst.inner.one()  # an idempotent
    a_sq = inst.mul(a, a)
    zero = inst.distance(a, a)
    given = calculus._lift(inst, a, a_sq, "corrected", 1e-12, inst.distance(a_sq, a))[0]
    for lifted in (lift_idempotent(inst, a, "corrected", 1e-12), given):
        assert lifted.e is a
        for name in ("commute", "distance-h", "distance-derived"):
            lhs = lifted.cert.entry(name).lhs
            assert lhs == zero and type(lhs) is type(zero), name
    # with no prefix, extend appends the frozen entries themselves, in order
    cert = inst.certificate()
    cert.extend(lifted.cert)
    assert len(cert.entries) == len(lifted.cert.entries)
    assert all(x is y for x, y in zip(cert.entries, lifted.cert.entries))
    cert.extend(lifted.cert, prefix="lift:")
    names = [x.name for x in cert.entries[len(lifted.cert.entries) :]]
    assert names == ["lift:" + x.name for x in lifted.cert.entries]


def test_intertwiner_from_a_product_already_formed_is_the_same_element():
    inst = _CountingMatrices(6)
    rng = np.random.default_rng(103)
    e, f = (inst.random_element(rng) for _ in range(2))
    ef = inst.mul(e, f)
    given = []
    assert _products(inst, lambda: given.append(intertwiner(inst, e, f, ef))) == 0
    assert np.array_equal(given[0], intertwiner(inst, e, f))


def _explicit_conjugating_cert(inst, e, f, tol):
    """``conjugating_unit``'s certificate with every norm measured where it is used."""
    u = intertwiner(inst, e, f)
    cert = inst.certificate()
    cert.add(
        "intertwine",
        inst.distance(inst.mul(e, u), inst.mul(u, f)),
        tol * (1 + float(inst.norm(e)) + float(inst.norm(f))),
    )
    bound = conjugation_bound(inst.norm(e), inst.distance(e, f))
    cert.add("unit-distance", inst.distance(u, inst.one()), bound)
    cert.extend(neumann_inverse(inst, u, tol).cert)
    return cert


def _norm_calls(inst, run):
    inst.norm_calls = 0
    run()
    return inst.norm_calls


@pytest.mark.parametrize("n", [1, 2, 8])
def test_conjugating_unit_measures_each_endpoint_norm_once(n):
    inst = _CountingMatrices(n)
    rng = np.random.default_rng(107 + n)
    for rank in sorted({0, 1, n // 2, n}):
        p = conjugated_projector(inst, rank, rng, spread=0.4)
        g = inst.one() + 1e-3 * inst.random_element(rng)
        e = certify_idempotent(inst, p, 1e-9)
        f = certify_idempotent(inst, g @ p @ np.linalg.inv(g), 1e-9)
        unit = []
        calls = _norm_calls(inst, lambda: unit.append(conjugating_unit(inst, e, f, 1e-9)))
        u = intertwiner(inst, e.e, f.e)
        inversion = _norm_calls(inst, lambda: neumann_inverse(inst, u, 1e-9))
        # norm(e), norm(f), norm(e - f), the inversion's, intertwine and unit-distance
        assert calls == 3 + inversion + 2
        assert unit[0].cert.entries == _explicit_conjugating_cert(inst, e.e, f.e, 1e-9).entries


def test_conjugating_unit_reads_the_norms_a_caller_measured():
    inst = _CountingMatrices(4)
    rng = np.random.default_rng(109)
    p = conjugated_projector(inst, 2, rng, spread=0.4)
    g = inst.one() + 1e-3 * inst.random_element(rng)
    e = certify_idempotent(inst, p, 1e-9)
    f = certify_idempotent(inst, g @ p @ np.linalg.inv(g), 1e-9)
    measured = {"e_norm": inst.norm(p), "f_norm": inst.norm(f.e), "distance": inst.distance(p, f.e)}
    units = []
    fresh = _norm_calls(inst, lambda: units.append(conjugating_unit(inst, e, f, 1e-9)))
    given = _norm_calls(inst, lambda: units.append(conjugating_unit(inst, e, f, 1e-9, **measured)))
    assert given == fresh - 3
    assert units[1].cert.entries == units[0].cert.entries
    assert np.array_equal(units[1].u, units[0].u)


def test_conjugating_unit_entries_on_exact_norms():
    inst = MatrixAlgebra(ScaledIntegers("1/2"), 3)
    e, f = inst.zero(), inst.zero()
    e[0, 0] = f[0, 0] = f[0, 1] = 1  # f is an idempotent at distance 1/2
    assert inst.distance(inst.mul(f, f), f) == 0 and inst.distance(e, f) == Fraction(1, 2)
    unit = conjugating_unit(inst, certify_idempotent(inst, e, 0), certify_idempotent(inst, f, 0), 1e-9)
    assert unit.cert.entries == _explicit_conjugating_cert(inst, e, f, 1e-9).entries
