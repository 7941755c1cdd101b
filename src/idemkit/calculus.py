"""Certified inversion and idempotent polishing in normed rings.

The inverse of an element close to 1 is a truncated geometric series with a
certified tail; an almost-idempotent is polished to a true idempotent by an
integer-coefficient power series in its defect.  Two series variants are
shipped:

* ``"corrected"`` carries a ``(2a - 1)`` prefactor and provably squares to
  an idempotent in the commutative subring generated by ``a`` (its scalar
  model returns exactly the nearest of 0 and 1); this is the variant every
  other module relies on.
* ``"printed"`` omits the prefactor.  Its scalar model fails idempotency
  (for ``a = 0.1`` it returns about 0.2 with defect about 0.16), so its
  defect certificate is expected to be invalid; it is kept so that the
  failure is reproducible data rather than an anecdote.

All series coefficients are integers, computed in exact rational
arithmetic, cached, and checked for integrality at import time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .core import AlgebraInstance, Certificate
from .errors import PreconditionError, SeriesTruncationError

SERIES_HARD_CAP = 10_000
_COEFFICIENT_CHECK_RANGE = 64


@dataclass(frozen=True)
class CertifiedUnit:
    """An element with a two-sided inverse and residual certificates."""

    u: Any
    u_inv: Any
    cert: Certificate


@dataclass(frozen=True)
class CertifiedIdempotent:
    """An element whose squaring defect is certified."""

    e: Any
    cert: Certificate

    @property
    def defect(self):
        return self.cert.entry("defect").lhs


def certify_idempotent(instance: AlgebraInstance, e, tol: float) -> CertifiedIdempotent:
    """Measure the squaring defect of ``e`` and record it against ``tol``."""
    cert = instance.certificate()
    cert.add("defect", instance.distance(instance.mul(e, e), e), tol)
    return CertifiedIdempotent(e, cert)


# ---------------------------------------------------------------------------
# series coefficients


def _binomial_series_coefficient(num2: int, n: int) -> Fraction:
    """``binom(num2/2, n)`` in exact rationals."""
    alpha = Fraction(num2, 2)
    out = Fraction(1)
    for k in range(n):
        out *= (alpha - k) / (k + 1)
    return out


@functools.lru_cache(maxsize=None)
def printed_coefficient(n: int) -> int:
    """``2**(2n-1) * binom(1/2, n)``; equals ``(-1)**(n-1) * catalan(n-1)``."""
    c = Fraction(2) ** (2 * n - 1) * _binomial_series_coefficient(1, n)
    if c.denominator != 1:
        raise ArithmeticError(f"series coefficient {n} is not an integer: {c}")
    return c.numerator


@functools.lru_cache(maxsize=None)
def corrected_coefficient(n: int) -> int:
    """``2**(2n-1) * binom(-1/2, n)``; equals ``(-1)**n * binom(2n, n) / 2``."""
    c = Fraction(2) ** (2 * n - 1) * _binomial_series_coefficient(-1, n)
    if c.denominator != 1:
        raise ArithmeticError(f"series coefficient {n} is not an integer: {c}")
    return c.numerator


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


for _n in range(1, _COEFFICIENT_CHECK_RANGE + 1):
    printed_coefficient(_n)
    corrected_coefficient(_n)
del _n


def h_bound(t) -> float:
    """Distance bound ``(1 - sqrt(1 - 4t)) / 2`` on ``[0, 1/4)``.

    Monotone increasing with ``h(t) >= t``; it is the sum of the series
    ``sum_{n>=1} catalan(n-1) * t**n``.
    """
    t = float(t)
    if not 0 <= t < 0.25:
        raise PreconditionError(f"h_bound needs 0 <= t < 1/4, got {t}")
    return (1 - math.sqrt(1 - 4 * t)) / 2


# ---------------------------------------------------------------------------
# geometric-series inversion


def neumann_inverse(instance: AlgebraInstance, u, tol: float) -> CertifiedUnit:
    """Invert ``u`` with ``norm(1 - u) < 1`` by a truncated geometric series.

    The truncation index is the smallest ``N`` whose geometric tail bound
    ``q**(N+1) / (1 - q)`` with ``q = norm(1 - u)`` is at most ``tol``; the
    certificate records the tail bound against ``tol`` and both measured
    residuals against the tail bound.
    """
    one = instance.one()
    d = instance.sub(one, u)
    q = instance.norm(d)
    if q >= 1:
        raise PreconditionError(
            f"not provably invertible by the geometric series: norm(1 - u) = {q} >= 1"
        )
    if q == 0:
        n_terms, tail = 0, 0.0
    else:
        qf = float(q)
        power = qf
        n_terms = 0
        while power / (1 - qf) > tol:
            n_terms += 1
            power *= qf
            if n_terms > SERIES_HARD_CAP:
                raise SeriesTruncationError(
                    f"geometric series needs more than {SERIES_HARD_CAP} terms"
                )
        tail = power / (1 - qf)
    acc = one
    pw = one
    for _ in range(n_terms):
        pw = instance.mul(pw, d)
        acc = instance.add(acc, pw)
    cert = instance.certificate()
    cert.add("tail-bound", tail, tol)
    cert.add("residual-left", instance.distance(instance.mul(u, acc), one), tail)
    cert.add("residual-right", instance.distance(instance.mul(acc, u), one), tail)
    return CertifiedUnit(u, acc, cert)


def invertibility_radius(instance: AlgebraInstance, unit: CertifiedUnit) -> float:
    """Radius of the certified invertibility neighborhood around a unit.

    Any ``v`` with ``norm(v - u)`` below the returned radius satisfies
    ``norm(1 - u_inv * v) < 1``, so ``u_inv * v`` (and with it ``v``) is
    invertible by :func:`neumann_inverse`.
    """
    resid = max(
        float(unit.cert.entry("residual-left").lhs),
        float(unit.cert.entry("residual-right").lhs),
    )
    ninv = float(instance.norm(unit.u_inv))
    if ninv == 0:
        return math.inf
    return (1 - resid) / ninv


# ---------------------------------------------------------------------------
# conjugation of nearby idempotents


def intertwiner(instance: AlgebraInstance, e, f):
    """The element ``e*f + (1-e)*(1-f)``, satisfying ``e*u = e*f = u*f``
    whenever ``e`` and ``f`` are idempotent."""
    one = instance.one()
    return instance.add(
        instance.mul(e, f),
        instance.mul(instance.sub(one, e), instance.sub(one, f)),
    )


def conjugation_bound(e_norm, distance) -> float:
    """Upper bound ``2*norm(e)*d + d**2`` for ``norm(u - 1)`` of the
    intertwiner at distance ``d``; the conjugation is certified when this
    is below 1."""
    return 2 * float(e_norm) * float(distance) + float(distance) ** 2


def conjugation_threshold(e_norm) -> float:
    """Largest distance at which :func:`conjugation_bound` stays below 1."""
    b = float(e_norm)
    return math.sqrt(b * b + 1) - b


def certify_unit(
    instance: AlgebraInstance, cert: Certificate, e, f, u, u_inv, tol: float, intertwine_rhs=None
) -> None:
    """Record that ``u`` conjugates ``e`` to ``f`` and that ``u_inv`` inverts it.

    Adds ``intertwine``, ``norm(e*u - u*f)`` against ``intertwine_rhs``
    (default ``tol * (1 + norm(e) + norm(f))``), then, unless ``u_inv`` is
    None, ``residual-left`` and ``residual-right``, ``norm(u*u_inv - 1)``
    and ``norm(u_inv*u - 1)`` against ``tol``.
    """
    if intertwine_rhs is None:
        intertwine_rhs = tol * (1 + float(instance.norm(e)) + float(instance.norm(f)))
    cert.add(
        "intertwine",
        instance.distance(instance.mul(e, u), instance.mul(u, f)),
        intertwine_rhs,
    )
    if u_inv is not None:
        one = instance.one()
        cert.add("residual-left", instance.distance(instance.mul(u, u_inv), one), tol)
        cert.add("residual-right", instance.distance(instance.mul(u_inv, u), one), tol)


def conjugating_unit(
    instance: AlgebraInstance,
    e: CertifiedIdempotent,
    f: CertifiedIdempotent,
    tol: float,
) -> CertifiedUnit:
    """Certified unit ``u`` with ``e*u = u*f`` for nearby idempotents.

    Requires ``2*norm(e)*norm(e-f) + norm(e-f)**2 < 1``; the unit is
    ``e*f + (1-e)*(1-f)``, inverted by :func:`neumann_inverse`.  Entries:
    ``intertwine`` (against ``tol * (1 + norm(e) + norm(f))``),
    ``unit-distance`` (against the bound above), and the inversion
    residuals.
    """
    ne, nf = instance.norm(e.e), instance.norm(f.e)
    dist = instance.distance(e.e, f.e)
    bound = conjugation_bound(ne, dist)
    if bound >= 1:
        raise PreconditionError(
            "idempotents not provably equivalent by proximity: "
            f"2*norm(e)*d + d**2 = {bound} >= 1"
        )
    u = intertwiner(instance, e.e, f.e)
    inverted = neumann_inverse(instance, u, tol)
    cert = instance.certificate()
    certify_unit(instance, cert, e.e, f.e, u, None, tol)
    cert.add("unit-distance", instance.distance(u, instance.one()), bound)
    cert.extend(inverted.cert)
    return CertifiedUnit(u, inverted.u_inv, cert)


# ---------------------------------------------------------------------------
# idempotent polishing


def _series_sum(instance: AlgebraInstance, s, t: float, coefficient, tol: float):
    """Truncated ``sum_{n>=1} coefficient(n) * s**n`` with a certified tail.

    Stops at the smallest ``N`` whose first omitted term bound, divided by
    ``1 - 4t``, is at most ``tol`` (the term bounds decay at least
    geometrically with ratio ``4t``).  Returns ``(value, tail_bound)``.
    Raises :class:`SeriesTruncationError` past ``SERIES_HARD_CAP`` terms or
    once a coefficient no longer fits in a float.
    """
    if t == 0:
        return instance.zero(), 0.0
    acc = instance.zero()
    s_pow = None
    term_bound = abs(coefficient(1)) * t
    n = 0
    while True:
        n += 1
        if n > SERIES_HARD_CAP:
            raise SeriesTruncationError(
                f"series needs more than {SERIES_HARD_CAP} terms at defect {t}"
            )
        s_pow = s if s_pow is None else instance.mul(s_pow, s)
        try:
            acc = instance.add(acc, instance.int_scale(coefficient(n), s_pow))
            next_bound = term_bound * abs(coefficient(n + 1)) / abs(coefficient(n)) * t
        except OverflowError as exc:
            raise SeriesTruncationError(
                f"series coefficient {n + 1} overflows a float before the tail "
                f"bound reaches {tol} at defect {t}"
            ) from exc
        if next_bound / (1 - 4 * t) <= tol:
            return acc, next_bound / (1 - 4 * t)
        term_bound = next_bound


def lift_idempotent(
    instance: AlgebraInstance, a, variant: str, tol: float
) -> CertifiedIdempotent:
    """Polish an almost-idempotent ``a`` with ``norm(a*a - a) < 1/4``.

    Both variants are power series in the defect ``s = a*a - a``, truncated
    once the certified geometric tail (ratio ``4t``) drops below ``tol``:

    * ``"corrected"``: ``e = a + (2a - 1) * sum_n corrected_coefficient(n) * s**n``.
      Promises ``norm(e*e - e) <= tol``, commutation with ``a``, and
      ``norm(e - a) <= norm(2a - 1) * ((1 - 4t)**-0.5 - 1) / 2``.
    * ``"printed"``: ``e = a - sum_n printed_coefficient(n) * s**n``.  The
      measured defect is recorded against ``tol`` but generally fails; the
      certificate is the evidence.

    The distance is certified against both the classical bound
    ``h(t) = (1 - sqrt(1 - 4t)) / 2`` and the prefactor-aware bound above;
    whichever bound does not belong to the chosen variant's series is
    recorded as advisory, and downstream acceptance keys on the
    prefactor-aware bound only.
    """
    if variant not in ("printed", "corrected"):
        raise PreconditionError(f"unknown lift variant {variant!r}")
    s = instance.sub(instance.mul(a, a), a)
    t = float(instance.norm(s))
    if t >= 0.25:
        raise PreconditionError(f"defect norm(a*a - a) = {t} is not below 1/4")
    two_a_minus_1 = instance.sub(instance.int_scale(2, a), instance.one())
    if variant == "printed":
        x, tail = _series_sum(instance, s, t, printed_coefficient, tol)
        e = instance.sub(a, x)
    else:
        x, tail = _series_sum(instance, s, t, corrected_coefficient, tol)
        e = instance.add(a, instance.mul(two_a_minus_1, x))

    dist = instance.distance(e, a)
    derived = float(instance.norm(two_a_minus_1)) * ((1 - 4 * t) ** -0.5 - 1) / 2
    cert = instance.certificate()
    cert.add("tail-bound", tail, tol)
    cert.add("defect", instance.distance(instance.mul(e, e), e), tol)
    cert.add(
        "commute",
        instance.distance(instance.mul(e, a), instance.mul(a, e)),
        tol,
    )
    cert.add("distance-h", dist, h_bound(t), advisory=(variant == "corrected"))
    cert.add("distance-derived", dist, derived, advisory=(variant == "printed"))
    return CertifiedIdempotent(e, cert)


def scalar_lift_rational(a: Fraction, variant: str, terms: int) -> Fraction:
    """Exact-rational scalar model of :func:`lift_idempotent`.

    Independent oracle used to pin the behavior of both series on scalar
    inputs without any floating-point noise.
    """
    a = Fraction(a)
    s = a * a - a
    if variant == "printed":
        x = sum((printed_coefficient(n) * s**n for n in range(1, terms + 1)), Fraction(0))
        return a - x
    if variant == "corrected":
        x = sum((corrected_coefficient(n) * s**n for n in range(1, terms + 1)), Fraction(0))
        return a + (2 * a - 1) * x
    raise PreconditionError(f"unknown lift variant {variant!r}")


# ---------------------------------------------------------------------------
# quasi-inverses modulo a dense ideal


def quasi_inverse_mod_ideal(
    instance: AlgebraInstance, a, ideal_witness, tol: float
) -> CertifiedUnit:
    """Certified inverse of ``1 + (a - witness)`` for a witness in a dense ideal.

    When the witness lies in an ideal and ``norm(a - witness) < 1``, the
    returned unit certifies that ``1 + a`` is invertible modulo that ideal.
    """
    delta = instance.distance(a, ideal_witness)
    if delta >= 1:
        raise PreconditionError(
            f"witness not close enough: norm(a - witness) = {delta} >= 1"
        )
    u = instance.add(instance.one(), instance.sub(a, ideal_witness))
    inverted = neumann_inverse(instance, u, tol)
    cert = instance.certificate()
    cert.add("witness-distance", delta, 1)
    cert.extend(inverted.cert)
    return CertifiedUnit(u, inverted.u_inv, cert)
