"""Certified inversion and idempotent polishing in normed rings.

The inverse of an element close to 1 is a truncated geometric series with a
certified tail, evaluated as a product of ``1 + d**(2**i)`` factors; an
almost-idempotent is polished to a true idempotent.  All three series loops
(the geometric series, the Newton lift and the printed series) stop on the
norms of the powers and iterates they compute anyway, which at desk scale
fall far faster than the a-priori scalar bounds; those bounds still cap
the loops, so none ever takes more products than the a-priori count.
Two lift variants are shipped:

* ``"corrected"`` is the series with a ``(2a - 1)`` prefactor, which sums to
  ``(1 + sign(2a - 1)) / 2``.  It is evaluated by the Newton idempotent
  iteration ``e <- e*e*(3 - 2e)`` (Newton-Schulz on ``2e - 1``), whose
  integer coefficients keep it exact on exact instances.  It provably
  yields an idempotent in the commutative subring generated by ``a`` (its
  scalar model returns exactly the nearest of 0 and 1); this is the variant
  every other module relies on.
* ``"printed"`` omits the prefactor and is summed as an integer-coefficient
  power series in the defect, by Paterson-Stockmeyer.  Its scalar model
  fails idempotency (for ``a = 0.1`` it returns about 0.2 with defect about
  0.16), so its defect certificate is expected to be invalid; it is kept so
  that the failure is reproducible data rather than an anecdote.

All series coefficients are integers: ``2**(2n-1)`` times a binomial
coefficient of ``1/2`` or ``-1/2``, computed from their closed forms (signed
Catalan numbers and halved central binomials) with exact integer
arithmetic, and cached.  Only the ``printed`` series is summed on elements;
the ``corrected`` one is summed by the reference :func:`scalar_lift_rational`.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from fractions import Fraction
from typing import Any, NamedTuple

from .core import AlgebraInstance, Certificate
from .errors import PreconditionError, SeriesTruncationError

SERIES_HARD_CAP = 10_000
#: factors ``1 + d**(2**i)`` covering the first ``SERIES_HARD_CAP`` terms
_NEUMANN_FACTOR_CAP = SERIES_HARD_CAP.bit_length()
NEWTON_STEP_CAP = 64


class CertifiedUnit(NamedTuple):
    """An element with a two-sided inverse and residual certificates.

    An immutable named tuple ``(u, u_inv, cert)``.
    """

    u: Any
    u_inv: Any
    cert: Certificate


class CertifiedIdempotent(NamedTuple):
    """An element whose squaring defect is certified.

    An immutable named tuple ``(e, cert)``; ``defect`` reads the
    certificate's ``defect`` entry.
    """

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


@functools.lru_cache(maxsize=None)
def printed_coefficient(n: int) -> int:
    """``2**(2n-1) * binom(1/2, n)``, which is ``(-1)**(n-1) * catalan(n-1)``."""
    return (-1) ** (n - 1) * catalan(n - 1)


@functools.lru_cache(maxsize=None)
def corrected_coefficient(n: int) -> int:
    """``2**(2n-1) * binom(-1/2, n)``, which is ``(-1)**n * binom(2n, n) / 2``."""
    return (-1) ** n * math.comb(2 * n, n) // 2


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


def h_bound(t) -> float:
    """Distance bound ``(1 - sqrt(1 - 4t)) / 2`` on ``[0, 1/4)``.

    Monotone increasing with ``h(t) >= t``; it is the sum of the series
    ``sum_{n>=1} catalan(n-1) * t**n``.  Evaluated as
    ``2t / (1 + sqrt(1 - 4t))``, which keeps full precision for small ``t``.
    """
    t = float(t)
    if not 0 <= t < 0.25:
        raise PreconditionError(f"h_bound needs 0 <= t < 1/4, got {t}")
    return 2 * t / (1 + math.sqrt(1 - 4 * t))


def _inverse_sqrt_excess(t: float) -> float:
    """``(1 - 4t)**-0.5 - 1`` on ``[0, 1/4)``, positive for every ``t > 0``.

    It bounds ``norm((1 + 4s)**-0.5 - 1)`` when ``norm(s) <= t``; the
    ``expm1``/``log1p`` form does not round to 0 for tiny ``t``.
    """
    return math.expm1(-0.5 * math.log1p(-4 * t))


# ---------------------------------------------------------------------------
# geometric-series inversion


def neumann_inverse(instance: AlgebraInstance, u, tol: float) -> CertifiedUnit:
    """Invert ``u`` with ``norm(1 - u) < 1`` by a truncated geometric series.

    With ``d = 1 - u`` and ``q = norm(d)``, the product of ``1 + d**(2**i)``
    for ``i < f`` is the sum of ``d**k`` for ``k < 2**f``, formed in
    ``2(f-1)`` multiplications.  It times ``u`` is ``1 - d**(2**f)``, so its
    distance to the inverse is at most ``r_f / (1 - q)`` for any bound
    ``r_f`` on ``norm(d**(2**f))``.  Here ``r_0 = q`` and ``r_f`` is
    ``norm(d**(2**(f-1)))**2``, measured on the power the loop has just
    formed, or ``r_(f-1)**2`` where that is smaller, so ``r_f <= q**(2**f)``.
    The loop stops at the first ``f`` whose tail bound is at most ``tol``
    (``f = 0`` returns 1).  The certificate records that tail bound against
    ``tol`` and both measured residuals against the tail bound.  At
    ``f = 0`` both residuals are ``norm(u*1 - 1)``, which is the measured
    ``norm(1 - u)`` itself wherever the norm reads entry magnitudes only
    (``instance.magnitude_norm``): that value is recorded, exact on exact
    instances, and no product is formed.
    """
    one = instance.one()
    d = instance.sub(one, u)
    q_norm = instance.norm(d)
    q = float(q_norm)
    if not q < 1:
        raise PreconditionError(
            f"not provably invertible by the geometric series: norm(1 - u) = {q} is not below 1"
        )
    acc, pw, r, factors = one, d, q, 0
    tail = q / (1 - q)
    while tail > tol:
        if factors == _NEUMANN_FACTOR_CAP:
            raise SeriesTruncationError(
                f"geometric series needs more than {_NEUMANN_FACTOR_CAP} factors "
                f"({SERIES_HARD_CAP} terms) to reach {tol}"
            )
        if factors:
            pw = instance.mul(pw, pw)
            r = min(float(instance.norm(pw)), r * r)
            acc = instance.mul(acc, instance.add(one, pw))
        else:
            acc = instance.add(one, d)
        factors += 1
        tail = r * r / (1 - q)
    if factors or not instance.magnitude_norm:
        left = instance.distance(instance.mul(u, acc), one)
        right = instance.distance(instance.mul(acc, u), one)
    else:
        # u*1 is u entry for entry, and u - 1 is -(1 - u)
        left = right = q_norm
    cert = instance.certificate()
    cert.add("tail-bound", tail, tol)
    cert.add("residual-left", left, tail)
    cert.add("residual-right", right, tail)
    return CertifiedUnit(u, acc, cert)


# ---------------------------------------------------------------------------
# conjugation of nearby idempotents


def intertwiner(instance: AlgebraInstance, e, f, ef=None):
    """The element ``e*f + (1-e)*(1-f)``, satisfying ``e*u = e*f = u*f``
    whenever ``e`` and ``f`` are idempotent.

    Formed as ``1 - e - f + 2*e*f``, the same element in any ring, in one
    product; a caller that already holds ``e*f`` passes it as ``ef``, and
    then no product is formed.
    """
    if ef is None:
        ef = instance.mul(e, f)
    return instance.add(
        instance.sub(instance.sub(instance.one(), e), f),
        instance.int_scale(2, ef),
    )


def conjugation_bound(e_norm, distance) -> float:
    """Upper bound ``2*norm(e)*d + d**2`` for ``norm(u - 1)`` of the
    intertwiner at distance ``d``; the conjugation is certified when this
    is below 1."""
    return 2 * float(e_norm) * float(distance) + float(distance) ** 2


def certify_unit(
    instance: AlgebraInstance,
    cert: Certificate,
    e,
    f,
    u,
    u_inv,
    tol: float,
    intertwine_rhs=None,
    residual_left=None,
    residual_right=None,
) -> None:
    """Record that ``u`` conjugates ``e`` to ``f`` and that ``u_inv`` inverts it.

    Adds ``intertwine``, ``norm(e*u - u*f)`` against ``intertwine_rhs``
    (default ``tol * (1 + norm(e) + norm(f))``), then, unless ``u_inv`` is
    None, ``residual-left`` and ``residual-right``, ``norm(u*u_inv - 1)``
    and ``norm(u_inv*u - 1)`` against ``tol``; a caller that has already
    measured ``norm(u*u_inv - 1)`` or ``norm(u_inv*u - 1)`` passes it as
    ``residual_left`` or ``residual_right``, and then that product is not
    formed.
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
        if residual_left is None:
            residual_left = instance.distance(instance.mul(u, u_inv), one)
        cert.add("residual-left", residual_left, tol)
        if residual_right is None:
            residual_right = instance.distance(instance.mul(u_inv, u), one)
        cert.add("residual-right", residual_right, tol)


def conjugating_unit(
    instance: AlgebraInstance,
    e: CertifiedIdempotent,
    f: CertifiedIdempotent,
    tol: float,
    e_norm=None,
    f_norm=None,
    distance=None,
) -> CertifiedUnit:
    """Certified unit ``u`` with ``e*u = u*f`` for nearby idempotents.

    Requires ``2*norm(e)*norm(e-f) + norm(e-f)**2 < 1``; the unit is
    ``e*f + (1-e)*(1-f)``, inverted by :func:`neumann_inverse`.  Entries:
    ``intertwine`` (against ``tol * (1 + norm(e) + norm(f))``),
    ``unit-distance`` (against the bound above), and the inversion
    residuals.  A caller that has already measured ``norm(e)``,
    ``norm(f)`` or ``norm(e - f)`` passes it as ``e_norm``, ``f_norm`` or
    ``distance``, and then it is not measured again.
    """
    ne = instance.norm(e.e) if e_norm is None else e_norm
    nf = instance.norm(f.e) if f_norm is None else f_norm
    dist = instance.distance(e.e, f.e) if distance is None else distance
    bound = conjugation_bound(ne, dist)
    if bound >= 1:
        raise PreconditionError(
            "idempotents not provably equivalent by proximity: "
            f"2*norm(e)*d + d**2 = {bound} >= 1"
        )
    u = intertwiner(instance, e.e, f.e)
    inverted = neumann_inverse(instance, u, tol)
    cert = instance.certificate()
    # the default rhs, from the norms already measured
    certify_unit(
        instance, cert, e.e, f.e, u, None, tol, intertwine_rhs=tol * (1 + float(ne) + float(nf))
    )
    cert.add("unit-distance", instance.distance(u, instance.one()), bound)
    cert.extend(inverted.cert)
    return CertifiedUnit(u, inverted.u_inv, cert)


# ---------------------------------------------------------------------------
# idempotent polishing


def _series_sum(instance: AlgebraInstance, s, t: float, tol: float):
    """Truncated ``sum_{n>=1} printed_coefficient(n) * s**n``, certified tail.

    The printed coefficients grow by a ratio below 4.  So the a-priori
    length ``N0`` is the smallest ``N`` whose first omitted term bound,
    divided by ``1 - 4t``, is at most ``tol``; it is chosen from scalars
    before any product, and :class:`SeriesTruncationError` is raised past
    ``SERIES_HARD_CAP`` terms or once a coefficient no longer fits in a
    float.  ``N0`` caps the series.  The powers that Paterson-Stockmeyer
    needs are then formed one product at a time and measured: ``r_k`` is
    ``norm(s**k)``, or ``r_(k-1) * t`` where that is smaller, rounded up to
    the smallest normal float.  After each power the series takes the
    smallest ``N`` below its current length whose
    :func:`_measured_tail_bound` is at most ``tol``, and powers are formed
    until there are ``isqrt(N)`` of them.  Returns ``(value, tail_bound)``:
    the measured bound that chose ``N``, or, when no measured ``N`` is
    shorter than ``N0``, the a-priori bound and the ``N0``-term series.
    """
    if t == 0:
        return instance.zero(), 0.0
    term_bound = t  # printed_coefficient(1) is 1
    n = 0
    while True:
        n += 1
        if n > SERIES_HARD_CAP:
            raise SeriesTruncationError(
                f"series needs more than {SERIES_HARD_CAP} terms at defect {t}"
            )
        try:
            next_bound = (
                term_bound * abs(printed_coefficient(n + 1)) / abs(printed_coefficient(n)) * t
            )
        except OverflowError as exc:
            raise SeriesTruncationError(
                f"series coefficient {n + 1} overflows a float before the tail "
                f"bound reaches {tol} at defect {t}"
            ) from exc
        if next_bound / (1 - 4 * t) <= tol:
            break
        term_bound = next_bound
    tail = next_bound / (1 - 4 * t)
    powers, r = [s], [1.0, t]
    while len(powers) < math.isqrt(n):
        powers.append(instance.mul(powers[-1], s))
        # capped first, so that a NaN norm leaves the a-priori bound
        r.append(max(min(r[-1] * t, float(instance.norm(powers[-1]))), sys.float_info.min))
        shorter = 1 + bisect.bisect_left(
            range(1, n), True, key=lambda m: _measured_tail_bound(r, m) <= tol
        )
        if shorter < n:
            n, tail = shorter, _measured_tail_bound(r, shorter)
    coefficients = [printed_coefficient(k) for k in range(1, n + 1)]
    return _paterson_stockmeyer(instance, powers, coefficients), tail


def _measured_tail_bound(r, n: int) -> float:
    """Bound on ``norm(sum_{m>n} printed_coefficient(m) * s**m)`` from bounds
    ``r[j]`` on ``norm(s**j)``, ``j <= k = len(r) - 1``, with ``r[0] = 1``.

    Submultiplicativity gives ``norm(s**m) <= r[k]**(m // k) * r[m % k]``,
    and the coefficients ``c(m)`` grow by a ratio below 4, so
    ``|c(m + k)| < 4**k * |c(m)|``.  Whenever ``4**k * r[k] < 1`` the tail
    is therefore at most ``sum_{m=n+1..n+k} |c(m)| * r[k]**(m // k) * r[m % k]``
    over ``1 - 4**k * r[k]`` (the measured-norm bound of Al-Mohy and
    Higham, SIAM J. Matrix Anal. Appl. 31, 2009); otherwise it is ``inf``.
    The terms are summed from logarithms, since a coefficient may pass the
    float range where a power of ``r[k]`` underflows.  Decreasing in ``n``.
    """
    k = len(r) - 1
    ratio = 4**k * r[k]
    if not ratio < 1:
        return math.inf
    log_r = [math.log(x) for x in r]
    terms = (
        math.exp(math.log(abs(printed_coefficient(m))) + m // k * log_r[k] + log_r[m % k])
        for m in range(n + 1, n + k + 1)
    )
    return math.fsum(terms) / (1 - ratio)


def _paterson_stockmeyer(instance: AlgebraInstance, powers, coefficients):
    """``sum_{n=1..N} coefficients[n - 1] * s**n`` in ``ceil(N / p) - 1``
    products, given ``powers = [s, s**2, .., s**p]``.

    Horner in ``s**p`` over the blocks
    ``sum_{i=1..p} coefficients[k + i - 1] * s**i``, ``k = 0, p, 2p, ...``;
    with ``p = isqrt(N)`` the powers take ``p - 1`` products more, about
    ``2 * sqrt(N)`` in all (Paterson and Stockmeyer, SIAM J. Comput. 2,
    1973).  Each block is accumulated in place: one scaled add per
    coefficient into the block's sum, not a new sum per coefficient.
    Exact instances keep integer coefficients.
    """
    degree, p = len(coefficients), len(powers)
    acc = None
    for start in range((degree - 1) // p * p, -1, -p):
        block = zip(coefficients[start : start + p], powers)
        if acc is None:
            acc = instance.int_scale(*next(block))
        else:
            acc = instance.mul(acc, powers[-1])
        # int_scale and add of the entrywise ring structure, into the array
        # this loop owns (a scalar is rebound instead)
        for c, w in block:
            acc += c * w
    return acc


def _newton_lift(instance: AlgebraInstance, e, e_sq, defect, x: float, tol: float):
    """Newton steps ``e <- e*e*(3 - 2e)`` from ``e``, given ``e_sq = e*e``,
    ``defect = norm(e*e - e) < 1/4`` and ``x = norm(2e - 1)``.

    With ``y = 2e - 1`` and ``s = e*e - e``, ``y*y = 1 + 4s`` and a step
    maps ``y`` to ``y*(1 - 2s)``.  So the limit ``(1 + sign(y)) / 2`` is the
    same at every step, within ``x * ((1 - 4t)**-0.5 - 1) / 2`` of the
    current ``e`` whenever ``norm(s) <= t``, and a step multiplies the
    bound ``x`` on ``norm(y)`` by ``1 + 2t``.  Here ``t`` is the defect
    measured on the ``e*e`` that the next step needs anyway, or the
    a-priori bound ``t*t*(3 + 4t)`` from the step before where that is
    smaller.  The loop stops once that distance and the measured defect
    are both at most ``tol``.  It also stops once the distance from the
    a-priori bounds alone is at most ``tol``: never later than the
    a-priori step count, where rounding holds the measured defect above
    ``tol``.  Returns ``(e, tail_bound, defect, steps)``; at 0 steps ``e``
    is the given object.
    """
    t = t_prior = float(defect)
    x_prior = x
    for steps in range(NEWTON_STEP_CAP + 1):
        tail = x * _inverse_sqrt_excess(t) / 2
        if tail <= tol and (
            defect <= tol or x_prior * _inverse_sqrt_excess(t_prior) / 2 <= tol
        ):
            return e, tail, defect, steps
        if steps == NEWTON_STEP_CAP:
            break
        if not steps:
            three = instance.int_scale(3, instance.one())
        e = instance.mul(e_sq, instance.sub(three, instance.int_scale(2, e)))
        e_sq = instance.mul(e, e)
        defect = instance.distance(e_sq, e)
        x *= 1 + 2 * t
        x_prior *= 1 + 2 * t_prior
        # rounded up to the smallest normal float rather than underflowing
        # to 0, so the bounds stay positive and upper bounds
        t = max(min(float(defect), t * t * (3 + 4 * t)), sys.float_info.min)
        t_prior = max(t_prior * t_prior * (3 + 4 * t_prior), sys.float_info.min)
    raise SeriesTruncationError(
        f"Newton lift needs more than {NEWTON_STEP_CAP} steps to reach {tol}"
    )


def lift_idempotent(
    instance: AlgebraInstance, a, variant: str, tol: float
) -> CertifiedIdempotent:
    """Polish an almost-idempotent ``a`` with ``norm(a*a - a) < 1/4``.

    With the defect ``s = a*a - a`` and ``t = norm(s)``:

    * ``"corrected"``: ``e = a + (2a - 1) * sum_n corrected_coefficient(n) * s**n``,
      evaluated by Newton steps ``e <- e*e*(3 - 2e)`` from ``e = a``.  Each
      step measures the new defect ``norm(e*e - e)`` on the ``e*e`` the
      next step needs, and the loop stops once that defect and the
      certified distance to the sum, computed from the measured defects,
      are both at most ``tol`` (see :func:`_newton_lift`); the last measured
      defect is the ``defect`` entry.  When no step is needed, ``e`` is
      ``a``: ``commute`` and both distance entries are then norms of the
      exact zero ``a - a``, recorded as that zero in the type of the
      instance's norm and not measured.
      Promises ``norm(e*e - e) <= tol``, commutation with ``a``, and
      ``norm(e - a) <= norm(2a - 1) * ((1 - 4t)**-0.5 - 1) / 2``.
    * ``"printed"``: ``e = a - sum_n printed_coefficient(n) * s**n``,
      truncated once a tail bound drops below ``tol``: the geometric tail
      (ratio ``4t``), or one from the measured norms of the powers of ``s``
      where that is shorter (see :func:`_series_sum`).
      The measured defect is recorded against ``tol`` but generally fails;
      the certificate is the evidence.

    The distance is certified against both the classical bound
    ``h(t) = (1 - sqrt(1 - 4t)) / 2`` and the prefactor-aware bound above;
    whichever bound does not belong to the chosen variant's series is
    recorded as advisory, and downstream acceptance keys on the
    prefactor-aware bound only.
    """
    return _lift(instance, a, instance.mul(a, a), variant, tol)[0]


def _lift(instance: AlgebraInstance, a, a_sq, variant: str, tol: float, defect=None):
    """:func:`lift_idempotent` of ``a`` given ``a_sq = a*a``.

    A caller that has already measured ``defect = norm(a_sq - a)`` passes
    it, and the defect ``s = a_sq - a`` is then formed only for the
    ``printed`` series, which reads it.  Returns ``(lifted, ea)``, where
    ``ea`` is the product ``e*a`` that the ``commute`` entry was measured
    on (``a_sq`` when ``e`` is ``a``).
    """
    if variant not in ("printed", "corrected"):
        raise PreconditionError(f"unknown lift variant {variant!r}")
    if defect is None or variant == "printed":
        s = instance.sub(a_sq, a)
    if defect is None:
        defect = instance.norm(s)
    t = float(defect)
    if not t < 0.25:
        raise PreconditionError(f"defect norm(a*a - a) = {t} is not below 1/4")
    x = float(instance.norm(instance.sub(instance.int_scale(2, a), instance.one())))
    if variant == "printed":
        del a_sq  # one n x n array fewer while the series holds its powers
        series, tail = _series_sum(instance, s, t, tol)
        e = instance.sub(a, series)
        defect = instance.distance(instance.mul(e, e), e)
        steps = None
    else:
        e, tail, defect, steps = _newton_lift(instance, a, a_sq, defect, x, tol)
    if steps == 0:  # e is a, so e*a = a*e = a*a and e - a is exactly 0
        ea = a_sq
        commute = dist = type(defect)(0)
    else:
        ea = instance.mul(e, a)
        commute = instance.distance(ea, instance.mul(a, e))
        dist = instance.distance(e, a)
    derived = x * _inverse_sqrt_excess(t) / 2
    cert = instance.certificate()
    cert.add("tail-bound", tail, tol)
    cert.add("defect", defect, tol)
    cert.add("commute", commute, tol)
    cert.add("distance-h", dist, h_bound(t), advisory=(variant == "corrected"))
    cert.add("distance-derived", dist, derived, advisory=(variant == "printed"))
    return CertifiedIdempotent(e, cert), ea


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
