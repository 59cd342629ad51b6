"""Heterogeneous Stirling numbers and Bell polynomials.

The heterogeneous family interpolates, through a deformation parameter
lam, between the Stirling-2/Bell world at lam = 0 and the Lah world at
lam = 1.  Probabilistic versions replace the plain integer argument by
the i.i.d. partial sums of a random variable Y and take expectations;
they are computable along three independent routes, which the test and
verification layers hold to exact agreement.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import RationalLike, binomial, factorial
from .distributions import (
    Distribution,
    deg_rising_moment,
    scaled_sum_deg_rising_moments,
    sum_deg_rising_moment,
    support_bound,
)
from .errors import (
    NonPositiveEvaluationPoint,
    ParseError,
    SeriesNotCertified,
    UnsupportedDistribution,
)
from .polynomial import Polynomial
from .triangles import partial_bell, stirling1u, triangle_entry


class Route(enum.Enum):
    """Independent computation routes for the probabilistic numbers."""

    DIRECT = "direct"  # alternating sum over partial-sum moments
    STIRLING_TRANSFORM = "stirling-transform"  # prob Stirling2 against deg Stirling1 weights
    PARTIAL_BELL = "partial-bell"  # partial Bell polynomial of single-copy moments


# memoised per entry as well: the benchmark reads cache_info() from it
@lru_cache(maxsize=None)
def hetero_stirling(n: int, k: int, lam: Fraction) -> Fraction:
    """Heterogeneous Stirling number, entry (n, k) of the (lam, 1) triangle.

    The paper defines it by the alternating sum (1/k!) sum_j (-1)**(k-j)
    C(k, j) <j>_{n,lam} of degenerate rising factorials; it is read here
    from the row recurrence S(n+1, k) = S(n, k-1) + (k + n*lam) S(n, k),
    which follows from x (x)_k = (x)_{k+1} + k (x)_k for the falling
    factorial (x)_k.  Equals stirling2 at lam = 0 and lah at lam = 1.
    """
    return triangle_entry(lam, 1, n, k)


def hetero_bell_poly(n: int, lam: RationalLike) -> Polynomial:
    """Heterogeneous Bell polynomial: coefficient k is hetero_stirling(n, k)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    lam = Fraction(lam)
    return Polynomial(hetero_stirling(n, k, lam) for k in range(n + 1))


# memoised per entry as well: the benchmark reads cache_info() from it
@lru_cache(maxsize=None)
def prob_stirling2(d: Distribution, n: int, k: int) -> Fraction:
    """Probabilistic Stirling number of the second kind: prob_hetero_stirling at lam = 0."""
    return prob_hetero_stirling(d, n, k, 0)


# memoised per entry as well: the benchmark reads cache_info() from it
@lru_cache(maxsize=None)
def prob_lah(d: Distribution, n: int, k: int) -> Fraction:
    """Probabilistic Lah number: prob_hetero_stirling at lam = 1."""
    return prob_hetero_stirling(d, n, k, 1)


@lru_cache(maxsize=None)
def _row(d: Distribution, n: int, lam: Fraction, route: Route) -> Polynomial:
    """Row n of the chosen route, coefficient k for k = 0..n; entries with k > n vanish."""
    if route is Route.DIRECT:
        # the paper's definition (1/k!) sum_j (-1)**(k-j) C(k, j) E<S_j>_{n,lam}, with
        # E<S_j>_{n,lam} = moments[j] / scale summed in integers
        moments, scale = scaled_sum_deg_rising_moments(d, range(n + 1), n, lam)
        return Polynomial(
            Fraction(
                sum((-1) ** (k - j) * binomial(k, j) * moments[j] for j in range(k + 1)),
                factorial(k) * scale,
            )
            for k in range(n + 1)
        )
    if route is Route.STIRLING_TRANSFORM:
        return Polynomial(
            sum(prob_stirling2(d, l, k) * stirling1u(n, l) * lam ** (n - l) for l in range(k, n + 1))
            for k in range(n + 1)
        )
    # PARTIAL_BELL: B_{n,k} of the single-copy moments E<Y>_{m,lam}, m = 1..n
    moments = [deg_rising_moment(d, m, lam) for m in range(1, n + 1)]
    return Polynomial(partial_bell(n, k, moments) for k in range(n + 1))


def prob_hetero_stirling(
    d: Distribution, n: int, k: int, lam: RationalLike, route: Route = Route.DIRECT
) -> Fraction:
    """Probabilistic heterogeneous Stirling number, by the chosen route.

    All routes agree exactly; they exist so the library can check itself.
    """
    if k < 0:
        raise ValueError("indices must be >= 0")
    return prob_hetero_bell_poly(d, n, lam, route).coeff(k)


def prob_hetero_bell_poly(
    d: Distribution, n: int, lam: RationalLike, route: Route = Route.DIRECT
) -> Polynomial:
    """Probabilistic heterogeneous Bell polynomial for the law d, by the chosen route.

    Returns the route's memoised row itself, which is safe: Polynomial is immutable.
    """
    if n < 0:
        raise ValueError("indices must be >= 0")
    if not isinstance(route, Route):
        raise ValueError(f"unknown route {route!r}")
    return _row(d, n, Fraction(lam), route)


def prob_hetero_bell_recurrence(d: Distribution, n_max: int, lam: RationalLike) -> list[Polynomial]:
    """Polynomials of order 0..n_max built by the moment-weighted recurrence.

    Each step multiplies by x a binomial convolution of single-copy
    degenerate rising moments against the earlier polynomials; an
    independent route to the same family as prob_hetero_bell_poly.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lam = Fraction(lam)
    x = Polynomial.x()
    out = [Polynomial.one()]
    for n in range(n_max):
        acc = Polynomial.zero()
        for k in range(n + 1):
            acc = acc + binomial(n, k) * deg_rising_moment(d, k + 1, lam) * out[n - k]
        out.append(x * acc)
    return out


def hetero_derivative(d: Distribution, n: int, lam: RationalLike, k: int) -> Polynomial:
    """k-th derivative of the order-n probabilistic heterogeneous Bell polynomial.

    Computed without differentiating: k! times the binomial convolution of
    lower-order polynomials against order-(n-j) probabilistic numbers.
    Requires 1 <= k <= n.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    lam = Fraction(lam)
    acc = Polynomial.zero()
    for j in range(n - k + 1):
        acc = acc + binomial(n, j) * prob_hetero_stirling(d, n - j, k, lam) * prob_hetero_bell_poly(
            d, j, lam
        )
    return factorial(k) * acc


_SERIES_TERM_CAP = 5_000  # the work grows about as x**3; x up to about 4,000 fits


def _ln(q: Fraction) -> float:
    """Natural logarithm of q > 0, also where float(q) would underflow or overflow."""
    return math.log(q.numerator) - math.log(q.denominator)


@dataclass(frozen=True)
class SeriesEvaluation:
    """Result of a truncated exponential-series evaluation."""

    value: float  # e**(-x) times the exact truncated sum, rounded once
    terms_used: int  # number of leading series terms summed
    partial_sum: Fraction  # exact truncated sum, before the e**(-x) factor
    rel_bound: float  # guaranteed bound on |value - exact| / |exact|


def dobinski_details(
    d: Distribution, n: int, lam: RationalLike, x: RationalLike, rel_tol: float = 1e-12
) -> SeriesEvaluation:
    """Evaluate the order-n polynomial at x > 0 through its Dobinski-type series.

    The series is e**(-x) sum_k E[<S_k>] x**k / k! with degenerate rising
    factorials inside the expectation.  Terms are summed exactly; the tail
    after truncation is dominated by a geometric majorant built from a
    support bound B of |Y|, |E[<S_k>]| <= (k*B + (n-1)|lam|)**n, so the
    reported error bound is sound, not heuristic.  At most 5,000 terms are
    summed; a series that cannot certify within them raises SeriesNotCertified,
    at once when the majorant still grows at the cap or its tail bound there
    exceeds the target times a bound on every partial sum.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bound = support_bound(d)
    if bound is None:
        raise UnsupportedDistribution(
            "series evaluation needs a bounded-support distribution"
        )
    x = Fraction(x)
    if x <= 0:
        raise NonPositiveEvaluationPoint(f"evaluation point must be > 0, got {x}")
    if not 0 < rel_tol < math.inf:
        raise ParseError(f"rel_tol must be positive and finite, got {rel_tol!r}")
    lam = Fraction(lam)
    spread = (n - 1) * abs(lam) if n >= 1 else Fraction(0)
    # stop once the truncation alone is well under rel_tol, leaving room
    # for the single float rounding at the end
    target = min(Fraction(rel_tol) / 2, Fraction(1, 4))
    # the majorant's ratio of term k+2 to term k+1, ((k+2)B+s)**n x / (((k+1)B+s)**n (k+2)),
    # falls with k, and so does the tail bound once the ratio is below 1; if the ratio is still
    # >= 1 at the last k, or the tail bound there is too large for any partial sum, no tail can
    # ever be certified (a majorant that is 0, with base**n == 0, needs no tail)
    base = _SERIES_TERM_CAP * bound + spread
    if base**n:
        ratio = (base + bound) ** n * x / (base**n * (_SERIES_TERM_CAP + 1))
        # the tail bound after the last term, base**n x**cap / cap! / (1 - ratio), is the least
        # the loop can reach, and base**n e**x bounds every |partial|; compared in logarithms,
        # with a margin of e for the float rounding
        if ratio >= 1 or (
            _SERIES_TERM_CAP * _ln(x) - math.lgamma(_SERIES_TERM_CAP + 1) - _ln(1 - ratio)
            > _ln(target) + float(x) + 1
        ):
            raise SeriesNotCertified(f"series needs more than {_SERIES_TERM_CAP} terms at x = {x}")

    partial = Fraction(0)
    weight = Fraction(1)  # x**k / k!
    any_term = False
    for k in range(_SERIES_TERM_CAP):
        term = sum_deg_rising_moment(d, k, n, lam) * weight
        any_term = any_term or term != 0
        partial += term
        weight *= x / (k + 1)
        base = (k + 1) * bound + spread
        first_omitted = base**n * weight
        if first_omitted == 0:
            tail = Fraction(0)
        else:
            ratio = (base + bound) ** n * x / (base**n * (k + 2))
            if ratio >= 1:
                continue
            tail = first_omitted / (1 - ratio)
        if tail == 0 and partial == 0:
            # identically zero series
            return SeriesEvaluation(0.0, k + 1, partial, 0.0)
        if partial != 0 and tail <= target * abs(partial):
            # partial = m * 2**s with 1/2 < |m| < 2 exactly; 2**s folds into the exponent
            # of e**(-x), and a value past about e**(+-700) is refused, not rounded to inf or 0
            s = abs(partial.numerator).bit_length() - partial.denominator.bit_length()
            exponent = s * math.log(2) - float(x)
            if abs(exponent) > 700:
                raise SeriesNotCertified(f"series value e**{exponent:.6g} is past the float range")
            value = float(partial / Fraction(2) ** s) * math.exp(exponent)
            # allowance: float rounding of m, exp and the product, the rounding
            # of the exponent, and its shift when x is not exactly representable
            rel = (
                float(tail / (abs(partial) - tail))
                + 1e-15
                + 2.0**-51 * (abs(s * math.log(2)) + abs(float(x)))
                + 1.01 * abs(float(Fraction(float(x)) - x))
            )
            return SeriesEvaluation(value, k + 1, partial, rel)
        if not any_term and k >= 64 + 4 * n:
            # e.g. a point mass at 0 with lam != 0: the limit is 0 but the
            # majorant stays positive, so no relative bound can be certified
            raise SeriesNotCertified("series terms are all zero; cannot certify a relative error")
    raise SeriesNotCertified(f"series failed to certify convergence within {_SERIES_TERM_CAP} terms")
