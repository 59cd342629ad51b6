"""Heterogeneous Stirling numbers and Bell polynomials.

The heterogeneous family interpolates, through a deformation parameter
lam, between the Stirling-2/Bell world at lam = 0 and the Lah world at
lam = 1.  Probabilistic versions replace the plain integer argument by
the i.i.d. partial sums of a random variable Y and take expectations;
they are computable along three independent routes, each in integers over
one denominator, which the test and verification layers hold to exact agreement.
"""
from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import RationalLike, Rows, binomial, factorial, times
from .distributions import (
    Distribution,
    scaled_deg_rising_moments,
    scaled_sum_deg_rising_moments,
)
from .errors import (
    NonPositiveEvaluationPoint,
    ParseError,
    SeriesNotCertified,
    UnsupportedDistribution,
)
from .polynomial import Polynomial
from .triangles import triangle_entry, triangle_row


class Route(enum.Enum):
    """Independent computation routes for the probabilistic numbers."""

    DIRECT = "direct"  # forward differences of the partial-sum moments
    STIRLING_TRANSFORM = "stirling-transform"  # prob Stirling2 against the coefficients of <x>_{n,lam}
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
    """Heterogeneous Bell polynomial: coefficient k is hetero_stirling(n, k), read as one row."""
    return Polynomial(triangle_row(lam, 1, n))


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
    d.require(n)  # a law short of order n raises here, before any memo has a key
    if route is Route.DIRECT:
        # the paper's definition (1/k!) sum_j (-1)**(k-j) C(k, j) E<S_j>_{n,lam} is the k-th
        # forward difference at j = 0 over k!; with E<S_j>_{n,lam} = moments[j] / scale, the
        # difference table of the integers moments[0..n] gives every k by subtractions
        moments, scale = scaled_sum_deg_rising_moments(d, n, lam)
        column, diffs = list(itertools.islice(moments, n + 1)), []
        while column:
            diffs.append(column[0])
            column = list(map(operator.sub, column[1:], column))
        return Polynomial(Fraction(v, factorial(k) * scale) for k, v in enumerate(diffs))
    if route is Route.STIRLING_TRANSFORM:
        # sum_l H_0(l, k) stirling1u(n, l) lam**(n-l): the lam = 0 PARTIAL_BELL rows H_0(l, .), entry k an
        # integer over sigma**l, weighed by the coefficients of <x>_{n,lam}, read as one stirling1u row
        a, b, sigma, rows = lam.numerator, lam.denominator, d.scale(), _bell_rows(d, n, Fraction(0))
        weights = [s * a ** (n - l) * b**l * sigma ** (n - l) for l, s in enumerate(triangle_row(1, 0, n))]
        totals = (sum(weights[l] * rows[l][k] for l in range(k, n + 1)) for k in range(n + 1))
        return Polynomial(Fraction(total, (b * sigma) ** n) for total in totals)
    # PARTIAL_BELL: B_{n,k} of the single-copy moments E<Y>_{m,lam}, m = 1..n, in integers over c**n
    rows, scale = _bell_rows(d, n, lam), lam.denominator * d.scale()
    return Polynomial(Fraction(v, scale**n) for v in rows[n])


@lru_cache(maxsize=None)
def _bell_memo(d: Distribution, lam: Fraction) -> Rows:
    """Rows m = 0, 1, ... of c**m B_{m,k}(E<Y>_{1,lam}, E<Y>_{2,lam}, ...) as int, c = b*sigma for lam = a/b,
    by the top-element recurrence B_{m,k} = sum_i C(m-1, i-1) x_i B_{m-i,k-1} (Comtet, Advanced
    Combinatorics, 1974, 3.3) on whole rows, Q_m = t sum_i C(m-1, i-1) u_i Q_{m-i} in t, with the
    u_i = c**i x_i drawn from one moment stream as the rows reach them."""
    moments = scaled_deg_rising_moments(d, lam)[0]
    us = Rows(lambda _: next(moments))

    def step(rows: Rows) -> tuple[int, ...]:
        m, u = len(rows), us.upto(len(rows))
        return _bell_step(rows, [binomial(m - 1, i - 1) * u[i] for i in range(1, m + 1)])

    return Rows(step, (1,))


def _bell_step(rows: list[tuple[int, ...]], weights: list[int]) -> tuple[int, ...]:
    """Row m = len(rows) of a top-element recurrence on whole rows: the sum over i = 1..m of
    weights[i-1] times row m-i shifted up by one power of t."""
    m = len(rows)
    row = [0] * (m + 1)
    for i, weight in enumerate(weights, 1):
        for k, v in enumerate(rows[m - i]):
            row[k + 1] += weight * v
    return tuple(row)


def _bell_rows(d: Distribution, n: int, lam: Fraction) -> Rows:
    """Rows 0..n, at least, of the memo of (d, lam); reading them one call at a time costs one pass."""
    return Rows.of(_bell_memo, d, lam).upto(n)


@lru_cache(maxsize=None)
def _values(d: Distribution, lam: Fraction, x: Fraction, s: int | None = None) -> Rows:
    """P_0(x), P_1(x), ..., the DIRECT rows of (d, lam) at x, keyed by (d, lam, x) alone; or, for s = 0 or 1,
    the partial Bell rows m of u_i = i**s P_{i-s}(x) as pairs: the integers R_{m,k} = m! c**m B_{m,k}(u),
    k = 0..m, and the B_{m,k}(u), for c = b*sigma*q at lam = a/b, x = p/q.  With w_i = c**i u_i, c**m
    B_{m,k}(u) = B_{m,k}(w), and the top-element recurrence (Comtet 1974, 3.3) gives R_{m,k} = sum_i
    C(m-1, i-1) C(m, i) W_i R_{m-i,k-1} for W_i = i! w_i, an integer: DIRECT row i is over k! (b*sigma)**i.
    """
    if s is None:
        return Rows(lambda values: _row(d, len(values), lam, Route.DIRECT)(x))
    values, c = _values(d, lam, x), lam.denominator * d.scale() * x.denominator

    def step(rows: Rows) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        m, at_x = len(rows), values.upto(len(rows) - s)
        big_ws = [i**s * times(at_x[i - s], factorial(i) * c**i) for i in range(1, m + 1)]  # W_i
        weights = [binomial(m - 1, i - 1) * binomial(m, i) * w for i, w in enumerate(big_ws, 1)]
        scaled, den = _bell_step([ints for ints, _ in rows], weights), factorial(m) * c**m
        return scaled, tuple(Fraction(v, den) for v in scaled)

    return Rows(step, ((1,), (Fraction(1),)))


def _direct_values(d: Distribution, n: int, lam: Fraction, x: Fraction) -> Rows:
    """Values at x of the DIRECT rows 0..n, at least, of (d, lam), in the memo's own list."""
    d.require(n)  # a law short of order n raises here, before _values has a key
    return Rows.of(_values, d, lam, x).upto(n)


def _value_bell_row(d: Distribution, n: int, lam: Fraction, x: Fraction, s: int) -> tuple[Fraction, ...]:
    """B_{n,k}(u) for k = 0..n, with u_i = P_i(x) (s = 0) or u_i = i P_{i-1}(x) (s = 1)."""
    d.require(max(n - s, 0))  # u_1..u_n read P_0(x)..P_{n-s}(x)
    return Rows.of(_values, d, lam, x, s).upto(n)[n][1]


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
    # a warm call is a memo lookup, so a lam that already is a Fraction is not rebuilt
    return _row(d, n, lam if type(lam) is Fraction else Fraction(lam), route)


def prob_hetero_bell_recurrence(d: Distribution, n_max: int, lam: RationalLike) -> list[Polynomial]:
    """Polynomials of order 0..n_max built by the moment-weighted recurrence.

    Each step multiplies by x a binomial convolution of single-copy degenerate rising moments
    against the earlier polynomials: the rows of the PARTIAL_BELL route, independent of DIRECT.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    lam = Fraction(lam)
    return [_row(d, n, lam, Route.PARTIAL_BELL) for n in range(n_max + 1)]


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


_SERIES_TERM_CAP = 5_000  # x up to about 4,500 fits at n = 1


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
    factorials inside the expectation.  Terms come from the partial-sum engine
    and are summed exactly, in integers over one denominator; the tail
    after truncation is dominated by a geometric majorant built from a
    support bound B of |Y|, |E[<S_k>]| <= (k*B + (n-1)|lam|)**n, so the
    reported error bound is sound, not heuristic.  At most 5,000 terms are
    summed; a series that cannot certify within them raises SeriesNotCertified,
    at once when the majorant still grows at the cap or its tail bound there
    exceeds the target times a bound on every partial sum.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bound = d.bound()
    if bound is None:
        raise UnsupportedDistribution("series evaluation needs a bounded-support distribution")
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

    # for x = p/q and E<S_k>_{n,lam} = M_k / scale, terms 0..k sum to numer / (k! q**k scale)
    p, q = x.numerator, x.denominator
    moments, scale = scaled_sum_deg_rising_moments(d, n, lam)
    unit = math.lcm(bound.denominator, spread.denominator)
    b_scaled, s_scaled = int(bound * unit), int(spread * unit)
    numer, power, any_term = 0, 1, False
    for k, moment in zip(range(_SERIES_TERM_CAP), moments):
        any_term = any_term or moment != 0
        if k == n and not any_term:
            # E<S_k>_{n,lam} is a polynomial in k of degree <= n, so zero at k = 0..n is zero at every k
            return SeriesEvaluation(0.0, n + 1, Fraction(0), 0.0)
        numer = numer * k * q + moment * power
        power *= p  # p**(k+1)
        base_scaled = (k + 1) * b_scaled + s_scaled  # unit * base
        # the majorant's ratio of term k+2 to term k+1 is ratio_num / ratio_den
        ratio_num, ratio_den = (base_scaled + b_scaled) ** n * p, base_scaled**n * q * (k + 2)
        if base_scaled**n and ratio_num >= ratio_den:
            continue
        # tail = base**n x**(k+1) / (k+1)! / (1 - ratio) = tail_num / (unit**n q**(k+1) (k+1)! gap);
        # a majorant of 0 (base**n == 0, so ratio_num == ratio_den == 0) has tail 0
        tail_num, gap = base_scaled**n * power * ratio_den, (ratio_den - ratio_num) or 1
        if tail_num == 0 and numer == 0:  # identically zero series
            return SeriesEvaluation(0.0, k + 1, Fraction(0), 0.0)
        # tail <= target |partial|, cross-multiplied and with k! q**k cancelled
        if numer != 0 and tail_num * target.denominator * scale <= (
            target.numerator * abs(numer) * unit**n * q * (k + 1) * gap
        ):
            partial = Fraction(numer, factorial(k) * q**k * scale)
            tail = Fraction(tail_num, unit**n * q ** (k + 1) * factorial(k + 1) * gap)
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
    raise SeriesNotCertified(f"series failed to certify convergence within {_SERIES_TERM_CAP} terms")
