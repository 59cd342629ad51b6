"""Independent reference implementations used only by the tests.

Deliberately different algorithms from the package under test: the
paper's alternating sums and partial Bell polynomials where the package
runs its row recurrence, brute-force enumeration instead of cached
convolution or series powers, explicit division instead of cancelled
factors.  A bug would have to appear in two unrelated derivations to slip
through.  The exceptions are stirling2_rec and stirling1u_rec, which run
the package's recurrence top-down; the benchmark reads them, and
stirling2_explicit is the independent check of stirling2.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations_with_replacement, product

from heterobell import (
    Bernoulli,
    Constant,
    FiniteSupport,
    MomentList,
    NonPositiveEvaluationPoint,
    ParseError,
    Poisson,
    SeriesEvaluation,
    SeriesNotCertified,
    UnsupportedDistribution,
    sum_deg_rising_moment,
)

# the package's cap, restated; a test holds the two equal
_SERIES_TERM_CAP = 5_000


def _ln(q: Fraction) -> float:
    return math.log(q.numerator) - math.log(q.denominator)


def _support_bound(d) -> Fraction | None:
    """A bound B with |Y| <= B almost surely, or None for a law with unbounded or unknown support."""
    if isinstance(d, Bernoulli):
        return Fraction(1)
    if isinstance(d, Constant):
        return abs(d.c)
    if isinstance(d, FiniteSupport):
        return max(abs(v) for v, _ in d.pairs)
    return None


def stirling2_rec(n: int, k: int, _memo={}) -> int:
    """Second-kind Stirling via the block recurrence."""
    if (n, k) in _memo:
        return _memo[(n, k)]
    if n == 0 and k == 0:
        v = 1
    elif n == 0 or k == 0 or k > n:
        v = 0
    else:
        v = k * stirling2_rec(n - 1, k) + stirling2_rec(n - 1, k - 1)
    _memo[(n, k)] = v
    return v


def stirling1u_rec(n: int, k: int, _memo={}) -> int:
    """Unsigned first-kind Stirling via the cycle recurrence."""
    if (n, k) in _memo:
        return _memo[(n, k)]
    if n == 0 and k == 0:
        v = 1
    elif n == 0 or k == 0 or k > n:
        v = 0
    else:
        v = stirling1u_rec(n - 1, k - 1) + (n - 1) * stirling1u_rec(n - 1, k)
    _memo[(n, k)] = v
    return v


def lah_closed(n: int, k: int) -> int:
    if n == 0 and k == 0:
        return 1
    if k == 0 or k > n:
        return 0
    return math.factorial(n) * math.comb(n - 1, k - 1) // math.factorial(k)


def stirling2_explicit(n: int, k: int) -> Fraction:
    """Second-kind Stirling by the alternating sum (1/k!) sum_j (-1)**(k-j) C(k,j) j**n."""
    acc = sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1))
    return Fraction(acc, math.factorial(k))


def partial_bell_rec(n: int, k: int, xs) -> Fraction:
    """B_{n,k} through the top-element recurrence, not the multi-index sum."""
    if n == 0 and k == 0:
        return Fraction(1)
    if k == 0 or k > n:
        return Fraction(0)
    acc = Fraction(0)
    for i in range(1, n - k + 2):
        acc += math.comb(n - 1, i - 1) * Fraction(xs[i - 1]) * partial_bell_rec(n - i, k - 1, xs)
    return acc


def partial_bell_multiindex(n: int, k: int, xs) -> Fraction:
    """B_{n,k} as the multi-index sum, enumerated by recursion.

    Sums n!/(l1!...lM!) * prod (x_i/i!)**l_i over multi-indices with
    sum l_i = k and sum i*l_i = n, where M = n - k + 1.
    """
    if n < 0 or k < 0:
        raise ValueError("partial_bell needs n >= 0 and k >= 0")
    if n == 0 and k == 0:
        return Fraction(1)
    if k == 0 or k > n:
        return Fraction(0)
    m = n - k + 1
    args = [Fraction(x) for x in xs[:m]]
    total = Fraction(0)

    def descend(i: int, count_left: int, weight_left: int, acc: Fraction) -> None:
        nonlocal total
        if i == 0:
            if count_left == 0 and weight_left == 0:
                total += acc
            return
        if weight_left < count_left or weight_left > count_left * i:
            return
        piece = args[i - 1] / math.factorial(i)
        term = acc
        for l in range(min(count_left, weight_left // i) + 1):
            descend(i - 1, count_left - l, weight_left - l * i, term)
            term = term * piece / (l + 1)

    descend(m, k, n, Fraction(1))
    return math.factorial(n) * total


def horner_fraction(poly, point) -> Fraction:
    """Evaluate by Horner's rule, in Fraction arithmetic term by term."""
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * point + c
    return acc


def rising(x, n: int, lam) -> Fraction:
    out = Fraction(1)
    x = Fraction(x)
    lam = Fraction(lam)
    for i in range(n):
        out *= x + i * lam
    return out


def hetero_via_bell(n: int, k: int, lam) -> Fraction:
    """Heterogeneous Stirling as a partial Bell polynomial of <1>_{m,lam}."""
    xs = [rising(1, m, lam) for m in range(1, n - k + 2)] if k else []
    return partial_bell_rec(n, k, xs)


def hetero_explicit(n: int, k: int, lam) -> Fraction:
    """Heterogeneous Stirling by the paper's alternating sum of <j>_{n,lam}."""
    acc = sum(
        ((-1) ** (k - j) * math.comb(k, j) * rising(j, n, lam) for j in range(k + 1)),
        Fraction(0),
    )
    return acc / math.factorial(k)


def deg_stirling1_div(n: int, k: int, lam) -> Fraction:
    """Degenerate first-kind number with the 1/lam division done literally.

    Only valid for lam != 0; the package cancels the factor instead.
    """
    lam = Fraction(lam)
    assert lam != 0
    c = [Fraction(0)] * (n + 1)
    for m in range(1, n + 1):
        gb = Fraction(1)
        for i in range(m):
            gb *= lam - i
        c[m] = -(gb / math.factorial(m)) * (-1) ** m / lam
    power = [Fraction(0)] * (n + 1)
    power[0] = Fraction(1)
    for _ in range(k):
        nxt = [Fraction(0)] * (n + 1)
        for i in range(n + 1):
            for m in range(1, n + 1 - i):
                nxt[i + m] += power[i] * c[m]
        power = nxt
    return power[n] * math.factorial(n) / math.factorial(k)


def poisson_moment_rec(alpha, n: int) -> Fraction:
    """Poisson raw moments by m_{j+1} = alpha * sum C(j,i) m_i."""
    alpha = Fraction(alpha)
    moms = [Fraction(1)]
    for j in range(n):
        moms.append(alpha * sum(math.comb(j, i) * moms[i] for i in range(j + 1)))
    return moms[n]


def finite_sum_moment(pairs, k: int, n: int, lam=0) -> Fraction:
    """E<S_k>_{n,lam} for a finite law by enumerating the multisets of k atoms.

    The multiset that takes atom i c_i times has probability k! prod p_i**c_i / c_i!
    and sum sum c_i v_i.  At lam = 0 this is the raw moment E[S_k**n].
    """
    acc = Fraction(0)
    for combo in combinations_with_replacement(range(len(pairs)), k):
        pr = Fraction(math.factorial(k))
        s = Fraction(0)
        for i, (v, p) in enumerate(pairs):
            c = combo.count(i)
            pr *= Fraction(p) ** c / math.factorial(c)
            s += c * Fraction(v)
        acc += pr * rising(s, n, lam)
    return acc


def bernoulli_sum_moment(p, k: int, n: int) -> Fraction:
    """E[S_k**n] via the binomial law of the count of successes."""
    p = Fraction(p)
    return sum(
        (
            math.comb(k, j) * p**j * (1 - p) ** (k - j) * Fraction(j) ** n
            for j in range(k + 1)
        ),
        Fraction(0),
    )


def bernoulli_sum_rising_moment(p, k: int, n: int, lam) -> Fraction:
    """E of the degenerate rising factorial of S_k, binomial law again."""
    p = Fraction(p)
    return sum(
        (
            math.comb(k, j) * p**j * (1 - p) ** (k - j) * rising(j, n, lam)
            for j in range(k + 1)
        ),
        Fraction(0),
    )


def prob_alternating(moment, n: int, k: int) -> Fraction:
    """Probabilistic number (n, k) by the paper's alternating sum.

    (1/k!) sum_j (-1)**(k-j) C(k, j) moment(j, n), where moment(j, n) is
    E<S_j>_{n,lam}, computed by the caller without the package.
    """
    acc = sum(
        ((-1) ** (k - j) * math.comb(k, j) * Fraction(moment(j, n)) for j in range(k + 1)),
        Fraction(0),
    )
    return acc / math.factorial(k)


def subs_constant(sp, value) -> Fraction:
    """A SymPoly with every variable replaced by the same rational value."""
    value = Fraction(value)
    acc = Fraction(0)
    for mono, c in sp.terms.items():
        term = c
        for e in mono:
            term *= value**e
        acc += term
    return acc


def finite_expect_monomials(terms, arity: int, pairs) -> Fraction:
    """Brute-force E of a sparse multivariate polynomial in i.i.d. finite atoms."""
    acc = Fraction(0)
    for combo in product(pairs, repeat=arity):
        pr = Fraction(1)
        for _, p in combo:
            pr *= Fraction(p)
        val = Fraction(0)
        for mono, coeff in terms.items():
            term = Fraction(coeff)
            for (v, _), e in zip(combo, mono):
                term *= Fraction(v) ** e
            val += term
        acc += pr * val
    return acc


def dobinski_fraction(d, n: int, lam, x, rel_tol: float = 1e-12) -> SeriesEvaluation:
    """The Dobinski-type series with its partial sum and weight x**k / k! in Fraction.

    The loop of hetero.dobinski_details before it moved to integers, term by
    term from sum_deg_rising_moment; the package holds the partial sum as an
    integer over k! q**k (b sigma)**n for x = p/q and tests its tail by
    cross-multiplying.  Both must give identical results, or raise the same
    exception.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    bound = _support_bound(d)
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


# Common laws reused across test modules.
BERN_HALF = Bernoulli(Fraction(1, 2))
BERN_THIRD = Bernoulli(Fraction(1, 3))
POISSON_ONE = Poisson(1)
CONST_ONE = Constant(1)
FS_ZERO_TWO = FiniteSupport(((Fraction(0), Fraction(1, 2)), (Fraction(2), Fraction(1, 2))))
TRIO = (CONST_ONE, BERN_HALF, POISSON_ONE)
