"""Order splitting: a polynomial of order n + m rebuilt from orders 0..m.

The expansion takes expectations E[<S + n*lam>_{m-k,lam} * prod_i <Y_i>_{l_i,lam}]
over i.i.d. copies Y_1..Y_j of one law, with S = Y_1 + ... + Y_j.  Because
the copies are independent, E[S**s * prod_i g_i(Y_i)] is s! times the
coefficient of z**s in prod_i E[exp(z*Y) g_i(Y)], a product of one-variable
series, each built from single-copy raw moments.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .arith import RationalLike, binomial, factorial, multinomial
from .distributions import Distribution, raw_moment
from .hetero import prob_hetero_bell_poly
from .polynomial import Polynomial
from .triangles import deg_rising_poly


def _moment_series(d: Distribution, part: int, m: int, lam: Fraction) -> Polynomial:
    """sum over e <= m of E[Y**e <Y>_{part,lam}] z**e / e!."""
    rising = deg_rising_poly(part, lam).coeffs
    return Polynomial(
        sum((c * raw_moment(d, e + a) for a, c in enumerate(rising)), Fraction(0)) / factorial(e)
        for e in range(m + 1)
    )


def compositions(n: int, j: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of j strictly positive integers summing to n."""
    if j == 0:
        if n == 0:
            yield ()
        return
    for first in range(1, n - j + 2):
        for rest in compositions(n - first, j - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _split_weights(d: Distribution, n: int, m: int, lam: Fraction) -> tuple[Polynomial, ...]:
    """Polynomials W_0..W_m in t with order_split_rhs = sum_k P_k(t) W_k(t), free of t's value.

    W_k = C(m, k) sum_j M[k][j] t**j / j!, where M[k][j] = sum_s c_s s! [z**s] inner_j reads the
    coefficients c of the outer factor <z + n*lam>_{m-k,lam} against the inner sum over compositions
    of n into j parts.  Each part size has one moment series, so inner_j is one polynomial in z.
    """
    one = Polynomial((1,))
    series = {part: _moment_series(d, part, m, lam) for part in range(1, n + 1)}
    inner = []
    for j in range(n + 1):
        by_parts = Polynomial()
        for ls in compositions(n, j):
            by_parts = by_parts + multinomial(n, ls) * math.prod((series[l] for l in ls), start=one)
        inner.append(by_parts)
    weights = []
    for k in range(m + 1):
        outer = math.prod((Polynomial(((n + i) * lam, 1)) for i in range(m - k)), start=one)
        weights.append(
            binomial(m, k)
            * Polynomial(
                sum(c * factorial(s) * by_parts.coeff(s) for s, c in enumerate(outer)) / factorial(j)
                for j, by_parts in enumerate(inner)
            )
        )
    return tuple(weights)


def order_split_rhs(
    d: Distribution, n: int, m: int, t: RationalLike, lam: RationalLike
) -> Fraction:
    """Order n + m polynomial value at t, rebuilt from orders 0..m.

    Double sum over j <= n and k <= m of binomial and t**j/j! weights,
    with an inner sum over strict compositions of n into j parts; the
    weights do not depend on t, so they are built once per (d, n, m, lam)
    by _split_weights.  Exactly equals evaluating the order-(n+m) polynomial at t.
    """
    if n < 0 or m < 0:
        raise ValueError("orders must be >= 0")
    t = Fraction(t)
    lam = Fraction(lam)
    d.require(n + m)  # a law short of order n + m raises here, before any memo has a key
    weights = _split_weights(d, n, m, lam)
    return sum((prob_hetero_bell_poly(d, k, lam)(t) * w(t) for k, w in enumerate(weights)), Fraction(0))
