"""Classical combinatorial triangles and Bell polynomial machinery.

The five deterministic triangles obey one two-term recurrence,

    T(0, 0) = 1,    T(m+1, k) = T(m, k-1) + (a*m + b*k) * T(m, k),

with weights (a, b) = (0, 1) for stirling2, (1, 0) for stirling1u, (1, 1)
for lah, (lam, 1) for the heterogeneous numbers and (1, -lam) for
deg_stirling1.  One memo, an arith.Rows, holds the rows of each weight
pair, grown a row at a time and kept for the life of the process.  With q
the least common denominator of a and b, the rows are stored as the integers
q**n * T(n, k), so the recurrence never builds a Fraction; the classical
families (q = 1) hold their entries as int, the lam families return Fraction.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .arith import RationalLike, Rows, factorial, times
from .errors import InsufficientSequence
from .polynomial import Polynomial


@lru_cache(maxsize=None)
def _rows(a: int, b: int, q: int) -> Rows:
    """The memo of the (a/q, b/q) triangle: rows 0, 1, ... of U(n, k) = q**n * T(n, k), appended in a
    loop, never by recursion, by the scaled recurrence U(m+1, k) = q*U(m, k-1) + (a*m + b*k)*U(m, k)."""

    def step(rows: Rows) -> tuple[int, ...]:
        m = len(rows) - 1
        row = [0] * (m + 2)
        for k, v in enumerate(rows[m]):
            row[k] += (a * m + b * k) * v
            row[k + 1] += q * v
        return tuple(row)

    return Rows(step, (1,))


def _row(a: int, b: int, q: int, n: int) -> tuple[int, ...]:
    """Row n of the triangle with weights (a/q, b/q), scaled by q**n."""
    # the memo is looked up with no lock: racing first reads may each grow a Rows, all of them equal
    if n < 0:
        raise ValueError("triangle indices must be >= 0")
    return _rows(a, b, q).upto(n)[n]


def _entry(a: int, b: int, q: int, n: int, k: int) -> int:
    if n < 0 or k < 0:
        raise ValueError("triangle indices must be >= 0")
    return _row(a, b, q, n)[k] if k <= n else 0


def _weights(a: RationalLike, b: RationalLike) -> tuple[int, int, int]:
    """(q*a, q*b, q), with q the least common denominator of the weights a and b."""
    # an int or a Fraction is read as it is; other numbers go through Fraction
    a = a if type(a) is int or type(a) is Fraction else Fraction(a)
    b = b if type(b) is int or type(b) is Fraction else Fraction(b)
    q = math.lcm(a.denominator, b.denominator)
    return times(a, q), times(b, q), q


def triangle_row(a: RationalLike, b: RationalLike, n: int) -> Sequence[RationalLike]:
    """Row n (entries k = 0..n) of the triangle with rational weights (a, b): the
    memo's own tuple of int when both weights are integers, else one Fraction per entry."""
    a, b, q = _weights(a, b)
    row, den = _row(a, b, q, n), q**n
    return row if q == 1 else [Fraction(v, den) for v in row]


def triangle_entry(a: RationalLike, b: RationalLike, n: int, k: int) -> Fraction:
    """Entry (n, k) of the triangle with rational weights (a, b)."""
    a, b, q = _weights(a, b)
    return Fraction(_entry(a, b, q, n, k), q**n)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind (set partitions into k blocks)."""
    return _entry(0, 1, 1, n, k)


def stirling1u(n: int, k: int) -> int:
    """Unsigned Stirling number of the first kind (permutations with k cycles)."""
    return _entry(1, 0, 1, n, k)


def lah(n: int, k: int) -> int:
    """Lah number (ordered set partitions into k lists)."""
    return _entry(1, 1, 1, n, k)


def deg_stirling1(n: int, k: int, lam: RationalLike) -> Fraction:
    """Degenerate unsigned Stirling number of the first kind.

    Coefficient n! [t**n] of (1/k!) ((1 - (1-t)**lam)/lam)**k, read from
    the (1, -lam) triangle: S(n+1, k) = S(n, k-1) + (n - k*lam) S(n, k).
    At lam = 0 this is stirling1u; at lam = 1 the triangle is the identity.
    """
    return triangle_entry(1, -Fraction(lam), n, k)


def partial_bell(n: int, k: int, xs: Sequence[RationalLike]) -> Fraction:
    """Partial (incomplete) exponential Bell polynomial B_{n,k}(x1, x2, ...).

    Equals (n!/k!) [t**n] G(t)**k with G(t) = sum x_i t**i / i! (Comtet 1974, 3.3);
    q*G, with q the common denominator, is raised to the k-th power in integers.
    Needs at least M = n - k + 1 leading entries of xs (indexed from x1).
    """
    if n < 0 or k < 0:
        raise ValueError("partial_bell needs n >= 0 and k >= 0")
    if n == 0 and k == 0:
        return Fraction(1)
    if k == 0 or k > n:
        return Fraction(0)
    m = n - k + 1
    if len(xs) < m:
        raise InsufficientSequence(f"need {m} sequence entries, got {len(xs)}")
    # x_i / i! = p_i / d_i, unreduced, and q the lcm of the d_i: no Fraction is built per entry
    xs = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in xs[:m]]
    dens = [x.denominator * factorial(i) for i, x in enumerate(xs, start=1)]
    q = math.lcm(*dens)
    a = [x.numerator * (q // d) for x, d in zip(xs, dens)]  # a[s]: coefficient of t**(s+1) in q*G
    # coefficients of t**j .. t**(j+m-1) in (q*G)**j, from j = 0 up to j = k; entry s of the next
    # power is sum_i power[i] a[s - i], and a_rev[m-1-s:] holds a[s], a[s-1], ..., a[0]
    power, a_rev = [1] + [0] * (m - 1), a[::-1]
    for _ in range(k):
        power = [sum(map(operator.mul, power, a_rev[m - 1 - s :])) for s in range(m)]
    return Fraction(factorial(n) * power[m - 1], factorial(k) * q**k)


def complete_bell(n: int, xs: Sequence[RationalLike]) -> Fraction:
    """Complete exponential Bell polynomial: sum of partial_bell over k."""
    if n < 0:
        raise ValueError("complete_bell needs n >= 0")
    if len(xs) < n:
        raise InsufficientSequence(f"need {n} sequence entries, got {len(xs)}")
    return sum((partial_bell(n, k, xs) for k in range(n + 1)), Fraction(0))


def bell_poly(n: int) -> Polynomial:
    """Bell (Touchard) polynomial: coefficients are the stirling2 row."""
    return Polynomial(_row(0, 1, 1, n))


@lru_cache(maxsize=None)
def deg_rising_poly(n: int, lam: Fraction) -> Polynomial:
    """The degenerate rising factorial <x>_{n,lam} = x(x + lam)(x + 2*lam)...(x + (n-1)*lam) as a
    polynomial in x: coefficient l is stirling1u(n, l) lam**(n-l), read from the stirling1u row."""
    if n < 0:
        raise ValueError("deg_rising_poly needs n >= 0")
    lam = Fraction(lam)
    return Polynomial(s * lam ** (n - l) for l, s in enumerate(_row(1, 0, 1, n)))


def lah_bell_poly(n: int) -> Polynomial:
    """Lah-Bell polynomial: coefficients are the Lah row."""
    return Polynomial(_row(1, 1, 1, n))
