"""Exact scalar combinatorics, and the rows memo that every row recurrence grows.

Nothing here ever rounds.  Integer-valued quantities (factorials,
binomials) are returned as plain ints, which mix freely with Fraction
arithmetic.  The degenerate rising factorial and the dot product multiply integers
over a common denominator and build one Fraction at the end.
"""
from __future__ import annotations

import math
import re
import threading
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import ParseError, PartsMismatch

RationalLike = Union[Fraction, int]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or an integer literal; anything else is a ParseError."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ParseError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator: {text!r}") from None
    except ValueError:  # more digits than Python converts from a string (sys.get_int_max_str_digits)
        raise ParseError(f"rational literal of {len(s)} characters has too many digits") from None


def format_rational(q: RationalLike) -> str:
    """Render exactly as 'num/den', or plain 'num' when the denominator is 1."""
    # an int or a Fraction already prints so; only other numbers go through Fraction
    return str(q) if type(q) is int or type(q) is Fraction else str(Fraction(q))


def factorial(n: int) -> int:
    return math.factorial(n)


def times(q: Fraction, m: int) -> int:
    """q * m as an int, for an integer m that the denominator of q divides."""
    whole, rest = divmod(m, q.denominator)
    if rest:
        raise ValueError(f"{q} * {m} is not an integer")
    return q.numerator * whole


def dot(*factors: Iterable[RationalLike]) -> Fraction:
    """sum_i prod_f factors[f][i], exactly.  The factors must have one length; no terms give 0.

    Each product is an integer over the product of its denominators; the products are
    summed as integers over the lcm of those, and one Fraction is built from the total.
    """
    nums, dens = [], []
    for terms in zip(*factors, strict=True):
        num = den = 1
        for q in terms:
            num *= q.numerator
            den *= q.denominator
        nums.append(num)
        dens.append(den)
    common = math.lcm(*dens)
    return Fraction(sum(num * (common // den) for num, den in zip(nums, dens)), common)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n, k >= 0; zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial needs n >= 0 and k >= 0")
    return math.comb(n, k)


def multinomial(n: int, parts: Sequence[int]) -> int:
    """n! / (parts[0]! * parts[1]! * ...); parts must be >= 0 and sum to n."""
    if n < 0 or any(p < 0 for p in parts):
        raise ValueError("multinomial needs nonnegative arguments")
    if sum(parts) != n:
        raise PartsMismatch(f"parts {list(parts)} do not sum to {n}")
    out = math.factorial(n)
    for p in parts:
        out //= math.factorial(p)
    return out


def deg_rising_factorial(x: RationalLike, n: int, lam: RationalLike) -> Fraction:
    """x(x + lam)(x + 2*lam)...(x + (n-1)*lam); the empty product (n=0) is 1.

    At lam = 0 this is x**n; at lam = 1 the ordinary rising factorial.
    """
    if n < 0:
        raise ValueError("deg_rising_factorial needs n >= 0")
    # x = p/q, lam = a/b: the product of (b*p + i*a*q) over (b*q)**n
    start, step = lam.denominator * x.numerator, lam.numerator * x.denominator
    out = 1
    for i in range(n):
        out *= start + i * step
    return Fraction(out, (lam.denominator * x.denominator) ** n)


class Rows(list):
    """Rows 0, 1, ... of one memo, each made once, in order, by step(rows) from the rows before it.

    A memo is an lru_cache factory that returns its Rows.  upto(n) grows them under the memo's
    own lock, and a row already made is read with no lock.  Two first reads of one key racing
    at once could each make a Rows; a memo that must stay one object is read through of().
    """

    _made = threading.Lock()

    def __init__(self, step: Callable[[list], object], *first):
        super().__init__(first)
        self.step, self.lock = step, threading.Lock()

    def upto(self, n: int) -> Rows:
        """The rows themselves, grown to hold rows 0..n; a step that raises adds no row."""
        if len(self) <= n:
            with self.lock:
                while len(self) <= n:
                    self.append(self.step(self))
        return self

    @classmethod
    def of(cls, memo: Callable[..., Rows], *key) -> Rows:
        """memo(*key), looked up under one lock, so that racing first reads of a key share one Rows."""
        with cls._made:
            return memo(*key)
