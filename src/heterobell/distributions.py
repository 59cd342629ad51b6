"""Distributions as exact raw-moment oracles.

A distribution here is a small frozen value object that can produce the
raw moment E[Y**n] as an exact rational.  On top of that sit the moments
of i.i.d. partial sums S_k = Y_1 + ... + Y_k (S_0 = 0), computed by a
cached binomial convolution, and their degenerate-rising-factorial
counterparts.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .arith import RationalLike, binomial, format_rational, parse_rational
from .errors import MomentUnavailable, ParseError
from .polynomial import deg_rising_poly
from .triangles import stirling2


@dataclass(frozen=True)
class Bernoulli:
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class Poisson:
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"Poisson rate must be positive, got {self.alpha}")


@dataclass(frozen=True)
class Constant:
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))


@dataclass(frozen=True)
class FiniteSupport:
    """Finitely supported law given as (value, probability) pairs.

    Values may be negative; probabilities must be nonnegative and sum to 1.
    The pairs are stored sorted by value, equal values merged and atoms of
    probability 0 dropped, so two spellings of one law compare, hash and print as one.
    """

    pairs: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        norm = [(Fraction(v), Fraction(p)) for v, p in self.pairs]
        if not norm:
            raise ValueError("FiniteSupport needs at least one atom")
        if any(p < 0 for _, p in norm):
            raise ValueError("FiniteSupport probabilities must be nonnegative")
        if sum(p for _, p in norm) != 1:
            raise ValueError("FiniteSupport probabilities must sum to 1")
        merged: dict[Fraction, Fraction] = {}
        for v, p in norm:
            if p > 0:
                merged[v] = merged.get(v, Fraction(0)) + p
        object.__setattr__(self, "pairs", tuple(sorted(merged.items())))


@dataclass(frozen=True)
class MomentList:
    """Law known only through a finite list of raw moments, mu[0] = 1."""

    mu: tuple[Fraction, ...]

    def __post_init__(self):
        norm = tuple(Fraction(m) for m in self.mu)
        object.__setattr__(self, "mu", norm)
        if not norm or norm[0] != 1:
            raise ValueError("moment list must start with the order-0 moment 1")


Distribution = Bernoulli | Poisson | Constant | FiniteSupport | MomentList


@lru_cache(maxsize=None)
def raw_moment(d: Distribution, n: int) -> Fraction:
    """E[Y**n], exactly.  MomentUnavailable when the law cannot supply it."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    match d:
        case Bernoulli(p):
            return Fraction(1) if n == 0 else p
        case Poisson(alpha):
            # Touchard expansion over set partitions
            return sum((stirling2(n, k) * alpha**k for k in range(n + 1)), Fraction(0))
        case Constant(c):
            return c**n
        case FiniteSupport(pairs):
            return sum((p * v**n for v, p in pairs), Fraction(0))
        case MomentList(mu):
            if n >= len(mu):
                raise MomentUnavailable(
                    f"moment of order {n} requested, only {len(mu) - 1} supplied"
                )
            return mu[n]
    raise TypeError(f"not a distribution: {d!r}")


# law -> rows k = 0, 1, ... of E[S_k**n] for n = 0, 1, ...; lists only ever grow
_SUM_MOMENTS: dict[Distribution, list[list[Fraction]]] = {}
_SUM_MOMENTS_LOCK = threading.Lock()


def sum_raw_moment(d: Distribution, k: int, n: int) -> Fraction:
    """E[S_k**n] for S_k the sum of k i.i.d. copies of Y.

    Row k is the binomial convolution of row k-1 with the raw moments of Y
    (split off the last summand); a miss fills only the missing entries.
    """
    if k < 0 or n < 0:
        raise ValueError("indices must be >= 0")
    rows = _SUM_MOMENTS.get(d)
    if rows is not None and k < len(rows) and n < len(rows[k]):
        return rows[k][n]
    with _SUM_MOMENTS_LOCK:
        rows = _SUM_MOMENTS.setdefault(d, [])
        for kk in range(k + 1):
            if kk == len(rows):
                rows.append([])
            row = rows[kk]
            while len(row) <= n:
                nn = len(row)
                if kk == 0:
                    row.append(Fraction(1) if nn == 0 else Fraction(0))
                else:
                    prev = rows[kk - 1]
                    terms = (binomial(nn, i) * raw_moment(d, i) * prev[nn - i] for i in range(nn + 1))
                    row.append(sum(terms, Fraction(0)))
        return rows[k][n]


@lru_cache(maxsize=None)
def deg_rising_moment(d: Distribution, n: int, lam: Fraction) -> Fraction:
    """E of the degenerate rising factorial of Y itself."""
    poly = deg_rising_poly(n, Fraction(lam))
    return sum((c * raw_moment(d, i) for i, c in enumerate(poly.coeffs)), Fraction(0))


@lru_cache(maxsize=None)
def sum_deg_rising_moment(d: Distribution, k: int, n: int, lam: Fraction) -> Fraction:
    """E of the degenerate rising factorial of the partial sum S_k."""
    poly = deg_rising_poly(n, Fraction(lam))
    return sum((c * sum_raw_moment(d, k, i) for i, c in enumerate(poly.coeffs)), Fraction(0))


def support_bound(d: Distribution) -> Fraction | None:
    """A bound B with |Y| <= B almost surely, or None if unbounded/unknown."""
    match d:
        case Bernoulli():
            return Fraction(1)
        case Constant(c):
            return abs(c)
        case FiniteSupport(pairs):
            return max(abs(v) for v, _ in pairs)
    return None


def parse_distribution(text: str) -> Distribution:
    """Parse the CLI distribution syntax.

    bernoulli:<p> | poisson:<alpha> | const:<c> |
    finite:v1:p1,v2:p2,... | moments:m1,m2,...  (all numbers 'a/b' or ints;
    a moment list starts at order 0, so m1 must be 1)
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"missing parameters in distribution {text!r}")
    try:
        if head == "bernoulli":
            return Bernoulli(parse_rational(rest))
        if head == "poisson":
            return Poisson(parse_rational(rest))
        if head == "const":
            return Constant(parse_rational(rest))
        if head == "finite":
            pairs = []
            for chunk in rest.split(","):
                v, sep2, p = chunk.partition(":")
                if not sep2:
                    raise ParseError(f"finite atom needs value:prob, got {chunk!r}")
                pairs.append((parse_rational(v), parse_rational(p)))
            return FiniteSupport(tuple(pairs))
        if head == "moments":
            return MomentList(tuple(parse_rational(m) for m in rest.split(",")))
    except ValueError as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"invalid distribution {text!r}: {exc}") from None
    raise ParseError(f"unknown distribution family {head!r}")


def format_distribution(d: Distribution) -> str:
    """Inverse of parse_distribution."""
    match d:
        case Bernoulli(p):
            return f"bernoulli:{format_rational(p)}"
        case Poisson(alpha):
            return f"poisson:{format_rational(alpha)}"
        case Constant(c):
            return f"const:{format_rational(c)}"
        case FiniteSupport(pairs):
            body = ",".join(f"{format_rational(v)}:{format_rational(p)}" for v, p in pairs)
            return f"finite:{body}"
        case MomentList(mu):
            return "moments:" + ",".join(format_rational(m) for m in mu)
    raise TypeError(f"not a distribution: {d!r}")
