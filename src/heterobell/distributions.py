"""Distributions as exact raw-moment oracles.

A distribution here is a small frozen value object that can produce the
raw moment E[Y**n] as an exact rational.  On top of that sit the moments
of i.i.d. partial sums S_k = Y_1 + ... + Y_k (S_0 = 0) and their
degenerate-rising-factorial counterparts.  Every reader of the partial sums
takes them in order, k = 0, 1, 2, ..., so they come from one stream of cached
rows: row k is the binomial convolution of row k-1 with the moments of Y, and
a row is extended to a higher order only when the stream reaches it.  Each
law has an integer scale sigma with sigma**n * E[Y**n] integral, so the
convolution runs on the integers sigma**n * E[S_k**n] and a Fraction is
built only for a value handed out.
"""
from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import ClassVar, Iterator

from .arith import format_rational, parse_rational, times
from .errors import MomentUnavailable, ParseError
from .triangles import stirling2


# spec head -> law class, filled as each class is defined
_LAWS: dict[str, type[Distribution]] = {}


class Distribution:
    """Base of every law, a frozen dataclass(eq=False) registered under its spec head.

    A law carries moment(n) = E[Y**n]; scale(), an integer sigma with sigma**n *
    E[Y**n] integral for every n; bound(), a B with |Y| <= B almost surely, or None;
    and the parse and format of its spec after "head:".  The defaults serve a law
    of one rational field.  Laws are memo keys everywhere, and rehashing or comparing
    the dozens of Fractions of a MomentList on every lookup dominated the cost of a
    cache hit, also through a second, equal instance; so a law hashes its fields once.
    """

    head: ClassVar[str]

    def __init_subclass__(cls, head: str, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.head = head
        _LAWS[head] = cls

    @cached_property
    def _key(self) -> tuple[int, str]:
        # the hash dataclass would give, and the repr of the fields; it depends only on
        # the numbers, so a cached key stays valid across pickle, copy and processes, and
        # as the Fractions are in lowest terms, two laws of one type are equal exactly
        # when their keys are, compared without Fraction arithmetic
        values = tuple(getattr(self, f.name) for f in fields(self))
        return hash(values), repr(values)

    def __hash__(self) -> int:
        return self._key[0]

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key == other._key

    @cached_property
    def _spec(self) -> str:
        return f"{self.head}:{self.format()}"

    def _value(self) -> Fraction:
        cls = self.__class__
        if "_first_field" not in cls.__dict__:  # the name of the first field, read once per class
            cls._first_field = fields(cls)[0].name
        return getattr(self, cls._first_field)

    def moment(self, n: int) -> Fraction:
        raise NotImplementedError

    def scale(self) -> int:
        return self._value().denominator

    def bound(self) -> Fraction | None:
        return None

    @classmethod
    def parse(cls, text: str) -> Distribution:
        return cls(parse_rational(text))

    def format(self) -> str:
        return format_rational(self._value())


@dataclass(frozen=True, eq=False)
class Bernoulli(Distribution, head="bernoulli"):
    p: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        if not 0 <= self.p <= 1:
            raise ValueError(f"Bernoulli parameter must lie in [0, 1], got {self.p}")

    def moment(self, n: int) -> Fraction:
        return Fraction(1) if n == 0 else self.p

    def bound(self) -> Fraction:
        return Fraction(1)


@dataclass(frozen=True, eq=False)
class Poisson(Distribution, head="poisson"):
    alpha: Fraction

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha <= 0:
            raise ValueError(f"Poisson rate must be positive, got {self.alpha}")

    def moment(self, n: int) -> Fraction:
        # Touchard expansion over set partitions: for alpha = a/b,
        # b**n E[Y**n] = sum_k S(n, k) a**k b**(n-k), an integer
        a, b = self.alpha.numerator, self.alpha.denominator
        return Fraction(sum(stirling2(n, k) * a**k * b ** (n - k) for k in range(n + 1)), b**n)


@dataclass(frozen=True, eq=False)
class Constant(Distribution, head="const"):
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))

    def moment(self, n: int) -> Fraction:
        return self.c**n

    def bound(self) -> Fraction:
        return abs(self.c)


@dataclass(frozen=True, eq=False)
class FiniteSupport(Distribution, head="finite"):
    """Finitely supported law given as (value, probability) pairs, spelled v1:p1,v2:p2,...

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

    def moment(self, n: int) -> Fraction:
        return sum((p * v**n for v, p in self.pairs), Fraction(0))

    def scale(self) -> int:
        values, probs = zip(*self.pairs)
        return math.lcm(*(p.denominator for p in probs)) * math.lcm(*(v.denominator for v in values))

    def bound(self) -> Fraction:
        return max(abs(v) for v, _ in self.pairs)

    @classmethod
    def parse(cls, text: str) -> FiniteSupport:
        pairs = []
        for chunk in text.split(","):
            v, sep, p = chunk.partition(":")
            if not sep:
                raise ParseError(f"finite atom needs value:prob, got {chunk!r}")
            pairs.append((parse_rational(v), parse_rational(p)))
        return cls(tuple(pairs))

    def format(self) -> str:
        return ",".join(f"{format_rational(v)}:{format_rational(p)}" for v, p in self.pairs)


@dataclass(frozen=True, eq=False)
class MomentList(Distribution, head="moments"):
    """Law known only through a finite list of raw moments, mu[0] = 1, spelled m0,m1,..."""

    mu: tuple[Fraction, ...]

    def __post_init__(self):
        norm = tuple(Fraction(m) for m in self.mu)
        object.__setattr__(self, "mu", norm)
        if not norm or norm[0] != 1:
            raise ValueError("moment list must start with the order-0 moment 1")

    def moment(self, n: int) -> Fraction:
        if n >= len(self.mu):
            supplied = len(self.mu) - 1
            raise MomentUnavailable(f"moment of order {n} requested, only {supplied} supplied")
        return self.mu[n]

    def scale(self) -> int:
        return math.lcm(*(m.denominator for m in self.mu))

    @classmethod
    def parse(cls, text: str) -> MomentList:
        return cls(tuple(map(parse_rational, text.split(","))))

    def format(self) -> str:
        return ",".join(map(format_rational, self.mu))


@lru_cache(maxsize=None)
def raw_moment(d: Distribution, n: int) -> Fraction:
    """E[Y**n], exactly.  MomentUnavailable when the law cannot supply it."""
    if n < 0:
        raise ValueError("moment order must be >= 0")
    return d.moment(n)


_MOMENTS_LOCK = threading.Lock()


@lru_cache(maxsize=None)
def _sum_moments(d: Distribution) -> tuple[list[int], list[list[int]]]:
    """[sigma**i * E[Y**i] for i = 0, 1, ...] and rows k = 0, 1, ... of sigma**n * E[S_k**n], as int."""
    return [], []


def _sum_moment_rows(d: Distribution, n: int, start: int = 0) -> Iterator[list[int]]:
    """Rows j = start, start + 1, ... of sigma**m * E[S_j**m], each filled at least for m <= n.

    Row j is the binomial convolution of row j-1 with the scaled raw moments of Y
    (split off the last summand); as sigma**m scales both sides alike, it stays in
    integers.  A row is extended to order n only when the stream reaches it, so every
    row before one filled to order n is too: the stream resumes at the last such row
    up to start, and a filled row is read at once.  Reading k = 0, 1, 2, ... one call
    at a time is then linear in k.  The memoised rows only ever grow.
    """
    if n < 0 or start < 0:
        raise ValueError("indices must be >= 0")
    for m in range(1, n + 1):  # a law short of order n raises here, before its memo has a key
        raw_moment(d, m)
    sigma, pascal = d.scale(), [[1]]
    with _MOMENTS_LOCK:
        ys, rows = _sum_moments(d)
        resume = max(min(start, len(rows) - 1), 0)
        while resume > 0 and len(rows[resume]) <= n:
            resume -= 1
    for j in itertools.count(resume):
        with _MOMENTS_LOCK:
            if j == len(rows):
                rows.append([1])
            row = rows[j]
            if j == 0:
                row.extend([0] * (n + 1 - len(row)))
            elif len(row) <= n:
                while len(ys) <= n:
                    ys.append(times(raw_moment(d, len(ys)), sigma ** len(ys)))
                while len(pascal) <= n:
                    pascal.append(list(map(operator.add, [0] + pascal[-1], pascal[-1] + [0])))
                for m in range(len(row), n + 1):
                    prev = map(operator.mul, ys, rows[j - 1][m::-1])
                    row.append(sum(map(operator.mul, pascal[m], prev)))
        if j >= start:
            yield row


def sum_raw_moment(d: Distribution, k: int, n: int) -> Fraction:
    """E[S_k**n] for S_k the sum of k i.i.d. copies of Y."""
    return Fraction(next(_sum_moment_rows(d, n, k))[n], d.scale() ** n)


def scaled_sum_deg_rising_moments(
    d: Distribution, n: int, lam: Fraction, start: int = 0
) -> tuple[Iterator[int], int]:
    """Integers M_k, yielded lazily for k = start, start + 1, ..., and D with E<S_k>_{n,lam} = M_k / D.

    For lam = a/b, coefficient i of prod_{r<n} (b*x + r*a) = b**n <x>_{n,lam}, times sigma**(n-i), weighs
    entry i of row k.  The coefficients are expanded once per call.
    """
    a, b, sigma = lam.numerator, lam.denominator, d.scale()
    coeffs = [1]  # of x**0, x**1, ... in b**r <x>_{r,lam}, for r = 0..n
    for r in range(n):
        coeffs = [r * a * c + b * c_left for c, c_left in zip(coeffs + [0], [0] + coeffs)]
    weights = [c * sigma ** (n - i) for i, c in enumerate(coeffs)]
    return (sum(map(operator.mul, weights, row)) for row in _sum_moment_rows(d, n, start)), (b * sigma) ** n


def scaled_deg_rising_moments(d: Distribution, lam: Fraction) -> tuple[Iterator[int], int]:
    """Integers u_m, yielded lazily for m = 0, 1, 2, ..., and c with E<Y>_{m,lam} = u_m / c**m.

    For lam = a/b, c = b*sigma.  Apart from the partial-sum engine: each b**m <x>_{m,lam}
    is its predecessor times (b*x + (m-1)*a), updated in place, and u_m its dot product
    with sigma**m * E[Y**i], i = 0..m.  Order m reads raw_moment(d, m) when it is reached.
    """
    a, b, sigma = lam.numerator, lam.denominator, d.scale()

    def moments() -> Iterator[int]:
        poly, zs = [1], [1]  # coefficients of b**m <x>_{m,lam}; sigma**m * E[Y**i]
        yield 1
        for m in itertools.count(1):
            zs = [z * sigma for z in zs]
            zs.append(times(raw_moment(d, m), sigma**m))
            poly.append(0)
            for i in range(m, 0, -1):
                poly[i] = b * poly[i - 1] + (m - 1) * a * poly[i]
            poly[0] *= (m - 1) * a
            yield sum(map(operator.mul, poly, zs))

    return moments(), b * sigma


@lru_cache(maxsize=None)
def deg_rising_moment(d: Distribution, n: int, lam: Fraction) -> Fraction:
    """E of the degenerate rising factorial of Y itself."""
    if n < 0:
        raise ValueError("indices must be >= 0")
    moments, scale = scaled_deg_rising_moments(d, Fraction(lam))
    return Fraction(next(itertools.islice(moments, n, None)), scale**n)


@lru_cache(maxsize=None)
def sum_deg_rising_moment(d: Distribution, k: int, n: int, lam: Fraction) -> Fraction:
    """E of the degenerate rising factorial of the partial sum S_k."""
    moments, scale = scaled_sum_deg_rising_moments(d, n, Fraction(lam), k)
    return Fraction(next(moments), scale)


def parse_distribution(text: str) -> Distribution:
    """A law from its spec head:params, such as poisson:3/2, finite:0:1/2,2:1/2 or moments:1,1/2,1/3.

    The params are read by the parse of the law class registered under the head.
    """
    head, sep, rest = text.partition(":")
    if not sep:
        raise ParseError(f"missing parameters in distribution {text!r}")
    if head not in _LAWS:
        raise ParseError(f"unknown distribution family {head!r}, expected one of: {', '.join(_LAWS)}")
    try:
        return _LAWS[head].parse(rest)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(f"invalid distribution {text!r}: {exc}") from None


def format_distribution(d: Distribution) -> str:
    """Inverse of parse_distribution; the spec is built once per law."""
    return d._spec
