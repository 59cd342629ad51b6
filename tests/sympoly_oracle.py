"""The multivariate i.i.d. engine that order splitting was first built on.

SymPoly is a sparse multivariate polynomial over a fixed tuple of
variables Y_0..Y_{arity-1}, with nonzero Fraction coefficients keyed by
exponent tuples; only the public constructor validates monomials.  Because
the copies are independent, the expectation of a monomial factorizes into
single-variable raw moments, which is all the engine needs.  The package
sums the same expectations through one-variable moment series
(heterobell.iid); this module is the reference it is held to.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from typing import Iterable, Mapping, Union

from heterobell import (
    Distribution,
    binomial,
    compositions,
    deg_rising_poly,
    factorial,
    multinomial,
    prob_hetero_bell_poly,
    raw_moment,
)

Monomial = tuple[int, ...]
RationalLike = Union[Fraction, int]


class ArityMismatch(ValueError):
    """Multivariate term built with an inconsistent variable count."""


class SymPoly:
    """Sparse polynomial in a fixed number of variables."""

    __slots__ = ("arity", "_terms")

    def __init__(self, arity: int, terms: Mapping[Monomial, RationalLike] | None = None):
        if arity < 0:
            raise ValueError("arity must be >= 0")
        self.arity = arity
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != arity or any(e < 0 for e in mono):
                raise ArityMismatch(f"bad exponent tuple {mono} for arity {arity}")
            c = Fraction(coeff)
            if c != 0:
                clean[tuple(mono)] = c
        self._terms = clean

    @classmethod
    def _from_checked(cls, arity: int, terms: dict[Monomial, Fraction]) -> "SymPoly":
        """For the arithmetic below, whose monomials are valid by construction: drops zeros only."""
        out = object.__new__(cls)
        out.arity, out._terms = arity, {mono: c for mono, c in terms.items() if c}
        return out

    @classmethod
    def constant(cls, arity: int, c: RationalLike) -> "SymPoly":
        return cls(arity, {(0,) * arity: Fraction(c)})

    @classmethod
    def variable(cls, arity: int, index: int) -> "SymPoly":
        if not 0 <= index < arity:
            raise ArityMismatch(f"variable index {index} outside arity {arity}")
        mono = tuple(1 if i == index else 0 for i in range(arity))
        return cls(arity, {mono: Fraction(1)})

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        return dict(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SymPoly):
            return self.arity == other.arity and self._terms == other._terms
        return NotImplemented

    def __repr__(self) -> str:
        body = ", ".join(f"{m}: {c}" for m, c in sorted(self._terms.items()))
        return f"SymPoly(arity={self.arity}, {{{body}}})"

    def _require_same_arity(self, other: "SymPoly") -> None:
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def __add__(self, other):
        if isinstance(other, SymPoly):
            self._require_same_arity(other)
            out = dict(self._terms)
            for mono, c in other._terms.items():
                out[mono] = out.get(mono, 0) + c
            return SymPoly._from_checked(self.arity, out)
        if isinstance(other, (int, Fraction)):
            one = (0,) * self.arity
            out = {**self._terms, one: self._terms.get(one, 0) + Fraction(other)}
            return SymPoly._from_checked(self.arity, out)
        return NotImplemented

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, SymPoly):
            self._require_same_arity(other)
            out: dict[Monomial, Fraction] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    key = tuple(map(operator.add, m1, m2))
                    out[key] = out.get(key, 0) + c1 * c2
            return SymPoly._from_checked(self.arity, out)
        if isinstance(other, (int, Fraction)):
            return SymPoly._from_checked(self.arity, {m: c * other for m, c in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__


def expect(sp: SymPoly, d: Distribution) -> Fraction:
    """E[sp(Y_0, ..., Y_{arity-1})] for independent copies of the law d.

    Monomial by monomial: independence turns each product of powers into a
    product of single-copy raw moments.
    """
    acc = Fraction(0)
    for mono, coeff in sp._terms.items():
        term = coeff
        for e in mono:
            if e:
                term *= raw_moment(d, e)
        acc += term
    return acc


def _deg_rising_at(argument: SymPoly, r: int, lam: Fraction) -> SymPoly:
    # univariate expansion of the degenerate rising factorial, then Horner
    # at the (affine) multivariate argument
    coeffs = deg_rising_poly(r, lam).coeffs
    acc = SymPoly._from_checked(argument.arity, {})
    for c in reversed(coeffs):
        acc = acc * argument + c
    return acc


def shifted_product_term(
    j: int, n: int, m: int, k: int, ls: Iterable[int], lam: RationalLike
) -> SymPoly:
    """The expectation integrand of the order-splitting expansion.

    Builds, in j variables, the degenerate rising factorial of order m - k
    taken at Y_0 + ... + Y_{j-1} + n*lam, times the product over i of the
    degenerate rising factorial of order ls[i] at Y_i alone.
    """
    ls = tuple(ls)
    if len(ls) != j:
        raise ArityMismatch(f"composition has {len(ls)} parts, expected {j}")
    if sum(ls) != n:
        raise ArityMismatch(f"composition {ls} does not sum to {n}")
    if not 0 <= k <= m:
        raise ValueError("need 0 <= k <= m")
    lam = Fraction(lam)
    shifted = SymPoly.constant(j, n * lam)
    for i in range(j):
        shifted = shifted + SymPoly.variable(j, i)
    out = _deg_rising_at(shifted, m - k, lam)
    for i, part in enumerate(ls):
        out = out * _deg_rising_at(SymPoly.variable(j, i), part, lam)
    return out


def order_split_rhs(
    d: Distribution, n: int, m: int, t: RationalLike, lam: RationalLike
) -> Fraction:
    """Order n + m polynomial value at t, rebuilt from orders 0..m.

    Double sum over j <= n and k <= m of binomial and t**j/j! weights,
    with an inner sum over strict compositions of n into j parts whose
    expectation factorizes through SymPoly and expect.  Exactly equals
    evaluating the order-(n+m) polynomial at t.
    """
    if n < 0 or m < 0:
        raise ValueError("orders must be >= 0")
    t = Fraction(t)
    lam = Fraction(lam)
    total = Fraction(0)
    for k in range(m + 1):
        weight = binomial(m, k) * prob_hetero_bell_poly(d, k, lam)(t)
        if weight == 0:
            continue
        for j in range(n + 1):
            tj = t**j / factorial(j)
            for ls in compositions(n, j):
                term = shifted_product_term(j, n, m, k, ls, lam)
                total += weight * tj * multinomial(n, ls) * expect(term, d)
    return total
