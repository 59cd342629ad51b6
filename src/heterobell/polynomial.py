"""Dense univariate polynomials over exact rationals.

Coefficient i belongs to x**i.  The zero polynomial is stored as an empty
tuple and reports degree None; trailing zero coefficients are stripped on
construction, so equal polynomials compare equal structurally.  Evaluation
runs on integers over one denominator and builds one Fraction.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

from .arith import RationalLike


class Polynomial:
    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def coeff(self, i: int) -> Fraction:
        """Coefficient of x**i (zero beyond the stored degree)."""
        if 0 <= i < len(self._coeffs):
            return self._coeffs[i]
        return Fraction(0)

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self._coeffs) - 1 if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self._coeffs]})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero() or other.is_zero():
                return Polynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        if isinstance(other, (int, Fraction)):
            return Polynomial(c * other for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    # -- analysis ----------------------------------------------------------

    def __call__(self, point: RationalLike) -> Fraction:
        """Horner's rule in integers: at p/q, with D the lcm of the coefficient
        denominators, the value is sum_i (D c_i) p**i q**(deg-i) over D q**deg."""
        if not isinstance(point, (int, Fraction)):
            raise TypeError(f"polynomial point must be int or Fraction, not {type(point).__name__}")
        if not self._coeffs:
            return Fraction(0)
        p, q = point.numerator, point.denominator
        *rest, top = self._coeffs
        scale = math.lcm(*[c.denominator for c in self._coeffs])
        acc, q_power = top.numerator * (scale // top.denominator), 1
        for c in reversed(rest):
            q_power *= q
            acc = acc * p + c.numerator * (scale // c.denominator) * q_power
        return Fraction(acc, scale * q_power)

    def derivative(self, order: int = 1) -> "Polynomial":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(order):
            p = Polynomial(i * c for i, c in enumerate(p._coeffs) if i > 0)
        return p

    def scale_arg(self, a: RationalLike) -> "Polynomial":
        """self(a*x): coefficient i picks up a**i."""
        a = Fraction(a)
        return Polynomial(c * a**i for i, c in enumerate(self._coeffs))

