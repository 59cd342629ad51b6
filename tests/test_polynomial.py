from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heterobell import Polynomial, deg_rising_poly

from .oracles import horner_fraction, rising

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
polys = st.lists(rationals, min_size=0, max_size=6).map(Polynomial)


def test_zero_polynomial_normal_form():
    z = Polynomial([0, Fraction(0)])
    assert z.degree is None
    assert z == Polynomial([])
    assert z(Fraction(7)) == 0


def test_trailing_zeros_stripped():
    p = Polynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p == Polynomial([1, 2])


def test_coeff_out_of_range_is_zero():
    p = Polynomial([1, 2])
    assert p.coeff(5) == 0
    assert p.coeff(0) == 1


def test_evaluation_horner():
    p = Polynomial([Fraction(1), Fraction(-3), Fraction(2)])  # 2x^2 - 3x + 1
    assert p(Fraction(2)) == 3
    assert p(Fraction(1, 2)) == 0


signed_coeffs = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4),
)
points = st.one_of(
    st.integers(min_value=-10**4, max_value=10**4),
    st.fractions(min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10**3),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(signed_coeffs, min_size=0, max_size=31).map(Polynomial), points)
@example(Polynomial([]), 0)
@example(Polynomial([]), Fraction(-3, 2))
@example(Polynomial([Fraction(1, 3), 0, Fraction(-5, 7)]), 0)
@example(Polynomial([Fraction(1, 3), 0, Fraction(-5, 7)]), Fraction(0))
@example(Polynomial([Fraction(1, 3), 0, Fraction(-5, 7)]), -4)
@example(Polynomial([Fraction(1, 3), 0, Fraction(-5, 7)]), Fraction(-4, 9))
def test_evaluation_matches_fraction_horner(p, x):
    value = p(x)
    assert type(value) is Fraction
    assert value == horner_fraction(p, x)


@pytest.mark.parametrize("point", [0.5, 2.0, "1/2", None])
def test_evaluation_rejects_points_that_are_not_int_or_fraction(point):
    with pytest.raises(TypeError, match="int or Fraction"):
        Polynomial([1, 2])(point)
    with pytest.raises(TypeError, match="int or Fraction"):
        Polynomial([])(point)


def test_product_known():
    p = Polynomial([1, 1])
    q = Polynomial([-1, 1])
    assert p * q == Polynomial([-1, 0, 1])
    assert p * 0 == Polynomial([])
    assert 3 * p == Polynomial([3, 3])


def test_derivative():
    p = Polynomial([5, 0, 3, 2])  # 2x^3 + 3x^2 + 5
    assert p.derivative() == Polynomial([0, 6, 6])
    assert p.derivative(2) == Polynomial([6, 12])
    assert p.derivative(4) == Polynomial([])
    with pytest.raises(ValueError):
        p.derivative(-1)


def test_scale_and_shift_arg():
    p = Polynomial([1, 2, 3])
    two = Fraction(2)
    assert p.scale_arg(two) == Polynomial([1, 4, 12])
    for x in [Fraction(0), Fraction(5, 3), Fraction(-2)]:
        assert p.scale_arg(two)(x) == p(two * x)


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial([])


@settings(max_examples=60, deadline=None)
@given(polys, polys, rationals)
def test_evaluation_is_ring_hom(a, b, x):
    assert (a + b)(x) == a(x) + b(x)
    assert (a * b)(x) == a(x) * b(x)


@settings(max_examples=40, deadline=None)
@given(polys, rationals)
def test_derivative_product_rule(a, x):
    b = Polynomial([Fraction(1, 3), Fraction(-2), Fraction(1)])
    lhs = (a * b).derivative()
    rhs = a.derivative() * b + a * b.derivative()
    assert lhs == rhs
    assert lhs(x) == rhs(x)


def test_deg_rising_poly_matches_pointwise_oracle():
    # negative and non-integer lam too, up to n = 12: the stirling1u row times powers of lam
    lams = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-3, 4)]
    for lam in lams + [Fraction(-2), Fraction(-7, 3), Fraction(5, 2)]:
        for n in range(13):
            p = deg_rising_poly(n, lam)
            assert p.degree == (n if n else 0)
            for x in [Fraction(0), Fraction(1), Fraction(-2), Fraction(7, 5)]:
                assert p(x) == rising(x, n, lam)
    with pytest.raises(ValueError, match=r"^deg_rising_poly needs n >= 0$"):
        deg_rising_poly(-1, Fraction(1, 2))


def test_deg_rising_poly_monic_no_constant():
    p = deg_rising_poly(5, Fraction(1, 3))
    assert p.coeff(5) == 1
    assert p.coeff(0) == 0
