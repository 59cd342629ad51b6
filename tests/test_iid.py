import ast
import inspect
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heterobell import (
    Bernoulli,
    Constant,
    MomentList,
    MomentUnavailable,
    Poisson,
    compositions,
    iid,
    order_split_rhs,
    prob_hetero_bell_poly,
    raw_moment,
)

from . import oracles, sympoly_oracle
from .oracles import BERN_HALF, FS_ZERO_TWO, TRIO
from .sympoly_oracle import ArityMismatch, SymPoly, expect, shifted_product_term
from .test_hetero import _finite_laws, _rationals

HALF = Fraction(1, 2)


def test_sympoly_construction_and_normalization():
    p = SymPoly(2, {(1, 0): 3, (0, 0): 0})
    assert p.terms == {(1, 0): Fraction(3)}
    assert SymPoly(0, {(): 5}).terms == {(): Fraction(5)}
    with pytest.raises(ArityMismatch):
        SymPoly(2, {(1,): 1})
    with pytest.raises(ArityMismatch):
        SymPoly(1, {(-1,): 1})
    with pytest.raises(ValueError):
        SymPoly(-1)


def test_sympoly_constructors():
    c = SymPoly.constant(3, Fraction(2, 5))
    assert c.terms == {(0, 0, 0): Fraction(2, 5)}
    v = SymPoly.variable(3, 1)
    assert v.terms == {(0, 1, 0): Fraction(1)}
    with pytest.raises(ArityMismatch):
        SymPoly.variable(2, 2)


def test_sympoly_algebra():
    x = SymPoly.variable(2, 0)
    y = SymPoly.variable(2, 1)
    p = (x + y) * (x + y)
    assert p.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    q = 2 * x + 1
    assert q.terms == {(1, 0): 2, (0, 0): 1}
    assert (x + (-1) * x).terms == {}
    assert (Fraction(1, 2) * x * 2).terms == {(1, 0): 1}


def test_sympoly_arity_mismatch_in_ops():
    with pytest.raises(ArityMismatch):
        SymPoly.variable(2, 0) + SymPoly.variable(3, 0)
    with pytest.raises(ArityMismatch):
        SymPoly.variable(2, 0) * SymPoly.variable(1, 0)


sym_coeffs = st.one_of(
    st.just(0),
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7),
)


@st.composite
def sympoly_operands(draw):
    arity = draw(st.integers(min_value=0, max_value=3))
    monomials = st.tuples(*[st.integers(min_value=0, max_value=3)] * arity)
    terms = st.dictionaries(monomials, sym_coeffs, max_size=6)
    return SymPoly(arity, draw(terms)), SymPoly(arity, draw(terms)), draw(sym_coeffs)


@settings(max_examples=150, deadline=None)
@given(sympoly_operands())
def test_sympoly_arithmetic_matches_public_constructor(operands):
    a, b, s = operands
    ta, tb, one = a.terms, b.terms, (0,) * a.arity
    product: dict = {}
    for m1, c1 in ta.items():
        for m2, c2 in tb.items():
            key = tuple(e1 + e2 for e1, e2 in zip(m1, m2))
            product[key] = product.get(key, 0) + c1 * c2
    expected = {
        "a + b": SymPoly(a.arity, {m: ta.get(m, 0) + tb.get(m, 0) for m in {*ta, *tb}}),
        "a * b": SymPoly(a.arity, product),
        "a * s": SymPoly(a.arity, {m: c * s for m, c in ta.items()}),
        "a + s": SymPoly(a.arity, {**ta, one: ta.get(one, 0) + s}),
    }
    results = {"a + b": a + b, "a * b": a * b, "a * s": a * s, "a + s": a + s}
    assert results == expected
    assert s * a == a * s and s + a == a + s
    for result in results.values():
        assert all(type(c) is Fraction and c != 0 for c in result.terms.values())
    with pytest.raises(ArityMismatch):
        SymPoly(a.arity, {(0,) * (a.arity + 1): 1})
    with pytest.raises(ArityMismatch):
        SymPoly(a.arity + 1, {(-1,) + one: 1})


def test_subs_constant():
    x = SymPoly.variable(2, 0)
    y = SymPoly.variable(2, 1)
    p = x * x * y + 3 * y + 2
    assert oracles.subs_constant(p, Fraction(1, 2)) == Fraction(1, 8) + Fraction(3, 2) + 2


def test_expect_factorizes_products():
    # E[(Y0 + Y1 + 2*lam) * Y0 * Y1] = 2 p^2 (1 + lam) for Bernoulli(p)
    for p in [Fraction(1, 2), Fraction(1, 3), Fraction(1)]:
        for lam in [Fraction(0), HALF, Fraction(2)]:
            y0 = SymPoly.variable(2, 0)
            y1 = SymPoly.variable(2, 1)
            sp = (y0 + y1 + 2 * lam) * y0 * y1
            assert expect(sp, Bernoulli(p)) == 2 * p**2 * (1 + lam)


def test_expect_against_brute_force_enumeration():
    polys = [
        SymPoly(2, {(3, 1): Fraction(1, 2), (0, 2): -2, (1, 1): 1}),
        SymPoly(3, {(1, 1, 1): 1, (2, 0, 0): Fraction(1, 3), (0, 0, 0): 5}),
        SymPoly(1, {(4,): 1, (1,): -1}),
    ]
    for sp in polys:
        want = oracles.finite_expect_monomials(sp.terms, sp.arity, FS_ZERO_TWO.pairs)
        assert expect(sp, FS_ZERO_TWO) == want


def test_expect_constant_law_is_substitution():
    sp = SymPoly(2, {(2, 1): 1, (0, 1): Fraction(-1, 2), (0, 0): 3})
    c = Fraction(3, 2)
    assert expect(sp, Constant(c)) == oracles.subs_constant(sp, c)


def test_compositions_enumeration():
    assert list(compositions(4, 2)) == [(1, 3), (2, 2), (3, 1)]
    assert list(compositions(3, 3)) == [(1, 1, 1)]
    assert list(compositions(0, 0)) == [()]
    assert list(compositions(3, 0)) == []
    assert list(compositions(2, 3)) == []
    from math import comb

    for n in range(1, 8):
        for j in range(1, n + 1):
            assert len(list(compositions(n, j))) == comb(n - 1, j - 1)


def test_shifted_product_term_hand_expansions():
    lam = HALF
    # j=1, n=1, m=1, k=0: <Y0 + lam>_{1,lam} * <Y0>_{1,lam} = Y0^2 + lam*Y0
    sp = shifted_product_term(1, 1, 1, 0, (1,), lam)
    assert sp.terms == {(2,): Fraction(1), (1,): lam}
    # j=2, n=2, m=0, k=0: empty outer factor, just Y0 * Y1
    sp = shifted_product_term(2, 2, 0, 0, (1, 1), lam)
    assert sp.terms == {(1, 1): Fraction(1)}
    # j=0, n=0, m=2, k=0: <0>_{2,lam} = 0 * lam = 0
    sp = shifted_product_term(0, 0, 2, 0, (), lam)
    assert sp.terms == {}


def test_shifted_product_term_validation():
    with pytest.raises(ArityMismatch):
        shifted_product_term(2, 3, 1, 0, (3,), HALF)
    with pytest.raises(ArityMismatch):
        shifted_product_term(2, 3, 1, 0, (1, 1), HALF)
    with pytest.raises(ValueError):
        shifted_product_term(1, 1, 1, 2, (1,), HALF)


def test_order_split_rebuilds_higher_order():
    for d in TRIO:
        for lam in [Fraction(0), HALF, Fraction(1)]:
            for t in [HALF, Fraction(1), Fraction(-2)]:
                for n in range(4):
                    for m in range(4):
                        if n + m > 5:
                            continue
                        want = prob_hetero_bell_poly(d, n + m, lam)(t)
                        assert order_split_rhs(d, n, m, t, lam) == want


def test_order_split_validation():
    with pytest.raises(ValueError):
        order_split_rhs(BERN_HALF, -1, 2, Fraction(1), HALF)


def test_order_split_reads_only_orders_up_to_m(monkeypatch):
    # T2.8 compares the expansion with the order-(n+m) row, so the expansion
    # must not read that row itself
    asked = []
    plain = iid.prob_hetero_bell_poly
    monkeypatch.setattr(
        iid, "prob_hetero_bell_poly", lambda d, k, lam: asked.append(k) or plain(d, k, lam)
    )
    for d in TRIO:
        for n in range(1, 4):
            for m in range(4):
                asked.clear()
                order_split_rhs(d, n, m, HALF, HALF)
                assert asked and max(asked) <= m, (d, n, m, asked)
    tree = ast.parse(inspect.getsource(iid))
    taken = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "distributions"
        for alias in node.names
    }
    assert taken == {"Distribution", "raw_moment"}


@settings(max_examples=60, deadline=None)
@given(_finite_laws(), _rationals, _rationals, st.integers(0, 4), st.integers(0, 3))
@example(Poisson(Fraction(5, 4)), Fraction(-1, 3), Fraction(3, 2), 4, 3)
@example(Bernoulli(Fraction(1, 3)), Fraction(1, 2), Fraction(-2), 3, 3)
def test_order_split_matches_the_multivariate_engine(d, lam, t, n, m):
    want = sympoly_oracle.order_split_rhs(d, n, m, t, lam)
    assert order_split_rhs(d, n, m, t, lam) == want
    # the law spelled as its raw moments 0..n+m gives the value; one fewer
    # is one too few for both engines
    raw = tuple(raw_moment(d, e) for e in range(n + m + 1))
    assert order_split_rhs(MomentList(raw), n, m, t, lam) == want
    if n + m:
        for engine in (order_split_rhs, sympoly_oracle.order_split_rhs):
            with pytest.raises(MomentUnavailable):
                engine(MomentList(raw[:-1]), n, m, t, lam)
