import functools
import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heterobell import (
    ParseError,
    PartsMismatch,
    binomial,
    deg_rising_factorial,
    factorial,
    format_rational,
    multinomial,
    parse_rational,
)
from heterobell.arith import Rows, dot, times

from .oracles import rising


def test_parse_rational_accepts_integers_and_fractions():
    assert parse_rational("3") == 3
    assert parse_rational("-7") == -7
    assert parse_rational("+2/4") == Fraction(1, 2)
    assert parse_rational("-10/4") == Fraction(-5, 2)


@pytest.mark.parametrize("bad", ["", "1/0", "1.5", "a", "1/2/3", "1 / 2", "--3", "2/-3"])
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_format_rational_round_trip():
    for s in ["0", "5", "-5", "1/3", "-22/7"]:
        assert format_rational(parse_rational(s)) == s


def test_format_rational_reduces():
    assert format_rational(Fraction(4, 8)) == "1/2"
    assert format_rational(Fraction(6, 3)) == "2"


def test_factorial_and_binomial_match_math():
    for n in range(12):
        assert factorial(n) == math.factorial(n)
        for k in range(n + 2):
            assert binomial(n, k) == math.comb(n, k)


def test_binomial_negative_k_raises():
    with pytest.raises(ValueError):
        binomial(5, -1)


def test_times_refuses_a_product_that_is_not_an_integer():
    assert times(Fraction(-5, 3), 6) == -10
    assert times(Fraction(7), 0) == 0
    with pytest.raises(ValueError, match="not an integer"):
        times(Fraction(1, 3), 2)


def test_multinomial():
    assert multinomial(5, (2, 3)) == 10
    assert multinomial(6, (1, 2, 3)) == 60
    assert multinomial(0, ()) == 1
    with pytest.raises(PartsMismatch):
        multinomial(5, (2, 2))


small_rationals = st.one_of(
    st.integers(min_value=-20, max_value=20),
    st.fractions(min_value=Fraction(-20), max_value=Fraction(20), max_denominator=30),
)


@settings(max_examples=200, deadline=None)
@given(small_rationals, st.integers(min_value=0, max_value=40), small_rationals)
@example(Fraction(-3, 2), 5, Fraction(-2))
@example(0, 5, 0)
@example(Fraction(1), 5, Fraction(1))
@example(5, 5, Fraction(1, 2))
@example(0, 40, Fraction(-1, 3))
@example(Fraction(5, 7), 0, Fraction(-5, 7))
@example(Fraction(5, 7), 40, Fraction(-5, 7))
def test_deg_rising_factorial_against_product_oracle(x, n, lam):
    value = deg_rising_factorial(x, n, lam)
    assert type(value) is Fraction
    assert value == rising(x, n, lam)


def test_deg_rising_factorial_limits():
    # lam = 0 collapses to the plain power, lam = 1 to the rising factorial
    assert deg_rising_factorial(Fraction(3), 4, Fraction(0)) == 3**4
    assert deg_rising_factorial(Fraction(3), 4, Fraction(1)) == 3 * 4 * 5 * 6



# ints, signed Fractions and Fractions over large denominators
_dot_entries = st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=30),
    st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**25)),
)


def _dot_terms(width: int):
    return st.lists(st.lists(_dot_entries, min_size=width, max_size=width), max_size=12)


@given(st.integers(1, 3).flatmap(_dot_terms))
def test_dot_equals_the_sum_of_fraction_products(terms):
    # terms[i] holds entry i of every factor
    factors = [list(column) for column in zip(*terms)] or [[]]
    want = sum((math.prod(map(Fraction, term)) for term in terms), Fraction(0))
    got = dot(*factors)
    assert type(got) is Fraction and got == want


def test_dot_of_nothing_is_zero():
    assert dot() == dot([]) == dot([], [], []) == 0
    assert type(dot()) is Fraction


@pytest.mark.parametrize(
    "factors", [([1, 2], [3]), ([1], [1, 2]), ([], [Fraction(1, 2)]), ([1, 2], [3, 4], [5])]
)
def test_dot_of_factors_of_different_lengths_raises(factors):
    with pytest.raises(ValueError):
        dot(*factors)


def _race(read, count: int = 4) -> None:
    """read(i) in count threads started at once, switching between them as often as the interpreter can."""
    start = threading.Barrier(count)

    def run(i):
        start.wait()
        read(i)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)


def _sums(rows: list) -> int:
    """A next row that reads every row before it: their sum, plus the count of them."""
    return sum(rows) + len(rows)


def test_racing_readers_make_each_row_once():
    made = []
    rows = Rows(lambda rows: made.append(len(rows)) or _sums(rows), 1)
    got = [None] * 4

    def read(i):
        order = range(300) if i % 2 else range(299, -1, -1)
        got[i] = {n: rows.upto(n)[n] for n in order}

    _race(read)
    serial = [1]
    while len(serial) < 300:
        serial.append(_sums(serial))
    assert made == list(range(1, 300))  # rows 1..299, each made once and in order
    assert rows == serial
    assert all(read is not None and [read[n] for n in range(300)] == serial for read in got)


def test_a_step_that_raises_adds_no_row():
    def step(rows):
        if len(rows) == 3:
            raise ArithmeticError("no row 3")
        return len(rows)

    rows = Rows(step, 0)
    with pytest.raises(ArithmeticError, match="no row 3"):
        rows.upto(5)
    assert rows == [0, 1, 2] and not rows.lock.locked()
    assert rows.upto(2) is rows and rows == [0, 1, 2]


def test_racing_first_reads_share_one_rows():
    made = []

    @functools.lru_cache(maxsize=None)
    def memo(key):
        made.append(key)
        time.sleep(0.01)  # a slow first read, which the other threads would miss alongside
        return Rows(len)

    got = [None] * 4

    def read(i):
        got[i] = Rows.of(memo, "key").upto(9)

    _race(read)
    assert made == ["key"]
    assert all(rows is memo("key") for rows in got) and got[0] == list(range(10))
