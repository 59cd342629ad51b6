import math
import os
import subprocess
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heterobell
from heterobell import (
    InsufficientSequence,
    bell_poly,
    complete_bell,
    deg_rising_factorial,
    deg_stirling1,
    hetero_stirling,
    lah,
    lah_bell_poly,
    partial_bell,
    stirling1u,
    stirling2,
)

from heterobell.triangles import triangle_entry, triangle_row

from . import oracles

# Frozen rows, produced by the standalone recurrence script before the
# package existed.
STIRLING2_ROWS = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 1, 3, 1],
    [0, 1, 7, 6, 1],
    [0, 1, 15, 25, 10, 1],
    [0, 1, 31, 90, 65, 15, 1],
]
STIRLING1U_ROWS = [
    [1],
    [0, 1],
    [0, 1, 1],
    [0, 2, 3, 1],
    [0, 6, 11, 6, 1],
    [0, 24, 50, 35, 10, 1],
]
BELL_NUMBERS = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]
DEG_S1_THIRD_ROWS = {
    3: [0, Fraction(10, 9), 2, 1],
    4: [0, Fraction(80, 27), Fraction(52, 9), 4, 1],
}


def test_stirling2_frozen_rows():
    for n, row in enumerate(STIRLING2_ROWS):
        assert [stirling2(n, k) for k in range(n + 1)] == row


def test_stirling1u_frozen_rows():
    for n, row in enumerate(STIRLING1U_ROWS):
        assert [stirling1u(n, k) for k in range(n + 1)] == row


def test_rows_against_recurrence_oracle():
    for n in range(11):
        for k in range(n + 1):
            assert stirling2(n, k) == oracles.stirling2_rec(n, k)
            assert stirling1u(n, k) == oracles.stirling1u_rec(n, k)
            assert lah(n, k) == oracles.lah_closed(n, k)


def test_out_of_triangle_values():
    assert stirling2(3, 5) == 0
    assert stirling1u(0, 1) == 0
    assert lah(4, 0) == 0
    assert stirling2(0, 0) == 1
    with pytest.raises(ValueError):
        stirling2(-1, 0)
    with pytest.raises(ValueError):
        lah(2, -1)


def test_triangle_row_shape():
    assert len(bell_poly(7).coeffs) == 8
    assert tuple(stirling1u(0, k) for k in range(1)) == (Fraction(1),)
    assert tuple(lah(3, k) for k in range(4)) == (Fraction(0), Fraction(6), Fraction(6), Fraction(1))
    # the classical families hold int, the lam families Fraction
    assert {type(f(9, 4)) for f in (stirling2, stirling1u, lah)} == {int}
    assert type(deg_stirling1(9, 4, 0)) is type(hetero_stirling(9, 4, 0)) is Fraction


def test_row_sums():
    # stirling2 rows sum to Bell numbers, stirling1u rows to factorials
    for n in range(len(BELL_NUMBERS)):
        assert sum(stirling2(n, k) for k in range(n + 1)) == BELL_NUMBERS[n]
    for n in range(9):
        assert sum(stirling1u(n, k) for k in range(n + 1)) == math.factorial(n)


def test_stirling2_against_explicit_sum_oracle():
    for n in range(41):
        for k in range(n + 1):
            assert stirling2(n, k) == oracles.stirling2_explicit(n, k)


@pytest.mark.parametrize(
    "statement",
    [
        "stirling1u(1200, 1) == factorial(1199)",
        "hetero_stirling(700, 1, Fraction(1, 3)) == deg_rising_factorial(1, 700, Fraction(1, 3))",
        "deg_stirling1(900, 900, Fraction(-2, 7)) == 1",
    ],
)
def test_rows_grow_past_recursion_depth(statement):
    # a fresh interpreter, so the rows these build (up to a few hundred MiB)
    # are freed when it exits
    src = os.path.dirname(os.path.dirname(heterobell.__file__))
    code = f"from fractions import Fraction\nfrom heterobell import *\nassert {statement}\n"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("lam", [Fraction(-29, 31 + 2 * i) for i in range(5)])
def test_concurrent_readers_see_the_serial_rows(lam):
    # lam is used nowhere else, so the four threads race to grow its rows
    want = [[Fraction(1)]]
    for n in range(60):
        prev = [0] + want[-1] + [0]  # prev[k + 1] is S(n, k)
        want.append([prev[k] + (n - k * lam) * prev[k + 1] for k in range(n + 2)])
    got = [None] * 4
    start = threading.Barrier(4)

    def read(i):
        start.wait()
        order = range(61) if i % 2 else range(60, -1, -1)
        got[i] = {n: [deg_stirling1(n, k, lam) for k in range(n + 1)] for n in order}

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    for rows in got:
        assert rows is not None and [rows[n] for n in range(61)] == want


def test_signed_inversion():
    # sum_l (-1)**(n-l) [n,l] {l,k} = delta(n,k)
    for n in range(9):
        for k in range(9):
            acc = sum(
                (-1) ** (n - l) * stirling1u(n, l) * stirling2(l, k)
                for l in range(n + 1)
            )
            assert acc == (1 if n == k else 0)


def test_lah_factors_through_both_kinds():
    for n in range(9):
        for k in range(n + 1):
            assert lah(n, k) == sum(
                stirling1u(n, l) * stirling2(l, k) for l in range(n + 1)
            )


def test_deg_stirling1_frozen_rows():
    lam = Fraction(1, 3)
    for n, row in DEG_S1_THIRD_ROWS.items():
        assert [deg_stirling1(n, k, lam) for k in range(n + 1)] == row
    assert deg_stirling1(8, 3, Fraction(5, 2)) == Fraction(-1323, 16)


def test_deg_stirling1_small_closed_forms():
    for lam in [Fraction(0), Fraction(1, 2), Fraction(2), Fraction(-1, 3)]:
        assert deg_stirling1(0, 0, lam) == 1
        assert deg_stirling1(1, 1, lam) == 1
        assert deg_stirling1(2, 1, lam) == 1 - lam
        assert deg_stirling1(2, 2, lam) == 1


def test_deg_stirling1_against_division_oracle():
    for lam in [Fraction(1, 3), Fraction(5, 2), Fraction(-2), Fraction(7, 5)]:
        for n in range(8):
            for k in range(n + 1):
                assert deg_stirling1(n, k, lam) == oracles.deg_stirling1_div(n, k, lam)


def test_deg_stirling1_limit_rows():
    for n in range(8):
        for k in range(n + 1):
            assert deg_stirling1(n, k, Fraction(0)) == stirling1u(n, k)
            assert deg_stirling1(n, k, Fraction(1)) == (1 if n == k else 0)


def test_partial_bell_specializations():
    ones = [1] * 40
    facts = [math.factorial(m) for m in range(1, 41)]
    shifted = [math.factorial(m - 1) for m in range(1, 41)]
    for n in [*range(10), 40]:
        for k in range(n + 1):
            assert partial_bell(n, k, ones) == stirling2(n, k)
            assert partial_bell(n, k, facts) == lah(n, k)
            assert partial_bell(n, k, shifted) == stirling1u(n, k)


def test_partial_bell_against_recurrence_oracle():
    xs = [Fraction(1, 2), Fraction(-1), Fraction(3), Fraction(2, 7), Fraction(0), Fraction(5)]
    for n in range(7):
        for k in range(n + 1):
            assert partial_bell(n, k, xs) == oracles.partial_bell_rec(n, k, xs)


@pytest.mark.parametrize(
    "xs",
    [
        [1, 2, 3, 5, 8, 13, 21, 34, 55, 89],
        [Fraction(1, 2), 3, Fraction(-2, 9), 0, 5, Fraction(7, 4), 1, Fraction(1, 3), 2, Fraction(5, 6)],
        [-1, Fraction(-3, 2), -4, Fraction(-1, 7), -2, -5, Fraction(-9, 4), -1, -3, Fraction(-2, 3)],
        # a float entry is read as the rational it holds exactly
        [0.5, 2, Fraction(1, 3), -0.25, 1, 3, 0.125, 1, 2, Fraction(-3, 5)],
    ],
    ids=["int", "int-and-fraction", "negative", "float"],
)
def test_partial_bell_entry_types_against_recurrence_oracle(xs):
    for n in range(11):
        for k in range(n + 1):
            value = partial_bell(n, k, xs)
            assert type(value) is Fraction and value == oracles.partial_bell_rec(n, k, xs), (n, k)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=12), min_size=11, max_size=11
    ),
    st.integers(min_value=0, max_value=10),
)
def test_partial_bell_kernel_against_both_oracles(xs, n):
    # series powers, the multi-index sum and the top-element recurrence are
    # three unrelated algorithms for one polynomial
    for k in range(n + 2):
        assert (
            partial_bell(n, k, xs)
            == oracles.partial_bell_multiindex(n, k, xs)
            == oracles.partial_bell_rec(n, k, xs)
        )


def test_partial_bell_homogeneity():
    xs = [Fraction(1), Fraction(2), Fraction(-1, 3), Fraction(4)]
    a, b = Fraction(3), Fraction(-1, 2)
    scaled = [a * b**m * x for m, x in enumerate(xs, start=1)]
    for n in range(5):
        for k in range(n + 1):
            assert partial_bell(n, k, scaled) == a**k * b**n * partial_bell(n, k, xs)


def test_partial_bell_short_sequence():
    with pytest.raises(InsufficientSequence):
        partial_bell(5, 2, [1, 1])
    with pytest.raises(InsufficientSequence):
        complete_bell(3, [1, 1])
    # exactly n - k + 1 entries suffice
    assert partial_bell(5, 4, [1, 1]) == stirling2(5, 4)
    # k = 0 and k > n read no entries at all
    assert partial_bell(0, 0, []) == 1
    assert partial_bell(3, 0, []) == 0
    assert partial_bell(2, 3, []) == 0


def test_complete_bell_sums_partials():
    xs = [Fraction(2), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]
    for n in range(6):
        assert complete_bell(n, xs) == sum(
            partial_bell(n, k, xs) for k in range(n + 1)
        )


def test_bell_polys_wrap_triangle_rows():
    assert bell_poly(4).coeffs == (0, 1, 7, 6, 1)
    assert bell_poly(6)(1) == BELL_NUMBERS[6]
    assert lah_bell_poly(3).coeffs == (0, 6, 6, 1)
    assert lah_bell_poly(0).coeffs == (1,)


_WEIGHT = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@settings(max_examples=60, deadline=None)
@given(a=_WEIGHT, b=_WEIGHT, n=st.integers(0, 30))
@example(a=-3, b=2, n=30)
@example(a=Fraction(-13, 7), b=Fraction(1), n=30)
@example(a=Fraction(1), b=Fraction(-5, 2), n=0)
def test_triangle_row_equals_the_entries(a, b, n):
    # negative, integer and non-integer weights; ints when both weights are integers
    row = triangle_row(a, b, n)
    assert list(row) == [triangle_entry(a, b, n, k) for k in range(n + 1)]
    whole = Fraction(a).denominator == Fraction(b).denominator == 1
    assert {type(v) for v in row} == {int if whole else Fraction}
