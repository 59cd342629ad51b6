import contextlib
import io
import json
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
    Bernoulli,
    Constant,
    FiniteSupport,
    MomentList,
    MomentUnavailable,
    NonPositiveEvaluationPoint,
    Poisson,
    Polynomial,
    Route,
    SeriesNotCertified,
    UnsupportedDistribution,
    clear_caches,
    distributions,
    dobinski_details,
    format_distribution,
    hetero,
    hetero_bell_poly,
    hetero_derivative,
    hetero_stirling,
    identities,
    iid,
    lah,
    order_split_rhs,
    parse_distribution,
    prob_hetero_bell_poly,
    prob_hetero_bell_recurrence,
    prob_hetero_stirling,
    prob_lah,
    prob_stirling2,
    raw_moment,
    stirling2,
    sum_deg_rising_moment,
    sum_raw_moment,
    triangles,
)

from heterobell.cli import main
from heterobell.identities import identity_grid, load_grid_config

from . import oracles
from .oracles import BERN_HALF, BERN_THIRD, CONST_ONE, FS_ZERO_TWO, POISSON_ONE, TRIO

HALF = Fraction(1, 2)

# Frozen heterogeneous rows at lam = 1/2, from the standalone
# partial-Bell recurrence script.
HETERO_HALF_ROWS = {
    4: [0, Fraction(15, 2), Fraction(75, 4), 9, 1],
    5: [0, Fraction(45, 2), Fraction(165, 2), Fraction(255, 4), 15, 1],
}


def test_hetero_frozen_rows():
    for n, row in HETERO_HALF_ROWS.items():
        assert [hetero_stirling(n, k, HALF) for k in range(n + 1)] == row


def test_hetero_small_closed_forms():
    for lam in [Fraction(0), HALF, Fraction(1), Fraction(-2), Fraction(7, 3)]:
        assert hetero_stirling(2, 1, lam) == 1 + lam
        assert hetero_stirling(3, 2, lam) == 3 + 3 * lam
        assert hetero_stirling(0, 0, lam) == 1
        assert hetero_stirling(3, 0, lam) == 0
        assert hetero_stirling(2, 4, lam) == 0


def test_hetero_interpolates_stirling2_and_lah():
    for n in range(9):
        for k in range(n + 1):
            assert hetero_stirling(n, k, Fraction(0)) == stirling2(n, k)
            assert hetero_stirling(n, k, Fraction(1)) == lah(n, k)


def test_hetero_against_bell_recurrence_oracle():
    for lam in [HALF, Fraction(-1, 3), Fraction(2)]:
        for n in range(8):
            for k in range(n + 1):
                assert hetero_stirling(n, k, lam) == oracles.hetero_via_bell(n, k, lam)


def test_hetero_against_explicit_sum_oracle():
    for lam in [HALF, Fraction(-1, 3), Fraction(2), Fraction(-13, 7)]:
        for n in range(16):
            for k in range(n + 1):
                assert hetero_stirling(n, k, lam) == oracles.hetero_explicit(n, k, lam)


def test_hetero_bell_poly_coeffs():
    p = hetero_bell_poly(2, Fraction(1))
    assert p.coeffs == (0, 2, 1)
    q = hetero_bell_poly(4, HALF)
    assert list(q.coeffs) == HETERO_HALF_ROWS[4]


def test_prob_hetero_frozen_row():
    d = Bernoulli(Fraction(1, 3))
    row = [prob_hetero_stirling(d, 2, k, Fraction(1)) for k in range(3)]
    assert row == [0, Fraction(2, 3), Fraction(1, 9)]


def test_prob_reduces_to_classical_at_unit_constant():
    for lam in [Fraction(0), HALF, Fraction(1), Fraction(3)]:
        for n in range(7):
            for k in range(n + 1):
                assert prob_hetero_stirling(CONST_ONE, n, k, lam) == hetero_stirling(
                    n, k, lam
                )
    for n in range(7):
        for k in range(n + 1):
            assert prob_stirling2(CONST_ONE, n, k) == stirling2(n, k)
            assert prob_lah(CONST_ONE, n, k) == lah(n, k)


def test_prob_unit_bernoulli_matches_unit_constant():
    one = Bernoulli(Fraction(1))
    for n in range(6):
        for k in range(n + 1):
            assert prob_hetero_stirling(one, n, k, HALF) == prob_hetero_stirling(
                CONST_ONE, n, k, HALF
            )


def _oracle_moment(d, lam):
    """(j, n) -> E<S_j>_{n,lam} at lam = 0 or 1, computed without the package."""
    if d == POISSON_ONE:
        # S_j is Poisson(j): Touchard moments at lam = 0, Lah-weighted powers at lam = 1
        if lam == 0:
            return lambda j, n: oracles.poisson_moment_rec(j, n)
        return lambda j, n: sum((oracles.lah_closed(n, i) * j**i for i in range(n + 1)), 0)
    if d == BERN_HALF:
        return lambda j, n: oracles.bernoulli_sum_rising_moment(HALF, j, n, lam)
    pairs = ((1, 1),) if d == CONST_ONE else d.pairs
    return lambda j, n: oracles.finite_sum_moment(pairs, j, n, lam)


def test_prob_lambda_limits():
    for d in TRIO + (FS_ZERO_TWO,):
        zero, one = _oracle_moment(d, 0), _oracle_moment(d, 1)
        for n in range(6):
            for k in range(n + 2):
                assert prob_stirling2(d, n, k) == prob_hetero_stirling(
                    d, n, k, 0
                ) == oracles.prob_alternating(zero, n, k)
                assert prob_lah(d, n, k) == prob_hetero_stirling(
                    d, n, k, 1
                ) == oracles.prob_alternating(one, n, k)


def test_routes_agree():
    for d in TRIO + (FS_ZERO_TWO,):
        for lam in [Fraction(0), HALF, Fraction(1), Fraction(5, 3)]:
            for n in range(7):
                for k in range(n + 1):
                    base = prob_hetero_stirling(d, n, k, lam, Route.DIRECT)
                    assert (
                        prob_hetero_stirling(d, n, k, lam, Route.STIRLING_TRANSFORM)
                        == base
                    )
                    assert prob_hetero_stirling(d, n, k, lam, Route.PARTIAL_BELL) == base
                for route in Route:
                    # the polynomial is the row of the route's own entries, which end at k = n
                    entries = [prob_hetero_stirling(d, n, k, lam, route) for k in range(n + 2)]
                    assert entries[n + 1] == 0
                    assert prob_hetero_bell_poly(d, n, lam, route) == Polynomial(entries)


_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _finite_laws(draw):
    values = draw(st.lists(_rationals, min_size=1, max_size=3))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    return FiniteSupport(tuple((v, Fraction(w, total)) for v, w in zip(values, weights)))


@settings(max_examples=60, deadline=None)
@given(_finite_laws(), _rationals, st.integers(0, 6))
def test_routes_agree_on_random_laws(d, lam, n):
    moments = [oracles.finite_sum_moment(d.pairs, j, n, lam) for j in range(n + 1)]
    raw = [oracles.finite_sum_moment(d.pairs, 1, i) for i in range(n + 1)]
    # the law itself and its spelling as the list of its raw moments 0..n
    for law in (d, MomentList(tuple(raw))):
        recurrence = prob_hetero_bell_recurrence(law, n, lam)[n]
        for k in range(n + 1):
            want = oracles.prob_alternating(lambda j, _: moments[j], n, k)
            for route in Route:
                assert prob_hetero_stirling(law, n, k, lam, route) == want
            assert recurrence.coeff(k) == want
    if n:
        # one moment too short for order n, on every route and the recurrence
        short = MomentList(tuple(raw[:n]))
        for route in Route:
            with pytest.raises(MomentUnavailable):
                prob_hetero_bell_poly(short, n, lam, route)
        with pytest.raises(MomentUnavailable):
            prob_hetero_bell_recurrence(short, n, lam)


_laws = st.one_of(
    _finite_laws(),
    st.fractions(0, 1, max_denominator=9).map(Bernoulli),
    st.fractions(min_value=Fraction(1, 9), max_value=3, max_denominator=9).map(Poisson),
    # any rational sequence from 1 on: the routes agree as identities in the moments
    st.lists(_rationals, min_size=40, max_size=40).map(lambda mu: MomentList((1, *mu))),
)


@settings(max_examples=25, deadline=None)
@given(_laws, _rationals, st.integers(0, 40), st.sampled_from(("prob_hetero", "prob_stirling2", "prob_lah")))
@example(Poisson(Fraction(5, 4)), Fraction(1, 3), 40, "prob_hetero")
@example(MomentList(tuple(Fraction(3, 3 + i) for i in range(41))), Fraction(-5, 2), 40, "prob_lah")
def test_table_rows_equal_direct_rows_on_random_laws(d, lam, nmax, family):
    argv = ["table", family, "--nmax", str(nmax), "--dist", format_distribution(d), f"--lambda={lam}"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lam = {"prob_stirling2": 0, "prob_lah": 1}.get(family, lam)
    want = [[prob_hetero_stirling(d, n, k, lam, Route.DIRECT) for k in range(n + 1)] for n in range(nmax + 1)]
    assert [[Fraction(v) for v in row] for row in json.loads(out.getvalue())["rows"]] == want


def test_table_reads_one_partial_bell_row_per_n():
    clear_caches()
    law, lam = Poisson(Fraction(5, 4)), Fraction(1, 3)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["table", "prob_hetero", "--nmax", "12", "--dist", "poisson:5/4", "--lambda", "1/3"]) == 0
    info = hetero._row.cache_info()
    assert (info.hits, info.misses) == (0, 13)
    assert len(hetero._bell_memo(law, lam)) == 13
    assert distributions._sum_moments.cache_info().currsize == 0  # DIRECT is not read


def test_rows_read_one_at_a_time_make_one_pass(monkeypatch):
    streams, rows_made = [], []
    stream = hetero.scaled_deg_rising_moments
    monkeypatch.setattr(hetero, "scaled_deg_rising_moments", lambda *a: streams.append(a) or stream(*a))
    clear_caches()
    law, lam = _COUNTED_LAWS[0], Fraction(-5, 2)
    for n in range(41):
        prob_hetero_bell_poly(law, n, lam, Route.PARTIAL_BELL)
        rows_made.append(len(hetero._bell_memo(law, lam)))
    assert streams == [(law, lam)]  # the moments are drawn from one stream
    assert rows_made == list(range(1, 42))  # and each call adds only the row it asks for
    row = prob_hetero_bell_poly(law, 40, lam, Route.PARTIAL_BELL)
    assert prob_hetero_bell_recurrence(law, 40, lam)[40] is row


def test_rows_read_out_of_order_equal_a_fresh_process():
    law_text = "finite:-3/2:1/4,1/2:1/4,5/2:1/2"
    argv = ["table", "prob_hetero", "--nmax", "20", "--dist", law_text, "--lambda=-5/7"]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(heterobell.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "heterobell", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0
    clear_caches()
    law, lam = parse_distribution(law_text), Fraction(-5, 7)
    for n in (10, 5, 20):
        prob_hetero_bell_poly(law, n, lam, Route.PARTIAL_BELL)
    assert len(hetero._bell_memo(law, lam)) == 21
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == proc.stdout


def test_short_moment_list_leaves_the_rows_unchanged():
    clear_caches()
    short, lam = MomentList((1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))), Fraction(1, 3)
    two = prob_hetero_bell_poly(short, 2, lam, Route.PARTIAL_BELL)
    entry = hetero._bell_memo(short, lam)
    before = list(entry)
    for n in (4, 9):
        with pytest.raises(MomentUnavailable, match="order 4 requested, only 3 supplied"):
            prob_hetero_bell_poly(short, n, lam, Route.PARTIAL_BELL)
        assert hetero._bell_memo.cache_info().currsize == 1
        assert hetero._bell_memo(short, lam) is entry and entry == before
    # the kept moment stream goes on from where it stopped
    assert prob_hetero_bell_poly(short, 3, lam, Route.PARTIAL_BELL) == prob_hetero_bell_poly(short, 3, lam)
    assert prob_hetero_bell_poly(short, 2, lam, Route.PARTIAL_BELL) is two


_SHORT_LAW_MEMOS = (
    hetero._bell_memo, distributions._sum_moments, hetero._row, hetero._values, iid._split_weights
)


@pytest.mark.parametrize(
    "read",
    [lambda d, route=route: prob_hetero_bell_poly(d, 5, 0, route) for route in Route]
    + [lambda d: sum_raw_moment(d, 3, 4), lambda d: sum_deg_rising_moment(d, 3, 4, 0)]
    + [lambda d: hetero._direct_values(d, 5, Fraction(0), HALF)]
    # the partial Bell rows of the values, of u_i = P_i(x) and of u_i = i P_{i-1}(x)
    + [lambda d, s=s: hetero._value_bell_row(d, 5, Fraction(0), HALF, s) for s in (0, 1)]
    # at n = 0 the weights read no moment, so only the door of order_split_rhs stops them
    + [lambda d: order_split_rhs(d, 1, 2, HALF, 0), lambda d: order_split_rhs(d, 0, 3, HALF, 0)],
    ids=[route.name for route in Route]
    + ["sum_raw_moment", "sum_deg_rising_moment", "direct_values", "value_bell_row-0", "value_bell_row-1"]
    + ["order_split_rhs", "order_split_rhs-n0"],
)
def test_short_moment_list_leaves_no_memo_entry(read):
    clear_caches()
    with pytest.raises(MomentUnavailable, match="^moment of order 2 requested, only 1 supplied$"):
        read(MomentList((1, HALF)))
    assert [memo.cache_info().currsize for memo in _SHORT_LAW_MEMOS] == [0, 0, 0, 0, 0]


def test_short_moment_list_table_exits_2_and_leaves_no_memo_entry(capsys):
    clear_caches()
    assert main(["table", "prob_hetero", "--nmax", "5", "--dist", "moments:1,1/2"]) == 2
    assert capsys.readouterr() == ("", "error: moment of order 2 requested, only 1 supplied\n")
    assert [memo.cache_info().currsize for memo in _SHORT_LAW_MEMOS] == [0, 0, 0, 0, 0]


# every reader that checks a law's reach before its memo has a key, and the check itself
_DOORS = (
    [lambda d: d.require(5)]
    + [lambda d, route=route: prob_hetero_bell_poly(d, 5, 0, route) for route in Route]
    + [lambda d: sum_raw_moment(d, 3, 5), lambda d: hetero._direct_values(d, 5, Fraction(0), HALF)]
    + [lambda d: order_split_rhs(d, 2, 3, HALF, 0)]
)


@pytest.mark.parametrize(
    "door", _DOORS, ids=["require"] + [route.name for route in Route] + ["sum_moments", "values", "order_split"]
)
def test_a_short_law_names_its_first_missing_order(door):
    short = parse_distribution("moments:1,1/2")
    clear_caches()
    with pytest.raises(MomentUnavailable, match="^moment of order 2 requested, only 1 supplied$"):
        door(short)
    # a moment asked for by its own order still names that order
    with pytest.raises(MomentUnavailable, match="^moment of order 5 requested, only 1 supplied$"):
        raw_moment(short, 5)
    assert short.require(1) is None and raw_moment.cache_info().currsize == 0


def test_each_moment_order_is_looked_up_once():
    # the engine reads orders 0..n once each, and no door reads one before it
    clear_caches()
    prob_hetero_bell_poly(Poisson(Fraction(5, 4)), 12, Fraction(1, 3))
    info = raw_moment.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 13, 13)


def test_warm_value_stream_looks_up_no_row():
    clear_caches()
    law, lam, x = parse_distribution("finite:-1/2:1/3,3/2:2/3"), Fraction(-5, 7), Fraction(3, 2)
    values = hetero._direct_values(law, 6, lam, x)
    hetero._value_bell_row(law, 6, lam, x, 1)
    rows = hetero._row.cache_info()
    for n in range(7):
        assert hetero._direct_values(law, n, lam, x) is values
        hetero._value_bell_row(law, n, lam, x, 1)
    assert hetero._row.cache_info() == rows


@st.composite
def _laws_with_a_negative_atom(draw):
    law = draw(_finite_laws())
    atom = draw(st.fractions(min_value=-3, max_value=Fraction(-1, 4), max_denominator=4))
    return FiniteSupport(tuple((v, p * Fraction(2, 3)) for v, p in law.pairs) + ((atom, Fraction(1, 3)),))


@settings(max_examples=40, deadline=None)
@given(
    _laws_with_a_negative_atom(), _rationals, _rationals, st.lists(st.integers(0, 9), min_size=1, max_size=6)
)
def test_value_stream_equals_the_rows_at_the_point(d, lam, x, reads):
    clear_caches()
    first = hetero._direct_values(d, reads[0], lam, x)
    for i, n in enumerate(reads, 1):
        values = hetero._direct_values(d, n, lam, x)
        assert values is first  # one list per (law, lam, point), grown in place
        assert len(values) == max(reads[:i]) + 1  # only as far as it was asked
        assert values == [prob_hetero_bell_poly(d, j, lam)(x) for j in range(len(values))]


def _bell_sequence(values: list, n: int, s: int) -> list:
    """u_1..u_n of the value Bell rows: P_i(x) for s = 0, i P_{i-1}(x) for s = 1."""
    return [i**s * values[i - s] for i in range(1, n + 1)]


def _assert_value_bell_rows_are_partial_bell(d, n_max, lam, x):
    for s in (0, 1):
        for n in range(n_max + 1):
            row = hetero._value_bell_row(d, n, lam, x, s)
            us = _bell_sequence(hetero._direct_values(d, n, lam, x), n, s)
            assert row == tuple(triangles.partial_bell(n, k, us[: n - k + 1]) for k in range(n + 1))


@pytest.mark.parametrize("tag", ["T2.12", "T2.13"])
def test_value_bell_rows_equal_partial_bell_on_the_shipped_grid(tag):
    clear_caches()
    points = identity_grid(tag, load_grid_config())
    n_max = max(pt["n"] for pt in points)
    for d, lam, x in dict.fromkeys((pt["dist"], pt["lam"], pt["x"]) for pt in points):
        _assert_value_bell_rows_are_partial_bell(d, n_max, lam, x)


@settings(max_examples=40, deadline=None)
@given(_laws_with_a_negative_atom(), _rationals, _rationals, st.integers(0, 7))
def test_value_bell_rows_equal_partial_bell_on_random_laws(d, lam, x, n):
    clear_caches()
    _assert_value_bell_rows_are_partial_bell(d, n, lam, x)
    # the rows live in the memo of the values: per (law, lam, point) the values and two Bell sets
    assert hetero._values.cache_info().currsize == 3


def test_concurrent_value_readers_see_one_list():
    clear_caches()
    # a law, lam and point that no other test reads, so the four threads race to grow its values
    law = FiniteSupport(((Fraction(-7, 3), Fraction(1, 5)), (Fraction(2), Fraction(4, 5))))
    lam, x = Fraction(-3, 11), Fraction(5, 4)
    got = [None] * 4
    start = threading.Barrier(4)

    def read(i):
        start.wait()
        order = range(25) if i % 2 else range(24, -1, -1)
        got[i] = [hetero._direct_values(law, n, lam, x) for n in order]

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
    memo = hetero._values(law, lam, x)
    assert all(lists is not None and all(v is memo for v in lists) for lists in got)
    # each order appended once: 25 orders, each the value of its own row
    assert memo == [prob_hetero_bell_poly(law, n, lam)(x) for n in range(25)]


_COUNTED_N, _COUNTED_LAM = 12, Fraction(-13, 7)
_COUNTED_LAWS = (
    FiniteSupport(((Fraction(-3, 2), Fraction(1, 4)), (Fraction(5, 2), Fraction(3, 4)))),
    Poisson(Fraction(5, 4)),
)


def _warm_raw_moments(d, n):
    clear_caches()
    for i in range(n + 1):
        raw_moment(d, i)  # the law's own moments, which every route reads


def _count_fractions(monkeypatch, call):
    """call() and the number of Fraction constructions it made."""
    calls = []
    plain = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: calls.append(a) or plain(cls, *a, **kw))
    try:
        return call(), len(calls)
    finally:
        monkeypatch.undo()


def test_direct_row_is_integer_until_its_entries(monkeypatch):
    n, lam = _COUNTED_N, _COUNTED_LAM

    def no_single_copy_moments(*args):
        raise AssertionError("DIRECT read the single-copy moments")

    for d in _COUNTED_LAWS:
        _warm_raw_moments(d, n)
        monkeypatch.setattr(hetero, "scaled_deg_rising_moments", no_single_copy_moments)
        row, built = _count_fractions(monkeypatch, lambda: prob_hetero_bell_poly(d, n, lam, Route.DIRECT))
        # lam, then one Fraction per entry, which Polynomial keeps
        assert built <= 1 + (n + 1)
        assert row == prob_hetero_bell_poly(d, n, lam, Route.PARTIAL_BELL)
        # DIRECT reads no stirling1u row, which STIRLING_TRANSFORM weights by
        assert triangles._rows(1, 0, 1) == [(1,)]


def test_partial_bell_row_and_recurrence_are_integer_until_their_entries(monkeypatch):
    n, lam = _COUNTED_N, _COUNTED_LAM
    for d in _COUNTED_LAWS:
        _warm_raw_moments(d, n)
        row, built = _count_fractions(monkeypatch, lambda: prob_hetero_bell_poly(d, n, lam, Route.PARTIAL_BELL))
        assert built <= 1 + (n + 1)
        # single-copy moments only: the partial-sum engine is never filled
        assert distributions._sum_moments.cache_info().currsize == 0
        polys, built = _count_fractions(monkeypatch, lambda: prob_hetero_bell_recurrence(d, n, lam))
        # lam, then one Fraction per coefficient of orders 0..n
        assert built <= 1 + (n + 1) * (n + 2) // 2
        assert distributions._sum_moments.cache_info().currsize == 0
        # the two share one loop, so each is checked against DIRECT, not against the other
        direct = prob_hetero_bell_poly(d, n, lam, Route.DIRECT)
        assert row == direct and polys[n] == direct


def test_stirling_transform_row_is_integer_until_its_entries(monkeypatch):
    n, lam = _COUNTED_N, _COUNTED_LAM
    for d in _COUNTED_LAWS:
        _warm_raw_moments(d, n)
        row, built = _count_fractions(
            monkeypatch, lambda: prob_hetero_bell_poly(d, n, lam, Route.STIRLING_TRANSFORM)
        )
        # the lam = 0 key of the integer PARTIAL_BELL rows the route weighs, then one per entry
        assert built <= 1 + (n + 1)
        # single-copy moments only: the partial-sum engine is never filled
        assert distributions._sum_moments.cache_info().currsize == 0
        assert len(triangles._rows(1, 0, 1)) == n + 1  # weighted by the stirling1u row
        assert row == prob_hetero_bell_poly(d, n, lam, Route.DIRECT)


def test_routes_and_row_sides_fill_no_per_entry_memo():
    # every reader takes a kept row whole from the memo that keeps it, so the per-entry
    # memos stay empty: the transform reads the lam = 0 PARTIAL_BELL rows, not prob_stirling2
    clear_caches()
    lam = Fraction(-5, 7)
    for d in _COUNTED_LAWS:
        for route in Route:
            for n in range(9):
                prob_hetero_bell_poly(d, n, lam, route)
        for n in range(9):
            identities._IDENTITIES["T2.11"].right(d, n, lam)
    for n in range(9):
        identities._IDENTITIES["T2.17"].right(_COUNTED_LAWS[1], n, lam)
    for memo in (prob_stirling2, prob_lah, hetero_stirling, distributions.deg_rising_moment):
        assert memo.cache_info().currsize == 0, memo.__name__


def test_warm_row_with_fraction_lambda_builds_no_fraction(monkeypatch):
    law, lam = Poisson(Fraction(5, 4)), Fraction(1, 3)
    cold = prob_hetero_bell_poly(law, 6, lam)
    warm, built = _count_fractions(monkeypatch, lambda: prob_hetero_bell_poly(law, 6, lam))
    assert built == 0
    assert warm is cold
    # an int lam reads the same memo entry
    assert prob_hetero_bell_poly(law, 6, 0) is prob_hetero_bell_poly(law, 6, Fraction(0))


def test_direct_rows_enter_the_moment_engine_once_each(monkeypatch):
    engine, calls = distributions._sum_moment_rows, []
    monkeypatch.setattr(distributions, "_sum_moment_rows", lambda *args: calls.append(args) or engine(*args))
    clear_caches()
    law = Poisson(Fraction(5, 4))
    for n in range(21):
        prob_hetero_bell_poly(law, n, Fraction(1, 3), Route.DIRECT)
        assert len(calls) == n + 1
    assert calls == [(law, n, 0) for n in range(21)]


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        hetero_stirling(-1, 0, HALF)
    with pytest.raises(ValueError):
        hetero_bell_poly(-1, 0)
    for route in Route:
        with pytest.raises(ValueError):
            prob_hetero_stirling(BERN_HALF, 2, -1, HALF, route)
        with pytest.raises(ValueError):
            prob_hetero_stirling(BERN_HALF, -1, 0, HALF, route)
        with pytest.raises(ValueError):
            prob_hetero_bell_poly(BERN_HALF, -1, 0, route)


def test_unknown_route_rejected():
    with pytest.raises(ValueError):
        prob_hetero_stirling(BERN_HALF, 2, 1, HALF, "direct")
    with pytest.raises(ValueError):
        prob_hetero_bell_poly(BERN_HALF, 2, HALF, None)


def test_recurrence_polynomials_match_direct():
    for d in TRIO:
        for lam in [Fraction(0), HALF, Fraction(1)]:
            polys = prob_hetero_bell_recurrence(d, 6, lam)
            assert len(polys) == 7
            for n, p in enumerate(polys):
                assert p == prob_hetero_bell_poly(d, n, lam)


def test_derivative_formula_matches_calculus():
    for d in (BERN_THIRD, Poisson(2), FS_ZERO_TWO):
        for lam in [Fraction(0), HALF, Fraction(1)]:
            for n in range(1, 6):
                direct = prob_hetero_bell_poly(d, n, lam)
                for k in range(1, n + 1):
                    assert hetero_derivative(d, n, lam, k) == direct.derivative(k)


def test_derivative_rejects_bad_order():
    with pytest.raises(ValueError):
        hetero_derivative(BERN_HALF, 3, HALF, 0)
    with pytest.raises(ValueError):
        hetero_derivative(BERN_HALF, 3, HALF, 4)


def test_dobinski_classical_bell_numbers():
    # at Y = 1, lam = 0, x = 1 the series gives the Bell numbers
    bells = [1, 1, 2, 5, 15, 52, 203]
    for n, b in enumerate(bells):
        r = dobinski_details(CONST_ONE, n, Fraction(0), Fraction(1))
        assert abs(r.value - b) <= r.rel_bound * b
        assert r.rel_bound <= 2e-12


def test_dobinski_matches_exact_polynomial_value():
    for d in (CONST_ONE, BERN_HALF, FS_ZERO_TWO):
        for lam in [Fraction(0), HALF, Fraction(1)]:
            for n in range(6):
                for x in [HALF, Fraction(1), Fraction(2), Fraction(7, 3)]:
                    exact = prob_hetero_bell_poly(d, n, lam)(x)
                    r = dobinski_details(d, n, lam, x)
                    assert abs(Fraction(r.value) - exact) <= Fraction(r.rel_bound) * abs(
                        exact
                    )


def test_dobinski_respects_rel_tol_argument():
    r = dobinski_details(BERN_HALF, 5, HALF, Fraction(3, 2), rel_tol=1e-6)
    loose = r.terms_used
    r2 = dobinski_details(BERN_HALF, 5, HALF, Fraction(3, 2), rel_tol=1e-14)
    assert r2.terms_used > loose
    assert r2.rel_bound <= 1e-13


def test_dobinski_rejects_bad_inputs():
    with pytest.raises(NonPositiveEvaluationPoint):
        dobinski_details(BERN_HALF, 3, HALF, Fraction(0))
    with pytest.raises(NonPositiveEvaluationPoint):
        dobinski_details(BERN_HALF, 3, HALF, Fraction(-2))
    with pytest.raises(UnsupportedDistribution):
        dobinski_details(Poisson(1), 3, HALF, Fraction(1))
    with pytest.raises(ValueError):
        dobinski_details(BERN_HALF, 3, HALF, Fraction(1), rel_tol=0.0)


def test_dobinski_zero_value_cases():
    # lam = 0 point mass at 0: majorant vanishes, certified zero
    r = dobinski_details(Constant(0), 2, Fraction(0), Fraction(1))
    assert r.value == 0.0 and r.rel_bound == 0.0
    # a point mass at 0 with lam != 0, and a law of mean 0: the majorant stays positive, but
    # E<S_k>_{n,lam} is a polynomial in k of degree <= n, so terms k = 0..n of 0 certify an exact 0
    mean_zero = FiniteSupport(((-1, HALF), (1, HALF)))
    for d, n, lam in ((Constant(0), 2, HALF), (Constant(0), 3, Fraction(1)), (mean_zero, 3, Fraction(0))):
        r = dobinski_details(d, n, lam, Fraction(3))
        assert (r.value, r.terms_used, r.partial_sum, r.rel_bound) == (0.0, n + 1, 0, 0.0)
        assert prob_hetero_bell_poly(d, n, lam)(3) == 0
    # at n = 2 the same law has terms E[S_k**2] = k, not all 0, and a series that is not 0
    assert dobinski_details(mean_zero, 2, Fraction(0), Fraction(3)).partial_sum != 0


def test_dobinski_value_outside_float_range():
    # the exact sums are fine; only the float of the result would be inf or 0
    with pytest.raises(SeriesNotCertified):
        dobinski_details(Constant(10**310), 1, Fraction(0), Fraction(1))
    with pytest.raises(SeriesNotCertified):
        dobinski_details(BERN_HALF, 1, Fraction(0), Fraction(1, 10**400))
    r = dobinski_details(Constant(10**300), 1, Fraction(0), Fraction(1))
    assert abs(Fraction(r.value) - 10**300) <= Fraction(r.rel_bound) * 10**300


def test_dobinski_large_nondyadic_point():
    # the reported bound must absorb the rounding of x itself
    x = Fraction(50, 3)
    exact = prob_hetero_bell_poly(BERN_HALF, 3, HALF)(x)
    r = dobinski_details(BERN_HALF, 3, HALF, x)
    assert abs(Fraction(r.value) - exact) <= Fraction(r.rel_bound) * abs(exact)
    assert math.isfinite(r.value)


def _series_outcome(evaluate, *args):
    try:
        r = evaluate(*args)
    except ArithmeticError as exc:
        return type(exc)
    return r.value, r.terms_used, r.partial_sum, r.rel_bound


_BOUNDED_LAWS = (
    CONST_ONE,
    Constant(Fraction(-5, 2)),
    Constant(0),
    BERN_HALF,
    BERN_THIRD,
    FS_ZERO_TWO,
    FiniteSupport(((Fraction(-3, 2), Fraction(1, 4)), (Fraction(5, 2), Fraction(3, 4)))),
)


def test_dobinski_matches_fraction_oracle():
    clear_caches()
    cases = [
        (d, n, lam, x, tol)
        for d in _BOUNDED_LAWS
        for lam in (Fraction(0), HALF, Fraction(1), Fraction(-13, 7))
        for n in (0, 1, 2, 3, 5, 8)
        for x in (HALF, Fraction(7, 3), Fraction(10), Fraction(50, 3))
        for tol in (1e-12, 1e-6)
    ]
    # the zero series, two series of terms that are 0 for k = 0..n, and values past the float range
    cases += [
        (Constant(0), 2, Fraction(0), Fraction(1), 1e-12),
        (Constant(0), 2, HALF, Fraction(1), 1e-12),
        (FiniteSupport(((-1, HALF), (1, HALF))), 3, Fraction(0), Fraction(3), 1e-12),
        (Constant(10**310), 1, Fraction(0), Fraction(1), 1e-12),
        (Constant(10**300), 1, Fraction(0), Fraction(1), 1e-12),
        (BERN_HALF, 1, Fraction(0), Fraction(1, 10**400), 1e-12),
    ]
    assert oracles._SERIES_TERM_CAP == hetero._SERIES_TERM_CAP
    outcomes = set()
    for case in cases:
        got = _series_outcome(dobinski_details, *case)
        assert got == _series_outcome(oracles.dobinski_fraction, *case), case
        outcomes.add(got if isinstance(got, type) else got[2] == 0)
    assert outcomes == {True, False, SeriesNotCertified}
    # the terms come from the partial-sum engine, not from the rows they are checked against
    clear_caches()
    dobinski_details(FS_ZERO_TWO, 5, HALF, Fraction(7, 3))
    assert hetero._row.cache_info().currsize == 0
