import ast
import copy
import dataclasses
import functools
import importlib
import math
import os
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import heterobell
from heterobell import (
    Bernoulli,
    Constant,
    FiniteSupport,
    MomentList,
    MomentUnavailable,
    ParseError,
    Poisson,
    deg_rising_moment,
    dobinski_details,
    format_distribution,
    parse_distribution,
    Route,
    clear_caches,
    hetero_stirling,
    prob_hetero_bell_poly,
    prob_hetero_stirling,
    raw_moment,
    sum_deg_rising_moment,
    sum_raw_moment,
)
from heterobell.distributions import _LAWS
from heterobell.identities import identity_grid, load_grid_config

from . import oracles
from .oracles import BERN_THIRD, FS_ZERO_TWO
from .test_hetero import _finite_laws, _rationals

# Frozen Poisson raw moments, from the standalone recurrence script.
POISSON_2_MOMENTS = [1, 2, 6, 22, 94, 454, 2430]
POISSON_HALF_MOMENTS = [
    1,
    Fraction(1, 2),
    Fraction(3, 4),
    Fraction(11, 8),
    Fraction(49, 16),
    Fraction(257, 32),
]


def test_constructor_validation():
    with pytest.raises(ValueError):
        Bernoulli(Fraction(3, 2))
    with pytest.raises(ValueError):
        Poisson(0)
    with pytest.raises(ValueError):
        FiniteSupport(((Fraction(1), Fraction(1, 2)),))
    with pytest.raises(ValueError):
        FiniteSupport(((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(2))))
    with pytest.raises(ValueError):
        MomentList((Fraction(2),))
    # negative support values are allowed
    FiniteSupport(((Fraction(-3), Fraction(1, 4)), (Fraction(1), Fraction(3, 4))))


def test_finite_support_spellings_are_one_law():
    texts = (
        "finite:2:1/2,0:1/2",
        "finite:0:1/2,2:1/2",
        "finite:0:1/4,0:1/4,2:1/2",
        "finite:0:1/2,2:1/2,5:0",
    )
    laws = [parse_distribution(t) for t in texts]
    assert laws[0] == laws[1] == laws[2] == laws[3]
    assert len({hash(d) for d in laws}) == 1
    assert {format_distribution(d) for d in laws} == {"finite:0:1/2,2:1/2"}
    # one memo row: equal laws are one key, so the memo hands back one object
    rows = [prob_hetero_bell_poly(d, 4, Fraction(1, 3)) for d in laws]
    assert rows[0] is rows[1] is rows[2] is rows[3]
    # an atom of probability 0 does not widen the support bound of the series
    terms = {
        dobinski_details(parse_distribution(t), 3, 0, 2).terms_used
        for t in ("finite:1:1", "finite:1:1,100:0")
    }
    assert len(terms) == 1


def test_parse_format_round_trip():
    texts = [
        "bernoulli:1/2",
        "poisson:2",
        "const:-3",
        "finite:0:1/2,2:1/2",
        "finite:-3:1/4,1:3/4",
        "moments:1,1/2,1/4,1/8",
    ]
    for text in texts:
        d = parse_distribution(text)
        assert format_distribution(d) == text
        assert parse_distribution(format_distribution(d)) == d
    # a law added to the registry cannot skip the round trip
    assert {text.partition(":")[0] for text in texts} == set(_LAWS)


def test_unknown_head_lists_every_registered_head():
    with pytest.raises(ParseError, match="unknown distribution family 'gauss'") as info:
        parse_distribution("gauss:1")
    assert _LAWS and all(head in str(info.value) for head in _LAWS)


def test_laws_are_the_only_per_law_dispatch():
    # no match statement anywhere, and no isinstance against a law class outside the law
    # classes: a per-law fact is a method of the law
    laws = {cls.__name__ for cls in _LAWS.values()}
    package = os.path.dirname(heterobell.__file__)
    found = []
    for filename in sorted(os.listdir(package)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(package, filename)) as fh:
            todo = [ast.parse(fh.read())]
        while todo:
            node = todo.pop()
            if isinstance(node, ast.ClassDef) and node.name in laws:
                continue
            if isinstance(node, ast.Match) or (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "isinstance"
                and laws & {n.id for n in ast.walk(node.args[1]) if isinstance(n, ast.Name)}
            ):
                found.append(f"{filename}:{node.lineno}")
            todo.extend(ast.iter_child_nodes(node))
    assert found == []


@pytest.mark.parametrize(
    "bad",
    [
        "bernoulli",
        "gauss:1",
        "bernoulli:2",
        "finite:1=1/2",
        "finite:1:1/2,2:1/3",
        "moments:2,3",
        "poisson:x",
        "poisson:-1",
    ],
)
def test_parse_rejects(bad):
    with pytest.raises(ParseError):
        parse_distribution(bad)


def test_raw_moments_basic_laws():
    b = Bernoulli(Fraction(2, 5))
    assert raw_moment(b, 0) == 1
    for n in range(1, 6):
        assert raw_moment(b, n) == Fraction(2, 5)
    c = Constant(Fraction(-3, 2))
    assert raw_moment(c, 3) == Fraction(-27, 8)
    assert raw_moment(FS_ZERO_TWO, 2) == 2


def test_poisson_moments_frozen():
    for n, m in enumerate(POISSON_2_MOMENTS):
        assert raw_moment(Poisson(2), n) == m
    for n, m in enumerate(POISSON_HALF_MOMENTS):
        assert raw_moment(Poisson(Fraction(1, 2)), n) == m


def test_poisson_moments_against_recurrence_oracle():
    for alpha in [Fraction(1), Fraction(3), Fraction(2, 7), Fraction(5, 4)]:
        for n in range(41):
            assert raw_moment(Poisson(alpha), n) == oracles.poisson_moment_rec(alpha, n)


def test_moment_list_lookup_and_exhaustion():
    d = MomentList((Fraction(1), Fraction(1, 3), Fraction(1, 5)))
    assert raw_moment(d, 2) == Fraction(1, 5)
    with pytest.raises(MomentUnavailable):
        raw_moment(d, 3)
    with pytest.raises(MomentUnavailable):
        sum_raw_moment(d, 2, 3)
    # every route reads moments up to order n for the whole row n, whatever k is
    d = parse_distribution("moments:1,1/2,1/3")
    half = Fraction(1, 2)
    for route in Route:
        # E[Y (Y + lam)] at lam = 1/2
        assert prob_hetero_stirling(d, 2, 1, half, route) == Fraction(7, 12)
        with pytest.raises(MomentUnavailable):
            prob_hetero_stirling(d, 4, 3, half, route)


# a law of every registered head but the moment list's, which alone can run short
_NEVER_SHORT = ("bernoulli:1/3", "poisson:5/4", "const:-2/7", "finite:-3/2:1/4,5/2:3/4")


def test_only_a_moment_list_runs_short(monkeypatch):
    assert {spec.partition(":")[0] for spec in _NEVER_SHORT} == set(_LAWS) - {"moments"}
    laws = [parse_distribution(spec) for spec in _NEVER_SHORT]
    read = []
    for law in laws:
        plain = type(law).moment
        monkeypatch.setattr(type(law), "moment", lambda self, n, plain=plain: read.append(n) or plain(self, n))
    clear_caches()
    assert [law.require(40) for law in laws] == [None] * len(laws)
    assert read == [] and raw_moment.cache_info().currsize == 0


def test_sum_moments_frozen_values():
    assert sum_raw_moment(FS_ZERO_TWO, 3, 4) == 264
    assert sum_raw_moment(FS_ZERO_TWO, 2, 3) == 20
    assert sum_raw_moment(BERN_THIRD, 4, 3) == Fraction(56, 9)


def test_sum_moments_against_enumeration_oracle():
    for k in range(4):
        for n in range(6):
            assert sum_raw_moment(FS_ZERO_TWO, k, n) == oracles.finite_sum_moment(
                FS_ZERO_TWO.pairs, k, n
            )
            assert sum_raw_moment(BERN_THIRD, k, n) == oracles.bernoulli_sum_moment(
                Fraction(1, 3), k, n
            )


def test_sum_moment_splitting_property():
    # E[S_{j+k}^n] must equal the binomial convolution of the split pieces
    d = FiniteSupport(((Fraction(-1), Fraction(1, 3)), (Fraction(2), Fraction(2, 3))))
    from heterobell import binomial

    for j, k in [(1, 1), (1, 2), (2, 2)]:
        for n in range(6):
            lhs = sum_raw_moment(d, j + k, n)
            rhs = sum(
                binomial(n, i) * sum_raw_moment(d, j, i) * sum_raw_moment(d, k, n - i)
                for i in range(n + 1)
            )
            assert lhs == rhs


def test_poisson_sum_is_poisson():
    # a k-fold sum of Poisson(alpha) has the law of Poisson(k * alpha)
    alpha = Fraction(3, 4)
    for k in range(1, 5):
        for n in range(7):
            assert sum_raw_moment(Poisson(alpha), k, n) == raw_moment(
                Poisson(k * alpha), n
            )


def test_deg_rising_moments():
    lam = Fraction(1, 2)
    assert sum_deg_rising_moment(Bernoulli(Fraction(1, 4)), 2, 3, lam) == Fraction(33, 16)
    for d in [BERN_THIRD, FS_ZERO_TWO]:
        for n in range(5):
            want = sum(
                oracles.rising(v, n, lam) * p for v, p in _atoms(d)
            )
            assert deg_rising_moment(d, n, lam) == want


def _atoms(d):
    if isinstance(d, Bernoulli):
        return ((Fraction(0), 1 - d.p), (Fraction(1), d.p))
    return d.pairs


def test_sum_deg_rising_moment_against_binomial_oracle():
    p = Fraction(1, 4)
    for lam in [Fraction(0), Fraction(1, 2), Fraction(2)]:
        for k in range(4):
            for n in range(5):
                assert sum_deg_rising_moment(
                    Bernoulli(p), k, n, lam
                ) == oracles.bernoulli_sum_rising_moment(p, k, n, lam)


def test_deg_rising_moment_lambda_zero_is_raw():
    for n in range(6):
        assert deg_rising_moment(Poisson(1), n, Fraction(0)) == raw_moment(Poisson(1), n)


def test_sum_moment_of_many_copies():
    # 1501 rows of two moments each, deeper than a fill by recursion could go
    assert sum_raw_moment(Bernoulli(Fraction(1, 2)), 1500, 1) == 750


def test_reading_one_k_at_a_time_walks_each_row_about_once(monkeypatch):
    looked_up = set()

    class Rows(list):
        """The kept rows of one law, noting each row the moment stream looks up."""

        def __getitem__(self, j):
            looked_up.add(j)
            return super().__getitem__(j)

    clear_caches()
    monkeypatch.setattr(heterobell.distributions, "_sum_moments", functools.cache(lambda d: ([], Rows())))
    p, lam = Fraction(1, 2), Fraction(1, 3)
    for k in range(301):
        # <x>_{1,lam} = x, so both are E[S_k] = k p
        assert sum_deg_rising_moment(Bernoulli(p), k, 1, lam) == sum_raw_moment(Bernoulli(p), k, 1) == k * p
        assert looked_up <= {k - 1, k}  # the stream resumes at the row before
        looked_up.clear()
    assert sum_raw_moment(Bernoulli(p), 150, 1) == 75 and looked_up == {150}  # a filled row is read at once
    looked_up.clear()
    # rows filled only to order 1 are extended from row 0 on
    assert sum_raw_moment(Bernoulli(p), 150, 2) == Fraction(150 * 151, 4) and looked_up == set(range(151))


def test_the_moment_stream_starts_anywhere():
    clear_caches()
    d, stream = Bernoulli(Fraction(1, 2)), heterobell.distributions._sum_moment_rows
    for k in range(3):
        sum_raw_moment(d, k, 1)  # rows 0..2, filled to order 1

    def scaled(k, n):
        # sigma**m * E[S_k**m] for m <= n, with sigma = 2 and S_k binomial(k, 1/2)
        return [Fraction(2**m * sum(math.comb(k, j) * j**m for j in range(k + 1)), 2**k) for m in range(n + 1)]

    # rows 0 and 1 are extended to order 3 before row 2 is
    assert next(stream(d, 3, 2)) == [1, 2, 6, 20] == scaled(2, 3)
    # a start past the kept rows makes the rows before it on the way
    assert next(stream(d, 3, 10)) == scaled(10, 3)
    # each row is filled at least to the order asked for
    assert next(stream(d, 2, 6))[:3] == scaled(6, 2)
    with pytest.raises(ValueError, match="indices must be >= 0"):
        next(stream(d, 3, -1))


def test_zero_fold_sum():
    for n in range(4):
        assert sum_raw_moment(BERN_THIRD, 0, n) == (1 if n == 0 else 0)


def test_negative_fold_count_rejected():
    with pytest.raises(ValueError, match="indices must be >= 0"):
        sum_raw_moment(BERN_THIRD, -1, 2)
    with pytest.raises(ValueError, match="indices must be >= 0"):
        sum_deg_rising_moment(BERN_THIRD, -1, 2, 0)


def test_support_bound():
    assert Bernoulli(Fraction(1, 3)).bound() == 1
    assert Constant(Fraction(-5, 2)).bound() == Fraction(5, 2)
    assert FS_ZERO_TWO.bound() == 2
    assert Poisson(1).bound() is None
    assert MomentList((Fraction(1), Fraction(1))).bound() is None


# two spellings of each law; the first of each pair is the one format_distribution prints
SPELLINGS = (
    ("bernoulli:1/2", "bernoulli:2/4"),
    ("poisson:3/2", "poisson:6/4"),
    ("const:-2", "const:-4/2"),
    ("finite:0:1/2,2:1/2", "finite:0:1/4,0:1/4,2:1/2"),
    ("finite:0:1/2,2:1/2", "finite:2:1/2,0:1/2"),
    ("moments:1,1/2,1/3", "moments:2/2,2/4,1/3"),
)


@pytest.mark.parametrize("texts", SPELLINGS)
def test_equal_laws_hash_equal_and_survive_pickle_and_copy(texts):
    law, other = (parse_distribution(t) for t in texts)
    assert law == other and hash(law) == hash(other)
    assert format_distribution(other) == texts[0]
    # once with the hash not yet taken, once after
    for taken in (False, True):
        fresh = parse_distribution(texts[1])
        if taken:
            hash(fresh)
        for twin in (pickle.loads(pickle.dumps(fresh)), copy.deepcopy(fresh)):
            assert twin == law and hash(twin) == hash(law)
            assert twin in {law} and {law: "hit"}[twin] == "hit"
    assert parse_distribution(texts[1]) in {law}


def test_equal_laws_compare_without_fraction_arithmetic(monkeypatch):
    mu = [Fraction(1, n + 1) for n in range(41)]
    law, twin = MomentList(tuple(mu)), MomentList(tuple(Fraction(2, 2 * n + 2) for n in range(41)))
    shorter, other = MomentList(tuple(mu[:-1])), MomentList(tuple(mu[:-1] + [Fraction(1, 43)]))
    calls = []
    plain = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda q, other: calls.append(q) or plain(q, other))
    for _ in range(3):
        assert law == twin and twin == law
        assert law != shorter and law != other
        assert {law: "hit"}[twin] == "hit"
    assert calls == []
    monkeypatch.undo()
    # the same numbers in another law are another law
    half = Fraction(1, 2)
    assert Bernoulli(half) != Poisson(half) != Constant(half) != Bernoulli(Fraction(1, 3))
    assert Bernoulli(half) != half and Bernoulli(half) == Bernoulli(Fraction(2, 4))


def test_law_hashes_its_fields_once(monkeypatch):
    law = MomentList(tuple(Fraction(1, n + 1) for n in range(41)))
    calls = []
    plain = Fraction.__hash__
    monkeypatch.setattr(Fraction, "__hash__", lambda q: calls.append(q) or plain(q))
    first = hash(law)
    assert len(calls) == 41
    assert all(hash(law) == first for _ in range(100))
    assert len(calls) == 41


@settings(max_examples=60, deadline=None)
@given(_finite_laws(), _rationals, st.integers(0, 6), st.integers(0, 8))
def test_integer_moment_engine_against_enumeration(d, lam, k, n):
    # the same law as a list of its enumerated raw moments, with another scale sigma
    listed = MomentList(tuple(oracles.finite_sum_moment(d.pairs, 1, i) for i in range(n + 1)))
    rising = [oracles.finite_sum_moment(d.pairs, j, n, lam) for j in range(k + 1)]
    raw = oracles.finite_sum_moment(d.pairs, k, n)
    entry = oracles.prob_alternating(lambda j, _: rising[j], n, k)
    for law in (d, listed):
        clear_caches()  # each law from cold memos
        assert sum_raw_moment(law, k, n) == raw
        assert sum_deg_rising_moment(law, k, n, lam) == rising[k]
        assert prob_hetero_stirling(law, n, k, lam, Route.DIRECT) == entry


@settings(max_examples=40, deadline=None)
@given(
    _finite_laws(),
    _rationals,
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 8)), min_size=1, max_size=5),
)
def test_moment_requests_in_any_order(d, lam, requests):
    # each request leaves rows 0..k filled to its order n, so rows of unequal length
    # pile up, and a later request must extend them
    clear_caches()
    for k, n in requests:
        assert sum_raw_moment(d, k, n) == oracles.finite_sum_moment(d.pairs, k, n)
        assert sum_deg_rising_moment(d, k, n, lam) == oracles.finite_sum_moment(d.pairs, k, n, lam)


def _package_lru_caches():
    """Every function decorated with lru_cache in the package's modules."""
    package = os.path.dirname(heterobell.__file__)
    caches = {}
    for filename in sorted(os.listdir(package)):
        # __init__ only re-exports, and importing __main__ would run the CLI
        if not filename.endswith(".py") or filename.startswith("__"):
            continue
        with open(os.path.join(package, filename)) as fh:
            tree = ast.parse(fh.read())
        module = importlib.import_module(f"heterobell.{filename[:-3]}")
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                "lru_cache" in ast.unparse(dec) for dec in node.decorator_list
            ):
                caches[f"{module.__name__}.{node.name}"] = getattr(module, node.name)
    return caches


def test_warm_spec_and_scale_read_no_dataclass_fields(monkeypatch):
    laws = [parse_distribution(spec) for spec in ("bernoulli:1/3", "poisson:5/4", "const:-2/7")]
    specs = [format_distribution(d) for d in laws]
    scales = [d.scale() for d in laws]
    calls = []
    fields = dataclasses.fields

    def counted(obj):
        calls.append(obj)
        return fields(obj)

    monkeypatch.setattr(dataclasses, "fields", counted)
    # also under the name a module would bind with `from dataclasses import fields`
    monkeypatch.setattr(heterobell.distributions, "fields", counted, raising=False)
    assert [format_distribution(d) for d in laws] == specs == ["bernoulli:1/3", "poisson:5/4", "const:-2/7"]
    assert [d.scale() for d in laws] == scales == [3, 4, 7]
    # a second instance of a law already read needs none either
    assert parse_distribution("bernoulli:1/3").scale() == 3
    # nor does the key of a law never hashed before, of one field or of several
    fresh = [Constant(Fraction(-9, 11)), MomentList((1, Fraction(3, 13))), FiniteSupport(((0, 1),))]
    twins = [Constant(Fraction(-18, 22)), MomentList((1, Fraction(3, 13))), FiniteSupport(((0, 1),))]
    assert [hash(d) for d in fresh] == [hash(d) for d in twins] and fresh == twins
    assert calls == []


def test_clear_caches_empties_every_memo():
    lam = Fraction(-5, 7)
    law = parse_distribution("finite:-1/2:1/3,3/2:2/3")

    def compute():
        return (
            [prob_hetero_bell_poly(law, 6, lam, route) for route in Route],
            prob_hetero_bell_poly(Poisson(Fraction(5, 4)), 5, lam),
            heterobell.prob_stirling2(law, 5, 2),
            heterobell.prob_lah(law, 5, 3),
            hetero_stirling(7, 3, lam),
            deg_rising_moment(law, 4, lam),
            # neither the routes nor the series read these two memos
            sum_deg_rising_moment(law, 3, 4, lam),
            heterobell.deg_rising_poly(4, lam),
            dobinski_details(law, 3, lam, 2).partial_sum,
            # the value stream of (law, lam, x) and the order-splitting weights
            list(heterobell.hetero._direct_values(law, 4, lam, Fraction(3, 2))),
            heterobell.order_split_rhs(law, 2, 2, Fraction(3, 2), lam),
            # the grid literals
            identity_grid("LIMITS", load_grid_config()),
        )

    before = compute()
    caches = _package_lru_caches()
    # the triangle, moment and partial Bell rows, the row values, the order-splitting weights and the
    # grid literals among them
    assert {
        "triangles._rows",
        "distributions._sum_moments",
        "hetero._bell_memo",
        "hetero._values",
        "iid._split_weights",
        "identities._literal",
    } <= {
        name.removeprefix("heterobell.") for name in caches
    }
    assert len(caches) == 14
    assert all(cache.cache_info().currsize for cache in caches.values())
    clear_caches()
    assert {name: cache.cache_info().currsize for name, cache in caches.items()} == dict.fromkeys(caches, 0)
    assert compute() == before


def test_no_module_keeps_a_hand_rolled_memo():
    def sizes():
        return {
            f"{name}.{attr}": len(value)
            for name, module in list(sys.modules.items())
            if name.startswith("heterobell.")
            for attr, value in vars(module).items()
            if not attr.startswith("__") and isinstance(value, (dict, list, set))
        }

    clear_caches()
    before = sizes()
    law, lam = Poisson(Fraction(5, 4)), Fraction(-5, 7)
    for route in Route:
        prob_hetero_bell_poly(law, 6, lam, route)
    dobinski_details(Bernoulli(Fraction(1, 3)), 3, lam, 2)
    sum_raw_moment(law, 4, 3)
    # every memo is an lru_cache, which clear_caches() finds
    assert sizes() == before
