"""Seeded request lists of the benchmark, each with its correctness check.

A request is one ``heterobell.cli.main(argv)`` call, or one call to a public
library function where the CLI has no command.  A check never reuses the code
it checks: it uses the row recurrences written here, the oracles in
``tests/oracles.py`` (read-only), a closed form, or exact agreement between
independent routes of the library.

Seeded parameters come from families of fixed size (fixed denominators,
numerators of similar magnitude), so the cost of a workload does not swing
with the seed.  Negative lambda is always passed as ``--lambda=-a/b``: the
CLI's argparse reads ``--lambda -a/b`` as an option and rejects it.
"""
from __future__ import annotations

import importlib.util
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

import heterobell
from heterobell import Bernoulli, FiniteSupport, MomentList, Poisson, Route

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_oracles():
    spec = importlib.util.spec_from_file_location(
        "heterobell_test_oracles", os.path.join(_ROOT, "tests", "oracles.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_oracles()


@dataclass(frozen=True)
class Request:
    """One request: a CLI argv, or a library call when ``call`` is set."""

    label: str
    argv: tuple[str, ...] = ()
    call: Callable[[], object] | None = None
    out_path: str | None = None  # the CLI writes its output here, not to stdout


@dataclass(frozen=True)
class Workload:
    requests: list[Request]
    # outputs by label (requests without output absent) -> mismatch message by label
    check: Callable[[dict[str, object]], dict[str, str]]


def _cli(*argv: str) -> Request:
    return Request(label=" ".join(argv), argv=argv)


def _lam(lam: Fraction) -> str:
    return f"--lambda={lam}"


def _rows(text: str) -> list[list[Fraction]]:
    return [[Fraction(v) for v in row] for row in json.loads(text)["rows"]]


def recurrence_rows(nmax: int, weight: Callable[[int, int], Fraction]) -> list[list[Fraction]]:
    """Triangle with T(0,0) = 1 and T(n+1,k) = T(n,k-1) + weight(n,k)*T(n,k)."""
    rows = [[Fraction(1)]]
    for n in range(nmax):
        prev = rows[-1]
        rows.append(
            [
                (prev[k - 1] if k else 0) + (weight(n, k) * prev[k] if k <= n else 0)
                for k in range(n + 2)
            ]
        )
    return rows


def hetero_rows(nmax: int, lam: Fraction) -> list[list[Fraction]]:
    """S(n+1,k) = S(n,k-1) + (k + n*lam) S(n,k)."""
    return recurrence_rows(nmax, lambda n, k: k + n * lam)


def deg_stirling1_rows(nmax: int, lam: Fraction) -> list[list[Fraction]]:
    """S(n+1,k) = S(n,k-1) + (n - k*lam) S(n,k)."""
    return recurrence_rows(nmax, lambda n, k: n - k * lam)


def partial_bell_row(n: int, xs: list[Fraction]) -> list[Fraction]:
    """B_{n,k}(xs) for k = 0..n by B_{n,k} = sum_i C(n-1,i-1) x_i B_{n-i,k-1}."""
    table = {(0, 0): Fraction(1)}
    for m in range(1, n + 1):
        table[(m, 0)] = Fraction(0)
        for k in range(1, m + 1):
            table[(m, k)] = sum(
                (comb(m - 1, i - 1) * xs[i - 1] * table[(m - i, k - 1)] for i in range(1, m - k + 2)),
                Fraction(0),
            )
    return [table[(n, k)] for k in range(n + 1)]


def _mismatch(label: str, got: list[list], want: list[list]) -> str:
    """Name the first entry where two triangles differ."""
    for n, (got_row, want_row) in enumerate(zip(got, want)):
        for k, (g, w) in enumerate(zip(got_row, want_row)):
            if g != w:
                return f"{label}: entry ({n},{k}) is {g}, expected {w}"
        if len(got_row) != len(want_row):
            return f"{label}: row {n} has {len(got_row)} entries, expected {len(want_row)}"
    return f"{label}: {len(got)} rows, expected {len(want)}"


# -- tables -------------------------------------------------------------------

_CLASSICAL_ORACLES = {
    "stirling2": oracles.stirling2_rec,
    "stirling1u": oracles.stirling1u_rec,
    "lah": oracles.lah_closed,
}


def tables(seed: int, tmpdir: str) -> Workload:
    """Cold `table` requests as a sweep over nmax, then partial/complete Bell rows."""
    rng = random.Random(seed)
    # the seed deals the numerators 9, 11, 13 (over 7) to the signs +, -, +
    hetero_lams = [Fraction(s * a, 7) for s, a in zip((1, -1, 1), rng.sample((9, 11, 13), 3))]
    deg_lam = Fraction(rng.choice((-1, 1)) * rng.choice((11, 12)), 7)
    xs = [Fraction(rng.randrange(1, 12), 6) for _ in range(22)]

    requests = []
    expect = {}  # label -> ((family, lambda), nmax)

    def table(family: str, nmax: int, lam: Fraction | None = None) -> None:
        req = _cli("table", family, "--nmax", str(nmax), *([] if lam is None else [_lam(lam)]))
        requests.append(req)
        expect[req.label] = ((family, lam), nmax)

    for step in (1, 2, 3):
        for lam in hetero_lams:
            table("hetero", 10 * step, lam)
        for family in _CLASSICAL_ORACLES:
            table(family, 50 * step)
        table("deg_stirling1", round(40 * step / 3), deg_lam)
    requests.append(
        Request("partial_bell row n=22", call=lambda: [heterobell.partial_bell(22, k, xs) for k in range(23)])
    )
    requests.append(Request("complete_bell n=22", call=lambda: heterobell.complete_bell(22, xs)))

    def check(outputs: dict[str, object]) -> dict[str, str]:
        bad = {}
        triangles = {}  # (family, lambda) -> rows up to the largest nmax
        for label, (key, nmax) in expect.items():
            if label not in outputs:
                continue
            if key not in triangles:
                triangles[key] = _expected_triangle(*key)
            got = _rows(outputs[label])
            want = triangles[key][: nmax + 1]
            if got != want:
                bad[label] = _mismatch(label, got, want)
        want_row = partial_bell_row(22, xs)
        for label, want in (("partial_bell row n=22", want_row), ("complete_bell n=22", sum(want_row))):
            if label in outputs and outputs[label] != want:
                bad[label] = f"{label}: {outputs[label]} != {want}"
        return bad

    return Workload(requests, check)


def _expected_triangle(family: str, lam: Fraction | None) -> list[list[Fraction]]:
    if family == "hetero":
        return hetero_rows(30, lam)
    if family == "deg_stirling1":
        return deg_stirling1_rows(40, lam)
    oracle = _CLASSICAL_ORACLES[family]
    return [[Fraction(oracle(n, k)) for k in range(n + 1)] for n in range(151)]


# -- prob ---------------------------------------------------------------------

_DOBINSKI_POINTS = ((32, 10), (1, 700), (1, 720))


def prob(seed: int, tmpdir: str) -> Workload:
    """Probabilistic tables, routes, recurrence and Dobinski series over four laws."""
    rng = random.Random(seed)
    lam = Fraction(rng.choice((-1, 1)) * rng.choice((5, 6)), 7)
    p = Fraction(rng.randrange(5, 9), 11)
    alpha = Fraction(rng.choice((5, 7)), 4)
    # atoms at odd multiples of 1/2, one of them negative
    neg, low = (Fraction(rng.choice((3, 5)), 2) for _ in range(2))
    high = low + rng.choice((1, 2))
    atoms = ((-neg, Fraction(1, 4)), (low, Fraction(1, 4)), (high, Fraction(1, 2)))
    # raw moments 0..40 of a Beta(a, 1) law, known to the library only as a list
    a = rng.randrange(3, 7)
    moments = tuple(Fraction(a, a + n) for n in range(41))
    laws = [
        (f"bernoulli:{p}", Bernoulli(p)),
        (f"poisson:{alpha}", Poisson(alpha)),
        ("finite:" + ",".join(f"{v}:{q}" for v, q in atoms), FiniteSupport(atoms)),
        ("moments:" + ",".join(str(m) for m in moments), MomentList(moments)),
    ]

    requests = []
    routes = {}  # label -> (label of the DIRECT table it must match, output -> rows)
    for text, law in laws:
        table = _cli("table", "prob_hetero", "--nmax", "30", "--dist", text, _lam(lam))
        requests.append(table)
        for route in (Route.STIRLING_TRANSFORM, Route.PARTIAL_BELL):
            label = f"prob_hetero {route.value} nmax=20 {text}"
            requests.append(Request(label, call=_route_rows(law, lam, route, 20)))
            routes[label] = (table.label, list)
        label = f"prob_hetero_bell_recurrence n_max=30 {text}"
        requests.append(Request(label, call=lambda law=law: heterobell.prob_hetero_bell_recurrence(law, 30, lam)))
        routes[label] = (table.label, _poly_rows)
    dobinski = {}
    for n, x in _DOBINSKI_POINTS:
        req = _cli("dobinski", "--dist", laws[0][0], "--n", str(n), _lam(lam), "--x", str(x))
        requests.append(req)
        dobinski[req.label] = (n, Fraction(x))

    def check(outputs: dict[str, object]) -> dict[str, str]:
        bad = {}
        for label, (table_label, to_rows) in routes.items():
            if label not in outputs or table_label not in outputs:
                continue
            got = to_rows(outputs[label])
            want = _rows(outputs[table_label])[: len(got)]
            if got != want:
                bad[label] = _mismatch(label, got, want)
        for label, (n, x) in dobinski.items():
            if label in outputs:
                message = _check_dobinski(json.loads(outputs[label]), p, n, lam, x)
                if message:
                    bad[label] = f"{label}: {message}"
        return bad

    return Workload(requests, check)


def _route_rows(law, lam: Fraction, route: Route, nmax: int) -> Callable[[], list[list[Fraction]]]:
    def call():
        return [
            [heterobell.prob_hetero_stirling(law, n, k, lam, route) for k in range(n + 1)]
            for n in range(nmax + 1)
        ]

    return call


def _poly_rows(polys) -> list[list[Fraction]]:
    return [[poly.coeff(k) for k in range(n + 1)] for n, poly in enumerate(polys)]


def _check_dobinski(record: dict, p: Fraction, n: int, lam: Fraction, x: Fraction) -> str | None:
    # For Y ~ Bernoulli(p) the probabilistic numbers are p**k S(n,k,lam), so the
    # polynomial's value is sum_k S(n,k,lam) (p x)**k.
    exact = sum(
        (s * (p * x) ** k for k, s in enumerate(hetero_rows(n, lam)[n])), Fraction(0)
    )
    if Fraction(record["exact"]) != exact:
        return f"exact {record['exact']} != {exact}"
    value = Fraction(float(record["value"]))
    bound = Fraction(float(record["rel_error_bound"]))
    if abs(value - exact) > bound * abs(exact):
        return f"|value - exact| exceeds rel_error_bound {record['rel_error_bound']}"
    return None


# -- verify -------------------------------------------------------------------


def verify(seed: int, tmpdir: str) -> Workload:
    """`verify all` over the shipped grids; the seed changes nothing."""
    out = os.path.join(tmpdir, "verify.json")
    request = Request("verify all --out TMP/verify.json", argv=("verify", "all", "--out", out), out_path=out)

    def check(outputs: dict[str, object]) -> dict[str, str]:
        if request.label not in outputs:
            return {}
        report = json.loads(outputs[request.label])
        summary = report["summary"]
        failing = [r["identity"] for r in report["reports"] if not r["pass"]]
        if summary["failed"] or failing or summary["total"] != len(report["reports"]):
            return {request.label: f"verify: summary {summary}, failing tags {sorted(set(failing))}"}
        return {}

    return Workload([request], check)


WORKLOADS = {"tables": tables, "prob": prob, "verify": verify}
