"""Route independence of the identity sides, checked by tracing them.

Each side of a tag runs under sys.setprofile, after clear_caches() so that no
memo hit hides a call.  A trace records the heterobell functions the side
enters and the arguments of each hetero._row and triangles._row entry it
reads.  Rows read inside raw_moment belong to the law (Poisson moments read
the stirling2 triangle), not to either route, and are left out.

Every tag declares, in SIDES below, the functions each of its sides must not
enter, and the points where its sides may read one _row entry: the
self-comparisons, where the check degenerates into comparing a value with
itself, or anywhere for an identity about one route.  Adding a tag means
adding its entry here.

Run as a module to print the routes per tag from the traces; it exits 1 when a
side breaks its declaration:

    PYTHONPATH=src python -m tests.test_routes
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import pytest

from heterobell import IDENTITY_TAGS, Route, clear_caches, hetero, identities
from heterobell.identities import identity_grid, load_grid_config

_ROWS = ("hetero._row", "triangles._row")
_LAW = "distributions.raw_moment"


@dataclass(frozen=True)
class Trace:
    entered: frozenset[str]  # heterobell functions, as module.qualname
    rows: frozenset[tuple]  # (function, *arguments) of each _row entry read


def trace(side: Callable, args: list) -> Trace:
    """Run side(*args) from empty memos and trace it."""
    entered: set[str] = set()
    rows: set[tuple] = set()
    in_law = 0

    def profile(frame, event, arg):
        nonlocal in_law
        module = frame.f_globals.get("__name__", "")
        if event not in ("call", "return") or not module.startswith("heterobell."):
            return
        code = frame.f_code
        name = f"{module.removeprefix('heterobell.')}.{code.co_qualname}"
        if name == _LAW:
            in_law += 1 if event == "call" else -1
        if event == "call":
            entered.add(name)
            if name in _ROWS and not in_law:
                rows.add((name, *(frame.f_locals[v] for v in code.co_varnames[: code.co_argcount])))

    clear_caches()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        side(*args)
    finally:
        sys.setprofile(previous)
    return Trace(frozenset(entered), frozenset(rows))


def _never(point: dict) -> bool:
    return False


@dataclass(frozen=True)
class Sides:
    left_not: frozenset[str]  # functions the left side must never enter
    right_not: frozenset[str]  # and the right side
    # the points where the sides read one _row entry: self-comparisons
    meets: Callable[[dict], bool] = _never
    # an identity about one route, whose sides may read one row anywhere
    one_route: bool = False
    # the right side is a list over this parameter, traced entry by entry
    entries: str | None = None


def _names(*names: str) -> frozenset[str]:
    return frozenset(names)


_PARTIAL_BELL = _names("hetero._bell_rows")
# the two readers of B_{n,k} at the values of the rows: one at a time, or from the partial Bell rows
_VALUE_BELL = _names("triangles.partial_bell", "hetero._value_bell_row")
# the stirling1u row that STIRLING_TRANSFORM weighs by, and its reader
_TRANSFORM_WEIGHTS = _names("triangles.stirling1u", "triangles.triangle_row")
_SUM_MOMENTS = _names("distributions._sum_moment_rows")
# a closed form of the triangles alone reads no law, nor asks one how far its moments reach
_NO_LAW = _names(
    "distributions._sum_moment_rows", _LAW, "distributions.Distribution.require", "distributions.MomentList.require"
)
_TRIANGLE = _names("hetero.hetero_bell_poly", "hetero.hetero_stirling", "triangles.triangle_row")

SIDES: dict[str, Sides] = {
    # STIRLING_TRANSFORM weighs the lam = 0 PARTIAL_BELL rows, so its right side reads the single-copy
    # moments, never the partial-sum engine that DIRECT on the left reads
    "T2.2": Sides(_PARTIAL_BELL | _TRANSFORM_WEIGHTS, _SUM_MOMENTS),
    "T2.3": Sides(_PARTIAL_BELL | _TRANSFORM_WEIGHTS, _SUM_MOMENTS),
    # the right side weighs PARTIAL_BELL rows at each lam by the (1, -lam) triangle
    "T2.4": Sides(
        _PARTIAL_BELL | _names("triangles.deg_stirling1", "triangles.triangle_row"),
        _SUM_MOMENTS,
        entries="lambdas",
    ),
    # at n = 0 the expansion is its k = m term, the right side's own row
    "T2.8": Sides(_PARTIAL_BELL, _PARTIAL_BELL | _names("iid._moment_series"), meets=lambda pt: pt["n"] == 0),
    "T2.9": Sides(_PARTIAL_BELL, _SUM_MOMENTS),
    "T2.10": Sides(_PARTIAL_BELL, _PARTIAL_BELL, one_route=True),
    # B_{n,k} of the values is read on one side only
    "T2.11": Sides(_PARTIAL_BELL | _VALUE_BELL, _PARTIAL_BELL, one_route=True),
    "T2.12": Sides(_PARTIAL_BELL | _VALUE_BELL, _PARTIAL_BELL, one_route=True),
    "T2.13": Sides(_PARTIAL_BELL, _PARTIAL_BELL | _VALUE_BELL, one_route=True),
    "T2.16": Sides(_TRIANGLE, _NO_LAW),
    "T2.17": Sides(_TRIANGLE | _names("triangles.bell_poly"), _NO_LAW),
    "T2.18": Sides(_TRIANGLE, _NO_LAW),
    "L2.19": Sides(_TRIANGLE | _names("triangles._row"), _names("arith.deg_rising_factorial")),
    "T2.20": Sides(_TRIANGLE | _names("triangles._row"), _NO_LAW),
    "LIMITS": Sides(
        _SUM_MOMENTS | _names("arith.deg_rising_factorial"),
        _PARTIAL_BELL | _TRIANGLE | _names("triangles.triangle_entry"),
    ),
}


def sample(tag: str, count: int = 12) -> list[dict]:
    """count points of the tag's shipped grid, evenly spread from its first to its last."""
    points = identity_grid(tag, load_grid_config())
    if len(points) <= count:
        return points
    return [points[i * (len(points) - 1) // (count - 1)] for i in range(count)]


@dataclass
class Routes:
    """What the traces of one tag show."""

    left: set[str] = field(default_factory=set)  # functions the left side enters
    right: set[str] = field(default_factory=set)
    violations: list[str] = field(default_factory=list)
    shared: list[dict] = field(default_factory=list)  # the points where the sides read one entry


def routes(tag: str) -> Routes:
    """Trace both sides of the tag at each point of its sample, against its declaration."""
    identity, sides, out = identities._IDENTITIES[tag], SIDES[tag], Routes()
    for point in sample(tag):
        left = trace(identity.left, list(point.values()))
        out.left |= left.entered
        units = [point] if sides.entries is None else [
            {**point, sides.entries: (v,)} for v in point[sides.entries]
        ]
        for unit in units:
            right = trace(identity.right, list(unit.values()))
            out.right |= right.entered
            for side, entered, banned in (("left", left, sides.left_not), ("right", right, sides.right_not)):
                for name in sorted(entered.entered & banned):
                    out.violations.append(f"{tag} {_shown(unit)}: the {side} side enters {name}")
            shared = bool(left.rows & right.rows)
            if shared:
                out.shared.append(unit)
            if not sides.one_route and shared != sides.meets(unit):
                read = "reads" if shared else "does not read"
                out.violations.append(f"{tag} {_shown(unit)}: the right side {read} a _row entry of the left")
    return out


def _shown(point: dict) -> str:
    return " ".join(f"{key}={identities._PARAMS[key][1](value)}" for key, value in point.items())


@functools.cache
def _shipped() -> tuple[dict[str, Routes], float]:
    """The routes of every tag over its sample, traced once, and the seconds that took."""
    start = time.perf_counter()
    found = {tag: routes(tag) for tag in IDENTITY_TAGS}
    return found, time.perf_counter() - start


def test_declarations_cover_every_tag():
    assert list(SIDES) == list(IDENTITY_TAGS)


def _traced_as(name: str) -> str | None:
    """The name the trace records for the package function that name resolves to, if any."""
    module, _, qualname = name.partition(".")
    found = importlib.import_module(f"heterobell.{module}")
    for part in qualname.split("."):
        found = getattr(found, part, None)
    found = inspect.unwrap(found)
    if not inspect.isfunction(found):
        return None
    return f"{found.__module__.removeprefix('heterobell.')}.{found.__qualname__}"


def test_every_declared_name_is_a_function_of_the_package():
    # a forbidden name that no longer exists is never entered, so its declaration would pass vacuously
    declared = {_LAW, *_ROWS}.union(*(sides.left_not | sides.right_not for sides in SIDES.values()))
    assert {name: _traced_as(name) for name in declared} == {name: name for name in declared}


@pytest.mark.parametrize("tag", IDENTITY_TAGS)
def test_sides_keep_their_routes(tag):
    assert _shipped()[0][tag].violations == []


def test_every_tag_traces_under_two_seconds():
    assert _shipped()[1] < 2


def test_self_comparisons_are_listed():
    listed = {tag: found.shared for tag, found in _shipped()[0].items() if not SIDES[tag].one_route}
    assert {tag for tag, shared in listed.items() if shared} == {"T2.8"}
    # the samples hold points on both sides of the declaration
    assert {pt["n"] for pt in listed["T2.8"]} == {0}
    assert any(pt["n"] != 0 for pt in sample("T2.8"))


def _read_partial_bell_through_direct(monkeypatch):
    row = hetero._row

    def direct(d, n, lam, route):
        return row(d, n, lam, Route.DIRECT if route is Route.PARTIAL_BELL else route)

    direct.cache_clear = row.cache_clear  # so that clear_caches() still empties the memo
    monkeypatch.setattr(hetero, "_row", direct)


def test_partial_bell_read_through_direct_violates_the_declarations(monkeypatch):
    _read_partial_bell_through_direct(monkeypatch)
    t29 = routes("T2.9").violations
    assert any("the right side enters distributions._sum_moment_rows" in v for v in t29), t29
    limits = routes("LIMITS").violations
    assert any("the left side enters distributions._sum_moment_rows" in v for v in limits), limits


def test_main_exits_1_on_a_violation(monkeypatch, capsys):
    assert main() == 0
    assert "VIOLATION" not in capsys.readouterr().out
    _read_partial_bell_through_direct(monkeypatch)
    monkeypatch.setattr(sys.modules[__name__], "_shipped", functools.cache(_shipped.__wrapped__))
    assert main() == 1
    assert "  VIOLATION: T2.9 " in capsys.readouterr().out


def main() -> int:
    """Print the routes per tag: each side's distinctive functions, and where the sides meet.

    Returns the exit status: 1 when a side breaks its declaration, else 0.
    """

    def listed(names: set[str]) -> str:
        # the library functions, not the sides' own code or the comprehensions inside functions
        shown = sorted(n for n in names if "<" not in n and not n.startswith("identities."))
        return ", ".join(shown) or "(none)"

    found, seconds = _shipped()
    for tag in IDENTITY_TAGS:
        print(f"{tag} ({len(sample(tag))} points traced)")
        print(f"  left only:  {listed(found[tag].left - found[tag].right)}")
        print(f"  right only: {listed(found[tag].right - found[tag].left)}")
        if SIDES[tag].one_route:
            print(f"  one route by design: the sides read one _row entry at {len(found[tag].shared)} points")
        else:
            for point in found[tag].shared:
                print(f"  self-comparison: {_shown(point)}")
        for violation in found[tag].violations:
            print(f"  VIOLATION: {violation}")
    print(f"traced in {seconds:.2f} s")
    return int(any(found[tag].violations for tag in IDENTITY_TAGS))


if __name__ == "__main__":
    sys.exit(main())
