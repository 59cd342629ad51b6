"""Machine verification of the identity catalogue.

Every identity the library claims is declared here by its two sides, each a
callable over one grid point; one runner computes both and compares them
exactly (rational equality, no tolerances).  The sides take different code
paths, except at the few points where the trace test, tests/test_routes.py,
lists a self-comparison.  Identities carry short stable tags (T2.2,
T2.8, ..., L2.19, LIMITS) used by the CLI;  parameter grids for full runs
live in a small versioned config file shipped with the package.
"""
from __future__ import annotations

import configparser
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Callable, Iterable

from .arith import binomial, deg_rising_factorial, dot, factorial, format_rational, parse_rational
from .distributions import (
    Bernoulli,
    Poisson,
    format_distribution,
    parse_distribution,
    sum_deg_rising_moment,
)
from .errors import ParseError, UnknownIdentity
from .hetero import (
    Route,
    _direct_values,
    _value_bell_row,
    hetero_bell_poly,
    prob_hetero_bell_poly,
    prob_hetero_stirling,
    prob_lah,
    prob_stirling2,
)
from .iid import order_split_rhs
from .polynomial import Polynomial
from .triangles import stirling2, triangle_row


@dataclass
class IdentityReport:
    identity: str
    params: dict[str, str]
    left: list[str]
    right: list[str]
    passed: bool
    note: str | None = None

    def as_dict(self) -> dict:
        out = {
            "identity": self.identity,
            "params": self.params,
            "left": self.left,
            "right": self.right,
            "pass": self.passed,
        }
        if self.note:
            out["note"] = self.note
        return out


def _render(value) -> str:
    if isinstance(value, Polynomial):
        return "[" + ", ".join(str(c) for c in value.coeffs) + "]"
    return format_rational(value)


def _as_list(value) -> list[str]:
    if isinstance(value, (list, tuple)):
        return [_render(v) for v in value]
    return [_render(value)]


# ---------------------------------------------------------------------------
# sides of more than one statement, each taking its tag's parameters in order,
# and the note a failing T2.8 point shows

_SPLIT_NOTE = (
    "order-splitting expansion computed with the partial-sum shift n*lam "
    "inside the outer factor and strictly positive composition parts; "
    "alternative readings of the identity exist"
)


def _lah_through_lambdas(dist, n: int, k: int, lambdas: tuple[Fraction, ...]) -> list[Fraction]:
    # entry l of row n of the (1, -lam) triangle is deg_stirling1(n, l, lam)
    return [
        dot([prob_hetero_stirling(dist, l, k, lam) for l in range(k, n + 1)], triangle_row(1, -lam, n)[k:])
        for lam in lambdas
    ]


# T2.10 to T2.13 read the DIRECT rows at a few points each, through hetero._direct_values,
# which evaluates each row once per (law, lam, point), and partial Bell rows of those values
def _addition_rhs(dist, n: int, lam: Fraction, x: Fraction, y: Fraction) -> Fraction:
    at_x, at_y = _direct_values(dist, n, lam, x), _direct_values(dist, n, lam, y)
    return dot([binomial(n, k) for k in range(n + 1)], at_x[: n + 1], at_y[n::-1])


def _numbers_rhs(dist, n: int, lam: Fraction) -> Polynomial:
    bells = _value_bell_row(dist, n, lam, Fraction(1), 0)  # B_{n,k} of the numbers P_i(1)
    # the falling factorial x(x-1)...(x-k+1) has coefficients (-1)**(k-j) stirling1u(k, j)
    falling = [triangle_row(1, 0, k) for k in range(n + 1)]
    return Polynomial(
        dot(bells[j:], [(-1) ** (k - j) * falling[k][j] for k in range(j, n + 1)]) for j in range(n + 1)
    )


def _hetero_explicit(n: int, k: int, lam: Fraction) -> Fraction:
    # the paper's explicit formula, (1/k!) sum_j (-1)**(k-j) C(k, j) <j>_{n,lam};
    # the library reads the same numbers from a row recurrence instead
    signed = [(-1) ** (k - j) * binomial(k, j) for j in range(k + 1)]
    return dot(signed, [deg_rising_factorial(j, n, lam) for j in range(k + 1)]) / factorial(k)


def _stirling2_rhs(dist, n: int, k: int, lam: Fraction, x: Fraction) -> Fraction:
    # sum_j stirling2(j, k) c_j x**j over the coefficients c_j of the order-n row, at x = p/q
    # in integers over q**n
    coeffs, p, q = prob_hetero_bell_poly(dist, n, lam).coeffs, x.numerator, x.denominator
    weights = [stirling2(j, k) * p**j * q ** (n - j) for j in range(k, len(coeffs))]
    return dot(weights, coeffs[k:]) / q**n


def _poisson_rhs(alpha, n: int, lam: Fraction) -> Polynomial:
    # sum_k S_lam(n, k) alpha**k bell_poly(k): coefficient j is sum_k S_lam(n, k) alpha**k stirling2(k, j)
    row, a = triangle_row(lam, 1, n), alpha.alpha
    powers, stirling2_rows = [a**k for k in range(n + 1)], [triangle_row(0, 1, k) for k in range(n + 1)]
    return Polynomial(
        dot(row[j:], powers[j:], [stirling2_rows[k][j] for k in range(j, n + 1)]) for j in range(n + 1)
    )


def _bernoulli_rhs(p, k: int, n: int, lam: Fraction) -> Fraction:
    # sum_j C(k, j) j! S_lam(n, j) p**j, at p = a/b in integers over b**n
    a, b = p.p.numerator, p.p.denominator
    weights = [binomial(k, j) * factorial(j) * a**j * b ** (n - j) for j in range(n + 1)]
    return dot(triangle_row(lam, 1, n), weights) / b**n


# LIMITS: rows at lam = 0 and 1, entry by entry (k outermost) and then whole
_ENDS = (Fraction(0), Fraction(1))


def _entries_and_rows(rows: list[Polynomial], n: int) -> list:
    return [row.coeff(k) for k in range(n + 1) for row in rows] + rows


def _limits_left(dist, n: int) -> list:
    # the triangle, and PARTIAL_BELL since prob_stirling2 and prob_lah read DIRECT at lam = 0 and 1
    triangle = [hetero_bell_poly(n, lam) for lam in _ENDS]
    partial_bell_rows = [prob_hetero_bell_poly(dist, n, lam, Route.PARTIAL_BELL) for lam in _ENDS]
    return _entries_and_rows(triangle + partial_bell_rows, n)


def _limits_right(dist, n: int) -> list:
    explicit = [Polynomial(_hetero_explicit(n, k, lam) for k in range(n + 1)) for lam in _ENDS]
    direct = [Polynomial(f(dist, n, k) for k in range(n + 1)) for f in (prob_stirling2, prob_lah)]
    return _entries_and_rows(explicit + direct, n)


# ---------------------------------------------------------------------------
# grid parameters: name -> (read, show).  `read` takes a value given as a
# string or as a number and returns it typed; `show` prints it in a report.


def _read(parse: Callable, convert: Callable = lambda v: v) -> Callable:
    return lambda v: parse(v) if isinstance(v, str) else convert(v)


# a grid's values already are Fractions, and are taken as they are
_RATIONAL = _read(parse_rational, lambda v: v if type(v) is Fraction else Fraction(v))


def _law(cls: type) -> tuple[Callable, Callable]:
    # a grid reads each listed value once, so all its points share one law object,
    # and a report shows the law's parameter alone
    return (lambda v: v if isinstance(v, cls) else cls(_RATIONAL(v))), cls.format


_PARAMS: dict[str, tuple[Callable, Callable]] = {
    "dist": (_read(parse_distribution), format_distribution),
    **dict.fromkeys(("lam", "x", "y", "t"), (_RATIONAL, str)),
    # a law's parameter is read into the law, which rejects one out of its range
    "alpha": _law(Poisson),
    "p": _law(Bernoulli),
    "lambdas": (lambda qs: tuple(map(_RATIONAL, qs)), lambda qs: f"({', '.join(map(str, qs))})"),
    **dict.fromkeys(("n", "m", "k"), (int, str)),
}


# ---------------------------------------------------------------------------
# registry: tag -> its two sides and its grid axes
#
# An axis is (name, values(section, point_so_far)), listed outermost first;
# `section` is the tag's merged config section.


def _config_int(sec: dict, key: str) -> int:
    try:
        return int(sec[key])
    except ValueError:
        raise ParseError(f"{key} = {sec[key]!r} is not an integer") from None


@lru_cache(maxsize=512)
def _literal(name: str, text: str):
    """The grid literal text read as the parameter name is, once: every grid that lists it, in
    every call, gets the one object, which the memos of the routes already hold as a key."""
    return _PARAMS[name][0](text)


def _listed(name: str, key: str) -> tuple:
    """Axis name over the ';'-separated entries of config key, each read as name is."""
    return name, lambda sec, pt: [_literal(name, s.strip()) for s in sec[key].split(";") if s.strip()]


def _count(key: str, low: int = 0):
    return lambda sec, pt: range(low, _config_int(sec, key) + 1)


_DIST = _listed("dist", "dists")
_LAM = _listed("lam", "lambdas")
_X = _listed("x", "xs")
_N = ("n", _count("nmax"))
_K_UPTO_N = ("k", lambda sec, pt: range(pt["n"] + 1))
_M_UPTO_SUM = ("m", lambda sec, pt: range(_config_int(sec, "sum_max") - pt["n"] + 1))
# all the listed lambdas at one point, and no point if none are listed
_LAMBDAS = ("lambdas", lambda sec, pt: [lams] if (lams := tuple(_LAM[1](sec, pt))) else [])
_ALPHA, _P, _K = _listed("alpha", "alphas"), _listed("p", "ps"), ("k", _count("kmax"))


@dataclass(frozen=True)
class _Identity:
    """One tag: the names of a point's parameters in report order, its two sides and its axes.

    Both sides take the parameters positionally, in that order.  With `each`, the right
    side is a list, each entry of which must equal the one left value; `note` is shown
    where a point fails.
    """

    params: tuple[str, ...]
    left: Callable
    right: Callable
    axes: tuple
    each: bool = False
    note: str | None = None


_IDENTITIES: dict[str, _Identity] = {
    "T2.2": _Identity(
        ("dist", "n", "k", "lam"),
        prob_hetero_stirling,
        lambda dist, n, k, lam: prob_hetero_stirling(dist, n, k, lam, Route.STIRLING_TRANSFORM),
        (_DIST, _LAM, _N, _K_UPTO_N),
    ),
    "T2.3": _Identity(
        ("dist", "n", "k"),
        prob_lah,
        lambda dist, n, k: prob_hetero_stirling(dist, n, k, 1, Route.STIRLING_TRANSFORM),
        (_DIST, _N, _K_UPTO_N),
    ),
    # the lambda-free prob_lah against one transform through each listed lambda
    "T2.4": _Identity(
        ("dist", "n", "k", "lambdas"),
        lambda dist, n, k, lambdas: prob_lah(dist, n, k),
        _lah_through_lambdas,
        (_LAMBDAS, _DIST, _N, _K_UPTO_N),
        each=True,
    ),
    "T2.8": _Identity(
        ("dist", "n", "m", "t", "lam"),
        order_split_rhs,
        lambda dist, n, m, t, lam: prob_hetero_bell_poly(dist, n + m, lam)(t),
        (_DIST, _LAM, _listed("t", "ts"), ("n", _count("sum_max")), _M_UPTO_SUM),
        note=_SPLIT_NOTE,
    ),
    "T2.9": _Identity(
        ("dist", "n", "lam"),
        prob_hetero_bell_poly,
        lambda dist, n, lam: prob_hetero_bell_poly(dist, n, lam, Route.PARTIAL_BELL),
        (_DIST, _LAM, _N),
    ),
    "T2.10": _Identity(
        ("dist", "n", "lam", "x", "y"),
        lambda dist, n, lam, x, y: _direct_values(dist, n, lam, x + y)[n],
        _addition_rhs,
        (_DIST, _LAM, _N, _X, _listed("y", "ys")),
    ),
    "T2.11": _Identity(("dist", "n", "lam"), prob_hetero_bell_poly, _numbers_rhs, (_DIST, _LAM, _N)),
    # B_{n,k} at u_i = i P_{i-1}(x) and at u_i = P_i(x), from the partial Bell rows of the values
    "T2.12": _Identity(
        ("dist", "n", "k", "lam", "x"),
        lambda dist, n, k, lam, x: binomial(n, k) * _direct_values(dist, n - k, lam, k * x)[n - k],
        lambda dist, n, k, lam, x: _value_bell_row(dist, n, lam, x, 1)[k],
        (_DIST, _LAM, _X, _N, _K_UPTO_N),
    ),
    "T2.13": _Identity(
        ("dist", "n", "k", "lam", "x"),
        lambda dist, n, k, lam, x: _value_bell_row(dist, n, lam, x, 0)[k],
        _stirling2_rhs,
        (_DIST, _LAM, _X, _N, _K_UPTO_N),
    ),
    # T2.16 to T2.20 take the law itself as alpha or p, read by _PARAMS, which prints its parameter
    "T2.16": _Identity(
        ("alpha", "k", "n", "lam"),
        sum_deg_rising_moment,
        lambda alpha, k, n, lam: hetero_bell_poly(n, lam)(k * alpha.alpha),
        (_ALPHA, _LAM, _K, _N),
    ),
    "T2.17": _Identity(
        ("alpha", "n", "lam"),
        prob_hetero_bell_poly,
        _poisson_rhs,
        (_ALPHA, _LAM, _N),
    ),
    "T2.18": _Identity(
        ("p", "n", "lam"),
        prob_hetero_bell_poly,
        lambda p, n, lam: hetero_bell_poly(n, lam).scale_arg(p.p),
        (_P, _LAM, _N),
    ),
    "L2.19": _Identity(
        ("n", "k", "lam"),
        lambda n, k, lam: sum(deg_rising_factorial(j, n, lam) for j in range(1, k + 1)),
        lambda n, k, lam: dot(
            triangle_row(lam, 1, n)[1:], [factorial(l) * binomial(k + 1, l + 1) for l in range(1, n + 1)]
        ),
        (_LAM, ("n", _count("nmax", 1)), ("k", _count("kmax", 1))),
    ),
    "T2.20": _Identity(
        ("p", "k", "n", "lam"),
        sum_deg_rising_moment,
        _bernoulli_rhs,
        (_P, _LAM, _K, _N),
    ),
    "LIMITS": _Identity(("dist", "n"), _limits_left, _limits_right, (_DIST, _N)),
}

IDENTITY_TAGS: tuple[str, ...] = tuple(_IDENTITIES)


def _lookup(tag: str) -> _Identity:
    try:
        return _IDENTITIES[tag]
    except KeyError:
        raise UnknownIdentity(f"no identity with tag {tag!r}") from None


def verify_identity(tag: str, **params) -> IdentityReport:
    """Check one identity at one parameter point; both sides exact."""
    identity = _lookup(tag)
    if params.keys() != set(identity.params):
        raise ParseError(
            f"identity {tag} takes the parameters {', '.join(identity.params)}, "
            f"not {', '.join(params) or 'none'}"
        )
    return _check(tag, identity, [_PARAMS[key][0](params[key]) for key in identity.params])


def _check(tag: str, identity: _Identity, typed: list) -> IdentityReport:
    """The report of one point, its parameters typed and in the tag's order."""
    left, right = identity.left(*typed), identity.right(*typed)
    passed = all(r == left for r in right) if identity.each else left == right
    return IdentityReport(
        identity=tag,
        params={key: _PARAMS[key][1](value) for key, value in zip(identity.params, typed)},
        left=_as_list(left),
        right=_as_list(right),
        passed=passed,
        note=None if passed else identity.note,
    )


# ---------------------------------------------------------------------------
# parameter grids

DEFAULT_GRID_RESOURCE = "verify_grids.cfg"


@dataclass(frozen=True)
class GridConfig:
    version: str
    sections: dict


def load_grid_config(path: str | None = None) -> GridConfig:
    """Load the grid config shipped in the package, with the file at path laid over it.

    Every key the file sets, in [defaults] or in a tag section, beats every
    shipped key; keys it leaves out keep their shipped values.
    """
    shipped = resources.files("heterobell").joinpath("data", DEFAULT_GRID_RESOURCE)
    sources = [(DEFAULT_GRID_RESOURCE, shipped.read_text())]
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            try:
                sources.append((path, fh.read()))
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}: {exc}") from None
    layers = []
    for source, text in sources:
        parser = configparser.ConfigParser()
        try:
            parser.read_string(text, source=source)
            layers.append({name: dict(parser[name]) for name in parser.sections()})
        except configparser.Error as exc:
            raise ParseError(f"{source}: {' '.join(str(exc).splitlines())}") from None

    def merged(*names: str) -> dict:
        return {k: v for layer in layers for name in names for k, v in layer.get(name, {}).items()}

    version = merged("meta").get("version", "0")
    sections = {tag: merged("defaults", tag) for tag in IDENTITY_TAGS}
    return GridConfig(version=version, sections=sections)


def identity_grid(tag: str, cfg: GridConfig) -> list[dict]:
    """Parameter dicts for one identity, in a fixed deterministic order.

    Points run over the product of the tag's axes, outermost first; each
    point's keys follow the tag's parameter order.
    """
    identity = _lookup(tag)
    sec = cfg.sections[tag]
    points: list[dict] = [{}]
    try:
        for name, values in identity.axes:
            points = [{**pt, name: v} for pt in points for v in values(sec, pt)]
    except ValueError as exc:  # a ParseError, or a law rejecting its parameter
        raise ParseError(f"grid section [{tag}]: {exc}") from None
    if not points:
        raise ParseError(f"grid section [{tag}] has no points")
    return [{key: pt[key] for key in identity.params} for pt in points]


def run_identity(tag: str, cfg: GridConfig | None = None) -> list[IdentityReport]:
    """Verify one identity over its whole configured grid."""
    if cfg is None:
        cfg = load_grid_config()
    identity = _lookup(tag)
    # a grid point is typed already, its keys in the tag's order
    return [_check(tag, identity, list(point.values())) for point in identity_grid(tag, cfg)]


def run_identities(
    tags: Iterable[str] | None = None, cfg: GridConfig | None = None
) -> list[IdentityReport]:
    """Verify several identities (all of them when tags is None)."""
    if cfg is None:
        cfg = load_grid_config()
    chosen = list(IDENTITY_TAGS) if tags is None else list(tags)
    for tag in chosen:
        _lookup(tag)
    reports: list[IdentityReport] = []
    for tag in chosen:
        reports.extend(run_identity(tag, cfg))
    return reports
