"""Machine verification of the identity catalogue.

Every identity the library claims is checked here by computing both sides
along genuinely different code paths and comparing exactly (rational
equality, no tolerances).  Identities carry short stable tags (T2.2,
T2.8, ..., L2.19, LIMITS) used by the CLI;  parameter grids for full runs
live in a small versioned config file shipped with the package.
"""
from __future__ import annotations

import configparser
import inspect
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterable, Sequence

from .arith import binomial, deg_rising_factorial, factorial, format_rational, parse_rational
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
    hetero_bell_poly,
    hetero_stirling,
    prob_hetero_bell_poly,
    prob_hetero_stirling,
    prob_lah,
    prob_stirling2,
)
from .iid import order_split_rhs
from .polynomial import Polynomial, deg_rising_poly
from .triangles import bell_poly, deg_stirling1, partial_bell, stirling2


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
# individual checks: return (passed, left values, right values, note)


def _check_stirling_transform(dist, n: int, k: int, lam: Fraction):
    left = prob_hetero_stirling(dist, n, k, lam, Route.DIRECT)
    right = prob_hetero_stirling(dist, n, k, lam, Route.STIRLING_TRANSFORM)
    return left == right, left, right, None


def _check_lah_via_stirling(dist, n: int, k: int):
    left = prob_lah(dist, n, k)
    right = prob_hetero_stirling(dist, n, k, 1, Route.STIRLING_TRANSFORM)
    return left == right, left, right, None


def _check_lah_lambda_free(dist, n: int, k: int, lambdas: Sequence[Fraction]):
    left = prob_lah(dist, n, k)
    rights = [
        sum(prob_hetero_stirling(dist, l, k, lam) * deg_stirling1(n, l, lam) for l in range(k, n + 1))
        for lam in lambdas
    ]
    return all(r == left for r in rights), left, rights, None


_SPLIT_NOTE = (
    "order-splitting expansion computed with the partial-sum shift n*lam "
    "inside the outer factor and strictly positive composition parts; "
    "alternative readings of the identity exist"
)


def _check_order_split(dist, n: int, m: int, t: Fraction, lam: Fraction):
    left = order_split_rhs(dist, n, m, t, lam)
    right = prob_hetero_bell_poly(dist, n + m, lam)(t)
    ok = left == right
    return ok, left, right, None if ok else _SPLIT_NOTE


def _check_poly_via_partial_bell(dist, n: int, lam: Fraction):
    left = prob_hetero_bell_poly(dist, n, lam)
    right = prob_hetero_bell_poly(dist, n, lam, Route.PARTIAL_BELL)
    return left == right, left, right, None


def _check_addition(dist, n: int, lam: Fraction, x: Fraction, y: Fraction):
    rows = [prob_hetero_bell_poly(dist, k, lam) for k in range(n + 1)]
    left = rows[n](x + y)
    right = Fraction(0)
    for k in range(n + 1):
        right += binomial(n, k) * rows[k](x) * rows[n - k](y)
    return left == right, left, right, None


def _check_numbers_partial_bell(dist, n: int, lam: Fraction):
    left = prob_hetero_bell_poly(dist, n, lam)
    bell_numbers = [
        prob_hetero_bell_poly(dist, j, lam)(1) for j in range(n + 1)
    ]
    right = Polynomial.zero()
    for k in range(n + 1):
        b = partial_bell(n, k, bell_numbers[1 : n - k + 2])
        if b:
            # the falling factorial x(x-1)...(x-k+1) is the degenerate rising one at lam = -1
            right = right + b * deg_rising_poly(k, Fraction(-1))
    return left == right, left, right, None


def _check_shifted_sequence_bell(dist, n: int, k: int, lam: Fraction, x: Fraction):
    left = binomial(n, k) * prob_hetero_bell_poly(dist, n - k, lam)(k * x)
    shifted = [
        m * prob_hetero_bell_poly(dist, m - 1, lam)(x) for m in range(1, n - k + 2)
    ]
    right = partial_bell(n, k, shifted)
    return left == right, left, right, None


def _check_poly_sequence_bell(dist, n: int, k: int, lam: Fraction, x: Fraction):
    values = [prob_hetero_bell_poly(dist, j, lam)(x) for j in range(1, n - k + 2)]
    left = partial_bell(n, k, values)
    row = prob_hetero_bell_poly(dist, n, lam)
    right = Polynomial(stirling2(j, k) * c for j, c in enumerate(row))(x)
    return left == right, left, right, None


# T2.16 to T2.20 take the law itself as alpha or p, read by _PARAMS, which prints its parameter


def _check_poisson_moment(alpha: Poisson, k: int, n: int, lam: Fraction):
    left = sum_deg_rising_moment(alpha, k, n, lam)
    right = hetero_bell_poly(n, lam)(k * alpha.alpha)
    return left == right, left, right, None


def _check_poisson_poly(alpha: Poisson, n: int, lam: Fraction):
    left = prob_hetero_bell_poly(alpha, n, lam)
    right = Polynomial.zero()
    for k in range(n + 1):
        h = hetero_stirling(n, k, lam)
        if h:
            right = right + h * alpha.alpha**k * bell_poly(k)
    return left == right, left, right, None


def _check_bernoulli_scaling(p: Bernoulli, n: int, lam: Fraction):
    left = prob_hetero_bell_poly(p, n, lam)
    right = hetero_bell_poly(n, lam).scale_arg(p.p)
    return left == right, left, right, None


def _check_block_sum(n: int, k: int, lam: Fraction):
    left = sum(
        (deg_rising_factorial(j, n, lam) for j in range(1, k + 1)), Fraction(0)
    )
    right = Fraction(0)
    for l in range(1, n + 1):
        right += hetero_stirling(n, l, lam) * factorial(l) * binomial(k + 1, l + 1)
    return left == right, left, right, None


def _check_bernoulli_moment(p: Bernoulli, k: int, n: int, lam: Fraction):
    left = sum_deg_rising_moment(p, k, n, lam)
    right = Polynomial(
        binomial(k, j) * factorial(j) * hetero_stirling(n, j, lam) for j in range(n + 1)
    )(p.p)
    return left == right, left, right, None


def _hetero_explicit(n: int, k: int, lam: Fraction) -> Fraction:
    # the paper's explicit formula, (1/k!) sum_j (-1)**(k-j) C(k, j) <j>_{n,lam};
    # the library reads the same numbers from a row recurrence instead
    acc = Fraction(0)
    for j in range(k + 1):
        acc += (-1) ** (k - j) * binomial(k, j) * deg_rising_factorial(j, n, lam)
    return acc / factorial(k)


def _check_limits(dist, n: int):
    left: list = []
    right: list = []
    for k in range(n + 1):
        left += [hetero_stirling(n, k, Fraction(0)), hetero_stirling(n, k, Fraction(1))]
        right += [_hetero_explicit(n, k, Fraction(0)), _hetero_explicit(n, k, Fraction(1))]
        # PARTIAL_BELL, since prob_stirling2 and prob_lah read DIRECT at lam = 0 and 1
        left += [
            prob_hetero_stirling(dist, n, k, Fraction(0), Route.PARTIAL_BELL),
            prob_hetero_stirling(dist, n, k, Fraction(1), Route.PARTIAL_BELL),
        ]
        right += [prob_stirling2(dist, n, k), prob_lah(dist, n, k)]
    left += [hetero_bell_poly(n, 0), hetero_bell_poly(n, 1)]
    right += [
        Polynomial(_hetero_explicit(n, k, Fraction(lam)) for k in range(n + 1)) for lam in (0, 1)
    ]
    left += [
        prob_hetero_bell_poly(dist, n, 0, Route.PARTIAL_BELL),
        prob_hetero_bell_poly(dist, n, 1, Route.PARTIAL_BELL),
    ]
    right += [
        Polynomial(prob_stirling2(dist, n, k) for k in range(n + 1)),
        Polynomial(prob_lah(dist, n, k) for k in range(n + 1)),
    ]
    return left == right, left, right, None


# ---------------------------------------------------------------------------
# grid parameters: name -> (read, show).  `read` takes a value given as a
# string or as a number and returns it typed; `show` prints it in a report.


def _read(parse: Callable, convert: Callable = lambda v: v) -> Callable:
    return lambda v: parse(v) if isinstance(v, str) else convert(v)


_RATIONAL = _read(parse_rational, Fraction)


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
# registry: tag -> (checker, grid axes)
#
# An axis is (name, values(section, point_so_far)), listed outermost first;
# `section` is the tag's merged config section.


def _config_int(sec: dict, key: str) -> int:
    try:
        return int(sec[key])
    except ValueError:
        raise ParseError(f"{key} = {sec[key]!r} is not an integer") from None


def _listed(name: str, key: str) -> tuple:
    """Axis name over the ';'-separated entries of config key, each read as name is."""
    read = _PARAMS[name][0]
    return name, lambda sec, pt: [read(s.strip()) for s in sec[key].split(";") if s.strip()]


def _count(key: str, low: int = 0):
    return lambda sec, pt: range(low, _config_int(sec, key) + 1)


_DIST = _listed("dist", "dists")
_LAM = _listed("lam", "lambdas")
_X = _listed("x", "xs")
_N = ("n", _count("nmax"))
_K_UPTO_N = ("k", lambda sec, pt: range(pt["n"] + 1))
# all the listed lambdas at one point, and no point if none are listed
_LAMBDAS = ("lambdas", lambda sec, pt: [lams] if (lams := tuple(_LAM[1](sec, pt))) else [])

_IDENTITIES: dict[str, tuple[Callable, tuple]] = {
    "T2.2": (_check_stirling_transform, (_DIST, _LAM, _N, _K_UPTO_N)),
    "T2.3": (_check_lah_via_stirling, (_DIST, _N, _K_UPTO_N)),
    "T2.4": (_check_lah_lambda_free, (_LAMBDAS, _DIST, _N, _K_UPTO_N)),
    "T2.8": (
        _check_order_split,
        (
            _DIST,
            _LAM,
            _listed("t", "ts"),
            ("n", _count("sum_max")),
            ("m", lambda sec, pt: range(_config_int(sec, "sum_max") - pt["n"] + 1)),
        ),
    ),
    "T2.9": (_check_poly_via_partial_bell, (_DIST, _LAM, _N)),
    "T2.10": (_check_addition, (_DIST, _LAM, _N, _X, _listed("y", "ys"))),
    "T2.11": (_check_numbers_partial_bell, (_DIST, _LAM, _N)),
    "T2.12": (_check_shifted_sequence_bell, (_DIST, _LAM, _X, _N, _K_UPTO_N)),
    "T2.13": (_check_poly_sequence_bell, (_DIST, _LAM, _X, _N, _K_UPTO_N)),
    "T2.16": (_check_poisson_moment, (_listed("alpha", "alphas"), _LAM, ("k", _count("kmax")), _N)),
    "T2.17": (_check_poisson_poly, (_listed("alpha", "alphas"), _LAM, _N)),
    "T2.18": (_check_bernoulli_scaling, (_listed("p", "ps"), _LAM, _N)),
    "L2.19": (_check_block_sum, (_LAM, ("n", _count("nmax", 1)), ("k", _count("kmax", 1)))),
    "T2.20": (_check_bernoulli_moment, (_listed("p", "ps"), _LAM, ("k", _count("kmax")), _N)),
    "LIMITS": (_check_limits, (_DIST, _N)),
}

IDENTITY_TAGS: tuple[str, ...] = tuple(_IDENTITIES)


def _lookup(tag: str) -> tuple[Callable, tuple]:
    try:
        return _IDENTITIES[tag]
    except KeyError:
        raise UnknownIdentity(f"no identity with tag {tag!r}") from None


def verify_identity(tag: str, **params) -> IdentityReport:
    """Check one identity at one parameter point; both sides exact."""
    checker, _ = _lookup(tag)
    typed = {key: _PARAMS[key][0](value) for key, value in params.items()}
    passed, left, right, note = checker(**typed)
    shown = {key: _PARAMS[key][1](value) for key, value in typed.items()}
    return IdentityReport(
        identity=tag,
        params=shown,
        left=_as_list(left),
        right=_as_list(right),
        passed=passed,
        note=note,
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
    point's keys follow the checker's parameter order.
    """
    checker, axes = _lookup(tag)
    sec = cfg.sections[tag]
    points: list[dict] = [{}]
    try:
        for name, values in axes:
            points = [{**pt, name: v} for pt in points for v in values(sec, pt)]
    except ValueError as exc:  # a ParseError, or a law rejecting its parameter
        raise ParseError(f"grid section [{tag}]: {exc}") from None
    if not points:
        raise ParseError(f"grid section [{tag}] has no points")
    order = inspect.signature(checker).parameters
    return [{key: pt[key] for key in order} for pt in points]


def run_identity(tag: str, cfg: GridConfig | None = None) -> list[IdentityReport]:
    """Verify one identity over its whole configured grid."""
    if cfg is None:
        cfg = load_grid_config()
    return [verify_identity(tag, **point) for point in identity_grid(tag, cfg)]


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
