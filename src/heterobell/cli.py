"""Command-line interface.

Four commands: `table` prints a triangle of exact numbers, `poly` the
coefficients of one polynomial, `verify` machine-checks identity grids,
`dobinski` evaluates a polynomial through its exponential series with a
certified error bound.  All rational fields on the wire are exact
'num/den' strings; only series evaluations are decimal, and those carry
their tolerance.

Exit codes: 0 success (and every check passed), 1 at least one identity
check failed, 2 usage, parse or file errors.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Iterator, Sequence

from .arith import format_rational, parse_rational
from .distributions import format_distribution, parse_distribution
from .errors import HeterobellError, MissingDistribution, ParseError
from .hetero import Route, dobinski_details, hetero_bell_poly, prob_hetero_bell_poly
from .identities import IDENTITY_TAGS, load_grid_config, run_identities
from .triangles import bell_poly, lah_bell_poly, triangle_row

# name -> (builder, inputs it reads); a builder takes the index n, then the values of
# those inputs, and gives row n of a table (entries k = 0..n) or the polynomial of order n
TABLES = {
    # the deterministic tables read one triangle row from the memo per n
    "stirling2": (lambda n: triangle_row(0, 1, n), ()),
    "stirling1u": (lambda n: triangle_row(1, 0, n), ()),
    "lah": (lambda n: triangle_row(1, 1, n), ()),
    "deg_stirling1": (lambda n, lam: triangle_row(1, -lam, n), ("lambda",)),
    "hetero": (lambda n, lam: triangle_row(lam, 1, n), ("lambda",)),
    # the probabilistic tables print the rows of one PARTIAL_BELL pass, which T2.9
    # holds equal to the DIRECT rows that the library functions return
    "prob_stirling2": (lambda n, d: _prob_row(d, n, 0), ("dist",)),
    "prob_lah": (lambda n, d: _prob_row(d, n, 1), ("dist",)),
    "prob_hetero": (lambda n, lam, d: _prob_row(d, n, lam), ("lambda", "dist")),
}
POLYS = {
    "bell": (bell_poly, ()),
    "lahbell": (lah_bell_poly, ()),
    "hetero_bell": (hetero_bell_poly, ("lambda",)),
    "prob_hetero_bell": (lambda n, lam, d: prob_hetero_bell_poly(d, n, lam), ("lambda", "dist")),
}


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ParseError, so that main() reports them as one
    'error:' line, as it does every other error, and not with argparse's usage block."""

    def error(self, message: str):
        raise ParseError(message)


def _rational(text: str) -> Fraction:
    # argparse shows an ArgumentTypeError's own text, so the reason parse_rational gives is kept
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# argparse parsers are reusable, so one serves every main() call of the process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heterobell",
        description="Exact Stirling/Bell family tables, polynomials, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a lower-triangular number table")
    p_table.add_argument("family", choices=TABLES)
    p_table.add_argument("--nmax", type=int, required=True)
    p_table.add_argument("--lambda", dest="lam", type=_rational, default=Fraction(0),
                         metavar="RAT", help="deformation parameter (rational, default 0)")
    p_table.add_argument("--dist", default=None,
                         help="distribution, e.g. bernoulli:1/3 or finite:0:1/2,2:1/2")
    p_table.add_argument("--format", choices=("csv", "json"), default="json")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(func=cmd_table)

    p_poly = sub.add_parser("poly", help="print one polynomial's coefficients")
    p_poly.add_argument("kind", choices=POLYS)
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--lambda", dest="lam", type=_rational, default=Fraction(0),
                        metavar="RAT")
    p_poly.add_argument("--dist", default=None)
    p_poly.add_argument("--format", choices=("csv", "json"), default="json")
    p_poly.add_argument("--out", default=None)
    p_poly.set_defaults(func=cmd_poly)

    p_verify = sub.add_parser("verify", help="machine-check identity grids")
    p_verify.add_argument("ids", nargs="*", default=["all"],
                          help="identity tags, or 'all' (default)")
    p_verify.add_argument("--config", default=None, help="alternate grid config file")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_dob = sub.add_parser("dobinski", help="series evaluation with certified error")
    p_dob.add_argument("--dist", required=True)
    p_dob.add_argument("--n", type=int, required=True)
    p_dob.add_argument("--lambda", dest="lam", type=_rational, default=Fraction(0),
                       metavar="RAT")
    p_dob.add_argument("--x", type=_rational, required=True)
    p_dob.add_argument("--tol", type=float, default=1e-12, help="truncation target, not an error cap")
    p_dob.add_argument("--out", default=None)
    p_dob.set_defaults(func=cmd_dobinski)

    return parser


def text(value, indent: str = "") -> str:
    """value as json.dumps writes it with an indent of 2, its later lines led by indent, for the
    values the CLI writes: strings through json's C encoder, one join per list or dict."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, (dict, list, tuple)) and value:
        inner = indent + "  "
        if isinstance(value, dict):
            parts = [_quote(k) + ": " + (_quote(v) if type(v) is str else text(v, inner))
                     for k, v in value.items()]
            return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "}"
        parts = [_quote(v) if type(v) is str else text(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    return ("true" if value else "false") if type(value) is bool else json.dumps(value)


def _emit(args, record: dict, csv_rows: Iterable = ()) -> None:
    """Write text(record), an iterator value item by item, or the csv rows, to --out or stdout."""
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        if getattr(args, "format", "json") == "csv":
            csv.writer(fh).writerows(csv_rows)
            return
        sep = "{"
        for key, value in record.items():
            fh.write(sep + "\n  " + _quote(key) + ": ")
            sep = ","
            if not isinstance(value, Iterator):
                fh.write(text(value, "  "))
                continue
            items = 0
            for items, item in enumerate(value, 1):
                fh.write(("[" if items == 1 else ",") + "\n    " + text(item, "    "))
            fh.write("\n  ]" if items else "[]")
        fh.write("\n}" if args.out else "\n}\n")  # print() ended stdout with a newline


def _prob_row(d, n: int, lam) -> list[Fraction]:
    poly = prob_hetero_bell_poly(d, n, lam, Route.PARTIAL_BELL)
    return [poly.coeff(k) for k in range(n + 1)]


def _builder(registry: dict, name: str, args):
    build, inputs = registry[name]
    if "dist" in inputs and args.dist is None:
        raise MissingDistribution(f"{name} needs --dist")
    given = {"lambda": args.lam, "dist": args.dist}
    return build, {key: given[key] for key in inputs}


def _common_parameters(read: dict, **extra) -> dict:
    # an input the builder does not read plays no part, so it is recorded as null
    return {
        "lambda": format_rational(read["lambda"]) if "lambda" in read else None,
        "dist": format_distribution(read["dist"]) if "dist" in read else None,
        **extra,
    }


def cmd_table(args) -> int:
    row, read = _builder(TABLES, args.family, args)
    if args.nmax < 0:
        raise ParseError("--nmax must be >= 0")
    last = row(args.nmax, *read.values())  # fills each route's memo: no row raises after output starts
    built = itertools.chain((row(n, *read.values()) for n in range(args.nmax)), [last])
    rows = ([format_rational(v) for v in entries] for entries in built)
    params = _common_parameters(read, family=args.family, nmax=args.nmax, format=args.format)
    csv_rows = ([n] + entries for n, entries in enumerate(rows))  # either is formatted as written
    _emit(args, {"command": "table", "parameters": params, "rows": rows}, csv_rows)
    return 0


def cmd_poly(args) -> int:
    build, read = _builder(POLYS, args.kind, args)
    if args.n < 0:
        raise ParseError("--n must be >= 0")
    poly = build(args.n, *read.values())
    coeffs = [format_rational(poly.coeff(i)) for i in range(args.n + 1)]
    params = _common_parameters(read, kind=args.kind, n=args.n, format=args.format)
    csv_rows = itertools.chain([("power", "coefficient")], enumerate(coeffs))
    _emit(args, {"command": "poly", "parameters": params, "coefficients": coeffs}, csv_rows)
    return 0


def cmd_verify(args) -> int:
    ids = list(args.ids) or ["all"]
    tags = list(IDENTITY_TAGS) if ids == ["all"] else ids
    cfg = load_grid_config(args.config)
    reports = run_identities(tags, cfg)
    failed = [r for r in reports if not r.passed]
    record = {
        "command": "verify",
        "parameters": {"ids": tags, "grid_version": cfg.version},
        "reports": (r.as_dict() for r in reports),
        "summary": {
            "total": len(reports),
            "passed": len(reports) - len(failed),
            "failed": len(failed),
        },
    }
    _emit(args, record)
    return 1 if failed else 0


def cmd_dobinski(args) -> int:
    if args.n < 0:
        raise ParseError("--n must be >= 0")
    result = dobinski_details(args.dist, args.n, args.lam, args.x, args.tol)
    exact = prob_hetero_bell_poly(args.dist, args.n, args.lam)(args.x)
    if exact != 0:
        achieved = abs(Fraction(result.value) - exact) / abs(exact)
        achieved_str = repr(float(achieved))
    else:
        achieved_str = "0.0" if result.value == 0 else "inf"
    record = {
        "command": "dobinski",
        "parameters": {
            "dist": format_distribution(args.dist),
            "n": args.n,
            "lambda": format_rational(args.lam),
            "x": format_rational(args.x),
            "rel_tol": repr(args.tol),
        },
        "value": repr(result.value),
        "terms": result.terms_used,
        "exact": format_rational(exact),
        "achieved_rel_error": achieved_str,
        "rel_error_bound": repr(result.rel_bound),
    }
    _emit(args, record)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    sys.stdout = sys.stdout or open(os.devnull, "w")  # None if fd 1 is closed; print() wrote nothing
    argv = sys.argv[1:] if argv is None else argv
    # argparse takes a value such as '-1/2' for an option, so pass it as '--lambda=-1/2'
    glued: list[str] = []
    for arg in argv:
        if glued and glued[-1] in ("--lambda", "--x") and arg[:1] == "-":
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    try:
        try:
            args = parser.parse_args(glued)
        except SystemExit as exc:  # -h, after printing the help
            return int(exc.code or 0)
        # read here, not by argparse, so a bad law exits with its own reason, read or not
        if getattr(args, "dist", None) is not None:
            args.dist = parse_distribution(args.dist)
        code = args.func(args)
        sys.stdout.flush()  # a reader that left stdout early raises here, not at exit
        return code
    except (HeterobellError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BrokenPipeError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # exit flushes there
        return 2


if __name__ == "__main__":
    sys.exit(main())
