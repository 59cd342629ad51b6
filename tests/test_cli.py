import contextlib
import csv
import io
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heterobell import (
    bell_poly,
    deg_stirling1,
    hetero,
    hetero_stirling,
    parse_distribution,
    prob_hetero_bell_poly,
    stirling2,
)
from heterobell import cli
from heterobell.cli import main

from .oracles import BERN_THIRD


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_stirling2_json(capsys):
    code, out, err = run_cli(capsys, "table", "stirling2", "--nmax", "3")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["command"] == "table"
    assert record["rows"] == [["1"], ["0", "1"], ["0", "1", "1"], ["0", "1", "3", "1"]]
    assert record["parameters"]["family"] == "stirling2"
    assert record["parameters"]["lambda"] is None


def test_table_hetero_half_lambda(capsys):
    code, out, _ = run_cli(capsys, "table", "hetero", "--nmax", "2", "--lambda", "1/2")
    assert code == 0
    assert json.loads(out)["rows"][2] == ["0", "3/2", "1"]


def test_table_prob_hetero_bernoulli(capsys):
    code, out, _ = run_cli(
        capsys,
        "table",
        "prob_hetero",
        "--nmax",
        "2",
        "--lambda",
        "1",
        "--dist",
        "bernoulli:1/3",
    )
    assert code == 0
    record = json.loads(out)
    assert record["rows"][2] == ["0", "2/3", "1/9"]
    assert record["parameters"]["dist"] == "bernoulli:1/3"


def test_table_records_unused_dist_as_null(capsys):
    code, out, _ = run_cli(capsys, "table", "hetero", "--nmax", "2", "--dist", "poisson:1")
    assert code == 0
    assert json.loads(out)["parameters"]["dist"] is None
    assert json.loads(out)["parameters"]["lambda"] == "0"
    code, out, _ = run_cli(
        capsys, "table", "prob_stirling2", "--nmax", "1", "--lambda", "5",
        "--dist", "bernoulli:1/2",
    )
    assert code == 0
    assert json.loads(out)["parameters"]["lambda"] is None
    assert json.loads(out)["parameters"]["dist"] == "bernoulli:1/2"


def test_poly_records_unused_dist_as_null(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "bell", "--n", "3", "--lambda", "5", "--dist", "poisson:1"
    )
    assert code == 0
    assert json.loads(out)["parameters"]["dist"] is None
    assert json.loads(out)["parameters"]["lambda"] is None
    code, out, _ = run_cli(capsys, "poly", "prob_hetero_bell", "--n", "3", "--dist", "poisson:1")
    assert code == 0
    assert json.loads(out)["parameters"]["dist"] == "poisson:1"
    assert json.loads(out)["parameters"]["lambda"] == "0"


def test_table_csv_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "table", "deg_stirling1", "--nmax", "4", "--lambda", "1/3",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 5
    for row in rows:
        n = int(row[0])
        assert len(row) == n + 2
    assert [Fraction(v) for v in rows[3][1:]] == [0, Fraction(10, 9), 2, 1]


def test_poly_bell_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "bell", "--n", "4")
    assert code == 0
    record = json.loads(out)
    assert record["coefficients"] == ["0", "1", "7", "6", "1"]
    assert [Fraction(c) for c in record["coefficients"]] == list(bell_poly(4).coeffs)


def test_poly_hetero_bell_unit_lambda(capsys):
    code, out, _ = run_cli(capsys, "poly", "hetero_bell", "--n", "2", "--lambda", "1")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", "2", "1"]


def test_poly_csv_has_header(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "prob_hetero_bell", "--n", "3", "--lambda", "1/2",
        "--dist", "poisson:1", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["power", "coefficient"]
    got = [Fraction(c) for _, c in rows[1:]]
    from heterobell import Poisson

    assert got == list(prob_hetero_bell_poly(Poisson(1), 3, Fraction(1, 2)).coeffs)


def test_missing_dist_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "table", "prob_hetero", "--nmax", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_bad_family_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "table", "nope", "--nmax", "2")
    assert code == 2
    assert "invalid choice" in err


@pytest.mark.parametrize("argv", [("-h",), ("table", "-h"), ("verify", "--help")])
def test_help_prints_usage_and_exits_0(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.startswith("usage: heterobell")


def test_bad_rational_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "table", "hetero", "--nmax", "2", "--lambda", "0.5")
    assert code == 2


def test_negative_nmax_rejected(capsys):
    code, _, err = run_cli(capsys, "table", "stirling2", "--nmax", "-1")
    assert code == 2
    assert err.startswith("error:")


def test_moment_exhaustion_reported(capsys):
    code, _, err = run_cli(
        capsys, "table", "prob_stirling2", "--nmax", "3", "--dist", "moments:1,1"
    )
    assert code == 2
    assert "moment" in err


@pytest.mark.parametrize("family", ["prob_hetero", "prob_stirling2", "prob_lah"])
def test_short_moment_list_exits_2_and_leaves_the_rows_unchanged(capsys, family):
    argv = ("table", family, "--nmax", "5", "--dist", "moments:1,1/2,1/3", "--lambda", "1/3")
    assert run_cli(capsys, *argv[:3], "2", *argv[4:])[0] == 0
    keys = hetero._bell_memo.cache_info().currsize
    law = parse_distribution("moments:1,1/2,1/3")
    lam = Fraction({"prob_stirling2": 0, "prob_lah": 1}.get(family, Fraction(1, 3)))
    entry = hetero._bell_memo(law, lam)  # a hit: the rows the table kept
    before = list(entry)
    assert run_cli(capsys, *argv) == (2, "", "error: moment of order 3 requested, only 2 supplied\n")
    assert hetero._bell_memo(law, lam) is entry and entry == before
    assert hetero._bell_memo.cache_info().currsize == keys


def test_verify_single_tag(capsys):
    code, out, _ = run_cli(capsys, "verify", "T2.18")
    assert code == 0
    record = json.loads(out)
    assert record["summary"]["failed"] == 0
    assert record["summary"]["total"] == record["summary"]["passed"] > 0
    assert all(r["pass"] for r in record["reports"])
    assert all(r["identity"] == "T2.18" for r in record["reports"])


def test_verify_unknown_tag(capsys):
    code, _, err = run_cli(capsys, "verify", "BOGUS")
    assert code == 2
    assert err.startswith("error:")


def test_verify_with_config_and_out(capsys, tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[meta]\nversion = 9\n[defaults]\ndists = bernoulli:1/2\n"
        "lambdas = 1/2\nxs = 1\nnmax = 3\n"
    )
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "T2.9", "T2.10", "--config", str(cfg), "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    record = json.loads(out_file.read_text())
    assert record["parameters"]["grid_version"] == "9"
    assert record["summary"]["failed"] == 0
    tags = {r["identity"] for r in record["reports"]}
    assert tags == {"T2.9", "T2.10"}


def test_dobinski_record(capsys):
    code, out, _ = run_cli(
        capsys, "dobinski", "--dist", "bernoulli:1/3", "--n", "4",
        "--lambda", "1/2", "--x", "2",
    )
    assert code == 0
    record = json.loads(out)
    exact = prob_hetero_bell_poly(BERN_THIRD, 4, Fraction(1, 2))(Fraction(2))
    assert Fraction(record["exact"]) == exact
    achieved = float(record["achieved_rel_error"])
    bound = float(record["rel_error_bound"])
    assert achieved <= bound <= 1e-11
    value = float(record["value"])
    assert abs(value - float(exact)) <= bound * abs(float(exact)) * 1.01


def test_dobinski_unbounded_dist_rejected(capsys):
    code, _, err = run_cli(
        capsys, "dobinski", "--dist", "poisson:1", "--n", "3", "--x", "1"
    )
    assert code == 2
    assert err.startswith("error:")


def test_dobinski_nonpositive_point_rejected(capsys):
    code, _, err = run_cli(
        capsys, "dobinski", "--dist", "bernoulli:1/2", "--n", "3", "--x", "-1"
    )
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("--dist", "const:0", "--lambda", "1", "--n", "2", "--x", "1"),
        ("--dist", "finite:-1:1/2,1:1/2", "--n", "1", "--x", "1"),
        ("--dist", "bernoulli:0", "--n", "2", "--x", "1"),
        ("--dist", "const:0", "--lambda", "1", "--n", "3", "--x", "3"),
        ("--dist", "finite:-1:1/2,1:1/2", "--n", "3", "--x", "3"),
    ],
    ids=["point-mass-at-0", "mean-0", "bernoulli-0", "point-mass-at-0-n3", "mean-0-n3"],
)
def test_dobinski_zero_series_is_exactly_0(capsys, argv):
    # every term k = 0..n of the series is 0, and a term is a polynomial in k of degree <= n
    code, out, err = run_cli(capsys, "dobinski", *argv)
    assert code == 0 and err == ""
    record = json.loads(out)
    n = int(argv[argv.index("--n") + 1])
    assert (record["value"], record["exact"], record["terms"]) == ("0.0", "0", n + 1)
    assert record["achieved_rel_error"] == record["rel_error_bound"] == "0.0"


def test_dobinski_large_point(capsys):
    # the exact partial sum is near e**720, past the largest float
    code, out, err = run_cli(
        capsys, "dobinski", "--dist", "bernoulli:1/2", "--n", "1", "--x", "720"
    )
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["exact"] == "360"
    bound = Fraction(float(record["rel_error_bound"]))
    assert abs(Fraction(float(record["value"])) - 360) <= bound * 360
    assert bound <= Fraction(1, 10**11)


def test_dobinski_past_term_cap_exits_2_at_once():
    # a subprocess with a timeout, so that an unbounded series loop fails here in
    # seconds instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-m", "heterobell", "dobinski", "--dist", "bernoulli:1/2",
         "--n", "1", "--x", "100000"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "needs more than 5000 terms" in proc.stderr


def test_dobinski_uncertifiable_below_term_cap_exits_2_at_once():
    # at x = 4999 the majorant still falls at the last term, but its tail there
    # exceeds any partial sum the series can reach; the loop would run all
    # 5,000 terms before refusing
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "heterobell", "dobinski", "--dist", "bernoulli:1/2",
         "--n", "1", "--x", "4999"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - start < 3
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "needs more than 5000 terms" in proc.stderr


@pytest.mark.parametrize("x, code", [("4510", 2), ("4000", 0)])
def test_dobinski_long_series_runs_in_seconds(x, code):
    # x = 4510 passes the early refusal but cannot certify, so it sums all 5,000
    # terms before exiting 2; x = 4000 certifies after 4,468 terms
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "heterobell", "dobinski", "--dist", "bernoulli:1/2",
         "--n", "1", "--x", x],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert time.perf_counter() - start < 3
    assert proc.returncode == code
    if code:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "within 5000 terms" in proc.stderr
    else:
        assert proc.stderr == "" and json.loads(proc.stdout)["terms"] == 4468


def test_table_out_file(capsys, tmp_path):
    target = tmp_path / "rows.json"
    code, out, _ = run_cli(
        capsys, "table", "lah", "--nmax", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    record = json.loads(target.read_text())
    assert record["rows"][3] == ["0", "6", "6", "1"]


def test_no_command_is_usage_error(capsys):
    assert run_cli(capsys)[0] == 2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "heterobell", "table", "stirling2", "--nmax", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rows"][2] == ["0", "1", "1"]


def test_json_rows_match_library_exactly(capsys):
    code, out, _ = run_cli(
        capsys, "table", "hetero", "--nmax", "6", "--lambda", "5/2"
    )
    assert code == 0
    record = json.loads(out)
    for n, row in enumerate(record["rows"]):
        assert [Fraction(v) for v in row] == [
            hetero_stirling(n, k, Fraction(5, 2)) for k in range(n + 1)
        ]
    assert [Fraction(v) for v in record["rows"][0]] == [stirling2(0, 0)]


def test_negative_lambda_is_read_as_a_value(capsys):
    code, out, err = run_cli(capsys, "table", "hetero", "--nmax", "2", "--lambda", "-1/2")
    assert code == 0 and err == ""
    record = json.loads(out)
    assert record["parameters"]["lambda"] == "-1/2"
    assert [[Fraction(v) for v in row] for row in record["rows"]] == [
        [hetero_stirling(n, k, Fraction(-1, 2)) for k in range(n + 1)] for n in range(3)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("table", "prob_stirling2", "--nmax", "2"),
        ("table", "prob_lah", "--nmax", "2"),
        ("table", "prob_hetero", "--nmax", "2"),
        ("poly", "prob_hetero_bell", "--n", "2"),
    ],
)
def test_missing_dist_names_the_flag(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--dist" in err


DOBINSKI = ("dobinski", "--dist", "bernoulli:1/2", "--n", "3", "--x", "1")


@pytest.mark.parametrize(
    "argv, needle",
    [
        (("verify", "--config", "{tmp}/missing.cfg"), "missing.cfg"),
        (("verify", "T2.3", "--config", "{tmp}/bad.cfg"), "[T2.3]: nmax = 'abc'"),
        (("verify", "--config", "{tmp}/headless.cfg"), "headless.cfg"),
        (("verify", "T2.9", "--config", "{tmp}/empty.cfg"), "[T2.9] has no points"),
        (("table", "lah", "--nmax", "2", "--out", "{tmp}/no/such/dir/rows.json"), "rows.json"),
        (DOBINSKI + ("--tol", "0"), "rel_tol"),
        (DOBINSKI + ("--tol", "nan"), "rel_tol"),
        (DOBINSKI + ("--tol", "inf"), "rel_tol"),
        (("verify", "T2.4", "--config", "{tmp}/laws.cfg"), "[T2.4] has no points"),
        (("verify", "T2.16", "--config", "{tmp}/laws.cfg"), "[T2.16]: Poisson rate"),
        (("verify", "T2.17", "--config", "{tmp}/laws.cfg"), "[T2.17]: Poisson rate"),
        (("verify", "T2.18", "--config", "{tmp}/laws.cfg"), "[T2.18]: Bernoulli parameter"),
        (("verify", "T2.20", "--config", "{tmp}/laws.cfg"), "[T2.20]: Bernoulli parameter"),
        (("verify", "--config", "{tmp}/utf16.cfg"), "utf16.cfg: 'utf-8' codec can't decode"),
        (("table", "prob_hetero", "--nmax", "2", "--dist", "poisson:0"),
         "invalid distribution 'poisson:0': Poisson rate must be positive, got 0"),
        (("poly", "prob_hetero_bell", "--n", "2", "--dist", "finite:0:1/2,2:1/3"), "must sum to 1"),
        (DOBINSKI[:2] + ("gauss:1",) + DOBINSKI[3:], "unknown distribution family 'gauss'"),
        (("table", "stirling2", "--nmax", "2", "--dist", "gauss:1"), "unknown distribution family 'gauss'"),
        # usage errors, which argparse finds, are one line too
        (("table", "hetero", "--nmax", "3", "--lambda", "1/0"), "argument --lambda: zero denominator: '1/0'"),
        (("table", "hetero", "--nmax", "3", "--lambda", "0.5"), "argument --lambda: not a rational literal"),
        (DOBINSKI[:-1] + ("1e3",), "argument --x: not a rational literal: '1e3'"),
        (("table", "hetero", "--nmax", "3", "--lambda", "7" * 5000), "5000 characters has too many digits"),
        (("table", "nope"), "argument family: invalid choice: 'nope'"),
        (("table", "stirling2"), "the following arguments are required: --nmax"),
    ],
    ids=[
        "missing-config", "non-integer-nmax", "no-section-header", "empty-grid",
        "out-dir-missing", "tol-0", "tol-nan", "tol-inf",
        "empty-lambdas-list", "poisson-rate-0", "poisson-rate-negative", "bernoulli-p-2",
        "bernoulli-p-negative", "config-not-utf8", "dist-poisson-rate-0", "dist-finite-sum",
        "dist-unknown-head", "dist-unread-by-family",
        "lambda-zero-denominator", "lambda-decimal", "x-exponent", "lambda-5000-digits", "unknown-family",
        "nmax-missing",
    ],
)
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, argv, needle):
    (tmp_path / "bad.cfg").write_text("[defaults]\nnmax = abc\n")
    (tmp_path / "headless.cfg").write_text("nmax = 3\n")
    (tmp_path / "empty.cfg").write_text("[defaults]\nnmax = -1\n")
    # an empty list, and law parameters out of range, each read while the grid is built
    (tmp_path / "laws.cfg").write_text(
        "[T2.4]\nlambdas =\n[T2.16]\nalphas = 0\n[T2.17]\nalphas = -1\n"
        "[T2.18]\nps = 2\n[T2.20]\nps = -1/2\n"
    )
    (tmp_path / "utf16.cfg").write_bytes("[defaults]\nnmax = 3\n".encode("utf-16"))
    code, out, err = run_cli(capsys, *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert needle in err


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=30, deadline=None)
@given(lam=st.fractions(min_value=-4, max_value=4, max_denominator=9), nmax=st.integers(0, 12))
@example(lam=Fraction(3), nmax=12)
@example(lam=Fraction(-2), nmax=12)
@example(lam=Fraction(-12, 7), nmax=12)
def test_lambda_tables_equal_the_entry_functions(lam, nmax):
    entries = {"hetero": hetero_stirling, "deg_stirling1": deg_stirling1}
    for family, entry in entries.items():
        # a negative lambda goes as --lambda=-a/b
        code, out, err = _in_process(["table", family, "--nmax", str(nmax), f"--lambda={lam}"])
        assert code == 0 and err == ""
        assert json.loads(out)["rows"] == [
            [str(entry(n, k, lam)) for k in range(n + 1)] for n in range(nmax + 1)
        ]


def test_parser_reuse_leaks_nothing_between_calls():
    calls = [
        ("table", "hetero", "--lambda", "1/2", "--format", "csv", "--nmax", "3"),
        ("table", "hetero", "--nmax", "2"),
        ("table", "prob_hetero", "--dist", "bernoulli:1/3", "--lambda", "1/3", "--nmax", "3"),
        ("table", "prob_hetero", "--nmax", "3"),
    ]
    got = [_in_process(argv) for argv in calls]
    fresh = [
        subprocess.run([sys.executable, "-m", "heterobell", *argv], capture_output=True)
        for argv in calls
    ]
    # bytes, so that the csv line ends stay as written
    assert got == [(proc.returncode, proc.stdout.decode(), proc.stderr.decode()) for proc in fresh]
    code, out, err = got[-1]
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "--dist" in err
    assert cli._build_parser() is cli._build_parser()
