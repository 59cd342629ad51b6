"""The CLI's streamed output: its layout, its errors and its memory.

The CLI writes JSON in the layout of json.dumps(record, indent=2) without calling
it, one row or report at a time.  Here the standard library encoder judges every
document, on stdout and with --out, and subprocesses check what a reader that
leaves early sees, that an error leaves no file and how far a large table's
memory peak rises.
"""
import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from heterobell import cli, identities
from heterobell.cli import main
from heterobell.identities import IDENTITY_TAGS

# every grid axis at one or two values, so each tag has a few points
TINY_GRID = (
    "[meta]\nversion = 7\n[defaults]\ndists = bernoulli:1/2\nlambdas = -1/2\nxs = 1\n"
    "nmax = 2\nsum_max = 2\nts = 1\nys = 1/3\nalphas = 2\nps = 1/3\nkmax = 2\n"
)


def _argv(registry: dict, name: str, index_flag: str, n: int) -> list[str]:
    inputs = registry[name][1]
    return [name, index_flag, str(n)] + (["--lambda=-1/2"] if "lambda" in inputs else []) + (
        ["--dist", "bernoulli:1/3"] if "dist" in inputs else []
    )


CASES = (
    [["table", *_argv(cli.TABLES, name, "--nmax", n)] for name in cli.TABLES for n in (0, 1, 5)]
    + [["poly", *_argv(cli.POLYS, name, "--n", n)] for name in cli.POLYS for n in (0, 1, 5)]
    + [["dobinski", "--dist", "finite:1:1/2,3:1/2", "--n", "3", "--lambda", "1/3", "--x", "2"]]
    + [["verify", tag, "--config", "TINY"] for tag in IDENTITY_TAGS]
    + [["verify", "--config", "TINY"]]
)


def _layout_holds(capsys, tmp_path, argv: list[str], code: int = 0) -> dict:
    """Run argv to stdout and to --out; both must be the stdlib's indent=2 text."""
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_GRID)
    argv = [str(cfg) if a == "TINY" else a for a in argv]
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err == ""
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    target = tmp_path / "out.json"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr() == ("", "")
    written = target.read_text()
    assert written == json.dumps(json.loads(written), indent=2)
    assert written + "\n" == out
    return json.loads(out)


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_is_the_stdlib_indent_2_layout(capsys, tmp_path, argv):
    _layout_holds(capsys, tmp_path, argv)


def test_a_failing_report_with_a_note_keeps_the_layout(capsys, tmp_path, monkeypatch):
    wrong = dataclasses.replace(identities._IDENTITIES["T2.8"], right=lambda *params: Fraction(-1, 3))
    monkeypatch.setitem(identities._IDENTITIES, "T2.8", wrong)
    record = _layout_holds(capsys, tmp_path, ["verify", "T2.8", "--config", "TINY"], code=1)
    assert record["summary"]["failed"] == record["summary"]["total"] > 0
    assert all(r["note"] == identities._SPLIT_NOTE for r in record["reports"])


def test_an_empty_streamed_list_keeps_the_layout(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_identities", lambda tags, cfg: [])
    record = _layout_holds(capsys, tmp_path, ["verify", "T2.9", "--config", "TINY"])
    assert record["reports"] == [] and record["summary"]["total"] == 0


@pytest.mark.parametrize(
    "value",
    [None, True, False, 0, -7, 2**80, 1.5, float("inf"), "", "a\"b\\c\né\U0001d11e", [], {}, (),
     [[]], {"a": {}}, ("x", 1), [1, [2, [3, {"k": None}]]], {"pass": True, "left": ["1/2"]}],
    ids=repr,
)
def test_text_is_json_dumps_indent_2(value):
    assert cli.text(value) == json.dumps(value, indent=2)
    assert cli.text(value, "    ") == json.dumps(value, indent=2).replace("\n", "\n    ")


# stdout block-buffered, as a shell pipeline has it
BUFFERED = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}


def test_a_reader_that_leaves_early_gets_one_error_line():
    proc = subprocess.Popen(
        [sys.executable, "-m", "heterobell", "table", "stirling1u", "--nmax", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=BUFFERED,
    )
    try:
        assert proc.stdout.read(100).startswith(b'{\n  "command": "table"')
        proc.stdout.close()  # the table is megabytes long, so the writer is still busy
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == "error: [Errno 32] Broken pipe\n"
    assert "Traceback" not in err and "Exception ignored" not in err


def test_a_reader_gone_before_a_short_output_gets_one_error_line():
    # the whole output fits in stdout's buffer, so only a flush can meet the closed pipe;
    # one at exit would print "Exception ignored" and exit 120
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "heterobell", "table", "stirling2", "--nmax", "3"],
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60, env=BUFFERED)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv, message", [
    (["table", "prob_stirling2", "--nmax", "5", "--dist", "moments:1,1/2,1/3"], "order 3 requested, only 2"),
    (["verify", "T2.9", "--config", "CFG"], "order 2 requested, only 1"),  # a law of the user's grid
], ids=["table", "verify"])
def test_an_error_mid_run_leaves_no_file(tmp_path, argv, message):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[defaults]\ndists = moments:1,1/2\nnmax = 5\n")
    target = tmp_path / "out.json"
    argv = [str(cfg) if a == "CFG" else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "heterobell", *argv, "--out", str(target)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: moment of {message} supplied\n"
    assert not target.exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_a_large_table_streams_in_bounded_memory(tmp_path):
    # The child reports VmHWM, the peak of its own process image. RUSAGE_CHILDREN here
    # would keep the largest child this process ever waited for, and even the child's
    # RUSAGE_SELF starts from this process's peak when the child is spawned by vfork.
    target = tmp_path / "stirling1u.json"
    script = (
        "import sys; from heterobell.cli import main; "
        "code = main(['table', 'stirling1u', '--nmax', '600', '--out', sys.argv[1]]); "
        "print(code, *[line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')])"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", script, str(target)], capture_output=True,
                          text=True, timeout=120, env=env)
    code, peak_kib = proc.stdout.split()
    assert code == "0" and proc.stderr == ""
    peak_mib = int(peak_kib) / 1024
    assert peak_mib < 100, f"peak RSS {peak_mib:.0f} MiB"  # 442 MiB when the whole document was built
    with open(target) as fh:
        assert fh.read(30) == '{\n  "command": "table",\n  "par'
        fh.seek(os.path.getsize(target) - 30)
        assert fh.read().endswith('"1"\n    ]\n  ]\n}')


def test_a_closed_stdout_is_written_nowhere_as_before():
    # with fd 1 closed at start, sys.stdout is None, and print() wrote nothing there
    proc = subprocess.run([sys.executable, "-m", "heterobell", "table", "stirling2", "--nmax", "3"],
                          stderr=subprocess.PIPE, text=True, timeout=60, preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, "")
