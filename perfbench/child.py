"""One fresh interpreter's share of a benchmark run.

    python3 perfbench/child.py WORKLOAD SEED WARM_SECONDS TRACE

Imports heterobell from the checkout's ``src``, runs the workload's requests
once cold (every memo empty), replays them warm for about WARM_SECONDS (at
least once, unless WARM_SECONDS is 0), checks the outputs, and prints one
JSON line with what it measured.  With TRACE = 1 the
import and the cold pass run under cProfile, and the line also holds self time
per layer, and counts: calls per layer, memo statistics and output counts.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Modules of src/heterobell named as layers; any other module counts as "other".
PACKAGE_LAYERS = (
    "arith", "triangles", "polynomial", "distributions", "hetero",
    "iid", "identities", "cli",
)
LAYERS = ("fractions", *PACKAGE_LAYERS, "json", "other")
MEMOS = (
    "hetero_stirling", "prob_stirling2", "prob_lah", "raw_moment",
    "deg_rising_moment", "sum_deg_rising_moment", "deg_rising_poly",
)


def layer_of(filename: str) -> str:
    path = os.path.normpath(filename)
    if path.startswith(os.path.join(SRC, "heterobell") + os.sep):
        name = os.path.splitext(os.path.basename(path))[0]
        return name if name in PACKAGE_LAYERS else "other"
    parts = path.split(os.sep)
    if parts[-1] == "fractions.py":
        return "fractions"
    if len(parts) > 1 and parts[-2] == "json":
        return "json"
    return "other"


def run_pass(cli, requests, profiler=None):
    """Run every request once, in order; a request starts when the last one ended.

    Returns (seconds per request, output or None per request, error or None per request).
    A CLI request that exits non-zero has an error and, if it wrote one, an output.
    """
    seconds, outputs, errors = [], [], []
    for req in requests:
        if req.out_path and os.path.exists(req.out_path):
            os.remove(req.out_path)
        buf = io.StringIO()
        output = error = status = None
        start = time.perf_counter()
        if profiler:
            profiler.enable()
        try:
            if req.call is not None:
                output = req.call()
            else:
                with contextlib.redirect_stdout(buf):
                    status = cli.main(list(req.argv))
        except Exception as exc:  # a request that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if profiler:
                profiler.disable()
            seconds.append(time.perf_counter() - start)
        if status is not None:
            if status != 0:
                error = f"exit status {status}"
            if not req.out_path:
                output = buf.getvalue()
            elif os.path.exists(req.out_path):
                with open(req.out_path) as fh:
                    output = fh.read()
        outputs.append(output)
        errors.append(error)
    return seconds, outputs, errors


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def memo_counts(heterobell) -> dict:
    """hit_ratio, lookups and entries of each memo; None where cache_info() is gone."""
    out = {}
    for name in MEMOS:
        cache_info = getattr(getattr(heterobell, name, None), "cache_info", None)
        info = cache_info() if cache_info else None
        lookups = info.hits + info.misses if info else None
        hit_ratio = (info.hits / lookups if lookups else 0.0) if info else None
        out[f"memo.{name}.hit_ratio"] = metric(hit_ratio, "ratio")
        out[f"memo.{name}.lookups"] = metric(lookups, "count")
        out[f"memo.{name}.entries"] = metric(info.currsize if info else None, "count")
    return out


def profile_layers(profiler) -> tuple[dict, dict]:
    """Self seconds and call counts per layer, from the profiler's per-code-object entries.

    pstats is not used: it keys functions by (file, line, name), so two
    comprehensions on one line overwrite each other, and which one is kept
    changes from process to process.
    """
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for entry in profiler.getstats():
        layer = layer_of(entry.code.co_filename)
        self_s[layer] += entry.inlinetime
        calls[layer] += entry.callcount
    return self_s, {f"{layer}.calls": metric(n, "count") for layer, n in calls.items()}


def output_counts(requests, outputs) -> dict:
    out_bytes = terms = checks = 0
    for req, output in zip(requests, outputs):
        if req.call is not None or output is None:
            continue
        out_bytes += len(output.encode())
        if req.argv[0] == "dobinski":
            terms += json.loads(output)["terms"]
        elif req.argv[0] == "verify":
            checks += json.loads(output)["summary"]["total"]
    return {
        "cli.output_bytes": metric(out_bytes, "bytes"),
        "hetero.series_terms": metric(terms, "count"),
        "identities.checks": metric(checks, "count"),
    }


def main(argv: list[str]) -> int:
    name, seed, warm_seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    profiler = None
    if trace:
        import cProfile

        # builtins=False: time in built-in calls stays in the calling function
        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
    # the import is profiled too, as a cold CLI process pays it
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import heterobell
    from heterobell import cli

    import_s = time.perf_counter() - start
    if profiler:
        profiler.disable()
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        workload = workloads.WORKLOADS[name](seed, tmpdir)
        requests = workload.requests
        cold_s, cold_out, cold_err = run_pass(cli, requests, profiler)
        record = {
            "import_s": import_s,
            "cold_s": sum(cold_s),
            "spans": [[req.label, seconds] for req, seconds in zip(requests, cold_s)],
            "warm_spans": [],  # per warm pass, seconds per request
        }
        if trace:
            record["self_s"], calls = profile_layers(profiler)
            record["counts"] = {**calls, **memo_counts(heterobell), **output_counts(requests, cold_out)}
        # per pass: the error and whether the output equals the cold one, per
        # request; warm outputs are dropped once compared, so peak memory does
        # not grow with the number of warm passes
        passes = [(cold_err, [True] * len(requests))]
        warm_spent = 0.0
        while warm_seconds > 0:
            seconds, outputs, errors = run_pass(cli, requests)
            record["warm_spans"].append(seconds)
            passes.append((errors, [out == cold for out, cold in zip(outputs, cold_out)]))
            del outputs
            warm_spent += sum(seconds)
            done = len(record["warm_spans"])
            if warm_spent * (done + 1) / done > warm_seconds:  # another pass would not fit
                break
        record["rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_failed = workload.check(
            {req.label: out for req, out in zip(requests, cold_out) if out is not None}
        )
    # A request fails if it raises, if its output differs from the cold one, or
    # if it repeats a cold output that failed its check.
    wrong = set(check_failed.values())
    errors = set()
    failed = 0
    for errs, same in passes:
        for req, err, same_as_cold in zip(requests, errs, same):
            if err is not None:
                errors.add(f"{req.label}: {err}")
            elif not same_as_cold:
                wrong.add(f"{req.label}: a warm output differs from the cold output")
            failed += err is not None or not same_as_cold or req.label in check_failed
    record["attempted"] = len(passes) * len(requests)
    record["failed"] = failed
    record["errors"] = sorted(errors)
    record["mismatches"] = sorted(wrong)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
