"""Benchmark of the heterobell library and CLI.

    python3 perfbench/run.py --workload {tables,prob,verify} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; heterobell is imported from the
checkout's ``src``.  Every request runs in-process in a child interpreter,
single-threaded, in a closed loop with one client.  This process only spawns
the children and aggregates what they report, so it never imports heterobell
and stays small.

--trace 0 prints the end-to-end metrics: setup_s, wall_s, warm_wall_s and
peak_rss_mib.  --trace 1 prints the per-layer metrics from a cProfile run of
the cold process (import plus cold pass).  Human-readable lines come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
See perfbench/README.md for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from child import metric

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
REQUIRED = (os.path.join("src", "heterobell", "__init__.py"), os.path.join("tests", "oracles.py"))

# Seconds of warm replay per cold pass, about as long as the cold pass, so warm
# samples cover as much of the run as cold ones. The last cold pass of a run
# replays warm until the run's time is spent.
WARM_SECONDS = {"tables": 4.0, "prob": 4.5, "verify": 4.0}
MIN_COLD_PASSES = 3  # per end-to-end run, however long they take
SETUP_PROBES_PER_PASS = 2
CHILD_TIMEOUT_S = 150

SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import heterobell; "
    "heterobell.load_grid_config(); print('ready', flush=True)"
)

CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")  # same hashing in every child, so counts repeat


class BenchError(RuntimeError):
    pass


def time_setup() -> float:
    """Seconds from spawning a fresh interpreter to heterobell imported and grid config loaded."""
    cmd = [sys.executable, "-c", SETUP_PROBE, os.path.join(ROOT, "src")]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=CHILD_ENV) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe failed with exit status {proc.returncode}")
    return elapsed


def run_child(workload: str, seed: int, warm_seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, CHILD, workload, str(seed), repr(warm_seconds), "1" if trace else "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=CHILD_ENV, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"child exited with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_until(seconds: float, sample, min_samples: int) -> list:
    """Call sample() at least min_samples times, then while another fits in `seconds`."""
    start = time.perf_counter()
    results = []
    while True:
        results.append(sample())
        elapsed = time.perf_counter() - start
        if len(results) >= min_samples and elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def list_time(passes: list[list[float]]) -> float:
    """Seconds for the whole request list: each request's median over the passes, summed.

    A pass is one list of seconds per request. Taking the median per request
    lets every request's sample be spread over the whole run, so a slow spell
    of the host weighs less than in the median of whole-pass totals.
    """
    return sum(statistics.median(times) for times in zip(*passes))


def end_to_end(args) -> tuple[list[dict], dict]:
    time_setup()  # untimed: compiles bytecode and warms the file cache
    setup = []
    children = []
    fixed = []  # seconds of each cycle not spent in warm replay
    warm_seconds = WARM_SECONDS[args.workload]
    deadline = time.perf_counter() + args.seconds
    while True:
        start = time.perf_counter()
        budget = warm_seconds
        if fixed:
            left, cost = deadline - start, max(fixed)
            if len(children) >= MIN_COLD_PASSES and left < cost + warm_seconds / 2:
                break
            if left < 2 * (cost + warm_seconds):  # the last cycle: replay warm until the deadline
                budget = max(warm_seconds / 2, left - cost)
        # setup probes are spread over the run, so they see the same host speed as the passes
        setup.extend(time_setup() for _ in range(SETUP_PROBES_PER_PASS))
        child = run_child(args.workload, args.seed, budget, False)
        children.append(child)
        fixed.append(time.perf_counter() - start - sum(map(sum, child["warm_spans"])))
    cold = [[seconds for _, seconds in c["spans"]] for c in children]
    warm = [seconds for c in children for seconds in c["warm_spans"]]
    rss = [c["rss_mib"] for c in children]
    print(f"setup_s      median of {len(setup)} fresh interpreters: {statistics.median(setup):.4f} s")
    for name, passes in (("wall_s", cold), ("warm_wall_s", warm)):
        totals = [sum(p) for p in passes]
        print(f"{name:12s} {list_time(passes):.4f} s, from {len(passes)} passes "
              f"(pass totals: median {statistics.median(totals):.4f}, min {min(totals):.4f}, max {max(totals):.4f})")
    print(f"peak_rss_mib median of {len(rss)} processes: {statistics.median(rss):.2f} MiB")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(list_time(cold), "s"),
        "warm_wall_s": metric(list_time(warm), "s"),
        "peak_rss_mib": metric(statistics.median(rss), "MiB"),
    }
    return children, metrics


def per_layer(args) -> tuple[list[dict], dict]:
    def pair():
        return (run_child(args.workload, args.seed, 0, False), run_child(args.workload, args.seed, 0, True))

    pairs = run_until(args.seconds, pair, 1)
    plain = [p for p, _ in pairs]
    traced = [t for _, t in pairs]
    counts = traced[0]["counts"]
    for other in traced[1:]:
        differ = {name: (m["value"], other["counts"][name]["value"]) for name, m in counts.items()
                  if other["counts"][name] != m}
        if differ:
            print(f"warning: counts differ between traced processes of the same inputs: {differ}")
    overhead = statistics.median(t["import_s"] + t["cold_s"] for t in traced) / statistics.median(
        p["import_s"] + p["cold_s"] for p in plain
    )
    print(f"cold process, untraced, median of {len(plain)} (s | request):")
    print(f"  {statistics.median(p['import_s'] for p in plain):9.4f}  import heterobell")
    for i, (label, _) in enumerate(plain[0]["spans"]):
        print(f"  {statistics.median(p['spans'][i][1] for p in plain):9.4f}  {label[:110]}")
    metrics = {}
    print(f"per layer, traced cold process, median of {len(traced)}:")
    for layer in traced[0]["self_s"]:
        self_s = statistics.median(t["self_s"][layer] for t in traced)
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
        metrics[f"{layer}.calls"] = counts[f"{layer}.calls"]
        print(f"  {layer:14s} self {self_s:9.4f} s  calls {counts[f'{layer}.calls']['value']:>11d}")
    metrics.update(counts)
    for name, m in counts.items():
        if not name.endswith(".calls"):
            print(f"  {name} {m['value']} {m['unit']}")
    metrics["trace.overhead"] = metric(overhead, "ratio")
    print(f"  trace.overhead {overhead:.3f} ratio")
    return plain + traced, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("tables", "prob", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [path for path in REQUIRED if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"error: not a heterobell checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    try:
        children, metrics = (per_layer if args.trace else end_to_end)(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    errors = sorted({e for c in children for e in c["errors"]})
    mismatches = sorted({m for c in children for m in c["mismatches"]})
    for line in errors + mismatches:
        print(f"FAILED {line}")
    if args.trace:
        metrics["error_rate"] = metric(failed / attempted, "ratio")
    print(f"error_rate   {failed} failed of {attempted} requests attempted = {failed / attempted:.4f}")
    print(json.dumps({"correct": not mismatches, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
