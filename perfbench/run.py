"""Benchmark of cf2: exact-check workloads timed in fresh processes, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is search, exhaustive, scan, oracle, or all.  Run it from any directory
of a checkout; cf2 is imported from the checkout's src/.

--trace 0 starts one fresh interpreter per pass and keeps starting passes
while the next one is expected to end within S seconds (at least
MIN_PASSES).  It prints the end-to-end metrics: solve_s, items_per_s,
setup_s and peak_rss_mib (medians over the passes), and fail_ratio.
Times are in reference seconds, corrected for the drifting speed of a
shared machine (see speed.py); the wall seconds are printed beside them.
--trace 1 runs one traced pass, one plain pass for the tracing overhead and,
for search and scan, the jobs=1 versus jobs=2 check; it prints the
per-layer metrics.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 when every pinned result matched,
1 when one did not (the result is still printed) and 2 when the benchmark
could not run (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REF_BURST_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
SPAN_DIR = ROOT / ".bench_trace"

WORKLOAD_NAMES = ("search", "exhaustive", "scan", "oracle")
ITEMS = {"search": "prefixes examined", "exhaustive": "(pre, word) inputs",
         "scan": "nonsquare D", "oracle": "surds"}
MIN_PASSES = 1
SETUP_PROBES = 9      # set-up-only processes per run, besides the passes' own set-up
RUN_LIMIT_S = 170     # every child is killed once the run has taken this long

PER_LAYER = {
    "search.try_exclude.calls": "count", "search.try_exclude.self_s": "s",
    "search.run.self_s": "s", "search.exclude_ratio": "ratio",
    "cf.fold_word.calls": "count", "cf.fold_word.self_s": "s",
    "doubling.double_cf.calls": "count", "doubling.double_cf.self_s": "s",
    "doubling.double_cf.distinct_ratio": "ratio", "doubling.double_cf.period_ratio": "ratio",
    "doubling.step.calls": "count",
    "doubling.halve_cf.calls": "count", "doubling.halve_cf.self_s": "s",
    "doubling.halve_plus1_cf.calls": "count", "doubling.halve_plus1_cf.self_s": "s",
    "doubling.double_stream.self_s": "s",
    "bounds.classify_b2.calls": "count", "bounds.classify_b2.self_s": "s",
    "bounds.verify_b2_exhaustive.self_s": "s", "bounds.falsify_b_bound.self_s": "s",
    "cf.CF.calls": "count",
    "cf.least_rotation.calls": "count", "cf.least_rotation.self_s": "s",
    "surd.expand_surd.calls": "count", "surd.expand_surd.self_s": "s",
    "surd.expand_surd.digits": "count",
    "surd.linear_fractional.calls": "count", "surd.linear_fractional.self_s": "s",
    "equiv.class_key.calls": "count", "equiv.class_key.self_s": "s",
    "equiv.class_contains_self_similar.calls": "count",
    "equiv.class_contains_self_similar.self_s": "s",
    "equiv.scan_self_similar.self_s": "s", "equiv.hit_ratio": "ratio",
    "trace_overhead": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    """Starts the child processes of one run and stops them all by its deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, mode: str, *extra: str) -> dict:
        """Run child.py in a fresh interpreter; its set-up time is measured from here."""
        cmd = [sys.executable, str(CHILD), mode, self.workload, str(self.seed), *extra]
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{self.workload} {mode}: over the {RUN_LIMIT_S} s run limit") from None
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{self.workload} {mode}: child exited with {proc.returncode}")
        rec = json.loads(lines[-1])
        rec["setup_wall_s"] = rec["ready"] - started
        rec["setup_s"] = rec["setup_wall_s"] * REF_BURST_S / rec["burst_s"]
        return rec


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced fresh-process passes; returns the result object of the run."""
    runner = Runner(workload, seed)
    runner.spawn("setup")  # compiles the bytecode caches, which an installed CLI already has
    setups = [runner.spawn("setup") for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        passes.append(runner.spawn("pass"))
        now = time.monotonic()
        if len(passes) >= MIN_PASSES and now + (now - begun) > start + seconds:
            break
    setups += passes
    solve_s = statistics.median(p["solve_s"] for p in passes)
    items = max(p["items"] for p in passes)
    attempted = sum(p["checked"] for p in passes)
    failures = [f for p in passes for f in p["failed"]]
    metrics = {
        "solve_s": _metric(solve_s, "s"),
        "items_per_s": _metric(items / solve_s, "1/s"),
        "setup_s": _metric(statistics.median(p["setup_s"] for p in setups), "s"),
        "peak_rss_mib": _metric(statistics.median(p["rss_kib"] for p in passes) / 1024, "MiB"),
    }
    wall = {"solve_s": statistics.median(p["work_s"] for p in passes),
            "setup_s": statistics.median(p["setup_wall_s"] for p in setups)}
    notes = {
        "solve_s": f"median of {len(passes)} passes; {wall['solve_s']:.4f} wall s",
        "items_per_s": f"{items} {ITEMS[workload]} per pass",
        "setup_s": f"median of {len(setups)} fresh processes; {wall['setup_s']:.4f} wall s",
        "peak_rss_mib": f"median of {len(passes)} passes",
    }
    print(f"{workload} (seed {seed}): {len(passes)} pass(es), each in a fresh process")
    for name, m in metrics.items():
        print(f"  {name:<13} {m['value']:<14.6g} {m['unit']:<4} {notes[name]}")
    print(f"  {'fail_ratio':<13} {len(failures) / attempted:<14.6g} {'':<4} "
          f"{len(failures)} of {attempted} pinned results did not match")
    return _result(failures, attempted, metrics)


def trace(workload: str, seed: int) -> dict:
    """One traced pass, one plain pass, and the jobs check where the workload has one."""
    runner = Runner(workload, seed)
    runner.spawn("setup")
    traced = runner.spawn("trace", str(SPAN_DIR / f"{workload}.spans"))
    plain = runner.spawn("pass")
    attempted = traced["checked"] + plain["checked"]
    failures = traced["failed"] + plain["failed"]
    for key, value in runner.spawn("jobs")["fingerprints"].items():
        same = plain["fingerprints"].get(key) == value
        print(f"{workload}: {key} at jobs=2 {'matches' if same else 'DIFFERS FROM'} jobs=1")
        attempted += 1
        if not same:
            failures.append(f"{key}: jobs=2 differs from jobs=1")
    layers = dict(traced["layers"],
                  trace_overhead=traced["solve_s"] / plain["solve_s"] - 1)
    metrics = {name: _metric(layers[name], unit) for name, unit in PER_LAYER.items()}
    print(f"{workload} (seed {seed}): traced pass {traced['solve_s']:.4f} s "
          f"({traced['work_s']:.4f} wall s), plain pass {plain['solve_s']:.4f} s "
          f"({plain['work_s']:.4f} wall s)")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:<14.6g} {m['unit']}")
    return _result(failures, attempted, metrics)


def _result(failures: list[str], attempted: int, metrics: dict) -> dict:
    for f in failures[:20]:
        print(f"  MISMATCH {f}")
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cf2" / "__init__.py").is_file():
        print(f"error: {SRC / 'cf2'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = {name: trace(name, args.seed) if args.trace
                   else measure(name, args.seed, args.seconds) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{w}.{m}": v for w, r in results.items()
                              for m, v in r["metrics"].items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
