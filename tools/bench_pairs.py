"""Alternating parent/change pairs of the benchmark, with medians, quartiles and wins.

    python3 tools/bench_pairs.py PARENT CHANGE --workload oracle --seeds 33301 33310
    python3 tools/bench_pairs.py PARENT CHANGE --workload all --seeds 33311 33320 --seconds 12

PARENT and CHANGE are two checkouts of the repository.  For each workload and
each seed of the inclusive range, it runs `perfbench/run.py --workload W
--seed N --trace 0` once in each checkout, the parent first on odd seeds and
the change first on even ones, so a drift of the machine's speed favours
neither side.  It prints every run, then for each end-to-end metric of
`BENCHMARK.json` the two medians, the parent's quartiles and the number of
pairs in which the change was better.

The two checkout paths must have the same length: `run.py` puts the
checkout's absolute `src` path on `PYTHONPATH`, and the length of that
string alone moves `peak_rss_mib` by about 0.3 MiB.  The exit code is 0
when every run matched its pins, 1 when one did not and 2 when the pairs
could not be run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float | None) -> dict:
    """One `run.py --trace 0` in `checkout`; returns its result object."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: run.py exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    result = json.loads(lines[-1])
    if workload != "all":  # a single workload's metrics are not prefixed by its name
        result["metrics"] = {f"{workload}.{m}": v for m, v in result["metrics"].items()}
    return result


def summarize(runs: list[dict[str, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric: medians, the parent's quartiles and the change's wins.

    `runs` holds one {"parent": metrics, "change": metrics} per pair, metrics
    mapping "workload.metric" to {"value": ...}; `better` maps a metric name
    to "lower" or "higher".
    """
    lines = []
    for key in runs[0]["parent"]:
        direction = better.get(key.rsplit(".", 1)[1])
        if direction is None:
            continue
        parent = [pair["parent"][key]["value"] for pair in runs]
        change = [pair["change"][key]["value"] for pair in runs]
        sign = 1 if direction == "lower" else -1
        wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (parent[0],) * 3
        gain = sign * (p_med - c_med)
        verdict = ("a gain beyond" if gain > q3 - q1 else "a loss beyond" if -gain > q3 - q1
                   else "within")
        lines.append(f"{key:<26} parent {p_med:<10.5g} change {c_med:<10.5g} "
                     f"({(c_med / p_med - 1) * 100:+.1f} %, {direction} is better)  "
                     f"parent quartiles {q1:.5g}-{q3:.5g}  change better in {wins} of "
                     f"{len(runs)}; the medians differ by {verdict} the parent's IQR")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", required=True,
                        choices=("search", "exhaustive", "scan", "oracle", "all"))
    parser.add_argument("--seeds", nargs=2, type=int, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=float, help="passed on to run.py")
    args = parser.parse_args()
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, path in checkouts.items():
        if not (path / "perfbench" / "run.py").is_file():
            print(f"error: {side} {path} has no perfbench/run.py", file=sys.stderr)
            return 2
    if len(str(checkouts["parent"])) != len(str(checkouts["change"])):
        print(f"error: checkout paths of unequal length ({checkouts['parent']}, "
              f"{checkouts['change']}): the path length alone moves peak_rss_mib",
              file=sys.stderr)
        return 2
    first, last = args.seeds
    if last < first:
        print("error: --seeds FIRST LAST needs FIRST <= LAST", file=sys.stderr)
        return 2
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    correct = True
    for workload in args.workload:
        runs = []
        for seed in range(first, last + 1):
            order = SIDES if seed % 2 else SIDES[::-1]
            pair = {}
            for side in order:
                try:
                    result = run_once(checkouts[side], workload, seed, args.seconds)
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                correct = correct and result["correct"]
                pair[side] = result["metrics"]
                values = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
                pins = "" if result["correct"] else f" ({result['failed']} pins FAILED)"
                print(f"{workload} seed {seed} {side}: {values}{pins}", flush=True)
            runs.append(pair)
        print(f"-- {workload}, seeds {first}-{last}, {len(runs)} pairs")
        for line in summarize(runs, better):
            print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
