"""One sha256 per result set of cf2, so a `diff` of two checkouts' output shows any moved answer.

    python3 tools/result_digests.py > digests.txt

It prints one `name sha256` line per set, in a fixed order:
- the search reports with witnesses, `run(C, max_depth, collect_witnesses=True)`,
  at `jobs` 1, 2 and None: K, `terminated`, the depth rows and the
  witnesses, not `seconds`;
- the hit lists of `scan_self_similar(d_max, q_max, d_min)` at `jobs` 1, 2
  and None;
- `str()` of `expand_surd`, `halve_cf` and `halve_plus1_cf` over the oracle
  surds of the benchmark's seeds, drawn by `perfbench/workloads.py`'s
  `random_surd`;
- `verify_b2_exhaustive(12, 6)` and three `falsify_b_bound` runs.

cf2 is imported from this checkout's src/.  Run it in two checkouts and
diff the outputs; a line that differs names a set whose answers moved.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cf2  # noqa: E402
import workloads  # noqa: E402

SEARCHES = ((3, None), (5, 6), (7, None), (9, None), (10, 5), (12, 3), (12, 5))
SCANS = ((10**4, 200, 2), (20000, 50, 5000), (600, 20, 100), (4000, 40, 1000),
         (60000, 300, 20000), (50000, 60, 40000), (8000, 500, 7000),
         (10**6 + 200, 200, 10**6), (17, 5, 2), (440, 30, 400))  # (d_max, q_max, d_min)
JOBS = (1, 2, None)
ORACLE_SEEDS = (9011, 1, 2, 3, 4)
FALSIFIERS = ((2, 8), (3, 8), (4, 8, 1))


def search_lines(C: int, max_depth: int | None, jobs: int | None) -> list[str]:
    report = cf2.run(C, max_depth, jobs=jobs, collect_witnesses=True)
    return [json.dumps(workloads.search_result(report), sort_keys=True),
            *map(str, report.witnesses)]


def scan_lines(d_max: int, q_max: int, d_min: int, jobs: int | None) -> list[str]:
    return workloads.scan_lines(cf2.scan_self_similar(d_max, q_max, d_min=d_min, jobs=jobs))


def oracle_lines(seed: int) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for _ in range(workloads.ORACLE_SURDS):
        cf = cf2.expand_surd(workloads.random_surd(rng))
        lines += [str(cf), str(cf2.halve_cf(cf)), str(cf2.halve_plus1_cf(cf))]
    return lines


def verify_b2_lines() -> list[str]:
    return [str(cf) for cf in cf2.verify_b2_exhaustive(12, 6)]


def falsify_lines(*args: int) -> list[str]:
    result = cf2.falsify_b_bound(*args)
    return [str(cf) for cf in result.counterexamples] + [
        json.dumps(hit) for hit in workloads.whitelist_result(result)]


def result_sets():
    """(name, lines, args) for every set in print order; `lines(*args)` lists the set."""
    for C, depth in SEARCHES:
        for jobs in JOBS:
            yield f"run({C},{depth},jobs={jobs})", search_lines, (C, depth, jobs)
    for d_max, q_max, d_min in SCANS:
        for jobs in JOBS:
            yield (f"scan_self_similar({d_max},{q_max},d_min={d_min},jobs={jobs})", scan_lines,
                   (d_max, q_max, d_min, jobs))
    for seed in ORACLE_SEEDS:
        yield f"oracle(seed={seed})", oracle_lines, (seed,)
    yield "verify_b2_exhaustive(12,6)", verify_b2_lines, ()
    for args in FALSIFIERS:
        yield f"falsify_b_bound({','.join(map(str, args))})", falsify_lines, args


def main() -> int:
    for name, lines, args in result_sets():
        print(name, workloads.digest(lines(*args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
