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
- `verify_b2_exhaustive(12, 6)` and three `falsify_b_bound` runs;
- the answers of `cf2 witness`, `cf2 chain` and `cf2 trio`: `witness_q` over
  the oracle surds of seed 9011 at two thresholds (q, value, k and n of each
  witness), `build_chain(family_member(m), 12)` for odd m from 3 to 21 (beta
  and the class keys), and `trio` at `n_max = 40` on a few literals (the
  three expansions and the window cases).

cf2 is imported from this checkout's src/.  Run it in two checkouts and
diff the outputs; a line that differs names a set whose answers moved.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cf2  # noqa: E402
import workloads  # noqa: E402
from cf2.doubling import trio  # noqa: E402
from cf2.equiv import build_chain, family_member  # noqa: E402
from cf2.surd import surd_of_periodic_cf  # noqa: E402

SEARCHES = ((3, None), (5, 6), (7, None), (9, None), (10, 5), (12, 3), (12, 5))
SCANS = ((10**4, 200, 2), (20000, 50, 5000), (600, 20, 100), (4000, 40, 1000),
         (60000, 300, 20000), (50000, 60, 40000), (8000, 500, 7000),
         (10**6 + 200, 200, 10**6), (17, 5, 2), (440, 30, 400))  # (d_max, q_max, d_min)
JOBS = (1, 2, None)
ORACLE_SEEDS = (9011, 1, 2, 3, 4)
FALSIFIERS = ((2, 8), (3, 8), (4, 8, 1))
WITNESS_THRESHOLDS = (Fraction(1, 15), Fraction(1, 1000))  # over the surds of ORACLE_SEEDS[0]
CHAIN_MS = range(3, 22, 2)
TRIO_CFS = ("[(1)]", "[(2)]", "[0; (1, 2)]", "[(3; 1, 1)]", "[3; 1, (2, 5)]", "[1; 2, (1, 1, 4)]")


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


def witness_lines(seed: int, threshold: Fraction) -> list[str]:
    rng = random.Random(seed)
    lines = []
    for _ in range(workloads.ORACLE_SURDS):
        w = cf2.witness_q(workloads.random_surd(rng), threshold)
        lines.append(f"{w.q} {w.value} {w.k} {w.n}")
    return lines


def chain_lines(K: int) -> list[str]:
    lines = []
    for m in CHAIN_MS:
        result = build_chain(family_member(m), K)
        lines += [str(result.beta), *map(str, result.checks)]
    return lines


def trio_lines(n_max: int) -> list[str]:
    lines = []
    for literal in TRIO_CFS:
        result = trio(surd_of_periodic_cf(cf2.parse_cf(literal)), n_max)
        lines += [str(result.double), str(result.half), str(result.half_plus1)]
        lines += [f"n={n}: " + " ".join(case.name for case in result.cases[n])
                  for n in sorted(result.cases)]
    return lines


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
    for threshold in WITNESS_THRESHOLDS:
        yield (f"witness_q(seed={ORACLE_SEEDS[0]},threshold={threshold})", witness_lines,
               (ORACLE_SEEDS[0], threshold))
    yield f"build_chain(family_member({CHAIN_MS.start}..{CHAIN_MS.stop - 1}),12)", chain_lines, (12,)
    yield "trio(n_max=40)", trio_lines, (40,)


def main() -> int:
    for name, lines, args in result_sets():
        print(name, workloads.digest(lines(*args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
