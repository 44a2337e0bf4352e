"""One fresh-process pass of a workload; run.py starts it and reads its last stdout line.

    python3 perfbench/child.py MODE WORKLOAD SEED [SPAN_FILE]

MODE is one of
  setup  import cf2 and generate the inputs, then stop;
  pass   also time the call into cf2 and the check against the pins;
  trace  the same with the tracer installed, then write the spans to SPAN_FILE;
  jobs   compute the workload's jobs=2 fingerprints, if it has any (untimed).

The printed JSON holds `ready`, the time.monotonic() reading once the inputs
exist; run.py subtracts the reading it took before starting this process.
CLOCK_MONOTONIC is system-wide on Linux, so the two readings compare.
`burst_s` is the machine speed measured right after (see speed.py), and a
pass reports `work_s` (wall seconds without the bursts) and `solve_s` (the
same time in reference seconds).
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import cf2
from speed import SpeedSampler, burst_seconds
from workloads import WORKLOADS

SRC = Path(__file__).resolve().parents[1] / "src"


def solve(workload, inputs) -> dict:
    """The timed region: the call into cf2 and the check of its results."""
    start = time.perf_counter()
    try:
        outcome = workload.solve(inputs)
        rec = {"items": outcome.items, "checked": outcome.checked, "failed": outcome.failed,
               "fingerprints": outcome.fingerprints}
    except Exception as exc:  # a pass that raises fails every check it would have made
        traceback.print_exc()
        n = workload.checks(inputs)
        rec = {"items": 0, "checked": n, "failed": [f"pass raised {exc!r}"] * n,
               "fingerprints": {}}
    rec["start"], rec["end"] = start, time.perf_counter()
    return rec


def main():
    mode, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    if not Path(cf2.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"cf2 was imported from {cf2.__file__}, not from {SRC}")
    workload = WORKLOADS[name]
    inputs = workload.setup(seed)
    rec = {"ready": time.monotonic(), "burst_s": burst_seconds()}
    if mode == "pass":
        with SpeedSampler() as sampler:
            rec.update(solve(workload, inputs))
        rec["work_s"], rec["solve_s"] = sampler.rescale(rec["start"], rec["end"])
        rec["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    elif mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        with SpeedSampler(on_burst=tracer.add_gap) as sampler:
            rec.update(solve(workload, inputs))
        tracer.uninstall()
        rec["work_s"], rec["solve_s"] = sampler.rescale(rec["start"], rec["end"])
        rec["layers"] = tracer.metrics(scale=rec["solve_s"] / rec["work_s"])
        tracer.write_spans(Path(sys.argv[4]))
    elif mode == "jobs":
        rec["fingerprints"] = workload.jobs_variant() if workload.jobs_variant else {}
    elif mode != "setup":
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(rec))


if __name__ == "__main__":
    main()
