"""Record the reference results that the benchmark checks every pass against.

Run from the repository root at the commit whose results are the reference:

    PYTHONPATH=src python3 perfbench/record_pins.py

It writes perfbench/pins.json.  The oracle workload needs no pins: it
checks each result against exact surd arithmetic.
"""

import json
import re

import cf2
from workloads import (B2_ARGS, FALSIFY_ARGS, PINS_PATH, SCAN_ARGS, SEARCH_C, digest,
                       scan_lines, search_result, whitelist_result)


def main():
    by_C = {str(C): search_result(cf2.run(C)) for C in SEARCH_C}
    prefixes = sum(frontier for pin in by_C.values() for _, frontier, _ in pin["depths"])
    violations = cf2.verify_b2_exhaustive(*B2_ARGS)
    falsified = cf2.falsify_b_bound(*FALSIFY_ARGS)
    hits = cf2.scan_self_similar(*SCAN_ARGS)
    pins = {
        "search": {"prefixes": prefixes, "by_C": by_C},
        "exhaustive": {"violations": [str(cf) for cf in violations],
                       "counterexamples": [str(cf) for cf in falsified.counterexamples],
                       "whitelisted": whitelist_result(falsified)},
        "scan": {"classes": len(hits), "digest": digest(scan_lines(hits)),
                 "key_2089": list(cf2.class_key(cf2.QuadraticSurd(1, 2089, 6)))},
    }
    text = json.dumps(pins, indent=1)
    text = re.sub(r"\[\s+(\d+),\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2, \3]", text)  # one row per depth
    PINS_PATH.write_text(text + "\n")


if __name__ == "__main__":
    main()
