"""The four benchmark workloads: inputs, the timed call into cf2, and the pin checks.

Each workload is a `Workload` with
  setup(seed)    -> inputs (input generation, counted in set-up time),
  solve(inputs)  -> Outcome (the timed region: calls into cf2, then checks),
  checks(inputs) -> number of pinned results one pass checks,
  jobs_variant() -> fingerprints of the same results at jobs=2, or None.

Only `oracle` uses the seed; the other three are fixed enumerations whose
results are pinned in pins.json (recorded by record_pins.py).

The workloads call cf2 through the package namespace (`cf2.run`, not a
name imported here) so that a traced pass sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from math import isqrt
from pathlib import Path
from typing import Any, Callable

import cf2

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

SEARCH_C = range(1, 11)
SEARCH_JOBS_C = 9
B2_ARGS = (10, 5)        # verify_b2_exhaustive(period_max, preperiod_max)
FALSIFY_ARGS = (3, 8)    # falsify_b_bound(C, period_len_max)
SCAN_ARGS = (10_000, 200)
ORACLE_SURDS = 3000
ORACLE_DIGITS = 40
ORACLE_D_MAX = 10**6
ORACLE_CANONICAL_D_MAX = 10**8


@dataclass
class Outcome:
    items: int
    checked: int
    failed: list[str] = field(default_factory=list)
    fingerprints: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    solve: Callable[[Any], Outcome]
    checks: Callable[[Any], int]
    jobs_variant: Callable[[], dict[str, str]] | None = None


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def _check(outcome: Outcome, ok: bool, name: str, *args):
    """Count one pinned result; the name is formatted only on a mismatch."""
    outcome.checked += 1
    if not ok:
        outcome.failed.append(name % args if args else name)


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


# -- search --------------------------------------------------------------


def search_result(report) -> dict:
    return {"K": report.K, "terminated": report.terminated,
            "depths": [[d.n, d.frontier, d.excluded] for d in report.depths]}


def _search_fingerprint(report) -> str:
    return digest([json.dumps(search_result(report), sort_keys=True)])


def _search_setup(seed: int):
    return load_pins()["search"]


def _search_solve(pins) -> Outcome:
    reports = {C: cf2.run(C) for C in SEARCH_C}
    out = Outcome(items=pins["prefixes"], checked=0)
    for C, report in reports.items():
        pin = pins["by_C"][str(C)]
        got = search_result(report)
        _check(out, got["K"] == pin["K"], "search C=%d: K", C)
        _check(out, (got["terminated"], got["depths"]) == (pin["terminated"], pin["depths"]),
               "search C=%d: depth stats", C)
    out.fingerprints[f"run({SEARCH_JOBS_C})"] = _search_fingerprint(reports[SEARCH_JOBS_C])
    return out


def _search_jobs() -> dict[str, str]:
    return {f"run({SEARCH_JOBS_C})": _search_fingerprint(cf2.run(SEARCH_JOBS_C, jobs=2))}


# -- exhaustive ----------------------------------------------------------


def _word_count(alphabet: int, max_len: int) -> int:
    return sum(alphabet ** n for n in range(1, max_len + 1))


def exhaustive_items() -> int:
    """(pre, word) inputs enumerated by verify_b2_exhaustive and falsify_b_bound."""
    period_max, pre_max = B2_ARGS
    b2 = _word_count(2, period_max) * (1 + _word_count(2, pre_max))
    C, period_len_max = FALSIFY_ARGS
    words = sum(C ** n - (C - 1) ** n for n in range(1, period_len_max + 1))  # max digit == C
    return b2 + words * (1 + _word_count(C, 2))


def whitelist_result(result) -> list:
    return [[str(h.cf), h.k_exit, h.b_exit] for h in result.whitelisted]


def _exhaustive_setup(seed: int):
    return load_pins()["exhaustive"]


def _exhaustive_solve(pins) -> Outcome:
    violations = cf2.verify_b2_exhaustive(*B2_ARGS)
    result = cf2.falsify_b_bound(*FALSIFY_ARGS)
    out = Outcome(items=exhaustive_items(), checked=0)
    _check(out, [str(cf) for cf in violations] == pins["violations"], "verify_b2: violations")
    _check(out, [str(cf) for cf in result.counterexamples] == pins["counterexamples"],
           "falsify: counterexamples")
    got = whitelist_result(result)
    _check(out, len(got) == len(pins["whitelisted"]), "falsify: whitelist size")
    for i, pin in enumerate(pins["whitelisted"]):
        _check(out, i < len(got) and got[i] == pin and got[i][2] == 8,
               "falsify: whitelisted hit %d (expected %s, exit at B = 8)", i, pin)
    return out


def _exhaustive_checks(pins) -> int:
    return 3 + len(pins["whitelisted"])


# -- scan ----------------------------------------------------------------


def scan_lines(hits) -> list[str]:
    return [f"{h.D} {h.Q} {h.P} {h.period_len} {h.period_max} {','.join(map(str, h.key))}"
            for h in hits]


def nonsquare_count(d_max: int) -> int:
    return d_max - 1 - (isqrt(d_max) - 1)  # D in [2, d_max] minus squares 4..d_max


def _scan_setup(seed: int):
    return load_pins()["scan"]


def _scan_solve(pins) -> Outcome:
    hits = cf2.scan_self_similar(*SCAN_ARGS)
    out = Outcome(items=nonsquare_count(SCAN_ARGS[0]), checked=0)
    hit_digest = digest(scan_lines(hits))
    _check(out, len(hits) == pins["classes"], "scan: class count")
    _check(out, hit_digest == pins["digest"], "scan: hit list digest")
    key_2089 = tuple(pins["key_2089"])
    _check(out, any(h.key == key_2089 and h.period_max == 14 for h in hits),
           "scan: D=2089 class with period maximum 14")
    _check(out, not any(h.period_len <= 2 for h in hits), "scan: a class with period <= 2")
    len3 = [h.key for h in hits if h.period_len == 3]
    _check(out, bool(len3) and all(k == (1, 1, 3) for k in len3),
           "scan: period-3 classes other than (1,1,3)")
    out.fingerprints["scan_self_similar(10000, 200)"] = hit_digest
    return out


def _scan_jobs() -> dict[str, str]:
    hits = cf2.scan_self_similar(*SCAN_ARGS, jobs=2)
    return {"scan_self_similar(10000, 200)": digest(scan_lines(hits))}


# -- oracle --------------------------------------------------------------


def random_surd(rng: random.Random):
    """A positive surd (P + sqrt(D))/Q with D <= 10^6 nonsquare, |P| <= 500, 0 < |Q| <= 50.

    Canonicalization can multiply D by up to 4*Q^2; a surd whose canonical D
    exceeds 10^8 is drawn again.  Without that cap a few surds with periods
    of up to 70,000 digits carry most of a pass's time and set its peak
    memory, and the result depends more on the seed than on the code.
    """
    while True:
        d = rng.randint(2, ORACLE_D_MAX)
        if isqrt(d) ** 2 == d:
            continue
        p = rng.randint(-500, 500)
        q = rng.randint(-50, 50)
        if q == 0:
            continue
        s = cf2.QuadraticSurd(p, d, q)
        if s.D > ORACLE_CANONICAL_D_MAX:
            continue
        if s.cmp(0) <= 0:
            s = cf2.QuadraticSurd(s.P, s.D, -s.Q)
        return s


def _oracle_setup(seed: int):
    rng = random.Random(seed)
    return [random_surd(rng) for _ in range(ORACLE_SURDS)]


def _oracle_solve(surds) -> Outcome:
    out = Outcome(items=len(surds), checked=0)
    for i, s in enumerate(surds):
        cf = cf2.expand_surd(s)
        got = list(itertools.islice(cf2.double_stream(cf.digits()), ORACLE_DIGITS))
        _check(out, got == cf2.expand_surd(cf2.double_surd(s)).digit_prefix(ORACLE_DIGITS),
               "oracle surd %d %s: 2x stream", i, s)
        _check(out, cf2.halve_cf(cf) == cf2.expand_surd(cf2.halve_surd(s)),
               "oracle surd %d %s: x/2", i, s)
        _check(out, cf2.halve_plus1_cf(cf) == cf2.expand_surd(cf2.halve_plus1_surd(s)),
               "oracle surd %d %s: (x+1)/2", i, s)
    return out


WORKLOADS = {w.name: w for w in (
    Workload("search", _search_setup, _search_solve,
             lambda pins: 2 * len(SEARCH_C), _search_jobs),
    Workload("exhaustive", _exhaustive_setup, _exhaustive_solve,
             _exhaustive_checks),
    Workload("scan", _scan_setup, _scan_solve, lambda pins: 5, _scan_jobs),
    Workload("oracle", _oracle_setup, _oracle_solve, lambda surds: 3 * len(surds)),
)}
