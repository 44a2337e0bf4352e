"""Command-line interface: one binary, one subcommand per operation."""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import sys
from fractions import Fraction
from typing import Iterator

from .bounds import falsify_b_bound, verify_b2_exhaustive
from .cf import CF, format_fraction, parse_cf
from .doubling import double_cf, halve_cf, halve_plus1_cf, trio
from .equiv import build_chain, family_member, scan_self_similar
from .search import SearchCapExceeded, run, witness_q
from .surd import expand_surd, parse_surd, surd_of_periodic_cf

USAGE_ERROR = 2
VERIFY_ERROR = 1
INTERRUPTED = 130  # 128 + SIGINT, the shell's code for a command stopped by Ctrl-C


def _at_least(lo: int):
    """An argparse type for integers >= lo, so a range error names its flag."""
    def parse(text: str) -> int:
        n = int(text)
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {n}")
        return n
    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _print_prefix(digits: Iterator[int], limit: int, more: bool):
    head, *body = map(str, itertools.islice(digits, limit))
    if more:
        body.append("...")
    print(f"{head}; {', '.join(body)}" if body else head)


def _print_cf(cf: CF, digit_limit: int | None):
    if digit_limit is None:
        print(cf)
    else:
        _print_prefix(cf.digits(), digit_limit,
                      not cf.is_finite or len(cf.pre) + 1 > digit_limit)


def _cmd_expand(args) -> int:
    s = parse_surd(args.surd)
    if args.digits is None:
        print(expand_surd(s))
    else:  # streamed: the full period has about sqrt(D) digits
        _print_prefix(s.digits(), args.digits, True)
    return 0


def _unary_cf(args, fn) -> int:
    cf = parse_cf(args.cf)
    _print_cf(fn(cf), args.digits)
    return 0


def _cmd_trio(args) -> int:
    result = trio(surd_of_periodic_cf(parse_cf(args.cf)), n_max=args.windows)
    print(f"double: {result.double}")
    print(f"half:   {result.half}")
    print(f"half+1: {result.half_plus1}")
    if args.show_cases:
        for n in sorted(result.cases):
            a, b, c = result.cases[n]
            print(f"n={n}: {a.name} {b.name} {c.name}")
    return 0


def _cmd_search(args) -> int:
    report = run(args.C, args.max_depth, jobs=args.jobs, collect_witnesses=args.witnesses)
    if args.json:
        print(report.to_json(witnesses=args.witnesses))
    else:
        for w in report.witnesses:
            print(w)
        status = "terminated" if report.terminated else "stopped early"
        print(f"C={report.C}: {status}, K={report.K}, "
              f"max depth {report.max_depth_reached}, {report.seconds:.2f}s")
        for d in report.depths:
            print(f"  depth {d.n}: frontier {d.frontier}, excluded {d.excluded}")
    return 0 if report.terminated else VERIFY_ERROR


def _cmd_chain(args) -> int:
    result = build_chain(family_member(args.m), args.K)
    print(f"beta = {result.beta}")
    for k, key in enumerate(result.checks):
        print(f"2^{k} beta: class key {key}, period max {max(key)}")
    return 0


def _cmd_scan(args) -> int:
    hits = scan_self_similar(args.d_max, args.q_max, d_min=args.d_min, jobs=args.jobs)
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["D", "Q", "P", "period_len", "period_max", "class_key"])
        for h in hits:
            writer.writerow([h.D, h.Q, h.P, h.period_len, h.period_max,
                             " ".join(map(str, h.key))])
    else:
        for h in hits:
            print(f"({h.P} + sqrt({h.D}))/{h.Q}: period length {h.period_len}, "
                  f"max {h.period_max}, key {h.key}")
    return 0


def _cmd_verify_b2(args) -> int:
    bad = verify_b2_exhaustive(args.period_max, args.preperiod_max)
    if bad:
        for cf in bad:
            print(f"violation: {cf}")
        return VERIFY_ERROR
    print(f"characterization holds: digits {{1,2}}, period <= {args.period_max}, "
          f"preperiod <= {args.preperiod_max}")
    return 0


def _cmd_falsify(args) -> int:
    result = falsify_b_bound(args.C, args.period_max, args.preperiod_max)
    for hit in result.whitelisted:
        print(f"whitelisted: {hit.cf} leaves the class at k={hit.k_exit} with B={hit.b_exit}")
    if result.counterexamples:
        for cf in result.counterexamples:
            print(f"counterexample: {cf}")
        return VERIFY_ERROR
    print(f"no counterexample: C={args.C}, period <= {args.period_max}, "
          f"preperiod <= {args.preperiod_max}, whitelisted {len(result.whitelisted)}")
    return 0


def _cmd_witness(args) -> int:
    s = parse_surd(args.surd)
    try:
        threshold = Fraction(args.threshold)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad threshold: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        w = witness_q(s, threshold=threshold, k_cap=args.k_cap)
    except SearchCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR
    print(f"q = {w.q}  (k={w.k}, digit index n={w.n})")
    print(f"q*|q|_2*||q*alpha|| < {format_fraction(w.value)} < {format_fraction(threshold)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cf2", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="continued fraction of a quadratic surd")
    p.add_argument("surd", help="literal like '(3 + sqrt(17))/2'")
    p.add_argument("--digits", type=_at_least(1), default=None,
                   help="print only the first N digits")
    p.set_defaults(fn=_cmd_expand)

    for name, fn, blurb in (("double", double_cf, "2x"), ("halve", halve_cf, "x/2"),
                            ("halve1", halve_plus1_cf, "(x+1)/2")):
        p = sub.add_parser(name, help=f"continued fraction of {blurb}")
        p.add_argument("cf", help="literal like '[0; 2, (1, 1, 3)]'")
        p.add_argument("--digits", type=_at_least(1), default=None)
        p.set_defaults(fn=lambda args, _f=fn: _unary_cf(args, _f))

    p = sub.add_parser("trio", help="2x, x/2 and (x+1)/2 with window cases")
    p.add_argument("cf")
    p.add_argument("--windows", type=_at_least(1), default=40)
    p.add_argument("--show-cases", action="store_true")
    p.set_defaults(fn=_cmd_trio)

    p = sub.add_parser("search", help="prefix-exclusion search for a digit bound")
    p.add_argument("--C", type=_at_least(1), required=True)
    p.add_argument("--max-depth", type=_at_least(2), default=None)
    p.add_argument("--jobs", type=_at_least(1), default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--witnesses", action="store_true",
                   help="dump one line per exclusion (with --json, a list in the object)")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("chain", help="beta with 2^k beta all in one class, k <= K")
    p.add_argument("--m", type=int, required=True, help="odd integer >= 3")
    p.add_argument("--K", type=_at_least(0), required=True)
    p.set_defaults(fn=_cmd_chain)

    p = sub.add_parser("scan", help="self-similar classes with representatives in range")
    p.add_argument("--d-max", type=_at_least(2), required=True)
    p.add_argument("--d-min", type=_at_least(2), default=2)
    p.add_argument("--q-max", type=_at_least(1), required=True)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--jobs", type=_at_least(1), default=None)
    p.set_defaults(fn=_cmd_scan)

    p = sub.add_parser("verify-b2", help="exhaustive check of the B<=2 characterization")
    p.add_argument("--period-max", type=_at_least(1), default=12)
    p.add_argument("--preperiod-max", type=_at_least(0), default=6)
    p.set_defaults(fn=_cmd_verify_b2)

    p = sub.add_parser("falsify", help="bounded counterexample search for the B-bounds")
    p.add_argument("--C", type=int, required=True, choices=(2, 3, 4))
    p.add_argument("--period-max", type=_at_least(1), required=True)
    p.add_argument("--preperiod-max", type=_at_least(0), default=2)
    p.set_defaults(fn=_cmd_falsify)

    p = sub.add_parser("witness", help="q with q*|q|_2*||q*alpha|| below a threshold")
    p.add_argument("surd")
    p.add_argument("--threshold", default="1/15")
    p.add_argument("--k-cap", type=_at_least(0), default=64)
    p.set_defaults(fn=_cmd_witness)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at interpreter exit
        return code
    except BrokenPipeError:  # the reader of stdout went away, e.g. `| head -1`
        # Python flushes stdout again at exit; send that flush to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return VERIFY_ERROR
    except ValueError as exc:  # literal and domain errors, e.g. halving a negative value
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
