import json
import random
import re
import signal
import subprocess
import sys
import time

import pytest

import cf2.surd

from conftest import child_env, random_periodic_cf, random_surd
from cf2.cf import parse_cf
from cf2.cli import main
from cf2.search import run
from cf2.surd import expand_surd, parse_surd


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = run_cli(capsys, "expand", "(3 + sqrt(17))/2")
    assert code == 0
    assert out.strip() == "[(3; 1, 1)]"


def test_double_periodic(capsys):
    code, out, _ = run_cli(capsys, "double", "[0; 2, (1, 1, 3)]")
    assert code == 0
    assert out.strip() == "[0; (1, 3, 1)]"


def test_double_finite_uses_rational_path(capsys):
    code, out, _ = run_cli(capsys, "double", "[1; 2, 2, 2]")
    assert code == 0
    assert parse_cf(out.strip()).value() == 2 * parse_cf("[1; 2, 2, 2]").value()


def test_halve_variants(capsys):
    _, out, _ = run_cli(capsys, "halve", "[(3; 1, 1)]")
    assert out.strip() == "[(1; 1, 3)]"
    _, out, _ = run_cli(capsys, "halve1", "[(3; 1, 1)]")
    assert out.strip() == "[2; (3, 1, 1)]"


def test_trio(capsys):
    code, out, _ = run_cli(capsys, "trio", "[(3; 1, 1)]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "double: [7; (8)]"
    assert lines[1].split() == ["half:", "[(1;", "1,", "3)]"]
    assert lines[2].startswith("half+1: [2; (3, 1, 1)]")


def test_search_json(capsys):
    code, out, _ = run_cli(capsys, "search", "--C", "3", "--json", "--jobs", "1")
    assert code == 0
    report = json.loads(out)
    assert report["C"] == 3 and report["terminated"] and report["K"] == 4
    assert {"n", "frontier", "excluded"} <= set(report["depths"][0])
    assert "seconds" in report


def test_search_witness_dump(capsys):
    code, out, _ = run_cli(capsys, "search", "--C", "1", "--witnesses", "--jobs", "1")
    assert code == 0
    dump = [l for l in out.splitlines() if l.startswith("w=")]
    assert dump and all(" k=" in l and " pos=" in l and " bound=" in l for l in dump)


def test_search_witnesses_json_is_one_object(capsys):
    code, out, _ = run_cli(capsys, "search", "--C", "2", "--witnesses", "--json", "--jobs", "1")
    assert code == 0
    got = json.loads(out)  # the whole of stdout: no dump lines around the object
    report = run(2, collect_witnesses=True)
    assert got.pop("seconds") >= 0
    assert got == {
        "C": report.C, "terminated": report.terminated, "K": report.K,
        "depths": [{"n": d.n, "frontier": d.frontier, "excluded": d.excluded}
                   for d in report.depths],
        "witnesses": [{"prefix": list(w.prefix), "k": w.k, "position": w.position,
                       "bound": w.bound} for w in report.witnesses],
    }
    assert got["witnesses"]


def test_search_depth_cap_exit_code(capsys):
    code, out, _ = run_cli(capsys, "search", "--C", "3", "--max-depth", "2",
                           "--jobs", "1", "--json")
    assert code == 1
    assert not json.loads(out)["terminated"]


def test_closed_stdout_exits_1_without_traceback():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # dump is far larger than a pipe buffer, so the writer is still writing
    with subprocess.Popen(
            [sys.executable, "-m", "cf2.cli", "search", "--C", "8", "--witnesses",
             "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        try:
            assert proc.stdout.readline().startswith(b"w=")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert code == 1
    assert err == b""


def test_interrupt_exits_130_with_one_line():
    # Ctrl-C during a long search, sent once the child is past its imports (about 0.3 s)
    with subprocess.Popen(
            [sys.executable, "-m", "cf2.cli", "search", "--C", "13", "--jobs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        try:
            time.sleep(2)
            assert proc.poll() is None
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
    assert proc.returncode == 130
    assert out == b""
    assert err == b"interrupted\n"


def test_chain(capsys):
    code, out, _ = run_cli(capsys, "chain", "--m", "3", "--K", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("beta = (")
    assert len([l for l in lines if l.startswith("2^")]) == 4


def test_scan_csv(capsys):
    code, out, _ = run_cli(capsys, "scan", "--d-max", "40", "--q-max", "20", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "D,Q,P,period_len,period_max,class_key"
    assert any(line.startswith("17,") and ",1 1 3" in line for line in lines[1:])


def test_verify_b2_cli(capsys):
    code, out, _ = run_cli(capsys, "verify-b2", "--period-max", "5", "--preperiod-max", "2")
    assert code == 0
    assert "characterization holds" in out


def test_falsify_cli(capsys):
    code, out, _ = run_cli(capsys, "falsify", "--C", "3", "--period-max", "5")
    assert code == 0
    assert "no counterexample" in out


def test_falsify_empty_ranges_exit_2(capsys):
    for argv, flag in ((("--period-max", "0"), "--period-max"),
                       (("--period-max", "4", "--preperiod-max", "-1"), "--preperiod-max")):
        with pytest.raises(SystemExit) as exc:
            main(["falsify", "--C", "3", *argv])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert f"argument {flag}: must be at least" in err, argv


def test_witness_cli(capsys):
    code, out, _ = run_cli(capsys, "witness", "(3 + sqrt(17))/2")
    assert code == 0
    assert "q = 16" in out and "< 1/15" in out
    # the digit 20 of [(20; 1)] that closes the cycle at n = 2 is a witness
    code, out, _ = run_cli(capsys, "witness", "(10 + sqrt(120))/1", "--k-cap", "0")
    assert code == 0
    assert out.startswith("q = 1  (k=0, digit index n=2)\n")


def test_witness_threshold_domain_exit_2(capsys):
    for threshold in ("0", "-1/15", "1/0", "zero"):
        code, out, err = run_cli(capsys, "witness", "(3 + sqrt(17))/2",
                                 f"--threshold={threshold}")
        assert (code, out) == (2, ""), threshold
        assert re.fullmatch(r"error: .*threshold.*\n", err), (threshold, err)


def test_bad_literals_exit_2(capsys):
    for argv in (("expand", "(3 + sqrt(16))/2"), ("double", "[1; 2, oops]"),
                 ("double", "[(-2; 1)]"),  # grammatical but invalid digits
                 ("trio", "[(3; 1, 1"), ("witness", "(3 + sqrt(17)/2")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert re.fullmatch(r"error: .+ \(at position \d+\)\n", err), (argv, err)


def test_expand_over_period_budget_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(cf2.surd, "_PERIOD_BUDGET", 1000)
    code, out, err = run_cli(capsys, "expand", "(0 + sqrt(1000000000000000000000000000057))/1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "1000 digits" in err and "--digits" in err
    code, out, _ = run_cli(capsys, "expand", "(0 + sqrt(1000000000000000000000000000057))/1",
                           "--digits", "3")
    assert (code, out) == (0, "1000000000000000; 35087719298245, 1, ...\n")


def test_unknown_command_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_values_exit_2(capsys):
    code, _, err = run_cli(capsys, "chain", "--m", "4", "--K", "1")
    assert code == 2 and "odd" in err
    code, _, err = run_cli(capsys, "witness", "(3 + sqrt(17))/2", "--threshold", "zero")
    assert code == 2 and "threshold" in err


def test_domain_errors_exit_2(capsys):
    for argv in (("halve", "[-1; (2)]"), ("halve1", "[-1; (2)]"), ("trio", "[-1; (2)]"),
                 ("trio", "[1; 2]"),
                 ("scan", "--d-min", "50", "--d-max", "40", "--q-max", "5")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_flag_below_range_exit_2(capsys):
    for argv, flag in ((("search", "--C", "0"), "--C"),
                       (("verify-b2", "--period-max", "0"), "--period-max"),
                       (("verify-b2", "--preperiod-max", "-1"), "--preperiod-max"),
                       (("search", "--C", "3", "--max-depth", "0"), "--max-depth"),
                       (("search", "--C", "3", "--max-depth", "1"), "--max-depth"),
                       (("witness", "(3 + sqrt(17))/2", "--k-cap", "-1"), "--k-cap"),
                       (("chain", "--m", "3", "--K", "-1"), "--K"),
                       (("scan", "--d-max", "40", "--q-max", "0"), "--q-max"),
                       (("scan", "--d-max", "40", "--q-max", "-5"), "--q-max"),
                       (("scan", "--d-max", "1", "--q-max", "5"), "--d-max"),
                       (("trio", "[(3; 1, 1)]", "--windows", "0"), "--windows"),
                       (("trio", "[(3; 1, 1)]", "--windows", "-1"), "--windows"),
                       (("search", "--C", "2", "--jobs", "0"), "--jobs"),
                       (("search", "--C", "2", "--jobs", "-3"), "--jobs"),
                       (("scan", "--d-max", "40", "--q-max", "5", "--jobs", "0"), "--jobs"),
                       (("scan", "--d-max", "40", "--q-max", "5", "--d-min", "-5"), "--d-min"),
                       (("scan", "--d-max", "40", "--q-max", "5", "--d-min", "1"), "--d-min")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, ""), argv
        assert f"argument {flag}: must be at least" in err, (argv, err)


def test_search_has_no_k_cap(capsys):
    # the search's k loop ends by itself; only `witness` keeps a --k-cap
    with pytest.raises(SystemExit) as exc:
        main(["search", "--C", "3", "--k-cap", "5"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: ") and "unrecognized arguments: --k-cap 5" in err, err


def test_digits_below_one_exit_2(capsys):
    for argv in (("double", "[0; (1)]"), ("halve", "[(3; 1, 1)]"),
                 ("expand", "(3 + sqrt(17))/2")):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, *argv, "--digits", "0")
        assert exc.value.code == 2
        assert "--digits" in capsys.readouterr().err


def test_print_parse_round_trip_random():
    rng = random.Random(99)
    for _ in range(500):
        cf = random_periodic_cf(rng)
        assert parse_cf(str(cf)) == cf
    for _ in range(500):
        s = random_surd(rng, d_max=10**5)
        assert parse_surd(str(s)) == s


def test_expand_digit_preview(capsys):
    code, out, _ = run_cli(capsys, "expand", "(3 + sqrt(17))/2", "--digits", "5")
    assert code == 0
    assert out.strip() == "3; 1, 1, 3, 1, ..."
    rng = random.Random(7)
    for _ in range(100):
        s = random_surd(rng, d_max=10**4)
        a0, *body = expand_surd(s).digit_prefix(12)
        code, out, _ = run_cli(capsys, "expand", str(s), "--digits", "12")
        assert code == 0
        assert out == f"{a0}; {', '.join(map(str, body))}, ...\n", s
    for argv, preview in ((("expand", "(0 + sqrt(2))/1", "--digits", "1"), "1; ..."),
                          (("double", "[3]", "--digits", "3"), "6")):
        code, out, _ = run_cli(capsys, *argv)
        assert (code, out) == (0, preview + "\n"), argv


def test_expand_digits_streams_without_the_period():
    # the period of sqrt(10^30 + 57) has about 10^15 digits
    done = subprocess.run(
        [sys.executable, "-m", "cf2.cli", "expand",
         "(0 + sqrt(1000000000000000000000000000057))/1", "--digits", "5"],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1000000000000000; 35087719298245, 1, 1, 1, ...\n"
