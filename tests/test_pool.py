import ast
import os
import random
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import cf2.equiv
import cf2.pool
import cf2.search
from conftest import child_env
from cf2.equiv import scan_self_similar
from cf2.pool import pmap, workers
from cf2.search import run


def test_workers_clamp():
    cores = os.cpu_count() or 1
    assert workers(None, 10**6) == cores
    assert workers(10**6, 10**6) == cores
    assert workers(10**6, 3) == min(3, cores)
    assert workers(1, 10**6) == 1
    assert workers(2, 0) == 1
    assert pmap(list, [-3], 1) == [[-3]]


def _no_fork():
    raise AssertionError("a worker process was started")


def _inline_pmap(mp) -> list[int]:
    """Patch the callers' `pmap` with an in-process map; returns the worker count of each call.

    The stand-in hands each item to a worker drawn at random, so the shares are
    any partition that pulling could make, each in listing order.  Under a
    patched `cpu_count` the walks must never fork real processes."""
    calls: list[int] = []

    def inline(fn, items, n):
        calls.append(n)
        rng = random.Random(len(calls))
        shares: list[list] = [[] for _ in range(n)]
        for item in items:
            shares[rng.randrange(n)].append(item)
        return [fn(iter(share)) for share in shares]

    for module in (cf2.search, cf2.equiv):
        mp.setattr(module, "pmap", inline)
    return calls


def _roots(C: int) -> int:
    """The depth-2 prefixes run(C) shares out: the children of the depth-2 row not excluded."""
    row = run(C, max_depth=2, jobs=1).depths[0]
    return row.frontier - row.excluded


def test_jobs_below_one_raise(monkeypatch):
    monkeypatch.setattr(os, "fork", _no_fork)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            workers(jobs, 10)
        with pytest.raises(ValueError, match="jobs"):
            run(3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            scan_self_similar(2000, 20, jobs=jobs)


@pytest.mark.parametrize("cores", [None, 64])
def test_huge_jobs_is_clamped_to_cores_and_tasks(monkeypatch, cores):
    # Never call these with a huge jobs value and real processes: pmap forks
    # one child per worker after the first.
    calls = _inline_pmap(monkeypatch)
    if cores is not None:
        monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: cores)
    limit = os.cpu_count() or 1
    roots = _roots(3)
    listed = len(cf2.equiv._walked_discriminants(range(2, 401)))
    calls.clear()
    assert run(3, jobs=100_000) == run(3, jobs=1)
    assert scan_self_similar(400, 30, jobs=100_000) == scan_self_similar(400, 30, jobs=1)
    assert calls == [min(limit, roots), 1, min(limit, listed), 1]


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.one_of(st.none(), st.integers(2, 6)), st.booleans(),
       st.integers(2, 300), st.integers(0, 400), st.integers(1, 40), st.sampled_from([2, 3, 8]))
def test_results_do_not_depend_on_the_worker_count(C, max_depth, collect, d_min, span, q_max,
                                                    cores):
    # the in-process map stands in for the processes, so the merge is what is tested
    with pytest.MonkeyPatch.context() as mp:
        calls = _inline_pmap(mp)
        mp.setattr(cf2.pool.os, "cpu_count", lambda: cores)
        searched = run(C, max_depth=max_depth, jobs=1, collect_witnesses=collect)
        scanned = scan_self_similar(d_min + span, q_max, d_min=d_min, jobs=1)
        assert calls == [1, 1]
        # one share per worker: the search shares out its depth-2 roots, of which
        # C = 1 has one, and the scan the candidate (d, m) its window lists
        roots = _roots(C)
        listed = len(cf2.equiv._walked_discriminants(range(d_min, d_min + span + 1)))
        for jobs in (2, 3, 8, None):
            calls.clear()
            assert run(C, max_depth=max_depth, jobs=jobs, collect_witnesses=collect) == searched
            assert scan_self_similar(d_min + span, q_max, d_min=d_min, jobs=jobs) == scanned
            n = min(cores if jobs is None else jobs, cores)
            assert calls == [max(1, min(n, roots)), max(1, min(n, listed))], jobs


def test_default_jobs_is_one_share_per_core_for_both_walks(monkeypatch):
    """jobs=None makes workers(None, n) shares in the search and in the scan alike,
    whatever C, max_depth or window: no rule of its own decides either count."""
    calls = _inline_pmap(monkeypatch)
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 3)
    listing = cf2.equiv._walked_discriminants(range(2, 2001))
    for C, max_depth in ((3, None), (12, 3), (9, 5)):
        roots = _roots(C)
        calls.clear()
        assert run(C, max_depth=max_depth) == run(C, max_depth=max_depth, jobs=1)
        assert calls == [workers(None, roots), 1] == [3, 1]
    calls.clear()
    assert scan_self_similar(2000, 20) == scan_self_similar(2000, 20, jobs=1)
    assert calls == [workers(None, len(listing)), 1] == [3, 1]


def test_no_fork_runs_serially(monkeypatch):
    """Where `os` has no fork, every jobs value gives one worker, in process, and
    the serial results."""
    searched = run(5, jobs=1, collect_witnesses=True)
    scanned = scan_self_similar(3000, 40, d_min=1000, jobs=1)
    monkeypatch.delattr(os, "fork")
    assert workers(None, 10) == workers(2, 10) == 1
    for jobs in (None, 2):  # a fork here would raise AttributeError
        assert run(5, jobs=jobs, collect_witnesses=True) == searched
        assert scan_self_similar(3000, 40, d_min=1000, jobs=jobs) == scanned


def test_search_keeps_one_memo_per_worker(monkeypatch, tmp_path):
    """Two forked workers pull the depth-2 roots, each keeping one memo over the
    roots it takes, so together they redo at most the scans that the one memo
    of a serial run answered.  The serial count is pinned: a change that moves
    a scan updates it and says why."""
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 2)  # one fork on any box
    memos, scans = [], []
    walk, scan = cf2.search._walk, cf2.search._scan

    def counted_walk(roots, C, max_depth, collect, tables, memo, shared):
        before = len(scans)  # each worker writes its walks' scans to a file named by its pid
        memos.append(memo)
        out = walk(roots, C, max_depth, collect, tables, memo, shared)
        with open(tmp_path / str(os.getpid()), "a") as log:
            log.write(f"{len(scans) - before}\n")
        return out

    monkeypatch.setattr(cf2.search, "_walk", counted_walk)
    monkeypatch.setattr(cf2.search, "_scan", lambda *args: scans.append(1) or scan(*args))
    serial = run(8, jobs=1)
    serial_scans = len(scans)
    assert serial_scans == 37_309
    assert len(memos) == 1
    filled = sum(slot is not None for slots in memos[0].values() for slot in slots)
    (tmp_path / str(os.getpid())).unlink()
    scans.clear()
    assert run(8, jobs=2) == serial
    logs = {int(path.name): path.read_text().split() for path in tmp_path.iterdir()}
    assert len(logs) == 2 and os.getpid() in logs  # the caller and one child
    assert all(len(walks) == 1 for walks in logs.values())  # one _walk, one memo, per worker
    child_scans = sum(int(walks[0]) for pid, walks in logs.items() if pid != os.getpid())
    assert serial_scans <= len(scans) + child_scans <= serial_scans + filled


def test_one_worker_opens_no_pipe_and_forks_nothing(monkeypatch):
    """At jobs=1, and wherever one worker is all there is, the items are walked
    in process: no pipe, no fork."""
    searched = run(6, collect_witnesses=True)
    scanned = scan_self_similar(3000, 40, d_min=1000)
    monkeypatch.setattr(os, "fork", _no_fork)
    monkeypatch.setattr(os, "pipe", _no_fork)
    assert pmap(list, list(range(10_000)), 1) == [list(range(10_000))]
    assert run(6, jobs=1, collect_witnesses=True) == searched
    assert scan_self_similar(3000, 40, d_min=1000, jobs=1) == scanned


def _taken(share) -> list[int]:
    """The items a worker pulls, with a pause per item so the workers overlap."""
    taken = []
    for item in share:
        time.sleep(0.0002)
        taken.append(item)
    return taken


@pytest.mark.parametrize("n, length", [(2, 300), (3, 2000), (5, 5000)])
def test_pmap_shares_take_each_item_once(n, length):
    """n forked workers, more than the cores at n = 5, pull a listing of one item
    per record (300) or of chunks of two and five (2,000 and 5,000 items): each
    item is taken by exactly one worker, and each share is in listing order, so
    every record came out of the pipe whole."""
    items = [f"item {i}" for i in range(length)]
    shares = pmap(_taken, items, n)
    assert len(shares) == n
    assert sorted(item for share in shares for item in share) == sorted(items)
    rank = {item: i for i, item in enumerate(items)}
    assert all(share == sorted(share, key=rank.get) for share in shares)
    assert _no_children()


def test_a_listing_longer_than_a_pipe_buffer_completes():
    """100,000 items, 400 KB as 4-byte indices and more than any pipe holds, go out
    in chunks as records that fit one pipe buffer: no write blocks, and two
    workers take every item once."""
    script = ("from cf2.pool import pmap\n"
              "items = list(range(100_000))\n"
              "shares = pmap(list, items, 2)\n"
              "print(len(shares), sorted(shares[0] + shares[1]) == items,\n"
              "      not set(shares[0]) & set(shares[1]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["2", "True", "True"]


def test_pmap_returns_the_callers_share_first():
    """With two workers the calling process is one of them, and its result comes
    back first; a forked child's comes second, and the two shares hold both items."""
    script = ("import os\n"
              "from cf2.pool import pmap\n"
              "def pid(share):\n"
              "    return os.getpid(), list(share)\n"
              "(mine, a), (theirs, b) = pmap(pid, [0, 1], 2)\n"
              "print(os.getpid(), mine, theirs, *sorted(a + b))\n")
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    caller, mine, theirs, first, second = map(int, done.stdout.split())
    assert mine == caller != theirs
    assert (first, second) == (0, 1)


def test_scan_builds_one_root_table_per_call(monkeypatch):
    """The caller builds the root table once, for the window's largest D, and
    hands it to every worker: at jobs=2 the candidates of 2,001 D are shared by
    two workers that read one table."""
    calls = _inline_pmap(monkeypatch)
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 2)
    tables = []
    table = cf2.equiv._root_table
    monkeypatch.setattr(cf2.equiv, "_root_table",
                        lambda q_hi: tables.append(table(q_hi)) or tables[-1])
    shared = []
    scan_range = cf2.equiv._scan_range
    monkeypatch.setattr(cf2.equiv, "_scan_range",
                        lambda listing, q_max, roots:
                        shared.append(roots) or scan_range(listing, q_max, roots))
    serial = scan_self_similar(3000, 40, d_min=1000, jobs=1)
    for jobs in (2, None):
        tables.clear()
        shared.clear()
        assert scan_self_similar(3000, 40, d_min=1000, jobs=jobs) == serial
        assert len(tables) == 1 and max(tables[0]) == 40
        assert calls[-1] == len(shared) == 2 and all(roots is tables[0] for roots in shared)


def test_scan_pulls_its_listing_into_disjoint_shares(monkeypatch, tmp_path):
    """At jobs=2 two forked workers pull the listing of 1,029 (d, m), more than the
    1,024 records of 4 bytes that a 4 KiB pipe buffer holds, so in chunks of two:
    the shares are disjoint and together the serial listing."""
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 2)  # one fork on any box
    d_max, q_max, d_min = 10**6 + 5000, 40, 10**6
    serial = scan_self_similar(d_max, q_max, d_min=d_min, jobs=1)
    scan_range = cf2.equiv._scan_range

    def recorded(listing, q_max, roots):
        taken = []  # each worker writes the (d, m) it took to a file named by its pid
        hits = scan_range((taken.append(item) or item for item in listing), q_max, roots)
        (tmp_path / str(os.getpid())).write_text(repr(taken))
        return hits

    monkeypatch.setattr(cf2.equiv, "_scan_range", recorded)
    assert scan_self_similar(d_max, q_max, d_min=d_min, jobs=2) == serial
    listing = cf2.equiv._walked_discriminants(range(d_min, d_max + 1))
    assert len(listing) == 1029
    mine, theirs = (ast.literal_eval(path.read_text()) for path in tmp_path.iterdir())
    assert not set(mine) & set(theirs)
    assert sorted(mine + theirs) == sorted(listing)


def test_interrupt_stops_the_workers():
    """A SIGINT to the calling process alone, not its workers, ends pmap within a
    second: the worker's running item is stopped.  Waiting for it would take 4 s."""
    script = ("import os, signal, time\n"
              "from cf2.pool import pmap\n"
              "signal.signal(signal.SIGALRM, lambda *_: os.kill(os.getpid(), signal.SIGINT))\n"
              "signal.setitimer(signal.ITIMER_REAL, 0.5)  # a forked worker has no timer\n"
              "pmap(lambda share: [time.sleep(t) for t in share], [4, 4], 2)\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert time.perf_counter() - start < 3
    assert done.returncode != 0
    assert done.stderr.rstrip().endswith("KeyboardInterrupt")


def _no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _ints(share) -> list[int]:
    return [int(item) for item in share]


def test_a_child_exception_reaches_the_caller():
    """A worker's exception is raised again in the caller, same type and message;
    a child's is read as soon as it fails, and its sibling, still running, is
    killed and reaped."""
    assert sorted(sum(pmap(_ints, ["1", "2"], 2), [])) == [1, 2]
    assert _no_children()
    with pytest.raises(ValueError, match="invalid literal for int"):
        pmap(_ints, ["1", "x"], 2)
    assert _no_children()
    caller = os.getpid()

    def fail_in_child(share):  # the caller pulls nothing; "x" fails, 2 sleeps
        for item in share if os.getpid() != caller else ():
            if item == 2:
                time.sleep(30)
            int(item)

    # the child that pulls "x" stops pulling, so the other pulls 2: whichever
    # child was forked first, the caller must not wait for the sleeper
    start = time.perf_counter()
    with pytest.raises(ValueError, match="invalid literal for int"):
        pmap(fail_in_child, [1, "x", 2], 3)
    assert time.perf_counter() - start < 10
    assert _no_children()


def test_a_child_that_dies_without_a_result_raises():
    """A child that exits, or is killed, before it sends a result raises an error
    that names its exit status, and the caller does not wait for more."""
    caller = os.getpid()
    with pytest.raises(RuntimeError, match="status 7 and no result"):
        pmap(lambda share: os._exit(7) if os.getpid() != caller else 0, [0, 1], 2)
    with pytest.raises(RuntimeError, match="status -9 and no result"):
        pmap(lambda share: os.kill(os.getpid(), 9) if os.getpid() != caller else 0, [0, 1], 2)
    assert _no_children()


def test_an_interrupt_in_the_caller_kills_every_child():
    """A KeyboardInterrupt in the caller's own share ends pmap at once, with both
    children, each 30 s from its result, killed and reaped."""
    caller = os.getpid()

    def sleep_in_children(share):
        if os.getpid() != caller:
            time.sleep(30)  # killed, or the test takes 30 s
        raise KeyboardInterrupt

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        pmap(sleep_in_children, [0, 1, 2], 3)
    assert time.perf_counter() - start < 10
    assert _no_children()


def test_a_map_kills_only_the_children_it_has_not_read(monkeypatch):
    """A map that succeeds reaps each child as it reads its result and kills none;
    one whose caller raises in its own share kills each child, none of them read."""
    kills = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append((pid, sig)) or kill(pid, sig))
    for n in (2, 3):
        assert sorted(sum(pmap(_ints, ["1", "2", "3"], n), [])) == [1, 2, 3]
        assert kills == []
        assert _no_children()
    caller = os.getpid()

    def fail_in_caller(share):
        if os.getpid() != caller:
            time.sleep(30)  # killed, or the test takes 30 s
        raise ValueError("the caller's share failed")

    with pytest.raises(ValueError, match="the caller's share failed"):
        pmap(fail_in_caller, [0, 1, 2], 3)
    assert len({pid for pid, _ in kills}) == len(kills) == 2
    assert all(sig == signal.SIGKILL for _, sig in kills)
    assert _no_children()


def test_only_a_map_that_fails_loads_signal():
    """`import cf2` loads none of pickle, select and signal; the first map that forks
    loads pickle and select, and signal only where it must kill unread children."""
    script = ("import sys\n"
              "import cf2\n"
              "names = 'pickle', 'select', 'signal'\n"
              "print(*(name in sys.modules for name in names))\n"
              "from cf2.pool import pmap\n"
              "pmap(list, [0, 1], 2)\n"
              "print(*(name in sys.modules for name in names))\n")
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["False False False", "True True False"]
