import concurrent.futures
import os
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
    assert pmap(abs, [-3]) == [3]


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def test_jobs_below_one_raise(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _no_pool)
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            workers(jobs, 10)
        with pytest.raises(ValueError, match="jobs"):
            run(3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs"):
            scan_self_similar(2000, 20, jobs=jobs)


class _InlinePool:
    """Stands in for ProcessPoolExecutor: maps in process, recording (max_workers, tasks)."""

    calls: list[tuple[int, int]] = []

    def __init__(self, max_workers):
        self.max_workers = max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.calls.append((self.max_workers, len(tasks)))
        return map(fn, tasks)


@pytest.mark.parametrize("cores", [None, 64])
def test_huge_jobs_is_clamped_to_cores_and_tasks(monkeypatch, cores):
    # Never call these with a huge jobs value and a real pool: a fork-based
    # ProcessPoolExecutor starts all max_workers processes at the first submit.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    if cores is not None:
        monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: cores)
    limit = os.cpu_count() or 1
    _InlinePool.calls = []
    assert run(3, jobs=100_000) == run(3, jobs=1)
    assert scan_self_similar(400, 30, jobs=100_000) == scan_self_similar(400, 30, jobs=1)
    assert len(_InlinePool.calls) == (2 if limit > 1 else 0)
    for max_workers, tasks in _InlinePool.calls:  # the pool's share: the caller is a worker too
        assert 1 <= max_workers <= min(limit - 1, tasks)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.one_of(st.none(), st.integers(2, 6)), st.booleans(),
       st.integers(2, 300), st.integers(0, 400), st.integers(1, 40), st.sampled_from([2, 3, 8]))
def test_results_do_not_depend_on_the_worker_count(C, max_depth, collect, d_min, span, q_max,
                                                    cores):
    # the in-process pool stands in for the processes, so the merge is what is tested
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
        mp.setattr(cf2.pool.os, "cpu_count", lambda: cores)
        _InlinePool.calls = []
        searched = run(C, max_depth=max_depth, jobs=1, collect_witnesses=collect)
        scanned = scan_self_similar(d_min + span, q_max, d_min=d_min, jobs=1)
        assert _InlinePool.calls == []
        for jobs in (2, 3, 8, None):
            assert run(C, max_depth=max_depth, jobs=jobs, collect_witnesses=collect) == searched
            assert scan_self_similar(d_min + span, q_max, d_min=d_min, jobs=jobs) == scanned
        # one task per worker: the search deals out its depth-2 roots, of which
        # C = 1 has one, and the scan the candidate (d, m) its window lists
        listed = len(cf2.equiv._walked_discriminants(range(d_min, d_min + span + 1), d_min))
        assert bool(_InlinePool.calls) == (C > 1 or listed >= 2)


def test_search_keeps_one_memo_per_worker(monkeypatch):
    """Two workers walk two shares of depth-2 roots, one memo each, so they redo
    at most the scans that the one memo of a serial run answered.  The serial
    count is pinned: a change that moves a scan updates it and says why."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 2)
    memos, scans = [], []
    walk, scan = cf2.search._walk, cf2.search._scan
    monkeypatch.setattr(cf2.search, "_walk", lambda args: memos.append(args[5]) or walk(args))
    monkeypatch.setattr(cf2.search, "_scan", lambda *args: scans.append(1) or scan(*args))
    serial = run(8, jobs=1)
    serial_scans = len(scans)
    assert serial_scans == 37_309
    assert len(memos) == 1
    filled = sum(slot is not None for slots in memos[0].values() for slot in slots)
    memos.clear()
    scans.clear()
    assert run(8, jobs=2) == serial
    assert len(memos) == workers(2, 10**6) == 2
    assert serial_scans <= len(scans) <= serial_scans + filled


def test_search_walks_a_shallow_cut_walk_in_process(monkeypatch):
    """At jobs=None a walk cut below depth _POOL_MIN_DEPTH starts no pool, whatever
    C: run(12, max_depth=3) is over before a pool would have started."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 2)
    _InlinePool.calls = []
    for depth in (3, cf2.search._POOL_MIN_DEPTH - 1):
        assert run(12, max_depth=depth) == run(12, max_depth=depth, jobs=1)
    assert _InlinePool.calls == []
    assert run(9, max_depth=cf2.search._POOL_MIN_DEPTH) == run(
        9, max_depth=cf2.search._POOL_MIN_DEPTH, jobs=1)
    assert _InlinePool.calls == [(1, 1)]

def test_pmap_runs_the_first_task_in_the_caller():
    """With two tasks the calling process runs task 0 and the pool's one process
    task 1, whose result comes back second."""
    script = ("import os\n"
              "from cf2.pool import pmap\n"
              "def pid(_):\n"
              "    return os.getpid()\n"
              "print(os.getpid(), *pmap(pid, [0, 1]))\n")
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    caller, mine, theirs = map(int, done.stdout.split())
    assert mine == caller != theirs


def test_scan_builds_one_root_table_per_task(monkeypatch):
    """At jobs=2 the candidates of 2,001 D are dealt to two tasks, and each builds
    the root table once, for the window's largest D."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 2)
    tables = []
    table = cf2.equiv._root_table
    monkeypatch.setattr(cf2.equiv, "_root_table", lambda q_hi: tables.append(q_hi) or table(q_hi))
    serial = scan_self_similar(3000, 40, d_min=1000, jobs=1)
    assert tables == [40]
    tables.clear()
    assert scan_self_similar(3000, 40, d_min=1000, jobs=2) == serial
    assert tables == [40, 40]


def test_scan_deals_its_listing_into_even_disjoint_shares(monkeypatch):
    """At jobs=2 the two tasks take listing[0::2] and listing[1::2]: disjoint, of
    lengths that differ by at most one, together the serial listing."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(cf2.pool.os, "cpu_count", lambda: 2)
    d_max, q_max, d_min = 10**6 + 5000, 40, 10**6
    serial = scan_self_similar(d_max, q_max, d_min=d_min, jobs=1)
    shares = []
    scan_range = cf2.equiv._scan_range
    monkeypatch.setattr(cf2.equiv, "_scan_range",
                        lambda args: shares.append(args[0]) or scan_range(args))
    assert scan_self_similar(d_max, q_max, d_min=d_min, jobs=2) == serial
    listing = cf2.equiv._walked_discriminants(range(d_min, d_max + 1), d_min)
    mine, theirs = shares
    assert not set(mine) & set(theirs)
    assert sorted(mine + theirs) == sorted(listing)
    assert abs(len(mine) - len(theirs)) <= 1


def test_interrupt_stops_the_workers():
    """A SIGINT to the calling process alone, not its workers, ends pmap within a
    second: the worker's running task is stopped.  Waiting for it, as the pool's
    own exit does, takes 4 s here."""
    script = ("import os, signal, time\n"
              "from cf2.pool import pmap\n"
              "signal.signal(signal.SIGALRM, lambda *_: os.kill(os.getpid(), signal.SIGINT))\n"
              "signal.setitimer(signal.ITIMER_REAL, 0.5)  # a forked worker has no timer\n"
              "pmap(time.sleep, [4, 4])\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert time.perf_counter() - start < 3
    assert done.returncode != 0
    assert done.stderr.rstrip().endswith("KeyboardInterrupt")
