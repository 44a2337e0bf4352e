import concurrent.futures
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import cf2.pool
from conftest import child_env
from cf2.equiv import scan_self_similar
from cf2.pool import chunks, pmap, workers
from cf2.search import run


@given(st.integers(0, 700), st.sampled_from([1, 2, 3, 8, 100, None]), st.booleans())
def test_chunks_cover_the_input_in_order(n, jobs, as_range):
    items = range(3, 3 + n) if as_range else list(range(3, 3 + n))
    parts = chunks(items, jobs)
    assert [x for part in parts for x in part] == list(items)
    assert all(type(part) is type(items) for part in parts)
    if workers(jobs, n) == 1:
        assert parts == [items]
    else:
        assert all(len(part) >= 64 for part in parts[:-1])


def test_workers_clamp():
    cores = os.cpu_count() or 1
    assert workers(None, 10**6) == cores
    assert workers(10**6, 10**6) == cores
    assert workers(10**6, 3) == min(3, cores)
    assert workers(1, 10**6) == 1
    assert workers(2, 0) == 1
    assert pmap(abs, [-3, 2, -1], 1) == [3, 2, 1]


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
    for max_workers, tasks in _InlinePool.calls:
        assert 2 <= max_workers <= min(limit, tasks)


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
        # the search has C^2 tasks, the scan one per 64 or more values of D
        assert bool(_InlinePool.calls) == (C > 1 or span >= 64)


def test_interrupt_stops_the_workers():
    """A SIGINT to the calling process alone, not its workers, ends pmap within a
    second: the running tasks are stopped and the queued ones dropped.  Waiting
    for them, as the pool's own exit does, takes 8 s here."""
    script = ("import os, signal, time\n"
              "from cf2.pool import pmap\n"
              "signal.signal(signal.SIGALRM, lambda *_: os.kill(os.getpid(), signal.SIGINT))\n"
              "signal.setitimer(signal.ITIMER_REAL, 0.5)  # a forked worker has no timer\n"
              "pmap(time.sleep, [4] * 20, 2)\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True,
                          text=True, timeout=60)
    assert time.perf_counter() - start < 3
    assert done.returncode != 0
    assert done.stderr.rstrip().endswith("KeyboardInterrupt")
