"""Order-preserving map over worker processes, shared by the parallel enumerations."""

from __future__ import annotations

import os


def workers(jobs: int | None, tasks: int) -> int:
    """Processes for `tasks` tasks: `jobs` (None: one per core), clamped to the cores and tasks.

    A fork-based pool starts all its processes at the first submit, so no
    value may exceed what the machine and the work can use.  `jobs` below 1 raises.
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cores = os.cpu_count() or 1
    return max(1, min(cores if jobs is None else jobs, cores, tasks))


def pmap(fn, tasks: list, jobs: int | None) -> list:
    """[fn(t) for t in tasks], in task order, on n workers: the calling process is one.

    It hands tasks i with i % n != 0 to a pool of n - 1 processes and then
    runs tasks 0, n, 2n, ... itself, so it works through the wait instead of
    idling beside n busy workers.  An exception, such as KeyboardInterrupt,
    ends the workers and drops the queued tasks.
    """
    n = workers(jobs, len(tasks))
    if n == 1:
        return list(map(fn, tasks))
    import concurrent.futures  # here, not at the top: loading multiprocessing costs time and RSS
    with concurrent.futures.ProcessPoolExecutor(max_workers=n - 1) as pool:
        try:
            theirs = pool.map(fn, [task for i, task in enumerate(tasks) if i % n])
            mine = iter([fn(task) for task in tasks[::n]])
            return [next(mine) if i % n == 0 else next(theirs) for i in range(len(tasks))]
        except BaseException:  # a SIGINT to this process alone, say: the workers keep running
            for process in pool._processes.values():  # the executor has no public terminate
                process.terminate()
            pool.shutdown(cancel_futures=True)
            raise


def chunks(items, jobs: int | None) -> list:
    """`items` (a list or a range) cut into consecutive slices, about four per worker.

    Slices hold at least 64 items, so an input of at most 64 items stays
    one task, and so does any input when there is one worker.
    """
    n = workers(jobs, len(items))
    if n == 1:
        return [items]
    size = max(64, len(items) // (4 * n))
    return [items[i:i + size] for i in range(0, len(items), size)]
