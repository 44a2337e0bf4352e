"""One task per worker process, shared by the parallel enumerations."""

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


def pmap(fn, tasks: list) -> list:
    """[fn(t) for t in tasks], one task per worker: the calling process runs tasks[0].

    A pool of len(tasks) - 1 processes runs the rest meanwhile, so the caller
    works through the wait instead of idling beside busy workers.  The
    callers size `tasks` by `workers`.  An exception, such as
    KeyboardInterrupt, ends the workers.
    """
    if len(tasks) == 1:
        return [fn(tasks[0])]
    import concurrent.futures  # here, not at the top: loading multiprocessing costs time and RSS
    with concurrent.futures.ProcessPoolExecutor(max_workers=len(tasks) - 1) as pool:
        try:
            theirs = pool.map(fn, tasks[1:])
            return [fn(tasks[0]), *theirs]
        except BaseException:  # a SIGINT to this process alone, say: the workers keep running
            for process in pool._processes.values():  # the executor has no public terminate
                process.terminate()
            pool.shutdown(cancel_futures=True)
            raise
