"""One task per worker process, shared by the parallel enumerations.

`pmap` forks a child per task after the first, which inherits its task and
sends back its pickled result or exception through a pipe.  The library
starts no threads, so forking is safe.
"""

from __future__ import annotations

import os


def workers(jobs: int | None, tasks: int) -> int:
    """Processes for `tasks` tasks: `jobs` (None: one per core), clamped to the cores and
    the tasks, and 1 where `os` has no fork.  `jobs` below 1 raises."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cores = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return max(1, min(cores if jobs is None else jobs, cores, tasks))


def pmap(fn, tasks: list) -> list:
    """[fn(t) for t in tasks]: the calling process runs tasks[0], a forked child each other.

    A child's exception is raised again here, a child that exits without a
    result raises RuntimeError, and any exception kills and reaps every child.
    """
    if len(tasks) == 1:
        return [fn(tasks[0])]
    import pickle  # here, not at the top: only a call that forks reads it
    import signal
    caller, children = os.getpid(), []  # (pid, read end of its pipe)
    try:
        for task in tasks[1:]:
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # an exception escaping the child ends at `finally`
                try:
                    out = True, fn(task)
                except BaseException as exc:
                    out = False, exc
                with open(w, "wb") as pipe:
                    pipe.write(pickle.dumps(out))
                os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(tasks[0])]
        for pid, pipe in children:
            if not (data := pipe.read()):
                pipe.close()
                children.remove((pid, pipe))  # reaped here, not below
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(f"worker {pid} exited with status {status} and no result")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:  # every child is reaped here: a child that has sent its result is exiting
        if os.getpid() != caller:
            os._exit(1)
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
