"""Workers that pull their items from one pipe, shared by the parallel enumerations.

`pmap` writes the items' indices into one pipe, forks the other workers and
counts the caller as one; each worker reads one record at a time and takes
its items until the pipe reads empty, so a worker that is free takes the
next items in listing order (self-scheduling, Polychronopoulos and Kuck,
IEEE Trans. Comput. 36, 1987).  A child inherits the listing and sends back
its pickled result or exception through a pipe of its own.  The library
starts no threads, so forking is safe.
"""

from __future__ import annotations

import os

_RECORD = 4  # bytes per record: the index of a chunk's first item


def workers(jobs: int | None, tasks: int) -> int:
    """Processes for `tasks` items: `jobs` (None: one per core), clamped to the cores and
    the items, and 1 where `os` has no fork.  `jobs` below 1 raises."""
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cores = (os.cpu_count() or 1) if hasattr(os, "fork") else 1
    return max(1, min(cores if jobs is None else jobs, cores, tasks))


def pmap(fn, items: list, n: int) -> list:
    """fn(share) for each of `n` workers, the caller's first: the shares take each item once.

    A share is an iterator over the items its worker pulled, in listing
    order; `fn` drains it.  With n = 1 the caller runs fn(iter(items)), with
    no pipe and no fork.  Otherwise the items go out in chunks of equal
    length, as few as make every record fit in PIPE_BUF bytes: POSIX writes
    that many at once into an empty pipe, so the caller writes the whole
    listing before it forks and never blocks, and each read of one record,
    from a pipe whose writing is done, returns the whole record.

    A child's exception is raised again here, a child that exits without a
    result raises RuntimeError, and any exception kills and reaps every child.
    Children are read as they finish, so one that fails is not left waiting
    behind a sibling still at work.
    """
    if n == 1:
        return [fn(iter(items))]
    import pickle  # here, not at the top: only a call that forks reads them
    import select
    import signal
    caller, children = os.getpid(), []  # (pid, read end of its result pipe)
    listing, w = os.pipe()
    try:
        try:
            size = -(-len(items) // (os.fpathconf(w, "PC_PIPE_BUF") // _RECORD))  # per chunk
            os.write(w, b"".join(start.to_bytes(_RECORD, "little")
                                 for start in range(0, len(items), size)))
        finally:
            os.close(w)  # before the fork, so the last read of every worker returns b""

        def share():
            while record := os.read(listing, _RECORD):
                start = int.from_bytes(record, "little")
                yield from items[start:start + size]

        for _ in range(n - 1):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # an exception escaping the child ends at `finally`
                try:
                    out = True, fn(share())
                except BaseException as exc:
                    out = False, exc
                with open(w, "wb") as pipe:
                    pipe.write(pickle.dumps(out))
                os._exit(0)
            os.close(w)
            children.append((pid, open(r, "rb")))
        results = [fn(share())]
        pending = list(children)
        while pending:
            ready = select.select([pipe for _, pipe in pending], [], [])[0]
            pid, pipe = child = next(child for child in pending if child[1] is ready[0])
            pending.remove(child)
            if not (data := pipe.read()):
                pipe.close()
                children.remove(child)  # reaped here, not below
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
        os.close(listing)
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
