"""One forked map over an index range: the only place the package starts
processes, and the only one that knows how values cross between them."""

from __future__ import annotations

import marshal
import os
import threading

# True while this process runs a forked map, and in its children, which
# inherit it: a map called from inside a chunk then runs serially, since
# the outer map already has one process per usable CPU.
_mapping = False


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def chunk_map(f, count: int) -> list:
    """``[f(i) for i in range(count)]``, computed in one chunk of
    ``range(count)`` per usable CPU, at most ``count``, with bounds
    ``count * k // workers``. ``f`` returns what ``marshal`` writes exactly:
    None, bool, int, float, str, bytes, or lists, tuples or dicts of them.

    Each chunk after the first runs in a forked child that writes its
    values, marshalled after an 8-byte length, to a pipe; this process runs
    the first. A chunk whose child fails, as on a value marshal cannot
    write, or sends an incomplete payload is computed again here, so an
    error is raised as a serial run raises it. Children still running when
    this process raises, KeyboardInterrupt included, are killed and reaped.

    The run is serial with one usable CPU, without ``os.fork``, while
    another thread is alive (forking a threaded process can deadlock), or
    when called from ``f`` of a forked map, here or in its children. A
    fork costs about 1.7 ms, and this function forks whatever the amount
    of work: a caller gates small work itself, as
    ``corestats.correlation_matrix`` does.
    """
    global _mapping
    workers = min(count, _usable_cpus())
    if workers < 2 or _mapping or not hasattr(os, "fork") or threading.active_count() > 1:
        return list(map(f, range(count)))
    bounds = [count * k // workers for k in range(workers + 1)]
    chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    children = []
    try:
        _mapping = True
        for chunk in chunks[1:]:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # The child only computes and writes: it never returns into the
                # caller's stack, prints, or flushes the stdio it inherited.
                code = 1
                try:
                    os.close(read_fd)
                    payload = marshal.dumps(list(map(f, chunk)))
                    with open(write_fd, "wb") as pipe:
                        pipe.writelines((len(payload).to_bytes(8, "little"), payload))
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)  # so that the pipe ends when this child exits
            children.append((pid, open(read_fd, "rb"), chunk))
        values = list(map(f, chunks[0]))
        while children:
            pid, pipe, chunk = children[0]
            with pipe:
                size, payload = pipe.read(8), pipe.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if status == 0 and size == len(payload).to_bytes(8, "little"):
                values += marshal.loads(payload)
            else:
                values += map(f, chunk)
        return values
    finally:
        _mapping = False
        for pid, pipe, _ in children:
            pipe.close()
            # SIGKILL is 9 on every POSIX system; importing the signal module
            # would add about 130 KB to the peak RSS of every simulate run.
            os.kill(pid, 9)
            os.waitpid(pid, 0)
