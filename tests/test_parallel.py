"""The forked map over an index range, with an ``f`` that returns its index."""

import io
import marshal
import os
import select
import threading
import time
from types import SimpleNamespace

import pytest

import mcor.parallel as mcor_parallel
from mcor.parallel import chunk_map
from support import assert_no_child_left, shadow_builtin


def recording(in_a_child):
    """An ``f`` that returns its index here and ``in_a_child(i)`` in a forked
    child, and the list of the indices it computed in this process."""
    parent, here = os.getpid(), []

    def f(i):
        if os.getpid() != parent:
            return in_a_child(i)
        here.append(i)
        return i

    return f, here


class Overstated(bytes):
    """A payload that announces one byte more than it holds."""

    def __len__(self):
        return super().__len__() + 1


def exit_0_before_writing(monkeypatch):
    return lambda i: os._exit(0)


def overstate_the_length(monkeypatch):
    # The forked child inherits the patch; this process only reads.
    monkeypatch.setattr(mcor_parallel, "marshal", SimpleNamespace(
        dumps=lambda value: Overstated(marshal.dumps(value)), loads=marshal.loads))
    return lambda i: i


def return_what_marshal_cannot_write(monkeypatch):
    return lambda i: object()


def refused(*args):
    raise OSError("affinity refused")


def refuse_to_bind(monkeypatch):
    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)


def delete_both_affinity_calls(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.delattr(os, "sched_setaffinity", raising=False)


def run_on(monkeypatch, stat: bytes | None) -> None:
    """Make ``parallel`` read ``stat`` as this process's ``/proc/self/stat``,
    or find no such file where ``stat`` is None."""
    real = open

    def fake(file, *args, **kwargs):
        if file != "/proc/self/stat":
            return real(file, *args, **kwargs)
        if stat is None:
            raise FileNotFoundError(file)
        return io.BytesIO(stat)

    shadow_builtin(monkeypatch, "open", fake, mcor_parallel)


def stat_on(cpu: int) -> bytes:
    """A ``/proc/self/stat`` line whose field 39 names ``cpu``, after a
    name holding a space and a parenthesis."""
    return b"4242 (a) b) S " + b"0 " * 35 + str(cpu).encode() + b" 0 0\n"


def mask_once(expected: list) -> list:
    """This process's sorted CPU mask once it is ``expected``, or after 10 s."""
    deadline = time.monotonic() + 10
    while sorted(os.sched_getaffinity(0)) != expected and time.monotonic() < deadline:
        time.sleep(0.001)
    return sorted(os.sched_getaffinity(0))


def started_then_released(workers: int, started: list):
    """An ``f`` for ``chunk_map(f, workers)`` and the pipe it signals on. A
    child returns its CPU mask once it is ``started`` and again once it
    holds this process's whole mask (each after at most 10 s); index 0 here
    returns when each child has read its first mask, so that no child is
    released before."""
    parent, mask = os.getpid(), sorted(os.sched_getaffinity(0))
    read_fd, write_fd = os.pipe()

    def f(i):
        if os.getpid() == parent:
            for _ in range(workers - 1):
                if select.select([read_fd], [], [], 10)[0]:
                    os.read(read_fd, 1)
            return i
        first = mask_once(started)
        os.write(write_fd, b".")
        return [first, mask_once(mask)]

    return f, (read_fd, write_fd)


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert mcor_parallel._usable_cpus() == (os.cpu_count() or 1)


@pytest.mark.parametrize("usable, count, expected", [(1, 2, 1), (2, 2, 2), (3, 2, 2), (3, 5, 3)])
def test_workers_is_a_process_per_usable_cpu_at_most_count(cpus, usable, count, expected):
    cpus(usable)
    assert mcor_parallel.workers(count) == (expected if hasattr(os, "fork") else 1)


def test_workers_is_one_while_another_thread_is_alive(cpus):
    cpus(2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert mcor_parallel.workers(2) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_workers_is_one_without_fork(cpus, monkeypatch):
    cpus(2)
    monkeypatch.delattr(os, "fork", raising=False)
    assert mcor_parallel.workers(2) == 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
class TestChunkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_payloads_come_in_chunk_order(self, cpus, count, workers):
        cpus(workers)
        f, here = recording(lambda i: i)
        assert chunk_map(f, count) == list(range(count))
        # The first chunk is computed here, every other one in a child.
        assert here == list(range(count // min(count, workers)))
        assert_no_child_left()

    @pytest.mark.parametrize("fault", [exit_0_before_writing, overstate_the_length,
                                       return_what_marshal_cannot_write],
                             ids=["exit-0-before-writing", "overstated-length",
                                  "value-marshal-cannot-write"])
    def test_child_without_its_full_payload_is_recomputed(self, cpus, monkeypatch, fault):
        cpus(3)
        f, here = recording(fault(monkeypatch))
        assert chunk_map(f, 6) == list(range(6))
        assert here == list(range(6))
        assert_no_child_left()

    def test_a_map_inside_a_forked_map_runs_serially(self, cpus, forks):
        # The outer map's processes already use every CPU, here and in the
        # child: neither forks again for a map inside its chunk.
        cpus(2)

        def inner_forks(i):
            before = forks.count(os.getpid())
            assert chunk_map(abs, 4) == [0, 1, 2, 3]
            return forks.count(os.getpid()) - before

        assert chunk_map(inner_forks, 2) == [0, 0]
        assert forks == [os.getpid()]
        assert chunk_map(abs, 4) == [0, 1, 2, 3]  # and a later map forks again
        assert forks == [os.getpid()] * 2
        assert_no_child_left()

    @pytest.mark.parametrize("affinity", [refuse_to_bind, delete_both_affinity_calls],
                             ids=["bind-refused", "both-missing"])
    def test_child_left_unbound_still_sends_its_chunk(self, cpus, monkeypatch, affinity):
        cpus(2)
        affinity(monkeypatch)
        f, here = recording(lambda i: i)
        assert chunk_map(f, 4) == [0, 1, 2, 3]
        assert here == [0, 1]
        assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="no os.fork or no affinity call on this platform")
class TestCpuBinding:
    @pytest.mark.parametrize("start", [0, -1], ids=["on-first-cpu", "on-last-cpu"])
    @pytest.mark.parametrize("workers", [2, 3])
    def test_each_child_starts_off_this_process_cpu_and_gets_it_back(self, cpus, monkeypatch,
                                                                      workers, start):
        cpus(workers)
        mask = os.sched_getaffinity(0)
        here = sorted(mask)[start]
        run_on(monkeypatch, stat_on(here))
        # With count == workers, child k computes index k alone; on one CPU
        # there is no other, and the child keeps the whole mask.
        started = sorted(mask - {here}) or sorted(mask)
        f, pipe = started_then_released(workers, started)
        try:
            assert chunk_map(f, workers)[1:] == [[started, sorted(mask)]] * (workers - 1)
        finally:
            for fd in pipe:
                os.close(fd)
        assert_no_child_left()

    def test_a_child_is_freed_however_soon_this_process_is_done(self, cpus, monkeypatch):
        cpus(2)
        mask = sorted(os.sched_getaffinity(0))
        run_on(monkeypatch, stat_on(mask[0]))
        parent = os.getpid()
        # Index 0 here returns at once, likely before the child first runs.
        assert chunk_map(lambda i: i if os.getpid() == parent else mask_once(mask), 2) == [0, mask]
        assert_no_child_left()

    def test_other_cpus_leave_out_the_one_this_process_runs_on(self, monkeypatch):
        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
        os.sched_setaffinity(0, {max(mask)})  # moves this process there before it returns
        try:
            assert mcor_parallel._other_cpus() == mask - {max(mask)}
        finally:
            os.sched_setaffinity(0, mask)

    @pytest.mark.parametrize("stat", [b"", b"4242 (a) S 0\n", stat_on(-1), None],
                             ids=["empty", "short", "cpu-outside-the-mask", "no-proc"])
    def test_no_other_cpus_where_proc_names_no_cpu_of_the_mask(self, monkeypatch, stat):
        run_on(monkeypatch, stat)
        assert mcor_parallel._other_cpus() == set()

    @pytest.mark.parametrize("in_a_child, computed_here",
                             [(lambda i: i, [0, 1]), (lambda i: os._exit(0), list(range(6)))],
                             ids=["chunks-sent", "chunks-recomputed"])
    def test_this_process_keeps_its_cpus(self, cpus, in_a_child, computed_here):
        cpus(3)
        before = os.sched_getaffinity(0)
        f, here = recording(in_a_child)
        assert chunk_map(f, 6) == list(range(6))
        assert here == computed_here
        assert os.sched_getaffinity(0) == before
        assert_no_child_left()

    def test_this_process_keeps_its_cpus_when_f_raises(self, cpus):
        cpus(3)
        before = os.sched_getaffinity(0)
        with pytest.raises(ZeroDivisionError):  # index 0 is in this process's chunk
            chunk_map(lambda i: 1 // i, 6)
        assert os.sched_getaffinity(0) == before
        assert_no_child_left()
