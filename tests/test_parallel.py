"""The forked map over an index range, with an ``f`` that returns its index."""

import marshal
import os
from types import SimpleNamespace

import pytest

import mcor.parallel as mcor_parallel
from mcor.parallel import chunk_map
from support import assert_no_child_left


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


def test_usable_cpus_without_an_affinity_call(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert mcor_parallel._usable_cpus() == (os.cpu_count() or 1)


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
