"""The forked map over index chunks, with a payload that is the chunk's own
indices as bytes."""

import os

import pytest

import mcor.parallel as mcor_parallel
from mcor.parallel import chunk_map
from support import assert_no_child_left


def recording(in_a_child):
    """A payload function that gives a chunk's indices as bytes and
    ``in_a_child(chunk)`` in a forked child, and the list of the chunks it
    computed in this process."""
    parent, here = os.getpid(), []

    def work(chunk):
        if os.getpid() != parent:
            return in_a_child(chunk)
        here.append(chunk)
        return bytes(chunk)

    return work, here


class Overstated(bytes):
    """A payload that announces one byte more than it holds."""

    def __len__(self):
        return super().__len__() + 1


@pytest.fixture
def cpus(monkeypatch):
    def force(count):
        monkeypatch.setattr(mcor_parallel, "_usable_cpus", lambda: count)
    return force


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
class TestChunkMap:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_payloads_come_in_chunk_order(self, cpus, count, workers):
        cpus(workers)
        used = min(count, workers)
        bounds = [count * k // used for k in range(used + 1)]
        chunks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        work, here = recording(bytes)
        assert chunk_map(work, count) == [bytes(chunk) for chunk in chunks]
        # The first chunk is computed here, every other one in a child.
        assert here == chunks[:1]
        assert_no_child_left()

    @pytest.mark.parametrize("in_a_child", [lambda chunk: os._exit(0), Overstated],
                             ids=["exit-0-before-writing", "overstated-length"])
    def test_child_without_its_full_payload_is_recomputed(self, cpus, in_a_child):
        cpus(3)
        work, here = recording(in_a_child)
        assert chunk_map(work, 6) == [bytes([0, 1]), bytes([2, 3]), bytes([4, 5])]
        assert here == [range(0, 2), range(2, 4), range(4, 6)]
        assert_no_child_left()
