"""Fixtures that force and count the forks of ``parallel.chunk_map``."""

import os

import pytest

import mcor.parallel as mcor_parallel


@pytest.fixture
def cpus(monkeypatch):
    """Force the usable CPU count, so the forked path runs on any host."""
    def force(count):
        monkeypatch.setattr(mcor_parallel, "_usable_cpus", lambda: count)
    return force


@pytest.fixture
def forks(monkeypatch):
    """The pid of the process that made each ``os.fork`` call, in order;
    a forked child's own record is its copy, not this one."""
    calls = []
    real = os.fork

    def counting():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", counting)
    return calls
