"""Shared fixtures."""

import multiprocessing
import os
import sys
import tracemalloc

import pytest


def _open_fds():
    return sorted(os.listdir("/proc/self/fd")) if sys.platform == "linux" else []


@pytest.fixture(autouse=True)
def no_child_processes_or_open_fds():
    """Fail any test that leaves a child process running or, on Linux, a file descriptor open."""
    before = _open_fds()
    yield
    assert not multiprocessing.active_children()
    assert _open_fds() == before


@pytest.fixture
def traced_peak():
    """``peak(fn, *args)``: ``fn(*args)`` and the most traced bytes it held above its start."""

    def peak(fn, *args):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()

    return peak
