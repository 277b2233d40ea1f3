"""Shared fixtures."""

import multiprocessing
import tracemalloc

import pytest


@pytest.fixture(autouse=True)
def no_child_processes():
    """Fail any test that leaves a child process running."""
    yield
    assert not multiprocessing.active_children()


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
