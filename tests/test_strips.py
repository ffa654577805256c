"""The strip pool: error handling when a strip raises."""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from oocs3d import _strips
from oocs3d._strips import STRIP_ROWS, for_strips


@pytest.fixture
def two_workers(monkeypatch):
    pool = ThreadPoolExecutor(1)
    monkeypatch.setattr(_strips, "thread_count", lambda: 2)
    monkeypatch.setattr(_strips, "_pool", lambda: pool)
    yield
    pool.shutdown()


def _on_caller():
    return threading.current_thread() is threading.main_thread()


def _first_strips_meet(barrier):
    """Return meet(), which every strip calls first; a thread's first call waits at the barrier."""
    seen = threading.local()

    def meet():
        if not getattr(seen, "met", False):
            seen.met = True
            barrier.wait(timeout=10)
    return meet


def test_first_error_empties_the_queue(two_workers):
    meet = _first_strips_meet(threading.Barrier(2))
    helper_strips = []

    def fn(rows):
        meet()
        if _on_caller():
            raise ValueError("caller strip")
        time.sleep(0.05)
        helper_strips.append(rows)

    with pytest.raises(ValueError, match="caller strip"):
        for_strips(20 * STRIP_ROWS, fn)
    # the pool thread finishes the strip it holds and takes no other
    assert len(helper_strips) == 1


def test_caller_error_is_not_replaced_by_a_pool_thread_error(two_workers):
    meet = _first_strips_meet(threading.Barrier(2))

    def fn(rows):
        meet()
        raise (ValueError if _on_caller() else RuntimeError)("strip")

    with pytest.raises(ValueError):
        for_strips(2 * STRIP_ROWS, fn)


def test_pool_thread_error_propagates(two_workers):
    meet = _first_strips_meet(threading.Barrier(2))

    def fn(rows):
        meet()
        if not _on_caller():
            raise RuntimeError("pool strip")

    with pytest.raises(RuntimeError, match="pool strip"):
        for_strips(2 * STRIP_ROWS, fn)
