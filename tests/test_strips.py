"""The strip pool: error handling when a strip raises, worker count, and fork."""

import os
import subprocess
import sys
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


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="needs os.sched_getaffinity")
@pytest.mark.parametrize("value", ["abc", "0"])
def test_thread_count_falls_back_to_usable_cpus(monkeypatch, value):
    # a value that is not a positive integer counts the CPUs this process may use
    monkeypatch.setenv("OMP_NUM_THREADS", value)
    _strips.thread_count.cache_clear()
    try:
        assert _strips.thread_count() == len(os.sched_getaffinity(0))
    finally:
        monkeypatch.undo()
        _strips.thread_count.cache_clear()
        _strips.thread_count()


# Runs four strips on two workers in this process, then again in a forked
# child, which a 10-s alarm kills if the strips never finish; prints the
# child's exit code.
_FORKED_STRIPS = """
import os, signal
from oocs3d._strips import for_strips

def starts():
    seen = []
    for_strips(64, seen.append, 16)
    return sorted(strip.start for strip in seen)

assert starts() == [0, 16, 32, 48]
pid = os.fork()
if pid == 0:
    signal.alarm(10)
    os._exit(0 if starts() == [0, 16, 32, 48] else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_runs_strips_on_its_own_pool():
    # the child inherits the parent's started pool object but none of its threads
    r = subprocess.run([sys.executable, "-c", _FORKED_STRIPS], capture_output=True, text=True, timeout=60,
                       env={**os.environ, "OMP_NUM_THREADS": "2"})
    assert r.returncode == 0, r.stderr
    assert r.stdout == "0\n"
