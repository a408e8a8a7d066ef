"""The fork-join behind every ``--jobs`` option: ``_num.map_tasks``."""
import math
import os
import signal
import time

import pytest

from treeloss._num import map_tasks


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    # no child, running or a zombie, outlives a call
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def deadline():
    """Fail, rather than hang, a call that does not return within 30 s."""
    def too_slow(signum, frame):
        raise TimeoutError("map_tasks did not return")

    old = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def _row(k: int) -> tuple:
    return (k, math.sin(k) * 1e-300, math.exp(k / 7.0), str(k) * (k % 5))


@pytest.mark.parametrize("jobs", [2, 3, 5])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_results_equal_the_serial_list(jobs, n):
    # the tasks are closures, which cannot be pickled: only results cross a pipe
    tasks = [lambda k=k: _row(k) for k in range(n)]
    assert map_tasks(lambda task: task(), tasks, jobs) == [_row(k) for k in range(n)]


def _planted(bad: dict):
    def fn(k):
        if k in bad:
            raise bad[k](f"task {k} failed")
        return _row(k)
    return fn


@pytest.mark.parametrize("bad", [
    {4: ValueError, 8: ZeroDivisionError},  # two children's slices
    {3: KeyError, 4: ValueError},  # this process's slice holds the lowest
    {6: ValueError, 4: ArithmeticError},  # a child's below this process's
])
def test_the_lowest_failing_index_is_raised(bad):
    fn = _planted(bad)
    with pytest.raises(Exception) as serial:
        [fn(k) for k in range(10)]
    with pytest.raises(Exception) as forked:
        map_tasks(fn, list(range(10)), 3)
    assert type(forked.value) is type(serial.value) is bad[min(bad)]
    assert forked.value.args == serial.value.args == (f"task {min(bad)} failed",)


def test_a_dead_child_is_a_runtime_error():
    parent = os.getpid()

    def fn(k):
        if os.getpid() != parent:
            os._exit(3)
        return k

    with pytest.raises(RuntimeError, match=r"sent no results \(exit code 3\)"):
        map_tasks(fn, list(range(6)), 3)


def test_an_interrupt_while_a_child_holds_a_large_result_does_not_hang():
    parent = os.getpid()

    def fn(k):
        if os.getpid() == parent:
            time.sleep(0.2)  # the child is blocked writing by now
            raise KeyboardInterrupt
        return b"x" * (1 << 17)  # more than a pipe buffers (64 KiB)

    with pytest.raises(KeyboardInterrupt):
        map_tasks(fn, [0, 1], 2)


def test_an_interrupt_ends_children_still_computing():
    parent = os.getpid()

    def fn(k):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(600)

    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        map_tasks(fn, [0, 1, 2], 3)
    assert time.monotonic() - t0 < 10
