"""Small helpers shared across modules: count checks, float arithmetic and the
fork-join map behind every ``--jobs`` option."""

from __future__ import annotations

import math
import os
import sys
from typing import Iterable


def is_int(value) -> bool:
    """True for an int that is not a bool: the type every count in the model has."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_int(name: str, value, least: int, most: int | None = None) -> int:
    """Return ``value`` if it is an int (not a bool) in [least, most], else raise ValueError."""
    if not is_int(value) or value < least or (most is not None and value > most):
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an int {bounds}, got {value!r}")
    return value


def check_q(q, least: int = 1) -> int:
    """``check_int("q", q, least)`` for a branching number, which must also be a
    float: the maps raise ratios to the power q as q * log(ratio)."""
    if check_int("q", q, least) > sys.float_info.max:
        raise ValueError(f"q must be at most the largest float, {sys.float_info.max!r}")
    return q


def _usable_cpus() -> int:
    """The number of CPUs this process may run on (its affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def pool_size(jobs: int, tasks: int) -> int:
    """The processes ``map_tasks`` runs ``tasks`` tasks on: ``jobs``, capped at
    the task count and at the usable CPUs, since more would only share them."""
    return min(jobs, tasks, _usable_cpus())


def map_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, on w = ``pool_size(jobs, len(tasks))`` processes.

    This process is worker 0 and forks w - 1 children, so it needs
    ``os.fork`` (Linux or macOS); a fork copies only the calling thread, so
    no task may wait on another thread. Worker k computes tasks k, k + w, ...,
    which spreads costly tasks that sit together in the list over the
    workers. Tasks never leave this process's memory: each child pickles its
    results, or the index and exception of its first failing task, to a pipe
    and leaves by ``os._exit``. Results come back in task order, and a failure
    re-raises the exception of the lowest failing index, so the output and
    error messages are those of the serial loop for any ``jobs``.
    """
    w = pool_size(jobs, len(tasks))
    if w <= 1:
        return [fn(t) for t in tasks]
    import pickle  # only a forking run pays for it

    pids, pipes = [], []
    try:
        for k in range(1, w):
            r, wr = os.pipe()
            pipes.append(r)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(fn, tasks, k, w, wr, pipes)
            finally:
                os.close(wr)
            pids.append(pid)
        parts = [_slice(fn, tasks, 0, w)]
        for pid, r in zip(pids, pipes):
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            try:
                parts.append(pickle.loads(data))
            except Exception:
                pids.remove(pid)
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise RuntimeError(
                    f"worker process {pid} sent no results (exit code {code})"
                ) from None
    except BaseException:
        import signal

        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for r in pipes:
            os.close(r)
        for pid in pids:
            os.waitpid(pid, 0)
    results = [None] * len(tasks)
    failures = []
    for k, (index, value) in enumerate(parts):
        if index is None:
            results[k::w] = value
        else:
            failures.append((index, value))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return results


def _child(fn, tasks: list, k: int, w: int, fd: int, pipes: list):
    """Worker k in a forked child: pickle its slice to ``fd``, then leave by
    ``os._exit``, so no handler or buffer of the parent's runs twice.

    The child first closes the read ends it inherited (its own among them),
    so that a write fails, instead of blocking, once the parent is gone.
    """
    import pickle

    status = 1
    try:
        for r in pipes:
            os.close(r)
        with open(fd, "wb", closefd=False) as pipe:
            pickle.dump(_slice(fn, tasks, k, w), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _slice(fn, tasks: list, k: int, w: int) -> tuple:
    """``(None, results)`` of worker k's tasks k, k + w, ..., or ``(i, exc)``
    for the first of them that raises."""
    out = []
    for i in range(k, len(tasks), w):
        try:
            out.append(fn(tasks[i]))
        except Exception as exc:
            return i, exc
    return None, out


def check_nonneg(name: str, value) -> float:
    """``float(value)`` if that is finite and >= 0, else raise ValueError."""
    x = float(value)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be finite and >= 0, got {x!r}")
    return x


def power(base: float, exponent: float) -> float:
    """base**exponent for base >= 0, exponent >= 0 via exp-of-log; overflow saturates.

    The exp-of-log route keeps large integer exponents (tree branching numbers)
    from tripping pow()'s OverflowError and gives a well-defined 0**e = 0.
    """
    if base == 0.0:
        return 0.0
    if base < 0.0:
        raise ValueError(f"power() requires base >= 0, got {base}")
    try:
        return math.exp(exponent * math.log(base))
    except OverflowError:  # to inf, 1 or 0, by the side of 1 the base is on
        return math.inf if base > 1.0 else 1.0 if base == 1.0 else 0.0


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) over a short sequence; -inf entries drop out."""
    vals = list(values)
    m = max(vals, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    if math.isinf(m):
        return m
    total = 0.0  # added in order: the builtin sum() of floats differs across versions
    for v in vals:
        total += math.exp(v - m)
    return m + math.log(total)
