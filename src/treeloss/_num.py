"""Small helpers shared across modules: count checks, float arithmetic and the
process-pool map behind every ``--jobs`` option."""

from __future__ import annotations

import math
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


def map_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, on ``jobs`` worker processes when that is > 1.

    Results come back in task order, so output built from them does not depend
    on ``jobs``. ``concurrent.futures`` is imported only when a pool starts,
    which keeps its cost off serial runs.
    """
    if jobs == 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))


def check_nonneg(name: str, value) -> float:
    """``float(value)`` if that is finite and >= 0, else raise ValueError."""
    x = float(value)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be finite and >= 0, got {x!r}")
    return x


def power(base: float, exponent: float) -> float:
    """base**exponent for base >= 0 via exp-of-log; overflow saturates to inf.

    The exp-of-log route keeps large integer exponents (tree branching numbers)
    from tripping pow()'s OverflowError and gives a well-defined 0**e = 0.
    """
    if base == 0.0:
        return 0.0
    if base < 0.0:
        raise ValueError(f"power() requires base >= 0, got {base}")
    try:
        return math.exp(exponent * math.log(base))
    except OverflowError:
        return math.inf


def log_sum_exp(values: Iterable[float]) -> float:
    """log(sum(exp(v))) over a short sequence; -inf entries drop out."""
    vals = list(values)
    m = max(vals, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    if math.isinf(m):
        return m
    return m + math.log(sum(math.exp(v - m) for v in vals))
