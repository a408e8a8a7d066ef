"""Activity weight vectors and their cached partial sums.

A weight vector assigns a nonnegative activity ``w[i]`` to each occupancy
level ``i = 0 .. len(w) - 1`` of a network element, with ``w[0] > 0``.
Partial sums ``S_k = w[0] + ... + w[k]`` are cached at construction because
every downstream formula consumes partial sums, never the raw entries.

Entries may be floats or exact rationals (``fractions.Fraction``); arithmetic
follows the entry type, so vectors built from Fraction rates stay exact all
the way through the partial sums. Every entry, floats included, is a rational
number, so construction also keeps the exact partial sums as plain integers
over one common denominator: ``S_k == N_k / D`` exactly. Sign decisions
(log-concavity, window existence) are taken on those integers, free of
rounding and without rebuilding Fractions on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from numbers import Rational
from pathlib import Path

from ._num import check_int

__all__ = [
    "WeightVector",
    "poisson_weights",
    "geometric_weights",
    "load_weight_file",
]


class AssumptionViolation(ValueError):
    """Edge weights whose partial sums are not strictly log-concave at cap.

    Raised by ``phase1d``, which exports it; it lives here so that the command
    line can map it to its exit code without importing ``phase1d``."""


def _is_valid_entry(x) -> bool:
    if isinstance(x, float):
        return x >= 0.0 and x == x and x != float("inf")
    if isinstance(x, (int, Rational)) and not isinstance(x, bool):
        return x >= 0
    return False


@dataclass(frozen=True)
class WeightVector:
    """Immutable per-occupancy activities with cached partial sums.

    Invariants: ``entries[0] > 0``, all entries nonnegative and finite, and
    ``partial_sums[k] == partial_sums[k-1] + entries[k]`` by construction
    (running recurrence, so the identity holds exactly even in floats).
    ``partial_sums`` is derived, so the constructor takes no value for it.

    The private attribute ``_exact_sums`` holds ``(D, (N_0, ..., N_top))``,
    the exact partial sums as integer numerators over the least common
    denominator of the entries. It is not a field, so equality and repr
    see only ``entries`` and ``partial_sums``.
    """

    entries: tuple
    partial_sums: tuple = field(init=False)

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("weight vector needs at least one entry")
        if not all(_is_valid_entry(e) for e in entries):
            raise ValueError(f"weight entries must be finite and >= 0: {entries!r}")
        if not entries[0] > 0:
            raise ValueError("entries[0] must be positive (normalize before building)")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "partial_sums", tuple(accumulate(entries)))
        object.__setattr__(self, "_exact_sums", _integer_sums(entries))

    def __len__(self) -> int:
        return len(self.entries)


def _clipped_rows(seq, cap: int, cv: int, ce: int) -> tuple:
    """rows[k][j] = seq[min(cap - k - j, ce)] for k, j = 0..cv, and 0 where that index is < 0.

    The edge budget rule: with k and j calls at an edge's end nodes, the edge
    has room for min(cap - k - j, ce) calls of its own. ``seq`` may be float
    partial sums, the integer numerators of ``_exact_sums`` or raw entries;
    the rows depend on k + j only.
    """
    by_sum = [seq[a] if a >= 0 else 0 for a in (min(cap - s, ce) for s in range(2 * cv + 1))]
    return tuple(tuple(by_sum[k : k + cv + 1]) for k in range(cv + 1))


def _integer_sums(entries: tuple) -> tuple[int, tuple]:
    """(D, (N_0, ..., N_top)) with S_k == N_k / D exactly, D the entries' common denominator."""
    ratios = [
        e.as_integer_ratio() if isinstance(e, float) else (int(e.numerator), int(e.denominator))
        for e in entries
    ]
    d = math.lcm(*(den for _, den in ratios))
    return d, tuple(accumulate(num * (d // den) for num, den in ratios))


# Largest top index the rate builders take. A model's float table has
# (cv + 1)**2 entries, a million at this bound, and a vector of 10**6 entries
# took 3.3 s and 350 MB to build (2-core Xeon), so a huge cap is refused instead.
_MAX_TOP_INDEX = 1000


def _rate_series(rate, top_index: int, factorial: bool) -> WeightVector:
    """Entries w_0 = 1, w_i = w_{i-1} * rate (/ i when ``factorial``), in the arithmetic of ``rate``."""
    check_int("weight vector top index", top_index, 0, _MAX_TOP_INDEX)
    if not rate > 0 or rate == math.inf:
        raise ValueError(f"rate must be positive and finite, got {rate!r}")
    entries = [rate / rate]  # unit in the arithmetic of `rate`, so Fractions stay exact
    for i in range(1, top_index + 1):
        entries.append(entries[-1] * rate / i if factorial else entries[-1] * rate)
    return WeightVector(tuple(entries))


def poisson_weights(rate, top_index: int) -> WeightVector:
    """Entries rate**i / i! for i = 0..top_index. Exact when rate is a Fraction."""
    return _rate_series(rate, top_index, factorial=True)


def geometric_weights(rate, top_index: int) -> WeightVector:
    """Entries rate**i for i = 0..top_index (one call served at a time)."""
    return _rate_series(rate, top_index, factorial=False)


def load_weight_file(path) -> WeightVector:
    """Parse a weight file: one decimal real per line.

    Blank lines are skipped; everything after a ``#`` is a comment. The usual
    vector validation (first entry positive, all nonnegative) applies.
    """
    values = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(float(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: not a number: {raw!r}") from exc
    if not values:
        raise ValueError(f"{path}: no weight entries found")
    return WeightVector(tuple(values))
