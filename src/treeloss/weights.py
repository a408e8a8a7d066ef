"""Activity weight vectors and their cached partial sums.

A weight vector assigns a nonnegative activity ``w[i]`` to each occupancy
level ``i = 0 .. top_index`` of a network element, with ``w[0] > 0``.
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
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from pathlib import Path

from ._num import check_int

__all__ = [
    "WeightVector",
    "poisson_weights",
    "geometric_weights",
    "load_weight_file",
    "log_concavity_margin",
    "partial_sums_log_concave",
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

    The private attribute ``_exact_sums`` holds ``(D, (N_0, ..., N_top))``,
    the exact partial sums as integer numerators over the least common
    denominator of the entries. It is not a field, so equality and repr
    see only ``entries`` and ``partial_sums``.
    """

    entries: tuple
    partial_sums: tuple = None  # derived; any value passed in is ignored

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ValueError("weight vector needs at least one entry")
        if not all(_is_valid_entry(e) for e in entries):
            raise ValueError(f"weight entries must be finite and >= 0: {entries!r}")
        if not entries[0] > 0:
            raise ValueError("entries[0] must be positive (normalize before building)")
        sums = []
        acc = entries[0]
        sums.append(acc)
        for e in entries[1:]:
            acc = acc + e
            sums.append(acc)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "partial_sums", tuple(sums))
        object.__setattr__(self, "_exact_sums", _integer_sums(entries))

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def top_index(self) -> int:
        return len(self.entries) - 1

    def partial_sum(self, k: int):
        """S_k = entries[0] + ... + entries[k]; k outside [0, top_index] is rejected."""
        return self.partial_sums[check_int("partial sum index", k, 0, self.top_index)]

    def exact_partial_sum(self, k: int) -> Fraction:
        """S_k as the exact rational the entries sum to (float entries included)."""
        d, nums = self._exact_sums
        return Fraction(nums[check_int("partial sum index", k, 0, self.top_index)], d)


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
    nums = []
    acc = 0
    for num, den in ratios:
        acc += num * (d // den)
        nums.append(acc)
    return d, tuple(nums)


def _rate_series(rate, top_index: int, factorial: bool) -> WeightVector:
    """Entries w_0 = 1, w_i = w_{i-1} * rate (/ i when ``factorial``), in the arithmetic of ``rate``."""
    check_int("top_index", top_index, 0)
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
    """Entries rate**i for i = 0..top_index (processor-sharing service)."""
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


def log_concavity_margin(w: WeightVector, cap: int) -> Fraction:
    """S_{cap-1}**2 - S_cap * S_{cap-2} as an exact rational.

    Positive iff the partial-sum sequence is strictly log-concave at index
    cap-1, which is what makes the scalar occupancy-ratio map decreasing.
    Computed on the integer numerators at scale D**2.
    """
    check_int("cap", cap, 2)
    if w.top_index < cap:
        raise ValueError(f"need entries up to index {cap}, have {w.top_index}")
    d, n0, n1, n2 = _exact_window_sums(cap, w)
    return Fraction(n1 * n1 - n2 * n0, d * d)


def _exact_window_sums(cap: int, w: WeightVector) -> tuple[int, int, int, int]:
    """(D, N_{cap-2}, N_{cap-1}, N_cap): the exact sums S_k = N_k / D at cap."""
    d, nums = w._exact_sums
    return (d, *nums[cap - 2 : cap + 1])


def partial_sums_log_concave(w: WeightVector, cap: int) -> bool:
    """True iff the log-concavity margin at cap is strictly positive.

    Decided exactly on the integer partial sums; a margin of exactly zero (e.g. a
    vector whose partial sums are constant from cap-2 on) returns False.
    """
    return log_concavity_margin(w, cap) > 0
