"""Weight vectors: construction, exact arithmetic, files, log-concavity."""
import dataclasses
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treeloss.phase1d import AssumptionViolation, PhaseParams, condition_a_margin, phase_window
from treeloss.rfmap import ModelParams
from treeloss.weights import (
    WeightVector,
    _clipped_rows,
    geometric_weights,
    load_weight_file,
    poisson_weights,
)

from test_phase1d import _exact_sum, _log_concavity_margin


class TestConstruction:
    def test_entries_and_partial_sums(self):
        w = WeightVector((1.0, 2.0, 4.0))
        assert w.entries == (1.0, 2.0, 4.0)
        assert w.partial_sums == (1.0, 3.0, 7.0)
        assert len(w) == 3

    def test_passed_partial_sums_are_refused(self):
        with pytest.raises(TypeError):
            WeightVector((1.0, 1.0), partial_sums=(5.0, 9.0))
        with pytest.raises(TypeError):
            WeightVector((1, 2), (7, 7))
        assert WeightVector((1.0, 1.0)).partial_sums == (1.0, 2.0)
        w = dataclasses.replace(WeightVector((1, 2)), entries=(1.0, 1.0))
        assert w.partial_sums == (1.0, 2.0) and w == WeightVector((1.0, 1.0))

    def test_rational_entries_stay_rational(self):
        w = WeightVector((Fraction(1), Fraction(3, 4)))
        assert w.partial_sums == (Fraction(1), Fraction(7, 4))
        assert isinstance(w.partial_sums[1], Fraction)

    @pytest.mark.parametrize(
        "entries",
        [
            (),
            (0.0, 1.0),
            (-1.0, 1.0),
            (1.0, -0.5),
            (1.0, float("nan")),
            (1.0, float("inf")),
            (1.0, True),
            (1.0, "2"),
        ],
    )
    def test_bad_entries_rejected(self, entries):
        with pytest.raises(ValueError):
            WeightVector(entries)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=8,
        ).map(lambda t: [1.0] + t)
    )
    def test_partial_sum_recurrence_is_exact(self, entries):
        w = WeightVector(tuple(entries))
        for k in range(1, len(w)):
            assert w.partial_sums[k] == w.partial_sums[k - 1] + w.entries[k]


class TestFamilies:
    def test_poisson_entries(self):
        w = poisson_weights(1.0, 2)
        assert w.entries == (1.0, 1.0, 0.5)
        assert w.partial_sums == (1.0, 2.0, 2.5)

    def test_poisson_exact_with_fraction_rate(self):
        w = poisson_weights(Fraction(3, 4), 2)
        assert w.entries == (Fraction(1), Fraction(3, 4), Fraction(9, 32))
        assert w.partial_sums[2] == Fraction(65, 32)

    def test_geometric_entries(self):
        w = geometric_weights(2.0, 2)
        assert w.entries == (1.0, 2.0, 4.0)
        assert w.partial_sums == (1.0, 3.0, 7.0)

    @pytest.mark.parametrize("factory", [poisson_weights, geometric_weights])
    def test_family_validation(self, factory):
        with pytest.raises(ValueError):
            factory(0.0, 2)
        with pytest.raises(ValueError):
            factory(-1.0, 2)
        with pytest.raises(ValueError):
            factory(1.0, -1)

    @pytest.mark.parametrize("factory", [poisson_weights, geometric_weights])
    def test_top_index_is_at_most_1000(self, factory):
        # a huge cap would otherwise build its vector until memory runs out
        assert len(factory(0.5, 1000)) == 1001
        with pytest.raises(
            ValueError, match=r"weight vector top index must be an int in \[0, 1000\], got 1001"
        ):
            factory(0.5, 1001)

    @pytest.mark.parametrize("factory", [poisson_weights, geometric_weights])
    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, factory, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            factory(rate, 2)

    @given(st.integers(1, 6), st.fractions(min_value="1/100", max_value=50))
    def test_exact_entries_match_float_construction(self, top, rate):
        exact = poisson_weights(rate, top)
        approx = poisson_weights(float(rate), top)
        for a, b in zip(exact.entries, approx.entries):
            assert math.isclose(float(a), b, rel_tol=1e-12)

    def test_exact_helpers_convert_floats_losslessly(self):
        w = WeightVector((1.0, 0.1))
        assert _exact_sum(w, 1) == Fraction(1) + Fraction(0.1)

    def test_exact_sums_of_mixed_entries(self):
        w = WeightVector((Fraction(1, 3), 0.5, 2, 0, 5e-324))
        want = Fraction(0)
        for k, e in enumerate(w.entries):
            want += Fraction(e)
            assert _exact_sum(w, k) == want

    def test_exact_sums_leave_fields_equality_and_pickling_alone(self):
        w = poisson_weights(0.75, 3)
        assert [f.name for f in dataclasses.fields(w)] == ["entries", "partial_sums"]
        assert repr(w) == f"WeightVector(entries={w.entries!r}, partial_sums={w.partial_sums!r})"
        assert w == WeightVector(w.entries) and hash(w) == hash(WeightVector(w.entries))
        back = pickle.loads(pickle.dumps(w))
        assert back == w
        assert back._exact_sums == w._exact_sums


class TestWeightFiles:
    def test_round_trip_with_comments(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# header\n1.0\n\n0.5  # inline\n0.25\n")
        w = load_weight_file(path)
        assert w.entries == (1.0, 0.5, 0.25)

    def test_error_reports_line_number(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("1.0\nnot-a-number\n")
        with pytest.raises(ValueError, match=r":2:"):
            load_weight_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("# nothing\n\n")
        with pytest.raises(ValueError):
            load_weight_file(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_weight_file(tmp_path / "absent.txt")


class TestLogConcavity:
    """The margin S_{cap-1}**2 - S_cap S_{cap-2}, read exactly through
    ``condition_a_margin``; the phase analysis refuses a margin <= 0."""

    def test_margin_exact_value(self):
        # S1^2 - S2*S0 = (7/4)^2 - 65/32 = 33/32 for Poisson rate 3/4
        w = poisson_weights(Fraction(3, 4), 2)
        assert _log_concavity_margin(w, 2) == Fraction(33, 32)

    def test_margin_zero_on_flat_tail(self):
        w = WeightVector((1, 0, 0))
        assert _log_concavity_margin(w, 2) == 0
        with pytest.raises(AssumptionViolation):
            PhaseParams(q=3, cap=2, edge_weights=w, nu=1.0)
        with pytest.raises(AssumptionViolation):
            phase_window(3, 2, w)

    def test_geometric_margin_is_rate(self):
        # (1+r)^2 - (1+r+r^2) = r exactly
        r = Fraction(5, 3)
        w = geometric_weights(r, 2)
        assert _log_concavity_margin(w, 2) == r
        assert PhaseParams(q=3, cap=2, edge_weights=w, nu=1.0).edge_weights == w

    def test_margin_validation(self):
        w = poisson_weights(1.0, 3)
        with pytest.raises(ValueError):
            condition_a_margin(1, 1, w)
        with pytest.raises(ValueError):
            condition_a_margin(1, 2, poisson_weights(1.0, 1))

    @given(
        st.integers(2, 5),
        st.fractions(min_value="1/10", max_value=20),
        st.sampled_from([poisson_weights, geometric_weights]),
    )
    def test_standard_families_are_log_concave(self, cap, rate, factory):
        w = factory(rate, cap)
        assert _log_concavity_margin(w, cap) > 0
        PhaseParams(q=2, cap=cap, edge_weights=w, nu=1.0)  # no AssumptionViolation


# The edge budget rule as three modules wrote it before ``_clipped_rows``.


def _old_coefficients(w, cap, cv, ce):
    """The float coefficient rows as ``rfmap`` once built them: a nested ``clipped``."""

    def clipped(a: int) -> float:
        if a < 0:
            return 0.0
        return float(w.partial_sums[min(a, ce)])

    return tuple(tuple(clipped(cap - k - j) for j in range(cv + 1)) for k in range(cv + 1))


def _old_cross_sums(w, cap, ce):
    """``rfmap._cross_ratio``'s (n0, n1, n2) over the integer numerators."""
    _, nums = w._exact_sums
    return tuple(nums[min(cap - k, ce)] if cap >= k else 0 for k in range(3))


def _old_message(edge_sums, cv, child, room, budget):
    """``oracle._sum_product``'s message from a child table at (room, budget)."""
    if room < 0:
        return [0] * (cv + 1)
    return [
        sum(w * edge_sums[min(room, budget - a - b)]
            for b, w in enumerate(child[: budget - a + 1]))
        for a in range(cv + 1)
    ]


def _budget_cases():
    for cap in range(1, 6):
        for cv in range(1, cap + 1):
            for ce in range(0, cap + 1):
                for w in (
                    poisson_weights(0.75, ce),
                    poisson_weights(Fraction(3, 4), ce),
                    WeightVector(tuple(range(1, ce + 2))),
                ):
                    yield cap, cv, ce, w


class TestClippedRows:
    def test_rows_follow_the_budget_rule(self):
        for cap, cv, ce, w in _budget_cases():
            rows = _clipped_rows(w.partial_sums, cap, cv, ce)
            for k in range(cv + 1):
                for j in range(cv + 1):
                    a = cap - k - j
                    want = w.partial_sums[min(a, ce)] if a >= 0 else 0
                    assert rows[k][j] == want and type(rows[k][j]) is type(want)

    def test_equals_the_coefficient_rows(self):
        for cap, cv, ce, w in _budget_cases():
            rows = _clipped_rows(w.partial_sums, cap, cv, ce)
            got = tuple(tuple(map(float, row)) for row in rows)
            want = _old_coefficients(w, cap, cv, ce)
            assert got == want, (cap, cv, ce, w)
            table = ModelParams(2, cap, cv, ce, poisson_weights(1.0, cv), w)._rows
            assert table == want, (cap, cv, ce, w)
            assert all(type(x) is float for row in table for x in row)

    def test_equals_the_cross_ratio_sums(self):
        for cap, _, ce, w in _budget_cases():
            (n0, n1), (n1_again, n2) = _clipped_rows(w._exact_sums[1], cap, 1, ce)
            assert n1 == n1_again
            assert (n0, n1, n2) == _old_cross_sums(w, cap, ce)

    def test_equals_the_oracle_messages(self):
        # every room the oracle used: ce, ce - 1 (an edge lead; -1 when ce = 0)
        for cap, cv, ce, w in _budget_cases():
            edge_sums = w._exact_sums[1]
            for room, budget in ((ce, cap), (ce, cap - 1), (ce - 1, cap - 1)):
                rows = _clipped_rows(edge_sums, budget, cv, room)
                for b in range(cv + 1):
                    child = [0] * (cv + 1)
                    child[b] = 1
                    got = [sum(x * r for x, r in zip(child, row)) for row in rows]
                    assert got == _old_message(edge_sums, cv, child, room, budget)
