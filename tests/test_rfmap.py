"""Ratio map, interaction form, and the iteration-based uniqueness test."""
import dataclasses
import math
import pickle
import sys
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treeloss._num import check_int, power
from treeloss.phase1d import PhaseParams, classify_closed_form, phase_window
from treeloss.rfmap import (
    ModelParams,
    Uniqueness,
    UniquenessVerdict,
    _cross_ratio,
    _iterate,
    _map_step,
    _pair_interaction,
    _scalar_map,
    classify_by_iteration,
    conjugate_maps,
    interaction_map,
    random_field_map,
)
from treeloss.weights import WeightVector, _clipped_rows, geometric_weights, poisson_weights


def _params(q=10, cap=2, cv=1, ce=2, nu=40.0, lam=0.75):
    return ModelParams(
        q=q,
        cap=cap,
        cv=cv,
        ce=ce,
        node_weights=poisson_weights(nu, cv),
        edge_weights=poisson_weights(lam, ce),
    )


def _reference_map(p, xi):
    """Literal double-sum form of the map, independent of the coefficient cache."""
    lam = [float(v) for v in p.edge_weights.entries]
    nus = [float(v) for v in p.node_weights.entries]

    def inner(top):
        return 1.0 + sum(xi[j - 1] for j in range(1, min(top, p.cv) + 1))

    den = sum(lam[i] * inner(p.cap - i) for i in range(p.ce + 1))
    out = []
    for k in range(1, p.cv + 1):
        num = sum(lam[i] * inner(p.cap - k - i) for i in range(min(p.cap - k, p.ce) + 1))
        out.append(nus[k] * (num / den) ** p.q if num > 0 else 0.0)
    return tuple(out)


@st.composite
def model_params(draw, max_cv=None):
    q = draw(st.integers(1, 6))
    cap = draw(st.integers(1, 4))
    cv = draw(st.integers(1, min(max_cv, cap) if max_cv else cap))
    ce = draw(st.integers(0, cap))
    nu_rate = draw(st.floats(min_value=0.05, max_value=60.0))
    lam_rate = draw(st.floats(min_value=0.05, max_value=5.0))
    family = draw(st.sampled_from([poisson_weights, geometric_weights]))
    return ModelParams(
        q=q,
        cap=cap,
        cv=cv,
        ce=ce,
        node_weights=poisson_weights(nu_rate, cv),
        edge_weights=family(lam_rate, ce),
    )


class TestMap:
    def test_hand_value_at_zero(self):
        p = _params()
        expected = 40 * Fraction(7, 4) ** 10 / Fraction(65, 32) ** 10
        (got,) = random_field_map(p, (0.0,))
        assert math.isclose(got, float(expected), rel_tol=1e-13)

    def test_zero_edge_cap_makes_map_constant(self):
        p = ModelParams(
            q=3,
            cap=2,
            cv=1,
            ce=0,
            node_weights=poisson_weights(7.0, 1),
            edge_weights=WeightVector((1.0,)),
        )
        for xi in ((0.0,), (3.0,), (250.0,)):
            assert random_field_map(p, xi) == (7.0,)

    def test_vanishing_node_weight_gives_zero_component(self):
        p = ModelParams(
            q=2,
            cap=2,
            cv=2,
            ce=1,
            node_weights=WeightVector((1.0, 3.0, 0.0)),
            edge_weights=poisson_weights(1.0, 1),
        )
        out = random_field_map(p, (0.5, 0.5))
        assert out[1] == 0.0
        assert out[0] > 0.0

    @given(model_params(), st.data())
    def test_agrees_with_literal_double_sum(self, p, data):
        xi = tuple(
            data.draw(st.floats(min_value=0.0, max_value=5.0)) for _ in range(p.cv)
        )
        got = random_field_map(p, xi)
        want = _reference_map(p, xi)
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-300)

    @given(model_params(), st.data())
    def test_bounded_by_node_weights(self, p, data):
        xi = tuple(
            data.draw(st.floats(min_value=0.0, max_value=100.0)) for _ in range(p.cv)
        )
        out = random_field_map(p, xi)
        for k, v in enumerate(out):
            nu_k = float(p.node_weights.entries[k + 1])
            assert 0.0 <= v <= nu_k * (1 + 1e-12)
            if nu_k > 0.0:
                assert v > 0.0

    # a row sum T_k that overflows would make the ratio inf/inf = nan
    _HUGE_EDGES = ModelParams(2, 2, 1, 2, WeightVector((1.0, 1e10)), WeightVector((1e300,) * 3))

    @pytest.mark.parametrize("fn,p,vec", [
        (random_field_map, _HUGE_EDGES, (1e10,)),
        (interaction_map, _HUGE_EDGES, (1.0, 1e10)),
        # ordinary models on huge vectors
        (random_field_map,
         ModelParams(2, 2, 1, 2, poisson_weights(3.0, 1), WeightVector((10.0, 1.0, 1.0))),
         (1e308,)),
        (interaction_map,
         ModelParams(2, 2, 1, 2, poisson_weights(3.0, 1), poisson_weights(2.0, 2)),
         (1.0, 1e308)),
    ])
    def test_overflowing_row_sum_is_refused(self, fn, p, vec):
        with pytest.raises(ValueError, match=r"row sums \[inf, .*\] at this vector are too large for floats"):
            fn(p, vec)

    def test_input_validation(self):
        p = _params()
        with pytest.raises(ValueError):
            random_field_map(p, (0.0, 0.0))
        with pytest.raises(ValueError):
            random_field_map(p, (-0.1,))
        with pytest.raises(ValueError):
            random_field_map(p, (float("nan"),))

    def test_params_validation(self):
        w1 = poisson_weights(1.0, 1)
        with pytest.raises(ValueError):
            ModelParams(q=0, cap=2, cv=1, ce=1, node_weights=w1, edge_weights=w1)
        with pytest.raises(ValueError):
            ModelParams(q=2, cap=0, cv=1, ce=1, node_weights=w1, edge_weights=w1)
        with pytest.raises(ValueError):
            ModelParams(q=2, cap=2, cv=3, ce=1, node_weights=w1, edge_weights=w1)
        with pytest.raises(ValueError):
            ModelParams(q=2, cap=2, cv=1, ce=3, node_weights=w1, edge_weights=w1)
        with pytest.raises(ValueError):  # node_weights[0] must be 1
            ModelParams(
                q=2,
                cap=2,
                cv=1,
                ce=1,
                node_weights=WeightVector((2.0, 1.0)),
                edge_weights=w1,
            )
        with pytest.raises(ValueError):  # length mismatch
            ModelParams(
                q=2,
                cap=2,
                cv=2,
                ce=1,
                node_weights=w1,
                edge_weights=w1,
            )
        with pytest.raises(ValueError, match=r"^edge_weights needs length ce\+1=3, got 2$"):
            ModelParams(q=2, cap=2, cv=1, ce=2, node_weights=w1, edge_weights=w1)

    def test_q_beyond_the_float_range_is_refused(self):
        # the maps raise x to the power q through q * log(x), so q must be a float
        w1 = poisson_weights(1.0, 1)
        top = int(sys.float_info.max)
        p = ModelParams(q=top, cap=2, cv=1, ce=1, node_weights=w1, edge_weights=w1)
        # m(0) = (2/2)**q = 1 and m(1) = (3/4)**q = 0: a two-cycle
        v = classify_by_iteration(p)
        assert (v.kind, v.even_limit, v.odd_limit) == (Uniqueness.MULTIPLE, (0.0,), (1.0,))
        with pytest.raises(ValueError, match=r"q must be at most the largest float, 1.79\d*e\+308"):
            ModelParams(q=top + 1, cap=2, cv=1, ce=1, node_weights=w1, edge_weights=w1)

    def test_coefficient_table_leaves_fields_equality_and_repr_alone(self):
        p = _params(cv=2, nu=30.0)
        twin = _params(cv=2, nu=30.0)
        assert [f.name for f in dataclasses.fields(p)] == [
            "q", "cap", "cv", "ce", "node_weights", "edge_weights"
        ]
        assert p == twin and hash(p) == hash(twin)
        assert p != _params(cv=2, nu=31.0)
        assert repr(p) == (
            f"ModelParams(q=10, cap=2, cv=2, ce=2, node_weights={p.node_weights!r}, "
            f"edge_weights={p.edge_weights!r})"
        )
        back = pickle.loads(pickle.dumps(p))
        assert back == p and back._rows == p._rows


class TestClassification:
    def test_unique_below_window(self):
        v = classify_by_iteration(_params(nu=5.0))
        assert v.kind is Uniqueness.UNIQUE
        assert v.fixed_point is not None
        assert v.even_limit is None

    def test_multiple_inside_window(self):
        v = classify_by_iteration(_params(nu=50.0))
        assert v.kind is Uniqueness.MULTIPLE
        assert v.fixed_point is None
        gap = abs(v.even_limit[0] - v.odd_limit[0])
        assert gap > 1e-8
        # even iterates start at 0 and stay below the odd ones
        assert v.even_limit[0] < v.odd_limit[0]

    def test_constant_map_converges_immediately(self):
        p = ModelParams(
            q=4,
            cap=2,
            cv=1,
            ce=0,
            node_weights=poisson_weights(9.0, 1),
            edge_weights=WeightVector((1.0,)),
        )
        v = classify_by_iteration(p)
        assert v.kind is Uniqueness.UNIQUE
        assert v.iterations == 2
        assert v.fixed_point == (9.0,)

    def test_unique_fixed_point_is_fixed(self):
        v = classify_by_iteration(_params(nu=5.0))
        image = random_field_map(_params(nu=5.0), v.fixed_point)
        scale = 1.0 + max(v.fixed_point)
        assert abs(image[0] - v.fixed_point[0]) <= 1e-11 * scale

    def test_multiple_limits_fixed_under_doubled_map(self):
        p = _params(nu=50.0)
        v = classify_by_iteration(p)
        for limit in (v.even_limit, v.odd_limit):
            twice = random_field_map(p, random_field_map(p, limit))
            scale = 1.0 + max(limit)
            assert abs(twice[0] - limit[0]) <= 1e-9 * scale

    def test_budget_exhaustion_is_inconclusive(self):
        v = classify_by_iteration(_params(nu=50.0), max_iter=4)
        assert v.kind is Uniqueness.INCONCLUSIVE
        assert v.iterations == 4
        assert v.fixed_point is None
        assert v.even_limit is not None and v.odd_limit is not None

    def test_tolerance_ordering_enforced(self):
        with pytest.raises(ValueError):
            classify_by_iteration(_params(), tol=1e-8, sep=1e-8)
        with pytest.raises(ValueError):
            classify_by_iteration(_params(), tol=1e-6, sep=1e-8)
        with pytest.raises(ValueError):
            classify_by_iteration(_params(), max_iter=3)


@st.composite
def scalar_params(draw):
    """cv = 1 models with ce < cap, loads spread over four decades."""
    cap = draw(st.integers(1, 4))
    ce = draw(st.integers(0, cap - 1))
    family = draw(st.sampled_from([poisson_weights, geometric_weights]))
    return ModelParams(
        q=draw(st.integers(1, 20)),
        cap=cap,
        cv=1,
        ce=ce,
        node_weights=poisson_weights(10.0 ** draw(st.floats(-1.0, 3.0)), 1),
        edge_weights=family(draw(st.floats(min_value=0.05, max_value=5.0)), ce),
    )


def _mp_root(f, x, width=1e-6):
    """The root of f within ``width`` (relative) of the float x, to 50 digits."""
    lo, hi = mpmath.mpf(x) * (1 - width), mpmath.mpf(x) * (1 + width)
    assert f(lo) * f(hi) < 0, x
    return mpmath.findroot(f, (lo, hi), solver="anderson")


def _mp_scalar_map(p):
    """The cv = 1 map at 50 digits, on the exact edge sums instead of their floats."""
    d, nums = p.edge_weights._exact_sums
    (b0, b1), (a0, a1) = (
        [mpmath.mpf(n) / d for n in row] for row in _clipped_rows(nums, p.cap, 1, p.ce)
    )
    nu = mpmath.mpf(p.node_weights.entries[1])
    return lambda x: nu * ((a0 + a1 * x) / (b0 + b1 * x)) ** p.q


class TestScalarFallback:
    """A nonincreasing cv = 1 map: x* bisected below its sandwich's top, then its slope read."""

    def test_readme_grid_is_fully_decided(self):
        win = phase_window(10, 2, poisson_weights(0.75, 2))
        methods = set()
        for k in range(299):
            nu = 1.0 + 0.5 * k
            v = classify_by_iteration(_params(nu=nu), max_iter=10**5)
            expect = Uniqueness.MULTIPLE if win.nu_minus < nu < win.nu_plus else Uniqueness.UNIQUE
            assert v.kind is expect, (nu, v)
            methods.add(v.method)
        assert methods == {"bisection"}

    @mpmath.workdps(50)
    def test_readme_grid_matches_50_digit_roots(self):
        for k in range(299):
            p = _params(nu=1.0 + 0.5 * k)
            v, m = classify_by_iteration(p), _mp_scalar_map(p)
            if v.kind is Uniqueness.UNIQUE:
                (x,) = v.fixed_point
                root = _mp_root(lambda t: m(t) - t, x)
                assert abs(x - root) <= 2e-15 * root, (k, x, root)
            else:
                # near the endpoints m(m(y)) - y is flat at the cycle, so its float noise shows
                (even,), (odd,) = v.even_limit, v.odd_limit
                root = _mp_root(lambda t: m(m(t)) - t, even)
                assert abs(even - root) <= 1e-12 * root, (k, even, root)
                assert abs(odd - m(root)) <= 1e-12 * m(root), (k, odd, m(root))

    @pytest.mark.parametrize(
        "nu", [26.5, 26.7, 26.77, 26.771, 26.8, 90.7, 90.72, 90.73, 91.0, 93.0]
    )
    def test_near_endpoint_loads_match_closed_form(self, nu):
        closed = classify_closed_form(
            PhaseParams(q=10, cap=2, edge_weights=poisson_weights(0.75, 2), nu=nu)
        )
        v = classify_by_iteration(_params(nu=nu))
        assert v.kind is closed.kind
        assert v.method == "bisection"

    def test_method_names_the_decider(self):
        for nu in (1.0, 26.5, 50.0):
            assert classify_by_iteration(_params(nu=nu)).method == "bisection"
        # cv >= 2 is iterated
        v = classify_by_iteration(_params(cap=2, cv=2, ce=2, nu=5.0))
        assert (v.kind, v.method) == (Uniqueness.UNIQUE, "iteration")

    def test_verdict_does_not_depend_on_tolerances(self):
        loose = classify_by_iteration(_params(nu=26.5), tol=1e-9, sep=1e-3)
        tight = classify_by_iteration(_params(nu=26.5))
        assert loose.method == tight.method == "bisection"
        assert loose == tight

    # 26.5 takes 56 evaluations (2 for the sandwich, 54 bisecting x*), 50 takes 165
    # (then 54 bisections of m(m(y)) - y, 2 evaluations each, and the odd limit)
    @pytest.mark.parametrize("nu,max_iter", [(26.5, 4), (26.5, 55), (50.0, 150)])
    def test_budget_runs_out_during_bisection(self, nu, max_iter):
        p = _params(nu=nu)
        v = classify_by_iteration(p, max_iter=max_iter)
        assert v.kind is Uniqueness.INCONCLUSIVE
        assert v.iterations == max_iter
        assert v.method == "iteration"
        # the sandwich: iterates 2 and 1
        m = _scalar_map(p)
        assert v.even_limit == (m(m(0.0)),) and v.odd_limit == (m(0.0),)
        assert 0.0 < v.even_limit[0] < v.odd_limit[0]

    @given(scalar_params())
    def test_fallback_verdicts_are_fixed_points(self, p):
        def m(x):
            return random_field_map(p, (x,))[0]

        v = classify_by_iteration(p)
        if v.kind is Uniqueness.UNIQUE:
            (x,) = v.fixed_point
            assert abs(m(x) - x) <= 1e-10 * (1.0 + x)
        else:
            assert v.kind is Uniqueness.MULTIPLE
            (even,), (odd,) = v.even_limit, v.odd_limit
            scale = 1.0 + odd
            assert even < odd
            assert abs(m(even) - odd) <= 1e-10 * scale
            for y in (even, odd):
                assert abs(m(m(y)) - y) <= 1e-9 * scale


def _increasing(q, nu, entries):
    """A cv = 1 model whose edge sums are not log-concave at cap = 2, so m increases."""
    p = ModelParams(q, 2, 1, 2, poisson_weights(nu, 1), WeightVector(entries))
    assert _cross_ratio(p) > 0.0
    return p


class TestIncreasingMap:
    """An increasing cv = 1 map is iterated from 0 and from nu_1, and the limits compared."""

    @pytest.mark.parametrize("nu,low,high", [
        (1e5, 9.05286954692983e-16, 98995.45226377445),
        (1e4, 9.052869546929828e-17, 8948.306294630003),
    ])
    def test_two_limits_are_multiple(self, nu, low, high):
        # iteration from 0 alone stops at the least fixed point after one step
        p = _increasing(10, nu, (1.0, 0.0, 100.0))
        v = classify_by_iteration(p)
        assert v.kind is Uniqueness.MULTIPLE
        assert (v.even_limit, v.odd_limit) == ((low,), (high,))
        m = _scalar_map(p)
        for (x,) in (v.even_limit, v.odd_limit):
            assert abs(m(x) - x) <= 1e-12 * (1.0 + x)

    def test_one_limit_is_unique(self):
        v = classify_by_iteration(_increasing(10, 1000.0, (1.0, 0.0, 100.0)))
        assert v.kind is Uniqueness.UNIQUE
        assert v.fixed_point == (9.052869546929829e-18,)
        # one step from 0, five from nu_1
        assert v.iterations == 6

    def test_slow_climb_counts_both_runs(self):
        p = _increasing(3, 3.0, (1.0, 0.5, 3.0))
        v = classify_by_iteration(p)
        assert (v.kind, v.iterations) == (Uniqueness.UNIQUE, 27)
        assert v.fixed_point == _vector_classify(p).fixed_point

    @pytest.mark.parametrize("max_iter,last", [(13, 3.0), (14, None), (26, None)])
    def test_budget_runs_out_in_the_second_run(self, max_iter, last):
        # the run from 0 takes 13 steps; what is left goes to the run from nu_1
        p = _increasing(3, 3.0, (1.0, 0.5, 3.0))
        low = _vector_classify(p)
        v = classify_by_iteration(p, max_iter=max_iter)
        assert v.kind is Uniqueness.INCONCLUSIVE
        assert v.iterations == max_iter
        assert v.even_limit == low.fixed_point
        x = 3.0
        for _ in range(max_iter - 13):
            x = _scalar_map(p)(x)
        assert v.odd_limit == (x,)
        assert last is None or x == last

    def test_budget_runs_out_in_the_first_run(self):
        p = _increasing(3, 3.0, (1.0, 0.5, 3.0))
        assert classify_by_iteration(p, max_iter=12) == _vector_classify(p, max_iter=12)


def _vector_step(p):
    """The generic vector map step for any cv with its own loops: the reference for
    ``rfmap._map_step``, which forms the same sums in ``rfmap._row_sums``."""
    rows = p._rows
    den, num = rows[0], rows[1:]
    nus = tuple(float(v) for v in p.node_weights.entries[1:])
    q, cv = p.q, p.cv

    def step(x: tuple) -> tuple:
        d = den[0]
        for j in range(cv):
            d += den[j + 1] * x[j]
        out = []
        for k in range(cv):
            nu_k = nus[k]
            if nu_k == 0.0:
                out.append(0.0)
                continue
            row = num[k]
            n = row[0]
            for j in range(cv):
                n += row[j + 1] * x[j]
            out.append(nu_k * power(n / d, q) if n > 0.0 else 0.0)
        return tuple(out)

    return step


def _sup_gap(a: tuple, b: tuple) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _vector_classify(p, tol=1e-12, sep=1e-8, max_iter=10**6):
    """The plain vector loop from the zero vector for every cv: the reference for
    ``classify_by_iteration``'s loop, and for its verdict kinds at cv == 1."""
    if not 0.0 < tol < sep:
        raise ValueError(f"need 0 < tol < sep, got tol={tol}, sep={sep}")
    check_int("max_iter", max_iter, 4)

    step = _vector_step(p)
    xs = [(0.0,) * p.cv]  # xs[n] = xi^(n); only the last four are kept

    for n in range(1, max_iter + 1):
        x_new = step(xs[-1])
        xs.append(x_new)
        scale = 1.0 + max(x_new)

        if _sup_gap(x_new, xs[-2]) <= tol * scale:
            return UniquenessVerdict(Uniqueness.UNIQUE, n, fixed_point=x_new)

        if len(xs) >= 4:
            gap_here = _sup_gap(x_new, xs[-3])
            gap_prev = _sup_gap(xs[-2], xs[-4])
            cycle = _sup_gap(x_new, xs[-2])
            if gap_here <= tol * scale and gap_prev <= tol * scale and cycle > sep * scale:
                a, b = x_new, xs[-2]  # parities n and n-1
                even_limit, odd_limit = (a, b) if n % 2 == 0 else (b, a)
                # each limit must be numerically fixed under the doubled map
                if (
                    _sup_gap(step(step(a)), a) <= 50 * tol * scale
                    and _sup_gap(step(step(b)), b) <= 50 * tol * scale
                ):
                    return UniquenessVerdict(
                        Uniqueness.MULTIPLE, n, even_limit=even_limit, odd_limit=odd_limit
                    )

        if len(xs) > 4:
            xs.pop(0)

    a, b = xs[-1], xs[-2]
    even_tail, odd_tail = (a, b) if max_iter % 2 == 0 else (b, a)
    return UniquenessVerdict(
        Uniqueness.INCONCLUSIVE, max_iter, even_limit=even_tail, odd_limit=odd_tail
    )


@st.composite
def monotone_scalar_params(draw):
    """cv = 1 models whose map is nonincreasing, loads from 1e-3 to 1e4."""
    cap = draw(st.integers(1, 5))
    ce = draw(st.integers(0, cap))
    family = draw(st.sampled_from([poisson_weights, geometric_weights]))
    p = ModelParams(
        q=draw(st.integers(1, 15)),
        cap=cap,
        cv=1,
        ce=ce,
        node_weights=poisson_weights(10.0 ** draw(st.floats(-3.0, 4.0)), 1),
        edge_weights=family(draw(st.floats(min_value=0.05, max_value=5.0)), ce),
    )
    assume(_cross_ratio(p) <= 0.0)
    return p


class TestScalarPath:
    """The scalar map gives the vector formula bit for bit, and the nonincreasing
    cv = 1 decider gives the plain vector loop's verdict kinds wherever that loop decides."""

    @settings(max_examples=300)
    @given(
        monotone_scalar_params(),
        st.sampled_from([4, 5, 30, 60, 130, 10**5]),
        st.sampled_from([(1e-12, 1e-8), (1e-9, 1e-8), (1e-6, 1e-3), (1e-4, 1e-2)]),
    )
    @example(_params(nu=26.5), 66, (1e-12, 1e-8))
    @example(_params(nu=50.0), 130, (1e-12, 1e-8))
    def test_verdict_equals_vector_loop(self, p, max_iter, tols):
        tol, sep = tols
        full = classify_by_iteration(p, tol=tol, sep=sep)
        # at loose tolerances a slow approach to x* passes the loop's two-cycle test
        ref = _vector_classify(p, max_iter=10**4)
        if ref.kind is not Uniqueness.INCONCLUSIVE:
            assert full.kind is ref.kind
        # a budget either suffices for the same verdict or runs out
        got = classify_by_iteration(p, tol=tol, sep=sep, max_iter=max_iter)
        assert got == full or (got.kind, got.iterations) == (Uniqueness.INCONCLUSIVE, max_iter)

    @pytest.mark.parametrize("max_iter", [5, 66, 10**5])
    def test_readme_grid_equals_vector_loop(self, monkeypatch, max_iter):
        # the decider on the vector step gives the same verdicts, budgets included
        grid = [_params(nu=1.0 + 0.5 * k) for k in range(299)]
        got = [classify_by_iteration(p, max_iter=max_iter) for p in grid]
        monkeypatch.setattr(
            "treeloss.rfmap._scalar_map", lambda p: lambda x: _vector_step(p)((x,))[0]
        )
        assert [classify_by_iteration(p, max_iter=max_iter) for p in grid] == got

    @pytest.mark.parametrize("p", [
        _params(),
        _params(q=15, cap=1, ce=1, nu=1e4, lam=5.0),  # cap = 1: a1 = 0
        _params(q=3, cap=3, ce=0, nu=2.0),  # ce = 0: a constant map
        ModelParams(2, 2, 1, 2, WeightVector((1.0, 0.0)), poisson_weights(0.75, 2)),
        # n/d underflows to 0 at small x: a0 = 1e-200 against b0 near 1e200
        ModelParams(3, 1, 1, 1, WeightVector((1.0, 7.0)), WeightVector((1e-200, 1e200))),
    ])
    @pytest.mark.parametrize("x", [0.0, 5e-324, 1e-300, 1.0, 1e300, math.inf])
    def test_scalar_map_equals_vector_formula(self, p, x):
        want = _vector_step(p)((x,))[0]
        for got in (_scalar_map(p)(x), _map_step(p)((x,))[0]):
            assert got == want or (math.isnan(got) and math.isnan(want))
            assert math.copysign(1.0, got) == math.copysign(1.0, want)

    # the even end m(m(0)) above the odd end m(0), and a negative odd end
    @pytest.mark.parametrize("fake,end", [(lambda x: x + 1.0, "even"), (lambda x: -1.0, "odd")])
    def test_sandwich_breach_raises(self, monkeypatch, fake, end):
        monkeypatch.setattr("treeloss.rfmap._scalar_map", lambda p: fake)
        with pytest.raises(RuntimeError, match="iterates left the monotone sandwich"):
            classify_by_iteration(_params())

    def test_rounding_may_order_the_sandwich_ends(self):
        # a map flat to rounding: m(m(0)) lands 41 ulp above m(0), within tol (1 + x)
        p = ModelParams(36, 4, 1, 4, poisson_weights(0.08482015299099029, 1),
                        geometric_weights(2.4311518850881892, 4))
        m = _scalar_map(p)
        assert m(m(0.0)) > m(0.0)
        v = classify_by_iteration(p)
        assert v.kind is Uniqueness.UNIQUE
        (x,) = v.fixed_point
        assert m(m(0.0)) >= x >= m(0.0)

    @pytest.mark.parametrize("p", [
        # T_1 = 2e300 + 1e300 * 1e10 overflows, so the step would form inf/inf
        ModelParams(2, 2, 1, 2, WeightVector((1.0, 1e10)), WeightVector((1e300,) * 3)),
        ModelParams(2, 2, 2, 2, WeightVector((1.0, 1e10, 1.0)), WeightVector((1e300,) * 3)),
    ])
    def test_overflowing_numerator_is_refused(self, p):
        with pytest.raises(ValueError, match="numerator at the node weights is inf"):
            classify_by_iteration(p)

    def test_cases_reach_nan_and_underflow(self):
        assert math.isnan(_scalar_map(_params())(math.inf))
        p = ModelParams(3, 1, 1, 1, WeightVector((1.0, 7.0)), WeightVector((1e-200, 1e200)))
        assert 1e-200 / float(p.edge_weights.partial_sums[1]) == 0.0
        assert _scalar_map(p)(0.0) == 0.0


@st.composite
def vector_params(draw, least_cv=2):
    """cv = least_cv..3 models at every ce, loads from 1e-2 to 1e3."""
    cv = draw(st.integers(least_cv, 3))
    cap = draw(st.integers(cv, 5))
    ce = draw(st.integers(0, cap))
    family = draw(st.sampled_from([poisson_weights, geometric_weights]))
    return ModelParams(
        q=draw(st.integers(1, 12)),
        cap=cap,
        cv=cv,
        ce=ce,
        node_weights=poisson_weights(10.0 ** draw(st.floats(-2.0, 3.0)), cv),
        edge_weights=family(draw(st.floats(min_value=0.05, max_value=5.0)), ce),
    )


def _log_concave_reference(p):
    """Whether S(min(a, ce)), a = 0..cap, is log-concave, in Fractions."""
    sums = list(accumulate(Fraction(e) for e in p.edge_weights.entries))
    s = [sums[min(a, p.ce)] for a in range(p.cap + 1)]
    return all(s[a] * s[a] >= s[a - 1] * s[a + 1] for a in range(1, p.cap))


# edge sums 1, 1.04, 2.34, not log-concave: Phi has two fixed points, (0.0032, 0.076)
# reached from 0 and (31.9, 7.7e-16) reached from (nu_1, 0)
_UNORDERED = ModelParams(12, 2, 2, 2, poisson_weights(79.35687883366793, 2),
                         WeightVector((1.0, 0.04058270999673785, 1.3043017599545044)))


class TestVectorPath:
    """The loop for cv >= 2 gives the vector loop's verdicts, bit for bit, but calls
    no converged run unique unless the clipped edge sums are log-concave."""

    @settings(max_examples=150)
    @given(
        vector_params(),
        st.sampled_from([4, 5, 6, 7, 64, 2000]),
        st.sampled_from([(1e-12, 1e-8), (1e-6, 1e-3), (1e-4, 1e-2)]),
    )
    @example(_params(cap=2, cv=2, ce=2, nu=40.0), 2000, (1e-12, 1e-8))
    def test_verdict_equals_vector_loop(self, p, max_iter, tols):
        tol, sep = tols
        got = classify_by_iteration(p, tol=tol, sep=sep, max_iter=max_iter)
        assert got == _vector_classify(p, tol=tol, sep=sep, max_iter=max_iter)

    def test_converged_run_without_the_order_is_inconclusive(self):
        p = _UNORDERED
        low = _vector_classify(p)
        assert (low.kind, low.iterations) == (Uniqueness.UNIQUE, 29)
        assert classify_by_iteration(p) == UniquenessVerdict(
            Uniqueness.INCONCLUSIVE, 29, even_limit=low.fixed_point, odd_limit=low.fixed_point,
            method="unordered",
        )
        # the run from (nu_1, 0) settles at another fixed point
        far = _iterate(_map_step(p), (float(p.node_weights.entries[1]), 0.0), 1e-12, 1e-8, 10**4)
        assert far.kind is Uniqueness.UNIQUE
        assert far.fixed_point[0] > 31.9 > 0.01 > low.fixed_point[0]

    @given(
        vector_params(),
        st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=5, max_size=5),
        st.sampled_from([64, 2000]),
    )
    @example(_UNORDERED, [0.04058270999673785, 1.3043017599545044, 0, 0, 0], 2000)
    def test_unique_needs_log_concave_edge_sums(self, p, entries, max_iter):
        p = dataclasses.replace(p, edge_weights=WeightVector((1.0, *entries[: p.ce])))
        got = classify_by_iteration(p, max_iter=max_iter)
        ref = _vector_classify(p, max_iter=max_iter)
        if ref.kind is Uniqueness.UNIQUE and not _log_concave_reference(p):
            assert got == dataclasses.replace(
                ref, kind=Uniqueness.INCONCLUSIVE, fixed_point=None,
                even_limit=ref.fixed_point, odd_limit=ref.fixed_point, method="unordered",
            )
        else:
            assert got == ref


class TestPairInteraction:
    def test_idle_pair_sees_full_edge_budget(self):
        p = ModelParams(
            q=2,
            cap=2,
            cv=1,
            ce=2,
            node_weights=WeightVector((1.0, 8.0)),
            edge_weights=geometric_weights(1.0, 2),
        )
        assert _pair_interaction(p, 0, 0) == 3.0  # S_2 of (1,1,1)

    def test_saturated_pair_hand_value(self):
        p = ModelParams(
            q=2,
            cap=2,
            cv=1,
            ce=2,
            node_weights=WeightVector((1.0, 8.0)),
            edge_weights=geometric_weights(1.0, 2),
        )
        # (8*8)^(1/3) * S_0 = 4
        assert math.isclose(_pair_interaction(p, 1, 1), 4.0, rel_tol=1e-13)

    def test_over_budget_pair_vanishes(self):
        p = _params(cap=2, cv=2, ce=1, nu=3.0, lam=1.0)
        assert _pair_interaction(p, 1, 2) == 0.0
        assert _pair_interaction(p, 2, 2) == 0.0

    def test_symmetry(self):
        p = _params(cap=3, cv=2, ce=2, nu=4.0, lam=0.6)
        for i in range(3):
            for j in range(3):
                assert _pair_interaction(p, i, j) == _pair_interaction(p, j, i)

    def test_argument_validation(self):
        p = _params()
        for bad in (-1, 2, True, 0.5):
            with pytest.raises(ValueError):
                _pair_interaction(p, bad, 0)

    @pytest.mark.parametrize("family", [poisson_weights, geometric_weights])
    @pytest.mark.parametrize("q,cap,cv,ce", [(2, 2, 1, 2), (2, 3, 2, 2), (3, 4, 3, 2), (5, 4, 2, 4), (2, 4, 4, 1)])
    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
    def test_repulsive_cross_product_inequality(self, family, q, cap, cv, ce, lam):
        p = ModelParams(
            q=q,
            cap=cap,
            cv=cv,
            ce=ce,
            node_weights=poisson_weights(2.0, cv),
            edge_weights=family(lam, ce),
        )
        phi = [[_pair_interaction(p, i, j) for j in range(cv + 1)] for i in range(cv + 1)]
        for i in range(cv + 1):
            for k in range(i, cv + 1):
                for j in range(cv + 1):
                    for l in range(j, cv + 1):
                        lhs = phi[i][j] * phi[k][l]
                        rhs = phi[i][l] * phi[k][j]
                        assert lhs <= rhs + 1e-12 * (1.0 + rhs)


def _reference_interaction_map(p, psi):
    """``interaction_map`` with its own builtin sums over the pairs within the budget."""
    vec = tuple(psi)
    den = sum(_pair_interaction(p, 0, j) * vec[j] for j in range(min(p.cap, p.cv) + 1))
    out = [1.0]
    for i in range(1, p.cv + 1):
        n = sum(_pair_interaction(p, i, j) * vec[j] for j in range(min(p.cap - i, p.cv) + 1))
        out.append(power(n / den, p.q) if n > 0.0 else 0.0)
    return tuple(out)


class TestConjugacy:
    @given(vector_params(least_cv=1), st.data())
    def test_interaction_map_equals_the_reference(self, p, data):
        psi = (1.0,) + tuple(
            data.draw(st.floats(min_value=0.0, max_value=1e3)) for _ in range(p.cv)
        )
        assert interaction_map(p, psi) == _reference_interaction_map(p, psi)

    def test_interaction_map_first_entry_fixed(self):
        p = _params(cap=3, cv=2, ce=2, nu=6.0)
        out = interaction_map(p, (1.0, 0.4, 0.2))
        assert out[0] == 1.0

    def test_interaction_map_requires_unit_leading_entry(self):
        p = _params(cap=3, cv=2, ce=2, nu=6.0)
        with pytest.raises(ValueError):
            interaction_map(p, (0.9, 0.4, 0.2))
        with pytest.raises(ValueError):
            interaction_map(p, (1.0, 0.4))

    def test_vanishing_node_weight_kills_component(self):
        p = ModelParams(
            q=2,
            cap=2,
            cv=2,
            ce=1,
            node_weights=WeightVector((1.0, 2.0, 0.0)),
            edge_weights=poisson_weights(1.0, 1),
        )
        out = interaction_map(p, (1.0, 0.5, 0.5))
        assert out[2] == 0.0

    def test_conjugation_rejects_zero_weights(self):
        p = ModelParams(
            q=2,
            cap=2,
            cv=2,
            ce=1,
            node_weights=WeightVector((1.0, 2.0, 0.0)),
            edge_weights=poisson_weights(1.0, 1),
        )
        with pytest.raises(ValueError):
            conjugate_maps(p)

    def test_round_trip_is_identity(self):
        p = _params(cap=3, cv=3, ce=1, nu=5.0)
        to_ratio, from_ratio = conjugate_maps(p)
        psi = (1.0, 0.7, 0.3, 0.1)
        back = from_ratio(to_ratio(psi))
        for a, b in zip(back, psi):
            assert math.isclose(a, b, rel_tol=1e-14)

    def test_base_vector_maps_to_origin(self):
        p = _params(cap=3, cv=2, ce=2, nu=6.0)
        to_ratio, _ = conjugate_maps(p)
        assert to_ratio((1.0, 0.0, 0.0)) == (0.0, 0.0)

    @given(model_params(max_cv=3), st.data())
    def test_interaction_and_ratio_forms_agree(self, p, data):
        psi = (1.0,) + tuple(
            data.draw(st.floats(min_value=0.0, max_value=3.0)) for _ in range(p.cv)
        )
        to_ratio, from_ratio = conjugate_maps(p)
        lhs = interaction_map(p, psi)
        rhs = from_ratio(random_field_map(p, to_ratio(psi)))
        gap = max(abs(a - b) for a, b in zip(lhs, rhs))
        assert gap <= 1e-10 * (1.0 + max(abs(v) for v in lhs))
