"""Ratio map, interaction form, and the iteration-based uniqueness test."""
import dataclasses
import math
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from treeloss._num import check_int, power
from treeloss.phase1d import PhaseParams, classify_closed_form, phase_window
from treeloss.rfmap import (
    _SWITCH_STEP,
    ModelParams,
    Uniqueness,
    UniquenessVerdict,
    _bisect,
    _cross_ratio,
    _map_step,
    _pair_interaction,
    _scalar_map,
    _scalar_slope,
    classify_by_iteration,
    conjugate_maps,
    interaction_map,
    random_field_map,
)
from treeloss.weights import WeightVector, geometric_weights, poisson_weights


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


class TestScalarFallback:
    def test_readme_grid_is_fully_decided(self):
        win = phase_window(10, 2, poisson_weights(0.75, 2))
        methods = set()
        for k in range(299):
            nu = 1.0 + 0.5 * k
            v = classify_by_iteration(_params(nu=nu), max_iter=10**5)
            expect = Uniqueness.MULTIPLE if win.nu_minus < nu < win.nu_plus else Uniqueness.UNIQUE
            assert v.kind is expect, (nu, v)
            methods.add(v.method)
        assert methods == {"iteration", "bisection"}

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
        assert classify_by_iteration(_params(nu=1.0)).method == "iteration"
        assert classify_by_iteration(_params(nu=26.5)).method == "bisection"
        assert classify_by_iteration(_params(nu=50.0)).method == "bisection"
        # cv >= 2 has no scalar fallback
        v = classify_by_iteration(_params(cap=2, cv=2, ce=2, nu=5.0))
        assert (v.kind, v.method) == (Uniqueness.UNIQUE, "iteration")

    def test_verdict_does_not_depend_on_tolerances(self):
        loose = classify_by_iteration(_params(nu=26.5), tol=1e-9, sep=1e-3)
        tight = classify_by_iteration(_params(nu=26.5))
        assert loose.method == tight.method == "bisection"
        assert loose == tight

    @pytest.mark.parametrize("nu,max_iter", [(26.5, 64), (26.5, 80), (50.0, 150)])
    def test_budget_runs_out_during_bisection(self, nu, max_iter):
        v = classify_by_iteration(_params(nu=nu), max_iter=max_iter)
        assert v.kind is Uniqueness.INCONCLUSIVE
        assert v.iterations == max_iter
        assert v.method == "iteration"
        # the last even and odd iterates of the plain run, still sandwiched
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
    """``classify_by_iteration`` before the scalar path: one vector loop for every cv."""
    if not 0.0 < tol < sep:
        raise ValueError(f"need 0 < tol < sep, got tol={tol}, sep={sep}")
    check_int("max_iter", max_iter, 4)

    step = _vector_step(p)
    cv = p.cv

    # the scalar map is decreasing iff its exact cross ratio is <= 0
    monotone = cv == 1 and _cross_ratio(p) <= 0.0

    zero = (0.0,) * cv
    xs = [zero]  # xs[n] = xi^(n); only the last four are kept
    last_even, last_odd = zero[0] if cv == 1 else None, None

    for n in range(1, max_iter + 1):
        x_new = step(xs[-1])
        xs.append(x_new)
        scale = 1.0 + max(x_new)

        if monotone:
            v = x_new[0]
            slack = tol * scale
            if n % 2 == 0:
                if v < last_even - slack or (last_odd is not None and v > last_odd + slack):
                    raise RuntimeError(
                        "internal consistency: even iterates left the monotone sandwich"
                    )
                last_even = v
            else:
                if (last_odd is not None and v > last_odd + slack) or v < last_even - slack:
                    raise RuntimeError(
                        "internal consistency: odd iterates left the monotone sandwich"
                    )
                last_odd = v

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

        if monotone and n == _SWITCH_STEP:
            return _vector_decide(step, p, last_even, last_odd, n, max_iter)

        if len(xs) > 4:
            xs.pop(0)

    a, b = xs[-1], xs[-2]
    even_tail, odd_tail = (a, b) if max_iter % 2 == 0 else (b, a)
    return UniquenessVerdict(
        Uniqueness.INCONCLUSIVE, max_iter, even_limit=even_tail, odd_limit=odd_tail
    )


def _vector_decide(step, p, even, odd, n, max_iter):
    """The bisection fallback of ``_vector_classify``, on 1-tuples of the vector step."""

    def m(x):
        return step((x,))[0]

    x, used = _bisect(lambda x: m(x) - x, even, odd, 1, max_iter - n)
    n += used
    if x is not None:
        if abs(_scalar_slope(p, x, x)) <= 1.0:  # m(x*) = x*
            return UniquenessVerdict(
                Uniqueness.UNIQUE, n, fixed_point=(x,), method="bisection"
            )
        y, used = _bisect(lambda y: m(m(y)) - y, even, x, 2, max_iter - n)
        n += used
        if y is not None and n < max_iter:
            return UniquenessVerdict(
                Uniqueness.MULTIPLE, n + 1, even_limit=(y,), odd_limit=(m(y),),
                method="bisection",
            )
    return UniquenessVerdict(
        Uniqueness.INCONCLUSIVE, max_iter, even_limit=(even,), odd_limit=(odd,)
    )


# budgets that run out in the plain steps, in the first bisection and in the second
_BUDGETS = [4, 5, 63, 64, 65, 66, 130, 10**5]


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
    """The float loop and the scalar map give the vector code's results, bit for bit."""

    @settings(max_examples=300)
    @given(
        monotone_scalar_params(),
        st.sampled_from(_BUDGETS),
        st.sampled_from([(1e-12, 1e-8), (1e-9, 1e-8), (1e-6, 1e-3), (1e-4, 1e-2)]),
    )
    @example(_params(nu=26.5), 66, (1e-12, 1e-8))
    @example(_params(nu=50.0), 130, (1e-12, 1e-8))
    def test_verdict_equals_vector_loop(self, p, max_iter, tols):
        tol, sep = tols
        got = classify_by_iteration(p, tol=tol, sep=sep, max_iter=max_iter)
        assert got == _vector_classify(p, tol=tol, sep=sep, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [5, 66, 10**5])
    def test_readme_grid_equals_vector_loop(self, max_iter):
        for k in range(299):
            p = _params(nu=1.0 + 0.5 * k)
            got = classify_by_iteration(p, max_iter=max_iter)
            assert got == _vector_classify(p, max_iter=max_iter), (k, got)

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

    @pytest.mark.parametrize("fake,parity", [(lambda x: x + 1.0, "even"), (lambda x: -1.0, "odd")])
    def test_sandwich_breach_raises(self, monkeypatch, fake, parity):
        monkeypatch.setattr("treeloss.rfmap._scalar_map", lambda p: fake)
        with pytest.raises(RuntimeError, match=f"{parity} iterates left the monotone sandwich"):
            classify_by_iteration(_params())

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


class TestVectorPath:
    """The loop for cv >= 2 gives the vector loop's verdicts, bit for bit."""

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
