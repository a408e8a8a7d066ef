"""Ratio map, interaction form, and the iteration-based uniqueness test."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treeloss.phase1d import PhaseParams, classify_closed_form, phase_window
from treeloss.rfmap import (
    ModelParams,
    Uniqueness,
    classify_by_iteration,
    conjugate_maps,
    interaction_map,
    pair_interaction,
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
        assert pair_interaction(p, 0, 0) == 3.0  # S_2 of (1,1,1)

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
        assert math.isclose(pair_interaction(p, 1, 1), 4.0, rel_tol=1e-13)

    def test_over_budget_pair_vanishes(self):
        p = _params(cap=2, cv=2, ce=1, nu=3.0, lam=1.0)
        assert pair_interaction(p, 1, 2) == 0.0
        assert pair_interaction(p, 2, 2) == 0.0

    def test_symmetry(self):
        p = _params(cap=3, cv=2, ce=2, nu=4.0, lam=0.6)
        for i in range(3):
            for j in range(3):
                assert pair_interaction(p, i, j) == pair_interaction(p, j, i)

    def test_argument_validation(self):
        p = _params()
        for bad in (-1, 2, True, 0.5):
            with pytest.raises(ValueError):
                pair_interaction(p, bad, 0)

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
        phi = [[pair_interaction(p, i, j) for j in range(cv + 1)] for i in range(cv + 1)]
        for i in range(cv + 1):
            for k in range(i, cv + 1):
                for j in range(cv + 1):
                    for l in range(j, cv + 1):
                        lhs = phi[i][j] * phi[k][l]
                        rhs = phi[i][l] * phi[k][j]
                        assert lhs <= rhs + 1e-12 * (1.0 + rhs)


class TestConjugacy:
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
