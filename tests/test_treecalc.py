"""Finite-tree recursion, center laws, blocking probabilities, and curves."""
import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, strategies as st

from treeloss import treecalc
from treeloss._num import log_sum_exp, map_tasks
from treeloss.oracle import (
    TreeSpec,
    edge_centered_tree,
    exact_blocking,
    exact_partition,
    occupancy_distribution,
    rooted_tree,
    spherical_tree,
)
from treeloss.phase1d import PhaseParams, fixed_point
from treeloss.rfmap import (
    ModelParams, Uniqueness, _row_sums, classify_by_iteration, random_field_map,
)
from treeloss.treecalc import (
    NormalizedState,
    _multicast_blocking_at,
    center_occupancy,
    multicast_blocking,
    rooted_state,
    unicast_blocking,
)
from treeloss.weights import WeightVector, geometric_weights, poisson_weights

from test_rfmap import _vector_step, vector_params


def _params(q=2, cap=2, cv=1, ce=2, nu=1.0, lam=1.0):
    return ModelParams(
        q=q,
        cap=cap,
        cv=cv,
        ce=ce,
        node_weights=poisson_weights(nu, cv),
        edge_weights=poisson_weights(lam, ce),
    )


@st.composite
def small_params(draw):
    q = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 3))
    cv = draw(st.integers(1, cap))
    ce = draw(st.integers(0, cap))
    nu = draw(st.floats(min_value=0.1, max_value=8.0))
    lam = draw(st.floats(min_value=0.1, max_value=3.0))
    edge = geometric_weights(lam, ce) if ce else WeightVector((1.0,))
    return ModelParams(
        q=q, cap=cap, cv=cv, ce=ce,
        node_weights=poisson_weights(nu, cv), edge_weights=edge,
    )


class TestRootedState:
    def test_height_zero_is_raw_weights(self):
        p = _params(cv=1, nu=3.0)
        st0 = rooted_state(p, 0)
        assert st0.xi == (3.0,)
        assert st0.log_z0 == 0.0

    def test_single_step_hand_value(self):
        # q=2, cap=2, Poisson rates 1: Z_1(0) = (S_2 + S_1)^2 = 4.5^2,
        # Z_1(1) = (S_1 + S_0)^2 = 9, so xi = 4/9
        p = _params(q=2, cap=2, cv=1, ce=2, nu=1.0, lam=1.0)
        st1 = rooted_state(p, 1)
        assert math.isclose(math.exp(st1.log_z0), 20.25, rel_tol=1e-13)
        assert math.isclose(st1.xi[0], 4.0 / 9.0, rel_tol=1e-13)

    def test_steps_compose_with_the_map(self):
        p = _params(q=3, cap=2, cv=1, ce=1, nu=2.0, lam=0.5)
        via_map = random_field_map(p, random_field_map(p, rooted_state(p, 3).xi))
        assert rooted_state(p, 5).xi == via_map

    @pytest.mark.parametrize("height", [0, 1, 2])
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_matches_enumeration(self, q, height):
        p = _params(q=q, cap=2, cv=1, ce=1, nu=2.0, lam=0.5)
        st_m = rooted_state(p, height)
        z = exact_partition(p, rooted_tree(q, height), root=0)
        z0 = math.exp(st_m.log_z0)
        assert math.isclose(z0, float(z[0]), rel_tol=1e-9)
        assert math.isclose(z0 * st_m.xi[0], float(z[1]), rel_tol=1e-9)

    def test_deep_iteration_reaches_fixed_point(self):
        p = _params(q=6, cap=2, cv=1, ce=2, nu=5.0, lam=3.0)
        xi = rooted_state(p, 10_000).xi
        x_star = fixed_point(
            PhaseParams(q=6, cap=2, edge_weights=poisson_weights(3.0, 2), nu=5.0)
        )
        assert abs(xi[0] - x_star) <= 1e-10 * (1.0 + x_star)

    def test_height_validation(self):
        p = _params()
        for bad in (-1, 1.5, True):
            with pytest.raises(ValueError):
                rooted_state(p, bad)


class TestCenterLaw:
    @given(small_params(), st.integers(1, 3))
    def test_distribution_is_normalized(self, p, radius):
        dist = center_occupancy(p, radius)
        assert len(dist) == p.cv + 1
        assert all(v >= 0.0 for v in dist)
        assert math.isclose(sum(dist), 1.0, rel_tol=1e-12)

    def test_decoupled_center_matches_single_node_marginal(self):
        # ce=0 with cap >= 2 cv: neighbors cannot constrain the center
        p = ModelParams(
            q=2, cap=2, cv=1, ce=0,
            node_weights=poisson_weights(1.0, 1), edge_weights=WeightVector((1.0,)),
        )
        for radius in (1, 2, 3):
            dist = center_occupancy(p, radius)
            assert math.isclose(dist[0], 0.5, rel_tol=1e-13)
            assert math.isclose(dist[1], 0.5, rel_tol=1e-13)

    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_enumeration(self, radius):
        p = _params(q=2, cap=2, cv=1, ce=1, nu=1.5, lam=0.8)
        got = center_occupancy(p, radius)
        want = occupancy_distribution(p, spherical_tree(2, radius), node=0)
        for g, w in zip(got, want):
            assert math.isclose(g, float(w), rel_tol=1e-9)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            center_occupancy(_params(), 0)


class TestMulticastBlocking:
    def test_decoupled_center_blocking(self):
        p = ModelParams(
            q=2, cap=2, cv=1, ce=0,
            node_weights=poisson_weights(1.0, 1), edge_weights=WeightVector((1.0,)),
        )
        # center accepts iff idle: blocking = P(busy) = nu/(1+nu)
        assert math.isclose(multicast_blocking(p, 2), 0.5, rel_tol=1e-13)

    def test_vanishing_load_admits_everything(self):
        # both streams must idle: nu controls the center slot, lam the chance
        # an incident edge is already saturated
        p = _params(q=2, cap=2, cv=1, ce=2, nu=1e-10, lam=1e-4)
        assert multicast_blocking(p, 2) <= 1e-6

    def test_saturating_load_blocks_everything(self):
        p = _params(q=2, cap=2, cv=1, ce=2, nu=1e12, lam=0.1)
        assert multicast_blocking(p, 2) >= 1.0 - 1e-6

    @given(small_params(), st.integers(1, 3))
    def test_is_a_probability(self, p, radius):
        b = multicast_blocking(p, radius)
        assert 0.0 <= b <= 1.0

    @pytest.mark.parametrize("radius", [1, 2])
    def test_matches_enumeration(self, radius):
        p = _params(q=2, cap=2, cv=1, ce=1, nu=1.5, lam=0.8)
        got = multicast_blocking(p, radius)
        want = exact_blocking(p, spherical_tree(2, radius), target=0)
        assert math.isclose(got, float(want), rel_tol=1e-9)


class TestUnicastBlocking:
    def test_no_edge_budget_blocks_everything(self):
        p = ModelParams(
            q=2, cap=2, cv=1, ce=0,
            node_weights=poisson_weights(1.0, 1), edge_weights=WeightVector((1.0,)),
        )
        assert unicast_blocking(p, 1) == 1.0
        assert unicast_blocking(p, 3) == 1.0

    def test_idle_nodes_reduce_to_single_edge_truncation(self):
        # nu_1 = 0: only the edge carries calls, so blocking is the weight of
        # a full edge, lam_cap / S_cap, independent of radius and branching
        p = ModelParams(
            q=3, cap=2, cv=1, ce=2,
            node_weights=WeightVector((1.0, 0.0)),
            edge_weights=poisson_weights(0.7, 2),
        )
        w = poisson_weights(0.7, 2)
        want = float(w.entries[2]) / float(w.partial_sums[2])
        for radius in (1, 2, 4):
            assert math.isclose(unicast_blocking(p, radius), want, rel_tol=1e-12)

    def test_no_central_call_is_ever_refused(self):
        # nu_1 = 0 and lam_1 = lam_2 = 0: the only pair with a refused weight
        # has both hubs at occupancy 1, whose side is -inf, so blocking is 0
        p = ModelParams(
            q=2, cap=2, cv=1, ce=2,
            node_weights=WeightVector((1, 0)), edge_weights=WeightVector((1, 0, 0)),
        )
        got = unicast_blocking(p, 1)
        assert got == 0.0
        assert got == exact_blocking(p, edge_centered_tree(2, 1), target=(0, 1))

    @given(small_params(), st.integers(1, 3))
    def test_is_a_probability(self, p, radius):
        b = unicast_blocking(p, radius)
        assert 0.0 <= b <= 1.0

    @pytest.mark.parametrize("q,radius", [(1, 1), (1, 2), (2, 1)])
    def test_matches_enumeration(self, q, radius):
        p = _params(q=q, cap=2, cv=1, ce=1, nu=1.5, lam=0.8)
        got = unicast_blocking(p, radius)
        want = exact_blocking(p, edge_centered_tree(q, radius), target=(0, 1))
        assert math.isclose(got, float(want), rel_tol=1e-9)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            unicast_blocking(_params(), 0)


def _unicast_triple_sum(p, xi):
    """Central-edge blocking as the literal sum over (hub i, edge j, hub k) states."""
    full = (1.0,) + tuple(xi)

    def clipped(a):
        return float(p.edge_weights.partial_sums[min(a, p.ce)]) if a >= 0 else 0.0

    log_side = []
    for i in range(p.cv + 1):
        t = sum(clipped(p.cap - i - j) * full[j] for j in range(p.cv + 1))
        nu_i = float(p.node_weights.entries[i])
        log_side.append(math.log(nu_i) + p.q * math.log(t) if nu_i > 0 and t > 0 else -math.inf)
    log_all, log_blocked = [], []
    for i in range(p.cv + 1):
        for k in range(p.cv + 1):
            for j in range(p.ce + 1):
                lam_j = float(p.edge_weights.entries[j])
                if i + j + k > p.cap or lam_j == 0.0 or -math.inf in (log_side[i], log_side[k]):
                    continue
                lw = log_side[i] + math.log(lam_j) + log_side[k]
                log_all.append(lw)
                if j + 1 > p.ce or i + j + 1 + k > p.cap:
                    log_blocked.append(lw)
    blocked = log_sum_exp(log_blocked)
    if blocked == -math.inf:
        return 0.0
    return min(1.0, max(0.0, math.exp(blocked - log_sum_exp(log_all))))


_ratio_entries = st.one_of(st.just(0.0), st.floats(-20.0, 20.0).map(lambda u: 10.0**u))


@st.composite
def _ratio_cases(draw):
    """Any caps, weights with zero entries, and a free ratio vector up to 1e20."""
    cap = draw(st.integers(1, 5))
    cv = draw(st.integers(1, cap))
    ce = draw(st.integers(0, cap))
    nodes = WeightVector((1.0,) + tuple(draw(_ratio_entries) for _ in range(cv)))
    edges = WeightVector(
        (draw(st.floats(0.01, 5.0)),) + tuple(draw(_ratio_entries) for _ in range(ce))
    )
    p = ModelParams(draw(st.integers(1, 15)), cap, cv, ce, nodes, edges)
    return p, tuple(draw(_ratio_entries) for _ in range(cv))


class TestUnicastByHubPair:
    """Summing by hub pair agrees with the literal sum over (hub, edge, hub) states."""

    @given(_ratio_cases())
    @example((ModelParams(3, 2, 1, 0, poisson_weights(2.0, 1), WeightVector((1.0,))), (4.0,)))
    @example(
        (
            ModelParams(2, 3, 3, 2, WeightVector((1.0, 0.5, 0.0, 2.0)),
                        WeightVector((1.0, 0.0, 3.0))),
            (1e20, 0.0, 1e-20),
        )
    )
    def test_matches_triple_sum(self, case):
        p, xi = case
        got = treecalc._unicast_blocking_at(p, xi)
        assert math.isclose(got, _unicast_triple_sum(p, xi), rel_tol=1e-12)


def _reference_row_sums(rows, xi) -> tuple:
    """T_k over ``rows`` as ``treecalc`` formed them, with the builtin sum() and xi_0 = 1."""
    full = (1.0,) + tuple(xi)
    return tuple(sum(r * x for r, x in zip(row, full)) for row in rows)


def _reference_log_sum_exp(values) -> float:
    """``_num.log_sum_exp`` as it was, with the builtin sum()."""
    vals = list(values)
    m = max(vals, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    if math.isinf(m):
        return m
    return m + math.log(sum(math.exp(v - m) for v in vals))


def _reference_rooted_state(p, height: int) -> NormalizedState:
    """``rooted_state`` with its own growth loop over row 0 and the generic vector step."""
    xi = tuple(float(v) for v in p.node_weights.entries[1:])
    log_z0 = 0.0
    den = p._rows[0]
    step = _vector_step(p)
    for _ in range(height):
        growth = den[0]
        for j in range(p.cv):
            growth += den[j + 1] * xi[j]
        log_z0 = p.q * (log_z0 + math.log(growth))
        xi = step(xi)
    return NormalizedState(xi=xi, log_z0=log_z0)


class TestOneRowSum:
    """The row sums T_k come from ``rfmap._row_sums``; every quantity that reads
    them equals the references above bit for bit."""

    @given(_ratio_cases())
    def test_row_sums_equal_the_builtin_sum_reference(self, case):
        p, xi = case
        assert tuple(_row_sums(p._rows, xi)) == _reference_row_sums(p._rows, xi)

    @given(vector_params(least_cv=1), st.integers(0, 6))
    def test_rooted_state_equals_the_reference(self, p, height):
        assert rooted_state(p, height) == _reference_rooted_state(p, height)

    @given(vector_params(least_cv=1), st.integers(1, 4))
    def test_center_quantities_equal_the_reference(self, p, radius):
        funcs = (center_occupancy, multicast_blocking, unicast_blocking)
        got = [f(p, radius) for f in funcs]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treecalc, "_row_sums", _reference_row_sums)
            mp.setattr(treecalc, "log_sum_exp", _reference_log_sum_exp)
            mp.setattr(treecalc, "rooted_state", _reference_rooted_state)
            assert got == [f(p, radius) for f in funcs]

    @pytest.mark.parametrize("cv", [1, 2])
    def test_overflowing_numerator_is_refused(self, cv):
        # T_1 = 2e300 + 1e300 * 1e10 overflows, so the step would form inf/inf
        nodes = WeightVector((1.0, 1e10, 1.0)[: cv + 1])
        p = ModelParams(2, 2, cv, 2, nodes, WeightVector((1e300,) * 3))
        for height in (0, 1, 3):
            with pytest.raises(ValueError, match="numerator at the node weights is inf"):
                rooted_state(p, height)


def _curve_point(nu, p):
    """One point as a ``blocking-curve`` row forms it: nu classified on its
    model p, the blocking and ratios at each parity's limit."""
    verdict = classify_by_iteration(p, tol=1e-12, sep=1e-8, max_iter=10**6)
    if verdict.kind is Uniqueness.UNIQUE:
        xi_even = xi_odd = verdict.fixed_point
    else:
        xi_even, xi_odd = verdict.even_limit, verdict.odd_limit
    return SimpleNamespace(
        nu=nu, kind=verdict.kind, iterations=verdict.iterations,
        beta_even=_multicast_blocking_at(p, xi_even), beta_odd=_multicast_blocking_at(p, xi_odd),
        xi_even=xi_even, xi_odd=xi_odd,
    )


def _curve(q, cap, cv, ce, edge_weights, nu_values, node_family=poisson_weights):
    """Blocking-curve points along nu_values."""
    models = [ModelParams(q, cap, cv, ce, node_family(nu, cv), edge_weights) for nu in nu_values]
    return [_curve_point(nu, p) for nu, p in zip(nu_values, models)]


class TestBlockingCurve:
    def test_branches_split_inside_the_window(self):
        pts = _curve(
            q=10, cap=2, cv=1, ce=2,
            edge_weights=poisson_weights(0.75, 2), nu_values=[5.0, 50.0],
        )
        low, high = pts
        assert low.kind is Uniqueness.UNIQUE
        assert low.beta_even == low.beta_odd
        assert low.xi_even == low.xi_odd
        assert high.kind is Uniqueness.MULTIPLE
        assert abs(high.beta_even - high.beta_odd) > 1e-8
        assert high.xi_even != high.xi_odd
        for pt in pts:
            assert pt.iterations > 0
            assert 0.0 <= pt.beta_even <= 1.0
            assert 0.0 <= pt.beta_odd <= 1.0

    def test_decoupled_curve_is_elementary(self):
        pts = _curve(
            q=2, cap=2, cv=1, ce=0,
            edge_weights=WeightVector((1.0,)), nu_values=[0.5, 1.0, 4.0],
        )
        for pt in pts:
            assert pt.kind is Uniqueness.UNIQUE
            assert math.isclose(pt.beta_even, pt.nu / (1.0 + pt.nu), rel_tol=1e-12)

    def test_alternate_node_family(self):
        pts = _curve(
            q=3, cap=2, cv=1, ce=2,
            edge_weights=poisson_weights(1.0, 2), nu_values=[2.0],
            node_family=geometric_weights,
        )
        assert pts[0].kind is Uniqueness.UNIQUE
        assert 0.0 < pts[0].beta_even < 1.0

    def test_empty_grid(self):
        # the command's pool over no points: no worker, no point
        assert map_tasks(lambda task: _curve_point(*task), [], 2) == []


class TestTreeSpec:
    def test_valid_kinds(self):
        assert TreeSpec("rooted", 0).size == 0
        assert TreeSpec("spherical", 1).kind == "spherical"

    @pytest.mark.parametrize(
        "kind,size", [("ring", 2), ("rooted", -1), ("spherical", 0), ("rooted", 1.5), ("rooted", True)]
    )
    def test_invalid_specs(self, kind, size):
        with pytest.raises(ValueError):
            TreeSpec(kind, size)
