"""Exact sum-product: hand counts, exactness, literal enumeration, order independence,
rounding, tree builders."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treeloss.oracle import (
    GUARD_LIMIT,
    FiniteTree,
    TreeSpec,
    TreeTooLargeError,
    build_tree,
    edge_centered_tree,
    exact_blocking,
    exact_partition,
    occupancy_distribution,
    rooted_tree,
    spherical_tree,
)
from treeloss.oracle import _check_size, _check_spec_size, _spec_nodes
from treeloss.rfmap import ModelParams
from treeloss.weights import WeightVector, poisson_weights

from feasibility import is_feasible


def _path(n):
    """The path 0 - 1 - ... - (n-1)."""
    return FiniteTree(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)))


def _unit_params(cap, cv, ce):
    return ModelParams(
        q=1,
        cap=cap,
        cv=cv,
        ce=ce,
        node_weights=WeightVector((1,) * (cv + 1)),
        edge_weights=WeightVector((1,) * (ce + 1)),
    )


class TestHandCounts:
    def test_two_node_path_all_caps_one(self):
        # feasible: 000, 100, 010, 001
        p = _unit_params(1, 1, 1)
        z = exact_partition(p, _path(2), root=0)
        assert z == (Fraction(3), Fraction(1))
        assert sum(z) == 4

    def test_two_node_path_budget_two(self):
        # 2^3 assignments minus the one violating a+b+c <= 2
        p = _unit_params(2, 1, 1)
        z = exact_partition(p, _path(2), root=0)
        assert z == (Fraction(4), Fraction(3))
        assert sum(z) == 7

    def test_node_blocking_three_quarters(self):
        # a fresh call at node 0 fits only in 000
        p = _unit_params(1, 1, 1)
        assert exact_blocking(p, _path(2), target=0) == Fraction(3, 4)

    def test_edge_blocking_four_sevenths(self):
        # accepted from 000, 100, 001 of the 7 feasible
        p = _unit_params(2, 1, 1)
        assert exact_blocking(p, _path(2), target=(0, 1)) == Fraction(4, 7)

    def test_single_node(self):
        p = ModelParams(
            q=1,
            cap=1,
            cv=1,
            ce=1,
            node_weights=WeightVector((1.0, 1.0)),
            edge_weights=WeightVector((1.0, 1.0)),
        )
        t = _path(1)
        assert exact_partition(p, t, root=0) == (1.0, 1.0)
        assert exact_blocking(p, t, target=0) == 0.5

    def test_poisson_rooted_height_one(self):
        # (S_2 + S_1 nu)^q and nu (S_1 + S_0 nu)^q at q=2, rates 1
        p = ModelParams(
            q=2,
            cap=2,
            cv=1,
            ce=2,
            node_weights=poisson_weights(1.0, 1),
            edge_weights=poisson_weights(1.0, 2),
        )
        z = exact_partition(p, rooted_tree(2, 1), root=0)
        assert math.isclose(z[0], 20.25, rel_tol=1e-12)
        assert math.isclose(z[1], 9.0, rel_tol=1e-12)


class TestExactness:
    def test_rational_weights_give_rational_results(self):
        p = ModelParams(
            q=1,
            cap=2,
            cv=2,
            ce=1,
            node_weights=poisson_weights(Fraction(1, 2), 2),
            edge_weights=poisson_weights(Fraction(2, 3), 1),
        )
        t = _path(3)
        z = exact_partition(p, t, root=1)
        assert all(isinstance(v, Fraction) for v in z)
        dist = occupancy_distribution(p, t, node=1)
        assert sum(dist) == 1
        b = exact_blocking(p, t, target=(0, 1))
        assert isinstance(b, Fraction)
        assert 0 <= b <= 1

    def test_float_weights_give_floats(self):
        p = ModelParams(
            q=1,
            cap=2,
            cv=1,
            ce=1,
            node_weights=poisson_weights(0.5, 1),
            edge_weights=poisson_weights(1.5, 1),
        )
        z = exact_partition(p, _path(3), root=0)
        assert all(isinstance(v, float) for v in z)


def _literal_totals(p, t, leads):
    """Weight per lead value, summed over every feasible assignment one by one.

    Each lead is ("root", node) for the partition by that node's occupancy,
    or ("node", node) / ("edge", pair) for [refused, admitted] totals of one
    more call there: admitted when adding it leaves the assignment feasible.
    """
    out = [[0] * (p.cv + 1 if kind == "root" else 2) for kind, _ in leads]
    for occ in itertools.product(range(p.cv + 1), repeat=len(t.nodes)):
        for eocc in itertools.product(range(p.ce + 1), repeat=len(t.edges)):
            node_occ, edge_occ = dict(zip(t.nodes, occ)), dict(zip(t.edges, eocc))
            if not is_feasible(p, t, node_occ, edge_occ):
                continue
            w = math.prod(p.node_weights.entries[o] for o in occ)
            w *= math.prod(p.edge_weights.entries[j] for j in eocc)
            for totals, (kind, where) in zip(out, leads):
                if kind == "root":
                    totals[node_occ[where]] += w
                    continue
                node_more, edge_more = dict(node_occ), dict(edge_occ)
                (node_more if kind == "node" else edge_more)[where] += 1
                totals[int(is_feasible(p, t, node_more, edge_more))] += w
    return out


def _exact_params(cap, cv, ce):
    return ModelParams(
        q=1,
        cap=cap,
        cv=cv,
        ce=ce,
        node_weights=poisson_weights(Fraction(9, 10), cv),
        edge_weights=poisson_weights(Fraction(3, 5), ce),
    )


def _assert_matches_literal(p, t, roots, targets):
    leads = [("root", r) for r in roots]
    leads += [("edge" if isinstance(x, tuple) else "node", x) for x in targets]
    literal = _literal_totals(p, t, leads)
    for r, want in zip(roots, literal):
        assert exact_partition(p, t, r) == tuple(want)
    for x, (refused, admitted) in zip(targets, literal[len(roots):]):
        assert exact_blocking(p, t, x) == refused / (refused + admitted)


@st.composite
def _small_trees(draw, most=4):
    n = draw(st.integers(1, most))
    labels = draw(st.permutations(range(10, 10 + n)))
    edges = [(labels[i], labels[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    return FiniteTree(tuple(labels), tuple(edges))


class TestLiteralEnumeration:
    CASES = [
        (1, 1, 1, _path(3)),
        (2, 1, 1, _path(4)),
        (2, 2, 1, rooted_tree(2, 2)),
        (3, 1, 2, spherical_tree(2, 1)),
        (3, 3, 3, _path(4)),
        (2, 1, 0, rooted_tree(3, 1)),
    ]

    @pytest.mark.parametrize("cap,cv,ce,t", CASES)
    def test_tally_matches_literal_enumeration(self, cap, cv, ce, t):
        # node targets: the root and a non-root leaf; edge targets: first and last
        targets = (t.nodes[0], t.nodes[-1], t.edges[0], t.edges[-1])
        _assert_matches_literal(_exact_params(cap, cv, ce), t, t.nodes[::-1], targets)

    @given(
        _small_trees(),
        st.integers(1, 3),
        st.integers(1, 3),
        st.integers(0, 3),
        st.data(),
    )
    def test_random_trees_match_literal_enumeration(self, t, cap, cv, ce, data):
        p = _exact_params(cap, min(cv, cap), min(ce, cap))
        targets = [data.draw(st.sampled_from(t.nodes))]
        if t.edges:
            targets.append(data.draw(st.sampled_from(t.edges)))
        _assert_matches_literal(p, t, t.nodes, targets)


class TestIndependence:
    def test_storage_order_does_not_change_floats(self):
        p = ModelParams(
            q=1,
            cap=2,
            cv=1,
            ce=1,
            node_weights=poisson_weights(0.7, 1),
            edge_weights=poisson_weights(1.3, 1),
        )
        t1 = FiniteTree((0, 1, 2), ((0, 1), (1, 2)))
        t2 = FiniteTree((2, 1, 0), ((1, 2), (0, 1)))  # same path, reversed storage
        t3 = FiniteTree((5, 3, 9), ((5, 3), (3, 9)))  # same path, relabeled
        base = exact_partition(p, t1, root=0)
        assert exact_partition(p, t2, root=0) == base
        assert exact_partition(p, t3, root=5) == base
        eb = exact_blocking(p, t1, target=(1, 2))
        assert exact_blocking(p, t2, target=(2, 1)) == eb
        assert exact_blocking(p, t3, target=(3, 9)) == eb

    def test_equal_depth_edges_have_equal_blocking(self):
        p = ModelParams(
            q=1,
            cap=2,
            cv=1,
            ce=1,
            node_weights=poisson_weights(1.2, 1),
            edge_weights=poisson_weights(0.8, 1),
        )
        t = spherical_tree(2, 2)
        center_edges = [e for e in t.edges if 0 in e]
        deep_edges = [e for e in t.edges if 0 not in e]
        assert len(center_edges) == 3 and len(deep_edges) == 6
        center_vals = {exact_blocking(p, t, target=e) for e in center_edges}
        deep_vals = {exact_blocking(p, t, target=e) for e in deep_edges}
        assert len(center_vals) == 1
        assert len(deep_vals) == 1


# zeros, ints, Fractions and floats of magnitude 1e-300 to 1e300
_POSITIVE_ENTRY = st.one_of(
    st.floats(1e-300, 1e300),
    st.integers(1, 10**6),
    st.fractions(min_value=Fraction(1, 10**6), max_value=10**6, max_denominator=10**6),
)
_ENTRY = st.one_of(st.just(0.0), st.just(0), st.just(Fraction(0)), _POSITIVE_ENTRY)


def _values(v) -> tuple:
    return v if isinstance(v, tuple) else (v,)


class TestCorrectRounding:
    @given(_small_trees(most=6), st.integers(1, 3), st.integers(1, 3), st.integers(0, 3),
           st.data())
    def test_floats_are_the_correctly_rounded_exact_values(self, t, cap, cv, ce, data):
        cv, ce = min(cv, cap), min(ce, cap)
        node = (1.0, *data.draw(st.lists(_ENTRY, min_size=cv, max_size=cv)))
        edge = (data.draw(_POSITIVE_ENTRY), *data.draw(st.lists(_ENTRY, min_size=ce, max_size=ce)))
        p = ModelParams(1, cap, cv, ce, WeightVector(node), WeightVector(edge))
        exact = ModelParams(1, cap, cv, ce, WeightVector(tuple(map(Fraction, node))),
                            WeightVector(tuple(map(Fraction, edge))))
        # root, node and edge leads
        calls = [(exact_partition, data.draw(st.sampled_from(t.nodes))),
                 (occupancy_distribution, data.draw(st.sampled_from(t.nodes))),
                 (exact_blocking, data.draw(st.sampled_from(t.nodes)))]
        if t.edges:
            calls.append((exact_blocking, data.draw(st.sampled_from(t.edges))))
        for fn, where in calls:
            want = _values(fn(exact, t, where))
            assert all(isinstance(v, Fraction) for v in want)
            try:
                want_bits = [float(v).hex() for v in want]
            except OverflowError:
                # an exact value beyond the float range is refused, not saturated
                with pytest.raises(ValueError, match="float range"):
                    fn(p, t, where)
                continue
            got = _values(fn(p, t, where))
            assert all(isinstance(v, float) for v in got)
            assert [v.hex() for v in got] == want_bits


class TestGuard:
    def test_large_tree_refused(self):
        p = _unit_params(3, 3, 3)
        t = rooted_tree(3, 2)  # 4^13 * 4^12 raw assignments
        with pytest.raises(TreeTooLargeError, match="refusing"):
            exact_partition(p, t, root=0)
        with pytest.raises(TreeTooLargeError):
            exact_blocking(p, t, target=0)

    def test_huge_raw_count_gets_a_short_message(self):
        # (cv+1)^|V| (ce+1)^|E| has over 4,300 decimal digits here
        p = _unit_params(2, 1, 2)
        t = spherical_tree(10, 4)
        with pytest.raises(TreeTooLargeError) as info:
            exact_partition(p, t, root=0)
        assert len(str(info.value)) < 200
        assert f"{len(t.nodes)} nodes and {len(t.edges)} edges" in str(info.value)

    @pytest.mark.parametrize("cv,ce", [(1, 0), (1, 1), (1, 2), (2, 2)])
    def test_spec_check_refuses_by_the_raw_count(self, cv, ce):
        # spherical_tree(4, 2) has 26 nodes: 2**26 raw assignments at cv = 1,
        # ce = 0 pass, one node more could not
        def refuses(check) -> bool:
            try:
                check()
            except TreeTooLargeError:
                return True
            return False

        for q in (1, 2, 3, 4):
            p = ModelParams(q, 2, cv, ce, WeightVector((1,) * (cv + 1)), WeightVector((1,) * (ce + 1)))
            for spec in [TreeSpec("rooted", h) for h in range(5)] + [
                TreeSpec("spherical", r) for r in range(1, 5)
            ]:
                t = build_tree(spec, q)
                raw = (cv + 1) ** len(t.nodes) * (ce + 1) ** len(t.edges)
                assert refuses(lambda: _check_spec_size(p, spec)) == (raw > GUARD_LIMIT)
                assert refuses(lambda: _check_size(p, len(t.nodes))) == (raw > GUARD_LIMIT)

    def test_guard_is_a_value_error(self):
        assert issubclass(TreeTooLargeError, ValueError)
        assert GUARD_LIMIT == 10**8


class TestFeasibility:
    """The rule of tests/feasibility.py, the enumerator's and the simulator
    checks' one reference, on the two-node path at cap = 2, cv = ce = 1."""

    P = _unit_params(2, 1, 1)
    T = _path(2)

    def _cfg(self, a, b, c):
        return {0: a, 1: c}, {(0, 1): b}

    def test_budget_respected(self):
        assert is_feasible(self.P, self.T, *self._cfg(0, 0, 0))
        assert is_feasible(self.P, self.T, *self._cfg(1, 0, 1))
        assert not is_feasible(self.P, self.T, *self._cfg(1, 1, 1))

    def test_elementwise_caps(self):
        assert not is_feasible(self.P, self.T, *self._cfg(2, 0, 0))
        assert not is_feasible(self.P, self.T, *self._cfg(0, 2, 0))
        assert not is_feasible(self.P, self.T, *self._cfg(-1, 0, 0))

    def test_unsorted_edge_keys_are_normalized(self):
        assert is_feasible(self.P, self.T, {0: 0, 1: 0}, {(1, 0): 1})
        assert not is_feasible(self.P, self.T, {0: 1, 1: 1}, {(1, 0): 1})


def _ref_subtrees(edges: list, root: int, q: int, height: int, nxt: int) -> int:
    """q children under root, each the root of a height-(height-1) subtree, labelled in
    preorder from nxt by recursion; returns the next free label."""
    if height <= 0:
        return nxt
    for _ in range(q):
        edges.append((root, nxt))
        nxt = _ref_subtrees(edges, nxt, q, height - 1, nxt + 1)
    return nxt


# Each shape written out by its definition, the references for the builders'
# one stack walk: a rooted tree is root 0 and its subtrees, a ball a center
# with q + 1 branches, and an edge-centred tree two hubs with q branches each.
def _ref_rooted(q: int, height: int) -> FiniteTree:
    edges: list = []
    n = _ref_subtrees(edges, 0, q, height, 1)
    return FiniteTree(tuple(range(n)), tuple(edges))


def _ref_ball(q: int, radius: int) -> FiniteTree:
    edges: list = []
    nxt = 1
    for _ in range(q + 1):
        edges.append((0, nxt))
        nxt = _ref_subtrees(edges, nxt, q, radius - 1, nxt + 1)
    return FiniteTree(tuple(range(nxt)), tuple(edges))


def _ref_edge_centered(q: int, radius: int) -> FiniteTree:
    edges: list = [(0, 1)]
    nxt = 2
    for hub in (0, 1):
        for _ in range(q):
            edges.append((hub, nxt))
            nxt = _ref_subtrees(edges, nxt, q, radius - 1, nxt + 1)
    return FiniteTree(tuple(range(nxt)), tuple(edges))


class TestBuilders:
    def test_shapes(self):
        assert len(rooted_tree(2, 2).nodes) == 7
        assert len(rooted_tree(2, 2).edges) == 6
        assert len(rooted_tree(3, 0).nodes) == 1
        assert len(spherical_tree(2, 1).nodes) == 4
        assert len(spherical_tree(3, 2).nodes) == 17
        assert len(edge_centered_tree(2, 1).nodes) == 6
        assert rooted_tree(1, 4) == _path(5)

    def test_degrees(self):
        t = spherical_tree(2, 2)
        assert len(t.adjacency[0]) == 3  # center degree q+1
        t = edge_centered_tree(2, 2)
        assert len(t.adjacency[0]) == 3  # hub: mate plus q subtrees
        assert len(t.adjacency[1]) == 3

    def test_build_tree_dispatch(self):
        t = build_tree(TreeSpec("rooted", 2), q=2)
        assert t == rooted_tree(2, 2) and len(t.nodes) == 7
        t = build_tree(TreeSpec("spherical", 1), q=2)
        assert t == spherical_tree(2, 1) and len(t.nodes) == 4

    def test_spec_node_count_is_closed_form(self):
        for q in (1, 2, 3, 5):
            for spec in [TreeSpec("rooted", h) for h in range(5)] + [
                TreeSpec("spherical", r) for r in range(1, 5)
            ]:
                assert _spec_nodes(spec, q) == len(build_tree(spec, q).nodes)
        assert _spec_nodes(TreeSpec("spherical", 8), 10) == 122_222_222
        assert _spec_nodes(TreeSpec("rooted", 10**18), 1) == 10**18 + 1
        # past 2**64 nodes the count saturates instead of computing a huge power
        assert _spec_nodes(TreeSpec("spherical", 10**9), 10) == 2**64 + 1
        assert _spec_nodes(TreeSpec("rooted", 2), 10**30) == 2**64 + 1

    def test_builders_match_the_recursive_reference(self):
        pairs = (
            (rooted_tree, _ref_rooted),
            (spherical_tree, _ref_ball),
            (edge_centered_tree, _ref_edge_centered),
        )
        for q in (1, 2, 3):
            for builder, reference in pairs:
                for size in range(builder is not rooted_tree, 5):
                    assert builder(q, size) == reference(q, size), (builder, q, size)

    def test_deep_path_builds(self):
        # far past Python's recursion limit
        t = rooted_tree(1, 5000)
        assert len(t.nodes) == 5001
        assert t.edges[-1] == (4999, 5000)

    def test_builder_validation(self):
        for bad_call in (
            lambda: rooted_tree(0, 1),
            lambda: rooted_tree(2, -1),
            lambda: spherical_tree(2, 0),
        ):
            with pytest.raises(ValueError):
                bad_call()


class TestFiniteTreeValidation:
    def test_accepts_path(self):
        t = FiniteTree((0, 1, 2), ((0, 1), (1, 2)))
        assert t._edge_index((1, 0)) == t._edge_index((0, 1))
        assert t._node_index(2) == 2

    @pytest.mark.parametrize(
        "nodes,edges",
        [
            ((), ()),
            ((0, 0), ()),
            (("a", "b"), (("a", "b"),)),
            ((0, 1), ((0, 0),)),
            ((0, 1), ((0, 2),)),
            ((0, 1, 2), ((0, 1), (1, 2), (0, 2))),
            ((0, 1, 2), ((0, 1),)),
            ((0, 1, 2, 3), ((1, 2), (2, 3), (1, 3))),  # cycle plus isolated node
            ((0, 1, 2), ((0, 1), (1, 0))),  # duplicate after sorting
        ],
    )
    def test_rejects_non_trees(self, nodes, edges):
        with pytest.raises(ValueError):
            FiniteTree(nodes, edges)


class TestDistributions:
    @given(
        st.integers(1, 2),
        st.integers(0, 2),
        st.integers(2, 4),
        st.floats(min_value=0.2, max_value=4.0),
    )
    def test_occupancy_positive_and_normalized(self, cv, ce, n, rate):
        cap = 2
        cv = min(cv, cap)
        ce = min(ce, cap)
        p = ModelParams(
            q=1,
            cap=cap,
            cv=cv,
            ce=ce,
            node_weights=poisson_weights(rate, cv),
            edge_weights=poisson_weights(1.0, ce) if ce else WeightVector((1.0,)),
        )
        dist = occupancy_distribution(p, _path(n), node=0)
        assert math.isclose(sum(dist), 1.0, rel_tol=1e-12)
        assert all(v > 0.0 for v in dist)

    def test_blocking_bounds(self):
        p = _unit_params(2, 2, 2)
        t = rooted_tree(2, 1)
        for target in (0, 1, (0, 1)):
            b = exact_blocking(p, t, target=target)
            assert 0 <= b <= 1
