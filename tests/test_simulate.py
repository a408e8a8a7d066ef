"""Event-driven simulator: reproducibility, exact-law agreement, comparisons."""
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from heapq import heappop, heappush
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from treeloss import _num, simulate
from treeloss.oracle import (
    FiniteTree,
    TreeSpec,
    build_tree,
    exact_blocking,
    occupancy_distribution,
    spherical_tree,
)
from treeloss.rfmap import ModelParams
from treeloss.simulate import CompareReport, SimConfig, compare, compare_runs, run
from treeloss.weights import WeightVector, geometric_weights, poisson_weights

from feasibility import is_feasible


def _single_node_params(nu=1.0, cv=1, cap=2, family=poisson_weights):
    return ModelParams(
        q=1,
        cap=cap,
        cv=cv,
        ce=0,
        node_weights=family(nu, cv),
        edge_weights=WeightVector((1.0,)),
    )


def _network_params(nu=1.2, lam=0.8):
    return ModelParams(
        q=2,
        cap=2,
        cv=1,
        ce=1,
        node_weights=poisson_weights(nu, 1),
        edge_weights=poisson_weights(lam, 1),
    )


def _ref_servers(w: WeightVector) -> int:
    """One server for geometric weights, where w_2 = w_1^2 (Poisson has w_1^2 / 2),
    else one per call up to the top index."""
    x = [float(v) for v in w.entries]
    return 1 if len(x) > 2 and math.isclose(x[2], x[1] ** 2, rel_tol=1e-9) else len(x) - 1


def _ref_simulate_once(cfg: SimConfig, tree, rng) -> tuple:
    """The simulator with one ``-log1p(-rng.random())`` per draw, kept as the
    reference; node 0's occupancy time is added when that occupancy changes,
    and every event's state is checked against the feasibility rule. An
    element with c servers and n calls serves min(n, c) of them."""
    p = cfg.params
    node_servers, edge_servers = _ref_servers(p.node_weights), _ref_servers(p.edge_weights)
    node_rate = float(p.node_weights.entries[1])
    edge_rate = float(p.edge_weights.entries[1]) if p.ce >= 1 else 0.0
    n, e = len(tree.nodes), len(tree.edges)
    occ_n = [0] * n
    occ_e = [0] * e
    center = 0
    target_edge = 0 if tree.edges else -1  # -1: no edges, nothing to count
    warmup, horizon = cfg.warmup_time, cfg.horizon_time
    deterministic = cfg.duration_mode == "deterministic"

    def exponential(scale: float) -> float:
        return scale * -math.log1p(-rng.random())

    def duration() -> float:
        return 1.0 if deterministic else exponential(1.0)

    heap: list = []
    seq = 0

    def push(t: float, kind: str, idx: int):
        nonlocal seq
        heappush(heap, (t, seq, kind, idx))
        seq += 1

    if node_rate > 0:
        for i in range(n):
            push(exponential(1.0 / node_rate), "an", i)
    if edge_rate > 0:
        for k in range(e):
            push(exponential(1.0 / edge_rate), "ae", k)

    occ_time = [0.0] * (p.cv + 1)
    offered_n = blocked_n = offered_e = blocked_e = events = 0
    last = 0.0

    def admit_node(i: int) -> bool:
        if occ_n[i] + 1 > p.cv:
            return False
        for wp, ei in tree.adjacency[i]:
            if occ_n[i] + 1 + occ_e[ei] + occ_n[wp] > p.cap:
                return False
        return True

    def admit_edge(k: int) -> bool:
        if occ_e[k] + 1 > p.ce:
            return False
        up, vp = tree.edge_ends[k]
        return occ_n[up] + occ_e[k] + 1 + occ_n[vp] <= p.cap

    def change_node(i: int, t: float, step: int):
        """Change node i's occupancy by ``step`` at time t, first timing node 0's."""
        nonlocal last
        if i == center:
            lo = max(last, warmup)
            if t > lo:
                occ_time[occ_n[center]] += t - lo
            last = t
        occ_n[i] += step

    while heap:
        t, _, kind, idx = heappop(heap)
        if t > horizon:
            break

        if kind == "an":
            counted = t >= warmup
            if counted:
                events += 1
                if idx == center:
                    offered_n += 1
            if admit_node(idx):
                change_node(idx, t, 1)
                if occ_n[idx] <= node_servers:
                    push(t + duration(), "cn", idx)
            elif counted and idx == center:
                blocked_n += 1
            push(t + exponential(1.0 / node_rate), "an", idx)
        elif kind == "ae":
            counted = t >= warmup
            if counted:
                events += 1
                if idx == target_edge:
                    offered_e += 1
            if admit_edge(idx):
                occ_e[idx] += 1
                if occ_e[idx] <= edge_servers:
                    push(t + duration(), "ce", idx)
            elif counted and idx == target_edge:
                blocked_e += 1
            push(t + exponential(1.0 / edge_rate), "ae", idx)
        elif kind == "cn":  # a completion: the freed server takes a waiting call
            change_node(idx, t, -1)
            if occ_n[idx] >= node_servers:
                push(t + duration(), "cn", idx)
        else:  # "ce"
            occ_e[idx] -= 1
            if occ_e[idx] >= edge_servers:
                push(t + duration(), "ce", idx)

        node_occ, edge_occ = dict(zip(tree.nodes, occ_n)), dict(zip(tree.edges, occ_e))
        assert is_feasible(p, tree, node_occ, edge_occ), "reference left the feasible set"

    lo = max(last, warmup)
    if horizon > lo:
        occ_time[occ_n[center]] += horizon - lo
    span = horizon - warmup
    occupancy = tuple(x / span for x in occ_time)
    return offered_n, blocked_n, offered_e, blocked_e, occupancy, events


@contextmanager
def _legality_checked():
    """Check the state of every ``simulate._simulate_once`` event against the
    feasibility rule, and yield ``[count of states checked]``.

    Each event ends in one ``heapreplace`` or ``heappop``, after its occupancy
    update, and the loop looks both up in ``simulate`` when it starts; the
    wrappers read its ``occ``, ``n``, ``tree`` and ``p`` from the calling frame.
    A forked worker's checks raise there but add nothing to the count.
    """
    checked = [0]

    def check_then(op):
        def checked_op(heap, *item):
            loop = sys._getframe(1).f_locals
            occ, n, tree = loop["occ"], loop["n"], loop["tree"]
            node_occ, edge_occ = dict(zip(tree.nodes, occ[:n])), dict(zip(tree.edges, occ[n:]))
            assert is_feasible(loop["p"], tree, node_occ, edge_occ), (
                f"simulated state left the feasible set: {node_occ} {edge_occ}"
            )
            checked[0] += 1
            return op(heap, *item)

        return checked_op

    with mock.patch.object(simulate, "heapreplace", check_then(simulate.heapreplace)), \
            mock.patch.object(simulate, "heappop", check_then(simulate.heappop)):
        yield checked


def _replications(cfg: SimConfig, once=simulate._simulate_once) -> list:
    """Each replication's counts, occupancy law and arrivals, from the loop ``once``."""
    tree = build_tree(cfg.tree, cfg.params.q)
    with mock.patch.object(simulate, "_simulate_once", once):
        return [simulate._replication(cfg, tree, k) for k in range(cfg.replications)]


@st.composite
def _sim_configs(draw):
    q = draw(st.integers(1, 3))
    cap = draw(st.integers(1, 4))
    cv = draw(st.integers(1, cap))
    ce = draw(st.integers(0, cap))
    # each family fixes its elements' service: Poisson one server per call,
    # geometric one server
    node_family = draw(st.sampled_from([poisson_weights, geometric_weights]))
    edge_family = draw(st.sampled_from([poisson_weights, geometric_weights]))
    if draw(st.integers(0, 9)) == 0:  # no node stream: edge arrivals alone
        node_weights = WeightVector((1.0,) + (0.0,) * cv)
        nu = 0.0
    else:
        nu = draw(st.floats(0.05, 4.0))
        node_weights = node_family(nu, cv)
    lam = draw(st.floats(0.05, 4.0))
    params = ModelParams(q, cap, cv, ce, node_weights, edge_family(lam, ce))
    kind = draw(st.sampled_from(["rooted", "spherical"]))
    spec = TreeSpec(kind, draw(st.integers(0 if kind == "rooted" else 1, 2)))
    tree = build_tree(spec, q)
    warmup = draw(st.one_of(st.none(), st.just(0.0), st.floats(0.5, 20.0)))
    start = 10.0 * (1.0 + nu + (lam if ce else 0.0)) if warmup is None else warmup
    return SimConfig(
        params=params,
        tree=spec,
        duration_mode=draw(st.sampled_from(["exponential", "deterministic"])),
        warmup_time=warmup,
        horizon_time=start + draw(st.floats(1.0, 40.0)),
        replications=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 2**32)),
    )


class TestBitIdentity:
    """The event loop gives the per-draw reference's results.

    Each replication's counts, occupancy law and arrival count are compared
    by ``repr``, which spells every float exactly; ``run`` aggregates those
    and nothing else, so every field of ``SimStats`` follows.
    """

    @settings(max_examples=200)
    @given(_sim_configs(), st.integers(0, 9).map(lambda k: k < 3))
    @example(
        cfg=SimConfig(  # one server at every element, each holding up to two calls
            params=ModelParams(2, 2, 2, 2, geometric_weights(1.2, 2), geometric_weights(0.8, 2)),
            tree=TreeSpec("spherical", 1),
            duration_mode="deterministic",
            warmup_time=0.0,
            horizon_time=60.0,
            replications=2,
            seed=4,
        ),
        hooked=True,
    )
    def test_equals_per_draw_reference(self, cfg, hooked):
        # the reference checks every state itself, and the hook, on three
        # draws in ten, checks the event loop's
        if hooked:
            with _legality_checked() as checked:
                reps = _replications(cfg)
            assert checked[0] >= sum(rep[-1] for rep in reps)  # at least one per arrival
        else:
            reps = _replications(cfg)
        assert repr(reps) == repr(_replications(cfg, _ref_simulate_once))

    def test_readme_configuration(self):
        cfg = SimConfig(
            params=ModelParams(2, 2, 1, 2, poisson_weights(1, 1), poisson_weights(1, 2)),
            tree=TreeSpec("spherical", 1),
            horizon_time=2000.0,
            replications=2,
            seed=2024,
        )
        assert repr(_replications(cfg)) == repr(_replications(cfg, _ref_simulate_once))


class TestWorkers:
    """``run(cfg, jobs)`` gives the serial result, every field, for any ``jobs``."""

    CONFIGS = {
        # five replications strided unevenly over two and three workers
        "per-call": SimConfig(
            params=_network_params(),
            tree=TreeSpec("spherical", 1),
            horizon_time=150.0,
            replications=5,
            seed=3,
        ),
        "shared-deterministic-checked": SimConfig(
            params=_network_params(),
            tree=TreeSpec("spherical", 1),
            duration_mode="deterministic",
            horizon_time=80.0,
            replications=5,
            seed=9,
        ),
    }

    @pytest.mark.parametrize("jobs", [2, 3, 6])
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_any_worker_count_gives_the_serial_result(self, monkeypatch, name, jobs):
        monkeypatch.setattr(_num, "_usable_cpus", lambda: 8)  # so jobs = 3 runs three
        cfg = self.CONFIGS[name]
        if name.endswith("-checked"):
            with _legality_checked() as checked:
                stats = run(cfg, jobs=jobs)
            assert checked[0] > 0  # this process's slice; the children check their own
        else:
            stats = run(cfg, jobs=jobs)
        assert repr(stats) == repr(run(cfg))

    def test_one_task_per_replication_on_the_usable_cpus(self, monkeypatch, stub_fork):
        # jobs far above two usable CPUs: map_tasks gets the five replications
        # as five tasks and forks a single child
        monkeypatch.setattr(_num, "_usable_cpus", lambda: 2)
        calls, fork_join = [], simulate.map_tasks
        monkeypatch.setattr(
            simulate, "map_tasks",
            lambda fn, tasks, jobs: calls.append(len(tasks)) or fork_join(fn, tasks, jobs),
        )
        with pytest.raises(RuntimeError, match="sent no results"):
            run(self.CONFIGS["per-call"], jobs=10**5)
        assert calls == [5]
        assert len(stub_fork) == 1

    @pytest.mark.parametrize("jobs", [0, -1, True, 2.0])
    def test_jobs_must_be_a_positive_int(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be an int >= 1, got {jobs!r}"):
            run(self.CONFIGS["per-call"], jobs=jobs)


class TestReproducibility:
    def test_same_seed_same_results(self):
        cfg = SimConfig(
            params=_network_params(),
            tree=TreeSpec("spherical", 1),
            horizon_time=150.0,
            replications=3,
            seed=11,
        )
        assert run(cfg) == run(cfg)

    def test_different_seed_different_results(self):
        base = dict(
            params=_network_params(),
            tree=TreeSpec("spherical", 1),
            horizon_time=150.0,
            replications=3,
        )
        a = run(SimConfig(seed=1, **base))
        b = run(SimConfig(seed=2, **base))
        assert a.node_beta != b.node_beta

    def test_counts_are_consistent(self):
        cfg = SimConfig(
            params=_network_params(),
            tree=TreeSpec("spherical", 1),
            horizon_time=200.0,
            replications=2,
            seed=5,
        )
        stats = run(cfg)
        assert stats.post_warmup_events > 0
        assert 0 <= stats.node_blocked <= stats.node_offered
        assert 0 <= stats.edge_blocked <= stats.edge_offered
        assert stats.replications == 2


class TestAgainstExactLaws:
    def test_single_node_per_call(self):
        p = _single_node_params(nu=1.0)
        cfg = SimConfig(
            params=p,
            tree=TreeSpec("rooted", 0),
            horizon_time=2500.0,
            replications=8,
            seed=3,
        )
        stats = run(cfg)
        t = FiniteTree((0,), ())
        report = compare(
            stats,
            {
                "node_beta": float(exact_blocking(p, t, target=0)),
                "occupancy": [float(v) for v in occupancy_distribution(p, t, node=0)],
            },
        )
        assert report.passed, report

    def test_shared_server_sees_geometric_law(self):
        # single station, one shared unit-rate server: truncated geometric
        # occupancy (1, r, r^2)/(1 + r + r^2) at arrival rate r
        r = 0.5
        p = _single_node_params(nu=r, cv=2, cap=2, family=geometric_weights)
        cfg = SimConfig(
            params=p,
            tree=TreeSpec("rooted", 0),
            horizon_time=800.0,
            replications=10,
            seed=7,
        )
        stats = run(cfg)
        z = 1.0 + r + r**2
        report = compare(
            stats,
            {
                "node_beta": r**2 / z,
                "occupancy": [1.0 / z, r / z, r**2 / z],
            },
        )
        assert report.passed, report

    def test_poisson_nodes_with_geometric_edges(self):
        # every node serves its two calls at once and every edge one call at
        # a time; one discipline for all elements misses this law by 9 to 49 SE
        p = ModelParams(2, 2, 2, 2, poisson_weights(1.5, 2), geometric_weights(0.8, 2))
        cfg = SimConfig(
            params=p,
            tree=TreeSpec("spherical", 1),
            horizon_time=3000.0,
            replications=16,
            seed=5,
        )
        assert cfg._servers == (2, 1)
        stats = run(cfg)
        t = spherical_tree(2, 1)
        report = compare(
            stats,
            {
                "node_beta": float(exact_blocking(p, t, target=0)),
                "edge_beta": float(exact_blocking(p, t, target=(0, 1))),
                "occupancy": [float(v) for v in occupancy_distribution(p, t, node=0)],
            },
        )
        assert all(e.ok for e in report.entries), report

    def test_deterministic_durations_same_stationary_law(self):
        # the stationary law depends on durations only through their mean
        p = _single_node_params(nu=1.0)
        base = dict(
            params=p, tree=TreeSpec("rooted", 0), horizon_time=600.0, replications=8
        )
        exp_stats = run(SimConfig(duration_mode="exponential", seed=21, **base))
        det_stats = run(SimConfig(duration_mode="deterministic", seed=22, **base))
        report = compare_runs(exp_stats, det_stats)
        assert report.passed, report

    def test_small_network_with_edge_stream(self):
        p = _network_params()
        cfg = SimConfig(
            params=p,
            tree=TreeSpec("spherical", 1),
            horizon_time=500.0,
            replications=8,
            seed=13,
        )
        stats = run(cfg)
        t = spherical_tree(2, 1)
        report = compare(
            stats,
            {
                "node_beta": float(exact_blocking(p, t, target=0)),
                "edge_beta": float(exact_blocking(p, t, target=(0, 1))),
                "occupancy": [float(v) for v in occupancy_distribution(p, t, node=0)],
            },
        )
        assert report.passed, report

    def test_state_legality_assertions_run_clean(self):
        cfg = SimConfig(
            params=_network_params(),
            tree=TreeSpec("spherical", 1),
            horizon_time=80.0,
            replications=2,
            seed=17,
        )
        with _legality_checked() as checked:
            stats = run(cfg)
        # every arrival is an event, and the departures are events too
        assert checked[0] > stats.post_warmup_events > 0

    def test_legality_check_refuses_an_infeasible_state(self):
        def event_end(p, tree, n, occ):  # the loop's names, read by the check
            simulate.heappop([(0.0, 0, 0)])

        p, tree = _network_params(), spherical_tree(2, 1)  # cv = ce = 1, 4 nodes, 3 edges
        with _legality_checked() as checked:
            event_end(p, tree, 4, [1, 0, 0, 0, 0, 0, 1])
            with pytest.raises(AssertionError, match="left the feasible set"):
                event_end(p, tree, 4, [2, 0, 0, 0, 0, 0, 0])
        assert checked == [1]


class TestEdgelessTrees:
    def test_edge_estimates_are_nan(self):
        cfg = SimConfig(
            params=_single_node_params(),
            tree=TreeSpec("rooted", 0),
            horizon_time=100.0,
            replications=2,
            seed=1,
        )
        stats = run(cfg)
        assert stats.edge_offered == 0
        assert math.isnan(stats.edge_beta)
        assert math.isnan(stats.edge_beta_se)

    def test_comparing_the_missing_stream_is_an_error(self):
        cfg = SimConfig(
            params=_single_node_params(),
            tree=TreeSpec("rooted", 0),
            horizon_time=100.0,
            replications=2,
            seed=1,
        )
        stats = run(cfg)
        with pytest.raises(ValueError, match="no observations"):
            compare(stats, {"edge_beta": 0.1})


class TestCompare:
    def _stats(self):
        cfg = SimConfig(
            params=_network_params(),
            tree=TreeSpec("spherical", 1),
            horizon_time=150.0,
            replications=4,
            seed=9,
        )
        return run(cfg)

    def test_identical_references_give_zero_z(self):
        stats = self._stats()
        report = compare(
            stats,
            {"node_beta": stats.node_beta, "occupancy": list(stats.occupancy)},
        )
        assert all(e.z == 0.0 for e in report.entries)
        assert all(e.ok for e in report.entries)
        assert report.passed

    def test_shifted_references_fail(self):
        stats = self._stats()
        shifted = stats.node_beta + 10.0 * stats.node_beta_se
        report = compare(stats, {"node_beta": shifted})
        assert not report.entries[0].ok
        assert not report.passed

    def test_zero_stderr_gives_an_infinite_z_to_a_differing_estimate(self):
        stats = replace(self._stats(), node_beta_se=0.0)
        report = compare(stats, {"node_beta": stats.node_beta + 0.01})
        (entry,) = report.entries
        assert entry.z == math.inf
        assert not entry.ok
        assert not report.passed

    def test_validation(self):
        stats = self._stats()
        with pytest.raises(ValueError):
            compare(stats, {"nonsense": 1.0})
        with pytest.raises(ValueError):
            compare(stats, {})
        with pytest.raises(ValueError):
            compare(stats, {"occupancy": [0.5]})  # wrong length

    def test_compare_runs_self_is_exact(self):
        stats = self._stats()
        report = compare_runs(stats, stats)
        assert isinstance(report, CompareReport)
        assert all(e.z == 0.0 for e in report.entries)
        assert report.passed

    def test_compare_runs_support_mismatch(self):
        a = self._stats()
        cfg = SimConfig(
            params=_single_node_params(cv=2),
            tree=TreeSpec("rooted", 0),
            horizon_time=100.0,
            replications=2,
            seed=9,
        )
        with pytest.raises(ValueError):
            compare_runs(a, run(cfg))


class TestConfigValidation:
    def test_bad_modes(self):
        p = _single_node_params()
        with pytest.raises(ValueError):
            SimConfig(params=p, tree=TreeSpec("rooted", 0), duration_mode="uniform")

    @staticmethod
    def _weighted(node, edge) -> SimConfig:
        cv, ce = len(node) - 1, len(edge) - 1
        p = ModelParams(1, max(3, ce), cv, ce, WeightVector(node), WeightVector(edge))
        return SimConfig(params=p, tree=TreeSpec("rooted", 1))

    def test_server_counts_follow_the_weights(self):
        def servers(node, edge):
            return self._weighted(node, edge)._servers

        assert servers(poisson_weights(0.7, 3).entries, geometric_weights(0.7, 3).entries) == (3, 1)
        assert servers(geometric_weights(2.0, 2).entries, poisson_weights(2.0, 3).entries) == (1, 3)
        # at a cap of one call Poisson and geometric agree; no calls, nothing to serve
        assert servers((1, 0.5), (1.0,)) == (1, 1)
        assert servers((1, 0, 0), (1, 0, 0, 0)) == (1, 1)
        # a series written in 12 digits matches, within a relative 1e-9
        assert servers((1, 0.8, 0.32), (1, 1.3, 1.69, 2.197)) == (2, 1)
        assert servers((1, 0.8, 0.32 * (1 + 9e-10)), (1.0,)) == (2, 1)

    @pytest.mark.parametrize("node,edge,message", [
        ((1, 0.5, 0.3), (1.0,), r"^node weights are neither Poisson .* r = w_1 = 0.5$"),
        ((1, 0.8, 0.32 * (1 + 2e-9)), (1.0,), "^node weights are neither Poisson"),
        ((1, 0.5), (1, 0.5, 0.3), "^edge weights are neither Poisson"),
        ((1, 0.5), (1, 0, 0.25), r"^edge weights are neither Poisson .* r = w_1 = 0.0$"),
        ((1, 0.5), (1, 0.5, 0), "^edge weights are neither Poisson"),
        ((1, 0.5), (2, 1, 0.25), r"^edge weights must start with w_0 = 1, got 2$"),
        ((1, 0.5), (2,), r"^edge weights must start with w_0 = 1, got 2$"),
        # a series entry beyond the floats matches no vector
        ((1, 1e300), (1, 1e300, 1e300), "^edge weights are neither Poisson"),
        # the series builders stop at top index 1000, as the Poisson tail underflows
        ((1, 0.5), poisson_weights(0.5, 1000).entries + (0.0,),
         r"^edge weights' top index must be an int in \[0, 1000\], got 1001$"),
    ])
    def test_weights_of_no_service_are_refused(self, node, edge, message):
        with pytest.raises(ValueError, match=message):
            self._weighted(node, edge)

    def test_bad_counts_and_seeds(self):
        p = _single_node_params()
        with pytest.raises(ValueError):
            SimConfig(params=p, tree=TreeSpec("rooted", 0), replications=0)
        with pytest.raises(ValueError):
            SimConfig(params=p, tree=TreeSpec("rooted", 0), seed=-1)

    def test_horizon_must_exceed_warmup(self):
        p = _single_node_params()
        with pytest.raises(ValueError):
            SimConfig(
                params=p, tree=TreeSpec("rooted", 0), warmup_time=50.0, horizon_time=50.0
            )
        with pytest.raises(ValueError):
            SimConfig(params=p, tree=TreeSpec("rooted", 0), warmup_time=-1.0)

    def test_tree_size_limit(self):
        p = _single_node_params()  # q = 1: a rooted tree of height h has h + 1 nodes
        SimConfig(params=p, tree=TreeSpec("rooted", 99_999))
        with pytest.raises(ValueError, match="height 100000 at q = 1 has 100001 nodes"):
            SimConfig(params=p, tree=TreeSpec("rooted", 100_000))
        with pytest.raises(ValueError, match=f"has more than {2**64} nodes"):
            SimConfig(params=_network_params(), tree=TreeSpec("spherical", 10**9))

    def test_replication_limit(self):
        p = _single_node_params()
        SimConfig(params=p, tree=TreeSpec("rooted", 0), replications=100_000)
        with pytest.raises(ValueError, match=r"replications must be an int in \[1, 100000\]"):
            SimConfig(params=p, tree=TreeSpec("rooted", 0), replications=100_001)

    def test_default_warmup_scales_with_rates(self):
        cfg = SimConfig(params=_single_node_params(nu=4.0), tree=TreeSpec("rooted", 0))
        assert cfg.warmup_time == 10.0 * (1.0 + 4.0)

    def test_overflowing_default_warmup_names_the_rates(self):
        # 10 * (1 + 1e308 + 0.8) is inf: the rates are at fault, not a warmup
        # the caller never gave
        p = _network_params(nu=1e308)
        with pytest.raises(ValueError) as err:
            SimConfig(params=p, tree=TreeSpec("spherical", 1))
        assert str(err.value) == (
            "node rate 1e+308 and edge rate 0.8 overflow the default warmup "
            "10 * (1 + node rate + edge rate)"
        )
        # a given warmup is the caller's, and the rates then refuse the run
        # by its expected arrivals
        with pytest.raises(ValueError, match=r"^the run expects more than 1e\+308 arrivals"):
            SimConfig(params=p, tree=TreeSpec("spherical", 1), warmup_time=1.0)

    def test_expected_arrivals_limit(self):
        # one node at rate 1 for 10^9 time units expects exactly 10^9 arrivals
        p = _single_node_params(nu=1.0)
        SimConfig(params=p, tree=TreeSpec("rooted", 0), warmup_time=0.0, horizon_time=1e9,
                  replications=1)
        with pytest.raises(ValueError) as err:
            SimConfig(params=p, tree=TreeSpec("rooted", 0), warmup_time=0.0, horizon_time=1e9,
                      replications=2)
        assert str(err.value) == (
            "the run expects 2e+09 arrivals, replications * horizon * (nodes * node rate "
            "+ edges * edge rate); simulate takes at most 1e+09"
        )
        # nodes and edges both count: the q = 2 ball of radius 1 has 4 and 3,
        # so at rates 2 and 2 each time unit expects 14 arrivals
        p, spec = _network_params(nu=2.0, lam=2.0), TreeSpec("spherical", 1)
        SimConfig(params=p, tree=spec, warmup_time=0.0, horizon_time=5e7, replications=1)
        with pytest.raises(ValueError, match=r"expects 1.4e\+09 arrivals"):
            SimConfig(params=p, tree=spec, warmup_time=0.0, horizon_time=1e8, replications=1)
