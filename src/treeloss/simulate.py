"""Event-driven continuous-time simulation of the loss process on a finite tree.

Calls arrive in independent Poisson streams: one per node (rate = second node
weight entry) and one per edge (rate = second edge weight entry; absent when
the per-edge call cap is zero). Nodes and edges are one kind of element:
elements 0..n-1 are the nodes and n..n+e-1 the edges, each with its own cap
(cv or ce) and the edge budgets it draws on (a node every incident edge's, an
edge its own). An arrival is admitted iff the element's own cap and every
budget it draws on still hold with one more call, which is the
route-and-resource rule of a loss network (Kelly 1991). There are three
event kinds: an arrival, the departure of one call, and a service
completion.

Two service disciplines:

* ``per_call`` — every admitted call holds its slot for an independent
  unit-mean duration (sampled exponential, or exactly 1 in deterministic
  mode), so an element with occupancy n drains at rate n.
* ``shared_server`` — each busy element completes one call per unit-mean
  service period, regardless of how many are queued on it.

Estimates use arrival counting (admitted/offered) after a warmup interval
at node 0 (the ball's centre or the rooted tree's root) and at the first
edge, plus the time-averaged occupancy law of node 0. Replications
run on independent counter-based RNG streams spawned from one seed, so
results are reproducible bit-for-bit. ``run(cfg, jobs)`` splits them into
w contiguous slices, w = ``jobs`` capped at the replications and the usable
CPUs (``_num.pool_size``), one per worker (this process and w - 1 forked
children, through ``_num.map_tasks``), each worker building the tree once,
and joins the slices in replication order before aggregating, so every
estimate is the same float for any number of workers (independent
replications in parallel, Heidelberger 1988). A fork copies only the
calling thread, so a run that forks imports numpy, if it is not loaded yet,
with one BLAS thread, and the workers inherit it.

Each replication draws standard exponentials from its stream in blocks of
``_BLOCK`` and forms an exponential of rate r as ``(1.0 / r) * e``. numpy's
``exponential(scale)`` computes exactly ``scale * standard_exponential()``,
and filling an array consumes the bit generator in the same order as
repeated scalar calls, so every draw is the same float as a scalar
``rng.exponential(1.0 / r)`` would give at that point, and the estimates
are bit-identical to drawing one value per event.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from itertools import repeat

from ._num import check_int, check_nonneg, map_tasks, pool_size
from .oracle import _COUNT_CAP, Configuration, TreeSpec, _spec_nodes, build_tree, is_feasible
from .rfmap import ModelParams

__all__ = [
    "SimConfig",
    "SimStats",
    "CompareEntry",
    "CompareReport",
    "run",
    "compare",
    "compare_runs",
]

# Largest tree simulated. Building the q = 10, radius 5 ball (122,222 nodes)
# alone peaks near 100 MB (0.5 s on a 2-core Xeon), and each further radius
# step multiplies that by about ten.
_MAX_NODES = 10**5
# Most replications a run takes. Spawning their seeds alone costs about 430
# bytes and 10 us each (72 MB and 1.0 s for 10^5 on a 2-core Xeon), before
# any replication runs.
_MAX_REPLICATIONS = 10**5
_SERVICE_MODES = ("per_call", "shared_server")
_DURATION_MODES = ("exponential", "deterministic")
# the variables that size numpy's BLAS thread pool, which starts on import
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class SimConfig:
    """A simulation of ``params`` on the finite tree that ``tree`` names;
    ``warmup_time`` defaults to 10 * (1 + node rate + edge rate), refused when
    that overflows."""

    params: ModelParams
    tree: TreeSpec
    service_mode: str = "per_call"
    duration_mode: str = "exponential"
    warmup_time: float | None = None
    horizon_time: float = 1000.0
    replications: int = 8
    seed: int = 0
    check_feasibility: bool = False

    def __post_init__(self):
        if self.service_mode not in _SERVICE_MODES:
            raise ValueError(f"service_mode must be one of {_SERVICE_MODES}")
        if self.duration_mode not in _DURATION_MODES:
            raise ValueError(f"duration_mode must be one of {_DURATION_MODES}")
        check_int("replications", self.replications, 1, _MAX_REPLICATIONS)
        check_int("seed", self.seed, 0)
        nodes = _spec_nodes(self.tree, self.params.q)
        if nodes > _MAX_NODES:
            count = nodes if nodes <= _COUNT_CAP else f"more than {_COUNT_CAP}"
            size = "height" if self.tree.kind == "rooted" else "radius"
            raise ValueError(
                f"a {self.tree.kind} tree of {size} {self.tree.size} at q = {self.params.q} "
                f"has {count} nodes; simulate takes at most {_MAX_NODES}"
            )
        warmup = self.warmup_time
        if warmup is None:
            node, edge = _node_rate(self.params), _edge_rate(self.params)
            warmup = 10.0 * (1.0 + node + edge)
            if warmup == math.inf:
                raise ValueError(
                    f"node rate {node!r} and edge rate {edge!r} overflow the default "
                    "warmup 10 * (1 + node rate + edge rate)"
                )
        warmup = check_nonneg("warmup_time", warmup)
        object.__setattr__(self, "warmup_time", warmup)
        horizon = float(self.horizon_time)
        if not math.isfinite(horizon) or horizon <= warmup:
            raise ValueError("horizon_time must be finite and exceed the warmup")
        object.__setattr__(self, "horizon_time", horizon)


@dataclass(frozen=True)
class SimStats:
    """Estimates at node 0 and the first edge: arrival counts summed over the
    replications, and blocking ratios and node 0's occupancy law as means with
    standard errors (nan from one replication; edge values nan without edge calls)."""

    replications: int
    post_warmup_events: int
    node_offered: int
    node_blocked: int
    edge_offered: int
    edge_blocked: int
    node_beta: float
    node_beta_se: float
    edge_beta: float
    edge_beta_se: float
    occupancy: tuple
    occupancy_se: tuple


def _node_rate(p: ModelParams) -> float:
    return float(p.node_weights.entries[1])


def _edge_rate(p: ModelParams) -> float:
    return float(p.edge_weights.entries[1]) if p.ce >= 1 else 0.0


# Standard exponentials drawn per numpy call. The size sets only the cost:
# the draws come out in stream order whatever it is.
_BLOCK = 4096

# Event kinds: a call arrives, a per-call holding time ends, or a shared
# server completes its current call.
_ARRIVE, _DEPART, _COMPLETE = range(3)


def _standard_exponentials(rng):
    """Yield ``rng``'s standard exponentials in stream order, a block at a time."""
    while True:
        # a memoryview yields Python floats without holding a list of them
        yield from memoryview(rng.standard_exponential(_BLOCK))


def _simulate_once(cfg: SimConfig, tree, rng) -> tuple:
    p = cfg.params
    cap = p.cap
    n, e = len(tree.nodes), len(tree.edges)
    # Elements 0..n-1 are the nodes, n..n+e-1 the edges. budget[x] lists, for
    # each budget x draws on, the other two elements of its node-edge-node triple.
    top = [p.cv] * n + [p.ce] * e
    rates = [_node_rate(p)] * n + [_edge_rate(p)] * e
    scale = [1.0 / r if r > 0 else 0.0 for r in rates]
    budget = [[(n + ei, w) for w, ei in adj] for adj in tree.adjacency]
    budget += [[ends] for ends in tree.edge_ends]
    occ = [0] * (n + e)
    warmup, horizon = cfg.warmup_time, cfg.horizon_time
    shared = cfg.service_mode == "shared_server"
    service = _COMPLETE if shared else _DEPART
    check_feasibility = cfg.check_feasibility
    push, pop, replace = heappush, heappop, heapreplace
    draw = _standard_exponentials(rng).__next__
    # exponential(scale) is scale * standard exponential, and 1.0 * x == x
    duration = repeat(1.0).__next__ if cfg.duration_mode == "deterministic" else draw

    # (time, sequence number, kind, element); the sequence number breaks ties
    armed = [x for x in range(n + e) if rates[x] > 0]
    heap = [(scale[x] * draw(), s, _ARRIVE, x) for s, x in enumerate(armed)]
    heapify(heap)
    seq = len(heap)

    def assert_legal():
        cfg_now = Configuration(
            node_occ=dict(zip(tree.nodes, occ[:n])),
            edge_occ=dict(zip(tree.edges, occ[n:])),
        )
        if not is_feasible(p, tree, cfg_now):
            raise RuntimeError("internal consistency: simulated state left the feasible set")

    def tallies():
        return [0.0] * (p.cv + 1), [0] * (n + e), [0] * (n + e)

    # One loop body, run twice: the events before the warmup (t < warmup, that
    # is t <= the float below it) go into tallies that are thrown away, and the
    # rest up to the horizon into the estimates, timed from last = warmup.
    # Adding t - last = 0.0 leaves an occupancy time as it is.
    occ_time, offered, blocked = tallies()
    phases = (
        (0.0, math.nextafter(warmup, -math.inf), tallies()),
        (warmup, horizon, (occ_time, offered, blocked)),
    )
    for last, end, (times, offers, blocks) in phases:
        while heap:
            # The event is handled at the top of the heap, which an arrival's
            # successor or a re-armed completion then replaces; (t, seq) keys
            # are unique, so the events come out in the order pops would give.
            t, _, kind, x = heap[0]
            if t > end:
                break
            times[occ[0]] += t - last
            last = t

            if kind == _ARRIVE:
                o = occ[x] + 1
                admit = o <= top[x]
                if admit:
                    for a, b in budget[x]:
                        if o + occ[a] + occ[b] > cap:
                            admit = False
                            break
                offers[x] += 1
                if admit:
                    # a shared server is started by the call that finds it idle
                    if not shared or o == 1:
                        push(heap, (t + duration(), seq, service, x))
                        seq += 1
                    occ[x] = o
                else:
                    blocks[x] += 1
                replace(heap, (t + scale[x] * draw(), seq, _ARRIVE, x))
                seq += 1
            else:  # _DEPART or _COMPLETE
                occ[x] -= 1
                if kind == _COMPLETE and occ[x] >= 1:
                    replace(heap, (t + duration(), seq, _COMPLETE, x))
                    seq += 1
                else:
                    pop(heap)

            if check_feasibility:
                assert_legal()
        times[occ[0]] += end - last

    span = horizon - warmup
    occupancy = tuple(x / span for x in occ_time)
    edge_counts = (offered[n], blocked[n]) if e else (0, 0)
    return offered[0], blocked[0], *edge_counts, occupancy, sum(offered)


def _mean_se(values: list) -> tuple:
    r = len(values)
    mean = math.fsum(values) / r
    if r < 2:
        return mean, math.nan
    var = math.fsum((v - mean) ** 2 for v in values) / (r - 1)
    return mean, math.sqrt(var / r)


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else math.nan


def _run_slice(cfg: SimConfig, seeds: list) -> list:
    """Build the tree once and simulate one replication per seed sequence in
    ``seeds``, in order."""
    import numpy as np

    tree = build_tree(cfg.tree, cfg.params.q)
    return [_simulate_once(cfg, tree, np.random.Generator(np.random.Philox(s))) for s in seeds]


def run(cfg: SimConfig, jobs: int = 1) -> SimStats:
    """Simulate ``cfg`` on up to ``jobs`` processes (1: this one alone).

    The replications are split into ``pool_size(jobs, replications)``
    contiguous slices and joined back in order, so the result is the same
    for any ``jobs``.
    """
    check_int("jobs", jobs, 1)
    workers = pool_size(jobs, cfg.replications)
    # numpy is imported here so the analytic commands start without it, and
    # before the workers fork, so they inherit it; a fork copies only the
    # calling thread, so no BLAS thread may start before it
    blas_set = any(v in os.environ for v in _BLAS_THREAD_VARS)
    if workers > 1 and "numpy" not in sys.modules and not blas_set:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        import numpy  # noqa: F401
        del os.environ["OPENBLAS_NUM_THREADS"]
    import numpy as np

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.replications)
    cuts = [cfg.replications * k // workers for k in range(workers + 1)]
    slices = [seeds[a:b] for a, b in zip(cuts, cuts[1:])]
    reps = [rep for part in map_tasks(partial(_run_slice, cfg), slices, workers) for rep in part]
    offered_n, blocked_n, offered_e, blocked_e, occupancies, events = zip(*reps)
    node_beta, node_se = _mean_se(list(map(_ratio, blocked_n, offered_n)))
    edge_betas = list(map(_ratio, blocked_e, offered_e))
    if any(map(math.isnan, edge_betas)):
        edge_beta, edge_se = math.nan, math.nan
    else:
        edge_beta, edge_se = _mean_se(edge_betas)
    occ_stats = [_mean_se(list(column)) for column in zip(*occupancies)]
    return SimStats(
        replications=cfg.replications,
        post_warmup_events=sum(events),
        node_offered=sum(offered_n),
        node_blocked=sum(blocked_n),
        edge_offered=sum(offered_e),
        edge_blocked=sum(blocked_e),
        node_beta=node_beta,
        node_beta_se=node_se,
        edge_beta=edge_beta,
        edge_beta_se=edge_se,
        occupancy=tuple(m for m, _ in occ_stats),
        occupancy_se=tuple(s for _, s in occ_stats),
    )


@dataclass(frozen=True)
class CompareEntry:
    name: str
    estimate: float
    reference: float
    stderr: float
    z: float

    @property
    def ok(self) -> bool:
        return abs(self.z) <= 3.0


@dataclass(frozen=True)
class CompareReport:
    entries: tuple
    fraction_within: float
    passed: bool


def _zscore(estimate: float, reference: float, stderr: float) -> float:
    if math.isnan(estimate) or math.isnan(stderr):
        raise ValueError("estimate has no observations; target mismatch")
    if estimate == reference:
        return 0.0
    if stderr == 0.0:
        return math.inf
    return (estimate - reference) / stderr


def _report(rows) -> CompareReport:
    """Z-score each (name, estimate, reference, stderr) of ``rows``, in order.

    Passes when at least 95% of the quantities lie within 3 standard errors.
    """
    entries = tuple(CompareEntry(*row, _zscore(*row[1:])) for row in rows)
    if not entries:
        raise ValueError("nothing to compare")
    frac = sum(e.ok for e in entries) / len(entries)
    return CompareReport(entries, frac, frac >= 0.95)


def compare(stats: SimStats, exact: dict) -> CompareReport:
    """Z-score each estimate against exact reference values.

    ``exact`` maps any of ``node_beta``, ``edge_beta`` (floats) and
    ``occupancy`` (vector) to reference values; unknown keys or shape
    mismatches are rejected. Passes when at least 95% of quantities land
    within 3 standard errors.
    """
    allowed = {"node_beta", "edge_beta", "occupancy"}
    unknown = set(exact) - allowed
    if unknown:
        raise ValueError(f"unknown comparison targets: {sorted(unknown)}")
    if not exact:
        raise ValueError("no comparison targets given")

    def rows():
        for name in ("node_beta", "edge_beta"):
            if name in exact:
                ref = float(exact[name])
                yield name, getattr(stats, name), ref, getattr(stats, f"{name}_se")
        if "occupancy" in exact:
            ref = tuple(float(x) for x in exact["occupancy"])
            if len(ref) != len(stats.occupancy):
                raise ValueError("occupancy reference has the wrong length")
            for i, row in enumerate(zip(stats.occupancy, ref, stats.occupancy_se)):
                yield (f"occupancy[{i}]", *row)

    return _report(rows())


def compare_runs(a: SimStats, b: SimStats) -> CompareReport:
    """Z-score two runs against each other with pooled standard errors."""
    if len(a.occupancy) != len(b.occupancy):
        raise ValueError("runs have different occupancy supports")

    def rows():
        for name in ("node_beta", "edge_beta"):
            x, sx = getattr(a, name), getattr(a, f"{name}_se")
            y, sy = getattr(b, name), getattr(b, f"{name}_se")
            if not (math.isnan(x) and math.isnan(y)):
                yield name, x, y, math.sqrt(sx**2 + sy**2)
        for i, (x, y, sx, sy) in enumerate(
            zip(a.occupancy, b.occupancy, a.occupancy_se, b.occupancy_se)
        ):
            yield f"occupancy[{i}]", x, y, math.sqrt(sx**2 + sy**2)

    return _report(rows())
