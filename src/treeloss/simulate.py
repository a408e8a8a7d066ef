"""Event-driven continuous-time simulation of the loss process on a finite tree.

Calls arrive in independent Poisson streams: one per node (rate = second node
weight entry) and one per edge (rate = second edge weight entry; absent when
the per-edge call cap is zero). Nodes and edges are one kind of element:
elements 0..n-1 are the nodes and n..n+e-1 the edges, each with its own cap
(cv or ce) and the edge budgets it draws on (a node every incident edge's, an
edge its own). An arrival is admitted iff the element's own cap and every
budget it draws on still hold with one more call, which is the
route-and-resource rule of a loss network (Kelly 1991), so every state
the loop reaches is feasible. There are two event kinds: an arrival, and a
server's completion of the call it serves. Each event ends in exactly one
``heapreplace`` or ``heappop``, looked up in this module when a replication
starts and called after the event's occupancy update:
``tests/test_simulate.py`` wraps both to check every state against the
feasibility rule.

Each element serves calls the way its weights w say, so that its law is the
product form's (Kelly, *Reversibility and Stochastic Networks*, 1979):
Poisson weights r^n/n! every call at once, so occupancy n drains at rate n,
and geometric weights r^n one call at a time, so a busy element drains at
rate 1. A service takes an independent unit-mean duration (sampled
exponential, or exactly 1 in deterministic mode). ``_server_count`` matches
w with both series in its rate r = w_1; ``SimConfig`` refuses any other
vector, and any w_0 other than 1.

Estimates use arrival counting (admitted/offered) after a warmup interval
at node 0 (the ball's centre or the rooted tree's root) and at the first
edge, plus the time-averaged occupancy law of node 0. Replication k draws
from its own Mersenne Twister, ``random.Random(f"treeloss.simulate {seed}
{k}")``: a ``str`` seed is hashed with SHA-512, and the same seed gives the
same ``random()`` sequence on every Python version, so results are
reproducible bit-for-bit (given the C library's ``log1p``). ``run(cfg,
jobs)`` builds the tree once and hands ``_num.map_tasks`` one task per
replication: with w workers (this process and w - 1 forked children, which
share the tree) worker k takes replications k, k + w, ..., and the results
come back in replication order before aggregating, so every estimate is the
same float for any number of workers (independent replications in
parallel, Heidelberger 1988).

A standard exponential is e = ``-log1p(-u)`` for u = ``rng.random()`` in
[0, 1), so finite and >= 0, and one of rate r is ``(1.0 / r) * e``. Each is
drawn when the event that uses it is scheduled, so the draws follow the
order in which the loop schedules events.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from heapq import heapify, heappop, heappush, heapreplace
from math import log1p

from ._num import check_int, check_nonneg, map_tasks
from .oracle import _COUNT_CAP, TreeSpec, _spec_nodes, build_tree
from .rfmap import ModelParams
from .weights import _MAX_TOP_INDEX, WeightVector, geometric_weights, poisson_weights

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
# Most replications a run takes. Each seeds its own Mersenne Twister: 10^5
# cost about 2 s and 50 MB on a 2-core Xeon.
_MAX_REPLICATIONS = 10**5
# Most arrivals a run may expect, about half an hour of event loop on one core.
_MAX_ARRIVALS = 10**9
# How far, relative, a weight entry may lie from its series and still be read
# as that series: a weight file in 12 significant digits matches.
_SERIES_RTOL = 1e-9
_DURATION_MODES = ("exponential", "deterministic")


def _server_count(w: WeightVector, what: str) -> int:
    """The servers of an element with weights ``w``: its top index c for
    Poisson weights, 1 for geometric ones (and for a vector that sees no calls)."""
    entries = w.entries
    if float(entries[0]) != 1.0:
        raise ValueError(f"{what} weights must start with w_0 = 1, got {entries[0]!r}")
    if not any(entries[1:]):
        return 1
    top, rate = len(entries) - 1, float(entries[1])
    check_int(f"{what} weights' top index", top, 0, _MAX_TOP_INDEX)
    for servers, series in ((top, poisson_weights), (1, geometric_weights)):
        try:
            ref = series(rate, top).entries
        except ValueError:  # a zero rate, or a series entry beyond the floats
            continue
        if all(math.isclose(x, y, rel_tol=_SERIES_RTOL) for x, y in zip(entries, ref)):
            return servers
    raise ValueError(
        f"{what} weights are neither Poisson (r^n/n!, every call served at once) nor "
        f"geometric (r^n, one call at a time) in their rate r = w_1 = {rate!r}"
    )


@dataclass(frozen=True)
class SimConfig:
    """A simulation of ``params`` on the finite tree that ``tree`` names;
    ``warmup_time`` defaults to 10 * (1 + node rate + edge rate), refused when
    that overflows. A run expecting more than ``_MAX_ARRIVALS`` arrivals is refused.
    The private non-field ``_servers`` holds the node and edge server counts."""

    params: ModelParams
    tree: TreeSpec
    duration_mode: str = "exponential"
    warmup_time: float | None = None
    horizon_time: float = 1000.0
    replications: int = 8
    seed: int = 0

    def __post_init__(self):
        p = self.params
        servers = _server_count(p.node_weights, "node"), _server_count(p.edge_weights, "edge")
        object.__setattr__(self, "_servers", servers)
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
        node, edge = _node_rate(self.params), _edge_rate(self.params)
        warmup = self.warmup_time
        if warmup is None:
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
        # a tree's edges are its nodes less one
        arrivals = self.replications * horizon * (nodes * node + (nodes - 1) * edge)
        if arrivals > _MAX_ARRIVALS:
            count = f"{arrivals:.3g}" if arrivals < math.inf else "more than 1e+308"
            raise ValueError(
                f"the run expects {count} arrivals, replications * horizon * (nodes * "
                f"node rate + edges * edge rate); simulate takes at most {_MAX_ARRIVALS:.0e}"
            )


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


def _simulate_once(cfg: SimConfig, tree, rng) -> tuple:
    p = cfg.params
    cap = p.cap
    n, e = len(tree.nodes), len(tree.edges)
    m = n + e
    # Elements 0..n-1 are the nodes, n..m-1 the edges. budget[x] lists, for
    # each budget x draws on, the other two elements of its node-edge-node triple.
    top = [p.cv] * n + [p.ce] * e
    node_servers, edge_servers = cfg._servers
    servers = [node_servers] * n + [edge_servers] * e
    rates = [_node_rate(p)] * n + [_edge_rate(p)] * e
    scale = [1.0 / r if r > 0 else 0.0 for r in rates]
    budget = [[(n + ei, w) for w, ei in adj] for adj in tree.adjacency]
    budget += [[ends] for ends in tree.edge_ends]
    occ = [0] * m
    warmup, horizon = cfg.warmup_time, cfg.horizon_time
    push, pop, replace = heappush, heappop, heapreplace
    u = rng.random
    # a deterministic service lasts exactly 1.0 and draws nothing
    sampled = cfg.duration_mode == "exponential"

    # (time, sequence number, code): code x < m is an arrival at element x,
    # code m + x a completion at x; the sequence number breaks ties
    armed = [x for x in range(m) if rates[x] > 0]
    heap = [(scale[x] * -log1p(-u()), s, x) for s, x in enumerate(armed)]
    heapify(heap)
    seq = len(heap)

    def tallies():
        return [0.0] * (p.cv + 1), [0] * m, [0] * m

    # One loop body, run twice: the events before the warmup (t < warmup, that
    # is t <= the float below it) go into tallies that are thrown away, and the
    # rest up to the horizon into the estimates, timed from last = warmup.
    # Node 0's occupancy time is added when that occupancy changes and at the
    # end of each phase.
    occ_time, admitted, blocked = tallies()
    phases = (
        (0.0, math.nextafter(warmup, -math.inf), tallies()),
        (warmup, horizon, (occ_time, admitted, blocked)),
    )
    for last, end, (times, admits, blocks) in phases:
        while heap:
            # The event is handled at the top of the heap, which an arrival's
            # successor or a re-armed completion then replaces; (t, seq) keys
            # are unique, so the events come out in the order pops would give.
            t, _, x = heap[0]
            if t > end:
                break

            if x < m:  # an arrival at x
                o = occ[x] + 1
                if o <= top[x]:
                    for a, b in budget[x]:
                        if o + occ[a] + occ[b] > cap:
                            blocks[x] += 1
                            break
                    else:  # every budget holds: admit
                        admits[x] += 1
                        # a call that finds a server idle starts its service
                        if o <= servers[x]:
                            push(heap, (t + (-log1p(-u()) if sampled else 1.0), seq, m + x))
                            seq += 1
                        if not x:
                            times[o - 1] += t - last
                            last = t
                        occ[x] = o
                else:
                    blocks[x] += 1
                replace(heap, (t + scale[x] * -log1p(-u()), seq, x))
                seq += 1
            else:  # a completion at x - m
                x -= m
                o = occ[x] - 1
                if not x:
                    times[o + 1] += t - last
                    last = t
                occ[x] = o
                # the freed server takes a waiting call, if any waits
                if o >= servers[x]:
                    replace(heap, (t + (-log1p(-u()) if sampled else 1.0), seq, m + x))
                    seq += 1
                else:
                    pop(heap)
        times[occ[0]] += end - last

    span = horizon - warmup
    occupancy = tuple(x / span for x in occ_time)
    arrivals = sum(admitted) + sum(blocked)
    edge_counts = (admitted[n] + blocked[n], blocked[n]) if e else (0, 0)
    return admitted[0] + blocked[0], blocked[0], *edge_counts, occupancy, arrivals


def _mean_se(values: list) -> tuple:
    r = len(values)
    mean = math.fsum(values) / r
    if r < 2:
        return mean, math.nan
    var = math.fsum((v - mean) ** 2 for v in values) / (r - 1)
    return mean, math.sqrt(var / r)


def _ratio(num: int, den: int) -> float:
    return num / den if den > 0 else math.nan


def _replication(cfg: SimConfig, tree, k: int) -> tuple:
    """Replication k of ``cfg`` on ``tree``, drawn from its own stream."""
    return _simulate_once(cfg, tree, random.Random(f"treeloss.simulate {cfg.seed} {k}"))


def run(cfg: SimConfig, jobs: int = 1) -> SimStats:
    """Simulate ``cfg`` on up to ``jobs`` processes (1: this one alone).

    Each replication is one ``map_tasks`` task, so worker k of w takes
    replications k, k + w, ..., and the results come back in replication
    order: the result is the same for any ``jobs``.
    """
    check_int("jobs", jobs, 1)
    tree = build_tree(cfg.tree, cfg.params.q)
    reps = map_tasks(partial(_replication, cfg, tree), range(cfg.replications), jobs)
    offered_n, blocked_n, offered_e, blocked_e, occupancies, events = zip(*reps)
    node_beta, node_se = _mean_se(list(map(_ratio, blocked_n, offered_n)))
    # one replication without edge calls makes both nan: fsum propagates nan
    edge_beta, edge_se = _mean_se(list(map(_ratio, blocked_e, offered_e)))
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
    passed: bool


def _zscore(estimate: float, reference: float, stderr: float) -> float:
    if math.isnan(estimate) or math.isnan(stderr):
        raise ValueError("estimate has no observations")
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
    return CompareReport(entries, sum(e.ok for e in entries) / len(entries) >= 0.95)


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
