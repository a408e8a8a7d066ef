"""Exact ground truth on small finite trees.

Everything here counts assignments directly: per-element caps plus the
per-edge budget decide which occupancy assignments are feasible, and weights
are raw products over nodes and edges. No ratio map and no partial-sum
shortcuts -- this module is what the fast code is checked against.

Feasible assignments are tallied by (lead value, node-occupancy histogram,
edge-occupancy histogram) in one bottom-up pass over the tree: on a tree the
stationary law is a Markov random field, so subtree count tables convolve
exactly. Weights enter only when a bucket tally is folded into a number:
each bucket's term is its count times its histograms' powers, and float
terms are summed with fsum. fsum is correctly rounded, so the order the
buckets are visited in -- and with it how the tree is stored -- cannot change
a float result. With exact (rational) weight entries the fold stays exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from ._num import check_int, is_int
from .rfmap import ModelParams
from .treecalc import TreeSpec

__all__ = [
    "GUARD_LIMIT",
    "TreeTooLargeError",
    "FiniteTree",
    "Configuration",
    "path_tree",
    "rooted_tree",
    "spherical_tree",
    "edge_centered_tree",
    "build_tree",
    "is_feasible",
    "exact_partition",
    "occupancy_distribution",
    "exact_blocking",
]

GUARD_LIMIT = 10**8
# every raw count is at least 2**|V| (cv >= 1), and 2**27 > GUARD_LIMIT
_GUARD_NODES = 27
# node counts of tree specs are exact up to here (see _spec_nodes)
_COUNT_CAP = 2**64


class TreeTooLargeError(ValueError):
    """Enumeration refused: the assignment space exceeds the size guard."""


@dataclass(frozen=True)
class FiniteTree:
    """Connected loopless graph with |E| = |V| - 1; edges stored as sorted pairs.

    ``adjacency`` and ``edge_ends`` are positional (indices into ``nodes``),
    derived at construction: adjacency[i] lists (neighbor position, edge
    index) pairs, edge_ends[k] the endpoint positions of edge k.
    """

    nodes: tuple
    edges: tuple
    adjacency: tuple = field(init=False, compare=False)
    edge_ends: tuple = field(init=False, compare=False)

    def __post_init__(self):
        nodes = tuple(self.nodes)
        edges = tuple(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        if len(set(nodes)) != len(nodes) or not nodes:
            raise ValueError("nodes must be a nonempty sequence of distinct labels")
        if not all(is_int(v) for v in nodes):
            raise ValueError("node labels must be ints")
        pos = {v: i for i, v in enumerate(nodes)}
        if len(set(edges)) != len(edges):
            raise ValueError("duplicate edges")
        adj: list = [[] for _ in nodes]
        ends = []
        for idx, (u, v) in enumerate(edges):
            if u == v or u not in pos or v not in pos:
                raise ValueError(f"bad edge ({u}, {v})")
            adj[pos[u]].append((pos[v], idx))
            adj[pos[v]].append((pos[u], idx))
            ends.append((pos[u], pos[v]))
        if len(edges) != len(nodes) - 1:
            raise ValueError("not a tree: |E| != |V| - 1")
        seen = {0}
        stack = [0]
        while stack:
            for w, _ in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != len(nodes):
            raise ValueError("not a tree: graph is disconnected")
        object.__setattr__(self, "adjacency", tuple(tuple(a) for a in adj))
        object.__setattr__(self, "edge_ends", tuple(ends))

    def node_index(self, v) -> int:
        return self.nodes.index(v)

    def edge_index(self, e) -> int:
        return self.edges.index(tuple(sorted(e)))


@dataclass(frozen=True)
class Configuration:
    """Full occupancy assignment: node -> count, sorted edge pair -> count."""

    node_occ: dict
    edge_occ: dict


def path_tree(n: int) -> FiniteTree:
    check_int("n", n, 1)
    return FiniteTree(tuple(range(n)), tuple((i, i + 1) for i in range(n - 1)))


def _grow(edges: list, root: int, q: int, height: int, nxt: int) -> int:
    # q children under root, each the root of a height-(height-1) subtree
    if height <= 0:
        return nxt
    for _ in range(q):
        child = nxt
        nxt += 1
        edges.append((root, child))
        nxt = _grow(edges, child, q, height - 1, nxt)
    return nxt


def rooted_tree(q: int, height: int) -> FiniteTree:
    """Root 0 with q child subtrees; every internal node has q children."""
    check_int("q", q, 1)
    check_int("height", height, 0)
    edges: list = []
    n = _grow(edges, 0, q, height, 1)
    return FiniteTree(tuple(range(n)), tuple(edges))


def spherical_tree(q: int, radius: int) -> FiniteTree:
    """Center 0 joined to q+1 rooted subtrees of height radius-1."""
    check_int("q", q, 1)
    check_int("radius", radius, 1)
    edges: list = []
    nxt = 1
    for _ in range(q + 1):
        child = nxt
        nxt += 1
        edges.append((0, child))
        nxt = _grow(edges, child, q, radius - 1, nxt)
    return FiniteTree(tuple(range(nxt)), tuple(edges))


def edge_centered_tree(q: int, radius: int) -> FiniteTree:
    """Adjacent hubs 0-1, each joined to q rooted subtrees of height radius-1."""
    check_int("q", q, 1)
    check_int("radius", radius, 1)
    edges: list = [(0, 1)]
    nxt = 2
    for hub in (0, 1):
        for _ in range(q):
            child = nxt
            nxt += 1
            edges.append((hub, child))
            nxt = _grow(edges, child, q, radius - 1, nxt)
    return FiniteTree(tuple(range(nxt)), tuple(edges))


def build_tree(spec: TreeSpec, q: int):
    """Realize a TreeSpec; returns (tree, center node)."""
    if spec.kind == "rooted":
        return rooted_tree(q, spec.size), 0
    return spherical_tree(q, spec.size), 0


def is_feasible(p: ModelParams, t: FiniteTree, c: Configuration) -> bool:
    node_occ = dict(c.node_occ)
    edge_occ = {tuple(sorted(k)): v for k, v in c.edge_occ.items()}
    if set(node_occ) != set(t.nodes):
        raise ValueError("configuration must assign exactly the tree's nodes")
    if set(edge_occ) != set(t.edges):
        raise ValueError("configuration must assign exactly the tree's edges")
    for occs, top in ((node_occ.values(), p.cv), (edge_occ.values(), p.ce)):
        for occ in occs:
            if not is_int(occ):
                raise ValueError(f"occupancies must be ints, got {occ!r}")
            if not 0 <= occ <= top:
                return False
    return all(
        node_occ[u] + edge_occ[(u, v)] + node_occ[v] <= p.cap for u, v in t.edges
    )


def _check_size(p: ModelParams, nodes: int, exact: bool = True):
    """Refuse a tree of ``nodes`` nodes (at least that many unless ``exact``) and nodes - 1
    edges whose raw assignment count (cv+1)^|V| (ce+1)^|E| exceeds GUARD_LIMIT."""
    if nodes >= _GUARD_NODES or (p.cv + 1) ** nodes * (p.ce + 1) ** (nodes - 1) > GUARD_LIMIT:
        size = f"{nodes} nodes and {nodes - 1} edges" if exact else f"at least {nodes} nodes"
        raise TreeTooLargeError(
            f"a tree of {size} at cv = {p.cv}, ce = {p.ce} has more than {GUARD_LIMIT} "
            "assignments; refusing to enumerate"
        )


def _spec_nodes(spec: TreeSpec, q: int) -> int:
    """Node count of ``build_tree(spec, q)`` in closed form, before building.

    A count above ``_COUNT_CAP`` comes back as ``_COUNT_CAP + 1``, so a huge
    spec costs no huge power and prints as a short number.
    """
    layers = spec.size + (spec.kind == "rooted")  # terms of 1 + q + ... + q**(layers-1)
    if q > 1 and layers > _COUNT_CAP.bit_length():
        return _COUNT_CAP + 1
    sub = layers if q == 1 else (q**layers - 1) // (q - 1)
    nodes = sub if spec.kind == "rooted" else 1 + (q + 1) * sub
    return min(nodes, _COUNT_CAP + 1)


def _check_spec_size(p: ModelParams, spec: TreeSpec):
    """``_check_size`` for ``build_tree(spec, p.q)`` by its closed-form node count, before building."""
    nodes = _spec_nodes(spec, p.q)
    _check_size(p, nodes, exact=nodes <= _COUNT_CAP)


@lru_cache(maxsize=64)
def _tally(t: FiniteTree, cap: int, cv: int, ce: int, lead) -> tuple:
    """Count feasible assignments by (lead value, node histogram, edge histogram).

    The tree is rooted at the lead node (an edge lead's first end) and count
    tables are convolved upward, child by child. A table maps (occupancy of
    the subtree's top node, lead flag, packed node histogram, packed edge
    histogram) to a count. Histograms are packed as base-(n+1) and base-(e+1)
    digits, so adding two packed keys adds the histograms. The flag records
    whether one more call at the lead would still fit; only the root table
    carries it, every table below holds it at 1.

    Returns (buckets, n + 1, e + 1): buckets maps (lead value, packed node
    histogram, packed edge histogram) to a count -- the lead value is the
    root's occupancy for a root lead, else the flag -- and the two digit
    bases let ``_fold`` decode the histograms.
    """
    n, e = len(t.nodes), len(t.edges)
    kind, arg = lead
    top = arg[0] if kind == "edge" else arg
    order, up = [top], {top: None}
    for x in order:
        for y, ei in t.adjacency[x]:
            if y not in up:
                up[y] = (x, ei)
                order.append(y)
    node_digit = [(n + 1) ** o for o in range(cv + 1)]
    edge_digit = [(e + 1) ** j for j in range(ce + 1)]
    tables = {x: {(o, 1, node_digit[o], 0): 1 for o in range(cv + 1)} for x in order}
    if kind == "node":
        tables[top] = {(o, int(o < cv), node_digit[o], 0): 1 for o in range(cv + 1)}
    for y in reversed(order[1:]):
        x, ei = up[y]
        # a node call needs a unit of budget on every incident edge, an edge
        # call a free edge slot and a unit of budget on its own edge
        gated = x == top and (kind == "node" or (kind == "edge" and ei == arg[2]))
        edge_room = ce if kind == "node" else ce - 1
        msg: list = [{} for _ in range(cv + 1)]  # by parent occupancy
        for (b, _, hv, he), count in tables.pop(y).items():
            for j in range(min(ce, cap - b) + 1):
                he_j = he + edge_digit[j]
                for a in range(min(cv, cap - b - j) + 1):
                    ok = int(not gated or (a + j + b < cap and j <= edge_room))
                    key = (ok, hv, he_j)
                    msg[a][key] = msg[a].get(key, 0) + count
        merged: dict = {}
        for (a, flag, hv, he), count in tables[x].items():
            for (ok, hv_c, he_c), count_c in msg[a].items():
                key = (a, flag & ok, hv + hv_c, he + he_c)
                merged[key] = merged.get(key, 0) + count * count_c
        tables[x] = merged
    tally: dict = {}
    for (o, flag, hv, he), count in tables[top].items():
        key = (o if kind == "root" else flag, hv, he)
        tally[key] = tally.get(key, 0) + count
    return tally, n + 1, e + 1


def _powers(packed: int, base: int, entries) -> list:
    """The nonzero powers x**h of a packed histogram, in occupancy order."""
    out = []
    for x in entries:
        packed, h = divmod(packed, base)
        if h:
            out.append(x**h)
    return out


def _fold(tally: tuple, node_entries, edge_entries, leads: int) -> list:
    """Collapse a bucket tally into one weighted total per lead value.

    A bucket's weight is its count times the powers of its two histograms,
    multiplied in occupancy order; each distinct histogram is decoded once.
    Float totals use fsum, which is correctly rounded, and exact (int/Fraction)
    totals are exact sums, so neither depends on the order buckets are visited.
    """
    buckets, node_base, edge_base = tally
    exact = not any(isinstance(x, float) for x in node_entries) and not any(
        isinstance(x, float) for x in edge_entries
    )
    unit = Fraction if exact else float
    node_powers = {hv: _powers(hv, node_base, node_entries) for hv in {k[1] for k in buckets}}
    edge_powers = {he: _powers(he, edge_base, edge_entries) for he in {k[2] for k in buckets}}
    terms: list = [[] for _ in range(leads)]
    for (lead, hv, he), count in buckets.items():
        w = unit(count)
        for f in node_powers[hv]:
            w *= f
        for f in edge_powers[he]:
            w *= f
        terms[lead].append(w)
    if exact:
        return [sum(ts, Fraction(0)) for ts in terms]
    return [math.fsum(ts) for ts in terms]


def _lead_for_target(t: FiniteTree, target):
    if isinstance(target, tuple):
        u, v = sorted(target)
        return ("edge", (t.node_index(u), t.node_index(v), t.edge_index((u, v))))
    return ("node", t.node_index(target))


def exact_partition(p: ModelParams, t: FiniteTree, root) -> tuple:
    """Z(i), i = 0..cv: total weight of feasible assignments with root occupancy i."""
    _check_size(p, len(t.nodes))
    tally = _tally(t, p.cap, p.cv, p.ce, ("root", t.node_index(root)))
    return tuple(
        _fold(tally, p.node_weights.entries, p.edge_weights.entries, p.cv + 1)
    )


def occupancy_distribution(p: ModelParams, t: FiniteTree, node) -> tuple:
    z = exact_partition(p, t, node)
    total = sum(z)
    if total <= 0:
        raise ValueError("degenerate weights: total measure is zero")
    return tuple(zi / total for zi in z)


def exact_blocking(p: ModelParams, t: FiniteTree, target):
    """Stationary probability that one more call at the target is refused.

    Node target (label): needs a free node slot and a unit of budget on every
    incident edge. Edge target (pair): needs a free edge slot and a unit of
    budget on that edge. Exact weights give an exact rational back.
    """
    _check_size(p, len(t.nodes))
    tally = _tally(t, p.cap, p.cv, p.ce, _lead_for_target(t, target))
    refused, admitted = _fold(
        tally, p.node_weights.entries, p.edge_weights.entries, 2
    )
    total = refused + admitted
    if total <= 0:
        raise ValueError("degenerate weights: total measure is zero")
    return refused / total
