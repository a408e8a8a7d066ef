"""Exact ground truth on small finite trees.

Per-element caps plus the per-edge budget decide which occupancy assignments
are feasible, and an assignment's weight is the product of its node and edge
entries. No ratio map and no float recursion: this module is what the fast
code is checked against.

On a tree the stationary law is a Markov random field, so each total is one
sum-product pass from the leaves to a root (exact belief propagation). The
pass runs on integers: every entry, floats included, is a rational, so each
weight vector's entries are scaled to integers over its common denominator.
Each public result is then one quotient of two integers, an exact Fraction
when no entry is a float and otherwise the correctly rounded float. How the
tree is stored therefore cannot change a result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._num import check_int, is_int
from .rfmap import ModelParams
from .weights import _clipped_rows

__all__ = [
    "GUARD_LIMIT",
    "TreeTooLargeError",
    "TreeSpec",
    "FiniteTree",
    "rooted_tree",
    "spherical_tree",
    "edge_centered_tree",
    "build_tree",
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

    def _node_index(self, v) -> int:
        return self.nodes.index(v)

    def _edge_index(self, e) -> int:
        return self.edges.index(tuple(sorted(e)))


@dataclass(frozen=True)
class TreeSpec:
    """Finite tree family selector: kind ``rooted`` (height) or ``spherical`` (radius)."""

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in ("rooted", "spherical"):
            raise ValueError(f"kind must be 'rooted' or 'spherical', got {self.kind!r}")
        if self.kind == "rooted":
            check_int("rooted height", self.size, 0)
        else:
            check_int("spherical radius", self.size, 1)


def _grow(fan: tuple, q: int, height: int, edges: list) -> FiniteTree:
    """The tree of ``edges`` plus ``k`` children under node ``v`` for each
    ``(v, k)`` of ``fan``, in order; the fan's nodes are 0 .. len(fan) - 1.

    Each child roots a height-(height-1) subtree in which every internal node
    has q children. New nodes are labelled in preorder from len(fan), and an
    explicit stack walks them, so depth costs no recursion.
    """
    nxt = len(fan)
    stack = [(v, height) for v, k in reversed(fan) for _ in range(k)] if height > 0 else []
    while stack:
        parent, h = stack.pop()
        edges.append((parent, nxt))
        if h > 1:
            stack.extend([(nxt, h - 1)] * q)
        nxt += 1
    return FiniteTree(tuple(range(nxt)), tuple(edges))


def rooted_tree(q: int, height: int) -> FiniteTree:
    """Root 0 with q child subtrees; every internal node has q children."""
    check_int("q", q, 1)
    return _grow(((0, q),), q, check_int("height", height, 0), [])


def spherical_tree(q: int, radius: int) -> FiniteTree:
    """Center 0 joined to q+1 rooted subtrees of height radius-1."""
    check_int("q", q, 1)
    return _grow(((0, q + 1),), q, check_int("radius", radius, 1), [])


def edge_centered_tree(q: int, radius: int) -> FiniteTree:
    """Adjacent hubs 0-1, each joined to q rooted subtrees of height radius-1."""
    check_int("q", q, 1)
    return _grow(((0, q), (1, q)), q, check_int("radius", radius, 1), [(0, 1)])


def build_tree(spec: TreeSpec, q: int) -> FiniteTree:
    """Realize a TreeSpec; its center is node 0."""
    if spec.kind == "rooted":
        return rooted_tree(q, spec.size)
    return spherical_tree(q, spec.size)


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


def _sum_product(p: ModelParams, t: FiniteTree, lead) -> list:
    """Integer weight totals of the feasible assignments, by one pass over the tree.

    Entries enter as integers over their vector's common denominator: node
    entry i is N_i - N_{i-1} of ``_exact_sums``, and the edge sums clipped at
    k are N_min(ce, k) themselves, so every total is exact. The tree is rooted
    at the lead node (an edge lead's first end) and each node keeps one table
    by its occupancy, the weight of its subtree; a child's message to its
    parent at occupancy a is sum_b T[b] * rows[a][b], with the rows of
    ``_clipped_rows`` over the N_k at (cap, ce). Beside the root's table runs
    the weight for which one more call at the lead still fits: a node call
    needs a free node slot and a unit of budget on every incident edge (rows
    at (cap - 1, ce)), an edge call a free edge slot and a unit of budget on
    its own edge (rows at (cap - 1, ce - 1)).

    Returns the totals per root occupancy for a root lead, else [refused,
    admitted].
    """
    _check_size(p, len(t.nodes))
    kind, arg = lead
    top = arg[0] if kind == "edge" else arg
    order, up = [top], {top: None}
    for x in order:
        for y, ei in t.adjacency[x]:
            if y not in up:
                up[y] = (x, ei)
                order.append(y)
    _, node_sums = p.node_weights._exact_sums
    _, edge_sums = p.edge_weights._exact_sums
    node = [s - r for s, r in zip(node_sums, (0, *node_sums))]
    full_rows = _clipped_rows(edge_sums, p.cap, p.cv, p.ce)
    lead_rows = _clipped_rows(edge_sums, p.cap - 1, p.cv, p.ce - 1 if kind == "edge" else p.ce)

    def message(child: list, rows: tuple) -> list:
        return [sum(w * r for w, r in zip(child, row)) for row in rows]

    tables = {x: list(node) for x in order}
    fits = [w if kind != "node" or a < p.cv else 0 for a, w in enumerate(node)]
    for y in reversed(order[1:]):
        x, ei = up[y]
        child = tables.pop(y)
        full = message(child, full_rows)
        tables[x] = [w * m for w, m in zip(tables[x], full)]
        if x == top:
            gated = kind == "node" or (kind == "edge" and ei == arg[2])
            part = message(child, lead_rows) if gated else full
            fits = [w * m for w, m in zip(fits, part)]
    if kind == "root":
        return tables[top]
    admitted = sum(fits)
    return [sum(tables[top]) - admitted, admitted]


def _quotient(p: ModelParams, num: int, den: int):
    """num / den: a Fraction for exact weights, else the correctly rounded float."""
    if any(isinstance(x, float) for x in (*p.node_weights.entries, *p.edge_weights.entries)):
        return num / den
    return Fraction(num, den)


def _lead_for_target(t: FiniteTree, target):
    if isinstance(target, tuple):
        u, v = sorted(target)
        return ("edge", (t._node_index(u), t._node_index(v), t._edge_index((u, v))))
    return ("node", t._node_index(target))


def exact_partition(p: ModelParams, t: FiniteTree, root) -> tuple:
    """Z(i), i = 0..cv: total weight of feasible assignments with root occupancy i.

    Float weights give the correctly rounded floats; a total beyond the float
    range is refused with ``ValueError``.
    """
    totals = _sum_product(p, t, ("root", t._node_index(root)))
    dv, de = p.node_weights._exact_sums[0], p.edge_weights._exact_sums[0]
    den = dv ** len(t.nodes) * de ** len(t.edges)
    try:
        return tuple(_quotient(p, z, den) for z in totals)
    except OverflowError:
        raise ValueError("the partition function exceeds the float range") from None


def occupancy_distribution(p: ModelParams, t: FiniteTree, node) -> tuple:
    totals = _sum_product(p, t, ("root", t._node_index(node)))
    total = sum(totals)
    return tuple(_quotient(p, z, total) for z in totals)


def exact_blocking(p: ModelParams, t: FiniteTree, target):
    """Stationary probability that one more call at the target is refused.

    Node target (label): needs a free node slot and a unit of budget on every
    incident edge. Edge target (pair): needs a free edge slot and a unit of
    budget on that edge. Exact weights give an exact rational back.
    """
    refused, admitted = _sum_product(p, t, _lead_for_target(t, target))
    return _quotient(p, refused, refused + admitted)
