"""Finite-tree recursions: normalized partition states, center laws, blocking.

Trees here are the regular finite trees the infinite-tree analysis truncates
to: the rooted tree of height m (root has q children, every deeper node has q
children), and the ball of radius L (a center with q+1 rooted height-(L-1)
subtrees). The partition vector over the root occupancy is carried in
normalized form ``xi_m(i) = Z_m(i)/Z_m(0)`` together with ``log Z_m(0)``; one
recursion step is exactly one application of the ratio map, and the log term
grows by q times the log of the map's denominator sum.

Blocking probabilities at the center follow from integrating the acceptance
region against the center law; the edge-call variant uses the central edge of
the edge-symmetric tree (two adjacent hubs, each carrying q subtrees), whose
joint law factorizes over the two sides. All read the map's row sums T_k
(``rfmap._row_sums``) at the subtree ratios: T_i weighs the subtrees of a center
at occupancy i, T_{i+1} them when one more call takes a unit of each edge budget.
A blocking curve needs no type of its own: the ``blocking-curve`` command
classifies each node rate with ``rfmap.classify_by_iteration`` and evaluates
``_multicast_blocking_at`` at the limit of each parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ._num import check_int, log_sum_exp
from .rfmap import ModelParams, _check_finite_sums, _map_step, _row_sums
from .weights import _clipped_rows

__all__ = [
    "NormalizedState",
    "rooted_state",
    "center_occupancy",
    "multicast_blocking",
    "unicast_blocking",
]


@dataclass(frozen=True)
class NormalizedState:
    """Root-occupancy partition vector, normalized: xi plus log of the 0-component."""

    xi: tuple
    log_z0: float


def rooted_state(p: ModelParams, height: int) -> NormalizedState:
    """Evolve the height-0 state (xi = node weights, log_z0 = 0) up ``height`` levels."""
    check_int("height", height, 0)
    _check_finite_sums(p)
    xi = tuple(float(v) for v in p.node_weights.entries[1:])
    log_z0 = 0.0
    den = p._rows[:1]
    step = _map_step(p)
    for _ in range(height):
        (growth,) = _row_sums(den, xi)
        log_z0 = p.q * (log_z0 + math.log(growth))
        xi = step(xi)
    return NormalizedState(xi=xi, log_z0=log_z0)


def _subtree_xi(p: ModelParams, radius: int) -> tuple:
    """Ratio vector of the height-(radius-1) subtrees hanging off a radius-L center."""
    return rooted_state(p, check_int("radius", radius, 1) - 1).xi


def _log_weights(p: ModelParams, sums: Sequence[float], exponent: int) -> list:
    """log(nu_i * sums[i]**exponent) over the paired entries, -inf where a factor vanishes."""
    return [
        -math.inf if nu_i == 0.0 or s <= 0.0 else math.log(nu_i) + exponent * math.log(s)
        for nu_i, s in zip(map(float, p.node_weights.entries), sums)
    ]


def center_occupancy(p: ModelParams, radius: int) -> tuple:
    """Occupancy law at the center of the radius-L ball (q+1 subtrees of height L-1)."""
    logs = _log_weights(p, _row_sums(p._rows, _subtree_xi(p, radius)), p.q + 1)
    total = log_sum_exp(logs)
    return tuple(math.exp(lw - total) if lw > -math.inf else 0.0 for lw in logs)


def _multicast_blocking_at(p: ModelParams, xi: Sequence[float]) -> float:
    """Center-call blocking evaluated at a given subtree ratio vector."""
    sums = _row_sums(p._rows, xi)
    log_den = log_sum_exp(_log_weights(p, sums, p.q + 1))
    # a call admitted at center occupancy i < cv weighs nu_i T_{i+1}**(q+1)
    log_num = log_sum_exp(_log_weights(p, sums[1:], p.q + 1))
    if log_num == -math.inf:
        return 1.0
    return min(1.0, max(0.0, 1.0 - math.exp(log_num - log_den)))


def multicast_blocking(p: ModelParams, radius: int) -> float:
    """Probability a fresh call at the center of the radius-L ball is refused.

    A center call needs a free node slot and one unit of budget on every
    incident edge; the acceptance weight tilts every subtree sum by one unit
    of used capacity.
    """
    return _multicast_blocking_at(p, _subtree_xi(p, radius))


def _unicast_blocking_at(p: ModelParams, xi: Sequence[float]) -> float:
    """Central-edge blocking at a given subtree ratio vector, summed by hub pair.

    A hub at occupancy i weighs side_i = nu_i T_i**q. With hubs at i and k
    the edge holds at most c = min(ce, cap - i - k) calls, and a call is
    refused exactly when the edge holds c, so the pair weighs
    side_i side_k S_c in all (S_c = p._rows[i][k]) and
    side_i side_k lam_c refused (lam_c from the same rows built over entries).
    """
    log_side = _log_weights(p, _row_sums(p._rows, xi), p.q)
    rows = p._rows
    lams = _clipped_rows(p.edge_weights.entries, p.cap, p.cv, p.ce)
    log_all = []
    log_blocked = []
    for i, side_i in enumerate(log_side):
        for k, side_k in enumerate(log_side):
            if side_i == -math.inf or side_k == -math.inf or i + k > p.cap:
                continue
            pair = side_i + side_k
            log_all.append(pair + math.log(rows[i][k]))
            lam_c = float(lams[i][k])
            if lam_c > 0.0:
                log_blocked.append(pair + math.log(lam_c))
    blocked = log_sum_exp(log_blocked)
    if blocked == -math.inf:
        return 0.0
    return min(1.0, max(0.0, math.exp(blocked - log_sum_exp(log_all))))


def unicast_blocking(p: ModelParams, radius: int) -> float:
    """Probability a fresh call on the central edge of the edge-symmetric tree is refused.

    The tree: two adjacent hubs, each carrying q rooted subtrees of height
    L-1. The joint law of (hub occ, edge occ, hub occ) factorizes into
    nu_i lam_j nu_k times each hub's subtree weight T_i**q; the call is
    refused when the edge cap or the joint budget (with the extra unit)
    would be exceeded.
    """
    return _unicast_blocking_at(p, _subtree_xi(p, radius))

