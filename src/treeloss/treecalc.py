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
joint law factorizes over the two sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ._num import check_int, log_sum_exp, power
from .rfmap import (
    ModelParams,
    Uniqueness,
    UniquenessVerdict,
    _coefficients,
    classify_by_iteration,
    random_field_map,
)
from .weights import WeightVector, poisson_weights

__all__ = [
    "TreeSpec",
    "NormalizedState",
    "CurvePoint",
    "rooted_state",
    "center_occupancy",
    "multicast_blocking",
    "unicast_blocking",
    "blocking_curve",
]


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


@dataclass(frozen=True)
class NormalizedState:
    """Root-occupancy partition vector, normalized: xi plus log of the 0-component."""

    xi: tuple
    log_z0: float


def rooted_state(p: ModelParams, height: int) -> NormalizedState:
    """Evolve the height-0 state (xi = node weights, log_z0 = 0) up ``height`` levels."""
    check_int("height", height, 0)
    xi = tuple(float(v) for v in p.node_weights.entries[1:])
    log_z0 = 0.0
    den = _coefficients(p)[0]
    for _ in range(height):
        growth = den[0]
        for j in range(p.cv):
            growth += den[j + 1] * xi[j]
        log_z0 = p.q * (log_z0 + math.log(growth))
        xi = random_field_map(p, xi)
    return NormalizedState(xi=xi, log_z0=log_z0)


def _subtree_xi(p: ModelParams, radius: int) -> tuple:
    """Ratio vector of the height-(radius-1) subtrees hanging off a radius-L center."""
    return rooted_state(p, check_int("radius", radius, 1) - 1).xi


def _capacity_sums(p: ModelParams, xi: Sequence[float], used: int) -> tuple:
    """sum_j S(min(cap - used - i - j, ce)) xi_j for each center occupancy i.

    ``used`` reserves budget on every incident edge (1 while testing whether
    one more node call fits); S of a negative index contributes 0.
    """
    rows = _coefficients(p)[used:]
    full = (1.0,) + tuple(xi)
    return tuple(
        sum(rows[i][j] * full[j] for j in range(p.cv + 1)) for i in range(p.cv + 1)
    )


def _center_log_weights(
    p: ModelParams, xi: Sequence[float], used: int, top: int, exponent: int
) -> list:
    """log(nu_i * T_i**exponent) for i = 0..top, with -inf for vanishing terms."""
    sums = _capacity_sums(p, xi, used)
    out = []
    for i in range(top + 1):
        nu_i = float(p.node_weights.entries[i])
        if nu_i == 0.0 or sums[i] <= 0.0:
            out.append(-math.inf)
        else:
            out.append(math.log(nu_i) + exponent * math.log(sums[i]))
    return out


def center_occupancy(p: ModelParams, radius: int) -> tuple:
    """Occupancy law at the center of the radius-L ball (q+1 subtrees of height L-1)."""
    logs = _center_log_weights(p, _subtree_xi(p, radius), used=0, top=p.cv, exponent=p.q + 1)
    total = log_sum_exp(logs)
    return tuple(math.exp(lw - total) if lw > -math.inf else 0.0 for lw in logs)


def _multicast_blocking_at(p: ModelParams, xi: Sequence[float]) -> float:
    """Center-call blocking evaluated at a given subtree ratio vector."""
    log_den = log_sum_exp(_center_log_weights(p, xi, used=0, top=p.cv, exponent=p.q + 1))
    log_num = log_sum_exp(_center_log_weights(p, xi, used=1, top=p.cv - 1, exponent=p.q + 1))
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
    log_side = _center_log_weights(p, xi, used=0, top=p.cv, exponent=p.q)
    log_all = []
    log_blocked = []
    for i in range(p.cv + 1):
        if log_side[i] == -math.inf:
            continue
        for k in range(p.cv + 1):
            if log_side[k] == -math.inf:
                continue
            for j in range(p.ce + 1):
                if i + j + k > p.cap:
                    break
                lam_j = float(p.edge_weights.entries[j])
                if lam_j == 0.0:
                    continue
                lw = log_side[i] + math.log(lam_j) + log_side[k]
                log_all.append(lw)
                if j + 1 > p.ce or i + j + 1 + k > p.cap:
                    log_blocked.append(lw)
    total = log_sum_exp(log_all)
    blocked = log_sum_exp(log_blocked)
    if blocked == -math.inf:
        return 0.0
    return min(1.0, max(0.0, math.exp(blocked - total)))


def unicast_blocking(p: ModelParams, radius: int) -> float:
    """Probability a fresh call on the central edge of the edge-symmetric tree is refused.

    The tree: two adjacent hubs, each carrying q rooted subtrees of height
    L-1. The joint law of (hub occ, edge occ, hub occ) factorizes into
    nu_i lam_j nu_k times each hub's subtree weight T_i**q; the call is
    refused when the edge cap or the joint budget (with the extra unit)
    would be exceeded.
    """
    return _unicast_blocking_at(p, _subtree_xi(p, radius))


@dataclass(frozen=True)
class CurvePoint:
    """One nu on a blocking curve; two branches when the limiting law splits."""

    nu: float
    kind: Uniqueness
    beta_even: float
    beta_odd: float
    xi_even: tuple
    xi_odd: tuple
    iterations: int


def blocking_curve(
    q: int,
    cap: int,
    cv: int,
    ce: int,
    edge_weights: WeightVector,
    nu_values: Iterable[float],
    node_family: Callable[[float, int], WeightVector] = poisson_weights,
    tol: float = 1e-12,
    sep: float = 1e-8,
    max_iter: int = 10**6,
) -> list[CurvePoint]:
    """Center-call blocking in the infinite-tree limit along a nu grid.

    Each nu is classified by iteration; Unique points carry one branch
    (beta_even == beta_odd, evaluated at the fixed point), Multiple points
    two (evaluated at the even/odd limits). Inconclusive points are kept and
    flagged, their betas evaluated at the unconverged parity tails.
    """
    points = []
    for nu in nu_values:
        p = ModelParams(q, cap, cv, ce, node_family(nu, cv), edge_weights)
        verdict = classify_by_iteration(p, tol=tol, sep=sep, max_iter=max_iter)
        xi_even, xi_odd = _branch_vectors(verdict)
        points.append(
            CurvePoint(
                nu=float(nu),
                kind=verdict.kind,
                beta_even=_multicast_blocking_at(p, xi_even),
                beta_odd=_multicast_blocking_at(p, xi_odd),
                xi_even=xi_even,
                xi_odd=xi_odd,
                iterations=verdict.iterations,
            )
        )
    return points


def _branch_vectors(verdict: UniquenessVerdict) -> tuple[tuple, tuple]:
    if verdict.kind is Uniqueness.UNIQUE:
        return verdict.fixed_point, verdict.fixed_point
    return verdict.even_limit, verdict.odd_limit
