"""Occupancy-ratio recursion on the regular tree and uniqueness classification.

The model: calls at nodes (cap ``cv`` per node) and calls at edges (cap ``ce``
per edge) of an infinite tree in which every node has ``q`` children, subject
to a joint budget ``cap`` on each edge: node + edge + node occupancy along an
edge can never exceed ``cap``. Stationary laws are built from per-occupancy
activity weights at nodes and edges.

State here is the ratio vector ``xi = (xi_1, ..., xi_cv)`` of partition values
normalized by the empty-occupancy one (the component ``xi_0 = 1`` is implied).
One application of the map grows the tree by one generation. In partial-sum
form, with ``S(a) = sum of edge weights up to min(a, ce)`` and ``S(a) = 0``
for ``a < 0``:

    Phi_k(xi) = nu_k * ( sum_j S(cap-k-j) xi_j / sum_j S(cap-j) xi_j )**q

for k = 1..cv, xi_0 = 1. This equals the direct double sum over the edge and
child occupancies (swap the order of summation); the numerator coefficients
are termwise dominated by the denominator ones, so 0 <= Phi_k <= nu_k always.

When Phi reverses the likelihood-ratio order (clipped edge sums
log-concave), the infinite-tree law is unique exactly when iterating the map
from the zero vector converges; a persistent two-cycle of the iterates
witnesses multiple laws. ``classify_by_iteration`` implements that test. For
cv == 1 the map is the scalar m(x) = nu ((a0 + a1 x)/(b0 + b1 x))**q. It is
nonincreasing when S(cap-1)**2 >= S(cap) S(cap-2); then it has negative
Schwarzian, so the verdict is the sign of |m'(x*)| - 1 (Singer, SIAM J.
Appl. Math. 1978), read at a bisected x* instead of iterating. Otherwise m
increases: iterates from 0 climb to its least fixed point and iterates from
nu >= m fall to its greatest, so the map is iterated from both starts and
the law is unique when the two limits agree.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from ._num import check_int, check_nonneg, check_q, power
from .weights import WeightVector, _clipped_rows

__all__ = [
    "ModelParams",
    "Uniqueness",
    "UniquenessVerdict",
    "random_field_map",
    "classify_by_iteration",
    "interaction_map",
    "conjugate_maps",
]


@dataclass(frozen=True)
class ModelParams:
    """Branching number, caps, and activity weights of the tree model.

    ``q >= 1`` is the branching number (every node has q children; the tree
    degree is q+1). ``cap`` is the per-edge joint budget, ``cv`` the node cap,
    ``ce`` the edge cap. ``node_weights`` has length cv+1 with first entry 1;
    ``edge_weights`` has length ce+1.

    The private attribute ``_rows`` holds the clipped partial-sum rows
    rows[k][j] = S(min(cap-k-j, ce)) as floats, k and j over 0..cv, with S
    of a negative index equal to 0. Row 0 is the map's denominator and rows
    1..cv its numerators; the center quantities in ``treecalc`` read the
    same rows. It is not a field, so ==, hash and repr ignore it.
    """

    q: int
    cap: int
    cv: int
    ce: int
    node_weights: WeightVector
    edge_weights: WeightVector

    def __post_init__(self):
        check_q(self.q)
        check_int("cap", self.cap, 1)
        check_int("cv", self.cv, 1, self.cap)
        check_int("ce", self.ce, 0, self.cap)
        if len(self.node_weights) != self.cv + 1:
            raise ValueError(
                f"node_weights needs length cv+1={self.cv + 1}, got {len(self.node_weights)}"
            )
        if len(self.edge_weights) != self.ce + 1:
            raise ValueError(
                f"edge_weights needs length ce+1={self.ce + 1}, got {len(self.edge_weights)}"
            )
        if float(self.node_weights.entries[0]) != 1.0:
            raise ValueError("node_weights[0] must equal 1")
        rows = _clipped_rows(self.edge_weights.partial_sums, self.cap, self.cv, self.ce)
        object.__setattr__(self, "_rows", tuple(tuple(map(float, row)) for row in rows))


def _scalar_map(p: ModelParams):
    """The cv == 1 map m(x) = nu ((a0 + a1 x)/(b0 + b1 x))**q as a float closure.

    It does ``_map_step``'s float operations in the same order, so ``m(x)`` is
    ``_map_step(p)((x,))[0]`` bit for bit, underflow and overflow included.
    """
    (b0, b1), (a0, a1) = p._rows
    nu = float(p.node_weights.entries[1])
    q = p.q

    def m(x: float) -> float:
        if nu == 0.0:
            return 0.0
        n = a0 + a1 * x
        return nu * power(n / (b0 + b1 * x), q) if n > 0.0 else 0.0

    return m


def _map_step(p: ModelParams):
    """The ratio map Phi as a closure over its coefficient rows; no validation."""
    rows = p._rows
    nus = tuple(float(v) for v in p.node_weights.entries[1:])
    q, ks = p.q, range(p.cv)

    def step(x: tuple) -> tuple:
        sums = _row_sums(rows, x)
        d = sums[0]
        out = []
        for k in ks:
            nu_k, n = nus[k], sums[k + 1]
            out.append(nu_k * power(n / d, q) if nu_k != 0.0 and n > 0.0 else 0.0)
        return tuple(out)

    return step


def _row_sums(rows, x) -> list:
    """T_k = rows[k][0] + rows[k][1] x_1 + ... + rows[k][cv] x_cv for each row k.

    The one place the map's row sums are formed (over ``p._rows``, T_0 is its
    denominator and T_1..T_cv its numerators), each added left to right, so
    no result depends on how the interpreter's ``sum()`` adds floats.
    """
    js = range(len(x))
    out = []
    for row in rows:
        t = row[0]
        for j in js:
            t += row[j + 1] * x[j]
        out.append(t)
    return out


def _check_finite_sums(p: ModelParams) -> None:
    """Refuse a model whose map could form inf/inf: T_1 at the node weights must be finite.

    Every iterate has 0 <= x_k <= nu_k and row k >= 1 is termwise at most
    row 1, so no numerator overflows after this check; a denominator that
    overflows on its own gives a ratio of 0.
    """
    (t1,) = _row_sums(p._rows[1:2], [float(v) for v in p.node_weights.entries[1:]])
    if not math.isfinite(t1):
        raise ValueError(
            f"weights too large for floats: the map's numerator at the node weights is {t1!r}"
        )


def _check_ratio_vector(p: ModelParams, xi) -> tuple:
    vec = tuple(check_nonneg("ratio entry", x) for x in xi)
    if len(vec) != p.cv:
        raise ValueError(f"ratio vector needs length cv={p.cv}, got {len(vec)}")
    return vec


def _finite_row_sums(rows, x) -> list:
    """``_row_sums(rows, x)``, refusing sums that overflow (a ratio of two would be nan)."""
    sums = _row_sums(rows, x)
    if not all(map(math.isfinite, sums)):
        raise ValueError(f"row sums {sums} at this vector are too large for floats")
    return sums


def random_field_map(p: ModelParams, xi) -> tuple:
    """One application of the ratio map Phi to a ratio vector of length cv; overflow raises."""
    vec = _check_ratio_vector(p, xi)
    _finite_row_sums(p._rows, vec)
    return _map_step(p)(vec)


class Uniqueness(enum.Enum):
    UNIQUE = "unique"
    MULTIPLE = "multiple"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class UniquenessVerdict:
    """Outcome of the iteration test.

    ``fixed_point`` is set for Unique. ``even_limit``/``odd_limit`` are the
    stabilized two-cycle points for Multiple; for Inconclusive they hold the
    last even/odd iterates (not converged - useful for diagnostics, flagged
    by the kind). For an increasing cv == 1 map they are instead the limit
    of the iterates from 0 and the limit (or, for Inconclusive, the last
    iterate) from nu_1. ``method`` names what decided the verdict: ``"iteration"``
    (the iterates settled, or the budget ran out), ``"bisection"`` (the
    cv == 1 fixed point was bisected and its slope read), ``"unordered"`` or
    ``"closed-form"`` (``phase1d.classify_closed_form`` read the window).
    """

    kind: Uniqueness
    iterations: int
    fixed_point: tuple | None = None
    even_limit: tuple | None = None
    odd_limit: tuple | None = None
    method: str = "iteration"


def _sup_gap(a: tuple, b: tuple) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def _bisect(f, lo: float, hi: float, cost: int, budget: int) -> tuple:
    """Shrink a bracket with f(lo) > 0 >= f(hi) until its midpoint is an end.

    Each call of f costs ``cost`` map evaluations. Returns ``(lo, used)``,
    or ``(None, used)`` when the next call would overrun ``budget``.
    """
    used = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo, used
        if used + cost > budget:
            return None, used
        used += cost
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def _check_iteration(tol: float, sep: float, max_iter: int) -> None:
    """Refuse what ``classify_by_iteration`` refuses: need 0 < tol < sep, max_iter >= 4."""
    if not 0.0 < tol < sep:
        raise ValueError(f"need 0 < tol < sep, got tol={tol}, sep={sep}")
    check_int("max_iter", max_iter, 4)


def _by_parity(kind: Uniqueness, n: int, a: tuple, b: tuple) -> UniquenessVerdict:
    """A verdict at step n whose limits are a (iterate n) and b (iterate n-1)."""
    even, odd = (a, b) if n % 2 == 0 else (b, a)
    return UniquenessVerdict(kind, n, even_limit=even, odd_limit=odd)


def classify_by_iteration(
    p: ModelParams,
    tol: float = 1e-12,
    sep: float = 1e-8,
    max_iter: int = 10**6,
) -> UniquenessVerdict:
    """Classify the limiting behavior of Phi from the zero vector.

    Unique: successive iterates agree within ``tol`` (sup norm, relative to
    1 + ||xi||_inf). Multiple: both parity subsequences have stabilized to
    within ``tol`` but sit further than ``sep`` apart, and each limit is
    numerically fixed under Phi∘Phi. Inconclusive: budget exhausted.
    ``tol < sep`` is required so that slow convergence cannot masquerade as a
    two-cycle. Convergence from 0 proves uniqueness only when Phi reverses
    the likelihood-ratio order, as it does when the clipped edge sums are
    log-concave (Karlin 1968); without that order a cv >= 2 Unique is
    Inconclusive with ``method="unordered"``, both limits the one from 0.

    A nonincreasing cv == 1 map m is not iterated. x* is bisected below the
    top of the sandwich m(m(0)) <= x* <= m(0) (``_sandwich_root``). m has
    negative Schwarzian, so an attracting fixed point attracts globally
    (Singer 1978): |m'(x*)| <= 1 means Unique at x*; otherwise the even limit
    is bisected as the root of m(m(y)) - y between m(m(0)) and x*, and the
    odd limit is its image. These verdicts carry ``method="bisection"``.
    Every map evaluation counts against ``max_iter``; a budget that runs out
    gives Inconclusive with the ends m(m(0)) and m(0).

    For cv == 1 with an increasing map (exact cross ratio > 0) there is no
    two-cycle: iterates from 0 rise to the least fixed point and iterates
    from nu_1 (an upper bound of m) fall to the greatest. The map is iterated
    from 0, then from nu_1 on the budget left. Multiple: both runs settle
    further than ``sep`` apart (relative to 1 + the larger limit), with
    ``even_limit`` the limit from 0 and ``odd_limit`` the limit from nu_1.
    Inconclusive: either run uses up the budget. Unique otherwise, at the
    limit from 0; ``iterations`` counts the steps of both runs.
    """
    _check_iteration(tol, sep, max_iter)
    _check_finite_sums(p)
    # the scalar map is decreasing iff its exact cross ratio is <= 0
    if p.cv == 1 and _cross_ratio(p) <= 0.0:
        return _decide_scalar(p, tol, max_iter)
    step = _map_step(p)
    low = _iterate(step, (0.0,) * p.cv, tol, sep, max_iter)
    if low.kind is not Uniqueness.UNIQUE:
        return low
    if p.cv > 1:
        if _log_concave(p):
            return low
        x = low.fixed_point
        return UniquenessVerdict(
            Uniqueness.INCONCLUSIVE, low.iterations, even_limit=x, odd_limit=x, method="unordered"
        )
    # an increasing cv == 1 map: 0 climbs to the least fixed point, nu_1 >= m falls to the greatest
    high = _iterate(step, (float(p.node_weights.entries[1]),), tol, sep, max_iter - low.iterations)
    if high.kind is not Uniqueness.UNIQUE:
        # _by_parity files the run's last iterate under the parity of its step count
        last = (high.even_limit, high.odd_limit)[high.iterations % 2]
        return UniquenessVerdict(
            Uniqueness.INCONCLUSIVE, max_iter, even_limit=low.fixed_point, odd_limit=last
        )
    n = low.iterations + high.iterations
    a, b = low.fixed_point, high.fixed_point
    if _sup_gap(a, b) > sep * (1.0 + max(a + b)):
        return UniquenessVerdict(Uniqueness.MULTIPLE, n, even_limit=a, odd_limit=b)
    return UniquenessVerdict(Uniqueness.UNIQUE, n, fixed_point=a)


def _iterate(step, x0: tuple, tol, sep, max_iter) -> UniquenessVerdict:
    """``classify_by_iteration``'s tests on at most max_iter iterates of ``step`` from x0."""
    x1, x2, x3 = x0, None, None  # iterates n-1, n-2, n-3
    for n in range(1, max_iter + 1):
        x = step(x1)
        scale = 1.0 + max(x)
        if _sup_gap(x, x1) <= tol * scale:
            return UniquenessVerdict(Uniqueness.UNIQUE, n, fixed_point=x)
        if (
            n >= 3
            and _sup_gap(x, x2) <= tol * scale
            and _sup_gap(x1, x3) <= tol * scale
            and _sup_gap(x, x1) > sep * scale
            # each limit must be numerically fixed under the doubled map
            and _sup_gap(step(step(x)), x) <= 50 * tol * scale
            and _sup_gap(step(step(x1)), x1) <= 50 * tol * scale
        ):
            return _by_parity(Uniqueness.MULTIPLE, n, x, x1)
        x1, x2, x3 = x, x1, x2
    return _by_parity(Uniqueness.INCONCLUSIVE, max_iter, x1, x2)


def _cross_ratio(p: ModelParams) -> float:
    """r = (a1 b0 - a0 b1) / (b0 b1) for cv == 1, one correctly rounded quotient of exact sums.

    Rows 0 and 1 of the coefficients are (b0, b1) and (a0, a1), so the
    numerator is S(c2) S(c0) - S(c1)**2 with c_k = min(cap - k, ce). As a
    float difference it cancels when the top edge weights are small against
    the partial sums; here it is formed on the same rows built over the
    integer numerators N_k.
    """
    (n0, n1), (_, n2) = _clipped_rows(p.edge_weights._exact_sums[1], p.cap, 1, p.ce)
    return (n2 * n0 - n1 * n1) / (n0 * n1)


def _log_concave(p: ModelParams) -> bool:
    """Whether the clipped edge sums S(min(a, ce)), a = 0..cap, are log-concave, exactly.

    From a = ce on they are constant, so the margin S(a)**2 - S(a-1) S(a+1)
    is S(ce) (S(ce) - S(a-1)) >= 0 there; below ce nothing is clipped, and
    the margin is tested on the integer numerators N_a.
    """
    n = p.edge_weights._exact_sums[1]
    return all(n[a] * n[a] >= n[a - 1] * n[a + 1] for a in range(1, p.ce))


def _log_slope(p: ModelParams, x: float) -> float:
    """g'(x)/g(x) for cv == 1, g = (a0 + a1 x)/(b0 + b1 x); each factor after r is <= 1."""
    (b0, b1), (a0, a1) = p._rows
    return _cross_ratio(p) * (b0 / (b0 + b1 * x)) * (b1 / (a0 + a1 * x))


def _scalar_slope(p: ModelParams, x: float, mx: float) -> float:
    """m'(x) for cv == 1, given mx = m(x): m = nu g**q, so m' = q m g'/g."""
    return p.q * (mx * _log_slope(p, x))


def _sandwich_root(m, tol: float, budget) -> tuple:
    """x* of a nonincreasing map m >= 0, bisected below the top of its sandwich.

    m(m(0)) <= x* <= m(0); ends out of order beyond tol (1 + m(m(0))), or
    below 0, raise RuntimeError, and rounding within that is sorted. m(x) - x
    has a known sign at 0 and m(0) but not at m(m(0)), so x* is bisected on
    [0, hi]; when the ends coincide, hi is a float fixed point. Returns
    ``(lo, hi, x, used)``, x None when ``budget`` evaluations of m run out
    and ``used`` counting the two for the ends.
    """
    hi = m(0.0)
    lo = m(hi)
    slack = tol * (1.0 + lo)
    if not -slack <= lo <= hi + slack:
        raise RuntimeError("internal consistency: iterates left the monotone sandwich")
    lo, hi = min(lo, hi), max(lo, hi)
    x, used = _bisect(lambda x: m(x) - x, lo if lo == hi else 0.0, hi, 1, budget - 2)
    return lo, hi, x, used + 2


def _decide_scalar(p: ModelParams, tol: float, max_iter: int) -> UniquenessVerdict:
    """Decide a nonincreasing cv == 1 map: x* from its sandwich, then the slope m'(x*)."""
    m = _scalar_map(p)
    lo, hi, x, n = _sandwich_root(m, tol, max_iter)
    if x is not None:
        if abs(_scalar_slope(p, x, x)) <= 1.0:  # m(x*) = x*
            return UniquenessVerdict(
                Uniqueness.UNIQUE, n, fixed_point=(x,), method="bisection"
            )
        y, used = _bisect(lambda y: m(m(y)) - y, lo, x, 2, max_iter - n)
        n += used
        if y is not None and n < max_iter:
            return UniquenessVerdict(
                Uniqueness.MULTIPLE, n + 1, even_limit=(y,), odd_limit=(m(y),),
                method="bisection",
            )
    return UniquenessVerdict(
        Uniqueness.INCONCLUSIVE, max_iter, even_limit=(lo,), odd_limit=(hi,)
    )


def _pair_interaction(p: ModelParams, i: int, j: int) -> float:
    """Symmetric interaction weight between adjacent node occupancies i and j.

    Zero when i + j exceeds the budget; otherwise the geometric-mean node
    activity (nu_i nu_j)**(1/(q+1)) times the partial sum of edge weights
    that still fit over the shared edge.
    """
    check_int("i", i, 0, p.cv)
    check_int("j", j, 0, p.cv)
    if i + j > p.cap:
        return 0.0
    room = p._rows[i][j]
    prod = float(p.node_weights.entries[i]) * float(p.node_weights.entries[j])
    return power(prod, 1.0 / (p.q + 1)) * room


def _check_interaction_vector(p: ModelParams, psi) -> tuple:
    vec = tuple(check_nonneg("interaction entry", x) for x in psi)
    if len(vec) != p.cv + 1:
        raise ValueError(f"interaction vector needs length cv+1={p.cv + 1}, got {len(vec)}")
    if vec[0] != 1.0:
        raise ValueError(f"interaction vector must have first entry 1, got {vec[0]!r}")
    return vec


def interaction_map(p: ModelParams, psi) -> tuple:
    """Normalized interaction form of the recursion, acting on psi with psi_0 = 1.

    Component i is (sum_j phi(i,j) psi_j / sum_j phi(0,j) psi_j)**q, the sums
    running over j = 0..cv (phi is 0 past the budget); ValueError when one
    overflows. Component 0 is identically 1.
    """
    vec = _check_interaction_vector(p, psi)
    occ = range(p.cv + 1)
    phi = [[_pair_interaction(p, i, j) for j in occ] for i in occ]
    den, *nums = _finite_row_sums(phi, vec[1:])
    return (1.0,) + tuple(power(t / den, p.q) if t > 0.0 else 0.0 for t in nums)


def conjugate_maps(p: ModelParams):
    """Coordinate changes linking the interaction form to the ratio form.

    Returns ``(to_ratio, from_ratio)``: ``to_ratio`` maps an interaction
    vector psi (length cv+1, psi_0 = 1) to a ratio vector xi (length cv) via
    xi_k = nu_k**(1/(q+1)) psi_k; ``from_ratio`` inverts it. Requires every
    node weight positive, else the inverse does not exist.
    """
    if any(float(v) == 0.0 for v in p.node_weights.entries):
        raise ValueError("conjugation needs strictly positive node weights")
    root = 1.0 / (p.q + 1)
    factors = tuple(power(float(v), root) for v in p.node_weights.entries)

    def to_ratio(psi) -> tuple:
        vec = _check_interaction_vector(p, psi)
        return tuple(factors[k] * vec[k] for k in range(1, p.cv + 1))

    def from_ratio(xi) -> tuple:
        vec = _check_ratio_vector(p, xi)
        return (1.0,) + tuple(vec[k - 1] / factors[k] for k in range(1, p.cv + 1))

    return to_ratio, from_ratio
