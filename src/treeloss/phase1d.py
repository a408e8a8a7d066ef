"""Closed-form phase analysis for unit node cap and full edge cap.

With ``cv = 1`` and ``ce = cap`` the ratio recursion collapses to a scalar map

    m(x) = nu * ((S_{cap-1} + x S_{cap-2}) / (S_cap + x S_{cap-1}))**q

in the cached partial sums S of the edge weights. The map itself lives in
``rfmap``: ``ratio_map``, ``ratio_map_derivative`` and ``fixed_point`` run its
scalar map, slope and bisection. This module holds the closed form. Under
strict log-concavity of the partial sums at cap-1 the map is decreasing with
a unique fixed point, and everything reduces to two ingredients:

* ``nu_of_fixed_point``, the increasing bijection sending a prescribed fixed
  point x to the nu that realizes it, and
* ``stability_quadratic``, a quadratic in x whose sign at the fixed point
  decides whether the fixed point attracts (nonnegative) or repels.

When the window inequality ``(q-1)^2 S_{cap-1}^2 > (q+1)^2 S_cap S_{cap-2}``
holds (``condition_a``), the quadratic has two positive roots and mapping them
through ``nu_of_fixed_point`` yields the open interval of nu with multiple
limiting laws.

Sign decisions are exact, so that points on the boundary are detected
exactly rather than by float luck. They are taken on the integer numerators
N of the partial sums, S_k = N_k / D, that every weight vector builds once
at construction: the margins, the quadratic's coefficients and its
discriminant are integers at scale D**2 (D**4 for the discriminant), and a
float is formed from them only by Python's correctly rounded ``int / int``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._num import check_int, check_nonneg, power
from .rfmap import ModelParams, Uniqueness, _bisect, _log_slope, _scalar_map, _scalar_slope
from .weights import AssumptionViolation, WeightVector, _exact_window_sums, poisson_weights

__all__ = [
    "AssumptionViolation",
    "BracketError",
    "PhaseParams",
    "PhaseWindow",
    "ClosedFormVerdict",
    "ratio_map",
    "ratio_map_derivative",
    "schwarzian",
    "fixed_point",
    "nu_of_fixed_point",
    "stability_quadratic",
    "condition_a_margin",
    "condition_a",
    "phase_window",
    "classify_closed_form",
    "poisson_window_statistic",
]


class BracketError(RuntimeError):
    """Fixed-point bracket [0, nu] fails its sign conditions; reported, never widened."""


def _validate_qcw(q: int, cap: int, w: WeightVector, min_q: int = 1) -> None:
    check_int("q", q, min_q)
    check_int("cap", cap, 2)
    if len(w) != cap + 1:
        raise ValueError(f"edge weights need length cap+1={cap + 1}, got {len(w)}")


def _require_assumption(
    q: int, cap: int, w: WeightVector, min_q: int = 1
) -> tuple[int, int, int, int]:
    """Validate, check strict log-concavity exactly, return ``_exact_window_sums(cap, w)``."""
    _validate_qcw(q, cap, w, min_q)
    sums = _exact_window_sums(cap, w)
    _, n0, n1, n2 = sums
    if not n1 * n1 > n2 * n0:
        raise AssumptionViolation(
            f"partial sums not strictly log-concave at cap={cap}; phase analysis undefined"
        )
    return sums


def _condition_a_numerator(q: int, n0: int, n1: int, n2: int) -> int:
    """condition_a_margin times D**2."""
    return (q - 1) ** 2 * n1 * n1 - (q + 1) ** 2 * n2 * n0


@dataclass(frozen=True)
class PhaseParams:
    """Scalar-map parameters: branching q >= 2, joint cap >= 2, edge weights, nu > 0.

    Construction enforces strict log-concavity of the edge partial sums at
    ``cap``; vectors failing it raise AssumptionViolation. The private
    attribute ``_model`` holds the equivalent cv = 1, ce = cap ``ModelParams``;
    it is not a field, so ==, hash and repr ignore it.
    """

    q: int
    cap: int
    edge_weights: WeightVector
    nu: float

    def __post_init__(self):
        _require_assumption(self.q, self.cap, self.edge_weights, min_q=2)
        nu = float(self.nu)
        if not (nu > 0.0 and math.isfinite(nu)):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        object.__setattr__(self, "nu", nu)
        model = ModelParams(self.q, self.cap, 1, self.cap, WeightVector((1, nu)), self.edge_weights)
        object.__setattr__(self, "_model", model)


def _lams(cap: int, w: WeightVector) -> tuple[float, float, float]:
    """(S_{cap-2}, S_{cap-1}, S_cap) as floats."""
    s = w.partial_sum
    return float(s(cap - 2)), float(s(cap - 1)), float(s(cap))


def ratio_map(p: PhaseParams, x) -> float:
    """The scalar occupancy-ratio map at x >= 0."""
    return _scalar_map(p._model)(check_nonneg("evaluation point", x))


def ratio_map_derivative(p: PhaseParams, x) -> float:
    """First derivative; strictly negative under the log-concavity assumption."""
    x = check_nonneg("evaluation point", x)
    return _scalar_slope(p._model, x, _scalar_map(p._model)(x))


def schwarzian(p: PhaseParams, x) -> float:
    """Schwarzian derivative m'''/m' - (3/2)(m''/m')^2; negative under the assumption.

    m = nu g**q with g = (a0 + a1 x)/(b0 + b1 x) a Moebius map (Schwarzian 0), so
    S m = -(q**2 - 1)/2 (g'/g)**2 with g'/g = (a1 b0 - a0 b1)/((a0 + a1 x)(b0 + b1 x)).
    """
    r = _log_slope(p._model, check_nonneg("evaluation point", x))
    return -0.5 * (p.q * p.q - 1) * r * r


def fixed_point(p: PhaseParams) -> float:
    """Locate the unique fixed point in [0, nu] by bisection to float resolution.

    Returns the float x with m(x) > x and m(x+) <= x+, x+ the next float up.
    The bracket must satisfy m(0) > 0 and m(nu) <= nu; anything else is a
    violated precondition and raises BracketError rather than widening the
    bracket silently.
    """
    m = _scalar_map(p._model)
    if not m(0.0) > 0.0:
        raise BracketError("map value at 0 is not positive; bracket [0, nu] invalid")
    if m(p.nu) - p.nu > 0.0:
        raise BracketError("map value at nu exceeds nu; bracket [0, nu] invalid")
    return _bisect(lambda x: m(x) - x, 0.0, p.nu, 1, math.inf)[0]


def nu_of_fixed_point(q: int, cap: int, w: WeightVector, x) -> float:
    """The nu for which x is the fixed point of the scalar map (increasing in x)."""
    _require_assumption(q, cap, w)
    return _nu_of(q, cap, w, x)


def _nu_of(q: int, cap: int, w: WeightVector, x) -> float:
    """nu_of_fixed_point for callers that have already checked the assumption."""
    x = check_nonneg("evaluation point", x)
    sm2, sm1, sc = _lams(cap, w)
    return x * power((sc + x * sm1) / (sm1 + x * sm2), q)


def stability_quadratic(q: int, cap: int, w: WeightVector, alpha) -> float:
    """Quadratic whose sign at the fixed point decides its stability.

    Value S_{cap-1} S_{cap-2} a^2 + ((1-q) S_{cap-1}^2 + (1+q) S_cap S_{cap-2}) a
    + S_cap S_{cap-1}; nonnegative at the fixed point means |slope| <= 1 there.
    """
    _validate_qcw(q, cap, w)
    a = check_nonneg("evaluation point", alpha)
    sm2, sm1, sc = _lams(cap, w)
    return sm1 * sm2 * a * a + ((1 - q) * sm1 * sm1 + (1 + q) * sc * sm2) * a + sc * sm1


def condition_a_margin(q: int, cap: int, w: WeightVector) -> Fraction:
    """(q-1)^2 S_{cap-1}^2 - (q+1)^2 S_cap S_{cap-2} as an exact rational."""
    _validate_qcw(q, cap, w)
    d, n0, n1, n2 = _exact_window_sums(cap, w)
    return Fraction(_condition_a_numerator(q, n0, n1, n2), d * d)


def condition_a(q: int, cap: int, w: WeightVector) -> bool:
    """True iff the window-existence inequality holds strictly (exact arithmetic)."""
    _, n0, n1, n2 = _require_assumption(q, cap, w)
    return _condition_a_numerator(q, n0, n1, n2) > 0


@dataclass(frozen=True)
class PhaseWindow:
    """Multiplicity window in nu; absent when ``present`` is False.

    ``boundary`` marks exact equality in the window inequality (a degenerate,
    measure-zero situation the float path would otherwise misreport).
    """

    present: bool
    boundary: bool = False
    alpha_minus: float | None = None
    alpha_plus: float | None = None
    nu_minus: float | None = None
    nu_plus: float | None = None


def phase_window(q: int, cap: int, w: WeightVector) -> PhaseWindow:
    """Compute the open interval of nu with multiple limiting laws, if any.

    Roots of the stability quadratic are taken sign-aware: the larger root
    from the quadratic formula's additive branch (the linear coefficient is
    negative whenever the window exists), the smaller from the root product
    S_cap / S_{cap-2}. The margin, the coefficients a2, a1, a0 (times D**2)
    and the discriminant (times D**4) are exact integers, so every sign is
    exact; each float is a correctly rounded quotient of two of them, the
    value ``float(Fraction)`` gives.
    """
    d, n0, n1, n2 = _require_assumption(q, cap, w)
    margin = _condition_a_numerator(q, n0, n1, n2)
    if margin < 0:
        return PhaseWindow(present=False)
    if margin == 0:
        return PhaseWindow(present=False, boundary=True)

    dd = d * d
    a2 = n1 * n0
    a1 = (1 - q) * n1 * n1 + (1 + q) * n2 * n0
    a0 = n2 * n1
    disc = a1 * a1 - 4 * a2 * a0
    if disc <= 0 or a1 >= 0:
        raise RuntimeError(
            "internal consistency: window inequality holds but the quadratic "
            f"does not have two positive roots (disc={disc / (dd * dd)}, a1={a1 / dd})"
        )
    alpha_plus = (-a1 / dd + math.sqrt(disc / (dd * dd))) / (2.0 * (a2 / dd))
    alpha_minus = (a0 / a2) / alpha_plus
    nu_minus = _nu_of(q, cap, w, alpha_minus)
    nu_plus = _nu_of(q, cap, w, alpha_plus)
    if not (alpha_minus <= alpha_plus and nu_minus <= nu_plus):
        raise RuntimeError("internal consistency: window endpoints out of order")
    return PhaseWindow(
        present=True,
        alpha_minus=alpha_minus,
        alpha_plus=alpha_plus,
        nu_minus=nu_minus,
        nu_plus=nu_plus,
    )


@dataclass(frozen=True)
class ClosedFormVerdict:
    kind: Uniqueness
    near_boundary: bool
    window: PhaseWindow


def classify_closed_form(p: PhaseParams, boundary_rtol: float = 1e-9) -> ClosedFormVerdict:
    """Unique/Multiple by the window: Multiple iff nu lies strictly inside.

    Window endpoints themselves classify Unique. A nu within ``boundary_rtol``
    (relative) of either endpoint keeps its verdict but is flagged
    ``near_boundary`` - numerics this close to the edge deserve distrust.
    """
    win = phase_window(p.q, p.cap, p.edge_weights)
    if not win.present:
        return ClosedFormVerdict(Uniqueness.UNIQUE, False, win)
    inside = win.nu_minus < p.nu < win.nu_plus
    near = any(
        abs(p.nu - endpoint) <= boundary_rtol * max(1.0, endpoint)
        for endpoint in (win.nu_minus, win.nu_plus)
    )
    kind = Uniqueness.MULTIPLE if inside else Uniqueness.UNIQUE
    return ClosedFormVerdict(kind, near, win)


def poisson_window_statistic(q: int, cap: int, rate):
    """Sign-equivalent window statistic for the Poisson weight family.

    (1+q)^2 (w_{cap-1} S_{cap-1} - w_cap S_{cap-2}) - 4 q S_{cap-1}^2 for the
    Poisson entries at ``rate``; positive exactly when the window exists. Once
    positive it stays positive as the rate grows, so threshold hunting in the
    rate is a single bracket search. Exact when ``rate`` is a Fraction.
    """
    check_int("q", q, 1)
    check_int("cap", cap, 2)
    w = poisson_weights(rate, cap)
    e = w.entries
    s = w.partial_sums
    return (1 + q) ** 2 * (e[cap - 1] * s[cap - 1] - e[cap] * s[cap - 2]) - 4 * q * s[cap - 1] ** 2
