"""Closed-form phase analysis for unit node cap and full edge cap.

With ``cv = 1`` and ``ce = cap`` the ratio recursion collapses to a scalar map

    m(x) = nu * ((S_{cap-1} + x S_{cap-2}) / (S_cap + x S_{cap-1}))**q

in the cached partial sums S of the edge weights. The map itself lives in
``rfmap``: ``ratio_map_derivative`` and ``fixed_point`` run its scalar slope
and bisection. This module holds the closed form. Under strict log-concavity
of the partial sums at cap-1 the map is decreasing with a unique fixed point,
and everything reduces to two ingredients: ``_nu_of``, the increasing
bijection x -> x ((S_cap + x S_{cap-1}) / (S_{cap-1} + x S_{cap-2}))**q
sending a prescribed fixed point x to the nu that realizes it, and the
stability quadratic S_{cap-1} S_{cap-2} x^2 + ((1-q) S_{cap-1}^2 + (1+q)
S_cap S_{cap-2}) x + S_cap S_{cap-1}, nonnegative at the fixed point exactly
when |m'| <= 1 there. When the window inequality
``(q-1)^2 S_{cap-1}^2 > (q+1)^2 S_cap S_{cap-2}`` holds (``condition_a``),
the quadratic has two positive roots, which ``phase_window`` maps through
``_nu_of`` to the open interval of nu with multiple limiting laws.

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

from ._num import check_int, check_nonneg, check_q, power
from .rfmap import (
    ModelParams, Uniqueness, UniquenessVerdict, _log_slope, _sandwich_root, _scalar_map,
    _scalar_slope,
)
from .weights import AssumptionViolation, WeightVector, poisson_weights

__all__ = [
    "AssumptionViolation",
    "PhaseParams",
    "PhaseWindow",
    "ratio_map_derivative",
    "schwarzian",
    "fixed_point",
    "condition_a_margin",
    "condition_a",
    "phase_window",
    "classify_closed_form",
    "poisson_window_statistic",
]


def _window_sums(q: int, cap: int, w: WeightVector) -> tuple[int, int, int, int]:
    """Validate; return (D, N_{cap-2}, N_{cap-1}, N_cap), the exact sums S_k = N_k / D at cap."""
    check_q(q)
    check_int("cap", cap, 2)
    if len(w) != cap + 1:
        raise ValueError(f"edge weights need length cap+1={cap + 1}, got {len(w)}")
    d, nums = w._exact_sums
    return (d, *nums[cap - 2 :])


def _require_assumption(q: int, cap: int, w: WeightVector) -> tuple[int, int, int, int]:
    """``_window_sums(q, cap, w)``, after checking strict log-concavity exactly."""
    sums = _window_sums(q, cap, w)
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
        check_q(self.q, 2)
        _require_assumption(self.q, self.cap, self.edge_weights)
        nu = float(self.nu)
        if not (nu > 0.0 and math.isfinite(nu)):
            raise ValueError(f"nu must be positive and finite, got {self.nu!r}")
        object.__setattr__(self, "nu", nu)
        model = ModelParams(self.q, self.cap, 1, self.cap, WeightVector((1, nu)), self.edge_weights)
        object.__setattr__(self, "_model", model)


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

    Returns the float x with m(x) >= x and m(x+) <= x+, x+ the next float up
    (``rfmap._sandwich_root``; m(x) == x only when m(m(0)) == m(0) = x). The
    bracket must satisfy m(0) > 0 and m(nu) <= nu; anything else is a
    violated precondition and raises RuntimeError rather than widening the
    bracket silently.
    """
    m = _scalar_map(p._model)
    if not m(0.0) > 0.0:
        raise RuntimeError("map value at 0 is not positive; bracket [0, nu] invalid")
    if m(p.nu) - p.nu > 0.0:
        raise RuntimeError("map value at nu exceeds nu; bracket [0, nu] invalid")
    return _sandwich_root(m, 1e-12, math.inf)[2]


def _nu_of(q: int, lams: tuple[float, float, float], x) -> float:
    """nu with fixed point x >= 0; lams: float S_{cap-2}, S_{cap-1}, S_cap of checked weights."""
    x = check_nonneg("evaluation point", x)
    sm2, sm1, sc = lams
    return x * power((sc + x * sm1) / (sm1 + x * sm2), q)


def condition_a_margin(q: int, cap: int, w: WeightVector) -> Fraction:
    """(q-1)^2 S_{cap-1}^2 - (q+1)^2 S_cap S_{cap-2} as an exact rational."""
    d, n0, n1, n2 = _window_sums(q, cap, w)
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

    Roots of the stability quadratic (module docstring) are taken
    sign-aware: the larger root from the quadratic formula's additive branch
    (the linear coefficient is negative whenever the window exists), the
    smaller from the root product S_cap / S_{cap-2}. The margin, the
    coefficients a2, a1, a0 (times D**2) and the discriminant (times D**4)
    are exact integers, so every sign is exact; each float is a correctly
    rounded quotient of two of them, the value ``float(Fraction)`` gives.

    A window whose floats overflow, vanish or saturate to inf raises
    ValueError naming q: a float window cannot carry it.
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
    try:
        alpha_plus = (-a1 / dd + math.sqrt(disc / (dd * dd))) / (2.0 * (a2 / dd))
        alpha_minus = (a0 / a2) / alpha_plus
        lams = tuple(map(float, w.partial_sums[cap - 2 : cap + 1]))  # S_{cap-2}, S_{cap-1}, S_cap
        nu_minus = _nu_of(q, lams, alpha_minus)
        nu_plus = _nu_of(q, lams, alpha_plus)
        if not (alpha_minus <= alpha_plus and nu_minus <= nu_plus):
            raise RuntimeError("internal consistency: window endpoints out of order")
        # nu_plus bounds nu_minus, and _num.power saturates to inf instead of raising
        if not math.isfinite(nu_plus):
            raise OverflowError("nu_plus is not finite")
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"window beyond the float range at q = {q:.6g}: {exc}") from exc
    return PhaseWindow(
        present=True,
        alpha_minus=alpha_minus,
        alpha_plus=alpha_plus,
        nu_minus=nu_minus,
        nu_plus=nu_plus,
    )


def classify_closed_form(p: PhaseParams) -> UniquenessVerdict:
    """Unique/Multiple by the window: Multiple iff nu lies strictly inside.

    Window endpoints themselves classify Unique. No map step is taken, so
    ``iterations`` is 0 and ``method`` is ``"closed-form"``.
    """
    win = phase_window(p.q, p.cap, p.edge_weights)
    inside = win.present and win.nu_minus < p.nu < win.nu_plus
    kind = Uniqueness.MULTIPLE if inside else Uniqueness.UNIQUE
    return UniquenessVerdict(kind, 0, method="closed-form")


def poisson_window_statistic(q: int, cap: int, rate) -> Fraction:
    """``condition_a_margin`` of the Poisson weights at ``rate``, exact for every rate type.

    Equal to (1+q)^2 (w_{cap-1} S_{cap-1} - w_cap S_{cap-2}) - 4 q S_{cap-1}^2
    in the Poisson entries; positive exactly when the window exists. Once
    positive it stays positive as the rate grows, so threshold hunting in the
    rate is a single bracket search.
    """
    check_q(q)
    check_int("cap", cap, 2)
    return condition_a_margin(q, cap, poisson_weights(rate, cap))
