"""Scalar map analysis: derivatives, fixed points, and the multiplicity window."""
import math
import sys
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from treeloss import phase1d
from treeloss.phase1d import (
    AssumptionViolation,
    PhaseParams,
    PhaseWindow,
    _nu_of,
    classify_closed_form,
    condition_a,
    condition_a_margin,
    fixed_point,
    phase_window,
    poisson_window_statistic,
    ratio_map_derivative,
    schwarzian,
)
from treeloss._num import power
from treeloss.rfmap import ModelParams, Uniqueness, random_field_map
from treeloss.weights import WeightVector, geometric_weights, poisson_weights


REFERENCE = PhaseParams(q=10, cap=2, edge_weights=poisson_weights(0.75, 2), nu=50.0)

# endpoints of the q=10, cap=2, Poisson(0.75) window, frozen from an
# independent high-precision evaluation of the quadratic-root formulas
ALPHA_MINUS = 1.0528431717211419
ALPHA_PLUS = 1.9292996854217152
NU_MINUS = 26.770974722340239
NU_PLUS = 90.726253564271425


def _ratio_map(p, x):
    """The scalar map of p at x, through the public map of its cv = 1, ce = cap model."""
    model = ModelParams(p.q, p.cap, 1, p.cap, WeightVector((1, p.nu)), p.edge_weights)
    return random_field_map(model, (x,))[0]


def _lams(cap, w):
    """(S_{cap-2}, S_{cap-1}, S_cap) as floats."""
    return tuple(map(float, w.partial_sums[cap - 2 : cap + 1]))


def _exact_sum(w, k):
    """S_k as the exact rational the entries sum to (float entries included)."""
    d, nums = w._exact_sums
    return Fraction(nums[k], d)


def _log_concavity_margin(w, cap):
    """S_{cap-1}**2 - S_cap S_{cap-2}, exactly: condition_a_margin at q = 1 is -4 S_cap S_{cap-2}."""
    return (condition_a_margin(1, cap, w) + 4 * _exact_sum(w, cap - 1) ** 2) / 4


def _mp_map(p):
    sm2 = mpmath.mpf(float(p.edge_weights.partial_sums[p.cap - 2]))
    sm1 = mpmath.mpf(float(p.edge_weights.partial_sums[p.cap - 1]))
    sc = mpmath.mpf(float(p.edge_weights.partial_sums[p.cap]))
    nu = mpmath.mpf(p.nu)
    return lambda x: nu * ((sm1 + x * sm2) / (sc + x * sm1)) ** p.q


DERIV_CASES = [
    (REFERENCE, 0.3),
    (REFERENCE, 1.4354),
    (REFERENCE, 6.0),
    (PhaseParams(q=3, cap=2, edge_weights=geometric_weights(1.3, 2), nu=2.0), 0.9),
    (PhaseParams(q=5, cap=4, edge_weights=poisson_weights(2.0, 4), nu=11.0), 3.7),
    (PhaseParams(q=2, cap=3, edge_weights=geometric_weights(0.4, 3), nu=0.8), 0.05),
]


class TestDerivatives:
    @pytest.mark.parametrize("p,x", DERIV_CASES)
    def test_against_high_precision_differentiation(self, p, x):
        with mpmath.workdps(50):
            want = float(mpmath.diff(_mp_map(p), mpmath.mpf(x), 1))
        got = ratio_map_derivative(p, x)
        assert math.isclose(got, want, rel_tol=1e-8), (got, want)

    @pytest.mark.parametrize("p,x", DERIV_CASES)
    def test_schwarzian_matches_definition(self, p, x):
        with mpmath.workdps(50):
            f = _mp_map(p)
            x0 = mpmath.mpf(x)
            d1 = mpmath.diff(f, x0, 1)
            d2 = mpmath.diff(f, x0, 2)
            d3 = mpmath.diff(f, x0, 3)
            want = float(d3 / d1 - mpmath.mpf(3) / 2 * (d2 / d1) ** 2)
        assert math.isclose(schwarzian(p, x), want, rel_tol=1e-8)

    @pytest.mark.parametrize("p,x", DERIV_CASES)
    def test_schwarzian_closed_form(self, p, x):
        # -(q^2-1)/2 * (S_c S_{c-2} - S_{c-1}^2)^2 / (D E)^2 with
        # D = S_{c-1} + x S_{c-2}, E = S_c + x S_{c-1}
        s = p.edge_weights.partial_sums
        sm2, sm1, sc = float(s[p.cap - 2]), float(s[p.cap - 1]), float(s[p.cap])
        de = (sm1 + x * sm2) * (sc + x * sm1)
        want = -0.5 * (p.q**2 - 1) * (sc * sm2 - sm1 * sm1) ** 2 / de**2
        assert math.isclose(schwarzian(p, x), want, rel_tol=1e-12)

    @given(
        st.integers(2, 12),
        st.integers(2, 5),
        st.floats(min_value=0.1, max_value=6.0),
        st.floats(min_value=0.0, max_value=40.0),
    )
    def test_map_is_decreasing_and_schwarzian_negative(self, q, cap, rate, x):
        p = PhaseParams(q=q, cap=cap, edge_weights=poisson_weights(rate, cap), nu=5.0)
        assert ratio_map_derivative(p, x) < 0.0
        assert schwarzian(p, x) < 0.0

    @pytest.mark.parametrize("which", ["derivative", "schwarzian"])
    def test_small_top_weights_do_not_cancel(self, which):
        # the top Poisson weights are tiny against the partial sums, so
        # S_c S_{c-2} - S_{c-1}**2 as a float difference loses most digits
        q, cap, nu, x = 5, 6, 3.0, 5.54
        p = PhaseParams(q=q, cap=cap, edge_weights=poisson_weights(0.0873, cap), nu=nu)
        sm2, sm1, sc = (_exact_sum(p.edge_weights, k) for k in (cap - 2, cap - 1, cap))
        fx = Fraction(x)
        g = (sm1 + fx * sm2) / (sc + fx * sm1)
        log_slope = (sm2 * sc - sm1 * sm1) / ((sm1 + fx * sm2) * (sc + fx * sm1))
        if which == "derivative":
            got, want = ratio_map_derivative(p, x), q * Fraction(nu) * g**q * log_slope
        else:
            got, want = schwarzian(p, x), -Fraction(q * q - 1, 2) * log_slope**2
        assert abs(Fraction(got) / want - 1) <= 1e-13

    def test_point_validation(self):
        for bad in (-0.5, float("nan"), float("inf")):
            for fn in (ratio_map_derivative, schwarzian, _ratio_map):
                with pytest.raises(ValueError):
                    fn(REFERENCE, bad)


class TestFixedPoint:
    def test_reference_pin(self):
        # frozen from a 50-digit bisection of the same map
        assert math.isclose(
            fixed_point(REFERENCE), 1.4354298401127090, rel_tol=1e-12
        )

    def test_residual_is_small(self):
        x = fixed_point(REFERENCE)
        assert abs(_ratio_map(REFERENCE, x) - x) <= 1e-10 * (1.0 + x)

    @given(
        st.integers(2, 10),
        st.floats(min_value=0.2, max_value=4.0),
        st.floats(min_value=0.05, max_value=300.0),
    )
    def test_inverse_consistency(self, q, rate, nu):
        w = poisson_weights(rate, 2)
        p = PhaseParams(q=q, cap=2, edge_weights=w, nu=nu)
        x = fixed_point(p)
        assert math.isclose(_nu_of(q, _lams(2, w), x), nu, rel_tol=1e-9)

    def test_nu_of_fixed_point_hand_value(self):
        # geometric rate 1, cap 2, q 2: x=1 maps back to ((3+2)/(2+1))^2 = 25/9
        w = geometric_weights(1.0, 2)
        assert math.isclose(_nu_of(2, _lams(2, w), 1.0), 25.0 / 9.0, rel_tol=1e-14)
        # and x = 1 is the fixed point of the map at that nu
        p = PhaseParams(q=2, cap=2, edge_weights=w, nu=25.0 / 9.0)
        assert math.isclose(fixed_point(p), 1.0, rel_tol=1e-14)

    def test_bracket_failure_is_a_runtime_error(self):
        # fixed_point refuses a bracket [0, nu] it cannot use instead of widening it
        p = PhaseParams(q=2, cap=2, edge_weights=geometric_weights(1.0, 2), nu=1.0)
        with mock.patch.object(phase1d, "_scalar_map", lambda model: lambda x: 0.0):
            with pytest.raises(RuntimeError, match="map value at 0 is not positive"):
                fixed_point(p)
        with mock.patch.object(phase1d, "_scalar_map", lambda model: lambda x: 2.0):
            with pytest.raises(RuntimeError, match="map value at nu exceeds nu"):
                fixed_point(p)

    @given(
        st.integers(2, 30),
        st.integers(2, 6),
        st.sampled_from([poisson_weights, geometric_weights]),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @example(10, 2, poisson_weights, 0.75, 50.0)  # REFERENCE
    @example(2, 2, geometric_weights, 9.96, 2.33e-06)  # m(x) - x < 0 at m(m(0)) already
    def test_root_at_float_resolution(self, q, cap, family, rate, nu):
        # m(x) - x changes sign between x and the next float up, or is 0 at x:
        # a map flat to rounding has m(m(0)) == m(0), and x = m(0) is then fixed
        p = PhaseParams(q=q, cap=cap, edge_weights=family(rate, cap), nu=nu)
        x = fixed_point(p)
        up = math.nextafter(x, math.inf)
        assert _ratio_map(p, x) - x >= 0.0 >= _ratio_map(p, up) - up, (x, up)

    @given(
        st.integers(2, 30),
        st.integers(2, 6),
        st.sampled_from([poisson_weights, geometric_weights]),
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=1e-6, max_value=1e6),
    )
    @example(10, 2, poisson_weights, 0.75, 50.0)  # REFERENCE
    def test_matches_a_50_digit_root(self, q, cap, family, rate, nu):
        # the float map's q-th power carries about q ulps, and the root no more
        p = PhaseParams(q=q, cap=cap, edge_weights=family(rate, cap), nu=nu)
        x = fixed_point(p)
        with mpmath.workdps(50):
            m = _mp_map(p)
            lo, hi = mpmath.mpf(x) * (1 - 1e-6), mpmath.mpf(x) * (1 + 1e-6)
            root = mpmath.findroot(lambda t: m(t) - t, (lo, hi), solver="anderson")
            assert lo < root < hi
            assert abs(x - root) <= 4 * q * sys.float_info.epsilon * root, (x, root)


class TestConditionA:
    def test_margin_exact_value(self):
        # 81 * (7/4)^2 - 121 * 65/32 = -633/32 at q=10, Poisson 3/4
        w = poisson_weights(Fraction(3, 4), 2)
        assert condition_a_margin(10, 2, w) == Fraction(
            81 * 49, 16
        ) - Fraction(121 * 65, 32)

    def test_poisson_threshold_exact(self):
        w = poisson_weights(Fraction(6), 2)
        assert condition_a_margin(6, 2, w) == 0
        assert not condition_a(6, 2, w)
        assert not condition_a(6, 2, poisson_weights(5.99, 2))
        assert condition_a(6, 2, poisson_weights(6.01, 2))

    def test_float_six_hits_boundary_exactly(self):
        # float 6.0 converts to Fraction(6); the exact path must see the zero
        assert condition_a_margin(6, 2, poisson_weights(6.0, 2)) == 0

    @given(st.integers(2, 20), st.integers(2, 5), st.fractions(min_value="1/10", max_value=30))
    def test_margin_equals_entrywise_form(self, q, cap, rate):
        # (q-1)^2 S_{c-1}^2 - (q+1)^2 S_c S_{c-2}
        #   == (1+q)^2 (w_{c-1} S_{c-1} - w_c S_{c-2}) - 4 q S_{c-1}^2
        # for every weight vector; both sides exact here
        w = poisson_weights(rate, cap)
        e, s = w.entries, w.partial_sums
        entrywise = (1 + q) ** 2 * (e[cap - 1] * s[cap - 1] - e[cap] * s[cap - 2])
        assert condition_a_margin(q, cap, w) == entrywise - 4 * q * s[cap - 1] ** 2

    def test_statistic_threshold_preserved_upward(self):
        for lam, expect in [
            (Fraction(59, 10), False),
            (Fraction(6), False),
            (Fraction(61, 10), True),
            (Fraction(8), True),
        ]:
            assert (poisson_window_statistic(6, 2, lam) > 0) is expect

    def test_geometric_margin_identity(self):
        # (q-1)^2 (1+r)^2 - (q+1)^2 (1+r+r^2) == (1+q)^2 r - 4q (1+r)^2
        for q in (2, 14, 30):
            for r in (Fraction(1, 3), Fraction(7, 8), Fraction(2)):
                w = geometric_weights(r, 2)
                assert condition_a_margin(q, 2, w) == (1 + q) ** 2 * r - 4 * q * (1 + r) ** 2


class TestWindow:
    def test_reference_pins(self):
        win = phase_window(10, 2, poisson_weights(0.75, 2))
        assert win.present and not win.boundary
        assert math.isclose(win.alpha_minus, ALPHA_MINUS, rel_tol=1e-12)
        assert math.isclose(win.alpha_plus, ALPHA_PLUS, rel_tol=1e-12)
        assert math.isclose(win.nu_minus, NU_MINUS, rel_tol=1e-12)
        assert math.isclose(win.nu_plus, NU_PLUS, rel_tol=1e-12)

    def test_geometric_integer_alphas(self):
        # q=14, geometric rate 1: quadratic 2a^2 - 7a + 6 has roots 3/2 and 2
        win = phase_window(14, 2, geometric_weights(1.0, 2))
        assert win.present
        assert win.alpha_minus == 1.5
        assert win.alpha_plus == 2.0

    def test_absent_and_boundary(self):
        assert phase_window(6, 2, poisson_weights(5.0, 2)) == PhaseWindow(present=False)
        win = phase_window(6, 2, poisson_weights(Fraction(6), 2))
        assert not win.present and win.boundary

    def test_quadratic_vanishes_at_endpoints(self):
        # the stability quadratic vanishes where the slope at the fixed point is -1:
        # at alpha_minus and alpha_plus, the fixed points at nu_minus and nu_plus
        w = poisson_weights(0.75, 2)
        win = phase_window(10, 2, w)
        for alpha, nu in ((win.alpha_minus, win.nu_minus), (win.alpha_plus, win.nu_plus)):
            p = PhaseParams(q=10, cap=2, edge_weights=w, nu=nu)
            assert abs(ratio_map_derivative(p, alpha) + 1.0) < 1e-12
            assert math.isclose(fixed_point(p), alpha, rel_tol=1e-12)

    def test_quadratic_hand_value(self):
        # S_1 S_0 a^2 + ((1-q) S_1^2 + (1+q) S_2 S_0) a + S_2 S_1 at q = 10,
        # Poisson 3/4, a = 3/2 is -0.3359375 (all quantities dyadic); factored
        # over the window's roots it is S_1 S_0 (a - alpha_minus)(a - alpha_plus)
        win = phase_window(10, 2, poisson_weights(0.75, 2))
        value = 1.75 * (1.5 - win.alpha_minus) * (1.5 - win.alpha_plus)
        assert math.isclose(value, -0.3359375, rel_tol=1e-12)
        # negative at the fixed point 3/2, so the slope there is below -1:
        # the quadratic is (S_1 + a S_0)(S_2 + a S_1)(1 + m'(a)) at a fixed point a
        w = poisson_weights(0.75, 2)
        p = PhaseParams(q=10, cap=2, edge_weights=w, nu=_nu_of(10, _lams(2, w), 1.5))
        want = -0.3359375 / ((1.75 + 1.5) * (2.03125 + 1.5 * 1.75)) - 1.0
        assert math.isclose(ratio_map_derivative(p, 1.5), want, rel_tol=1e-12)

    def test_root_product_identity(self):
        win = phase_window(10, 2, poisson_weights(0.75, 2))
        s = poisson_weights(Fraction(3, 4), 2).partial_sums
        assert math.isclose(
            win.alpha_minus * win.alpha_plus, float(s[2] / s[0]), rel_tol=1e-12
        )

    @pytest.mark.parametrize("q,w,reason", [
        # nu_plus saturates to inf at this branching
        (300, geometric_weights(20.0, 2), "nu_plus is not finite"),
        # the coefficients over D**2 are beyond the float range
        (6, poisson_weights(1e100, 2), "integer division result too large for a float"),
        # the leading coefficient over D**2 underflows to zero
        (49, WeightVector((1.2885089446087878e-284, 2.806662057886418e-181,
                           2.1783822470271507e-139)), "float division by zero"),
    ])
    def test_window_beyond_the_float_range_is_refused(self, q, w, reason):
        with pytest.raises(ValueError) as err:
            phase_window(q, 2, w)
        assert str(err.value) == f"window beyond the float range at q = {q}: {reason}"

    @pytest.mark.parametrize("exp", [150, 155, 200, 300])
    def test_a_q_that_overflows_the_window_is_named(self, exp):
        # at q = 1e150 the coefficients fit, and nu_plus saturates to inf as at
        # q = 300 above; from about q = 1.3e154 on, the discriminant over D**4,
        # which grows as (q (S_1^2 + S_2 S_0))^2, is beyond the float range
        if exp == 150:
            reason = "nu_plus is not finite"
        else:
            reason = "integer division result too large for a float"
        with pytest.raises(ValueError) as err:
            phase_window(10**exp, 2, poisson_weights(5.0, 2))
        assert str(err.value) == f"window beyond the float range at q = 1e+{exp}: {reason}"

    @given(st.integers(7, 25), st.floats(min_value=6.2, max_value=20.0))
    def test_endpoints_bracket_a_multiple_point(self, q, rate):
        w = poisson_weights(rate, 2)
        if not condition_a(q, 2, w):
            return
        win = phase_window(q, 2, w)
        assert win.present
        assert 0.0 < win.alpha_minus < win.alpha_plus
        assert 0.0 < win.nu_minus < win.nu_plus
        mid = 0.5 * (win.nu_minus + win.nu_plus)
        p = PhaseParams(q=q, cap=2, edge_weights=w, nu=mid)
        x = fixed_point(p)
        assert abs(ratio_map_derivative(p, x)) > 1.0


class TestClosedFormClassification:
    def test_inside_outside_endpoints(self):
        w = poisson_weights(0.75, 2)

        def verdict(nu):
            return classify_closed_form(PhaseParams(q=10, cap=2, edge_weights=w, nu=nu))

        assert verdict(50.0).kind is Uniqueness.MULTIPLE
        assert verdict(5.0).kind is Uniqueness.UNIQUE
        assert verdict(120.0).kind is Uniqueness.UNIQUE
        win = phase_window(10, 2, w)
        assert verdict(win.nu_minus).kind is Uniqueness.UNIQUE  # endpoint: not strictly inside
        assert verdict(win.nu_plus).kind is Uniqueness.UNIQUE

    def test_absent_window_is_unique_everywhere(self):
        w = poisson_weights(2.0, 2)
        assert not phase_window(6, 2, w).present
        for nu in (0.1, 10.0, 1e6):
            v = classify_closed_form(PhaseParams(q=6, cap=2, edge_weights=w, nu=nu))
            assert v.kind is Uniqueness.UNIQUE


class TestAssumptions:
    def test_flat_tail_rejected(self):
        w = WeightVector((1, 0, 0))
        with pytest.raises(AssumptionViolation):
            PhaseParams(q=3, cap=2, edge_weights=w, nu=1.0)
        with pytest.raises(AssumptionViolation):
            condition_a(3, 2, w)

    def test_assumption_violation_is_a_value_error(self):
        assert issubclass(AssumptionViolation, ValueError)

    def test_param_validation(self):
        w = poisson_weights(1.0, 2)
        with pytest.raises(ValueError):
            PhaseParams(q=1, cap=2, edge_weights=w, nu=1.0)  # q >= 2 here
        with pytest.raises(ValueError):
            PhaseParams(q=3, cap=1, edge_weights=w, nu=1.0)
        with pytest.raises(ValueError):
            PhaseParams(q=3, cap=2, edge_weights=w, nu=0.0)
        with pytest.raises(ValueError):
            PhaseParams(q=3, cap=2, edge_weights=w, nu=float("inf"))
        with pytest.raises(ValueError):
            PhaseParams(q=3, cap=3, edge_weights=w, nu=1.0)  # too few entries

    def test_statistic_validation(self):
        with pytest.raises(ValueError):
            poisson_window_statistic(0, 2, 1.0)
        with pytest.raises(ValueError):
            poisson_window_statistic(3, 1, 1.0)
        with pytest.raises(ValueError, match="q must be at most the largest float"):
            poisson_window_statistic(10**400, 2, 1.0)
        with pytest.raises(ValueError, match="q must be an int"):
            poisson_window_statistic(True, 2, 1.0)

    @given(
        st.one_of(st.integers(1, 60), st.integers(1, 10**300)),
        st.integers(2, 6),
        st.one_of(
            st.floats(1e-3, 1e3),
            st.fractions(min_value="1/1000", max_value=1000, max_denominator=10**6),
        ),
    )
    # (1 + q)**2 at q = 1e155, and S_2**2 at rate 1e80, are beyond the float range
    @example(10**155, 2, 1.0)
    @example(6, 3, 1e80)
    def test_statistic_is_the_exact_margin(self, q, cap, rate):
        w = poisson_weights(rate, cap)
        stat = poisson_window_statistic(q, cap, rate)
        assert type(stat) is Fraction
        assert stat == condition_a_margin(q, cap, w)
        assert (stat > 0) is condition_a(q, cap, w)

    @pytest.mark.parametrize("base,want", [(0.5, 0.0), (1.0, 1.0), (2.0, math.inf)])
    def test_power_of_an_exponent_beyond_the_floats(self, base, want):
        # q * log(base) has no float value; the side of 1 the base is on decides
        assert power(base, 10**400) == want


# ------------------------------------------------------------------ exactness
# The Fraction formulas the integer-scaled exact sums replaced, kept as the
# reference they must reproduce: every exact value by ==, every window float
# bit for bit (float.hex) and every failure by exception type.


def _ref_exact_partial_sum(w, k):
    if not isinstance(k, int) or isinstance(k, bool):
        raise ValueError(f"partial sum index must be an int, got {k!r}")
    if not 0 <= k < len(w):
        raise ValueError(f"partial sum index {k} outside [0, {len(w) - 1}]")
    total = Fraction(0)
    for e in w.entries[: k + 1]:
        total += Fraction(e)
    return total


def _ref_log_concavity_margin(w, cap):
    if not (isinstance(cap, int) and cap >= 2):
        raise ValueError(f"cap must be an int >= 2, got {cap!r}")
    if len(w) <= cap:
        raise ValueError(f"need entries up to index {cap}, have {len(w) - 1}")
    s = lambda k: _ref_exact_partial_sum(w, k)  # noqa: E731
    return s(cap - 1) ** 2 - s(cap) * s(cap - 2)


def _ref_validate(q, cap, w):
    if not isinstance(q, int) or isinstance(q, bool) or q < 1:
        raise ValueError(f"q must be an int >= 1, got {q!r}")
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 2:
        raise ValueError(f"cap must be an int >= 2, got {cap!r}")
    if len(w) != cap + 1:
        raise ValueError(f"edge weights need length cap+1={cap + 1}, got {len(w)}")


def _ref_require_assumption(q, cap, w):
    _ref_validate(q, cap, w)
    if not _ref_log_concavity_margin(w, cap) > 0:
        raise AssumptionViolation("partial sums not strictly log-concave")


def _ref_condition_a_margin(q, cap, w):
    _ref_validate(q, cap, w)
    s = lambda k: _ref_exact_partial_sum(w, k)  # noqa: E731
    return (q - 1) ** 2 * s(cap - 1) ** 2 - (q + 1) ** 2 * s(cap) * s(cap - 2)


def _ref_nu_of_fixed_point(q, cap, w, x):
    _ref_require_assumption(q, cap, w)
    x = float(x)
    if not (x >= 0.0 and math.isfinite(x)):
        raise ValueError(f"evaluation point must be finite and >= 0, got {x!r}")
    sm2, sm1, sc = (float(w.partial_sums[k]) for k in (cap - 2, cap - 1, cap))
    return x * power((sc + x * sm1) / (sm1 + x * sm2), q)


def _ref_phase_window(q, cap, w):
    _ref_require_assumption(q, cap, w)
    margin = _ref_condition_a_margin(q, cap, w)
    if margin < 0:
        return PhaseWindow(present=False)
    if margin == 0:
        return PhaseWindow(present=False, boundary=True)
    s = lambda k: _ref_exact_partial_sum(w, k)  # noqa: E731
    a2 = s(cap - 1) * s(cap - 2)
    a1 = (1 - q) * s(cap - 1) ** 2 + (1 + q) * s(cap) * s(cap - 2)
    a0 = s(cap) * s(cap - 1)
    disc = a1 * a1 - 4 * a2 * a0
    if disc <= 0 or a1 >= 0:
        raise RuntimeError("internal consistency")
    try:
        alpha_plus = (float(-a1) + math.sqrt(float(disc))) / (2.0 * float(a2))
        alpha_minus = float(a0 / a2) / alpha_plus
        nu_minus = _ref_nu_of_fixed_point(q, cap, w, alpha_minus)
        nu_plus = _ref_nu_of_fixed_point(q, cap, w, alpha_plus)
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError("edge weights too extreme for a float window") from exc
    if not (alpha_minus <= alpha_plus and nu_minus <= nu_plus):
        raise RuntimeError("internal consistency: window endpoints out of order")
    if not math.isfinite(nu_plus):
        raise ValueError("edge weights too extreme for a float window: nu_plus is not finite")
    return PhaseWindow(True, False, alpha_minus, alpha_plus, nu_minus, nu_plus)


def _bits(x):
    return float.hex(x) if isinstance(x, float) else x


def _outcome(fn, *args):
    """A comparable result: the value (floats as hex), or the exception type."""
    try:
        value = fn(*args)
    except Exception as exc:  # the type is what is compared
        return ("raised", type(exc))
    if isinstance(value, PhaseWindow):
        return ("window", tuple(_bits(v) for v in vars(value).values()))
    return ("value", type(value), value)


def _assert_matches_reference(q, cap, w):
    assert _outcome(phase_window, q, cap, w) == _outcome(_ref_phase_window, q, cap, w)
    assert _outcome(condition_a_margin, q, cap, w) == _outcome(_ref_condition_a_margin, q, cap, w)
    if len(w) == cap + 1:  # condition_a_margin takes exactly cap + 1 entries
        assert _outcome(_log_concavity_margin, w, cap) == _outcome(_ref_log_concavity_margin, w, cap)
    for k in range(len(w)):
        assert _exact_sum(w, k) == _ref_exact_partial_sum(w, k)


_ENTRY = st.one_of(
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
    st.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True),
    st.floats(min_value=0.01, max_value=100.0),
    st.integers(0, 10**40),
    st.fractions(min_value=0, max_value=10**6, max_denominator=10**9),
    st.sampled_from([0, 0.0, Fraction(0), 1, 1.0, 5e-324, 1.7976931348623157e308]),
)


class TestExactness:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 60),
        st.integers(2, 7),
        st.sampled_from([0, 0, 0, 0, -1, 1]),  # a wrong length now and then
        st.data(),
    )
    def test_matches_fraction_reference(self, q, cap, length_offset, data):
        first = data.draw(_ENTRY.filter(lambda e: e > 0), label="entry 0")
        rest = data.draw(st.lists(_ENTRY, min_size=cap + length_offset,
                                  max_size=cap + length_offset), label="entries")
        _assert_matches_reference(q, cap, WeightVector((first, *rest)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 60), st.integers(2, 7),
           st.one_of(st.floats(min_value=0.01, max_value=50.0),
                     st.fractions(min_value="1/100", max_value=50, max_denominator=1000)),
           st.sampled_from([poisson_weights, geometric_weights]))
    def test_families_match_fraction_reference(self, q, cap, rate, family):
        _assert_matches_reference(q, cap, family(rate, cap))

    @pytest.mark.parametrize("q,w", [
        (6, poisson_weights(Fraction(6), 2)),
        (6, poisson_weights(6.0, 2)),
        (14, geometric_weights(Fraction(7, 8), 2)),
        (14, geometric_weights(0.875, 2)),
        (14, geometric_weights(Fraction(8, 7), 2)),
    ])
    def test_exact_boundaries(self, q, w):
        assert condition_a_margin(q, 2, w) == 0
        assert phase_window(q, 2, w) == PhaseWindow(present=False, boundary=True)
        _assert_matches_reference(q, 2, w)

    def test_boundary_neighbours_match_reference(self):
        # 8/7 is not a float; its nearest float lands just off the boundary
        for q, w in [(14, geometric_weights(8 / 7, 2)),
                     (14, geometric_weights(Fraction(8, 7) + Fraction(1, 10**12), 2)),
                     (6, poisson_weights(math.nextafter(6.0, 7.0), 2)),
                     (6, poisson_weights(math.nextafter(6.0, 5.0), 2))]:
            _assert_matches_reference(q, 2, w)

    def test_readme_window_is_bit_identical(self):
        win = phase_window(10, 2, poisson_weights(0.75, 2))
        assert (win.alpha_minus, win.alpha_plus) == (1.0528431717211417, 1.9292996854217155)
        assert (win.nu_minus, win.nu_plus) == (26.770974722340235, 90.72625356427147)


# ------------------------------------------------------------ criterion 8, exactly
# The lower window endpoint nu_minus on q = 6, cap = 2 Poisson weights has an
# interior minimum near rate 6.035, so test_criterion_08_monotonicity (which
# asserts a strict decrease on [6.005, 6.10]) fails as written. This companion
# evaluates the closed form at 60 digits, independently of the package.


def _mp_nu_minus(q, rate):
    """nu_minus for Poisson(rate) edge weights at cap = 2, at mpmath's working precision.

    The smaller root alpha of S_1 S_0 a^2 + ((1-q) S_1^2 + (1+q) S_2 S_0) a + S_2 S_1,
    mapped to alpha ((S_2 + alpha S_1) / (S_1 + alpha S_0))**q.
    """
    lam = mpmath.mpf(rate.numerator) / rate.denominator
    s0, s1, s2 = mpmath.mpf(1), 1 + lam, 1 + lam + lam * lam / 2
    a2, a1, a0 = s1 * s0, (1 - q) * s1 * s1 + (1 + q) * s2 * s0, s2 * s1
    alpha = (-a1 - mpmath.sqrt(a1 * a1 - 4 * a2 * a0)) / (2 * a2)
    return alpha * ((s2 + alpha * s1) / (s1 + alpha * s0)) ** q


class TestCriterion8Exact:
    RATES = {"6.005": 76480.51, "6.035": 75452.07, "6.040": 75463.16, "6.10": 76687.67}

    def test_nu_minus_has_an_interior_minimum(self):
        with mpmath.workdps(60):
            exact = {r: _mp_nu_minus(6, Fraction(r)) for r in self.RATES}
            for r, rounded in self.RATES.items():
                got = phase_window(6, 2, poisson_weights(Fraction(r), 2)).nu_minus
                assert abs(got / exact[r] - 1) <= 1e-12, r
                assert round(float(exact[r]), 2) == rounded, r
            # falls from 6.005 to 6.035, then rises to 6.040 and on to 6.10
            assert exact["6.005"] > exact["6.035"] < exact["6.040"] < exact["6.10"]
