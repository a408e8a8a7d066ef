"""End-to-end acceptance checks, one test per release criterion.

Each test prints a one-line summary (visible with ``pytest -s`` and on
failure). Tolerances are part of the contract and are asserted as stated,
never loosened to accommodate the implementation.
"""
import math
import random
from fractions import Fraction

import pytest

from treeloss.oracle import (
    edge_centered_tree,
    exact_blocking,
    exact_partition,
    occupancy_distribution,
    rooted_tree,
    spherical_tree,
    TreeSpec,
    TreeTooLargeError,
)
from treeloss.phase1d import (
    PhaseParams,
    classify_closed_form,
    condition_a,
    condition_a_margin,
    fixed_point,
    phase_window,
    poisson_window_statistic,
    ratio_map_derivative,
    schwarzian,
)
from treeloss.rfmap import (
    ModelParams,
    Uniqueness,
    classify_by_iteration,
    conjugate_maps,
    interaction_map,
    random_field_map,
)
from treeloss.simulate import SimConfig, compare, compare_runs, run as sim_run
from treeloss.treecalc import (
    center_occupancy,
    multicast_blocking,
    rooted_state,
    unicast_blocking,
)
from treeloss.weights import WeightVector, geometric_weights, poisson_weights


def _close(a, b, rel):
    return math.isclose(float(a), float(b), rel_tol=rel, abs_tol=0.0)


def test_criterion_01_poisson_threshold():
    """q=6, budget 2, Poisson: the window condition flips exactly at rate 6."""
    for lam in (1, 3, 5, 5.99):
        assert not condition_a(6, 2, poisson_weights(lam, 2)), lam
    for lam in (6.01, 7, 10):
        assert condition_a(6, 2, poisson_weights(lam, 2)), lam
    # the boundary is an exact rational identity, not a near-zero float
    assert poisson_window_statistic(6, 2, Fraction(6)) == 0
    assert condition_a_margin(6, 2, poisson_weights(Fraction(6), 2)) == 0
    assert not condition_a(6, 2, poisson_weights(Fraction(6), 2))
    print("CRITERION 1: PASS - threshold at rate 6 confirmed, boundary exact")


def test_criterion_02_geometric_window():
    """q=14, budget 2, geometric: window exactly for rates in (49/56, 64/56)."""
    q = 14

    def margin(rate):
        return condition_a_margin(q, 2, geometric_weights(rate, 2))

    for lam in (0.87, 1.15):
        assert not condition_a(q, 2, geometric_weights(lam, 2)), lam
    for lam in (0.88, 1.14):
        assert condition_a(q, 2, geometric_weights(lam, 2)), lam
    # rational arithmetic: margin is literally (1+q)^2 r - 4q (1+r)^2
    for num, den in ((87, 100), (88, 100), (114, 100), (115, 100)):
        r = Fraction(num, den)
        assert margin(r) == 225 * r - 56 * (1 + r) ** 2
    assert margin(Fraction(49, 56)) == 0
    assert margin(Fraction(64, 56)) == 0
    print("CRITERION 2: PASS - geometric window (49/56, 64/56) exact")


def _iteration_kind(nu, tol=1e-9, sep=1e-3, max_iter=600_000):
    """Iteration verdict tuned for scanning near the critical load.

    Close to an endpoint the slope approaches -1, so rounding noise settles
    into a float two-cycle of amplitude ~eps/(1-|slope|): tol must sit above
    that floor or uniqueness can never be declared, and sep must sit far
    above the stalled parity gap (~tol/(1-|slope|)) or the stall reads as a
    genuine two-cycle. Real cycle amplitudes at the distances we probe are
    of order 1e-2, so sep=1e-3 keeps both failure modes out of reach.
    """
    p = ModelParams(
        q=10, cap=2, cv=1, ce=2,
        node_weights=poisson_weights(nu, 1),
        edge_weights=poisson_weights(0.75, 2),
    )
    return classify_by_iteration(p, tol=tol, sep=sep, max_iter=max_iter).kind


def test_criterion_03_window_endpoints_vs_iteration():
    """Closed-form endpoints, iteration-scan endpoints, and pins all agree."""
    win = phase_window(10, 2, poisson_weights(0.75, 2))
    assert win.present

    # regression pins at +-0.5%
    assert _close(win.nu_minus, 26.8, 0.005)
    assert _close(win.nu_plus, 90.7, 0.005)

    # bisect the verdict flips; anything not clearly unique counts as the
    # multiple side, which only matters within the final bracket anyway
    def bisect(lo, hi, unique_low):
        for _ in range(9):
            mid = 0.5 * (lo + hi)
            is_unique = _iteration_kind(mid) is Uniqueness.UNIQUE
            if is_unique == unique_low:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    assert _iteration_kind(20.0) is Uniqueness.UNIQUE
    assert _iteration_kind(35.0) is Uniqueness.MULTIPLE
    assert _iteration_kind(85.0) is Uniqueness.MULTIPLE
    assert _iteration_kind(100.0) is Uniqueness.UNIQUE
    scan_lo = bisect(20.0, 35.0, unique_low=True)
    scan_hi = bisect(85.0, 100.0, unique_low=False)
    assert _close(scan_lo, win.nu_minus, 0.002)
    assert _close(scan_hi, win.nu_plus, 0.002)

    # verdicts on both sides and in the middle
    assert _iteration_kind(win.nu_minus / 2) is Uniqueness.UNIQUE
    assert _iteration_kind(2 * win.nu_plus) is Uniqueness.UNIQUE
    assert _iteration_kind(0.5 * (win.nu_minus + win.nu_plus)) is Uniqueness.MULTIPLE
    print(
        f"CRITERION 3: PASS - endpoints ({win.nu_minus:.4f}, {win.nu_plus:.4f}) "
        f"vs scan ({scan_lo:.4f}, {scan_hi:.4f})"
    )


def test_criterion_04_three_classifiers_agree():
    """Closed form, derivative at the fixed point, and iteration never differ."""
    rng = random.Random(41)
    counts = {Uniqueness.UNIQUE: 0, Uniqueness.MULTIPLE: 0}
    disagreements = []
    for _ in range(500):
        q = rng.randint(2, 12)
        cap = rng.randint(2, 4)
        if rng.random() < 0.5:
            w = poisson_weights(rng.uniform(0.2, 10.0), cap)
        else:
            w = geometric_weights(rng.uniform(0.2, 3.0), cap)
        win = phase_window(q, cap, w)
        while True:
            nu = 10.0 ** rng.uniform(-1.0, 3.0)
            if not win.present:
                break
            if all(abs(nu - e) > 1e-4 * e for e in (win.nu_minus, win.nu_plus)):
                break

        p1 = PhaseParams(q=q, cap=cap, edge_weights=w, nu=nu)
        kind_closed = classify_closed_form(p1).kind
        slope = ratio_map_derivative(p1, fixed_point(p1))
        kind_slope = Uniqueness.UNIQUE if abs(slope) <= 1.0 else Uniqueness.MULTIPLE
        pv = ModelParams(
            q=q, cap=cap, cv=1, ce=cap,
            node_weights=poisson_weights(nu, 1), edge_weights=w,
        )
        kind_iter = classify_by_iteration(pv, tol=1e-12, sep=1e-8).kind
        if not (kind_closed is kind_slope is kind_iter):
            disagreements.append((q, cap, tuple(w.entries), nu,
                                  kind_closed, kind_slope, kind_iter))
        else:
            counts[kind_closed] += 1
    assert not disagreements, disagreements[:5]
    assert counts[Uniqueness.MULTIPLE] > 0  # the sample must exercise both phases
    print(
        f"CRITERION 4: PASS - 500 points, {counts[Uniqueness.UNIQUE]} unique / "
        f"{counts[Uniqueness.MULTIPLE]} multiple, no disagreement"
    )


def test_criterion_05_recursion_matches_enumeration():
    """Recursions reproduce brute-force enumeration on every small tree."""
    checked = skipped = 0
    for q in (2, 3):
        for m in (0, 1, 2):
            t_root = rooted_tree(q, m)
            t_sph = spherical_tree(q, m + 1)
            t_edge = edge_centered_tree(q, m + 1)
            for cap in (1, 2, 3):
                for cv in range(1, cap + 1):
                    for ce in range(cap + 1):
                        for nu in (0.5, 1.0, 2.0):
                            for lam in (0.5, 1.0):
                                p = ModelParams(
                                    q=q, cap=cap, cv=cv, ce=ce,
                                    node_weights=poisson_weights(nu, cv),
                                    edge_weights=poisson_weights(lam, ce),
                                )
                                st = rooted_state(p, m)
                                try:
                                    z = exact_partition(p, t_root, root=0)
                                except TreeTooLargeError:
                                    skipped += 1
                                else:
                                    z0 = math.exp(st.log_z0)
                                    assert _close(z[0], z0, 1e-9)
                                    for k in range(1, cv + 1):
                                        assert _close(z[k], z0 * st.xi[k - 1], 1e-9)
                                    checked += 1
                                try:
                                    dist = occupancy_distribution(p, t_sph, 0)
                                    beta = exact_blocking(p, t_sph, target=0)
                                except TreeTooLargeError:
                                    skipped += 2
                                else:
                                    law = center_occupancy(p, m + 1)
                                    assert len(law) == len(dist)
                                    for a, b in zip(law, dist):
                                        assert _close(a, b, 1e-9)
                                    checked += 1
                                    assert _close(
                                        multicast_blocking(p, m + 1), beta, 1e-9
                                    )
                                    checked += 1
                                try:
                                    beta_e = exact_blocking(p, t_edge, target=(0, 1))
                                except TreeTooLargeError:
                                    skipped += 1
                                else:
                                    assert _close(
                                        unicast_blocking(p, m + 1), beta_e, 1e-9
                                    )
                                    checked += 1
    # frozen coverage count: guards must only skip what is genuinely too large
    assert checked == 1632, (checked, skipped)
    print(f"CRITERION 5: PASS - {checked} comparisons at rel 1e-9 ({skipped} over guard)")


def test_criterion_06_conjugacy():
    """The interaction-form map is the ratio map in changed coordinates."""
    rng = random.Random(6)
    worst = 0.0
    for _ in range(100):
        cv = rng.choice((1, 2, 3))
        cap = rng.randint(cv, 4)
        ce = rng.randint(0, cap)
        q = rng.randint(1, 8)
        node = poisson_weights(10.0 ** rng.uniform(-1.0, 2.0), cv)
        if rng.random() < 0.5:
            edge = poisson_weights(rng.uniform(0.2, 3.0), ce)
        else:
            edge = geometric_weights(rng.uniform(0.2, 2.0), ce)
        p = ModelParams(q=q, cap=cap, cv=cv, ce=ce, node_weights=node, edge_weights=edge)
        psi = (1.0,) + tuple(10.0 ** rng.uniform(-2.0, 1.0) for _ in range(cv))
        to_ratio, from_ratio = conjugate_maps(p)
        lhs = interaction_map(p, psi)
        rhs = from_ratio(random_field_map(p, to_ratio(psi)))
        gap = max(abs(a - b) for a, b in zip(lhs, rhs))
        bound = 1e-10 * (1.0 + max(abs(v) for v in lhs))
        assert gap <= bound, (p, psi, gap, bound)
        worst = max(worst, gap)
    print(f"CRITERION 6: PASS - 100 instances, worst conjugacy gap {worst:.3e}")


def test_criterion_07_simulation_matches_oracle():
    """Event-driven simulation agrees with the exact law, and holding-time
    distributions matter only through their means."""
    p = ModelParams(
        q=2, cap=2, cv=1, ce=2,
        node_weights=poisson_weights(1.0, 1),
        edge_weights=poisson_weights(1.0, 2),
    )
    t = spherical_tree(2, 1)
    refs = {
        "node_beta": float(exact_blocking(p, t, target=0)),
        "edge_beta": float(exact_blocking(p, t, target=(0, 1))),
        "occupancy": [float(x) for x in occupancy_distribution(p, t, 0)],
    }
    base = SimConfig(
        params=p, tree=TreeSpec("spherical", 1),
        horizon_time=2000.0, replications=24, seed=2024,
    )
    stats = sim_run(base)
    assert stats.post_warmup_events >= 10**5
    report = compare(stats, refs)
    assert report.passed, [e for e in report.entries if not e.ok]

    det = sim_run(
        SimConfig(
            params=p, tree=TreeSpec("spherical", 1), duration_mode="deterministic",
            horizon_time=2000.0, replications=24, seed=77,
        )
    )
    cross = compare_runs(stats, det)
    assert cross.passed, [e for e in cross.entries if not e.ok]
    worst = max(abs(e.z) for e in report.entries + cross.entries)
    print(
        f"CRITERION 7: PASS - {stats.post_warmup_events} events, worst |z| {worst:.2f}"
    )


def _random_log_concave(rng, top):
    """Decreasing successive ratios make the sequence log-concave, exactly."""
    ratios = sorted(
        (Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(top)),
        reverse=True,
    )
    entries = [Fraction(1)]
    for r in ratios:
        entries.append(entries[-1] * r)
    return WeightVector(tuple(entries))


def test_criterion_08_monotonicity():
    """Window condition monotone in degree and rate; lower endpoint monotone
    in the rate just past the threshold."""
    rng = random.Random(88)

    found = 0
    for _ in range(100_000):
        if found == 200:
            break
        q = rng.randint(2, 60)
        cap = rng.randint(2, 4)
        pick = rng.random()
        if pick < 0.4:
            w = poisson_weights(Fraction(rng.randint(1, 4000), 100), cap)
        elif pick < 0.7:
            w = geometric_weights(Fraction(rng.randint(1, 400), 100), cap)
        else:
            w = _random_log_concave(rng, cap)
        if condition_a(q, cap, w):
            assert condition_a(q + 1, cap, w), (q, cap, w.entries)
            found += 1
    assert found == 200
    print("CRITERION 8a: ok - degree step preserved the condition on 200 instances")

    found = 0
    for _ in range(100_000):
        if found == 200:
            break
        q = rng.randint(2, 60)
        cap = rng.randint(2, 5)
        lam = Fraction(rng.randint(1, 3000), 100)
        if poisson_window_statistic(q, cap, lam) > 0:
            bigger = lam + Fraction(rng.randint(1, 2000), 100)
            assert poisson_window_statistic(q, cap, bigger) > 0, (q, cap, lam, bigger)
            found += 1
    assert found == 200
    print("CRITERION 8b: ok - positive statistic stayed positive on 200 rate increases")

    lams = [6.005 + 0.005 * k for k in range(20)]
    vals = [phase_window(6, 2, poisson_weights(lam, 2)).nu_minus for lam in lams]
    rises = [
        (lams[i], lams[i + 1], vals[i], vals[i + 1])
        for i in range(len(vals) - 1)
        if not vals[i + 1] < vals[i]
    ]
    if rises:
        l1, l2, v1, v2 = rises[0]
        pytest.fail(
            "CRITERION 8: FAIL - lower window endpoint is not strictly decreasing "
            f"on rates [6.005, 6.10]: it rises from {v1:.1f} at rate {l1:.3f} to "
            f"{v2:.1f} at rate {l2:.3f} (interior minimum near rate 6.0353; "
            f"endpoint runs {vals[0]:.1f} -> {min(vals):.1f} -> {vals[-1]:.1f})"
        )
    print("CRITERION 8: PASS - all three monotonicity properties hold")


def test_criterion_09_two_cap_window_probe():
    """With two multicast slots per node a multiplicity window still appears."""
    hit = None
    for nu in (20.0, 30.0, 35.0, 40.0, 50.0):
        p = ModelParams(
            q=10, cap=2, cv=2, ce=2,
            node_weights=poisson_weights(nu, 2),
            edge_weights=poisson_weights(0.72, 2),
        )
        v = classify_by_iteration(p)
        if v.kind is Uniqueness.MULTIPLE:
            gap = max(abs(a - b) for a, b in zip(v.even_limit, v.odd_limit))
            if gap > 1e-8:
                hit = (nu, gap, v.iterations)
                break
    assert hit is not None
    nu, gap, iters = hit
    print(
        f"CRITERION 9: PASS - two-cycle at load {nu} (separation {gap:.3e}, "
        f"{iters} iterations)"
    )


def test_criterion_10_schwarzian_and_sandwich():
    """The scalar map has negative Schwarzian everywhere we look, and parity
    iterates keep their sandwich ordering across a fresh classify sweep."""
    rng = random.Random(1010)
    worst = -math.inf
    for _ in range(1000):
        q = rng.randint(2, 20)
        cap = rng.randint(2, 5)
        if rng.random() < 0.5:
            w = poisson_weights(rng.uniform(0.1, 8.0), cap)
        else:
            w = geometric_weights(rng.uniform(0.1, 3.0), cap)
        nu = 10.0 ** rng.uniform(-2.0, 3.0)
        p = PhaseParams(q=q, cap=cap, edge_weights=w, nu=nu)
        x = nu * rng.uniform(0.001, 1.5)
        s = schwarzian(p, x)
        assert s < 0.0, (q, cap, tuple(w.entries), nu, x, s)
        worst = max(worst, s)

    # the sandwich ordering is asserted inside every iteration run; a breach
    # raises RuntimeError, so a clean sweep is the whole check
    win = phase_window(10, 2, poisson_weights(0.75, 2))
    nus = [2.0 + 148.0 * k / 49 for k in range(50)]
    nus += [win.nu_minus * (1 + s) for s in (-1e-3, 1e-3)]
    nus += [win.nu_plus * (1 + s) for s in (-1e-3, 1e-3)]
    kinds = set()
    for nu in sorted(nus):
        kinds.add(_iteration_kind(nu, max_iter=200_000))
    assert Uniqueness.UNIQUE in kinds and Uniqueness.MULTIPLE in kinds
    print(
        f"CRITERION 10: PASS - 1000 negative-Schwarzian samples (max {worst:.3e}), "
        f"sandwich held on {len(nus)} classify runs"
    )
