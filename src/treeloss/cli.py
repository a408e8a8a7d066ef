"""Command-line front end.

Subcommands: classify, window, blocking-curve, sweep-region, simulate,
enumerate, selftest. Output is CSV (grid commands) or JSON (single-shot
commands), written to --out or stdout, and byte-stable for identical inputs
apart from the versioned header line.

Exit codes: 0 success, 1 selftest failure, 2 usage/validation error,
3 model-assumption failure.

A command imports the model modules it calls (phase1d, treecalc, oracle,
simulate) when it runs, so each process loads only what its command uses.
The library makes the decisions a Python caller needs too: ``phase_window``
refuses a window its floats cannot carry, ``_num.map_tasks`` caps every
``--jobs`` pool at the usable CPUs, and ``SimConfig`` refuses a run by its
tree size and expected arrivals. This module parses and checks the flags,
calls the library and emits its results.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from bisect import bisect_left
from dataclasses import fields
from fractions import Fraction

from . import __version__
from ._num import _usable_cpus, check_int, map_tasks
from .rfmap import (
    ModelParams, Uniqueness, classify_by_iteration, conjugate_maps, interaction_map,
    random_field_map,
)
from .rfmap import _check_finite_sums, _check_iteration
from .weights import (
    AssumptionViolation, WeightVector, geometric_weights, load_weight_file, poisson_weights,
)

__all__ = ["main"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _edge_family(family: str, lam, ce: int) -> WeightVector:
    if family.startswith("file:"):
        return load_weight_file(family[5:])
    if ce == 0:
        return WeightVector((1,))
    if lam is None:
        raise ValueError("--lam is required for poisson/geometric weights when ce >= 1")
    if family == "poisson":
        return poisson_weights(lam, ce)
    if family == "geometric":
        return geometric_weights(lam, ce)
    raise ValueError(f"unknown weights family {family!r}")


def _edge_cap(args) -> int:
    """``--ce`` (default ``--cap``), after checking ``--cap``, ``--cv`` and ``--ce``
    under their flag names, so no weight vector is built from a bad count."""
    check_int("--cap", args.cap, 1)
    check_int("--cv", args.cv, 1, args.cap)
    return args.cap if args.ce is None else check_int("--ce", args.ce, 0, args.cap)


def _model_params(args) -> ModelParams:
    ce = _edge_cap(args)
    edge = _edge_family(args.weights, args.lam, ce)
    node = poisson_weights(args.nu, args.cv)
    return ModelParams(args.q, args.cap, args.cv, ce, node, edge)


# Largest grid a command builds; the biggest grid in use has about 11k rows.
_MAX_GRID_ROWS = 10**6


def _grid(lo: float, hi: float, step: float, what: str) -> list:
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)):
        raise ValueError(f"{what} range must be finite")
    if step <= 0 or hi < lo:
        raise ValueError(f"need {what}-min <= {what}-max and {what}-step > 0")
    rows = (hi - lo) / step + 1e-9
    if rows >= _MAX_GRID_ROWS:
        raise ValueError(
            f"{what} grid of about {rows:.3g} rows exceeds the limit of {_MAX_GRID_ROWS}"
        )
    count = int(math.floor(rows)) + 1
    return [lo + k * step for k in range(count)]


def _emit(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> int:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def _emit_csv(args, command: str, header: str, rows: list) -> int:
    lines = [f"# treeloss {__version__} {command}", header]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _jsonable(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    if isinstance(x, tuple):
        return [_jsonable(v) for v in x]
    return x


# ---------------------------------------------------------------- commands


def _cmd_classify(args) -> int:
    p = _model_params(args)
    verdict = classify_by_iteration(p, tol=args.tol, sep=args.sep, max_iter=args.max_iter)
    payload = {f.name: _jsonable(getattr(verdict, f.name)) for f in fields(verdict)}
    payload["kind"] = verdict.kind.value
    return _emit_json(args, payload)


def _window_payload(q: int, cap: int, edge: WeightVector) -> dict:
    from .phase1d import phase_window

    win = phase_window(q, cap, edge)
    payload = {
        "condition_a": win.present,
        "boundary": win.boundary,
        "window": None,
        "alphas": None,
    }
    if win.present:
        payload["window"] = {"nu_minus": win.nu_minus, "nu_plus": win.nu_plus}
        payload["alphas"] = {"alpha_minus": win.alpha_minus, "alpha_plus": win.alpha_plus}
    return payload


def _cmd_window(args) -> int:
    check_int("--cap", args.cap, 2)  # phase_window's rule, under the flag's name
    ce = args.cap if args.ce is None else args.ce
    if args.cv != 1 or ce != args.cap:
        raise ValueError(
            "window has a closed form only for cv = 1 and ce = cap; "
            f"got cv = {args.cv}, ce = {ce}, cap = {args.cap}"
        )
    edge = _edge_family(args.weights, args.lam, args.cap)
    return _emit_json(args, _window_payload(args.q, args.cap, edge))


def _cmd_blocking_curve(args) -> int:
    from .treecalc import _multicast_blocking_at

    ce = _edge_cap(args)
    edge = _edge_family(args.weights, args.lam, ce)  # built once, before any output
    nus = _grid(args.nu_min, args.nu_max, args.nu_step, "nu")

    def model(nu) -> ModelParams:
        p = ModelParams(args.q, args.cap, args.cv, ce, poisson_weights(nu, args.cv), edge)
        _check_finite_sums(p)
        return p

    def fails(nu) -> bool:
        try:
            model(nu)
        except ValueError:
            return True
        return False

    # Refuse before any worker forks, with the serial rows' error: row 0 and
    # the flags first (row 0 also meets an inf edge sum S(ce), which no nu
    # changes). A later row fails only when its node weights or T_1 overflow,
    # and both grow with nu, so the failing rows end the grid.
    model(nus[0])
    _check_iteration(args.tol, args.sep, args.max_iter)
    if fails(nus[-1]):
        model(nus[bisect_left(nus, True, key=fails)])

    def row(nu) -> tuple:
        # nu classified on its model p, blocking at each parity's limit
        p = model(nu)
        verdict = classify_by_iteration(p, tol=args.tol, sep=args.sep, max_iter=args.max_iter)
        if verdict.kind is Uniqueness.UNIQUE:
            xi_even = xi_odd = verdict.fixed_point
        else:
            xi_even, xi_odd = verdict.even_limit, verdict.odd_limit
        return (
            nu,
            verdict.kind.value,
            _multicast_blocking_at(p, xi_even),
            _multicast_blocking_at(p, xi_odd),
            ";".join(_fmt(x) for x in xi_even),
            ";".join(_fmt(x) for x in xi_odd),
        )

    rows = map_tasks(row, nus, _workers(args))
    return _emit_csv(
        args, "blocking-curve", "nu,unique,beta_even,beta_odd,xi_even,xi_odd", rows
    )


def _cmd_sweep_region(args) -> int:
    from .phase1d import phase_window

    if args.weights.startswith("file:"):
        raise ValueError("sweep-region scans the rate; fixed file weights make no sense here")
    q, cap, family = args.q, args.cap, args.weights
    check_int("--cap", cap, 2)  # phase_window's rule, before a weight vector is built
    lams = _grid(args.lam_min, args.lam_max, args.lam_step, "lam")

    def row(lam) -> tuple:
        # an absent window's endpoints are None, which _fmt prints as empty cells
        win = phase_window(q, cap, _edge_family(family, lam, cap))
        return (lam, win.present, win.nu_minus, win.nu_plus)

    # Before any worker forks, row 0 catches bad flags and families, which fail
    # on every row, and the last row an overflow at the grid's top end; one met
    # only inside the grid comes back from map_tasks as the serial loop's error.
    row(lams[0])
    row(lams[-1])
    rows = map_tasks(row, lams, _workers(args))
    return _emit_csv(args, "sweep-region", "lambda,condition_a,nu_minus,nu_plus", rows)


def _tree_spec(args):
    from .oracle import TreeSpec

    if (args.height is None) == (args.radius is None):
        raise ValueError("give exactly one of --height (rooted) or --radius (spherical)")
    if args.height is not None:
        return TreeSpec("rooted", args.height)
    return TreeSpec("spherical", args.radius)


def _cmd_enumerate(args) -> int:
    from . import oracle

    p = _model_params(args)
    spec = _tree_spec(args)
    oracle._check_spec_size(p, spec)
    tree = oracle.build_tree(spec, p.q)
    z = oracle.exact_partition(p, tree, 0)
    occ = oracle.occupancy_distribution(p, tree, 0)
    payload = {
        "tree": {"kind": spec.kind, "size": spec.size,
                 "nodes": len(tree.nodes), "edges": len(tree.edges)},
        "partition": [float(v) for v in z],
        "occupancy": [float(v) for v in occ],
        "node_blocking": float(oracle.exact_blocking(p, tree, 0)),
        "edge_blocking": (
            float(oracle.exact_blocking(p, tree, tree.edges[0])) if tree.edges else None
        ),
    }
    return _emit_json(args, payload)


def _workers(args) -> int:
    """``--jobs``, an int >= 1, or all the usable CPUs when the flag is unset;
    ``map_tasks`` caps it at them, and the output is the same for any count."""
    return _usable_cpus() if args.jobs is None else check_int("--jobs", args.jobs, 1)


def _cmd_simulate(args) -> int:
    from . import simulate

    jobs = _workers(args)
    p = _model_params(args)
    cfg = simulate.SimConfig(
        params=p,
        tree=_tree_spec(args),
        duration_mode=args.durations,
        warmup_time=args.warmup,
        horizon_time=args.horizon,
        replications=args.reps,
        seed=args.seed,
    )
    stats = simulate.run(cfg, jobs)
    return _emit_json(args, {f.name: _jsonable(getattr(stats, f.name)) for f in fields(stats)})


# ---------------------------------------------------------------- selftest


def _selftest_checks():
    """Yield (name, ok, detail) triples."""
    from . import oracle
    from .phase1d import condition_a, condition_a_margin, phase_window
    from .treecalc import multicast_blocking, rooted_state, unicast_blocking

    # recursion vs enumeration on a small grid
    worst = (0.0, "")
    ok = True
    for q, m in ((2, 0), (2, 1), (2, 2), (3, 1)):
        for lam_rate in (0.5, 1.0):
            p = ModelParams(q, 2, 1, 2, poisson_weights(1.0, 1), poisson_weights(lam_rate, 2))
            st = rooted_state(p, m)
            z0 = math.exp(st.log_z0)
            zt = (z0,) + tuple(z0 * x for x in st.xi)
            zo = oracle.exact_partition(p, oracle.rooted_tree(q, m), 0)
            for a, b in zip(zt, zo):
                rel = abs(a - b) / max(1.0, abs(b))
                if rel > worst[0]:
                    worst = (rel, f"q={q} m={m} lam={lam_rate}")
                if rel > 1e-9:
                    ok = False
    yield "recursion-vs-enumeration", ok, f"worst rel {worst[0]:.3g} at {worst[1]}"

    # blocking formulas vs enumeration
    ok = True
    detail = ""
    for q in (2, 3):
        p = ModelParams(q, 2, 1, 2, poisson_weights(1.0, 1), poisson_weights(1.0, 2))
        bt = multicast_blocking(p, 1)
        bo = float(oracle.exact_blocking(p, oracle.spherical_tree(q, 1), 0))
        ut = unicast_blocking(p, 1)
        uo = float(oracle.exact_blocking(p, oracle.edge_centered_tree(q, 1), (0, 1)))
        if abs(bt - bo) > 1e-9 or abs(ut - uo) > 1e-9:
            ok = False
            detail = f"q={q}: node {bt} vs {bo}, edge {ut} vs {uo}"
    yield "blocking-vs-enumeration", ok, detail or "node and edge targets agree"

    # conjugacy between the ratio recursion and the interaction recursion
    import random

    rng = random.Random(7)
    worst_gap = 0.0
    for _ in range(25):
        q = rng.randint(2, 8)
        cap = rng.randint(2, 4)
        cv = rng.randint(1, cap)
        ce = rng.randint(0, cap)
        node = poisson_weights(rng.uniform(0.2, 3.0), cv)
        edge = poisson_weights(rng.uniform(0.2, 3.0), ce) if ce else WeightVector((1,))
        p = ModelParams(q, cap, cv, ce, node, edge)
        to_ratio, from_ratio = conjugate_maps(p)
        psi = (1.0,) + tuple(rng.uniform(0.0, 2.0) for _ in range(cv))
        lhs = interaction_map(p, psi)
        rhs = from_ratio(random_field_map(p, to_ratio(psi)))
        gap = max(abs(a - b) / (1.0 + abs(b)) for a, b in zip(lhs, rhs))
        worst_gap = max(worst_gap, gap)
    yield "conjugacy", worst_gap <= 1e-10, f"worst rel gap {worst_gap:.3g}"

    # known phase boundaries
    checks = [
        ("threshold q=6 exact zero",
         condition_a_margin(6, 2, poisson_weights(Fraction(6), 2)) == 0),
        ("no window below", not condition_a(6, 2, poisson_weights(5.99, 2))),
        ("window above", condition_a(6, 2, poisson_weights(6.01, 2))),
        ("geometric window edges", not condition_a(14, 2, geometric_weights(Fraction(87, 100), 2))
         and condition_a(14, 2, geometric_weights(Fraction(88, 100), 2))),
    ]
    bad = [name for name, good in checks if not good]
    yield "phase-boundaries", not bad, ("failed: " + ", ".join(bad)) if bad else "4 boundary checks"

    win = phase_window(10, 2, poisson_weights(0.75, 2))
    ok = (
        win.present
        and abs(win.nu_minus - 26.770974722340239) <= 0.005 * win.nu_minus
        and abs(win.nu_plus - 90.726253564271425) <= 0.005 * win.nu_plus
    )
    detail = f"({win.nu_minus:.6g}, {win.nu_plus:.6g})" if win.present else "no window"
    yield "window-endpoints", ok, detail


def _cmd_selftest(args) -> int:
    t0 = time.monotonic()
    failures = 0
    print(f"treeloss {__version__} selftest")
    for name, ok, detail in _selftest_checks():
        status = "ok" if ok else "FAIL"
        print(f"  {name:<28} {status:<5} {detail}")
        if not ok:
            failures += 1
    print(f"{'PASS' if failures == 0 else 'FAIL'} in {time.monotonic() - t0:.1f}s")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------- parser


def _add_model_flags(sp, with_nu=True):
    sp.add_argument("--q", type=int, required=True, help="branching factor")
    sp.add_argument("--cap", type=int, required=True, help="per-edge budget C")
    sp.add_argument("--cv", type=int, default=1, help="per-node call cap (default 1)")
    sp.add_argument("--ce", type=int, default=None, help="per-edge call cap (default: cap)")
    sp.add_argument("--weights", default="poisson",
                    help="edge weight family: poisson | geometric | file:PATH")
    sp.add_argument("--lam", type=float, default=None, help="edge weight rate")
    if with_nu:
        sp.add_argument("--nu", type=float, required=True, help="node weight rate")


def _add_iter_flags(sp):
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--sep", type=float, default=1e-8)
    sp.add_argument("--max-iter", type=int, default=10**6)


def _add_out_flags(sp):
    sp.add_argument("--out", default=None, help="output path (default stdout)")


def _add_tree_flags(sp):
    sp.add_argument("--height", type=int, default=None, help="rooted tree height")
    sp.add_argument("--radius", type=int, default=None, help="spherical tree radius")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treeloss",
        description="Phase-transition analysis of a controlled loss network on a regular tree.",
    )
    ap.add_argument("--version", action="version", version=f"treeloss {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="iterate the occupancy-ratio recursion from zero")
    _add_model_flags(sp)
    _add_iter_flags(sp)
    _add_out_flags(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("window", help="closed-form multiplicity window in the node rate")
    _add_model_flags(sp, with_nu=False)
    _add_out_flags(sp)
    sp.set_defaults(fn=_cmd_window)

    sp = sub.add_parser("blocking-curve", help="blocking vs node rate along a grid")
    _add_model_flags(sp, with_nu=False)
    sp.add_argument("--nu-min", type=float, required=True)
    sp.add_argument("--nu-max", type=float, required=True)
    sp.add_argument("--nu-step", type=float, required=True)
    _add_iter_flags(sp)
    sp.add_argument("--jobs", type=int, default=1)
    _add_out_flags(sp)
    sp.set_defaults(fn=_cmd_blocking_curve)

    sp = sub.add_parser("sweep-region", help="window endpoints along an edge-rate grid")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--cap", type=int, required=True)
    sp.add_argument("--weights", default="poisson")
    sp.add_argument("--lam-min", type=float, required=True)
    sp.add_argument("--lam-max", type=float, required=True)
    sp.add_argument("--lam-step", type=float, required=True)
    sp.add_argument("--jobs", type=int, default=1)
    _add_out_flags(sp)
    sp.set_defaults(fn=_cmd_sweep_region)

    sp = sub.add_parser("enumerate", help="exact enumeration on a small finite tree")
    _add_model_flags(sp)
    _add_tree_flags(sp)
    _add_out_flags(sp)
    sp.set_defaults(fn=_cmd_enumerate)

    sp = sub.add_parser("simulate", help="event-driven simulation on a finite tree")
    _add_model_flags(sp)
    _add_tree_flags(sp)
    sp.add_argument("--durations", choices=("exponential", "deterministic"),
                    default="exponential")
    sp.add_argument("--warmup", type=float, default=None)
    sp.add_argument("--horizon", type=float, default=1000.0)
    sp.add_argument("--reps", type=int, default=8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--jobs", type=int, default=None,
                    help="worker processes for the replications, at most the CPUs "
                         "this process may use (default: all of them); the output "
                         "is the same for any N")
    _add_out_flags(sp)
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("selftest", help="fast internal consistency checks")
    sp.set_defaults(fn=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.fn(args)
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
