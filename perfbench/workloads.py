"""The benchmark workloads: inputs drawn from a seed, the commands that run
them, and the correctness gate that counts failed operations.

A *part* is one fresh interpreter running one fixed input set: the README
curve (``curve-cv1``), the fine rate sweep (``sweep-fine``), the criterion-5
cross-check (``exact-check``) and the README simulation (``sim-check``). A
workload runs two parts one after the other, and that pair is its *unit*:
``curve-exact`` pairs the costly, uneven grid points with the exact
enumeration, ``sweep-sim`` the many cheap rows with the simulated arrivals.
Each of rfmap, phase1d, oracle and simulate is thus worked hard by one
workload and bypassed, or nearly so, by the other. ``run.py`` repeats the unit for the run's duration.

Gate vocabulary, shared by all workloads:

* ``attempted`` -- operations the unit was asked for;
* ``failed``    -- operations without an accepted answer: inconclusive
  verdicts, guard refusals, estimates beyond 6 standard errors and
  mismatches;
* ``mismatched`` -- the subset of ``failed`` where the program returned a
  wrong answer. A run is ``correct`` only when nothing mismatched.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

# Worker processes handed to --jobs: two, never more than the cores.
JOBS = max(1, min(2, os.cpu_count() or 1))

CLI = ["-m", "treeloss"]


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    reasons: dict = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1, mismatch: bool = False):
        self.failed += count
        if mismatch:
            self.mismatched += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def add(self, other: "Gate"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatched += other.mismatched
        for k, v in other.reasons.items():
            self.reasons[k] = self.reasons.get(k, 0) + v


class Workload:
    """Defaults shared by the parts: a cli process without stdin or reference."""

    kind = "cli"
    jobs = 1

    def stdin(self, inp: dict):
        return None

    def reference(self, inp: dict):
        return None


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def _grid(lo: float, hi: float, step: float) -> list:
    # the CLI's own grid rule, so the gate knows which rows to expect
    count = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(count)]


def _csv_rows(out: bytes) -> list:
    lines = out.decode().splitlines()
    return [ln.split(",") for ln in lines if not ln.startswith("#")][1:]


def _float(cell: str):
    return float(cell) if cell else None


# ---------------------------------------------------------------- curve-cv1

CURVE_LAM = 0.75
CURVE_MAX_ITER = 100_000


class CurveCv1(Workload):
    """The README grid 1, 1.5, ..., 150, the same for every seed.

    Six of its points never settle and use up the step budget: 26.5 below
    the lower window endpoint (26.771) and 91 to 93 above the upper one
    (90.726); the pool's chunking puts the last five in one task chunk. The
    budget is a tenth of the README's 10**6, so that the part takes about
    four seconds, not half a minute, and a run holds several: the same six
    exhaust it, no decided point needs more than 43,935 steps,
    and the chunk with five of them still holds over half of the work, so
    one pool worker carries the critical path. Which points near an endpoint
    never settle depends on rounding, not on distance (92.98 and 93.02 do,
    92.9957 does not), so a seeded shift of the grid would change the cost
    by a sixth.
    """

    name = "curve-cv1"
    jobs = JOBS
    why = ("the README blocking curve: rfmap iteration does the work, and six "
           "points beside the window endpoints exhaust the budget unevenly across the pool")

    def inputs(self, seed: int) -> dict:
        return {"nu_min": 1.0, "nu_max": 150.0, "nu_step": 0.5}

    def argv(self, inp: dict, jobs: int) -> list:
        return CLI + [
            "blocking-curve", "--q", "10", "--cap", "2", "--weights", "poisson",
            "--lam", repr(CURVE_LAM), "--nu-min", repr(inp["nu_min"]),
            "--nu-max", repr(inp["nu_max"]), "--nu-step", repr(inp["nu_step"]),
            "--max-iter", str(CURVE_MAX_ITER), "--jobs", str(jobs),
        ]

    def reference(self, inp: dict):
        from treeloss import phase_window, poisson_weights

        win = phase_window(10, 2, poisson_weights(CURVE_LAM, 2))
        return win.nu_minus, win.nu_plus

    def check(self, inp: dict, ref, out: bytes) -> Gate:
        nus = _grid(inp["nu_min"], inp["nu_max"], inp["nu_step"])
        gate = Gate(attempted=len(nus))
        rows = _csv_rows(out)
        if len(rows) != len(nus):
            gate.fail("rows missing or extra", len(nus), mismatch=True)
            return gate
        lo, hi = ref
        for nu, row in zip(nus, rows):
            verdict = row[1]
            expect = "multiple" if lo < nu < hi else "unique"
            if float(row[0]) != nu:
                gate.fail("wrong nu", mismatch=True)
            elif verdict == "inconclusive":
                gate.fail("inconclusive")
            elif verdict != expect:
                gate.fail("verdict disagrees with phase_window", mismatch=True)
        return gate


# ---------------------------------------------------------------- sweep-fine

SWEEP_STEP = 1e-5


class SweepFine(Workload):
    name = "sweep-fine"
    jobs = JOBS
    why = ("11k-row rate scan across the q=6 threshold at 6; phase1d and cli "
           "row emission do the work, rfmap is bypassed, many cheap pool tasks")

    def inputs(self, seed: int) -> dict:
        shift = _rng(self.name, seed).uniform(0.0, SWEEP_STEP)
        return {"lam_min": 5.99 + shift, "lam_max": 6.10 + shift,
                "lam_step": SWEEP_STEP}

    def argv(self, inp: dict, jobs: int) -> list:
        return CLI + [
            "sweep-region", "--q", "6", "--cap", "2", "--weights", "poisson",
            "--lam-min", repr(inp["lam_min"]), "--lam-max", repr(inp["lam_max"]),
            "--lam-step", repr(inp["lam_step"]), "--jobs", str(jobs),
        ]

    def reference(self, inp: dict):
        from treeloss import phase_window, poisson_weights

        out = []
        for lam in _grid(inp["lam_min"], inp["lam_max"], inp["lam_step"]):
            win = phase_window(6, 2, poisson_weights(lam, 2))
            out.append((lam, win.present, win.nu_minus, win.nu_plus))
        return out

    def check(self, inp: dict, ref, out: bytes) -> Gate:
        gate = Gate(attempted=len(ref))
        rows = _csv_rows(out)
        if len(rows) != len(ref):
            gate.fail("rows missing or extra", len(ref), mismatch=True)
            return gate
        for (lam, present, lo, hi), row in zip(ref, rows):
            got = (float(row[0]), row[1] == "true", _float(row[2]), _float(row[3]))
            if got != (lam, present, lo, hi):
                gate.fail("row differs from phase_window", mismatch=True)
        return gate


# ---------------------------------------------------------------- exact-check

# Raw assignment counts (cv+1)**nodes * (ce+1)**edges of the criterion-5
# grid. The part keeps the 189 combinations up to EXACT_MAX_RAW -- both sides
# of the 10**5 line where the oracle switches engines -- and the 147 above
# REFUSE_RAW, which the enumeration guard refuses. The 24 between cost
# 0.2-24 s each and are left out to fit the part into a few seconds.
EXACT_MAX_RAW = 2 * 10**6
REFUSE_RAW = 10**8
RATE_PAIRS = 2  # first call tallies, the second only folds
OPS = {"rooted": 1, "spherical": 2, "edge": 1}


def _tree_size(q: int, m: int, tree: str) -> tuple:
    """(nodes, edges) of the criterion-5 trees; counted, not built."""
    sub = sum(q**k for k in range(m + 1))  # rooted tree of height m
    nodes = {"rooted": sub, "spherical": 1 + (q + 1) * sub, "edge": 2 + 2 * q * sub}[tree]
    return nodes, nodes - 1


def raw_size(case: dict) -> int:
    n, e = _tree_size(case["q"], case["m"], case["tree"])
    return (case["cv"] + 1) ** n * (case["ce"] + 1) ** e


def exact_cases(seed: int) -> list:
    rng = _rng("exact-check", seed)
    cases = []
    for q in (2, 3):
        for m in (0, 1, 2):
            for tree in ("rooted", "spherical", "edge"):
                for cap in (1, 2, 3):
                    for cv in range(1, cap + 1):
                        for ce in range(cap + 1):
                            c = {"q": q, "m": m, "tree": tree, "cap": cap, "cv": cv, "ce": ce}
                            raw = raw_size(c)
                            if EXACT_MAX_RAW < raw <= REFUSE_RAW:
                                continue
                            for _ in range(RATE_PAIRS):
                                cases.append(dict(c, nu=rng.uniform(0.5, 2.0),
                                                  lam=rng.uniform(0.5, 1.0)))
    return cases


class ExactCheck(Workload):
    name = "exact-check"
    kind = "lib"
    why = ("criterion-5 recursion-vs-enumeration pattern through the library, "
           "trees on both sides of 1e5 raw assignments plus guard refusals")

    def inputs(self, seed: int) -> dict:
        return {"cases": exact_cases(seed)}

    def argv(self, inp: dict, jobs: int) -> list:
        return [os.path.join(os.path.dirname(os.path.abspath(__file__)), "libunit.py")]

    def stdin(self, inp: dict) -> bytes:
        return json.dumps(inp["cases"]).encode()

    def check(self, inp: dict, ref, out: bytes) -> Gate:
        cases = inp["cases"]
        gate = Gate(attempted=sum(OPS[c["tree"]] for c in cases))
        results = json.loads(out)
        if len(results) != len(cases):
            gate.fail("results missing or extra", gate.attempted, mismatch=True)
            return gate
        for case, res in zip(cases, results):
            if res.get("refused"):
                gate.fail("TreeTooLargeError", OPS[case["tree"]])
                continue
            for _, exact, recursion in res["ops"]:
                if len(exact) != len(recursion) or not all(
                    math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0)
                    for a, b in zip(exact, recursion)
                ):
                    gate.fail("recursion differs from enumeration", mismatch=True)
        return gate


# ---------------------------------------------------------------- sim-check

SIM_MODEL = ["--q", "2", "--cap", "2", "--weights", "poisson", "--lam", "1",
             "--nu", "1", "--radius", "1"]
Z_FAIL = 3.0    # the compare rule: a quantity beyond 3 standard errors fails
Z_WRONG = 6.0   # beyond 6 is not chance (p < 2e-9): the output is wrong


class SimCheck(Workload):
    name = "sim-check"
    why = ("README simulation, 24 replications on the radius-1 ball, z-scored "
           "against enumerate; the event loop in simulate does the work")

    def inputs(self, seed: int) -> dict:
        return {"sim_seed": _rng(self.name, seed).randrange(2**31)}

    def argv(self, inp: dict, jobs: int) -> list:
        return CLI + ["simulate"] + SIM_MODEL + [
            "--horizon", "2000", "--reps", "24", "--seed", str(inp["sim_seed"])]

    def reference(self, inp: dict):
        from treeloss import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["enumerate"] + SIM_MODEL)
        if code != 0:
            raise RuntimeError(f"treeloss enumerate exited {code}")
        return json.loads(buf.getvalue())

    def check(self, inp: dict, ref, out: bytes) -> Gate:
        sim = json.loads(out)
        gate = Gate(attempted=max(1, int(sim.get("post_warmup_events", 0))))
        pairs = [
            (sim["node_beta"], ref["node_blocking"], sim["node_beta_se"]),
            (sim["edge_beta"], ref["edge_blocking"], sim["edge_beta_se"]),
        ] + list(zip(sim["occupancy"], ref["occupancy"], sim["occupancy_se"]))
        zs = [_z(est, exact, se) for est, exact, se in pairs]
        worst = max(abs(z) for z in zs)
        if worst > Z_WRONG:
            gate.fail("estimate beyond 6 standard errors", gate.attempted, mismatch=True)
        elif sum(abs(z) <= Z_FAIL for z in zs) < 0.95 * len(zs):
            # A correct simulator misses the rule by chance on about one seed
            # in 70: the miss is reported, but fails no op.
            gate.fail("compare rule: |z| > 3, by chance", count=0)
        return gate


def _z(est, exact, se) -> float:
    if est is None or se is None:
        return math.inf
    if est == exact:
        return 0.0
    return (est - exact) / se if se > 0 else math.inf


class Composite:
    """A workload: its parts run one after another, each in a fresh interpreter."""

    def __init__(self, name: str, why: str, parts: list):
        self.name, self.why, self.parts = name, why, parts
        self.jobs = max(p.jobs for p in parts)

    def inputs(self, seed: int) -> list:
        return [p.inputs(seed) for p in self.parts]

    def reference(self, inp: list) -> list:
        return [p.reference(i) for p, i in zip(self.parts, inp)]


PARTS = {p.name: p for p in (CurveCv1(), ExactCheck(), SweepFine(), SimCheck())}
WORKLOADS = {w.name: w for w in (
    Composite("curve-exact",
              "costly uneven items: rfmap iteration on the README curve across the pool, "
              "then the oracle's exact enumeration; phase1d and simulate are bypassed",
              [PARTS["curve-cv1"], PARTS["exact-check"]]),
    Composite("sweep-sim",
              "many cheap items: 11k phase1d rows through the pool, then 24 simulated "
              "replications; rfmap is bypassed and the oracle nearly so",
              [PARTS["sweep-fine"], PARTS["sim-check"]]),
)}
