"""Span tracing from outside the program, and the per-layer metrics it yields.

Run as a script, it wraps the public functions of each treeloss module, runs
one entry point in this process, and writes the spans it kept in memory to a
JSON file when the entry point returns:

    python3 perfbench/tracer.py SPANS.json -m treeloss blocking-curve ...
    python3 perfbench/tracer.py SPANS.json perfbench/libunit.py < cases.json

A span is ``[name, start, end, parent, info]``: ``name`` is
``<module>.<function>``, times are ``time.perf_counter`` seconds, ``parent``
is the index of the enclosing span (-1 at top level) and ``info`` holds the
few facts the layer metrics need (iterations, raw sizes, errors).

Only module-level names are replaced, so calls the program makes through a
module global, an import of the name, or a default argument are seen, and
calls inside a function (the map step in ``classify_by_iteration``, the
oracle's tally engines) are part of their caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import runpy
import sys
import time

LAYERS = ("weights", "rfmap", "phase1d", "treecalc", "oracle", "simulate", "cli")
ORACLE_CALLS = ("oracle.exact_partition", "oracle.occupancy_distribution",
                "oracle.exact_blocking")
SMALL_RAW = 10**5  # raw assignment count where the oracle switches engines


def _classify_info(bound, result):
    if result is None:
        return {}
    return {"iterations": result.iterations, "max_iter": bound.arguments["max_iter"]}


def _oracle_info(bound, result):
    a = bound.arguments
    p, t = a["p"], a["t"]
    target = a.get("target", a.get("root", a.get("node")))
    lead = "root" if "target" not in a else ("edge" if isinstance(target, tuple) else "node")
    key = [len(t.nodes), hash(t.edges), p.cap, p.cv, p.ce, lead, repr(target)]
    raw = (p.cv + 1) ** len(t.nodes) * (p.ce + 1) ** len(t.edges)
    return {"key": key, "raw": raw}


def _simulate_info(bound, result):
    if result is None:
        return {}
    return {"arrivals": result.post_warmup_events,
            "replications": bound.arguments["cfg"].replications}


INFO = {
    "rfmap.classify_by_iteration": _classify_info,
    "oracle.exact_partition": _oracle_info,
    "oracle.occupancy_distribution": _oracle_info,
    "oracle.exact_blocking": _oracle_info,
    "simulate.run": _simulate_info,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        sig = inspect.signature(fn)
        info_of = INFO.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                info = {}
                if info_of is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = info_of(bound, result)
                if error is not None:
                    info["error"] = error
                span[4] = info or None

        return traced

    def install(self):
        """Replace every public function of every layer, wherever it is bound."""
        mods = [importlib.import_module(f"treeloss.{layer}") for layer in LAYERS]
        originals = {}
        for layer, mod in zip(LAYERS, mods):
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    originals[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        for name, mod in list(sys.modules.items()):
            if name != "treeloss" and not name.startswith("treeloss."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in originals:
                    setattr(mod, attr, originals[id(value)])
                elif inspect.isfunction(value) and value.__defaults__:
                    value.__defaults__ = tuple(
                        originals.get(id(d), d) for d in value.__defaults__)

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)


def main(argv: list) -> int:
    spans_path, entry = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        if entry[0] == "-m":
            sys.argv = [entry[1]] + entry[2:]
            runpy.run_module(entry[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = entry
            runpy.run_path(entry[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)
    return code


# ---------------------------------------------------------------- metrics


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans: list, i: int, prefixes) -> bool:
    """True when no enclosing span's name starts with one of ``prefixes``."""
    p = spans[i][3]
    while p >= 0:
        if spans[p][0].startswith(prefixes):
            return False
        p = spans[p][3]
    return True


def library_time(spans: list) -> float:
    """Time in top-level spans that is not the cli's own."""
    own = self_times(spans)
    top = sum(s[2] - s[1] for s in spans if s[3] < 0)
    return top - sum(t for s, t in zip(spans, own) if s[0].startswith("cli."))


def layer_metrics(spans: list, *, traced_wall: float, untraced_wall: float,
                  parallel_wall: float, setup: float, jobs: int, cli_rows: int,
                  cli_bytes: int, pool_spans: list) -> tuple:
    """(metrics, absent): per-layer numbers, and why any of them is empty.

    ``cli.parallel_eff`` is computed over ``pool_spans``, the traced serial
    run of what ran with ``jobs`` workers in ``parallel_wall``.
    """
    own = self_times(spans)
    layer_self = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    for s, t in zip(spans, own):
        layer = s[0].split(".", 1)[0]
        layer_self[layer] += t
        calls[layer] += 1

    def by(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def info(i):
        return spans[i][4] or {}

    def dur(i):
        return spans[i][2] - spans[i][1]

    m: dict = {}
    absent: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        if calls[layer] == 0:
            absent[f"{layer}.*"] = "no call into this layer on this workload"
    m["weights.calls"] = calls["weights"]

    cl = by("rfmap.classify_by_iteration")
    steps = sum(info(i).get("iterations", 0) for i in cl)
    ex = [i for i in cl if info(i).get("iterations", 0) >= info(i).get("max_iter", 1)]
    m["rfmap.classify_calls"] = len(cl)
    m["rfmap.classify_s"] = sum(own[i] for i in cl)
    m["rfmap.map_steps"] = steps
    m["rfmap.ns_per_step"] = m["rfmap.classify_s"] / steps * 1e9 if steps else 0.0
    m["rfmap.exhausted"] = len(ex)
    m["rfmap.exhausted_s"] = sum(own[i] for i in ex)
    m["rfmap.decided_frac"] = 1.0 - len(ex) / len(cl) if cl else 0.0
    if not cl:
        absent["rfmap.classify_*, map_steps, ns_per_step, exhausted*, decided_frac"] = (
            "classify_by_iteration not called")

    win = [i for i in by("phase1d.phase_window") if _outermost(spans, i, "phase1d.")]
    m["phase1d.window_calls"] = len(win)
    m["phase1d.window_s"] = sum(dur(i) for i in win)
    m["phase1d.us_per_window"] = m["phase1d.window_s"] / len(win) * 1e6 if win else 0.0
    if not win:
        absent["phase1d.window_*, us_per_window"] = "phase_window not called in the run"

    m["treecalc.blocking_s"] = sum(own[i] for i in by("treecalc.blocking_curve"))
    rec = [i for i, s in enumerate(spans)
           if s[0].startswith("treecalc.") and s[0] != "treecalc.blocking_curve"
           and _outermost(spans, i, "treecalc.")]
    m["treecalc.recursion_calls"] = len(rec)
    m["treecalc.recursion_s"] = sum(dur(i) for i in rec)
    if not by("treecalc.blocking_curve"):
        absent["treecalc.blocking_s"] = "blocking_curve not called"
    if not rec:
        absent["treecalc.recursion_*"] = "no finite-tree recursion called"

    orc = [i for i, s in enumerate(spans)
           if s[0] in ORACLE_CALLS and _outermost(spans, i, ORACLE_CALLS)]
    seen: set = set()
    tally_small = tally_large = fold = 0.0
    raw_total = refused = 0
    for i in orc:
        inf = info(i)
        if inf.get("error") == "TreeTooLargeError":
            refused += 1
            continue
        key = json.dumps(inf.get("key"))
        if key in seen:
            fold += dur(i)
        else:
            seen.add(key)
            raw_total += inf.get("raw", 0)
            if inf.get("raw", 0) <= SMALL_RAW:
                tally_small += dur(i)
            else:
                tally_large += dur(i)
    m["oracle.calls"] = len(orc)
    m["oracle.refused"] = refused
    m["oracle.tally_s.small"] = tally_small
    m["oracle.tally_s.large"] = tally_large
    m["oracle.fold_s"] = fold
    m["oracle.raw_assignments"] = raw_total
    if not orc:
        absent["oracle.calls, refused, tally_s.*, fold_s, raw_assignments"] = (
            "no exact enumeration called")

    sim = by("simulate.run")
    run_s = sum(dur(i) for i in sim)
    arrivals = sum(info(i).get("arrivals", 0) for i in sim)
    reps = sum(info(i).get("replications", 0) for i in sim)
    m["simulate.run_s"] = run_s
    m["simulate.arrivals"] = arrivals
    m["simulate.arrivals_per_s"] = arrivals / run_s if run_s else 0.0
    m["simulate.rep_s"] = run_s / reps if reps else 0.0
    if not sim:
        absent["simulate.run_s, arrivals, arrivals_per_s, rep_s"] = "simulate.run not called"

    top = [i for i, s in enumerate(spans) if s[3] < 0]
    m["cli.rows"] = cli_rows
    m["cli.bytes_out"] = cli_bytes
    lib_s = library_time(pool_spans)
    m["cli.parallel_eff"] = lib_s / (jobs * (parallel_wall - setup))
    if not calls["cli"]:
        absent["cli.rows, bytes_out"] = "library workload: no cli process"

    m["trace.wall_s"] = traced_wall
    m["trace.untraced_s"] = untraced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.remainder_s"] = traced_wall - sum(dur(i) for i in top)
    m["trace.spans"] = len(spans)
    return m, absent


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
