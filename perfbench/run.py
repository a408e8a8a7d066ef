"""Benchmark of the treeloss uniqueness pipeline: two workloads, end to end
and per layer.

    python3 perfbench/run.py --workload curve-exact --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
A unit runs the workload's two parts one after the other, each in a fresh
interpreter (see ``workloads.py``). With ``--trace 0`` the unit repeats for
``--seconds`` seconds and the end-to-end metrics are means (times, rates)
or medians (memory) over the repeats; with ``--trace 1`` the unit runs once
in parallel, once serially and once serially under ``tracer.py``, and the
per-layer metrics come from the spans.
Human-readable lines come first; the last line is the JSON result. Metric
names and units are those of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 11
RUN_BUDGET_S = 170.0  # a run must end within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Gate  # noqa: E402
import tracer  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class Unit:
    walls: list  # per part
    cpu: float
    rss_mb: float
    outs: list  # per part
    gate: Gate

    @property
    def wall(self) -> float:
        return sum(self.walls)


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise RuntimeError("run exceeded its time budget")
        return left


def run_process(argv: list, deadline: Deadline, stdin: bytes | None = None):
    """Run ``python3 argv`` from the checkout root in a fresh interpreter.

    Returns (stdout, wall seconds, user+system CPU of the process tree,
    largest RSS in MB of any process in the tree). The rusage comes from
    wait4 on the child, which includes every descendant it reaped -- the
    cli's pool workers too.
    """
    timeout = deadline.left()
    t0 = time.perf_counter()
    # a session of its own, so that a timeout also kills the cli's pool workers
    proc = subprocess.Popen(
        [sys.executable] + argv, cwd=ROOT, env=CHILD_ENV, start_new_session=True,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks: dict = {}

    def drain(name, pipe):
        chunks[name] = pipe.read()
        pipe.close()

    def feed():
        try:
            proc.stdin.write(stdin)
            proc.stdin.close()
        except BrokenPipeError:
            pass  # the child exited early; its exit code says why

    threads = [threading.Thread(target=drain, args=("out", proc.stdout)),
               threading.Thread(target=drain, args=("err", proc.stderr))]
    if stdin is not None:
        threads.append(threading.Thread(target=feed))
    for t in threads:
        t.start()

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    killer = threading.Timer(timeout, kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # interrupted or terminated: take the unit and its pool workers down too
        kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    for t in threads:
        t.join()
    if proc.returncode != 0:
        err = chunks.get("err", b"").decode(errors="replace")[-2000:]
        raise RuntimeError(f"{' '.join(argv[:4])} ... exited {proc.returncode}: {err}")
    cpu = usage.ru_utime + usage.ru_stime
    return chunks["out"], wall, cpu, usage.ru_maxrss * 1024 / 1e6


def run_unit(w, inp: list, ref: list, jobs: int, deadline: Deadline,
             spans: list | None = None) -> Unit:
    """Run the workload's parts one after another; ``spans`` names a file per part."""
    unit = Unit([], 0.0, 0.0, [], Gate())
    for k, (part, pin, pref) in enumerate(zip(w.parts, inp, ref)):
        argv = part.argv(pin, jobs)
        if spans is not None:
            argv = [str(HERE / "tracer.py"), str(spans[k])] + argv
        out, wall, cpu, rss = run_process(argv, deadline, part.stdin(pin))
        gate = part.check(pin, pref, out)
        gate.reasons = {f"{part.name}: {r}": n for r, n in gate.reasons.items()}
        unit.walls.append(wall)
        unit.cpu += cpu
        unit.rss_mb = max(unit.rss_mb, rss)
        unit.outs.append(out)
        unit.gate.add(gate)
    return unit


def measure_setup(w, deadline: Deadline) -> float:
    """Median time for a fresh interpreter to reach the first part's entry point."""
    kind = w.parts[0].kind
    argv = ["-m", "treeloss", "--version"] if kind == "cli" else ["-c", "import treeloss"]
    run_process(argv, deadline)  # writes the bytecode cache an install would have
    return statistics.median(run_process(argv, deadline)[1] for _ in range(SETUP_SAMPLES))


def provenance() -> dict:
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):  # git is not installed
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = res.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


def run_untraced(w, inp, ref, seconds: float, deadline: Deadline) -> tuple:
    setup = measure_setup(w, deadline)  # also warms the bytecode and page cache
    stop = time.monotonic() + seconds
    units = [run_unit(w, inp, ref, w.jobs, deadline)]
    # start a unit only if a typical one ends within --seconds
    while time.monotonic() + statistics.median(u.wall for u in units) < stop:
        units.append(run_unit(w, inp, ref, w.jobs, deadline))
    gate = Gate()
    for u in units:
        gate.add(u.gate)
    # Times are means over the run, not medians: the host's speed wanders
    # by 10-20 % between units, and the mean uses every unit to average it out.
    wall = sum(u.wall for u in units)
    metrics = {
        "wall_s": wall / len(units),
        "setup_s": setup,
        "cpu_s": statistics.mean(u.cpu for u in units),
        "ops_per_s": (gate.attempted - gate.failed) / wall,
        "ok_frac": (gate.attempted - gate.failed) / gate.attempted,
        "peak_rss_mb": statistics.median(u.rss_mb for u in units),
    }
    detail = {
        "units": len(units),
        "unit_wall_s": [round(u.wall, 4) for u in units],
        "part_wall_s": {p.name: statistics.mean(u.walls[k] for u in units)
                        for k, p in enumerate(w.parts)},
        "failed_frac": gate.failed / gate.attempted,
    }
    return metrics, gate, units, detail


def merge_spans(lists: list) -> list:
    """One span list from several processes' lists, parent indices shifted."""
    merged: list = []
    for spans in lists:
        base = len(merged)
        merged += [[n, t0, t1, p + base if p >= 0 else -1, info]
                   for n, t0, t1, p, info in spans]
    return merged


def run_traced(w, inp, ref, deadline: Deadline) -> tuple:
    setup = measure_setup(w, deadline)
    par = run_unit(w, inp, ref, w.jobs, deadline)
    ser = run_unit(w, inp, ref, 1, deadline) if w.jobs > 1 else par
    OUT_DIR.mkdir(exist_ok=True)
    paths = [OUT_DIR / f"spans-{w.name}-{p.name}.json" for p in w.parts]
    traced = run_unit(w, inp, ref, 1, deadline, spans=paths)
    lists = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lists.append(json.load(fh)["spans"])
    rows = out_bytes = 0
    for part, out in zip(w.parts, traced.outs):
        if part.kind == "cli":
            lines = out.decode().splitlines()
            # grid commands print a comment and a header above their rows
            rows += len(lines) - 2 if lines and lines[0].startswith("# treeloss") else 1
            out_bytes += len(out)
    # the pool's efficiency is that of the part that runs the pool
    pool = max(range(len(w.parts)), key=lambda k: w.parts[k].jobs)
    metrics, absent = tracer.layer_metrics(
        merge_spans(lists), traced_wall=traced.wall, untraced_wall=ser.wall,
        parallel_wall=par.walls[pool], setup=setup, jobs=w.parts[pool].jobs,
        cli_rows=rows, cli_bytes=out_bytes, pool_spans=lists[pool])
    units = [par, ser, traced] if ser is not par else [par, traced]
    gate = Gate()
    for u in units:
        gate.add(u.gate)
    detail = {"absent": absent, "spans_files": [str(p.relative_to(ROOT)) for p in paths],
              "setup_s": setup, "parallel_wall_s": par.wall,
              "part_wall_s": {p.name: {"parallel": par.walls[k], "serial": ser.walls[k],
                                       "traced": traced.walls[k]}
                              for k, p in enumerate(w.parts)}}
    return metrics, gate, units, detail


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: Deadline) -> dict:
    w = WORKLOADS[name]
    env = provenance()
    inp = w.inputs(seed)
    ref = w.reference(inp)
    if trace:
        metrics, gate, units, detail = run_traced(w, inp, ref, deadline)
    else:
        metrics, gate, units, detail = run_untraced(w, inp, ref, seconds, deadline)
    env["loadavg_end"] = os.getloadavg()
    digests = {tuple(hashlib.sha256(o).hexdigest() for o in u.outs) for u in units}
    if len(digests) > 1:
        gate.fail("repeated units printed different bytes", mismatch=True)
    per_part = {p.name: sorted({d[k] for d in digests}) for k, p in enumerate(w.parts)}
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "output_sha256": per_part, "metrics": metrics,
        "gate": {"attempted": gate.attempted, "failed": gate.failed,
                 "mismatched": gate.mismatched, "reasons": gate.reasons,
                 "correct": gate.mismatched == 0},
        "detail": detail,
    }


def report(rec: dict, units: dict) -> None:
    """Print a record as readable lines: provenance, gate, then metrics."""
    g = rec["gate"]
    print(f"# {rec['workload']} seed={rec['seed']} trace={rec['trace']} "
          f"env={json.dumps(rec['env'], sort_keys=True)}")
    for part, digests in rec["output_sha256"].items():
        print(f"# {rec['workload']} output sha256 {part} {' '.join(d[:16] for d in digests)}")
    verdict = "PASS" if g["correct"] else "FAIL"
    print(f"# {rec['workload']} gate {verdict}: {g['mismatched']} mismatched, "
          f"{g['failed']} failed of {g['attempted']} attempted {json.dumps(g['reasons'])}")
    for k, v in rec["detail"].items():
        print(f"# {rec['workload']} {k} {json.dumps(v)}")
    for k, v in rec["metrics"].items():
        print(f"{rec['workload']:<12} {k:<24} {v:>16.6g} {units[k]}")


def result_line(recs: list, units: dict) -> dict:
    metrics = {}
    for rec in recs:
        prefix = "" if len(recs) == 1 else rec["workload"] + "."
        for k, v in rec["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": units[k]}
    return {
        "correct": all(r["gate"]["correct"] for r in recs),
        "attempted": sum(r["gate"]["attempted"] for r in recs),
        "failed": sum(r["gate"]["failed"] for r in recs),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", default=None,
                    help="append the full records (provenance, gate, digests) to this JSON file")
    args = ap.parse_args(argv)
    if not (SRC / "treeloss" / "__init__.py").is_file():
        print(f"error: no treeloss sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    recs = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace), Deadline(RUN_BUDGET_S))
        if set(rec["metrics"]) != wanted:
            raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(rec['metrics']) ^ wanted}")
        report(rec, units)
        recs.append(rec)
    if args.record:
        path = Path(args.record)
        old = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(old + recs, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result_line(recs, units)))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
