"""Tests of the benchmark harness itself (not of treeloss).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    JOBS, PARTS, REFUSE_RAW, WORKLOADS, Composite, CurveCv1, exact_cases, raw_size)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]


class TinyCurve(CurveCv1):
    """Three grid points and a 50-step budget: every point ends inconclusive."""

    def inputs(self, seed):
        return {"nu_min": 20.0, "nu_max": 30.0, "nu_step": 5.0}

    def argv(self, inp, jobs):
        return super().argv(inp, jobs) + ["--max-iter", "50"]


TINY = Composite("tiny", "", [TinyCurve()])


def test_metric_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_reports_all_end_to_end_metrics(name, monkeypatch):
    w = WORKLOADS[name]
    out = b"x"
    monkeypatch.setattr(run, "measure_setup", lambda w, deadline: 0.25)
    monkeypatch.setattr(run, "run_unit", lambda *a, **k: run.Unit(
        [1.0, 0.5], 2.0, 40.0, [out, out], run.Gate(attempted=10, failed=1)))
    metrics = run.run_untraced(w, [], [], 0.0, run.Deadline(60))[0]
    assert list(metrics) == E2E
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    line = run.result_line([{"workload": name, "metrics": metrics,
                             "gate": {"correct": True, "attempted": 10, "failed": 1}}], units)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for k in E2E:
        assert line["metrics"][k]["unit"] and line["metrics"][k]["value"] > 0


def test_inconclusive_point_counts_as_failed():
    inp = TINY.inputs(0)
    metrics, gate, units, detail = run.run_untraced(
        TINY, inp, TINY.reference(inp), 0.0, run.Deadline(120))
    assert gate.attempted == 3 * len(units)
    assert gate.reasons.get("curve-cv1: inconclusive", 0) >= len(units)
    assert gate.mismatched == 0
    assert detail["failed_frac"] > 0 and metrics["ok_frac"] < 1


def _descendants(pid: int) -> set:
    found, todo = set(), [pid]
    while todo:
        p = todo.pop()
        try:
            kids = Path(f"/proc/{p}/task/{p}/children").read_text().split()
        except OSError:
            continue
        for k in map(int, kids):
            if k not in found:
                found.add(k)
                todo.append(k)
    return found


def test_no_workload_asks_for_more_workers_than_cores():
    nproc = os.cpu_count()
    for w in WORKLOADS.values():
        for part, inp in zip(w.parts, w.inputs(0)):
            argv = part.argv(inp, w.jobs)
            jobs = int(argv[argv.index("--jobs") + 1]) if "--jobs" in argv else 1
            assert jobs <= nproc, part.name


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="needs /proc/<pid>/task/<pid>/children")
def test_pool_starts_at_most_nproc_workers():
    w = TinyCurve()
    proc = subprocess.Popen([sys.executable] + w.argv(w.inputs(0), JOBS), cwd=run.ROOT,
                            env=run.CHILD_ENV, stdout=subprocess.DEVNULL)
    seen: set = set()
    while proc.poll() is None:
        seen |= _descendants(proc.pid)
        time.sleep(0.002)
    assert proc.returncode == 0
    assert len(seen) <= os.cpu_count()


def test_exact_inputs_cover_both_engines_and_the_guard():
    raws = [raw_size(c) for c in exact_cases(0)]
    assert any(r <= 10**5 for r in raws)
    assert any(10**5 < r <= REFUSE_RAW for r in raws)
    assert any(r > REFUSE_RAW for r in raws)
    assert exact_cases(3) == exact_cases(3) and exact_cases(3) != exact_cases(4)


def test_sweep_straddles_the_threshold():
    for seed in range(5):
        inp = PARTS["sweep-fine"].inputs(seed)
        assert inp["lam_min"] < 6.0 < inp["lam_max"]


@pytest.mark.parametrize("z, failed, mismatched", [(0.5, 0, 0), (4.0, 0, 0), (7.0, 100, 100)])
def test_sim_gate_fails_ops_only_beyond_six_standard_errors(z, failed, mismatched):
    ref = {"node_blocking": 0.1, "edge_blocking": 0.2, "occupancy": [0.5, 0.3, 0.2]}
    sim = {"post_warmup_events": 100, "node_beta": 0.1 + z * 0.01, "node_beta_se": 0.01,
           "edge_beta": 0.2, "edge_beta_se": 0.01,
           "occupancy": [0.5, 0.3, 0.2], "occupancy_se": [0.01, 0.01, 0.01]}
    gate = PARTS["sim-check"].check({}, ref, json.dumps(sim).encode())
    assert (gate.attempted, gate.failed, gate.mismatched) == (100, failed, mismatched)
    assert ("compare rule: |z| > 3, by chance" in gate.reasons) == (3 < z <= 6)


def test_merge_spans_keeps_each_process_tree():
    a = [["cli.main", 0.0, 3.0, -1, None], ["rfmap.x", 1.0, 2.0, 0, None]]
    b = [["cli.main", 4.0, 5.0, -1, None], ["oracle.y", 4.1, 4.2, 0, None]]
    merged = run.merge_spans([a, b])
    assert [s[3] for s in merged] == [-1, 0, -1, 2]
    assert tracer.self_times(merged) == pytest.approx([2.0, 1.0, 0.9, 0.1])


def test_tracer_counts_match_the_program():
    inp = TINY.inputs(0)
    spans_path = run.OUT_DIR / "spans-test.json"
    run.OUT_DIR.mkdir(exist_ok=True)
    try:
        unit = run.run_unit(TINY, inp, TINY.reference(inp), 1, run.Deadline(60),
                            spans=[spans_path])
        spans = json.loads(spans_path.read_text())["spans"]
    finally:
        spans_path.unlink(missing_ok=True)
    assert unit.gate.attempted == 3
    assert all(-1 <= s[3] < i for i, s in enumerate(spans))
    m, absent = tracer.layer_metrics(
        spans, traced_wall=unit.wall, untraced_wall=unit.wall, parallel_wall=unit.wall,
        setup=0.1, jobs=1, cli_rows=3, cli_bytes=len(unit.outs[0]), pool_spans=spans)
    assert m["rfmap.classify_calls"] == 3
    assert m["rfmap.map_steps"] == 150 and m["rfmap.exhausted"] == 3
    assert m["rfmap.decided_frac"] == 0.0
    assert set(m) == {x["name"] for x in SPEC["per_layer"]}
    assert "oracle.calls, refused, tally_s.*, fold_s, raw_assignments" in absent


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-sim", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0 and res.stdout == ""
