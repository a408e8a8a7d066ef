"""Command-line interface: schemas, exit codes, determinism, file output."""
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import treeloss
from treeloss import __version__
from treeloss.cli import _usable_cpus, main
from treeloss.oracle import exact_blocking, exact_partition, spherical_tree
from treeloss.phase1d import phase_window
from treeloss.rfmap import ModelParams
from treeloss.simulate import SimConfig, run as sim_run
from treeloss.treecalc import TreeSpec
from treeloss.weights import load_weight_file, poisson_weights

from test_phase1d import _ref_phase_window


README_WINDOW_JSON = """{
  "alphas": {
    "alpha_minus": 1.0528431717211417,
    "alpha_plus": 1.9292996854217155
  },
  "boundary": false,
  "condition_a": true,
  "window": {
    "nu_minus": 26.770974722340235,
    "nu_plus": 90.72625356427147
  }
}
"""

# sha256 of the stdout of the README `blocking-curve` and `classify` examples
README_CURVE_SHA256 = "594b820935b95ffca55217d88066b5ac2e6cb8915f496b182bb2a3b0b818545e"
README_CLASSIFY_SHA256 = "676588c50dcb7d1443b922529fbfb13c4ab7f08a2e5658cd9040faebebc9e9a7"

# `treeloss simulate` as the README runs it
README_SIMULATE_JSON = """{
  "edge_beta": 0.4086781076811585,
  "edge_beta_se": 0.0020045484626920263,
  "edge_blocked": 19302,
  "edge_offered": 47229,
  "node_beta": 0.7730029464024409,
  "node_beta_se": 0.0023185305852493807,
  "node_blocked": 36483,
  "node_offered": 47193,
  "occupancy": [
    0.7745872382443274,
    0.22541276175567257
  ],
  "occupancy_se": [
    0.002989596499135986,
    0.0029895964991359823
  ],
  "post_warmup_events": 331379,
  "replications": 24
}
"""


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestWindowCommand:
    def test_geometric_window_json(self, capsys):
        code, out, _ = _run(
            capsys, "window", "--q", "14", "--cap", "2", "--weights", "geometric", "--lam", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["condition_a"] is True
        assert doc["boundary"] is False
        assert doc["alphas"] == {"alpha_minus": 1.5, "alpha_plus": 2.0}
        assert doc["window"]["nu_minus"] < doc["window"]["nu_plus"]

    def test_absent_window_json(self, capsys):
        code, out, _ = _run(
            capsys, "window", "--q", "6", "--cap", "2", "--weights", "poisson", "--lam", "5"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["condition_a"] is False
        assert doc["window"] is None
        assert doc["alphas"] is None

    def test_boundary_flagged(self, capsys):
        code, out, _ = _run(
            capsys, "window", "--q", "6", "--cap", "2", "--weights", "poisson", "--lam", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["condition_a"] is False
        assert doc["boundary"] is True

    def test_bad_rate_is_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "window", "--q", "6", "--cap", "2", "--weights", "poisson", "--lam", "-1"
        )
        assert code == 2
        assert err

    def test_assumption_violation_exit_code(self, capsys, tmp_path):
        wf = tmp_path / "flat.txt"
        wf.write_text("1\n0\n0\n")
        code, _, err = _run(
            capsys, "window", "--q", "6", "--cap", "2", "--weights", f"file:{wf}"
        )
        assert code == 3
        assert err

    @pytest.mark.parametrize("q,entries,reason", [
        (6, ("1", "1e150", "1e155"), "integer division result too large for a float"),
        (49, ("1.2885089446087878e-284", "2.806662057886418e-181",
              "2.1783822470271507e-139"), "float division by zero"),
    ])
    def test_extreme_weights_are_usage_error(self, capsys, tmp_path, q, entries, reason):
        # the window's floats overflow (first) or its leading coefficient
        # underflows to zero (second); phase_window itself still raises
        wf = tmp_path / "w.txt"
        wf.write_text("\n".join(entries) + "\n")
        code, out, err = _run(
            capsys, "window", "--q", str(q), "--cap", "2", "--weights", f"file:{wf}"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: edge weights too extreme for a float window: {reason}\n"

    @pytest.mark.parametrize("q", ["500", "1000"])
    def test_infinite_endpoint_is_usage_error(self, capsys, q):
        # nu_plus (q = 500) or both endpoints (q = 1000) saturate to inf, which
        # phase_window returns and JSON cannot carry
        assert phase_window(int(q), 2, poisson_weights(7.0, 2)).nu_plus == math.inf
        assert _run(capsys, "window", "--q", q, "--cap", "2", "--lam", "7") == (
            2, "", "error: edge weights too extreme for a float window: nu_plus is not finite\n"
        )

    def test_json_only_command_rejects_csv(self, capsys):
        code, _, _ = _run(
            capsys,
            "window", "--q", "6", "--cap", "2", "--weights", "poisson", "--lam", "5",
            "--format", "csv",
        )
        assert code == 2

    def test_readme_example_bytes(self, capsys):
        code, out, _ = _run(
            capsys, "window", "--q", "10", "--cap", "2", "--weights", "poisson", "--lam", "0.75"
        )
        assert code == 0
        assert out == README_WINDOW_JSON

    @pytest.mark.parametrize("caps", [
        ("--cv", "2", "--ce", "1"),
        ("--cv", "2"),
        ("--ce", "1"),
        ("--cv", "1", "--ce", "3"),
    ])
    def test_closed_form_only_for_cv1_full_edge_cap(self, capsys, caps):
        code, out, err = _run(
            capsys, "window", "--q", "10", "--cap", "2", "--lam", "0.75", *caps
        )
        assert code == 2
        assert out == ""
        assert "cv = 1 and ce = cap" in err

    def test_explicit_cv1_full_edge_cap_accepted(self, capsys):
        code, out, _ = _run(
            capsys, "window", "--q", "10", "--cap", "2", "--weights", "poisson",
            "--lam", "0.75", "--cv", "1", "--ce", "2",
        )
        assert code == 0
        assert out == README_WINDOW_JSON


class TestTopLevel:
    def test_version_exits_zero(self, capsys):
        assert main(["--version"]) == 0
        assert __version__ in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["window", "--q", "6", "--cap", "2", "--lam", "5", "--frob"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["window", "--cap", "2", "--lam", "5"]) == 2


class TestClassifyCommand:
    def test_unique_json(self, capsys):
        code, out, _ = _run(
            capsys,
            "classify", "--q", "10", "--cap", "2", "--cv", "1", "--ce", "2",
            "--weights", "poisson", "--lam", "0.75", "--nu", "5",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "unique"
        assert doc["iterations"] > 0
        assert len(doc["fixed_point"]) == 1
        assert doc["even_limit"] is None

    def test_multiple_json(self, capsys):
        code, out, _ = _run(
            capsys,
            "classify", "--q", "10", "--cap", "2", "--cv", "1", "--ce", "2",
            "--weights", "poisson", "--lam", "0.75", "--nu", "50",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "multiple"
        assert doc["fixed_point"] is None
        assert doc["even_limit"][0] < doc["odd_limit"][0]

    @pytest.mark.parametrize("nu,kind,method", [
        ("1", "unique", "iteration"),     # settles in 27 steps
        ("26.5", "unique", "bisection"),  # just below the window: slow, bisected
        ("50", "multiple", "bisection"),
    ])
    def test_method_records_what_decided(self, capsys, nu, kind, method):
        code, out, _ = _run(
            capsys,
            "classify", "--q", "10", "--cap", "2", "--cv", "1", "--ce", "2",
            "--weights", "poisson", "--lam", "0.75", "--nu", nu,
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["kind"], doc["method"]) == (kind, method)

    def test_readme_example_bytes(self, capsys):
        code, out, _ = _run(
            capsys,
            "classify", "--q", "10", "--cap", "2", "--weights", "poisson", "--lam", "0.75",
            "--nu", "50",
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == README_CLASSIFY_SHA256

    def test_infinite_rate_is_usage_error(self, capsys):
        code, _, err = _run(
            capsys, "classify", "--q", "2", "--cap", "2", "--lam", "1", "--nu", "inf"
        )
        assert code == 2
        assert "rate must be positive and finite" in err


class TestBlockingCurveCommand:
    ARGS = (
        "blocking-curve", "--q", "2", "--cap", "2", "--cv", "1", "--ce", "0",
        "--nu-min", "1", "--nu-max", "3", "--nu-step", "1",
    )

    def test_csv_schema_and_values(self, capsys):
        code, out, _ = _run(capsys, *self.ARGS)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == f"# treeloss {__version__} blocking-curve"
        assert lines[1] == "nu,unique,beta_even,beta_odd,xi_even,xi_odd"
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == 3
        for row, nu in zip(rows, (1.0, 2.0, 3.0)):
            assert float(row[0]) == nu
            assert row[1] == "unique"
            # no edge budget decouples the nodes: beta = nu/(1+nu)
            assert math.isclose(float(row[2]), nu / (1 + nu), rel_tol=1e-12)
            assert row[2] == row[3]

    def test_weight_file_read_once(self, capsys, monkeypatch, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("1\n0.5\n0.1\n")
        reads = []

        def spy(path):
            reads.append(path)
            return load_weight_file(path)

        monkeypatch.setattr("treeloss.cli.load_weight_file", spy)
        code, out, _ = _run(
            capsys, "blocking-curve", "--q", "3", "--cap", "2", "--weights", f"file:{wf}",
            "--nu-min", "1", "--nu-max", "5", "--nu-step", "1",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 2 + 5
        assert len(reads) == 1

    def test_json_format(self, capsys):
        code, out, _ = _run(capsys, *self.ARGS, "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert isinstance(rows, list) and len(rows) == 3
        assert rows[0]["unique"] == "unique"
        assert set(rows[0]) == {"nu", "unique", "beta_even", "beta_odd", "xi_even", "xi_odd"}

    def test_parallel_output_is_identical(self, capsys, tmp_path):
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        assert main([*self.ARGS, "--out", str(serial)]) == 0
        assert main([*self.ARGS, "--jobs", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_readme_example_bytes(self, capsys, jobs):
        code, out, _ = _run(
            capsys,
            "blocking-curve", "--q", "10", "--cap", "2", "--lam", "0.75",
            "--nu-min", "1", "--nu-max", "150", "--nu-step", "0.5", "--jobs", jobs,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == README_CURVE_SHA256

    @pytest.mark.parametrize("flags,message", [
        (("--max-iter", "3"), "max_iter must be an int >= 4, got 3"),
        (("--tol", "1e-3"), "need 0 < tol < sep, got tol=0.001, sep=1e-08"),
        (("--sep", "0"), "need 0 < tol < sep, got tol=1e-12, sep=0.0"),
        (("--q", "0"), "q must be an int >= 1, got 0"),
        (("--nu-min", "-1"), "rate must be positive and finite, got -1.0"),
        (("--q", "0", "--max-iter", "3"), "q must be an int >= 1, got 0"),
        # the first load is fine; the second overflows its node weights
        (("--cap", "3", "--cv", "3", "--nu-max", "1e200", "--nu-step", "5e199"),
         "weight entries must be finite and >= 0: (1.0, 5e+199, inf, inf)"),
    ])
    def test_invalid_flags_refused_before_the_pool_starts(
        self, capsys, monkeypatch, flags, message
    ):
        serial = _run(capsys, *self.ARGS, *flags, "--jobs", "1")

        def no_fork():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _run(capsys, *self.ARGS, *flags, "--jobs", "2") == serial == (
            2, "", f"error: {message}\n"
        )

    def test_file_output_leaves_stdout_clean(self, capsys, tmp_path):
        dest = tmp_path / "curve.csv"
        code, out, _ = _run(capsys, *self.ARGS, "--out", str(dest))
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("# treeloss")

    def test_invalid_grid_writes_nothing(self, capsys, tmp_path):
        dest = tmp_path / "curve.csv"
        code, _, err = _run(
            capsys,
            "blocking-curve", "--q", "2", "--cap", "2", "--ce", "0",
            "--nu-min", "1", "--nu-max", "3", "--nu-step", "0",
            "--out", str(dest),
        )
        assert code == 2
        assert err
        assert not dest.exists()

    def test_oversized_grid_is_refused_at_once(self):
        # 10^15 rows: run in a child capped at 1 GiB of address space, so a
        # missing guard fails the test instead of exhausting memory
        src = str(Path(treeloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "treeloss", "blocking-curve", "--q", "2", "--cap", "2",
             "--ce", "0", "--nu-min", "1", "--nu-max", "1e12", "--nu-step", "1e-3"],
            capture_output=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 2
        assert b"exceeds the limit" in proc.stderr
        assert proc.stdout == b""


@pytest.mark.parametrize("argv,message", [
    (("classify", "--q", "2", "--cap", "2", "--cv", "-1", "--lam", "1", "--nu", "1"),
     "--cv must be an int in [1, 2], got -1"),
    (("sweep-region", "--q", "2", "--cap", "-1", "--lam-min", "1", "--lam-max", "2",
      "--lam-step", "1"),
     "cap must be an int >= 2, got -1"),
    (("enumerate", "--q", "2", "--cap", "2", "--ce", "-2", "--lam", "1", "--nu", "1",
      "--radius", "1"),
     "--ce must be an int in [0, 2], got -2"),
    (("window", "--q", "2", "--cap", "-1", "--lam", "1"),
     "--cap must be an int >= 1, got -1"),
])
def test_bad_count_is_named_by_its_flag_before_weights_are_built(
    capsys, monkeypatch, argv, message
):
    def no_weights(*args):
        raise AssertionError("weights were built")

    monkeypatch.setattr("treeloss.cli._edge_family", no_weights)
    monkeypatch.setattr("treeloss.cli.poisson_weights", no_weights)
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_import_leaves_numpy_unloaded():
    # only the simulator needs numpy; the analytic commands must start without it
    src = str(Path(treeloss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, treeloss, treeloss.cli; print('numpy' in sys.modules)"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"


def test_import_leaves_the_pool_unloaded():
    # concurrent.futures costs tens of milliseconds; only a pool run needs it
    src = str(Path(treeloss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, treeloss.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == b"False"


# Runs one command (or none) in a fresh interpreter, then prints the modules it loaded.
_IMPORT_PROBE = """
import json, os, sys
if len(sys.argv) > 1:
    from treeloss.cli import main
    assert main(sys.argv[1:] + ["--out", os.devnull]) == 0
else:
    import treeloss
print(json.dumps(sorted(sys.modules)))
"""
_MODEL_MODULES = {
    f"treeloss.{m}" for m in ("weights", "rfmap", "phase1d", "treecalc", "oracle", "simulate")
}


@pytest.mark.parametrize("argv,loaded,unloaded", [
    ((), {"treeloss"}, _MODEL_MODULES | {"treeloss._num", "treeloss.cli", "numpy"}),
    (("sweep-region", "--q", "6", "--cap", "2", "--lam-min", "6.01", "--lam-max", "6.01",
      "--lam-step", "1"),
     {"treeloss.phase1d"},
     {"treeloss.treecalc", "treeloss.oracle", "treeloss.simulate", "numpy", "concurrent.futures"}),
    (("blocking-curve", "--q", "10", "--cap", "2", "--lam", "0.75", "--nu-min", "50",
      "--nu-max", "50", "--nu-step", "1"),
     {"treeloss.treecalc"},
     {"treeloss.phase1d", "treeloss.oracle", "treeloss.simulate", "numpy"}),
])
def test_a_run_loads_only_the_modules_it_uses(argv, loaded, unloaded):
    # every module a command does not call is start-up time it need not pay
    src = str(Path(treeloss.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv], capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(json.loads(proc.stdout))
    assert loaded <= modules
    assert sorted(modules & unloaded) == []


class TestSweepRegionCommand:
    def test_single_point_grid(self, capsys):
        code, out, _ = _run(
            capsys,
            "sweep-region", "--q", "6", "--cap", "2", "--weights", "poisson",
            "--lam-min", "6.01", "--lam-max", "6.01", "--lam-step", "0.01",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "lambda,condition_a,nu_minus,nu_plus"
        assert len(lines) == 3
        row = lines[2].split(",")
        assert row[1] == "true"
        assert float(row[2]) < float(row[3])

    def test_threshold_crossing(self, capsys):
        code, out, _ = _run(
            capsys,
            "sweep-region", "--q", "6", "--cap", "2", "--weights", "poisson",
            "--lam-min", "5.99", "--lam-max", "6.01", "--lam-step", "0.01",
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[2:]]
        assert [r[1] for r in rows] == ["false", "false", "true"]
        assert rows[0][2] == ""  # endpoints blank when the window is absent

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_rows_equal_fraction_reference_bytes(self, capsys, jobs):
        # 2,001 rows straddling the Poisson threshold lambda = 6
        lo, hi, step = 5.99, 6.01, 1e-5
        code, out, _ = _run(
            capsys,
            "sweep-region", "--q", "6", "--cap", "2", "--weights", "poisson",
            "--lam-min", repr(lo), "--lam-max", repr(hi), "--lam-step", repr(step),
            "--jobs", jobs,
        )
        assert code == 0
        lines = [f"# treeloss {__version__} sweep-region", "lambda,condition_a,nu_minus,nu_plus"]
        for k in range(int(math.floor((hi - lo) / step + 1e-9)) + 1):
            lam = lo + k * step
            win = _ref_phase_window(6, 2, poisson_weights(lam, 2))
            cells = [f"{lam:.17g}", "true" if win.present else "false"]
            cells += [f"{x:.17g}" if x is not None else "" for x in (win.nu_minus, win.nu_plus)]
            lines.append(",".join(cells))
        assert len(lines) == 2003
        assert {line.split(",")[1] for line in lines[2:]} == {"true", "false"}
        assert out == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("flags,message", [
        (("--weights", "bogus", "--lam-min", "1"), "unknown weights family 'bogus'"),
        (("--lam-min", "0"), "rate must be positive and finite, got 0.0"),
        (("--lam-max", "1e200", "--lam-step", "1e195"),
         "weight entries must be finite and >= 0: (1.0, 1e+200, inf)"),
        (("--lam-max", "1e150", "--lam-step", "1e145"),
         "edge weights too extreme for a float window: "
         "integer division result too large for a float"),
    ])
    def test_invalid_family_refused_before_the_pool_starts(
        self, capsys, monkeypatch, flags, message
    ):
        def no_fork():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        base = {"--weights": "poisson", "--lam-min": "1", "--lam-max": "2", "--lam-step": "0.5"}
        base.update(zip(flags[::2], flags[1::2]))
        code, out, err = _run(
            capsys, "sweep-region", "--q", "6", "--cap", "2",
            *(x for kv in base.items() for x in kv), "--jobs", "2",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("flag,message", [
        ("--q", "q must be an int >= 1, got 0"),
        ("--cap", "cap must be an int >= 2, got 0"),
    ])
    def test_invalid_q_or_cap_refused_before_the_pool_starts(
        self, capsys, monkeypatch, flag, message
    ):
        argv = [
            "sweep-region", "--q", "6", "--cap", "2", "--weights", "poisson",
            "--lam-min", "1", "--lam-max", "2", "--lam-step", "0.5", flag, "0",
        ]
        serial = _run(capsys, *argv, "--jobs", "1")

        def no_fork():
            raise AssertionError("a worker process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _run(capsys, *argv, "--jobs", "2") == serial == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_huge_rate_is_usage_error(self, capsys, jobs):
        code, out, err = _run(
            capsys,
            "sweep-region", "--q", "6", "--cap", "2", "--weights", "poisson",
            "--lam-min", "1e150", "--lam-max", "2e150", "--lam-step", "1e150",
            "--jobs", jobs,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: edge weights too extreme for a float window: "
            "integer division result too large for a float\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_infinite_endpoint_is_usage_error(self, capsys, jobs):
        assert _run(
            capsys,
            "sweep-region", "--q", "3000", "--cap", "2", "--lam-min", "7", "--lam-max", "7",
            "--lam-step", "1", "--jobs", jobs,
        ) == (2, "", "error: edge weights too extreme for a float window: nu_plus is not finite\n")

    def test_file_weights_rejected_for_sweeps(self, capsys, tmp_path):
        wf = tmp_path / "w.txt"
        wf.write_text("1\n1\n1\n")
        code, _, err = _run(
            capsys,
            "sweep-region", "--q", "6", "--cap", "2", "--weights", f"file:{wf}",
            "--lam-min", "1", "--lam-max", "2", "--lam-step", "1",
        )
        assert code == 2
        assert err


class TestEnumerateCommand:
    def test_matches_library(self, capsys):
        code, out, _ = _run(
            capsys,
            "enumerate", "--q", "2", "--cap", "2", "--cv", "1", "--ce", "1",
            "--weights", "poisson", "--lam", "0.8", "--nu", "1.5", "--radius", "1",
        )
        assert code == 0
        doc = json.loads(out)
        p = ModelParams(
            q=2, cap=2, cv=1, ce=1,
            node_weights=poisson_weights(1.5, 1),
            edge_weights=poisson_weights(0.8, 1),
        )
        t = spherical_tree(2, 1)
        z = exact_partition(p, t, root=0)
        assert doc["tree"] == {"kind": "spherical", "size": 1, "nodes": 4, "edges": 3}
        for got, want in zip(doc["partition"], z):
            assert math.isclose(got, float(want), rel_tol=1e-12)
        assert math.isclose(
            doc["node_blocking"], float(exact_blocking(p, t, target=0)), rel_tol=1e-12
        )
        assert math.isclose(
            doc["edge_blocking"], float(exact_blocking(p, t, target=(0, 1))), rel_tol=1e-12
        )

    def test_requires_exactly_one_shape(self, capsys):
        base = (
            "enumerate", "--q", "2", "--cap", "2", "--ce", "1",
            "--weights", "poisson", "--lam", "0.8", "--nu", "1.5",
        )
        assert _run(capsys, *base)[0] == 2
        assert _run(capsys, *base, "--height", "1", "--radius", "1")[0] == 2

    def test_oversized_tree_is_an_error(self, capsys):
        code, _, err = _run(
            capsys,
            "enumerate", "--q", "3", "--cap", "3", "--cv", "3", "--ce", "3",
            "--weights", "poisson", "--lam", "1", "--nu", "1", "--height", "2",
        )
        assert code == 2
        assert "refusing" in err

    def test_oversized_spec_refused_before_building(self, capsys, monkeypatch):
        def no_build(*args):
            raise AssertionError("the tree was built")

        monkeypatch.setattr("treeloss.oracle.spherical_tree", no_build)
        code, out, err = _run(
            capsys,
            "enumerate", "--q", "10", "--cap", "2", "--weights", "poisson",
            "--lam", "1", "--nu", "1", "--radius", "5",
        )
        assert (code, out) == (2, "")
        assert "refusing to enumerate" in err and len(err) < 200

    def test_partition_beyond_the_float_range_is_refused(self, capsys, tmp_path):
        w = tmp_path / "w.txt"
        w.write_text("1\n1e200\n1e200\n")
        code, out, err = _run(
            capsys,
            "enumerate", "--q", "2", "--cap", "2", "--weights", f"file:{w}",
            "--nu", "1", "--radius", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: the partition function exceeds the float range\n"


class TestSimulateCommand:
    ARGS = (
        "simulate", "--q", "1", "--cap", "2", "--cv", "1", "--ce", "0",
        "--nu", "1", "--height", "0", "--horizon", "120", "--reps", "2", "--seed", "5",
    )

    def test_matches_library_run(self, capsys):
        code, out, _ = _run(capsys, *self.ARGS)
        assert code == 0
        doc = json.loads(out)
        p = ModelParams(
            q=1, cap=2, cv=1, ce=0,
            node_weights=poisson_weights(1.0, 1),
            edge_weights=poisson_weights(1.0, 0),
        )
        stats = sim_run(
            SimConfig(
                params=p, tree=TreeSpec("rooted", 0),
                horizon_time=120.0, replications=2, seed=5,
            )
        )
        assert doc["node_offered"] == stats.node_offered
        assert doc["node_beta"] == stats.node_beta
        assert doc["edge_beta"] is None  # nan serialized as null

    def test_readme_example_bytes(self, capsys):
        code, out, _ = _run(
            capsys,
            "simulate", "--q", "2", "--cap", "2", "--weights", "poisson", "--lam", "1",
            "--nu", "1", "--radius", "1", "--horizon", "2000", "--reps", "24",
            "--seed", "2024",
        )
        assert code == 0
        assert out == README_SIMULATE_JSON

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.ARGS, "--out", str(a)]) == 0
        assert main([*self.ARGS, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_output_bytes_do_not_depend_on_jobs(self, capsys):
        default = _run(capsys, *self.ARGS)
        assert default[0] == 0
        for jobs in ("1", "2", "3"):
            assert _run(capsys, *self.ARGS, "--jobs", jobs) == default

    def test_default_jobs_is_the_usable_cpu_count(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(
            "treeloss.simulate.run", lambda cfg, jobs: seen.append(jobs) or sim_run(cfg)
        )
        assert _run(capsys, *self.ARGS)[0] == 0
        assert seen == [len(os.sched_getaffinity(0))]

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_refused_before_tree_or_pool(self, capsys, monkeypatch, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("a tree was built or a worker forked")

        monkeypatch.setattr(os, "fork", refuse)
        monkeypatch.setattr("treeloss.simulate.build_tree", refuse)
        assert _run(capsys, *self.ARGS, "--jobs", jobs) == (
            2, "", f"error: --jobs must be an int >= 1, got {jobs}\n"
        )

    def test_deep_tree_runs(self, capsys):
        # 1,501 levels: deeper than Python's recursion limit
        code, out, _ = _run(
            capsys,
            "simulate", "--q", "1", "--cap", "2", "--lam", "1", "--nu", "1",
            "--height", "1500", "--warmup", "0", "--horizon", "1", "--reps", "1",
        )
        assert code == 0
        assert json.loads(out)["replications"] == 1

    def test_oversized_tree_is_refused_at_once(self):
        # 122,222,222 nodes: run in a child capped at 1 GiB of address space,
        # so a missing guard fails the test instead of exhausting memory
        src = str(Path(treeloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "treeloss", "simulate", "--q", "10", "--cap", "2",
             "--lam", "1", "--nu", "1", "--radius", "8"],
            capture_output=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            b"error: a spherical tree of radius 8 at q = 10 has 122222222 nodes; "
            b"simulate takes at most 100000\n"
        )
        assert proc.stdout == b""

    def test_huge_replication_count_is_refused_at_once(self):
        # spawning 10^8 seeds runs out of a 1 GiB address space, so the count
        # must be refused before any seed is spawned
        src = str(Path(treeloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "treeloss", "simulate", "--q", "2", "--cap", "2",
             "--lam", "1", "--nu", "1", "--radius", "1", "--horizon", "50",
             "--reps", "100000000", "--jobs", "1"],
            capture_output=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 2
        assert proc.stderr == b"error: replications must be an int in [1, 100000], got 100000000\n"
        assert proc.stdout == b""


class TestSelftestCommand:
    def test_passes(self, capsys):
        code, out, _ = _run(capsys, "selftest")
        assert code == 0
        assert "PASS" in out
        assert "recursion-vs-enumeration" in out

    def test_perturbed_run_fails(self, capsys):
        code, out, _ = _run(capsys, "selftest", "--debug-perturb")
        assert code == 1
        assert "FAIL" in out
