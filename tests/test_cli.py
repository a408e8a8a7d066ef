"""Command-line interface: schemas, exit codes, determinism, file output."""
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import treeloss
from treeloss import __version__, _num, rfmap, treecalc
from treeloss.cli import main
from treeloss.oracle import TreeSpec, exact_blocking, exact_partition, spherical_tree
from treeloss.phase1d import PhaseWindow, phase_window
from treeloss.rfmap import ModelParams
from treeloss.simulate import SimConfig, SimStats, run as sim_run
from treeloss.weights import geometric_weights, load_weight_file, poisson_weights

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
README_CURVE_SHA256 = "0174c01028406fffd8a802b7f9fc2a459135f6d6392a486de25400cbcbc7c465"
README_CLASSIFY_SHA256 = "c0204c5d59be2d943b730a79d3450cb96126dd7429bc1812d775aede2e4ba9c7"

# `treeloss simulate` as the README runs it
README_SIMULATE_JSON = """{
  "edge_beta": 0.41412485965694557,
  "edge_beta_se": 0.0019883517791319093,
  "edge_blocked": 19602,
  "edge_offered": 47330,
  "node_beta": 0.7731494210903507,
  "node_beta_se": 0.0018787462103812584,
  "node_blocked": 36497,
  "node_offered": 47203,
  "occupancy": [
    0.77073535657892,
    0.2292646434210799
  ],
  "occupancy_se": [
    0.002473114870040961,
    0.0024731148700409622
  ],
  "post_warmup_events": 331718,
  "replications": 24
}
"""


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _neumaier_sum(values, start=0):
    """The builtin ``sum`` of floats from CPython 3.12 on: Neumaier's compensated addition."""
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


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
        # underflows to zero (second); phase_window refuses both
        wf = tmp_path / "w.txt"
        wf.write_text("\n".join(entries) + "\n")
        code, out, err = _run(
            capsys, "window", "--q", str(q), "--cap", "2", "--weights", f"file:{wf}"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: window beyond the float range at q = {q}: {reason}\n"

    @pytest.mark.parametrize("q", ["500", "1000"])
    def test_infinite_endpoint_is_usage_error(self, capsys, q):
        # nu_plus (q = 500) or both endpoints (q = 1000) saturate to inf, which
        # JSON cannot carry, so phase_window refuses them
        with pytest.raises(ValueError, match="nu_plus is not finite"):
            phase_window(int(q), 2, poisson_weights(7.0, 2))
        assert _run(capsys, "window", "--q", q, "--cap", "2", "--lam", "7") == (
            2, "", f"error: window beyond the float range at q = {q}: nu_plus is not finite\n"
        )

    @pytest.mark.parametrize("exp", [150, 155, 200, 300])
    def test_a_q_that_overflows_the_window_is_named(self, capsys, exp):
        # from about q = 1.3e154 on, q alone takes the window's coefficients
        # beyond the floats; below it, nu_plus saturates as at q = 500
        if exp == 150:
            reason = "nu_plus is not finite"
        else:
            reason = "integer division result too large for a float"
        message = f"window beyond the float range at q = 1e+{exp}: {reason}"
        q = str(10**exp)
        window = _run(capsys, "window", "--q", q, "--cap", "2", "--lam", "5")
        sweep = _run(capsys, "sweep-region", "--q", q, "--cap", "2", "--lam-min", "5",
                     "--lam-max", "6", "--lam-step", "1", "--jobs", "1")
        assert window == sweep == (2, "", f"error: {message}\n")

    def test_q_beyond_the_float_range_is_usage_error(self, capsys):
        # the window raises ratios to the power q as a float exponent
        assert _run(capsys, "window", "--q", str(10**400), "--cap", "2", "--lam", "1") == (
            2, "", "error: q must be at most the largest float, 1.7976931348623157e+308\n"
        )

    def test_json_only_command_rejects_csv(self, capsys):
        code, _, err = _run(
            capsys,
            "window", "--q", "6", "--cap", "2", "--weights", "poisson", "--lam", "5",
            "--format", "csv",
        )
        assert code == 2
        assert "unrecognized arguments: --format csv" in err

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
        ("1", "unique", "bisection"),     # a nonincreasing cv = 1 map is never iterated
        ("26.5", "unique", "bisection"),
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

    def test_converged_run_without_the_order_is_inconclusive(self, capsys, tmp_path):
        # the edge sums 1, 1.04, 2.34 are not log-concave: the run from 0 settles
        # at one fixed point, while the run from (nu, 0) reaches another
        wf = tmp_path / "w.txt"
        wf.write_text("1\n0.04058270999673785\n1.3043017599545044\n")
        code, out, _ = _run(
            capsys, "classify", "--q", "12", "--cap", "2", "--cv", "2", "--ce", "2",
            "--weights", f"file:{wf}", "--nu", "79.35687883366793",
        )
        assert code == 0
        doc = json.loads(out)
        assert (doc["kind"], doc["method"], doc["iterations"]) == ("inconclusive", "unordered", 29)
        assert doc["fixed_point"] is None
        assert doc["even_limit"] == doc["odd_limit"] == [0.003216868428253506, 0.07631017959940609]

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
        # the first load is fine; at the second, T_1 = 1e300 + 1e300 * nu overflows
        (("--cap", "3", "--ce", "1", "--lam", "1e300", "--nu-max", "1e10", "--nu-step", "5e9"),
         "weights too large for floats: the map's numerator at the node weights is inf"),
    ])
    def test_invalid_flags_refused_before_the_pool_starts(self, capsys, stub_fork, flags, message):
        serial = _run(capsys, *self.ARGS, *flags, "--jobs", "1")
        assert _run(capsys, *self.ARGS, *flags, "--jobs", "2") == serial == (
            2, "", f"error: {message}\n"
        )
        assert stub_fork == []

    def test_a_tail_failing_from_mid_grid_is_refused_at_its_first_row(self, capsys, stub_fork):
        # nu = 1e102, 2e102, ..., 2e103 at cv = 3: nu**3 / 6 overflows from
        # the eighth row on, so that row's error is the serial loop's
        grid = ("--cap", "3", "--cv", "3", "--nu-min", "1e102", "--nu-step", "1e102")
        assert _run(capsys, *self.ARGS, *grid, "--nu-max", "7e102")[0] == 0
        assert _run(capsys, *self.ARGS, *grid, "--nu-max", "2e103", "--jobs", "2") == (
            2, "", "error: weight entries must be finite and >= 0: (1.0, 8e+102, 3.2e+205, inf)\n"
        )
        assert stub_fork == []

    def test_no_output_depends_on_the_interpreters_sum(self, capsys, monkeypatch):
        assert _neumaier_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
        argv = (
            "blocking-curve", "--q", "10", "--cap", "2", "--cv", "2", "--ce", "2",
            "--lam", "0.72", "--nu-min", "13", "--nu-max", "18", "--nu-step", "5",
        )
        plain = _run(capsys, *argv)
        assert plain[0] == 0
        for module in (_num, rfmap, treecalc):
            monkeypatch.setattr(module, "sum", _neumaier_sum, raising=False)
        assert _run(capsys, *argv) == plain

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


@pytest.mark.parametrize("weights,message", [
    ("file", "edge_weights needs length ce+1=3, got 2"),
    ("poisson", "--lam is required for poisson/geometric weights when ce >= 1"),
])
def test_edge_weights_that_do_not_fit_the_model_are_refused(capsys, tmp_path, weights, message):
    # at cap = 2 the edge weights need ce + 1 = 3 entries, and poisson ones a rate
    w = tmp_path / "w.txt"
    w.write_text("1\n0.5\n")
    family = f"file:{w}" if weights == "file" else weights
    argv = ("classify", "--q", "2", "--cap", "2", "--weights", family, "--nu", "1")
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")


# each command's flags besides the model's, at ce = 1 where it has a --ce
FLAGS_AT_CE_1 = {
    "classify": ("--ce", "1", "--nu", "1"),
    "enumerate": ("--ce", "1", "--nu", "1", "--radius", "1"),
    "simulate": ("--ce", "1", "--nu", "1", "--radius", "1"),
    "blocking-curve": ("--ce", "1", "--nu-min", "1", "--nu-max", "2", "--nu-step", "1",
                       "--jobs", "2"),
    "window": (),
}


@pytest.mark.parametrize("command", list(FLAGS_AT_CE_1))
def test_a_weight_file_longer_than_the_model_is_refused(capsys, stub_fork, tmp_path, command):
    # a file is read whole: entries beyond ce + 1 (cap + 1 for window) are an
    # error, found before any worker forks, not a tail to drop unread
    w = tmp_path / "w.txt"
    w.write_text("1\n0.5\n0.3\n0.2\n")
    argv = (command, "--q", "2", "--cap", "2", "--weights", f"file:{w}", *FLAGS_AT_CE_1[command])
    if command == "window":
        message = "edge weights need length cap+1=3, got 4"
    else:
        message = "edge_weights needs length ce+1=2, got 4"
    assert _run(capsys, *argv) == (2, "", f"error: {message}\n")
    assert stub_fork == []


# a valid run of each command, which one flag more makes invalid
VALID_ARGV = {
    "classify": ("--q", "2", "--cap", "2", "--lam", "1", "--nu", "1"),
    "window": ("--q", "6", "--cap", "2", "--lam", "5"),
    "blocking-curve": ("--q", "2", "--cap", "2", "--lam", "1", "--nu-min", "1",
                       "--nu-max", "1", "--nu-step", "1"),
    "sweep-region": ("--q", "6", "--cap", "2", "--lam-min", "5", "--lam-max", "5",
                     "--lam-step", "1"),
    "enumerate": ("--q", "2", "--cap", "2", "--lam", "1", "--nu", "1", "--radius", "1"),
    "simulate": ("--q", "2", "--cap", "2", "--lam", "1", "--nu", "1", "--radius", "1",
                 "--horizon", "10", "--reps", "1", "--jobs", "1"),
    "selftest": (),
}


@pytest.mark.parametrize("command,flag", [
    *((command, "--format json") for command in VALID_ARGV if command != "selftest"),
    ("selftest", "--debug-perturb"),
])
def test_removed_flags_are_unrecognized(capsys, command, flag):
    code, out, _ = _run(capsys, command, "--help")
    assert code == 0 and flag.split()[0] not in out
    code, _, err = _run(capsys, command, *VALID_ARGV[command], *flag.split())
    assert code == 2
    assert f"unrecognized arguments: {flag}" in err


def test_import_leaves_numpy_unloaded():
    # numpy costs a tenth of a second to import, and no module needs it
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
    # workers are forked by _num.map_tasks, so nothing in the package needs
    # concurrent.futures, which would cost tens of milliseconds to import
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
         "window beyond the float range at q = 6: integer division result too large for a float"),
    ])
    def test_invalid_family_refused_before_the_pool_starts(self, capsys, stub_fork, flags, message):
        base = {"--weights": "poisson", "--lam-min": "1", "--lam-max": "2", "--lam-step": "0.5"}
        base.update(zip(flags[::2], flags[1::2]))
        code, out, err = _run(
            capsys, "sweep-region", "--q", "6", "--cap", "2",
            *(x for kv in base.items() for x in kv), "--jobs", "2",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert stub_fork == []

    @pytest.mark.parametrize("flag,message", [
        ("--q", "q must be an int >= 1, got 0"),
        ("--cap", "cap must be an int >= 2, got 0"),
    ])
    def test_invalid_q_or_cap_refused_before_the_pool_starts(
        self, capsys, stub_fork, flag, message
    ):
        argv = [
            "sweep-region", "--q", "6", "--cap", "2", "--weights", "poisson",
            "--lam-min", "1", "--lam-max", "2", "--lam-step", "0.5", flag, "0",
        ]
        serial = _run(capsys, *argv, "--jobs", "1")
        assert _run(capsys, *argv, "--jobs", "2") == serial == (2, "", f"error: {message}\n")
        assert stub_fork == []

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
            "error: window beyond the float range at q = 6: "
            "integer division result too large for a float\n"
        )

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_infinite_endpoint_is_usage_error(self, capsys, jobs):
        assert _run(
            capsys,
            "sweep-region", "--q", "3000", "--cap", "2", "--lam-min", "7", "--lam-max", "7",
            "--lam-step", "1", "--jobs", jobs,
        ) == (2, "", "error: window beyond the float range at q = 3000: nu_plus is not finite\n")

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

    def test_prints_every_result_field(self, capsys):
        # a field of SimStats that the payload leaves out cannot come back unseen
        code, out, _ = _run(capsys, *self.ARGS)
        assert code == 0
        assert set(json.loads(out)) == {f.name for f in dataclasses.fields(SimStats)}

    def test_overflowing_default_warmup_names_the_rates(self, capsys):
        assert _run(
            capsys, "simulate", "--q", "2", "--cap", "2", "--lam", "1", "--nu", "1e308",
            "--radius", "1",
        ) == (
            2, "", "error: node rate 1e+308 and edge rate 1.0 overflow the default warmup "
            "10 * (1 + node rate + edge rate)\n"
        )

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

    def test_a_forking_run_leaves_numpy_unloaded(self):
        # the simulator draws from the standard library, so a run that forks
        # its workers has imported no numpy (and no BLAS thread) by its end
        probe = (
            "import os, sys\n"
            "from treeloss.cli import main\n"
            "assert main(sys.argv[1:] + ['--out', os.devnull]) == 0\n"
            "print('numpy' in sys.modules)\n"
        )
        src = str(Path(treeloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", probe, *self.ARGS, "--jobs", "2"],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == b"False"

    def test_default_jobs_is_the_usable_cpu_count(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(
            "treeloss.simulate.run", lambda cfg, jobs: seen.append(jobs) or sim_run(cfg)
        )
        assert _run(capsys, *self.ARGS)[0] == 0
        assert seen == [len(os.sched_getaffinity(0))]

    def test_usable_cpus_falls_back_to_the_cpu_count(self, monkeypatch):
        # the default --jobs on a platform without an affinity call
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _num._usable_cpus() == (os.cpu_count() or 1)

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

    def test_huge_cap_is_refused_at_once(self):
        # the edge weights of a 10^18 cap run out of a 1 GiB address space, so
        # the cap must be refused before the vector is built
        src = str(Path(treeloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "treeloss", "simulate", "--q", "2", "--cap", str(10**18),
             "--lam", "1", "--nu", "1", "--radius", "1", "--horizon", "50", "--jobs", "1"],
            capture_output=True, env=env, timeout=60,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)),
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            b"error: weight vector top index must be an int in [0, 1000], got 1000000000000000000\n"
        )
        assert proc.stdout == b""

    def test_unbounded_work_is_refused_at_once(self):
        # arrivals 1e-308 apart stop advancing the float clock, so without the
        # expected-arrivals bound this run spins at one instant forever
        src = str(Path(treeloss.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "treeloss", "simulate", "--q", "2", "--cap", "2",
             "--lam", "1", "--nu", "1e308", "--radius", "1", "--warmup", "0", "--horizon", "1",
             "--reps", "1", "--jobs", "1"],
            capture_output=True, env=env, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr == (
            b"error: the run expects more than 1e+308 arrivals, replications * horizon * "
            b"(nodes * node rate + edges * edge rate); simulate takes at most 1e+09\n"
        )
        assert proc.stdout == b""

    def test_huge_replication_count_is_refused_at_once(self):
        # the tallies of 10^8 replications run out of a 1 GiB address space,
        # so the count must be refused before any replication runs
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

    # each check, and a function it calls, broken to an error just past its
    # tolerance; an id "check/what" is a second break of the same check
    BREAKS = {
        "recursion-vs-enumeration": ("treeloss.treecalc.rooted_state", lambda f: (
            lambda p, m: dataclasses.replace(f(p, m), log_z0=f(p, m).log_z0 + 1e-6))),
        "blocking-vs-enumeration": ("treeloss.treecalc.multicast_blocking", lambda f: (
            lambda p, radius: f(p, radius) + 1e-6)),
        "conjugacy": ("treeloss.cli.interaction_map", lambda f: (
            lambda p, psi: tuple(x * (1 + 1e-6) for x in f(p, psi)))),
        "phase-boundaries": ("treeloss.phase1d.condition_a", lambda f: (
            lambda q, cap, w: not f(q, cap, w))),
        "window-endpoints": ("treeloss.phase1d.phase_window", lambda f: (
            lambda q, cap, w: dataclasses.replace(f(q, cap, w), nu_plus=f(q, cap, w).nu_plus * 1.01))),
        "window-endpoints/lost": ("treeloss.phase1d.phase_window", lambda f: (
            lambda q, cap, w: PhaseWindow(present=False))),
    }

    @pytest.mark.parametrize("check", sorted(BREAKS))
    def test_a_broken_check_fails_on_its_own_line(self, capsys, monkeypatch, check):
        target, wrap = self.BREAKS[check]
        module, name = target.rsplit(".", 1)
        monkeypatch.setattr(target, wrap(getattr(sys.modules[module], name)))
        code, out, _ = _run(capsys, "selftest")
        assert code == 1
        lines = out.splitlines()
        failed = [line.split()[0] for line in lines[1:-1] if line.split()[1] == "FAIL"]
        assert failed == [check.split("/")[0]]
        assert lines[-1].startswith("FAIL in ")


class TestOverflowingWeights:
    """A model whose map step would form inf/inf exits 2; models below the overflow answer."""

    MESSAGE = "error: weights too large for floats: the map's numerator at the node weights is inf\n"

    @pytest.fixture
    def weights(self, tmp_path):
        path = tmp_path / "w.txt"

        def write(*entries) -> str:
            path.write_text("\n".join(entries) + "\n")
            return f"file:{path}"

        return write

    def test_classify_is_refused(self, capsys, weights):
        assert _run(
            capsys, "classify", "--q", "2", "--cap", "2",
            "--weights", weights("1e300", "1e300", "1e300"), "--nu", "1e10",
        ) == (2, "", self.MESSAGE)

    @pytest.mark.parametrize("cv", ["1", "2"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_blocking_curve_is_refused_before_the_pool(self, capsys, stub_fork, weights, cv, jobs):
        assert _run(
            capsys, "blocking-curve", "--q", "2", "--cap", "2", "--cv", cv,
            "--weights", weights("1e300", "1e300", "1e300"),
            "--nu-min", "1e10", "--nu-max", "1e10", "--nu-step", "1", "--jobs", jobs,
        ) == (2, "", self.MESSAGE)
        assert stub_fork == []

    def test_models_below_the_overflow_still_answer(self, capsys, weights):
        # the denominator overflows on its own at large ratios, giving a ratio of 0
        code, out, _ = _run(
            capsys, "classify", "--q", "2", "--cap", "2",
            "--weights", weights("1", "1e300", "2e300"), "--nu", "1e10",
        )
        assert code == 0
        # the bracket [0, m(0)] reaches down to the subnormals before x* is found
        assert json.loads(out) == {
            "kind": "multiple", "iterations": 2244, "method": "bisection", "fixed_point": None,
            "even_limit": [0.0], "odd_limit": [1111111111.111111],
        }
        code, out, _ = _run(
            capsys, "classify", "--q", "2", "--cap", "2", "--lam", "2", "--nu", "1e308"
        )
        assert code == 0
        assert json.loads(out) == {
            "kind": "unique", "iterations": 57, "method": "bisection",
            "fixed_point": [1.1111111111111113e+307], "even_limit": None, "odd_limit": None,
        }


class TestWorkerCount:
    """``--jobs`` above the usable CPUs runs on the usable CPUs; no process starts here."""

    @pytest.mark.parametrize("argv", [
        ("blocking-curve", "--q", "2", "--cap", "2", "--ce", "0",
         "--nu-min", "1", "--nu-max", "3", "--nu-step", "1"),
        ("sweep-region", "--q", "6", "--cap", "2",
         "--lam-min", "5.99", "--lam-max", "6.02", "--lam-step", "0.01"),
        TestSimulateCommand.ARGS,
    ])
    @pytest.mark.parametrize("jobs,workers", [("1", 1), ("2", 2), ("100000", 2)])
    def test_jobs_capped_at_the_usable_cpus(
        self, capsys, monkeypatch, stub_fork, argv, jobs, workers
    ):
        monkeypatch.setattr(_num, "_usable_cpus", lambda: 2)
        if workers == 1:
            assert _run(capsys, *argv, "--jobs", jobs)[0] == 0
        else:
            with pytest.raises(RuntimeError, match="sent no results"):
                main([*argv, "--jobs", jobs, "--out", os.devnull])
        assert len(stub_fork) == workers - 1


# ---------------------------------------------------------------- hostile argv

# An argv is drawn valid, then up to two of its flag values are swapped for
# hostile ones: counts that are negative, 0 or huge, floats that are nan,
# infinite, 1e308, subnormal, 0 or negative, choices that name nothing. Every
# case stays cheap: --horizon <= 50, --reps <= 3, at most 50 grid rows,
# --max-iter <= 10**4 and --jobs 1 (window takes no --jobs); a hostile rate
# under a drawn --warmup is refused by its expected arrivals.
_HOSTILE = {
    "count": st.sampled_from([-3, -1, 0, 10**18, 2**63, 10**400]),
    "float": st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "5e-324",
                              "2.2250738585072014e-308", "0", "-1"]),
    "horizon": st.sampled_from(["nan", "-inf", "-1e308", "5e-324", "0", "-1"]),
    "small": st.sampled_from([-1, 0, 3]),
    "choice": st.sampled_from(["", "nan", "-1"]),
}


def _argv(draw, command: str, flags: dict) -> list:
    """``command`` with ``flags`` (flag: (kind, valid value)), up to two made hostile."""
    values = {flag: value for flag, (_, value) in flags.items()}
    hostile = draw(st.integers(0, 2))
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), min_size=hostile,
                              max_size=hostile, unique=True)):
        values[flag] = draw(_HOSTILE[flags[flag][0]])
    for grid in ("nu", "lam"):
        if f"--{grid}-step" in values:
            # max = min + k * step: a valid grid has k + 1 <= 50 rows
            lo, step = float(values[f"--{grid}-min"]), float(values[f"--{grid}-step"])
            values[f"--{grid}-max"] = lo + draw(st.integers(-1, 48)) * step
    jobs = [] if command == "window" else ["--jobs", "1"]
    return [command, *jobs, *(str(x) for kv in values.items() for x in kv)]


def _model_flags(draw, q: int) -> dict:
    cap = draw(st.integers(1, 3))
    return {
        "--q": ("count", draw(st.integers(1, q))),
        "--cap": ("count", cap),
        "--cv": ("count", draw(st.integers(1, cap))),
        "--ce": ("count", draw(st.integers(0, cap))),
        "--weights": ("choice", draw(st.sampled_from(["poisson", "geometric"]))),
        "--lam": ("float", draw(st.floats(0.05, 1.5))),
    }


# weight files drawn for simulate, one per distinct content, removed at exit
_WEIGHT_DIR = tempfile.TemporaryDirectory(prefix="treeloss-weights-")


def _weight_file(draw, size: int) -> str:
    """``file:PATH`` of the first ``size`` (at most four) entries of a Poisson or
    geometric series in full or in 12 digits, of one that is neither past its
    first two entries, or of one with w_0 = 2."""
    lam = draw(st.integers(1, 15)) / 10
    series = draw(st.sampled_from([poisson_weights, geometric_weights]))(lam, 3).entries
    spell = draw(st.sampled_from([repr, "{:.12g}".format]))
    entries = draw(st.sampled_from([
        [spell(x) for x in series], ["1", "0.5", "0.3", "0.2"], ["2", "1", "0.25", "0.0625"],
    ]))
    text = "\n".join(entries[:size]) + "\n"
    path = Path(_WEIGHT_DIR.name, hashlib.sha256(text.encode()).hexdigest()[:16])
    path.write_text(text)
    return f"file:{path}"


@st.composite
def _simulate_argv(draw) -> list:
    flags = _model_flags(draw, 3)
    if draw(st.booleans()):
        flags["--weights"] = ("choice", _weight_file(draw, flags["--ce"][1] + 1))
    flags["--nu"] = ("float", draw(st.floats(0.05, 1.5)))
    if draw(st.booleans()):
        flags["--height"] = ("count", draw(st.integers(0, 3)))
    else:
        flags["--radius"] = ("count", draw(st.integers(1, 2)))
    if draw(st.booleans()):
        flags["--warmup"] = ("float", draw(st.floats(0.0, 10.0)))
    flags["--horizon"] = ("horizon", draw(st.floats(20.0, 50.0)))
    flags["--reps"] = ("small", draw(st.integers(1, 3)))
    flags["--seed"] = ("count", draw(st.integers(0, 2**32)))
    flags["--durations"] = ("choice", draw(st.sampled_from(["exponential", "deterministic"])))
    return _argv(draw, "simulate", flags)


@st.composite
def _blocking_curve_argv(draw) -> list:
    flags = _model_flags(draw, 12)
    flags["--nu-min"] = ("float", draw(st.floats(0.05, 50.0)))
    flags["--nu-step"] = ("float", draw(st.floats(0.05, 5.0)))
    flags["--max-iter"] = ("small", draw(st.sampled_from([4, 100, 10**4])))
    flags["--tol"] = ("float", draw(st.sampled_from([1e-12, 1e-14])))
    flags["--sep"] = ("float", draw(st.sampled_from([1e-8, 1e-6])))
    return _argv(draw, "blocking-curve", flags)


@st.composite
def _window_argv(draw) -> list:
    """``window`` or ``sweep-region`` at q up to 10**400 and rates up to 1e200."""
    cap = draw(st.one_of(st.integers(2, 6), st.sampled_from([200, 1000])))
    q = draw(st.one_of(st.integers(1, 60), st.integers(0, 400).map(lambda e: 10**e)))
    lam = draw(st.one_of(st.floats(1e-3, 50.0), st.floats(1e-3, 1e200)))
    flags = {
        "--q": ("count", q),
        "--cap": ("count", cap),
        "--weights": ("choice", draw(st.sampled_from(["poisson", "geometric"]))),
    }
    if draw(st.booleans()):
        flags["--lam"] = ("float", lam)
        return _argv(draw, "window", flags)
    flags["--lam-min"] = ("float", lam)
    flags["--lam-step"] = ("float", draw(st.floats(1e-3, 50.0)))
    return _argv(draw, "sweep-region", flags)


@settings(max_examples=300)
@given(st.one_of(_simulate_argv(), _blocking_curve_argv()))
# a q beyond the float range overflowed int-to-float in the blocking column
@example(["blocking-curve", "--q", str(10**400), "--cap", "1", "--lam", "1",
          "--nu-min", "1", "--nu-max", "1", "--nu-step", "1", "--max-iter", "4"])
def test_no_input_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=300)
@given(_window_argv())
# q alone saturates nu_plus, so the refusal names q
@example(["window", "--q", str(10**150), "--cap", "2", "--lam", "5"])
# the Poisson entries underflow: the model assumption fails, exit 3
@example(["window", "--q", "6", "--cap", "1000", "--lam", "1"])
def test_no_window_input_ends_in_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
