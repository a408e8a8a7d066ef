"""Package hygiene: exported names resolve, every exported function, every
public method of an exported class and every ``SimConfig`` field has a
caller outside its module, every field of an exported dataclass a reader
outside it, every subcommand option a mention in the README or a passer in
the scripts or perfbench, no module imports numpy, scipy or a memo
decorator, the count rule (an int, not a bool, within bounds) and the fork
of a worker process are each written once, in ``_num``, the edge budget rule
once, in ``weights``, the map's row sums once, in ``rfmap``, every bisection
runs in ``rfmap``, no float result depends on the builtin ``sum``, and the
README's Python examples run."""
import argparse
import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import treeloss
from treeloss import (
    ModelParams,
    SimConfig,
    TreeSpec,
    center_occupancy,
    classify_by_iteration,
    condition_a_margin,
    edge_centered_tree,
    geometric_weights,
    multicast_blocking,
    phase_window,
    poisson_weights,
    poisson_window_statistic,
    rooted_state,
    rooted_tree,
    spherical_tree,
    unicast_blocking,
)
from treeloss.cli import build_parser
from treeloss.rfmap import _pair_interaction

SRC = Path(treeloss.__file__).parent
# __main__ runs the command line on import, so it is left out
MODULES = ["treeloss"] + [
    f"treeloss.{info.name}" for info in pkgutil.iter_modules([str(SRC)])
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


ROOT = Path(__file__).resolve().parents[1]  # the checkout the tests live in


def _python_sources() -> list:
    """(defining module or None, source text) of every place a caller may use
    the package from: src/, the scripts, perfbench, the acceptance tests and
    the README's Python examples."""
    sources = [(f"treeloss.{f.stem}", f.read_text(encoding="utf-8")) for f in SRC.glob("*.py")]
    files = [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    sources += [(None, f.read_text(encoding="utf-8")) for f in files]
    sources += [(None, block) for block in _readme_python_blocks()]
    return sources


def _readme_python_blocks() -> list:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, re.S)


def test_readme_python_examples_run():
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    outputs = []
    for block in _readme_python_blocks():
        proc = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    assert len(outputs) == 2
    quickstart, cross_check = outputs
    assert quickstart[:2] == ["True 26.770974722340235 90.72625356427147", "multiple"]
    assert len(cross_check) == 1 and cross_check[0].startswith("True ")


def _exported_callables() -> dict:
    """Each exported function, and each public method or property that an
    exported class defines, by the module that defines it."""
    found = {}
    for name in treeloss.__all__:
        value = getattr(treeloss, name)
        if inspect.isfunction(value):
            found[name] = value.__module__
        elif inspect.isclass(value):
            found.update(
                (attr, value.__module__) for attr, member in vars(value).items()
                if not attr.startswith("_")
                and (inspect.isfunction(member) or isinstance(member, property))
            )
    return found


def test_every_exported_function_has_a_caller():
    # an exported function or method that only its own unit tests call is
    # API to keep for no one: it must be imported, or reached as an
    # attribute, outside the module that defines it
    functions = _exported_callables()
    used = set()
    for module, text in _python_sources():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            used.update(n for n in names if n in functions and functions[n] != module)
    assert len(functions) > 20
    assert sorted(set(functions) - used) == []


def test_every_sim_config_field_has_a_caller():
    # a SimConfig option that no caller outside simulate sets is a switch
    # kept for the unit tests alone, and every run pays for reading it
    passed = set()
    for module, text in _python_sources():
        if module == "treeloss.simulate":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and "SimConfig" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                passed.update(k.arg for k in node.keywords)
    assert sorted({f.name for f in fields(SimConfig)} - passed) == []


def _exported_dataclass_fields() -> dict:
    """The defining module of each (class, field) of each dataclass in ``__all__``."""
    return {
        (name, f.name): value.__module__ for name in treeloss.__all__
        if is_dataclass(value := getattr(treeloss, name)) for f in fields(value)
    }


def _fields_emitted_whole(tree) -> set:
    """(class, field) of each dataclass a payload emits through ``fields(x)``.

    ``x`` must be a name that the same function bound to the result of a call
    to an exported function; the dataclass is the one that function's return
    annotation names, as ``verdict = classify_by_iteration(...)`` makes
    ``fields(verdict)`` emit every ``UniquenessVerdict`` field."""
    emitted = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        returns = {}
        for node in ast.walk(func):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                    and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name)):
                callee = node.value.func
                callee = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if callee in treeloss.__all__:
                    returns[node.targets[0].id] = getattr(treeloss, callee).__annotations__.get("return")
        for node in ast.walk(func):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "fields"
                    and len(node.args) == 1 and isinstance(node.args[0], ast.Name)
                    and returns.get(node.args[0].id) in treeloss.__all__):
                cls = returns[node.args[0].id]
                emitted.update((cls, f.name) for f in fields(getattr(treeloss, cls)))
    return emitted


def test_every_exported_dataclass_field_has_a_reader():
    # a result field that only its own module's unit tests read is computed on
    # every call for no one: outside its module it must be reached as an
    # attribute, passed as a keyword, or emitted whole by a payload
    owners = _exported_dataclass_fields()
    read = set()
    for module, text in _python_sources():
        tree = ast.parse(text)
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword)}
        read |= {key for key, owner in owners.items() if key[1] in names and owner != module}
        read |= {key for key in _fields_emitted_whole(tree) if owners[key] != module}
    assert len(owners) > 30
    assert sorted(set(owners) - read) == []


def test_every_subcommand_option_is_documented_or_used():
    # an option that the README never names and no script or benchmark passes
    # is a switch no user can find
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        (command, option) for command, parser in sub.choices.items()
        for action in parser._actions if action.dest != "help"
        for option in action.option_strings
    }
    named = set(re.findall(r"--[a-z][a-z0-9-]*", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in [*ROOT.glob("scripts/*.py"), *ROOT.glob("perfbench/*.py")]:
        named.update(
            node.value for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        )
    assert len(options) > 50
    assert sorted(x for x in options if x[1] not in named) == []


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    files = sorted(SRC.rglob("*.py"))
    assert files
    assert [str(f.relative_to(SRC)) for f in files if "scipy" in _imported_roots(f)] == []


def test_no_module_imports_numpy():
    # the simulator draws from the standard library's random, so no command
    # pays numpy's import
    files = sorted(SRC.rglob("*.py"))
    assert files
    assert [str(f.relative_to(SRC)) for f in files if "numpy" in _imported_roots(f)] == []


MEMOS = {"lru_cache", "cache"}


def _memo_names(path: Path) -> list:
    """Each ``functools.lru_cache`` or ``functools.cache`` a module imports or names."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [alias.name for alias in node.names if alias.name in MEMOS]
        elif (isinstance(node, ast.Attribute) and node.attr in MEMOS
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append(node.attr)
    return found


def test_no_module_imports_a_memo():
    # each ModelParams builds its coefficient table once; a memo keyed on a
    # whole model served no second caller
    files = sorted(SRC.rglob("*.py"))
    assert files
    assert {f.name: _memo_names(f) for f in files if _memo_names(f)} == {}


def _model(**changes):
    fields = dict(q=2, cap=2, cv=1, ce=2, node_weights=poisson_weights(1.0, 1),
                  edge_weights=poisson_weights(1.0, 2))
    fields.update(changes)
    return ModelParams(**fields)


# each call passes True where an int of value 1 (or more) is expected
BOOL_FOR_INT = {
    "poisson_weights": lambda: poisson_weights(2.0, True),
    "geometric_weights": lambda: geometric_weights(2.0, True),
    "condition_a_margin": lambda: condition_a_margin(2, True, poisson_weights(1.0, 2)),
    "ModelParams.q": lambda: _model(q=True),
    "ModelParams.cap": lambda: _model(cap=True, ce=1, edge_weights=poisson_weights(1.0, 1)),
    "ModelParams.cv": lambda: _model(cv=True),
    "ModelParams.ce": lambda: _model(ce=True, edge_weights=poisson_weights(1.0, 1)),
    "_pair_interaction": lambda: _pair_interaction(_model(), True, 0),
    "classify_by_iteration": lambda: classify_by_iteration(_model(), max_iter=True),
    "phase_window": lambda: phase_window(True, 2, poisson_weights(1.0, 2)),
    "poisson_window_statistic": lambda: poisson_window_statistic(True, 2, 1.0),
    "TreeSpec.rooted": lambda: TreeSpec("rooted", True),
    "TreeSpec.spherical": lambda: TreeSpec("spherical", True),
    "rooted_state": lambda: rooted_state(_model(), True),
    "center_occupancy": lambda: center_occupancy(_model(), True),
    "multicast_blocking": lambda: multicast_blocking(_model(), True),
    "unicast_blocking": lambda: unicast_blocking(_model(), True),
    "rooted_tree.q": lambda: rooted_tree(True, 1),
    "rooted_tree.height": lambda: rooted_tree(2, True),
    "spherical_tree": lambda: spherical_tree(2, True),
    "edge_centered_tree": lambda: edge_centered_tree(2, True),
    "SimConfig.replications": lambda: SimConfig(_model(), TreeSpec("spherical", 1), replications=True),
    "SimConfig.seed": lambda: SimConfig(_model(), TreeSpec("spherical", 1), seed=True),
}


@pytest.mark.parametrize("name", sorted(BOOL_FOR_INT))
def test_bool_is_not_an_int(name):
    with pytest.raises(ValueError, match="must be an int"):
        BOOL_FOR_INT[name]()


def _call_sites(matches) -> set:
    """(file, enclosing function) of every call in the package for which ``matches(call)``."""
    found = set()

    def visit(node, name, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and matches(node):
            found.add((name, where))
        for child in ast.iter_child_nodes(node):
            visit(child, name, where)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "<module>")
    return found


def _is_bool_type_test(call) -> bool:
    if not (isinstance(call.func, ast.Name) and call.func.id == "isinstance"
            and len(call.args) == 2):
        return False
    types = call.args[1]
    names = types.elts if isinstance(types, ast.Tuple) else [types]
    return any(isinstance(t, ast.Name) and t.id == "bool" for t in names)


def test_bool_type_tests_live_in_num():
    # _num holds the count rule; the other two tell entry types and format output
    allowed = {("weights.py", "_is_valid_entry"), ("cli.py", "_fmt")}
    found = _call_sites(_is_bool_type_test)
    assert any(f == "_num.py" for f, _ in found)
    assert sorted(x for x in found if x[0] != "_num.py" and x not in allowed) == []


def _is_min_of_ce(call) -> bool:
    names = (
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
        for arg in call.args for n in ast.walk(arg)
    )
    return isinstance(call.func, ast.Name) and call.func.id == "min" and "ce" in names


def test_edge_budget_rule_lives_in_clipped_rows():
    # min(cap - k - j, ce) is written once; every table of it comes from there
    assert _call_sites(_is_min_of_ce) == {("weights.py", "_clipped_rows")}


def _is_os_fork(call) -> bool:
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "fork"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "os")


def test_one_process_pool_in_the_package():
    # the fork-join in _num.map_tasks is the one place a worker process starts
    assert _call_sites(_is_os_fork) == {("_num.py", "map_tasks")}
    files = sorted(SRC.rglob("*.py"))
    forks = [
        f.name for f in files for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "fork"
        or isinstance(node, ast.alias) and node.name == "fork"
    ]
    assert forks == ["_num.py"]
    pools = [f.name for f in files if _imported_roots(f) & {"concurrent", "multiprocessing"}]
    assert pools == []


# modules whose floats must not depend on how the interpreter's sum() adds
# (compensated from CPython 3.12 on); oracle and simulate sum ints, or use
# the exactly rounded math.fsum
FLOAT_MODULES = ["_num.py", "phase1d.py", "rfmap.py", "treecalc.py", "weights.py"]


def test_float_modules_never_call_the_builtin_sum():
    uses = [
        f for f in FLOAT_MODULES
        for node in ast.walk(ast.parse((SRC / f).read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "sum"
    ]
    assert uses == []


def test_row_sums_are_defined_once_in_rfmap():
    # T_k = sum_j rows[k][j] x_j, added left to right, has one definition
    defs = [
        f.name for f in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "_row_sums"
    ]
    assert defs == ["rfmap.py"]


def _is_bisect(call) -> bool:
    f = call.func
    return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_bisect"


def test_bisections_live_in_rfmap():
    # the cv = 1 fixed point has one finder, which phase1d.fixed_point calls too
    assert _call_sites(_is_bisect) == {
        ("rfmap.py", "_sandwich_root"), ("rfmap.py", "_decide_scalar"),
    }
