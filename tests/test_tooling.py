"""Package hygiene: exported names resolve, no module imports scipy, the
count rule (an int, not a bool, within bounds) and the fork of a worker
process are each written once, in ``_num``, and the edge budget rule once, in
``weights``."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import treeloss
from treeloss import (
    ModelParams,
    SimConfig,
    TreeSpec,
    WeightVector,
    center_occupancy,
    classify_by_iteration,
    edge_centered_tree,
    geometric_weights,
    log_concavity_margin,
    multicast_blocking,
    pair_interaction,
    path_tree,
    phase_window,
    poisson_weights,
    poisson_window_statistic,
    rooted_state,
    rooted_tree,
    spherical_tree,
    unicast_blocking,
)

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


def _model(**changes):
    fields = dict(q=2, cap=2, cv=1, ce=2, node_weights=poisson_weights(1.0, 1),
                  edge_weights=poisson_weights(1.0, 2))
    fields.update(changes)
    return ModelParams(**fields)


# each call passes True where an int of value 1 (or more) is expected
BOOL_FOR_INT = {
    "poisson_weights": lambda: poisson_weights(2.0, True),
    "geometric_weights": lambda: geometric_weights(2.0, True),
    "partial_sum": lambda: WeightVector((1.0, 0.5)).partial_sum(True),
    "exact_partial_sum": lambda: WeightVector((1.0, 0.5)).exact_partial_sum(True),
    "log_concavity_margin": lambda: log_concavity_margin(poisson_weights(1.0, 2), True),
    "ModelParams.q": lambda: _model(q=True),
    "ModelParams.cap": lambda: _model(cap=True, ce=1, edge_weights=poisson_weights(1.0, 1)),
    "ModelParams.cv": lambda: _model(cv=True),
    "ModelParams.ce": lambda: _model(ce=True, edge_weights=poisson_weights(1.0, 1)),
    "pair_interaction": lambda: pair_interaction(_model(), True, 0),
    "classify_by_iteration": lambda: classify_by_iteration(_model(), max_iter=True),
    "phase_window": lambda: phase_window(True, 2, poisson_weights(1.0, 2)),
    "poisson_window_statistic": lambda: poisson_window_statistic(True, 2, 1.0),
    "TreeSpec.rooted": lambda: TreeSpec("rooted", True),
    "TreeSpec.spherical": lambda: TreeSpec("spherical", True),
    "rooted_state": lambda: rooted_state(_model(), True),
    "center_occupancy": lambda: center_occupancy(_model(), True),
    "multicast_blocking": lambda: multicast_blocking(_model(), True),
    "unicast_blocking": lambda: unicast_blocking(_model(), True),
    "path_tree": lambda: path_tree(True),
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
