"""Package hygiene: every exported name resolves, and no module imports scipy."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import treeloss

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
