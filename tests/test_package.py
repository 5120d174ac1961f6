"""The package's own shape: each module imports on its own, and none imports what it never uses."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# every module of the package, by the name it is imported as
MODULES = {
    "crashcast" if path.stem == "__init__" else f"crashcast.{path.stem}": path
    for path in sorted((SRC / "crashcast").glob("*.py"))
}

# (module, name) imported and never read in the module, each with why it stays
UNUSED_IMPORTS_ALLOWED = {
    # bench/tracer.py wraps the pairs enumeration by its name in crashcast.pipeline
    ("crashcast.pipeline", "enumerate_pairs"),
}


@pytest.mark.parametrize("module", sorted(MODULES))
def test_each_module_imports_alone_with_warnings_as_errors(module):
    """A fresh interpreter imports the module first, so no earlier import can hide a cycle."""
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", f"import {module}"],
        env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr


def _unused_imports(tree: ast.Module) -> set[str]:
    """The names a module's imports bind that no expression in it reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (module, name)
        for module, path in MODULES.items()
        for name in _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert unused == UNUSED_IMPORTS_ALLOWED
