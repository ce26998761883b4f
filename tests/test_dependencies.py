"""pyproject.toml's runtime dependencies are exactly the packages src/ imports."""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imported_packages() -> set[str]:
    """Top-level names of every absolute import in src/darboux3, function-local ones included."""
    names = set()
    for path in sorted((ROOT / "src" / "darboux3").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_declared_dependencies_are_the_third_party_imports():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in project["dependencies"]}
    third_party = imported_packages() - set(sys.stdlib_module_names) - {"darboux3"}
    assert third_party == declared
