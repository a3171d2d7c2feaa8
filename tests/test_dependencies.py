"""The package imports exactly the runtime dependencies ``pyproject.toml`` declares.

Every import in ``src/bousslab/*.py`` is read with :mod:`ast`, function-level
imports included.  A third-party top-level module (neither standard library
nor ``bousslab`` itself) must be a declared runtime dependency, so a run
never meets an import that installing the package did not provide; and every
declared runtime dependency must be imported somewhere, so none is installed
for nothing.  Test-only packages (scipy among them) belong to the ``test``
extra.  The declared distributions are named like the modules they provide.
"""
from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bousslab"


def third_party_imports() -> dict[str, set[str]]:
    """Top-level third-party module -> the package files that import it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "bousslab":
                    found.setdefault(top, set()).add(path.name)
    return found


def declared_runtime_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.\-]+", spec).group(0).lower().replace("-", "_")
            for spec in project["dependencies"]}


def test_every_third_party_import_is_a_declared_dependency():
    imports = third_party_imports()
    undeclared = {m: sorted(files) for m, files in imports.items()
                  if m not in declared_runtime_dependencies()}
    assert undeclared == {}


def test_every_declared_dependency_is_imported():
    assert declared_runtime_dependencies() <= set(third_party_imports())


def test_scipy_is_a_test_dependency_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert "scipy" not in declared_runtime_dependencies()
    assert any(spec.startswith("scipy") for spec in project["optional-dependencies"]["test"])
    assert "scipy" not in third_party_imports()
