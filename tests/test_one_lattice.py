"""The package works on one spectral lattice, checked on its source with :mod:`ast`.

Real fields are carried as ``rfftn`` half spectra, so no module in
``src/bousslab/*.py`` names the full-lattice transforms ``fftn``/``ifftn``
(a call, an attribute or an import).  The 2/3 cut of the dealiasing rule
is declared once, by ``Grid.dealias_cut``, so the code holds exactly one
floor division by 3.  Comments and docstrings are not code and do not
count.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bousslab"
FULL_LATTICE_TRANSFORMS = {"fftn", "ifftn"}


def package_trees() -> dict[str, ast.AST]:
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def names_used(node: ast.AST) -> set[str]:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name.split(".")[-1], node.asname or ""}
    return set()


def is_floor_division_by_three(node: ast.AST) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.FloorDiv):
        right = node.right if isinstance(node, ast.BinOp) else node.value
        return isinstance(right, ast.Constant) and right.value == 3
    return False


def test_no_module_uses_a_full_lattice_transform():
    found = {name: sorted(set().union(*map(names_used, ast.walk(tree)))
                          & FULL_LATTICE_TRANSFORMS)
             for name, tree in package_trees().items()}
    assert {name: used for name, used in found.items() if used} == {}


def test_the_two_thirds_cut_is_computed_once():
    found = [(name, node.lineno) for name, tree in package_trees().items()
             for node in ast.walk(tree) if is_floor_division_by_three(node)]
    assert len(found) == 1 and found[0][0] == "spectral.py", found


def test_the_checks_see_what_they_look_for():
    # the same walks on a snippet that breaks both rules
    tree = ast.parse("import numpy as np\nfrom numpy.fft import ifftn\n"
                     "a = np.fft.fftn(x)\nb = N // 3\nb //= 3\n'N // 3'\n")
    used = set().union(*(names_used(node) for node in ast.walk(tree)))
    assert FULL_LATTICE_TRANSFORMS <= used
    assert sum(map(is_floor_division_by_three, ast.walk(tree))) == 2
