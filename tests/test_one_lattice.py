"""The package works on one spectral lattice, checked on its source with :mod:`ast`.

Real fields are carried as ``rfftn`` half spectra, so no module in
``src/bousslab/*.py`` names the full-lattice transforms ``fftn``/``ifftn``
(a call, an attribute or an import).  The 2/3 cut of the dealiasing rule
is declared once, by ``Grid.dealias_cut``, so the code holds exactly one
floor division by 3.  The radial quadrature sits beside its one caller:
its functions, constants and error type are defined in ``linear.py`` alone,
and ``spectral.py``, the periodic box, imports nothing from it.  Comments
and docstrings are not code and do not count.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bousslab"
FULL_LATTICE_TRANSFORMS = {"fftn", "ifftn"}
RADIAL_QUADRATURE = {"_radial_integral", "_refined_integral", "_panel_sums", "_pack_sums",
                     "_gauss_kronrod", "_GAUSS_HALF", "_KRONROD_HALF", "_MAX_NODES",
                     "_GAUSS_ORDER", "_KRONROD_ORDER", "_BODY_RTOL", "_CUTOFF_DOUBLINGS",
                     "SPHERE_SURFACE", "QuadratureError"}


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


def names_defined(node: ast.AST) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {target.id for target in targets if isinstance(target, ast.Name)}
    return set()


def imports_linear(node: ast.AST) -> bool:
    """``import ….linear``, ``from ….linear import …`` or ``from … import linear``."""
    if isinstance(node, ast.Import):
        return any("linear" in alias.name.split(".") for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return any("linear" in f"{node.module}.{alias.name}".split(".")
                   for alias in node.names)
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


def test_the_radial_quadrature_is_defined_in_linear_alone():
    trees = package_trees()
    found = {name: set().union(*map(names_defined, ast.walk(tree))) & RADIAL_QUADRATURE
             for name, tree in trees.items()}
    assert {name: names for name, names in found.items() if names} == {
        "linear.py": RADIAL_QUADRATURE}
    assert not any(map(imports_linear, ast.walk(trees["spectral.py"])))


def test_the_checks_see_what_they_look_for():
    # the same walks on snippets that break every rule
    tree = ast.parse("import numpy as np\nfrom numpy.fft import ifftn\n"
                     "a = np.fft.fftn(x)\nb = N // 3\nb //= 3\n'N // 3'\n")
    used = set().union(*(names_used(node) for node in ast.walk(tree)))
    assert FULL_LATTICE_TRANSFORMS <= used
    assert sum(map(is_floor_division_by_three, ast.walk(tree))) == 2
    tree = ast.parse("_MAX_NODES = 2\n_BODY_RTOL: float = 1e-9\n"
                     "class QuadratureError(Exception): pass\n"
                     "def _radial_integral(): pass\n'def _gauss_kronrod(): pass'\n")
    assert set().union(*map(names_defined, ast.walk(tree))) & RADIAL_QUADRATURE == {
        "_MAX_NODES", "_BODY_RTOL", "QuadratureError", "_radial_integral"}
    for source in ("from .linear import SPHERE_SURFACE", "from . import linear",
                   "import bousslab.linear", "from bousslab.linear import _MAX_NODES"):
        assert any(map(imports_linear, ast.walk(ast.parse(source)))), source
    assert not any(map(imports_linear, ast.walk(ast.parse("from .symbols import linear_x"))))
