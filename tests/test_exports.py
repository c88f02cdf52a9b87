"""Every name in a module's ``__all__`` resolves, and the math modules stay
below the report, suite and CLI layers, which import only their public
names, and import one another at module level.  Tracing tools walk
``__all__`` with getattr, so a stale entry breaks them at import time.
Each module imports cleanly when it is loaded first, and ``import ellex``
loads none of them."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ellex

MODULES = ["ellex"] + [
    f"ellex.{info.name}"
    for info in pkgutil.iter_modules(ellex.__path__)
    if not info.name.startswith("_")
]

MATH_MODULES = ["qseries", "elliptic", "rmatrix", "exchange", "poisson"]
UPPER_LAYERS = {"ellex.report", "ellex.suites", "ellex.cli"}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []


# a fresh interpreter: ``import ellex`` alone, then each module named on the
# command line with no ellex module loaded before it; check_pshift runs its
# on-use import of exchange from an rmatrix loaded first
LOADED_FIRST = """
import importlib, sys

def unload():
    for name in [n for n in sys.modules if n.split(".")[0] == "ellex"]:
        del sys.modules[name]

import ellex
loaded = sorted(n for n in sys.modules if n.startswith("ellex."))
assert loaded == [], f"import ellex loaded {loaded}"
for name in sys.argv[1:]:
    unload()
    module = importlib.import_module(name)
    if name == "ellex.rmatrix":
        from ellex.elliptic import NomeParams
        module.check_pshift(1.1, NomeParams(0.2, 0.5))
"""


def test_each_module_imports_when_loaded_first():
    env = dict(os.environ, PYTHONPATH=str(Path(ellex.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_FIRST, *MODULES[1:]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


def _imported(tree: ast.Module) -> set[str]:
    """Absolute names of every module an import statement could bind: for
    ``from M import n`` both M and M.n, as n may be a submodule."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "ellex" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("name", MATH_MODULES)
def test_math_modules_do_not_import_upper_layers(name):
    source = Path(ellex.__file__).with_name(f"{name}.py").read_text()
    assert _imported(ast.parse(source)) & UPPER_LAYERS == set()


# the math modules import one another at module level, so their layering is
# fixed at load; each import made inside a function instead, with its reason
ON_USE_IMPORTS = {
    # exchange imports rmatrix.tau_fn as it loads, and the per-layer metric
    # names (module.function) fix both functions' modules
    "rmatrix": ["check_pshift imports exchange"],
}


def _math_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The math modules an import statement names."""
    if isinstance(node, ast.ImportFrom) and node.module not in (None, "ellex"):
        names = [node.module]
    else:  # import M, from . import M, from ellex import M
        names = [alias.name for alias in node.names]
    return [n.removeprefix("ellex.") for n in names if n.removeprefix("ellex.") in MATH_MODULES]


def _on_use_math_imports(tree: ast.Module) -> list[str]:
    """``f imports M`` for each import of a math module M inside a function f."""
    found: list[str] = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if function and isinstance(child, (ast.Import, ast.ImportFrom)):
                found.extend(f"{function} imports {m}" for m in _math_names(child))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
            else:
                visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("name", MATH_MODULES)
def test_math_modules_import_one_another_at_module_level(name):
    source = Path(ellex.__file__).with_name(f"{name}.py").read_text()
    assert _on_use_math_imports(ast.parse(source)) == ON_USE_IMPORTS.get(name, [])


def _private_math_imports(tree: ast.Module) -> list[str]:
    """``M.n`` for every name n starting with an underscore that an import
    statement takes from a math module M."""
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # ``from .poisson import`` and ``from ellex.poisson import`` alike
            module = (node.module or "").removeprefix("ellex.")
            if module in MATH_MODULES:
                names += [f"{module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return names


@pytest.mark.parametrize("name", sorted(UPPER_LAYERS))
def test_upper_layers_use_only_public_math_names(name):
    # the report, the suites and the CLI reach the math through public names
    source = Path(ellex.__file__).with_name(f"{name.split('.')[1]}.py").read_text()
    assert _private_math_imports(ast.parse(source)) == []


SOURCES = sorted(Path(ellex.__file__).parent.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names an import statement binds that the module never reads; names
    in ``__all__`` and ``__future__`` imports count as used."""
    bound: set[str] = set()
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _private_names(tree: ast.Module) -> set[str]:
    """Every underscore name a module imports or reads."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


def _attributes(tree: ast.Module) -> set[str]:
    """Every attribute name a module reads or writes."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_qseries_forms_theta_factors(path):
    # one theta kernel: every theta quotient, snh's T(y) included, goes
    # through qseries._theta_quotient, and elliptic keeps no copy of its
    # check-then-compute phase.  A module that forms a quotient gets its
    # checked base from qseries._base, never builds one itself, and leaves
    # the base's power table to qseries, as poisson leaves its series' term
    # count
    tree = ast.parse(path.read_text())
    names = _private_names(tree)
    if path.name != "qseries.py":
        assert names & {"_theta_pair", "_Base"} == set()
        assert _attributes(tree) & {"powers", "upto"} == set()
    if path.name in ("exchange.py", "rmatrix.py", "elliptic.py"):
        assert {"_base", "_theta_quotient"} <= names
    if path.name == "elliptic.py":
        assert names & {"_product", "_near_power", "_ZERO_RTOL"} == set()
    if path.name == "poisson.py":  # its series count comes from qseries
        assert _attributes(tree) & {"tail_tol", "max_terms"} == set()
