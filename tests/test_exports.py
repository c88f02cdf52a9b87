"""Every name in a module's ``__all__`` resolves, and the math modules stay
below the report, suite and CLI layers.  Tracing tools walk ``__all__`` with
getattr, so a stale entry breaks them at import time."""

import ast
import importlib
import pkgutil
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
