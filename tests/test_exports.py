"""Every name in a module's ``__all__`` resolves.  Tracing tools walk
``__all__`` with getattr, so a stale entry breaks them at import time."""

import importlib
import pkgutil

import pytest

import ellex

MODULES = ["ellex"] + [
    f"ellex.{info.name}"
    for info in pkgutil.iter_modules(ellex.__path__)
    if not info.name.startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert missing == []
