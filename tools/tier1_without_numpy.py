"""Run the tier-1 tests with numpy unimportable, as on an install without it.

    PYTHONPATH=src python3 tools/tier1_without_numpy.py [pytest arguments]

numpy is a test-only dependency: no command imports it, and the tests that
hold the sampler, the transform and the eight-vertex algebra to numpy skip
without it.  Every other test must pass here.  Exits with pytest's code.

A finder ahead of all others refuses the import with ModuleNotFoundError,
on which ``pytest.importorskip`` skips.  ``sys.modules["numpy"] = None``
would not do: hypothesis takes a "numpy" key in ``sys.modules`` as numpy
loaded and reaches for ``numpy.random``.
"""

import sys
from importlib.abc import MetaPathFinder

import pytest


class _NoNumpy(MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"{name} is blocked: running without numpy", name=name)
        return None


if __name__ == "__main__":
    if "numpy" in sys.modules:
        sys.exit("numpy was imported before it could be blocked")
    sys.meta_path.insert(0, _NoNumpy())
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]]))
