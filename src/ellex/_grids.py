"""Deterministic sampling of verification grids.

Points come from a seeded generator so identical configurations reproduce
identical grids; the suites' samplers reject points near the pole and zero
spirals of the functions under test.
"""

from __future__ import annotations

import cmath
import math

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def log_annulus_point(
    rng: np.random.Generator, lo: float, hi: float
) -> complex:
    """Random point with log-uniform modulus in [lo, hi], uniform phase."""
    r = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)
