"""The suites' sampler against numpy's ``default_rng``: the same draws, bit
for bit, so the sampled points of a report stay those of numpy's stream."""

import math

import pytest

from ellex import suites
from ellex.sampler import Generator

np = pytest.importorskip("numpy")

# every suite seeds its own stream at seed + offset
OFFSETS = sorted({spec.runner.args[1] for spec in suites.SUITES.values()})
SEEDS = sorted({*range(64), *(7 + off for off in OFFSETS), 2**32 - 1, 2**32, 2**64 + 5, 10**30})
# the bounds the samplers draw between: log-radii, phases and moduli
BOUNDS = [(math.log(0.05), math.log(0.9)), (0.0, 2 * math.pi), (0, 2 * math.pi),
          (0.05, 0.6), (0.3, 0.7), (0.4, 0.75), (-3.5, 1.25)]


def test_the_offsets_cover_every_suite():
    assert len(OFFSETS) == len(suites.SUITES) and 7 + max(OFFSETS) in SEEDS


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_draws_equal_numpys(seed):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for i in range(300):
        low, high = BOUNDS[i % len(BOUNDS)]
        got = ours.uniform(low, high)
        assert type(got) is float and got == theirs.uniform(low, high), i


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(ValueError):
        Generator(seed)
