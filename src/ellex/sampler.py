"""The verification suites' random stream: numpy's ``default_rng(seed)``
and its ``uniform`` in pure Python, bit for bit, so that a report's sampled
points depend on the seed alone and ``verify`` runs without numpy.

``default_rng(seed)`` is three steps, each mirrored by ``Generator(seed)``:
- SeedSequence turns the seed's 32-bit words into a pool of four words by
  the hash-and-mix rounds of numpy's ``bit_generator.pyx``, then expands the
  pool into four 64-bit words;
- PCG64 takes the first two as its 128-bit initial state and the last two
  as its increment, and steps state = state * MULTIPLIER + increment
  (mod 2^128), emitting the XSL-RR output of each new state;
- ``uniform(low, high)`` is low + (high - low) * (out >> 11) * 2^-53.

tests/test_sampler.py holds this to numpy's own generator.
"""

from __future__ import annotations

__all__ = ["Generator"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) for a non-negative int."""
    entropy = [0] if seed == 0 else []
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(value))
    words = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    # pairs of 32-bit words read as little-endian 64-bit words
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class Generator:
    """A PCG64 stream seeded as ``numpy.random.default_rng(seed)``."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        if int(seed) != seed or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        s0, s1, i0, i1 = _seed_words(int(seed))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (s0 << 64 | s1)) & _MASK128
        self._next64()

    def _next64(self) -> int:
        state = self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        rot = state >> 122
        word = (state >> 64 ^ state) & _MASK64
        return (word >> rot | word << (64 - rot)) & _MASK64

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """One draw from [low, high), as numpy's ``Generator.uniform``."""
        low, high = float(low), float(high)
        return low + (high - low) * ((self._next64() >> 11) * (1.0 / 9007199254740992.0))
