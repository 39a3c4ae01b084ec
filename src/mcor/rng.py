"""Seedable 64-bit generator backing the simulation harness.

The core generator is SplitMix64: the state advances by the golden-ratio
increment GOLDEN_GAMMA = 0x9E3779B97F4A7C15 and each output word is the
new state passed through two xor-shift-multiply rounds (multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31). Everything
is modulo 2**64, so a seed pins the sequence bit for bit on any platform.

Uniform doubles lie strictly inside (0, 1): the top 53 bits of an output
word form an integer u in [0, 2**53) and (u + 0.5) * 2**-53 can reach
neither endpoint. Normals use the Marsaglia polar method: consecutive
uniforms u1, u2 map to v1 = 2*u1 - 1 and v2 = 2*u2 - 1; the pair is
rejected while s = v1*v1 + v2*v2 is 0 or >= 1; an accepted pair yields
v1 * sqrt(-2 ln(s) / s) immediately and caches the v2 twin for the next
call.
"""

from __future__ import annotations

import math

from .errors import BadArguments

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_U53_SCALE = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 output finalizer (two xor-shift-multiply rounds)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _MULT1) & MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for substream ``index``: the (index+1)-th raw output of a
    SplitMix64 stream started at ``master_seed``.

    Serial and parallel replicate evaluation therefore see identical
    seeds.
    """
    if index < 0:
        raise BadArguments(f"stream index must be >= 0, got {index}")
    return mix64((master_seed + (index + 1) * GOLDEN_GAMMA) & MASK64)


class SplitMix64:
    """SplitMix64 stream with uniform and normal variate helpers."""

    __slots__ = ("_state", "_spare")

    def __init__(self, seed: int):
        self._state = seed & MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """One double strictly inside (0, 1): next_u64() mixed inline."""
        s = self._state = (self._state + GOLDEN_GAMMA) & MASK64
        z = ((s ^ (s >> 30)) * _MULT1) & MASK64
        z = ((z ^ (z >> 27)) * _MULT2) & MASK64
        return (((z ^ (z >> 31)) >> 11) + 0.5) * _U53_SCALE

    def uniforms(self, count: int) -> list[float]:
        """``count`` uniforms; same stream as repeated uniform() calls."""
        out = []
        append = out.append
        s = self._state
        for _ in range(count):
            s = (s + GOLDEN_GAMMA) & MASK64
            z = ((s ^ (s >> 30)) * _MULT1) & MASK64
            z = ((z ^ (z >> 27)) * _MULT2) & MASK64
            z ^= z >> 31
            append(((z >> 11) + 0.5) * _U53_SCALE)
        self._state = s
        return out

    def normal(self) -> float:
        """One standard normal via the polar method (see module docstring);
        the two uniforms of each attempt are mixed inline, as in uniform()."""
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        state = self._state
        while True:
            state = (state + GOLDEN_GAMMA) & MASK64
            z = ((state ^ (state >> 30)) * _MULT1) & MASK64
            z = ((z ^ (z >> 27)) * _MULT2) & MASK64
            v1 = 2.0 * ((((z ^ (z >> 31)) >> 11) + 0.5) * _U53_SCALE) - 1.0
            state = (state + GOLDEN_GAMMA) & MASK64
            z = ((state ^ (state >> 30)) * _MULT1) & MASK64
            z = ((z ^ (z >> 27)) * _MULT2) & MASK64
            v2 = 2.0 * ((((z ^ (z >> 31)) >> 11) + 0.5) * _U53_SCALE) - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                self._state = state
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self._spare = v2 * factor
                return v1 * factor
