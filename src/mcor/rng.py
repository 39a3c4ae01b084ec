"""Seedable 64-bit generator backing the simulation harness.

The core generator is SplitMix64: the state advances by the golden-ratio
increment GOLDEN_GAMMA = 0x9E3779B97F4A7C15 and each output word is the
new state passed through two xor-shift-multiply rounds (multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31). Everything
is modulo 2**64, so a seed pins the sequence bit for bit on any platform.
``mix64`` is that finalizer for one word.

A stream mixes its words a block at a time rather than one by one. The
states seed + k*GOLDEN_GAMMA (k = 1..size) of a block sit in consecutive
128-bit lanes of one Python int, lane k - 1 holding state k, and each
xor-shift and multiply runs once on the whole int. Lanes stay
independent because every lane is masked back to its low 64 bits before
each multiply: a 64-bit lane times a 64-bit multiplier is below 2**128,
so no product carries into the next lane, and the mask also clears the
bits a right shift pulls down from the lane above (after the last shift
those bits stay in the high half, which is never read). The block is
written out with ``int.to_bytes`` in little-endian order and read back by
a ``struct`` format that takes each lane's low 8 bytes as a little-endian
unsigned 64-bit word and skips the high 8. Both steps name the byte order
rather than use the machine's, so the words are the same on every
platform; the result is the same sequence as mixing one word at a time.
A new stream's first block holds 10 words and each refill doubles, up to
1024 words, so a short stream, such as one small Monte Carlo replicate,
pays for little it does not use; ``uniforms`` moves straight to the
first size that holds its request.

Uniform doubles lie strictly inside (0, 1): the top 53 bits of an output
word form an integer u in [0, 2**53) and (u + 0.5) * 2**-53 can reach
neither endpoint. Normals use the Marsaglia polar method: consecutive
uniforms u1, u2 map to v1 = 2*u1 - 1 and v2 = 2*u2 - 1; the pair is
rejected while s = v1*v1 + v2*v2 is 0 or >= 1; an accepted pair yields
v1 * sqrt(-2 ln(s) / s) immediately and caches the v2 twin for the next
call.
"""

from __future__ import annotations

import copy
import math
import struct
from functools import cache
from itertools import islice

from .errors import BadArguments

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_U53_SCALE = 2.0 ** -53

_MAX_BLOCK = 1024
# Block sizes a stream steps through: 10, 20, ..., 640, then 1024 for good.
_SIZES = tuple(10 << k for k in range(7)) + (_MAX_BLOCK,)
_TOP = len(_SIZES) - 1


def _block(size: int) -> tuple:
    """Constants for mixing ``size`` words at once: the state's advance
    size*GOLDEN_GAMMA mod 2**64; 1, k*GOLDEN_GAMMA and 2**64 - 1 in lane
    k - 1 of a packed int; the block's byte length; and the unpacker that
    reads each lane's low 64 bits back from little-endian bytes."""
    lanes = struct.Struct("<" + "Q8x" * size)  # low word, then 8 zero bytes

    def packed(words) -> int:
        return int.from_bytes(lanes.pack(*words), "little")

    return (
        (size * GOLDEN_GAMMA) & MASK64,
        packed([1] * size),
        GOLDEN_GAMMA * packed(range(1, size + 1)),
        packed([MASK64] * size),
        lanes.size,
        lanes.unpack,
    )


@cache
def _blocks() -> tuple:
    """Every block size's constants, built on the first refill, so a
    process that draws no numbers neither builds nor holds them."""
    return tuple(map(_block, _SIZES))


_NOTHING = iter(())  # stays exhausted, so every new stream can share it


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
    """SplitMix64 stream with uniform and normal variate helpers.

    Every draw reads the same buffer of mixed words, so any interleaving
    of the methods follows one stream.
    """

    __slots__ = ("_state", "_unread", "_rung", "_spare")

    def __init__(self, seed: int):
        self._state = seed & MASK64  # state of the last word mixed
        self._unread = _NOTHING  # mixed words not yet drawn
        self._rung = 0  # index into _SIZES of the next refill
        self._spare: float | None = None

    def __copy__(self) -> SplitMix64:
        # A shallow copy would share the iterator over the unread words.
        return copy.deepcopy(self)

    def _refill(self, need: int):
        """Mix the next block into the buffer and return the iterator that
        now serves it; called only once the previous block is used up.

        The block is the next size in _SIZES, or the first that holds
        ``need`` words, up to _MAX_BLOCK. Its words are mix64 of state +
        k*GOLDEN_GAMMA for k = 1..size, mixed in 128-bit lanes of one int
        as the module docstring describes.
        """
        rung = self._rung
        while _SIZES[rung] < need and rung < _TOP:
            rung += 1
        self._rung = rung + 1 if rung < _TOP else _TOP
        step, ones, gamma_ramp, low, nbytes, unpack = _blocks()[rung]
        state = self._state
        self._state = (state + step) & MASK64
        z = (state * ones + gamma_ramp) & low
        z = (((z ^ (z >> 30)) & low) * _MULT1) & low
        z = (((z ^ (z >> 27)) & low) * _MULT2) & low
        # Bits this shift pulls down from the lane above land in the high
        # half, which unpack skips.
        z ^= z >> 31
        self._unread = unread = iter(unpack(z.to_bytes(nbytes, "little")))
        return unread

    def next_u64(self) -> int:
        word = next(self._unread, None)
        if word is None:
            word = next(self._refill(1))
        return word

    def uniform(self) -> float:
        """One double strictly inside (0, 1): the top 53 bits of the next
        word, fetched as in next_u64()."""
        word = next(self._unread, None)
        if word is None:
            word = next(self._refill(1))
        return ((word >> 11) + 0.5) * _U53_SCALE

    def uniforms(self, count: int) -> list[float]:
        """``count`` uniforms; same stream as repeated uniform() calls."""
        out = [((w >> 11) + 0.5) * _U53_SCALE for w in islice(self._unread, count)]
        while len(out) < count:
            need = count - len(out)
            out += [((w >> 11) + 0.5) * _U53_SCALE for w in islice(self._refill(need), need)]
        return out

    def normal(self) -> float:
        """One standard normal via the polar method (see module docstring)."""
        spare = self._spare
        if spare is not None:
            self._spare = None
            return spare
        while True:
            w1 = next(self._unread, None)
            if w1 is None:
                w1 = next(self._refill(1))
            w2 = next(self._unread, None)
            if w2 is None:
                w2 = next(self._refill(1))
            v1 = 2.0 * (((w1 >> 11) + 0.5) * _U53_SCALE) - 1.0
            v2 = 2.0 * (((w2 >> 11) + 0.5) * _U53_SCALE) - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self._spare = v2 * factor
                return v1 * factor
