"""Seedable 64-bit generator backing the simulation harness.

The core generator is SplitMix64: the state advances by the golden-ratio
increment GOLDEN_GAMMA = 0x9E3779B97F4A7C15 and each output word is the
new state passed through two xor-shift-multiply rounds (multipliers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31). Everything
is modulo 2**64, so a seed pins the sequence bit for bit on any platform.

One generator, ``_blocks``, mixes a stream's words a block at a time
rather than one by one; ``SplitMix64`` reads them as words,
``uniform_stream`` as uniforms and ``derive_seed`` takes the first word
of a stream. The states seed + k*GOLDEN_GAMMA (k = 1..size) of a block
sit in consecutive 128-bit lanes of one Python int, lane k - 1 holding
state k, and each xor-shift and multiply runs once on the whole int.
Lanes stay independent because every lane is masked back to its low 64
bits before each multiply: a 64-bit lane times a 64-bit multiplier is
below 2**128, so no product carries into the next lane, and the mask
also clears the bits a right shift pulls down from the lane above (after
the last shift those bits stay in the high half, which is never read).
The block is written out with ``int.to_bytes`` in little-endian order
and read back by a ``struct`` format that takes each lane's low 8 bytes
as a little-endian unsigned 64-bit word and skips the high 8. Both steps
name the byte order rather than use the machine's, so the words are the
same on every platform; the result is the same sequence as mixing one
word at a time. A stream's first block holds 10 words and each next
block doubles, up to 1024 words, so a short stream, such as one small
Monte Carlo replicate, pays for little it does not use. Block sizes
change only speed, never the words.

Uniform doubles lie in (0, 1]: the top 53 bits of an output word form an
integer k in [0, 2**53) and the double is (k + 0.5) * 2**-53. The sum
k + 0.5 is exact for k < 2**52. Above that, doubles are 1 apart, so the
sum rounds to the even one of k and k + 1 (ties to even): the uniforms in
[0.5, 1] are multiples of 2**-53, and k = 2**53 - 1 gives exactly 1.0.
The smallest uniform is 2**-54. Normals use the Marsaglia polar method:
consecutive uniforms u1, u2 map to v1 = 2*u1 - 1 and v2 = 2*u2 - 1; the
pair is rejected while s = v1*v1 + v2*v2 is 0 or >= 1; an accepted pair
yields v1 * sqrt(-2 ln(s) / s) and then its v2 twin.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from functools import cache
from itertools import chain, islice
from math import log, sqrt

from .errors import BadArguments

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MULT1 = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
_U53_SCALE = 2.0 ** -53

_MAX_BLOCK = 1024  # the size blocks double up to, from 10 words


@cache
def _block(size: int) -> tuple:
    """Constants for mixing ``size`` words at once: the state's advance
    size*GOLDEN_GAMMA mod 2**64; 1, k*GOLDEN_GAMMA and 2**64 - 1 in lane
    k - 1 of a packed int; the block's byte length; and the unpacker that
    reads each lane's low 64 bits back from little-endian bytes. Built for
    the first block of each size, so a process that draws no numbers
    neither builds nor holds them."""
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


def derive_seed(master_seed: int, index: int) -> int:
    """Seed for substream ``index``: the (index+1)-th raw output of a
    SplitMix64 stream started at ``master_seed``, which is the first word
    of the stream started ``index`` states further on.

    Serial and parallel replicate evaluation therefore see identical
    seeds.
    """
    if index < 0:
        raise BadArguments(f"stream index must be >= 0, got {index}")
    return next(_blocks(master_seed + index * GOLDEN_GAMMA, 0))[0]


def _uniforms(tops) -> list[float]:
    """The uniform double of each word's top 53 bits (module docstring)."""
    return [(k + 0.5) * _U53_SCALE for k in tops]


def polar_normals(uniforms: Iterator[float]) -> Iterator[float]:
    """Standard normals by the polar method (see module docstring), two
    per accepted pair; each pair of uniforms is read only once the normal
    before it has been taken."""
    uniforms = iter(uniforms)
    for u1, u2 in zip(uniforms, uniforms):
        v1 = 2.0 * u1 - 1.0
        v2 = 2.0 * u2 - 1.0
        s = v1 * v1 + v2 * v2
        if 0.0 < s < 1.0:
            factor = sqrt(-2.0 * log(s) / s)
            yield v1 * factor
            yield v2 * factor


def _blocks(seed: int, shift: int) -> Iterator[tuple[int, ...]]:
    """The stream's words a block at a time: the states seed + k*GOLDEN_GAMMA
    for k = 1, 2, ..., each through the output finalizer, in 128-bit lanes
    of one int as the module docstring describes, each word shifted right
    by ``shift`` <= 33 bits."""
    state, size = seed & MASK64, 10
    while True:
        step, ones, gamma_ramp, low, nbytes, unpack = _block(size)
        z = (state * ones + gamma_ramp) & low
        z = (((z ^ (z >> 30)) & low) * _MULT1) & low
        z = (((z ^ (z >> 27)) & low) * _MULT2) & low
        # Both right shifts below pull bits of the lane above into this
        # lane's high half, which unpack skips, and into its low half only
        # high-half bits 64..96, which are still 0 after the xor.
        z ^= z >> 31
        yield unpack((z >> shift).to_bytes(nbytes, "little"))
        state, size = (state + step) & MASK64, min(2 * size, _MAX_BLOCK)


def uniform_stream(seed: int) -> Iterator[float]:
    """The uniforms of ``SplitMix64(seed)`` without end, each block mixed
    straight into its words' top 53 bits."""
    return chain.from_iterable(map(_uniforms, _blocks(seed, 11)))


class SplitMix64:
    """SplitMix64 stream of words and uniform doubles. Every draw reads one
    iterator over the stream's words, so any interleaving of the methods
    follows one stream. Copying or pickling raises TypeError, as a copy
    would share that iterator: start a second stream from the seed."""

    __slots__ = ("_words",)

    def __init__(self, seed: int):
        self._words = chain.from_iterable(_blocks(seed, 0))

    def __reduce_ex__(self, protocol):
        raise TypeError("a SplitMix64 stream cannot be copied or pickled")

    def next_u64(self) -> int:
        return next(self._words)

    def uniform(self) -> float:
        """One double in (0, 1] from the next word (see module docstring)."""
        return self.uniforms(1)[0]

    def uniforms(self, count: int) -> list[float]:
        """``count`` uniforms; same stream as repeated uniform() calls."""
        return _uniforms([w >> 11 for w in islice(self._words, count)])
