"""The seeded generator: reference vectors, determinism, variate shape."""

import copy
import math
import pickle
from itertools import islice
from math import fsum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcor import rng
from mcor.errors import BadArguments
from mcor.rng import (
    GOLDEN_GAMMA,
    MASK64,
    SplitMix64,
    derive_seed,
    polar_normals,
    uniform_stream,
)
from oracles import ScalarSplitMix64, unmix64

# 0, 1, the top bit alone, the largest seed (its first state wraps), and a
# seed whose fifth state wraps to 0, the one state whose word is 0.
EDGE_SEEDS = (0, 1, 2**63, 2**64 - 1, (-5 * GOLDEN_GAMMA) % 2**64)
# Block sizes a stream steps through, as the rng docstring gives them.
SIZES = (10, 20, 40, 80, 160, 320, 640, 1024)
# Enough words to run through every smaller block and then three
# largest-size blocks and into a fourth.
SPAN = sum(SIZES[:-1]) + 3 * rng._MAX_BLOCK + 7


class TestCoreGenerator:
    def test_reference_vector_seed_zero(self):
        # Known-answer outputs of the standard SplitMix64 sequence.
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(5)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
            0x1B39896A51A8749B,
        ]

    def test_reference_vector_seed_42(self):
        rng = SplitMix64(42)
        assert [rng.next_u64() for _ in range(3)] == [
            13679457532755275413,
            2949826092126892291,
            5139283748462763858,
        ]

    def test_same_seed_same_stream(self):
        a = SplitMix64(987654321)
        b = SplitMix64(987654321)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, pickle.dumps])
    def test_a_stream_cannot_be_copied_or_pickled(self, copier):
        # A shallow copy would share the stream's one iterator of words.
        stream = SplitMix64(77)
        stream.uniforms(15)  # part way into a block
        with pytest.raises(TypeError, match="cannot be copied or pickled"):
            copier(stream)

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()


class TestUniforms:
    def test_strictly_inside_unit_interval(self):
        rng = SplitMix64(7)
        for u in rng.uniforms(20000):
            assert 0.0 < u < 1.0

    def test_the_all_ones_word_gives_exactly_one(self):
        # Its top 53 bits are k = 2**53 - 1, and k + 0.5 rounds to the even
        # 2**53, so the interval is (0, 1], not (0, 1).
        seed = (unmix64(MASK64) - GOLDEN_GAMMA) % 2**64
        assert seed == 0x31628AF67B2131AB
        assert SplitMix64(seed).next_u64() == MASK64
        assert SplitMix64(seed).uniform() == 1.0
        assert next(uniform_stream(seed)) == 1.0
        # v1 = 2*1.0 - 1 = 1 makes s >= 1, so polar_normals rejects that
        # pair and yields what a stream that skipped its two words would.
        normals = polar_normals(uniform_stream(seed))
        skipped = polar_normals(islice(uniform_stream(seed), 2, None))
        assert list(islice(normals, 2)) == list(islice(skipped, 2))

    def test_batch_matches_single_calls(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert a.uniforms(500) == [b.uniform() for _ in range(500)]

    def test_uniform_is_the_top_53_bits_of_next_u64(self):
        # uniform() reads the word buffer itself; a twin stream pins it to
        # the documented map.
        a = SplitMix64(31415)
        b = SplitMix64(31415)
        for _ in range(10000):
            assert a.uniform() == ((b.next_u64() >> 11) + 0.5) * 2.0 ** -53

    def test_mean_near_half(self):
        rng = SplitMix64(2024)
        us = rng.uniforms(50000)
        assert abs(fsum(us) / len(us) - 0.5) < 0.005


class TestNormals:
    """polar_normals over a stream's uniforms, as generate draws them."""

    def test_deterministic(self):
        a = polar_normals(uniform_stream(55))
        b = polar_normals(uniform_stream(55))
        assert list(islice(a, 100)) == list(islice(b, 100))

    def test_moments(self):
        draws = list(islice(polar_normals(uniform_stream(300)), 50000))
        mean = fsum(draws) / len(draws)
        var = fsum((v - mean) ** 2 for v in draws) / (len(draws) - 1)
        assert abs(mean) < 0.02
        assert abs(math.sqrt(var) - 1.0) < 0.02

    def test_pair_caching_order(self):
        # The two normals of one accepted pair come from the same two
        # uniforms, and the next pair is read only once both are taken:
        # a uniform drawn after any normal is the oracle's, whose normal()
        # keeps the pair's second value for the next call.
        us, b = uniform_stream(909), ScalarSplitMix64(909)
        normals = polar_normals(us)
        for _ in range(1000):
            assert next(normals) == b.normal()
            assert next(us) == b.uniform()

    def test_polar_method_on_next_u64(self):
        # Rebuild the polar method from next_u64() of the same seed.
        def reference(rng):
            while True:
                v1 = 2.0 * (((rng.next_u64() >> 11) + 0.5) * 2.0 ** -53) - 1.0
                v2 = 2.0 * (((rng.next_u64() >> 11) + 0.5) * 2.0 ** -53) - 1.0
                s = v1 * v1 + v2 * v2
                if 0.0 < s < 1.0:
                    factor = math.sqrt(-2.0 * math.log(s) / s)
                    return v1 * factor, v2 * factor

        us, b = uniform_stream(2718), SplitMix64(2718)
        normals = polar_normals(us)
        for _ in range(2000):
            assert (next(normals), next(normals)) == reference(b)
            # interleaved uniforms continue from the same state
            assert next(us) == b.uniform()


class TestAgainstScalarOracle:
    """The block-mixed stream against tests/oracles.py, which mixes one
    word at a time and shares no code with the package."""

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_next_u64(self, seed):
        a, b = SplitMix64(seed), ScalarSplitMix64(seed)
        assert [a.next_u64() for _ in range(SPAN)] == [b.next_u64() for _ in range(SPAN)]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_uniform(self, seed):
        a, b = SplitMix64(seed), ScalarSplitMix64(seed)
        assert [a.uniform() for _ in range(SPAN)] == b.uniforms(SPAN)

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_uniforms(self, seed):
        a, b = SplitMix64(seed), ScalarSplitMix64(seed)
        assert a.uniforms(SPAN) == b.uniforms(SPAN)

    @pytest.mark.parametrize("lead", (0, 1))
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_normal(self, seed, lead):
        # Block sizes are even, so lead = 1 puts the second word of some
        # polar attempts first in a new block. Each normal uses about 1.27
        # words on average.
        us, b = uniform_stream(seed), ScalarSplitMix64(seed)
        assert list(islice(us, lead)) == b.uniforms(lead)
        count = SPAN * 4 // 5
        assert list(islice(polar_normals(us), count)) == [b.normal() for _ in range(count)]

    @pytest.mark.parametrize("lead", (0, 1, 9, 10, 31, 1270, 1271))
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_rest_as_uniforms(self, seed, lead):
        # uniform_stream read in two parts, the first ``lead`` uniforms and
        # then the rest of SPAN, through every block boundary; some leads
        # stop on a boundary or one word either side of it.
        us, b = uniform_stream(seed), ScalarSplitMix64(seed)
        assert list(islice(us, lead)) == b.uniforms(lead)
        assert list(islice(us, SPAN - lead)) == b.uniforms(SPAN - lead)

    def test_the_zero_word(self):
        stream = SplitMix64((-5 * GOLDEN_GAMMA) % 2**64)
        assert [stream.next_u64() for _ in range(6)][4:] == [0, ScalarSplitMix64(0).next_u64()]

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.one_of(st.sampled_from(EDGE_SEEDS), st.integers(0, MASK64)),
        calls=st.lists(
            st.one_of(
                st.sampled_from(["next_u64", "uniform"]),
                st.integers(0, 3 * rng._MAX_BLOCK),
            ),
            max_size=25,
        ),
    )
    def test_any_interleaving(self, seed, calls):
        # an integer stands for uniforms(count), from 0 past the block cap
        a, b = SplitMix64(seed), ScalarSplitMix64(seed)
        for call in calls:
            if isinstance(call, int):
                assert a.uniforms(call) == b.uniforms(call)
            else:
                assert getattr(a, call)() == getattr(b, call)()
        assert a.next_u64() == b.next_u64()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)

    def test_matches_splitmix_outputs(self):
        # Substream i's seed is the (i+1)-th raw output for the master seed.
        rng = SplitMix64(42)
        assert [derive_seed(42, i) for i in range(4)] == [rng.next_u64() for _ in range(4)]

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_matches_the_scalar_oracle(self, seed):
        # Past the first block's 10 words and across each edge seed's wrap.
        oracle = ScalarSplitMix64(seed)
        assert [derive_seed(seed, i) for i in range(25)] == [oracle.next_u64() for _ in range(25)]

    def test_indexes_give_distinct_seeds(self):
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(BadArguments):
            derive_seed(1, -1)
