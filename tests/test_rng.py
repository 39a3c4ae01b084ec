"""The seeded generator: reference vectors, determinism, variate shape."""

import math
from math import fsum

import pytest

from mcor.errors import BadArguments
from mcor.rng import GOLDEN_GAMMA, MASK64, SplitMix64, derive_seed, mix64


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

    def test_seed_is_masked_to_64_bits(self):
        assert SplitMix64(1 << 64).next_u64() == SplitMix64(0).next_u64()

    def test_mix64_range(self):
        for z in (0, 1, GOLDEN_GAMMA, MASK64):
            assert 0 <= mix64(z) <= MASK64


class TestUniforms:
    def test_strictly_inside_unit_interval(self):
        rng = SplitMix64(7)
        for u in rng.uniforms(20000):
            assert 0.0 < u < 1.0

    def test_batch_matches_single_calls(self):
        a = SplitMix64(1234)
        b = SplitMix64(1234)
        assert a.uniforms(500) == [b.uniform() for _ in range(500)]

    def test_uniform_is_the_top_53_bits_of_next_u64(self):
        # uniform() mixes inline; a twin stream pins it to the documented map.
        a = SplitMix64(31415)
        b = SplitMix64(31415)
        for _ in range(10000):
            assert a.uniform() == ((b.next_u64() >> 11) + 0.5) * 2.0 ** -53

    def test_mean_near_half(self):
        rng = SplitMix64(2024)
        us = rng.uniforms(50000)
        assert abs(fsum(us) / len(us) - 0.5) < 0.005


class TestNormals:
    def test_deterministic(self):
        a = SplitMix64(55)
        b = SplitMix64(55)
        assert [a.normal() for _ in range(100)] == [b.normal() for _ in range(100)]

    def test_moments(self):
        rng = SplitMix64(300)
        draws = [rng.normal() for _ in range(50000)]
        mean = fsum(draws) / len(draws)
        var = fsum((v - mean) ** 2 for v in draws) / (len(draws) - 1)
        assert abs(mean) < 0.02
        assert abs(math.sqrt(var) - 1.0) < 0.02

    def test_pair_caching_order(self):
        # The two normals of one accepted polar pair consume the same
        # uniforms: drawing them one by one equals drawing them in pairs.
        a = SplitMix64(909)
        singles = [a.normal() for _ in range(10)]
        b = SplitMix64(909)
        pairs = []
        for _ in range(5):
            pairs.extend((b.normal(), b.normal()))
        assert singles == pairs


    def test_polar_method_on_next_u64(self):
        # normal() mixes inline; rebuild the polar method from next_u64().
        def reference(rng):
            while True:
                v1 = 2.0 * (((rng.next_u64() >> 11) + 0.5) * 2.0 ** -53) - 1.0
                v2 = 2.0 * (((rng.next_u64() >> 11) + 0.5) * 2.0 ** -53) - 1.0
                s = v1 * v1 + v2 * v2
                if 0.0 < s < 1.0:
                    factor = math.sqrt(-2.0 * math.log(s) / s)
                    return v1 * factor, v2 * factor

        a = SplitMix64(2718)
        b = SplitMix64(2718)
        for _ in range(2000):
            assert (a.normal(), a.normal()) == reference(b)
            # interleaved uniforms continue from the same state
            assert a.uniform() == b.uniform()


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, 0) == derive_seed(42, 0)

    def test_matches_splitmix_outputs(self):
        # Substream i's seed is the (i+1)-th raw output for the master seed.
        rng = SplitMix64(42)
        assert [derive_seed(42, i) for i in range(4)] == [rng.next_u64() for _ in range(4)]

    def test_indexes_give_distinct_seeds(self):
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(BadArguments):
            derive_seed(1, -1)
