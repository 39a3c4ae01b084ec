"""Symmetric-matrix construction and the eigensolver."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcor import SplitMix64
from mcor import linalg
from mcor.errors import (BadArguments, LengthMismatch, NoConvergence, NonFiniteEntry,
                         NumericInconsistency)
from mcor.linalg import (
    MAX_SWEEPS,
    EigenSpectrum,
    _clamp,
    eigenvalues_symmetric,
    frobenius_norm_sq,
    make_symmetric,
)
from oracles import eig_bisect
from support import rand_symmetric


class TestMakeSymmetric:
    def test_2x2_from_lower_triangle(self):
        m = make_symmetric(2, [1.0, 0.5, 1.0])
        assert m.rows == ((1.0, 0.5), (0.5, 1.0))

    def test_dim_1(self):
        assert make_symmetric(1, [3.0]).rows == ((3.0,),)

    def test_all_ones_3x3(self):
        m = make_symmetric(3, [1.0] * 6)
        assert m.rows == ((1.0, 1.0, 1.0),) * 3

    def test_mirror_is_exact(self):
        rng = SplitMix64(11)
        m = rand_symmetric(rng, 7)
        for i in range(7):
            for j in range(7):
                assert m.rows[i][j] == m.rows[j][i]

    def test_wrong_length(self):
        with pytest.raises(LengthMismatch):
            make_symmetric(3, [1.0] * 5)

    def test_non_finite(self):
        with pytest.raises(NonFiniteEntry):
            make_symmetric(2, [1.0, float("nan"), 1.0])
        with pytest.raises(NonFiniteEntry):
            make_symmetric(2, [1.0, float("inf"), 1.0])

    @pytest.mark.parametrize("dim, lower, where", [
        (2, [1, 10**400, 1], "row 2, column 1"),
        (3, [1.0, 0.5, 1.0, 0.2, float("nan"), 1.0], "row 3, column 2"),
        (3, [1.0, 0.5, 1.0, 0.2, 0.1, -float("inf")], "row 3, column 3"),
    ])
    def test_non_finite_is_named_by_position(self, dim, lower, where):
        # The position, not the value: an int past the float range would
        # otherwise print all its digits.
        with pytest.raises(NonFiniteEntry) as caught:
            make_symmetric(dim, lower)
        assert str(caught.value) == f"matrix entry at {where} is not finite"

    def test_zero_dim(self):
        with pytest.raises(BadArguments):
            make_symmetric(0, [])


class TestFrobeniusNormSq:
    def test_identity_3x3(self):
        m = make_symmetric(3, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        assert frobenius_norm_sq(m) == 3.0

    def test_all_ones_3x3(self):
        assert frobenius_norm_sq(make_symmetric(3, [1.0] * 6)) == 9.0

    def test_2x2_half(self):
        assert frobenius_norm_sq(make_symmetric(2, [1.0, 0.5, 1.0])) == 2.5

    def test_sum_past_the_float_maximum_rejected(self):
        # Each square, 1.69e308, is finite; their sum is not.
        with pytest.raises(NonFiniteEntry):
            frobenius_norm_sq(make_symmetric(2, [1.3e154] * 3))


class TestTrace:
    def test_partial_sums_past_the_float_maximum(self):
        # 1e308 + 1e308 overflows on the way to the exact sum, 1e308.
        assert make_symmetric(3, [1e308, 0, 1e308, 0, 0, -1e308]).trace() == 1e308

    def test_sum_past_the_float_maximum_rejected(self):
        with pytest.raises(NonFiniteEntry):
            make_symmetric(2, [1e308, 0, 1e308]).trace()

    def test_subnormal_sum_is_exactly_rounded(self):
        # A scaled copy of this diagonal (shift 1) would lose the 5e-324.
        assert make_symmetric(3, [1.0, 0, -1.0, 0, 0, 5e-324]).trace() == 5e-324

    def test_overflowing_partial_sums_keep_small_terms(self):
        # fsum overflows on 1e308 + 1e308; the exact sum is the 1e-20.
        diagonal = [1e308, 1e308, -1e308, -1e308, 1e-20]
        lower = [diagonal[i] if j == i else 0.0 for i in range(5) for j in range(i + 1)]
        assert make_symmetric(5, lower).trace() == 1e-20


class TestEigenvaluesSymmetric:
    def test_2x2_correlation_half(self):
        spectrum = eigenvalues_symmetric(make_symmetric(2, [1.0, 0.5, 1.0]))
        assert spectrum.values == pytest.approx((1.5, 0.5), abs=1e-14)

    def test_identity_3x3(self):
        m = make_symmetric(3, [1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        spectrum = eigenvalues_symmetric(m)
        assert spectrum.values == (1.0, 1.0, 1.0)
        assert spectrum.sweeps_used == 0

    def test_all_ones_3x3(self):
        spectrum = eigenvalues_symmetric(make_symmetric(3, [1.0] * 6))
        assert spectrum.values == pytest.approx((3.0, 0.0, 0.0), abs=1e-12)

    def test_3x3_arrowhead_rank_two(self):
        # [[1,0,a],[0,1,b],[a,b,1]] with a^2 + b^2 = 1 has spectrum {2, 1, 0}
        a, b = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
        m = make_symmetric(3, [1.0, 0.0, 1.0, a, b, 1.0])
        oracle = eig_bisect([list(row) for row in m.rows])
        assert oracle == pytest.approx([2.0, 1.0, 0.0], abs=1e-10)
        spectrum = eigenvalues_symmetric(m)
        assert spectrum.values == pytest.approx((2.0, 1.0, 0.0), abs=1e-10)

    def test_diagonal_uses_zero_sweeps(self):
        m = make_symmetric(3, [4.0, 0.0, 1.0, 0.0, 0.0, 3.0])
        spectrum = eigenvalues_symmetric(m)
        assert spectrum.sweeps_used == 0
        assert spectrum.values == (4.0, 3.0, 1.0)

    def test_zero_matrix(self):
        spectrum = eigenvalues_symmetric(make_symmetric(2, [0.0, 0.0, 0.0]))
        assert spectrum.values == (0.0, 0.0)
        assert spectrum.sweeps_used == 0

    def test_values_sorted_descending(self):
        rng = SplitMix64(5)
        for _ in range(25):
            spectrum = eigenvalues_symmetric(rand_symmetric(rng, 6))
            assert all(
                spectrum.values[i] >= spectrum.values[i + 1]
                for i in range(len(spectrum.values) - 1)
            )

    def test_no_convergence_carries_residual(self, monkeypatch):
        m = make_symmetric(2, [1.0, 0.9, 1.0])
        monkeypatch.setattr(linalg, "MAX_SWEEPS", 0)
        with pytest.raises(NoConvergence) as excinfo:
            eigenvalues_symmetric(m)
        assert excinfo.value.residual > 0.0

    @pytest.mark.parametrize("tri, expected", [
        ([1.0, 1e200, 1.0], (1e200, -1e200)),
        ([0.0, 1e-200, 0.0], (1e-200, -1e-200)),
    ])
    def test_squares_beyond_the_float_range(self, tri, expected):
        # the squares overflow to inf or underflow to 0
        spectrum = eigenvalues_symmetric(make_symmetric(2, tri))
        assert spectrum.values == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("tri, expected", [
        ([1.0, 1e-200, 0.0, 1e-200, 0.0, -1.0], (1.0, 0.0, -1.0)),
        ([0.0, 3.9150092286940095e-307, 0.0, 0.0, 1.0, 2.0],
         (1.0 + math.sqrt(2.0), 0.0, 1.0 - math.sqrt(2.0))),
    ])
    def test_entries_far_below_the_scale_beside_a_tiny_block(self, tri, expected):
        # Such an entry must count as zero, or QL spins until MAX_SWEEPS.
        spectrum = eigenvalues_symmetric(make_symmetric(3, tri))
        assert spectrum.values == pytest.approx(expected, rel=0.0, abs=1e-15)

    def test_power_of_two_scaling_is_exact(self):
        m = rand_symmetric(SplitMix64(23), 6)
        base = eigenvalues_symmetric(m)
        for k in (-1000, -600, -1, 1, 600, 1000):
            tri = [math.ldexp(m.rows[i][j], k) for i in range(6) for j in range(i + 1)]
            spectrum = eigenvalues_symmetric(make_symmetric(6, tri))
            assert spectrum.values == tuple(math.ldexp(v, k) for v in base.values)
            assert spectrum.sweeps_used == base.sweeps_used

    def test_eigenvalue_beyond_the_float_range(self):
        # every off-diagonal 1.5e308: the top eigenvalue is 3e308
        m = make_symmetric(3, [1.0, 1.5e308, 1.0, 1.5e308, 1.5e308, 1.0])
        with pytest.raises(NonFiniteEntry, match="eigenvalue"):
            eigenvalues_symmetric(m)

    def test_result_type(self):
        spectrum = eigenvalues_symmetric(make_symmetric(2, [2.0, 0.3, 1.0]))
        assert isinstance(spectrum, EigenSpectrum)
        assert spectrum.off_diag_residual >= 0.0


class TestSpectralIdentities:
    def test_trace_and_frobenius_random(self):
        rng = SplitMix64(101)
        for d in range(1, 13):
            for _ in range(20):
                m = rand_symmetric(rng, d, scale=5.0)
                spectrum = eigenvalues_symmetric(m)
                trace = m.trace()
                assert abs(math.fsum(spectrum.values) - trace) <= 1e-10 * max(
                    1.0, abs(trace)
                )
                fro2 = frobenius_norm_sq(m)
                assert abs(
                    math.fsum(v * v for v in spectrum.values) - fro2
                ) <= 1e-8 * max(1.0, fro2)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8).flatmap(
            lambda d: st.lists(
                st.floats(min_value=-100.0, max_value=100.0),
                min_size=d * (d + 1) // 2,
                max_size=d * (d + 1) // 2,
            )
        )
    )
    @example(tri=[0.0, 1.1125369292536007e-308, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0])
    @example(tri=[1.0, 1e-200, 0.0, 1e-200, 0.0, -1.0])
    def test_trace_identity_hypothesis(self, tri):
        d = int((math.isqrt(8 * len(tri) + 1) - 1) // 2)
        m = make_symmetric(d, tri)
        spectrum = eigenvalues_symmetric(m)
        trace = m.trace()
        assert abs(math.fsum(spectrum.values) - trace) <= 1e-10 * max(1.0, abs(trace))

    def test_2x2_closed_form_grid(self):
        # [[1,r],[r,1]] has spectrum {1+|r|, 1-|r|}
        for k in range(1000):
            r = -1.0 + 2.0 * k / 999.0
            spectrum = eigenvalues_symmetric(make_symmetric(2, [1.0, r, 1.0]))
            assert abs(spectrum.values[0] - (1.0 + abs(r))) <= 1e-12
            assert abs(spectrum.values[1] - (1.0 - abs(r))) <= 1e-12

    def test_3x3_arrowhead_closed_form(self):
        # [[1,0,a],[0,1,b],[a,b,1]] has spectrum {1+h, 1, 1-h}, h = hypot(a,b)
        rng = SplitMix64(202)
        for i in range(200):
            a = 2.0 * rng.uniform() - 1.0
            b = 2.0 * rng.uniform() - 1.0
            h = math.hypot(a, b)
            m = make_symmetric(3, [1.0, 0.0, 1.0, a, b, 1.0])
            spectrum = eigenvalues_symmetric(m)
            expected = sorted([1.0 + h, 1.0, 1.0 - h], reverse=True)
            for got, want in zip(spectrum.values, expected):
                assert abs(got - want) <= 1e-10
            if i < 5:  # closed form itself verified against the oracle
                oracle = eig_bisect([list(row) for row in m.rows])
                for got, want in zip(oracle, expected):
                    assert abs(got - want) <= 1e-9

    def test_eigensolver_matches_bisection_oracle(self):
        rng = SplitMix64(303)
        for _ in range(40):
            d = 2 + rng.next_u64() % 5
            m = rand_symmetric(rng, d, scale=3.0)
            values = eigenvalues_symmetric(m).values
            oracle = eig_bisect([list(row) for row in m.rows])
            for got, want in zip(values, oracle):
                assert abs(got - want) <= 1e-9


def equicorrelation(d: int, rho: float) -> list[float]:
    """Lower triangle of (1 - rho) I + rho 11^T."""
    return [1.0 if i == j else rho for i in range(d) for j in range(i + 1)]


def equicorrelation_spectrum(d: int, rho: float) -> list[float]:
    return [1.0 + (d - 1) * rho] + [1.0 - rho] * (d - 1)


def block_diagonal(d1: int, rho1: float, d2: int, rho2: float):
    rows = [[0.0] * (d1 + d2) for _ in range(d1 + d2)]
    for offset, d, rho in ((0, d1, rho1), (d1, d2, rho2)):
        for i in range(d):
            for j in range(d):
                rows[offset + i][offset + j] = 1.0 if i == j else rho
    return make_symmetric(d1 + d2, [rows[i][j] for i in range(d1 + d2) for j in range(i + 1)])


def max_gap(values, expected) -> float:
    return max(abs(a - b) for a, b in zip(values, sorted(expected, reverse=True)))


class TestClosedFormSpectra:
    """Sizes the bisection oracle cannot reach, against exact spectra."""

    @pytest.mark.parametrize("d", [2, 3, 10, 60, 120])
    def test_equicorrelation(self, d):
        for rho in (-1.0 / (d - 1), 0.0, 0.3, 1.0):
            spectrum = eigenvalues_symmetric(make_symmetric(d, equicorrelation(d, rho)))
            assert max_gap(spectrum.values, equicorrelation_spectrum(d, rho)) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 10, 60, 120])
    def test_two_equicorrelation_blocks(self, d):
        # The zero coupling between the blocks is a zero sub-diagonal entry
        # after the reduction, so QL must split there.
        d1, d2 = d // 2, d - d // 2
        for rho in (-1.0 / (d - 1), 0.0, 0.3, 1.0):
            spectrum = eigenvalues_symmetric(block_diagonal(d1, rho, d2, 0.6))
            expected = equicorrelation_spectrum(d1, rho) + equicorrelation_spectrum(d2, 0.6)
            assert max_gap(spectrum.values, expected) <= 1e-12


class TestIterationCap:
    def test_sweeps_used_is_the_cap_that_suffices(self, monkeypatch):
        # The cap bounds each eigenvalue's QL iterations: the count the
        # solver reports is enough, one fewer is not.
        rng = SplitMix64(404)
        for _ in range(60):
            d = 2 + rng.next_u64() % 11
            m = rand_symmetric(rng, d)
            spectrum = eigenvalues_symmetric(m)
            assert 1 <= spectrum.sweeps_used <= MAX_SWEEPS
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "MAX_SWEEPS", spectrum.sweeps_used)
                assert eigenvalues_symmetric(m) == spectrum
                patch.setattr(linalg, "MAX_SWEEPS", spectrum.sweeps_used - 1)
                with pytest.raises(NoConvergence) as excinfo:
                    eigenvalues_symmetric(m)
            assert excinfo.value.residual > 0.0

    def test_takes_no_iteration_cap(self):
        with pytest.raises(TypeError):
            eigenvalues_symmetric(make_symmetric(2, [1.0, 0.5, 1.0]), max_sweeps=5)

    def test_residual_is_at_roundoff_level(self):
        # A sub-diagonal entry is dropped only once adding it no longer
        # changes the largest |diagonal| + |sub-diagonal| seen.
        rng = SplitMix64(505)
        for _ in range(40):
            d = 2 + rng.next_u64() % 11
            m = rand_symmetric(rng, d)
            largest = max(abs(v) for row in m.rows for v in row)
            assert eigenvalues_symmetric(m).off_diag_residual <= d * d * 2.0**-52 * largest


class TestClamp:
    def test_nan_is_not_clamped(self):
        with pytest.raises(NumericInconsistency, match=r"^x = nan is not a number$"):
            _clamp(math.nan, 0.0, 1.0, "x", 1e-12)

    @pytest.mark.parametrize("value, side", [
        (math.inf, "rose above 1"),
        (-math.inf, "fell below 0"),
    ])
    def test_infinities_keep_their_messages(self, value, side):
        with pytest.raises(NumericInconsistency, match=rf"^x = {value!r} {side} beyond roundoff$"):
            _clamp(value, 0.0, 1.0, "x", 1e-12)
