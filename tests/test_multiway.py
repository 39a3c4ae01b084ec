"""The coefficient itself, sphericity, bounds, and their identities."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcor import (
    SplitMix64,
    generate,
    independence_bound,
    john_sphericity,
    make_data_matrix,
    make_symmetric,
    mcor,
    mcor_from_matrix,
    mcor_from_spectrum,
    pearson_r,
    rescaled_sphericity,
    sample_sd,
    Scenario,
)
from mcor.errors import (
    BadArguments,
    DegenerateSpectrum,
    DimensionTooSmall,
    NonFiniteEntry,
    NotACorrelationMatrix,
    NotACorrelationSpectrum,
    NumericInconsistency,
)
from mcor.io import bundled_fixture, read_matrix
import mcor.corestats as mcor_corestats
import mcor.multiway as mcor_multiway
from mcor.linalg import EigenSpectrum
from mcor.multiway import MATRIX_ENTRY_TOL, TRACE_RTOL, WARN_NEAR_SINGULAR, WARN_NOT_PSD
from oracles import oracle_mcor, rms_mcor
from support import block_with_identity, rand_correlation, rand_data

# Golden values frozen from the bisection oracle on the bundled fixture
# matrices (tests/oracles.py, eig_bisect); the RMS identity agrees to 8e-15.
AREA1_MCOR = 0.192215157224
AREA2_MCOR = 0.285505399832


def identity_matrix(d):
    tri = []
    for i in range(d):
        tri.extend([0.0] * i + [1.0])
    return make_symmetric(d, tri)


def all_ones_matrix(d):
    return make_symmetric(d, [1.0] * (d * (d + 1) // 2))


class TestMcorFromSpectrum:
    def test_rank_one_spectrum(self):
        assert abs(mcor_from_spectrum([3.0, 0.0, 0.0]) - 1.0) <= 1e-12

    def test_reference_rounded_spectra(self):
        assert mcor_from_spectrum([1.972, 1.028, 0.0]) == pytest.approx(0.569, abs=5e-4)
        assert mcor_from_spectrum([2.73, 0.236, 0.034]) == pytest.approx(0.867, abs=5e-4)

    def test_flat_spectrum(self):
        assert mcor_from_spectrum([1.0, 1.0, 1.0]) == 0.0

    def test_rejects_single_value(self):
        with pytest.raises(DimensionTooSmall):
            mcor_from_spectrum([2.0])

    def test_trace_check_carries_sum(self):
        with pytest.raises(NotACorrelationSpectrum) as excinfo:
            mcor_from_spectrum([2.0, 1.5])
        assert excinfo.value.total == pytest.approx(3.5)

    def test_rejects_non_finite_value(self):
        with pytest.raises(NonFiniteEntry, match="eigenvalue list contains a non-finite value"):
            mcor_from_spectrum([2.0, math.nan])

    @pytest.mark.parametrize("d", [2, 3, 6])
    def test_spectra_at_the_trace_tolerance_are_clamped(self, d):
        # The farthest spectra the trace check accepts: rank one summing to
        # d(1 + r) and flat summing to d(1 - r). SPECTRUM_CLAMP_EPS is
        # derived for both; d = 2 is the worst case above 1.
        top = d * (1.0 + TRACE_RTOL)
        while abs(top - d) > TRACE_RTOL * d:
            top = math.nextafter(top, 0.0)
        low = 1.0 - TRACE_RTOL
        while abs(low * d - d) > TRACE_RTOL * d:
            low = math.nextafter(low, 2.0)
        rank_one, flat = [top] + [0.0] * (d - 1), [low] * d
        assert (mcor_from_spectrum(rank_one), rescaled_sphericity(rank_one)) == (1.0, 1.0)
        assert (mcor_from_spectrum(flat), rescaled_sphericity(flat)) == (0.0, 0.0)


class TestJohnSphericity:
    def test_flat(self):
        assert john_sphericity([1.0, 1.0, 1.0]) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_rank_one(self):
        assert john_sphericity([3.0, 0.0, 0.0]) == 1.0

    def test_two_one_zero(self):
        assert john_sphericity([2.0, 1.0, 0.0]) == pytest.approx(5.0 / 9.0, abs=1e-15)

    def test_zero_sum_rejected(self):
        with pytest.raises(DegenerateSpectrum):
            john_sphericity([1.0, -1.0])

    def test_non_finite_value_rejected(self):
        with pytest.raises(NonFiniteEntry, match="eigenvalue list contains a non-finite value"):
            john_sphericity([1.0, math.inf])

    def test_single_value_rejected(self):
        with pytest.raises(DimensionTooSmall):
            john_sphericity([1.0])

    def test_squares_past_the_float_maximum(self):
        values = [1.3e154, -1.3e154, 3.0]
        exact = sum(Fraction(v) ** 2 for v in values) / sum(map(Fraction, values)) ** 2
        assert john_sphericity(values) == float(exact) == 3.7555555555555553e307

    def test_ratio_past_the_float_maximum_rejected(self):
        with pytest.raises(DegenerateSpectrum, match="too near it for a finite ratio"):
            john_sphericity([1.0, -1.0, 1e-200])


class TestRescaledSphericity:
    def test_flat(self):
        assert rescaled_sphericity([1.0, 1.0, 1.0]) == 0.0

    def test_rank_one(self):
        assert rescaled_sphericity([3.0, 0.0, 0.0]) == 1.0

    def test_two_one_zero(self):
        value = rescaled_sphericity([2.0, 1.0, 0.0])
        assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert value == pytest.approx(mcor_from_spectrum([2.0, 1.0, 0.0]) ** 2, abs=1e-12)

    def test_trace_check(self):
        with pytest.raises(NotACorrelationSpectrum):
            rescaled_sphericity([2.0, 2.0, 2.0])

    def test_roundoff_below_zero_is_clamped(self):
        # (sum(l^2) - d) / (d(d-1)) is about -2e-13 here.
        assert rescaled_sphericity([1.0 - 1e-13, 1.0 - 1e-13]) == 0.0

    def test_below_zero_beyond_roundoff_rejected(self, monkeypatch):
        # The sum passes the trace check and (sum(l^2) - d) / (d(d-1)) is
        # about -2e-7: within the allowance of a caller-given spectrum ...
        short = (1.0 - 1e-7, 1.0 - 1e-7)
        assert rescaled_sphericity(short) == 0.0
        # ... but past the roundoff clamp of the spectrum mcor(data) solves for.
        monkeypatch.setattr(mcor_multiway, "eigenvalues_symmetric",
                            lambda matrix: EigenSpectrum(short, 1, 0.0))
        with pytest.raises(NumericInconsistency, match="fell below 0 beyond roundoff"):
            mcor(make_data_matrix([(1.0, 2.0), (2.0, 1.0), (3.0, 5.0)]))

    def test_squares_past_the_float_maximum(self):
        with pytest.raises(NumericInconsistency, match="rose above 1 beyond roundoff"):
            rescaled_sphericity([1.3e154, -1.3e154, 3.0])


class TestIndependenceBound:
    def test_no_restriction(self):
        assert independence_bound(3, 0) == 1.0

    def test_one_independent_of_three(self):
        assert independence_bound(3, 1) == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-15)

    def test_fully_independent(self):
        assert independence_bound(3, 3) == 0.0

    def test_single_coupled_variable_left(self):
        assert independence_bound(5, 4) == 0.0

    def test_bad_arguments(self):
        with pytest.raises(BadArguments):
            independence_bound(3, -1)
        with pytest.raises(BadArguments):
            independence_bound(3, 4)
        with pytest.raises(BadArguments):
            independence_bound(1, 0)


class TestMcorOnData:
    def test_perfectly_linear_columns(self):
        rows = [(x, 2.0 * x, x) for x in (0.1, 0.5, 0.8, 1.3, 2.0)]
        report = mcor(make_data_matrix(rows))
        assert abs(report.mcor - 1.0) <= 1e-12

    def test_independent_draw_is_small(self):
        report = mcor(generate(Scenario.INDEPENDENT, 1000, 12345))
        assert report.mcor < 0.05

    def test_two_columns_reduce_to_abs_pearson(self):
        rng = SplitMix64(71)
        for _ in range(200):
            n = 3 + rng.next_u64() % 60
            data = rand_data(rng, n, 2)
            r = pearson_r(data.column(0), data.column(1))
            assert abs(mcor(data).mcor - abs(r)) <= 1e-12

    def test_single_column_rejected(self):
        with pytest.raises(DimensionTooSmall):
            mcor(make_data_matrix([(1.0,), (2.0,), (3.0,)]))

    def test_near_singular_warning(self):
        report = mcor(generate(Scenario.LINEAR_COMBO, 200, 5))
        assert WARN_NEAR_SINGULAR in report.warnings
        assert report.min_eigenvalue <= 1e-10

    def test_report_fields_consistent(self):
        report = mcor(rand_data(SplitMix64(73), 40, 5))
        assert report.d == 5
        assert len(report.eigenvalues) == 5
        assert report.min_eigenvalue == report.eigenvalues[-1]
        assert abs(math.fsum(report.eigenvalues) - 5.0) <= 1e-8
        assert abs(report.mcor**2 - report.rescaled_sphericity) <= 1e-10


def test_each_report_validates_its_spectrum_once(monkeypatch):
    # The finiteness check counts in both modules that hold a spectrum check.
    data = rand_data(SplitMix64(73), 40, 5)
    matrix = read_matrix(bundled_fixture("tb_area1.csv"))
    calls = {"_validated_spectrum": [], "_all_finite": []}
    for module, name in ((mcor_multiway, "_validated_spectrum"), (mcor_multiway, "_all_finite"),
                         (mcor_corestats, "_all_finite")):
        def counting(values, real=getattr(module, name), seen=calls[name]):
            seen.append(values)
            return real(values)
        monkeypatch.setattr(module, name, counting)
    for report in (lambda: mcor(data), lambda: mcor_from_matrix(matrix)):
        for seen in calls.values():
            seen.clear()
        report()
        assert {name: len(seen) for name, seen in calls.items()} == {
            "_validated_spectrum": 1, "_all_finite": 1}


class TestMcorFromMatrix:
    def test_identity_6x6(self):
        report = mcor_from_matrix(identity_matrix(6))
        assert report.mcor == 0.0
        assert report.warnings == ()

    def test_fixture_matrices_match_frozen_goldens(self):
        report1 = mcor_from_matrix(read_matrix(bundled_fixture("tb_area1.csv")))
        report2 = mcor_from_matrix(read_matrix(bundled_fixture("tb_area2.csv")))
        assert report1.mcor == pytest.approx(AREA1_MCOR, abs=1e-9)
        assert report2.mcor == pytest.approx(AREA2_MCOR, abs=1e-9)
        assert report2.mcor > report1.mcor
        assert report1.warnings == ()
        assert report2.warnings == ()

    def test_fixture_goldens_reproduced_by_both_oracles(self):
        for name, frozen in (
            ("tb_area1.csv", AREA1_MCOR),
            ("tb_area2.csv", AREA2_MCOR),
        ):
            rows = [list(r) for r in read_matrix(bundled_fixture(name)).rows]
            assert oracle_mcor(rows) == pytest.approx(frozen, abs=1e-9)
            assert rms_mcor(rows) == pytest.approx(frozen, abs=1e-9)

    def test_bad_diagonal_rejected(self):
        m = make_symmetric(2, [1.5, 0.2, 1.0])
        with pytest.raises(NotACorrelationMatrix, match="diagonal"):
            mcor_from_matrix(m)

    def test_off_diagonal_beyond_unit_rejected(self):
        m = make_symmetric(2, [1.0, 1.2, 1.0])
        with pytest.raises(NotACorrelationMatrix, match="outside"):
            mcor_from_matrix(m)

    def test_small_deviation_warns_instead(self):
        m = make_symmetric(2, [1.0 + 5e-10, 0.3, 1.0])
        report = mcor_from_matrix(m)
        assert any("diagonal entry (1,1)" in w for w in report.warnings)

    def test_not_psd_warning(self):
        # spectrum {1+2a, 1-a, 1-a} with a slightly below -1/2
        a = -0.5 - 6e-9
        report = mcor_from_matrix(make_symmetric(3, [1.0, a, 1.0, a, a, 1.0]))
        assert WARN_NOT_PSD in report.warnings
        assert WARN_NEAR_SINGULAR in report.warnings

    def test_1x1_rejected(self):
        with pytest.raises(DimensionTooSmall):
            mcor_from_matrix(make_symmetric(1, [1.0]))

    def test_takes_no_iteration_cap(self):
        with pytest.raises(TypeError):
            mcor_from_matrix(identity_matrix(2), max_sweeps=5)
        with pytest.raises(TypeError):
            mcor(rand_data(SplitMix64(5), 6, 2), max_sweeps=5)

    @pytest.mark.parametrize("diagonal", ["high", "low", "alternating"])
    def test_corners_of_the_entry_tolerance(self, diagonal):
        # Off-diagonals +-(1 + t) in a rank-one sign pattern push mcor and
        # the rescaled sphericity furthest above 1; a unit matrix with its
        # diagonal at 1 - t pushes the rescaled sphericity furthest below 0.
        t = 0.999 * MATRIX_ENTRY_TOL
        for d in range(2, 9):
            for off in (1 + t, 0.0):
                tri = []
                for i in range(d):
                    tri += [off * (-1) ** (i + j) for j in range(i)]
                    tri.append({"high": 1 + t, "low": 1 - t,
                                "alternating": 1 + t * (-1) ** i}[diagonal])
                report = mcor_from_matrix(make_symmetric(d, tri))
                assert 0.0 <= report.mcor <= 1.0
                assert 0.0 <= report.rescaled_sphericity <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_entries_within_tolerance_stay_in_range(self, data):
        # A correlation matrix (the Gram matrix of 1-3 dimensional unit
        # vectors, so often near-collinear) with every entry of the upper
        # triangle moved by at most t < MATRIX_ENTRY_TOL, as hand rounding
        # does. It is accepted, so it must not raise NumericInconsistency.
        d = data.draw(st.integers(2, 6), label="d")
        k = data.draw(st.integers(1, 3), label="rank")
        coords = st.floats(-1.0, 1.0, allow_subnormal=False)
        vectors = data.draw(st.lists(st.lists(coords, min_size=k, max_size=k),
                                     min_size=d, max_size=d), label="vectors")
        norms = [math.sqrt(sum(x * x for x in v)) for v in vectors]
        assume(min(norms) > 1e-3)
        t = 0.999 * MATRIX_ENTRY_TOL
        moves = data.draw(st.lists(st.sampled_from([-t, 0.0, t]) | st.floats(-t, t),
                                   min_size=d * (d + 1) // 2,
                                   max_size=d * (d + 1) // 2), label="moves")
        tri = []
        for i in range(d):
            for j in range(i):
                dot = sum(a * b for a, b in zip(vectors[i], vectors[j]))
                tri.append(max(-1.0, min(1.0, dot / (norms[i] * norms[j]))))
            tri.append(1.0)
        tri = [r + m for r, m in zip(tri, moves)]
        report = mcor_from_matrix(make_symmetric(d, tri))
        assert 0.0 <= report.mcor <= 1.0
        assert 0.0 <= report.rescaled_sphericity <= 1.0


class TestProperties:
    def test_range_over_random_correlation_matrices(self):
        rng = SplitMix64(79)
        for _ in range(150):
            d = 2 + rng.next_u64() % 9
            report = mcor_from_matrix(rand_correlation(rng, d))
            assert 0.0 <= report.mcor <= 1.0

    def test_squared_coefficient_is_rescaled_sphericity(self):
        rng = SplitMix64(83)
        for _ in range(150):
            d = 2 + rng.next_u64() % 9
            report = mcor_from_matrix(rand_correlation(rng, d))
            assert abs(report.mcor**2 - report.rescaled_sphericity) <= 1e-10

    def test_attainment_at_both_ends(self):
        for d in range(2, 11):
            top = [float(d)] + [0.0] * (d - 1)
            assert abs(mcor_from_spectrum(top) - 1.0) <= 1e-12
            assert mcor_from_spectrum([1.0] * d) == 0.0
            assert abs(mcor_from_matrix(all_ones_matrix(d)).mcor - 1.0) <= 1e-12
            assert mcor_from_matrix(identity_matrix(d)).mcor == 0.0

    def test_permutation_invariance(self):
        rng = SplitMix64(89)
        data = rand_data(rng, 30, 5)
        base = mcor(data).mcor
        order = [3, 0, 4, 2, 1]
        permuted = make_data_matrix(
            [tuple(row[j] for j in order) for row in data.values]
        )
        assert abs(mcor(permuted).mcor - base) <= 1e-12

    def test_positive_scale_invariance(self):
        rng = SplitMix64(97)
        data = rand_data(rng, 30, 4)
        base = mcor(data).mcor
        scaled = make_data_matrix(
            [(5.0 * r[0] + 2.0, r[1], 1e-3 * r[2], 40.0 * r[3] - 9.0) for r in data.values]
        )
        assert abs(mcor(scaled).mcor - base) <= 1e-10

    def test_two_column_negative_scale_invariance(self):
        rng = SplitMix64(101)
        data = rand_data(rng, 25, 2)
        base = mcor(data).mcor
        flipped = make_data_matrix([(r[0], -3.0 * r[1]) for r in data.values])
        assert abs(mcor(flipped).mcor - base) <= 1e-10

    def test_sign_flip_similarity_preserves_coefficient(self):
        # D R D with D = diag(+-1) has the same spectrum as R
        rng = SplitMix64(103)
        for _ in range(20):
            d = 2 + rng.next_u64() % 7
            base = rand_correlation(rng, d)
            signs = [1.0 if rng.next_u64() % 2 else -1.0 for _ in range(d)]
            tri = []
            for i in range(d):
                for j in range(i + 1):
                    tri.append(signs[i] * signs[j] * base.rows[i][j])
            flipped = make_symmetric(d, tri)
            assert abs(
                mcor_from_matrix(flipped).mcor - mcor_from_matrix(base).mcor
            ) <= 1e-10

    def test_block_diagonal_bound(self):
        rng = SplitMix64(107)
        for _ in range(100):
            d = 2 + rng.next_u64() % 7
            k = rng.next_u64() % (d + 1)
            if d - k < 2:
                matrix = identity_matrix(d)
            else:
                matrix = block_with_identity(k, rand_correlation(rng, d - k))
            bound = independence_bound(d, k)
            assert mcor_from_matrix(matrix).mcor <= bound + 1e-10

    def test_block_bound_attained_by_all_ones_block(self):
        for d in range(2, 9):
            for k in range(0, d - 1):
                matrix = block_with_identity(k, all_ones_matrix(d - k))
                got = mcor_from_matrix(matrix).mcor
                assert abs(got - independence_bound(d, k)) <= 1e-10

    def test_all_ones_dominates_positive_definite(self):
        rng = SplitMix64(109)
        for _ in range(25):
            d = 2 + rng.next_u64() % 7
            report = mcor_from_matrix(rand_correlation(rng, d, n=3 * d + 5))
            if report.min_eigenvalue > 0.0:
                assert report.mcor < 1.0


# math.isfinite raises OverflowError on a Python int past the float range;
# such an int is a non-finite entry like inf.
@pytest.mark.parametrize("call", [
    lambda: pearson_r([10**400, 1, 2], [1, 2, 3]),
    lambda: sample_sd([10**400, 1]),
    lambda: mcor_from_spectrum([10**400, 1]),
    lambda: rescaled_sphericity([10**400, 1]),
    lambda: john_sphericity([10**400, 1]),
    lambda: make_symmetric(2, [1, 10**400, 1]),
    lambda: make_data_matrix([[10**400, 1], [2, 3]]),
], ids=["pearson_r", "sample_sd", "mcor_from_spectrum", "rescaled_sphericity",
        "john_sphericity", "make_symmetric", "make_data_matrix"])
def test_int_past_float_range_is_non_finite(call):
    with pytest.raises(NonFiniteEntry):
        call()


# The partial sums of these spectra pass the float maximum. The first sums
# exactly to 0; the sum of the second lies past the float range.
@pytest.mark.parametrize("call", [mcor_from_spectrum, rescaled_sphericity],
                         ids=["mcor_from_spectrum", "rescaled_sphericity"])
def test_spectrum_sums_past_the_float_maximum(call):
    with pytest.raises(NotACorrelationSpectrum,
                       match=r"^eigenvalues sum to 0\.0, expected 4 ") as caught:
        call([1e308, 1e308, -1e308, -1e308])
    assert caught.value.total == 0.0
    with pytest.raises(NonFiniteEntry):
        call([1e308, 1e308, 1.0])
