"""Pearson correlation, correlation matrices, sample standard deviation."""

import math
import os
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import mcor.corestats as mcor_corestats
from mcor import (
    DataMatrix,
    Scenario,
    SplitMix64,
    correlation_matrix,
    make_data_matrix,
    monte_carlo,
    pearson_r,
    sample_sd,
)
from mcor.errors import (
    BadArguments,
    LengthMismatch,
    McorError,
    NonFiniteEntry,
    TooFewRows,
    TooFewValues,
    ZeroVariance,
)
from mcor.linalg import eigenvalues_symmetric
from oracles import full_square
from support import assert_no_child_left, rand_data

_moderate_floats = st.floats(min_value=-10.0, max_value=10.0)
# hundredth-quantized values keep centered squares clear of underflow
_centi_floats = st.integers(min_value=-1000, max_value=1000).map(lambda k: k / 100.0)


class TestPearsonR:
    def test_exact_positive_linear(self):
        assert pearson_r([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0

    def test_exact_negative_linear(self):
        assert pearson_r([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_hand_computed_four_points(self):
        # centered cross sum 4, each centered square sum 5 -> 4/5
        assert pearson_r([1.0, 2.0, 3.0, 4.0], [1.0, 3.0, 2.0, 4.0]) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson_r([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_too_few_points(self):
        with pytest.raises(TooFewRows):
            pearson_r([1.0], [2.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteEntry):
            pearson_r([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0])

    def test_zero_variance_names_series(self):
        with pytest.raises(ZeroVariance, match="column x"):
            pearson_r([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ZeroVariance, match="column y"):
            pearson_r([1.0, 2.0, 3.0], [0.1, 0.1, 0.1])

    def test_within_unit_interval(self):
        rng = SplitMix64(17)
        for _ in range(300):
            n = 3 + rng.next_u64() % 40
            x = rng.uniforms(n)
            y = rng.uniforms(n)
            assert -1.0 <= pearson_r(x, y) <= 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(_centi_floats, _centi_floats), min_size=2, max_size=40
        )
    )
    def test_symmetry_is_exact(self, pairs):
        x = [p[0] for p in pairs]
        y = [p[1] for p in pairs]
        assume(any(v != x[0] for v in x))
        assume(any(v != y[0] for v in y))
        assert pearson_r(x, y) == pearson_r(y, x)


class TestCorrelationMatrix:
    def test_perfectly_linear_columns(self):
        rows = [(x, 2.0 * x, x) for x in (0.3, 1.7, 0.9, 2.4)]
        m = correlation_matrix(make_data_matrix(rows))
        assert m.lower == ((1.0,), (1.0, 1.0), (1.0, 1.0, 1.0))

    def test_matches_pearson_exactly(self):
        data = rand_data(SplitMix64(23), 50, 4)
        m = full_square(correlation_matrix(data).lower)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert m[i][j] == pearson_r(data.column(i), data.column(j))

    def test_single_column(self):
        data = make_data_matrix([(1.0,), (2.0,), (5.0,)])
        assert correlation_matrix(data).lower == ((1.0,),)

    def test_unit_diagonal_and_range(self):
        rng = SplitMix64(31)
        for _ in range(30):
            m = full_square(correlation_matrix(rand_data(rng, 12, 5)).lower)
            for i in range(5):
                assert m[i][i] == 1.0
                for j in range(5):
                    if i != j:
                        assert -1.0 <= m[i][j] <= 1.0

    def test_zero_variance_names_column(self):
        rows = [(1.0, 7.0), (2.0, 7.0), (3.0, 7.0)]
        with pytest.raises(ZeroVariance, match="column humidity"):
            correlation_matrix(make_data_matrix(rows, ("temp", "humidity")))

    def test_positive_affine_invariance(self):
        rng = SplitMix64(37)
        data = rand_data(rng, 20, 4)
        base = full_square(correlation_matrix(data).lower)
        scaled_rows = [
            (3.5 * r[0] + 1.0, r[1], 0.02 * r[2] - 7.0, r[3]) for r in data.values
        ]
        scaled = full_square(correlation_matrix(make_data_matrix(scaled_rows)).lower)
        for i in range(4):
            for j in range(4):
                assert abs(scaled[i][j] - base[i][j]) <= 1e-12

    def test_negative_scale_flips_row_and_column(self):
        rng = SplitMix64(41)
        data = rand_data(rng, 20, 3)
        base = full_square(correlation_matrix(data).lower)
        flipped_rows = [(r[0], -2.0 * r[1], r[2]) for r in data.values]
        flipped = full_square(correlation_matrix(make_data_matrix(flipped_rows)).lower)
        for i in range(3):
            for j in range(3):
                want = base[i][j] if (i == 1) == (j == 1) else -base[i][j]
                assert abs(flipped[i][j] - want) <= 1e-12

    def test_psd_up_to_roundoff(self):
        rng = SplitMix64(43)
        for _ in range(25):
            d = 2 + rng.next_u64() % 7
            n = d + 1 + rng.next_u64() % 20
            m = correlation_matrix(rand_data(rng, n, d))
            assert eigenvalues_symmetric(m).values[-1] >= -1e-8


def split(saving):
    """Patch the threshold on ``n * (pairs - d)`` from which the dot
    products are forked: -inf forks at every d, inf never."""
    return mock.patch.object(mcor_corestats, "_FORK_SAVING", saving)


def outcome(data):
    """``correlation_matrix(data)``'s triangle as repr, or its error."""
    try:
        return repr(correlation_matrix(data).lower)
    except McorError as exc:
        return type(exc), str(exc)


@st.composite
def hard_columns(draw):
    """2-8 non-constant columns of 2-30 rows, each free, near-collinear
    with a shared base column, or scaled to where ``_centered`` takes
    ``_scaled``'s path (squares past the float maximum or below 2**-500)."""
    n = draw(st.integers(2, 30))
    values = st.lists(_moderate_floats, min_size=n, max_size=n)
    base = draw(values)
    columns = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["free", "near-collinear", "huge", "tiny"]))
        if kind == "near-collinear":
            a = draw(st.floats(0.5, 4.0) | st.floats(-4.0, -0.5))
            noise = draw(st.lists(st.floats(-1e-9, 1e-9), min_size=n, max_size=n))
            col = [a * x + e for x, e in zip(base, noise)]
        else:
            col = draw(values)
            col = [math.ldexp(x, {"free": 0, "huge": 1000, "tiny": -1000}[kind]) for x in col]
        assume(len(set(col)) > 1)
        columns.append(col)
    return DataMatrix.from_columns(columns)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
class TestForkedProducts:
    """Dot products split across forked processes; the threshold and the
    CPU count are forced, so the forked path runs on any host and data."""

    def test_benchmark_shapes_lie_on_either_side(self):
        # A tall-csv file (about 19 800 rows of 10 columns after --drop-na)
        # forks; a sim-noisy replicate (1000 rows of 3) does not.
        assert 1000 * (3 - 3) < mcor_corestats._FORK_SAVING <= 19_000 * (45 - 10)

    @settings(max_examples=100, deadline=None)
    @given(hard_columns())
    def test_matrix_is_the_serial_one_bit_for_bit(self, data):
        with split(math.inf):
            expected = outcome(data)
        for workers in (1, 2, 3):
            with split(-math.inf), mock.patch("mcor.parallel._usable_cpus", lambda: workers):
                assert outcome(data) == expected

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forks_from_the_threshold_on(self, cpus, forks, workers):
        cpus(workers)
        data = rand_data(SplitMix64(3), 40, 5)  # n * (pairs - d) = 40 * 5
        with split(40 * 5 + 1):
            below = correlation_matrix(data)
        assert forks == []
        with split(40 * 5):
            at = correlation_matrix(data)
        assert len(forks) == workers - 1
        assert repr(at) == repr(below)
        assert_no_child_left()

    def test_zero_variance_is_raised_before_any_fork(self, cpus, forks):
        cpus(2)
        data = DataMatrix.from_columns([[1.0, 2.0, 3.0], [4.0, 5.0, 7.0], [2.0, 2.0, 2.0]])
        with split(-math.inf), pytest.raises(ZeroVariance, match="column v3"):
            correlation_matrix(data)
        assert forks == []

    def test_child_that_dies_is_recomputed(self, cpus, forks):
        data = rand_data(SplitMix64(5), 30, 6)
        expected = repr(correlation_matrix(data))
        parent = os.getpid()

        def die_in_a_child(values):
            if os.getpid() != parent:
                os._exit(3)
            return math.fsum(values)

        cpus(3)
        with split(-math.inf), mock.patch.object(mcor_corestats, "fsum", die_in_a_child):
            assert repr(correlation_matrix(data)) == expected
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("replicates", [1, 5])
    def test_monte_carlo_summary_is_unchanged(self, cpus, forks, workers, replicates):
        cpus(1)
        with split(math.inf):
            expected = monte_carlo(Scenario.CHAINED, 60, replicates, 4)
        cpus(workers)
        with split(-math.inf):
            assert monte_carlo(Scenario.CHAINED, 60, replicates, 4) == expected
        # One map forks: the replicates', or with one replicate the
        # products'. A replicate's products never fork inside it.
        assert forks == [os.getpid()] * (workers - 1)
        assert_no_child_left()


class TestMomentsAcrossTheFloatRange:
    # A 4x3 set whose coefficient is checked at scales far from 1.
    ROWS = [(1.0, 2.0, 3.0), (2.0, 1.0, 5.0), (3.0, 4.0, 4.0), (4.0, 3.0, 1.0)]

    def test_centred_squares_beyond_the_float_maximum(self):
        # Centred squares of 1e300 overflow to inf; r must still be -1/2.
        r = pearson_r([1e300, -1e300, 0.0], [1.0, 2.0, 3.0])
        assert r == pytest.approx(-0.5, abs=1e-15)

    def test_sum_beyond_the_float_maximum(self):
        # fsum of 1e308, 1e308, -1e308 overflows in its partial sums.
        r = pearson_r([1e308, 1e308, -1e308], [1.0, 2.0, 4.0])
        assert r == pytest.approx(pearson_r([1.0, 1.0, -1.0], [1.0, 2.0, 4.0]), rel=1e-15)
        assert abs(r) == pytest.approx(0.9449111825230679, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e160, 1e300])
    def test_scaled_data_set(self, scale):
        base = correlation_matrix(make_data_matrix(self.ROWS)).lower
        scaled = correlation_matrix(make_data_matrix(
            [[v * scale for v in row] for row in self.ROWS])).lower
        for a, b in zip(base, scaled):
            assert b == pytest.approx(a, abs=1e-15)

    @given(st.lists(st.tuples(_centi_floats, _centi_floats), min_size=3, max_size=12),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=200, deadline=None)
    def test_power_of_two_scaling_is_exact(self, rows, k):
        for j in range(2):
            assume(len({row[j] for row in rows}) > 1)
        base = correlation_matrix(make_data_matrix(rows))
        scaled = correlation_matrix(make_data_matrix(
            [[math.ldexp(v, k) for v in row] for row in rows]))
        assert scaled.lower == base.lower


class TestDataMatrix:
    def test_rejects_single_row(self):
        with pytest.raises(TooFewRows):
            make_data_matrix([(1.0, 2.0)])

    def test_rejects_ragged_rows(self):
        with pytest.raises(LengthMismatch):
            make_data_matrix([(1.0, 2.0), (3.0,)])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteEntry):
            make_data_matrix([(1.0, 2.0), (float("inf"), 3.0)])

    def test_default_names(self):
        data = make_data_matrix([(1.0, 2.0), (3.0, 4.0)])
        assert data.var_names == ("v1", "v2")

    def test_stored_by_column_with_a_row_view(self):
        data = make_data_matrix([(1, 2.0), (3.0, 4), (5.0, 6.0)])
        assert data.columns == ((1.0, 3.0, 5.0), (2.0, 4.0, 6.0))
        assert all(type(v) is float for col in data.columns for v in col)
        assert data.values == ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0))
        assert data.column(1) == [2.0, 4.0, 6.0]
        assert data == DataMatrix.from_columns([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_non_finite_named_in_row_major_order(self):
        nan = float("nan")
        with pytest.raises(NonFiniteEntry, match="row 2, column 3"):
            make_data_matrix([(1.0, 2.0, 3.0), (1.0, 2.0, nan), (1.0, nan, 3.0)])
        with pytest.raises(NonFiniteEntry, match="row 2, column 2"):
            DataMatrix.from_columns([[1.0, 2.0, 3.0], [4.0, nan, 6.0], [7.0, 8.0, nan]])

    def test_from_columns_checks(self):
        with pytest.raises(LengthMismatch, match="column 2"):
            DataMatrix.from_columns([[1.0, 2.0], [1.0, 2.0, 3.0]])
        with pytest.raises(TooFewRows):
            DataMatrix.from_columns([[1.0], [2.0]])
        with pytest.raises(BadArguments):
            DataMatrix.from_columns([])
        with pytest.raises(LengthMismatch, match="variable names"):
            DataMatrix.from_columns([[1.0, 2.0]], ("a", "b"))

    def test_from_columns_checks_shape_then_values_then_names(self):
        nan = float("nan")
        with pytest.raises(LengthMismatch, match="column 2 has 1 values, expected 2"):
            DataMatrix.from_columns([[1.0, nan], [1.0]], ("a",))
        with pytest.raises(TooFewRows):
            DataMatrix.from_columns([[nan]], ("a", "b"))
        with pytest.raises(NonFiniteEntry, match="row 2, column 1"):
            DataMatrix.from_columns([[1.0, nan]], ("a", "b"))

    def test_unchecked_core_checks_shape_only(self):
        columns = ((1.0, 2.0), (3.0, float("inf")))
        data = DataMatrix._from_finite(columns, ("a", "b"))
        assert data.columns is columns and (data.n_obs, data.n_vars) == (2, 2)
        with pytest.raises(LengthMismatch, match="column 2"):
            DataMatrix._from_finite(((1.0, 2.0), (3.0,)), ("a", "b"))
        with pytest.raises(TooFewRows):
            DataMatrix._from_finite(((1.0,),), ("a",))
        with pytest.raises(BadArguments):
            DataMatrix._from_finite((), ())
        with pytest.raises(LengthMismatch, match="got 1 variable names for 2 columns"):
            DataMatrix._from_finite(columns, ("a",))


class TestSampleSd:
    def test_symmetric_pair(self):
        assert sample_sd([0.6, 1.4]) == pytest.approx(0.4 * math.sqrt(2.0), abs=1e-15)

    def test_constant(self):
        assert sample_sd([1.0, 1.0, 1.0]) == 0.0

    def test_rank_one_spectrum(self):
        assert sample_sd([3.0, 0.0, 0.0]) == pytest.approx(math.sqrt(3.0), abs=1e-15)

    def test_too_few(self):
        with pytest.raises(TooFewValues):
            sample_sd([1.0])

    def test_non_finite(self):
        with pytest.raises(NonFiniteEntry, match="value list contains a non-finite entry"):
            sample_sd([1.0, math.inf, 2.0])

    def test_squares_beyond_the_float_range(self):
        assert sample_sd([1e200, -1e200]) == pytest.approx(math.sqrt(2.0) * 1e200, rel=1e-15)
        # deviations 2/3, 2/3 and -4/3 of 1e308: sd = sqrt(4/3) * 1e308
        assert sample_sd([1e308, 1e308, -1e308]) == pytest.approx(
            math.sqrt(4.0 / 3.0) * 1e308, rel=1e-15)

    def test_power_of_two_scaling_is_exact(self):
        xs = [0.6, 1.4, 3.7, -2.2]
        base = sample_sd(xs)
        for k in (-1000, -600, -1, 1, 600, 1000):
            assert sample_sd([math.ldexp(x, k) for x in xs]) == math.ldexp(base, k)

    def test_result_beyond_the_float_range(self):
        with pytest.raises(NonFiniteEntry, match="standard deviation"):
            sample_sd([1.7e308, -1.7e308])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_moderate_floats, min_size=2, max_size=30),
        _moderate_floats,
        _moderate_floats.filter(lambda c: abs(c) > 1e-3),
    )
    def test_translation_and_scale(self, xs, shift, scale):
        base = sample_sd(xs)
        assert abs(sample_sd([x + shift for x in xs]) - base) <= 1e-12
        assert abs(sample_sd([scale * x for x in xs]) - abs(scale) * base) <= 1e-12
