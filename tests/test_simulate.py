"""Scenario generators, population values, Monte Carlo harness."""

import math
import os
import sys
import threading
import time

import pytest

import mcor.linalg as mcor_linalg
import mcor.multiway as mcor_multiway
import mcor.simulate as mcor_simulate
from mcor import (
    DataMatrix,
    MonteCarloSummary,
    Scenario,
    correlation_matrix,
    derive_seed,
    generate,
    mcor,
    monte_carlo,
    population_mcor,
    sample_sd,
)
from mcor.cli import main
from mcor.errors import BadArguments, ZeroVariance
from mcor.linalg import eigenvalues_symmetric
from oracles import ScalarSplitMix64
from support import assert_as_checked, assert_no_child_left


class TestScenario:
    def test_cli_names_in_order(self):
        assert [s.value for s in Scenario] == [
            "all-linear",
            "linear-combo",
            "independent",
            "noisy-combo",
            "chained",
        ]

    def test_from_cli_name(self):
        assert Scenario.from_cli_name("noisy-combo") is Scenario.NOISY_COMBO
        with pytest.raises(BadArguments):
            Scenario.from_cli_name("nope")


    # The recipes are chosen by identity, so a CLI name string would fall
    # through to the last one unless it is rejected.
    @pytest.mark.parametrize("call", [
        lambda name: generate(name, 50, 1),
        lambda name: population_mcor(name),
        lambda name: monte_carlo(name, 200, 3, 1),
    ], ids=["generate", "population_mcor", "monte_carlo"])
    @pytest.mark.parametrize("name", ["independent", "all-linear", None])
    def test_non_member_rejected(self, call, name):
        with pytest.raises(BadArguments, match="must be a Scenario member"):
            call(name)


class TestGenerate:
    def test_shape_and_names(self):
        data = generate(Scenario.CHAINED, 50, 9)
        assert (data.n_obs, data.n_vars) == (50, 3)
        assert data.var_names == ("x", "y", "z")

    def test_all_linear_correlation_is_all_ones(self):
        data = generate(Scenario.ALL_LINEAR, 1000, 4711)
        m = correlation_matrix(data)
        for row in m.lower:
            for v in row:
                assert abs(v - 1.0) <= 1e-12

    def test_linear_combo_is_rank_deficient(self):
        for seed in (0, 1, 99, 2**63):
            m = correlation_matrix(generate(Scenario.LINEAR_COMBO, 500, seed))
            assert eigenvalues_symmetric(m).values[-1] <= 1e-10

    def test_reproducible_bit_for_bit(self):
        a = generate(Scenario.INDEPENDENT, 2, 42)
        b = generate(Scenario.INDEPENDENT, 2, 42)
        assert a == b
        # frozen stream snapshot for seed 42
        assert a.values == (
            (0.7415648787718234, 0.15991039287692016, 0.2786011302551387),
            (0.3441907165236376, 0.03803016854024627, 0.8682280765465324),
        )

    def test_recipes_tie_columns_together(self):
        lin = generate(Scenario.ALL_LINEAR, 20, 3)
        for x, y, z in lin.values:
            assert y == 2.0 * x and z == x
        combo = generate(Scenario.LINEAR_COMBO, 20, 3)
        for x, y, z in combo.values:
            assert z == x + 2.0 * y

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    def test_columns_follow_the_draw_by_draw_stream(self, scenario, seed):
        # Reference: the one-word-at-a-time oracle, one row at a time,
        # variates in recipe order. An odd n leaves a spare normal unused,
        # and n = 1000 draws past the first largest-size block.
        for n in (50, 51, 1000):
            rng = ScalarSplitMix64(seed)
            rows = []
            for _ in range(n):
                x = rng.uniform()
                if scenario is Scenario.ALL_LINEAR:
                    rows.append((x, 2.0 * x, x))
                    continue
                y = 5.0 * x + rng.normal() if scenario is Scenario.CHAINED else rng.uniform()
                if scenario is Scenario.LINEAR_COMBO:
                    z = x + 2.0 * y
                elif scenario is Scenario.INDEPENDENT:
                    z = rng.uniform()
                else:
                    z = x + 2.0 * y + rng.normal()
                rows.append((x, y, z))
            assert generate(scenario, n, seed).columns == tuple(zip(*rows))

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_columns_are_what_from_columns_builds(self, scenario):
        # generate skips from_columns' checks: its values are finite floats
        # by construction.
        for n in (2, 51):
            assert_as_checked(generate(scenario, n, 7))

    def test_too_few_observations(self):
        with pytest.raises(BadArguments):
            generate(Scenario.INDEPENDENT, 1, 0)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_more_observations_than_draws_can_index(self, scenario, monkeypatch):
        # Three columns take 3 * n_obs words, which must be a valid size. It is
        # rejected before a stream exists: some recipes would draw until memory ran out.
        monkeypatch.setattr(mcor_simulate, "uniform_stream", None)
        with pytest.raises(BadArguments, match=rf"n_obs must be <= {sys.maxsize // 3}, got"):
            generate(scenario, sys.maxsize // 3 + 1, 0)


class TestPopulationMcor:
    def test_all_linear(self):
        assert population_mcor(Scenario.ALL_LINEAR) == 1.0

    def test_linear_combo(self):
        assert population_mcor(Scenario.LINEAR_COMBO) == math.sqrt(1.0 / 3.0)

    def test_independent(self):
        assert population_mcor(Scenario.INDEPENDENT) == 0.0

    def test_noisy_combo(self):
        value = population_mcor(Scenario.NOISY_COMBO)
        assert value == math.sqrt(5.0 / 51.0)
        assert value == pytest.approx(0.3131, abs=1e-4)

    def test_chained(self):
        # Closed form; a Monte Carlo run at n = 10^7 landed within 7e-5.
        value = population_mcor(Scenario.CHAINED)
        assert value == pytest.approx(0.8710326770241061, abs=1e-12)

    def test_population_matches_large_sample(self):
        # in-suite cross-check at a desk-scale n
        for scenario in (Scenario.LINEAR_COMBO, Scenario.NOISY_COMBO, Scenario.CHAINED):
            summary = monte_carlo(scenario, 20000, 5, 31337)
            assert summary.mcor_mean == pytest.approx(
                population_mcor(scenario), abs=0.01
            )


class TestMonteCarlo:
    def test_all_linear_degenerates_to_one(self):
        summary = monte_carlo(Scenario.ALL_LINEAR, 1000, 50, 8)
        assert abs(summary.mcor_mean - 1.0) <= 1e-10
        assert summary.mcor_sd <= 1e-10

    def test_deterministic_summary(self):
        a = monte_carlo(Scenario.NOISY_COMBO, 200, 10, 77)
        b = monte_carlo(Scenario.NOISY_COMBO, 200, 10, 77)
        assert a == b

    def test_summary_ordering_and_range(self):
        for scenario in Scenario:
            s = monte_carlo(scenario, 150, 8, 5150)
            assert 0.0 <= s.mcor_min <= s.mcor_mean <= s.mcor_max <= 1.0

    def test_single_replicate(self):
        s = monte_carlo(Scenario.INDEPENDENT, 100, 1, 3)
        assert s.mcor_sd == 0.0
        assert s.mcor_min == s.mcor_mean == s.mcor_max

    def test_replicates_must_be_positive(self):
        with pytest.raises(BadArguments):
            monte_carlo(Scenario.INDEPENDENT, 100, 0, 3)

    def test_replicates_must_fit_a_size(self):
        with pytest.raises(BadArguments, match=rf"replicates must be <= {sys.maxsize}, got"):
            monte_carlo(Scenario.INDEPENDENT, 100, 10**30, 3)

    def test_replicates_use_distinct_substreams(self):
        s = monte_carlo(Scenario.INDEPENDENT, 100, 30, 12)
        assert s.mcor_sd > 0.0

    def test_mean_gap_shrinks_with_n(self):
        # fixed seed set; 20 replicates at each n
        for scenario in (
            Scenario.INDEPENDENT,
            Scenario.LINEAR_COMBO,
            Scenario.NOISY_COMBO,
        ):
            pop = population_mcor(scenario)
            gaps = [
                abs(monte_carlo(scenario, n, 20, 1).mcor_mean - pop)
                for n in (100, 1000, 10000)
            ]
            assert gaps[0] >= gaps[1] >= gaps[2]

    def test_all_linear_exact_for_any_n_and_seed(self):
        for n in (3, 10, 250):
            for seed in (0, 7, 123456789):
                report = mcor(generate(Scenario.ALL_LINEAR, n, seed))
                assert abs(report.mcor - 1.0) <= 1e-10


def serial_summary(scenario, n_obs, replicates, seed):
    values = [mcor(generate(scenario, n_obs, derive_seed(seed, i))).mcor
              for i in range(replicates)]
    return MonteCarloSummary(
        scenario, n_obs, replicates, seed, math.fsum(values) / replicates,
        sample_sd(values) if replicates > 1 else 0.0, min(values), max(values))


@pytest.fixture
def any_work_forks(monkeypatch):
    """Fork the replicates whatever their amount of work."""
    monkeypatch.setattr(mcor_simulate, "_FORK_SAVING", -math.inf)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
class TestReplicateForkThreshold:
    """The real threshold on ``(replicates // 2) * (n_obs + 35)``."""

    def test_a_tiny_run_is_serial(self, cpus, forks):
        cpus(2)
        assert monte_carlo(Scenario.INDEPENDENT, 20, 2, 1) == serial_summary(
            Scenario.INDEPENDENT, 20, 2, 1)
        assert forks == []

    def test_the_sim_noisy_run_forks(self, cpus, forks):
        cpus(2)
        assert monte_carlo(Scenario.NOISY_COMBO, 1000, 40, 1) == serial_summary(
            Scenario.NOISY_COMBO, 1000, 40, 1)
        assert forks == [os.getpid()]
        assert_no_child_left()

    def test_forks_from_the_threshold_on(self, cpus, forks):
        # 29 * (65 + 35) and 30 * (65 + 35) lie either side of 3000.
        assert mcor_simulate._FORK_SAVING == 3000
        cpus(2)
        monte_carlo(Scenario.INDEPENDENT, 65, 59, 1)
        assert forks == []
        monte_carlo(Scenario.INDEPENDENT, 65, 60, 1)
        assert forks == [os.getpid()]
        assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")
@pytest.mark.usefixtures("any_work_forks")
class TestForkedReplicates:
    """Replicates split over forked processes; the CPU count and the
    threshold are forced, so the forked path runs on any host and size."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_summary_equals_the_serial_loop(self, cpus, forks, scenario, workers):
        cpus(workers)
        assert monte_carlo(scenario, 80, 7, 5) == serial_summary(scenario, 80, 7, 5)
        assert len(forks) == workers - 1
        assert_no_child_left()

    @pytest.mark.parametrize("n_obs", [1, sys.maxsize // 3 + 1])
    def test_no_fork_for_a_bad_n_obs(self, cpus, forks, n_obs):
        cpus(2)
        with pytest.raises(BadArguments, match="n_obs must be"):
            monte_carlo(Scenario.INDEPENDENT, n_obs, 4, 1)
        assert forks == []

    def test_no_fork_for_one_replicate(self, cpus, forks):
        cpus(2)
        assert monte_carlo(Scenario.INDEPENDENT, 50, 1, 1) == serial_summary(
            Scenario.INDEPENDENT, 50, 1, 1)
        assert forks == []

    def test_no_fork_while_another_thread_is_alive(self, cpus, forks):
        cpus(2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            summary = monte_carlo(Scenario.NOISY_COMBO, 50, 4, 1)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert summary == serial_summary(Scenario.NOISY_COMBO, 50, 4, 1)

    @pytest.mark.parametrize("scenario", list(Scenario))
    def test_replicates_solve_no_eigenproblem(self, cpus, monkeypatch, scenario):
        expected = monte_carlo(scenario, 80, 7, 5)
        cpus(1)

        def no_solve(_matrix):
            raise AssertionError("a replicate solved an eigenproblem")

        monkeypatch.setattr(mcor_linalg, "eigenvalues_symmetric", no_solve)
        monkeypatch.setattr(mcor_multiway, "eigenvalues_symmetric", no_solve)
        summary = monte_carlo(scenario, 80, 7, 5)
        assert list(map(repr, summary)) == list(map(repr, expected))

    def test_child_that_dies_is_recomputed(self, cpus, forks, monkeypatch):
        parent, real = os.getpid(), mcor_simulate._off_diagonal_rms

        def die_in_a_child(lower, slack):
            if os.getpid() != parent:
                os._exit(3)
            return real(lower, slack)

        monkeypatch.setattr(mcor_simulate, "_off_diagonal_rms", die_in_a_child)
        cpus(3)
        assert monte_carlo(Scenario.CHAINED, 60, 7, 2) == serial_summary(
            Scenario.CHAINED, 60, 7, 2)
        assert len(forks) == 2
        assert_no_child_left()

    def test_error_in_a_child_chunk_is_raised_as_serial(self, cpus, forks, monkeypatch):
        # The last replicate, which a child computes, has a constant column.
        real = mcor_simulate.generate
        bad_seed = derive_seed(9, 5)

        def flat_last(scenario, n_obs, seed):
            data = real(scenario, n_obs, seed)
            if seed != bad_seed:
                return data
            x, _, z = data.columns
            return DataMatrix.from_columns((x, [1.0] * n_obs, z), data.var_names)

        monkeypatch.setattr(mcor_simulate, "generate", flat_last)
        messages = []
        for workers in (1, 2):
            cpus(workers)
            with pytest.raises(ZeroVariance) as raised:
                monte_carlo(Scenario.NOISY_COMBO, 50, 6, 9)
            messages.append(str(raised.value))
        assert messages == ["column y", "column y"]
        assert len(forks) == 1
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ZeroVariance("here"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_children_are_killed_when_this_process_raises(self, cpus, monkeypatch, error):
        parent = os.getpid()

        def fail_here_hang_there(_lower, _slack):
            if os.getpid() == parent:
                raise error
            time.sleep(60)

        monkeypatch.setattr(mcor_simulate, "_off_diagonal_rms", fail_here_hang_there)
        cpus(2)
        start = time.monotonic()
        with pytest.raises(type(error)):
            monte_carlo(Scenario.NOISY_COMBO, 50, 4, 3)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_cli_output_unchanged_and_children_silent(self, cpus, forks, capfd):
        argv = ["simulate", "noisy-combo", "--n", "200", "--reps", "10", "--output", "json"]
        outputs = []
        for workers in (1, 2):
            cpus(workers)
            assert main(argv) == 0
            outputs.append(capfd.readouterr())
        assert len(forks) == 1
        assert outputs[1].out == outputs[0].out
        assert outputs[0].err == outputs[1].err == ""
        assert_no_child_left()
