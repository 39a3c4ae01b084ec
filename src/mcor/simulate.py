"""Seeded generators for five three-variable scenarios and a Monte Carlo
harness characterising the sampling behaviour of the coefficient.

Scenario recipes (columns x, y, z):

    ALL_LINEAR    x ~ U(0,1); y = 2x;           z = x
    LINEAR_COMBO  x ~ U(0,1); y ~ U(0,1);       z = x + 2y
    INDEPENDENT   x ~ U(0,1); y ~ U(0,1);       z ~ U(0,1)
    NOISY_COMBO   x ~ U(0,1); y ~ U(0,1);       z = x + 2y + N(0,1)
    CHAINED       x ~ U(0,1); y = 5x + N(0,1);  z = x + 2y + N(0,1)

Rows are generated in order and, within a row, variates are drawn in
recipe order, so a (scenario, n_obs, seed) triple pins the data bit for
bit. Replicates of the Monte Carlo harness draw fresh data from substream
seeds derived with rng.derive_seed, so the summary does not depend on
evaluation order, nor on how many processes evaluate them.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from itertools import islice
from math import fsum
from typing import NamedTuple

from .corestats import DataMatrix, correlation_matrix, sample_sd
from .errors import BadArguments
from .linalg import CLAMP_EPS
from .multiway import _off_diagonal_rms
from .parallel import chunk_map
from .rng import derive_seed, polar_normals, uniform_stream
from .scenarios import Scenario


class MonteCarloSummary(NamedTuple):
    """Replicate-level summary of the coefficient for one scenario."""

    scenario: Scenario
    n_obs: int
    replicates: int
    seed: int
    mcor_mean: float
    mcor_sd: float
    mcor_min: float
    mcor_max: float


def _check_scenario(scenario: Scenario) -> None:
    """BadArguments unless ``scenario`` is a Scenario member: the recipes are
    chosen by identity, so a CLI name would fall through to the last one."""
    if not isinstance(scenario, Scenario):
        raise BadArguments(f"scenario must be a Scenario member, got {scenario!r}")


def _check_n_obs(n_obs: int) -> None:
    """BadArguments unless 2 <= n_obs <= sys.maxsize // 3: draws take 3 * n_obs words."""
    if n_obs < 2:
        raise BadArguments(f"n_obs must be >= 2, got {n_obs}")
    if n_obs > sys.maxsize // 3:
        raise BadArguments(f"n_obs must be <= {sys.maxsize // 3}, got {n_obs}")


def generate(scenario: Scenario, n_obs: int, seed: int) -> DataMatrix:
    """Draw one dataset (columns x, y, z) for ``scenario``; deterministic
    in (scenario, n_obs, seed)."""
    _check_scenario(scenario)
    _check_n_obs(n_obs)
    us = uniform_stream(seed)
    if scenario is Scenario.ALL_LINEAR:
        xs = list(islice(us, n_obs))
        ys = [2.0 * u for u in xs]
        zs = xs
    elif scenario is Scenario.LINEAR_COMBO:
        draws = list(islice(us, 2 * n_obs))
        xs, ys = draws[0::2], draws[1::2]
        zs = [x + 2.0 * y for x, y in zip(xs, ys)]
    elif scenario is Scenario.INDEPENDENT:
        draws = list(islice(us, 3 * n_obs))
        xs, ys, zs = draws[0::3], draws[1::3], draws[2::3]
    else:
        normals = polar_normals(us)
        # zip draws each row's variates in recipe order: x, then y or the
        # normal in y, then the normal in z.
        chained = scenario is Scenario.CHAINED
        draws = zip(us, normals, normals) if chained else zip(us, us, normals)
        xs, ys, zs = [], [], []
        for x, y, noise in islice(draws, n_obs):
            y = 5.0 * x + y if chained else y
            xs.append(x)
            ys.append(y)
            zs.append(x + 2.0 * y + noise)
    # Uniforms and normals are finite floats by construction.
    return DataMatrix._from_finite((tuple(xs), tuple(ys), tuple(zs)), ("x", "y", "z"))


def population_mcor(scenario: Scenario) -> float:
    """Infinite-n value of the coefficient for ``scenario``.

    The coefficient of a correlation matrix equals the root mean square of
    its pairwise correlations, so each value below follows from the
    population correlations of the recipe (var of U(0,1) = 1/12).
    """
    _check_scenario(scenario)
    if scenario is Scenario.ALL_LINEAR:
        return 1.0
    if scenario is Scenario.LINEAR_COMBO:
        # cor(x,z) = 1/sqrt(5), cor(y,z) = 2/sqrt(5); spectrum {2, 1, 0}
        return math.sqrt(1.0 / 3.0)
    if scenario is Scenario.INDEPENDENT:
        return 0.0
    if scenario is Scenario.NOISY_COMBO:
        # var z = 17/12; cor(x,z) = 1/sqrt(17), cor(y,z) = 2/sqrt(17)
        return math.sqrt(5.0 / 51.0)
    # CHAINED: var y = 37/12, var z = 181/12; cov(x,y) = 5/12,
    # cov(x,z) = 11/12, cov(y,z) = 79/12, hence squared correlations
    # 25/37, 121/181 and 6241/6697.
    return math.sqrt((25.0 / 37.0 + 121.0 / 181.0 + 6241.0 / 6697.0) / 3.0)


def _value(scenario: Scenario, n_obs: int, seed: int, i: int) -> float:
    """The coefficient of replicate ``i``, from its correlation matrix's entries alone."""
    data = generate(scenario, n_obs, derive_seed(seed, i))
    return _off_diagonal_rms(correlation_matrix(data).lower, CLAMP_EPS)


# Forking pays when the replicates it takes off this process outweigh its
# cost, about 1.7 ms. With two workers this process computes the first
# replicates // 2 replicates and waits for the child's other ones, so the
# saving grows with replicates // 2 times the cost of one replicate.
# Timed serially, a replicate costs about 18 us plus 0.51 us a row for
# ALL_LINEAR, whose rows are the cheapest, and up to 1.19 us a row for
# CHAINED: at least as much as n_obs + 35 ALL_LINEAR rows. Timed on a
# 2-CPU host (medians of 21 alternating serial and forked runs of
# ALL_LINEAR, n_obs from 10 to 1000), forking began to win at
# (replicates // 2) * (n_obs + 35) of 2500 to 3240: the host's state moves
# that crossover more than binding the children does, so the gate sits
# inside it. The other scenarios, whose rows cost more, win from lower
# down.
_FORK_SAVING = 3000


def monte_carlo(
    scenario: Scenario, n_obs: int, replicates: int, seed: int
) -> MonteCarloSummary:
    """Coefficient summary over ``replicates`` fresh datasets, replicate i
    drawn from the substream seed derive_seed(seed, i): a pure function of
    the four arguments, bit-identical whatever the process count.

    When ``(replicates // 2) * (n_obs + 35)`` reaches ``_FORK_SAVING``
    the replicates run in ``parallel.chunk_map``; below it, serially.
    """
    _check_scenario(scenario)
    if replicates < 1:
        raise BadArguments(f"replicates must be >= 1, got {replicates}")
    if replicates > sys.maxsize:
        raise BadArguments(f"replicates must be <= {sys.maxsize}, got {replicates}")
    _check_n_obs(n_obs)  # before any process is forked
    value = partial(_value, scenario, n_obs, seed)
    if (replicates // 2) * (n_obs + 35) < _FORK_SAVING:
        values = list(map(value, range(replicates)))
    else:
        values = chunk_map(value, replicates)
    return MonteCarloSummary(
        scenario=scenario,
        n_obs=n_obs,
        replicates=replicates,
        seed=seed,
        mcor_mean=fsum(values) / replicates,
        mcor_sd=sample_sd(values) if replicates > 1 else 0.0,
        mcor_min=min(values),
        mcor_max=max(values),
    )
