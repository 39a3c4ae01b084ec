"""Seeded benchmark inputs and their reference coefficients.

Stdlib only and independent of the package under test. Input files come
from ``random.Random(seed)``. Each reference coefficient is the root mean
square of the off-diagonal sample correlations: for a unit-diagonal R the
paper's identity (rescaled sphericity == mcor**2) makes that equal to
sd(eig(R)) / sqrt(d), so no eigensolver is involved.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass
from math import fsum

TALL_ROWS = 20_000
TALL_VARS = 10
TALL_FACTORS = 2
TALL_NA_SHARE = 0.01
TALL_DIGITS = 9

WIDE_OBS = 250
WIDE_VARS = 60
WIDE_FACTORS = 4

SIM_N = 1000
SIM_REPS = 40

REF_SEED = 20200305
REF_ROWS = 5_000
REF_DIM = 48


@dataclass(frozen=True)
class InputStats:
    """What the program under test is given, as recorded in the notes."""

    rows: int
    columns: int
    bytes: int
    na_share: float
    digits: str


def correlations(columns) -> list[float]:
    """Sample correlations r_ij for i < j, two-pass with exact sums."""
    centered = []
    norms = []
    for col in columns:
        mean = fsum(col) / len(col)
        c = [v - mean for v in col]
        centered.append(c)
        norms.append(fsum(map(operator.mul, c, c)))
    rs = []
    for i in range(len(columns)):
        for j in range(i + 1, len(columns)):
            cross = fsum(map(operator.mul, centered[i], centered[j]))
            rs.append(cross / math.sqrt(norms[i] * norms[j]))
    return rs


def rms(values) -> float:
    return math.sqrt(fsum(v * v for v in values) / len(values))


def _factor_model(rng: random.Random, d: int, k: int):
    """Loadings and noise scales for d variables driven by k latent factors."""
    loadings = [[rng.uniform(-1.0, 1.0) for _ in range(k)] for _ in range(d)]
    noise = [rng.uniform(0.5, 1.5) for _ in range(d)]
    return loadings, noise


def _factor_row(rng: random.Random, loadings, noise) -> list[float]:
    gauss = rng.gauss
    factors = [gauss(0.0, 1.0) for _ in loadings[0]]
    return [
        fsum(map(operator.mul, load, factors)) + sd * gauss(0.0, 1.0)
        for load, sd in zip(loadings, noise)
    ]


def write_tall_csv(path, seed: int, rows: int = TALL_ROWS) -> tuple[InputStats, float]:
    """Data CSV: a text ``id`` column and TALL_VARS numeric columns from a
    TALL_FACTORS-factor model, cells at TALL_DIGITS significant digits,
    about TALL_NA_SHARE of rows with one ``NA`` cell.

    Returns the input's statistics and the reference coefficient of the
    rows that survive ``--drop-na``, computed from the cells as written.
    """
    rng = random.Random(seed)
    loadings, noise = _factor_model(rng, TALL_VARS, TALL_FACTORS)
    fmt = f".{TALL_DIGITS}g"
    lines = ["id," + ",".join(f"x{j + 1}" for j in range(TALL_VARS))]
    columns = [[] for _ in range(TALL_VARS)]
    na_rows = 0
    for i in range(rows):
        cells = [format(v, fmt) for v in _factor_row(rng, loadings, noise)]
        if rng.random() < TALL_NA_SHARE:
            cells[rng.randrange(TALL_VARS)] = "NA"
            na_rows += 1
        else:
            for col, cell in zip(columns, cells):
                col.append(float(cell))
        lines.append(f"id{i:06d}," + ",".join(cells))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    stats = InputStats(
        rows=rows,
        columns=TALL_VARS + 1,
        bytes=len(text.encode()),
        na_share=na_rows / rows,
        digits=f"{TALL_DIGITS} significant",
    )
    return stats, rms(correlations(columns))


def write_wide_matrix(
    path, seed: int, obs: int = WIDE_OBS, d: int = WIDE_VARS
) -> tuple[InputStats, float]:
    """Correlation-matrix CSV (header plus d x d grid, ``repr`` digits) of
    ``obs`` rows drawn from a WIDE_FACTORS-factor model.

    Returns the input's statistics and the RMS of the written
    off-diagonal entries.
    """
    rng = random.Random(seed)
    loadings, noise = _factor_model(rng, d, WIDE_FACTORS)
    data = [_factor_row(rng, loadings, noise) for _ in range(obs)]
    rs = correlations(list(zip(*data)))
    grid = [[1.0] * d for _ in range(d)]
    pos = 0
    for i in range(d):
        for j in range(i + 1, d):
            grid[i][j] = grid[j][i] = rs[pos]
            pos += 1
    lines = [",".join(f"v{j + 1}" for j in range(d))]
    lines += [",".join(repr(v) for v in row) for row in grid]
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    stats = InputStats(rows=d + 1, columns=d, bytes=len(text.encode()),
                       na_share=0.0, digits="repr (17 significant)")
    return stats, rms(rs)


# SplitMix64 and the polar normal as the package's rng module documents
# them, re-derived here so that a change to the generated stream fails the
# simulate check instead of moving its reference along with it.
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _uniforms(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + _GAMMA) & _MASK64
        yield ((_mix64(state) >> 11) + 0.5) * 2.0 ** -53


def noisy_combo_columns(seed: int, n: int) -> list[list[float]]:
    """Columns x, y, z = x + 2y + N(0, 1) in the package's draw order."""
    draw = _uniforms(seed).__next__
    spare = None
    xs, ys, zs = [], [], []
    for _ in range(n):
        x = draw()
        y = draw()
        if spare is None:
            while True:
                v1 = 2.0 * draw() - 1.0
                v2 = 2.0 * draw() - 1.0
                s = v1 * v1 + v2 * v2
                if 0.0 < s < 1.0:
                    factor = math.sqrt(-2.0 * math.log(s) / s)
                    noise, spare = v1 * factor, v2 * factor
                    break
        else:
            noise, spare = spare, None
        xs.append(x)
        ys.append(y)
        zs.append(x + 2.0 * y + noise)
    return [xs, ys, zs]


def sim_reference(seed: int, n: int = SIM_N, reps: int = SIM_REPS) -> float:
    """Mean coefficient over the ``reps`` noisy-combo replicates of
    ``simulate noisy-combo --seed seed``; replicate i uses the (i+1)-th
    raw SplitMix64 output of the master seed as its own seed."""
    values = []
    for i in range(reps):
        replicate_seed = _mix64((seed + (i + 1) * _GAMMA) & _MASK64)
        values.append(rms(correlations(noisy_combo_columns(replicate_seed, n))))
    return fsum(values) / reps


def reference_loop() -> float:
    """Fixed pure-Python work of the same kinds as the program's: integer
    mixing, normal draws, float formatting and parsing and exact sums, as
    in reading data and correlating it, then plane rotations of a square
    list-of-lists matrix, as in a Jacobi sweep. About 40 ms on the machine
    the benchmark was built on. The benchmark times it next to each
    operation and reports the operation's time as a multiple of it, which
    cancels the host's speed at that moment."""
    x, y, z = noisy_combo_columns(REF_SEED, REF_ROWS)
    text = ",".join(format(v, ".9g") for v in z)
    parsed = [float(cell) for cell in text.split(",")]
    coefficient = rms(correlations([x, y, parsed]))
    grid = [x[i * REF_DIM:(i + 1) * REF_DIM] for i in range(REF_DIM)]
    c, s = math.cos(0.1), math.sin(0.1)
    for p in range(REF_DIM):
        for q in range(p + 1, REF_DIM):
            for row in grid:
                a, b = row[p], row[q]
                row[p] = c * a - s * b
                row[q] = s * a + c * b
    return coefficient + grid[0][0]
