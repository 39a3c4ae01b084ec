"""Independent verification routes used by the tests.

Nothing here may touch the package's eigensolver: eigenvalues come from
bisection on the characteristic polynomial det(M - x*I), whose
coefficients are computed by cofactor expansion (memoized on the active
column subset, expanding along the first remaining row). A second route,
the off-diagonal root-mean-square identity, checks the coefficient value
without any eigensolver at all. A third, for a given spectrum, computes the
coefficient in exact rational arithmetic (``fractions``) followed by one
high-precision ``decimal`` square root, so it carries no float rounding.

``always_scaled_sample_sd`` is an earlier ``sample_sd`` formula, kept as a
reference: it scales every list by a power of two before centring, where
the package scales only when a sum would overflow.

``_parse_number`` is the per-cell number rule (finite float() results
only) that the package's column parser ``io._parse_column`` must match on
each cell as ``str.strip`` leaves it.

``ScalarSplitMix64`` is the seeded generator written one word at a time,
straight from the description in the package's ``rng`` docstring, so the
package's block-mixed stream can be checked against it. ``unmix64`` runs
its output finalizer backwards, so a test can pick the seed whose stream
starts with a given word.
"""

from __future__ import annotations

import math
from decimal import Context
from fractions import Fraction
from math import fsum


def char_poly(rows) -> list[float]:
    """Ascending coefficients of det(M - x*I) via cofactor expansion."""
    d = len(rows)
    memo: dict[tuple[int, ...], list[float]] = {}

    def det(cols: tuple[int, ...]) -> list[float]:
        cached = memo.get(cols)
        if cached is not None:
            return cached
        r = d - len(cols)  # expand along the first row not yet consumed
        if len(cols) == 1:
            c = cols[0]
            poly = [rows[r][c], -1.0] if r == c else [rows[r][c]]
            memo[cols] = poly
            return poly
        out = [0.0] * (len(cols) + 1)
        sign = 1.0
        for k, c in enumerate(cols):
            sub = det(cols[:k] + cols[k + 1 :])
            entry = (rows[r][c], -1.0) if r == c else (rows[r][c],)
            for i, ec in enumerate(entry):
                if ec == 0.0:
                    continue
                factor = sign * ec
                for j, sc in enumerate(sub):
                    out[i + j] += factor * sc
            sign = -sign
        memo[cols] = out
        return out

    return det(tuple(range(d)))


def _poly_eval(coeffs, x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eig_bisect(rows, grid: int = 4096) -> list[float]:
    """All eigenvalues of a symmetric matrix, descending, by sign-change
    bisection on the characteristic polynomial.

    Brackets come from a scan of the Gershgorin interval; the scan is
    refined until d sign changes are found, so the routine requires
    distinct eigenvalues (any multiple root makes it fail loudly).
    """
    d = len(rows)
    poly = char_poly(rows)
    radius = [fsum(abs(v) for j, v in enumerate(row) if j != i) for i, row in enumerate(rows)]
    lo = min(rows[i][i] - radius[i] for i in range(d)) - 1e-9
    hi = max(rows[i][i] + radius[i] for i in range(d)) + 1e-9
    scale = max(1.0, abs(lo), abs(hi))

    points = grid
    for _ in range(6):
        xs = [lo + (hi - lo) * t / points for t in range(points + 1)]
        fs = [_poly_eval(poly, x) for x in xs]
        brackets = [
            (xs[i], xs[i + 1], fs[i], fs[i + 1])
            for i in range(points)
            if fs[i] == 0.0 or fs[i] * fs[i + 1] < 0.0
        ]
        if len(brackets) >= d:
            break
        points *= 4
    if len(brackets) != d:
        raise AssertionError(
            f"bisection oracle found {len(brackets)} sign changes, expected {d} "
            "(multiple or clustered eigenvalues?)"
        )

    roots = []
    for a, b, fa, _fb in brackets:
        if fa == 0.0:
            roots.append(a)
            continue
        for _ in range(200):
            mid = 0.5 * (a + b)
            fm = _poly_eval(poly, mid)
            if fm == 0.0 or (b - a) <= 1e-15 * scale:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return sorted(roots, reverse=True)


def oracle_mcor(rows) -> float:
    """Coefficient from the bisection spectrum (sample sd over sqrt(d))."""
    lam = eig_bisect(rows)
    d = len(lam)
    mean = fsum(lam) / d
    sd = math.sqrt(fsum((v - mean) ** 2 for v in lam) / (d - 1))
    return sd / math.sqrt(d)


def rms_mcor(rows) -> float:
    """Eigensolver-free identity: for a unit-diagonal d x d matrix the
    coefficient equals the RMS of the d(d-1)/2 off-diagonal entries."""
    d = len(rows)
    offs = [rows[i][j] for i in range(d) for j in range(i + 1, d)]
    return math.sqrt(fsum(v * v for v in offs) / len(offs))


def exact_spectrum_mcor(values) -> float:
    """Coefficient of a spectrum, sample sd over sqrt(d), without float
    arithmetic.

    Each float is taken at its exact binary value; the mean and the
    d - 1 variance are exact fractions, and variance / d and its square
    root are carried to 40 significant digits before the one rounding to
    float.
    """
    lam = [Fraction(v) for v in values]
    d = len(lam)
    mean = sum(lam) / d
    q = sum((v - mean) ** 2 for v in lam) / (d - 1) / d
    ctx = Context(prec=40)
    return float(ctx.divide(q.numerator, q.denominator).sqrt(ctx))


def always_scaled_sample_sd(xs) -> float:
    """Sample sd (m - 1 denominator) of ``xs`` scaled by the power of two
    that brings the largest |value| into [0.5, 1), unscaled at the end;
    OverflowError if the result is past the float range."""
    shift = math.frexp(max(map(abs, xs)))[1]
    scaled = [math.ldexp(v, -shift) for v in xs]
    mean = fsum(scaled) / len(scaled)
    centered = [v - mean for v in scaled]
    return math.ldexp(math.sqrt(fsum(c * c for c in centered) / (len(xs) - 1)), shift)


def _parse_number(token: str) -> float | None:
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


class ScalarSplitMix64:
    """SplitMix64 with uniform and polar-normal variates, one word at a time.

    The state advances by 0x9E3779B97F4A7C15 modulo 2**64; an output word
    is the new state through two xor-shift-multiply rounds (multipliers
    0xBF58476D1CE4E5B9 and 0x94D049BB133111EB, shifts 30/27/31). A uniform
    is (top 53 bits + 0.5) * 2**-53. A normal is Marsaglia's polar method
    on consecutive uniforms, returning v1 * factor and keeping v2 * factor
    for the next call.
    """

    def __init__(self, seed: int):
        self.state = seed % 2**64
        self.spare = None

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) % 2**64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        return ((self.next_u64() >> 11) + 0.5) * 2.0**-53

    def uniforms(self, count: int) -> list[float]:
        return [self.uniform() for _ in range(count)]

    def normal(self) -> float:
        if self.spare is not None:
            value, self.spare = self.spare, None
            return value
        while True:
            v1 = 2.0 * self.uniform() - 1.0
            v2 = 2.0 * self.uniform() - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                factor = math.sqrt(-2.0 * math.log(s) / s)
                self.spare = v2 * factor
                return v1 * factor


def _unxorshift(z: int, shift: int) -> int:
    """x from z = x ^ (x >> shift), for 64-bit x: z ^ (z >> shift) ^
    (z >> 2*shift) ^ ... telescopes back to x."""
    x = z
    for k in range(shift, 64, shift):
        x ^= z >> k
    return x


def unmix64(word: int) -> int:
    """The state that the SplitMix64 output finalizer maps to ``word``: its
    three xor-shifts and two multiplications undone in reverse order."""
    z = _unxorshift(word, 31)
    z = _unxorshift(z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64, 27)
    return _unxorshift(z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64, 30)
