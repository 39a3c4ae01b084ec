"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line each. Run with ``pytest tests/test_acceptance.py -v -s``.

Criterion 1 note: each reference spectrum is checked twice. First the
implementation: ``mcor_from_spectrum`` on the printed spectrum must match
an exact-arithmetic oracle to 1e-15. Then the paper's value: the target
keeps its stated tolerance, and the window adds only the error that the
spectrum's own printed rounding can carry into the coefficient,
h / sqrt(d - 1) for a half-unit h in the last printed decimal (0 for an
exact spectrum). All nine criteria are expected to pass.
"""

import json
import math

import pytest

from mcor import (
    Scenario,
    SplitMix64,
    independence_bound,
    make_data_matrix,
    mcor,
    mcor_from_matrix,
    mcor_from_spectrum,
    monte_carlo,
    pearson_r,
    population_mcor,
)
from mcor.cli import main
from mcor.io import bundled_fixture
from mcor.linalg import eigenvalues_symmetric, make_symmetric
from oracles import eig_bisect, exact_spectrum_mcor, full_square, full_square_norm_sq, trace
from support import block_with_identity, rand_correlation, rand_data, rand_symmetric

AREA1 = str(bundled_fixture("tb_area1.csv"))
AREA2 = str(bundled_fixture("tb_area2.csv"))
# frozen by the bisection oracle (see tests/test_multiway.py)
AREA1_MCOR = 0.192215157224
AREA2_MCOR = 0.285505399832


def _verdict(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE {num}] {name}: {status}")
    for line in failures:
        print(f"    {line}")
    assert not failures, f"criterion {num} ({name}): {'; '.join(failures)}"


@pytest.fixture(scope="module")
def random_correlation_reports():
    """10,000 correlation matrices from random data, d in [2, 10], with
    their reports; shared by criteria 3 and 4."""
    rng = SplitMix64(0xACCE97)
    reports = []
    for _ in range(10_000):
        d = 2 + rng.next_u64() % 9
        n = d + 2 + rng.next_u64() % 20
        reports.append(mcor_from_matrix(rand_correlation(rng, d, n)))
    return reports


def test_criterion_1_golden_spectra():
    # (spectrum, printed decimals of its eigenvalues, paper target, stated tol).
    # The coefficient is ||P lam||_2 / sqrt(d (d - 1)) with P the centring
    # projection, so a spectrum lam whose printed form lam_hat is rounded to
    # half-unit h moves it by at most ||lam - lam_hat||_2 / sqrt(d (d - 1))
    # <= sqrt(d) h / sqrt(d (d - 1)) = h / sqrt(d - 1): 3.54e-4 for d = 3 at
    # three decimals. The decimals are declared, not read off repr(), which
    # drops trailing zeros (repr(2.730) is '2.73').
    cases = [
        ((3.0, 0.0, 0.0), None, 1.0, 1e-12),
        ((1.972, 1.028, 0.0), 3, 0.569, 5e-4),
        ((1.03, 1.012, 0.958), 3, 0.021, 5e-4),
        ((1.507, 1.024, 0.469), 3, 0.300, 5e-4),
        ((2.73, 0.236, 0.034), 3, 0.867, 5e-4),
    ]
    failures = []
    for spectrum, decimals, target, tol in cases:
        got = mcor_from_spectrum(spectrum)
        exact = exact_spectrum_mcor(spectrum)
        if abs(got - exact) > 1e-15:
            failures.append(
                f"spectrum {spectrum}: got {got!r}, exact oracle {exact!r}, "
                f"gap {abs(got - exact):.3e} > 1e-15"
            )
        h = 0.0 if decimals is None else 0.5 * 10.0**-decimals
        rounding = h / math.sqrt(len(spectrum) - 1)
        if abs(got - target) > tol + rounding:
            failures.append(
                f"spectrum {spectrum}: got {got:.7f}, paper {target}, gap "
                f"{abs(got - target):.3e} > window {tol:g} + {rounding:.3e} input rounding"
            )
    _verdict(1, "golden spectra -> mcor", failures)


def test_criterion_2_two_dimensional_reduction():
    rng = SplitMix64(0xC2)
    worst = 0.0
    for _ in range(10_000):
        n = 3 + rng.next_u64() % 498  # n in [3, 500]
        us = rng.uniforms(2 * n)
        data = make_data_matrix([(us[2 * i], us[2 * i + 1]) for i in range(n)])
        gap = abs(mcor(data).mcor - abs(pearson_r(data.column(0), data.column(1))))
        worst = max(worst, gap)
    failures = []
    if worst > 1e-12:
        failures.append(f"max |mcor - |r|| = {worst:.3e} > 1e-12")
    _verdict(2, "2D reduction to |pearson r|", failures)


def test_criterion_3_bounds(random_correlation_reports):
    failures = []
    bad = [r.mcor for r in random_correlation_reports if not 0.0 <= r.mcor <= 1.0 + 1e-12]
    if bad:
        failures.append(f"{len(bad)} of 10000 coefficients outside [0, 1+1e-12]")
    d = 6
    eye = make_symmetric(d, [1.0 if j == i else 0.0 for i in range(d) for j in range(i + 1)])
    if mcor_from_matrix(eye).mcor != 0.0:
        failures.append("identity matrix did not give exactly 0")
    ones = make_symmetric(d, [1.0] * (d * (d + 1) // 2))
    if abs(mcor_from_matrix(ones).mcor - 1.0) > 1e-12:
        failures.append("all-ones matrix missed 1 by more than 1e-12")
    _verdict(3, "coefficient bounds on random matrices", failures)


def test_criterion_4_sphericity_identity(random_correlation_reports):
    worst = max(
        abs(r.mcor**2 - r.rescaled_sphericity) for r in random_correlation_reports
    )
    failures = []
    if worst > 1e-10:
        failures.append(f"max |mcor^2 - rescaled sphericity| = {worst:.3e} > 1e-10")
    _verdict(4, "mcor^2 equals rescaled sphericity", failures)


def test_criterion_5_block_bound():
    rng = SplitMix64(0xB10C)
    failures = []
    worst_excess = 0.0
    for _ in range(2_000):
        d = 2 + rng.next_u64() % 7  # d in [2, 8]
        k = rng.next_u64() % (d + 1)
        if d - k < 2:
            tri = [1.0 if j == i else 0.0 for i in range(d) for j in range(i + 1)]
            matrix = make_symmetric(d, tri)
        else:
            matrix = block_with_identity(k, rand_correlation(rng, d - k))
        excess = mcor_from_matrix(matrix).mcor - independence_bound(d, k)
        worst_excess = max(worst_excess, excess)
    if worst_excess > 1e-10:
        failures.append(f"bound exceeded by {worst_excess:.3e}")
    for d in range(2, 9):
        for k in range(0, d - 1):
            ones = make_symmetric(
                d - k, [1.0] * ((d - k) * (d - k + 1) // 2)
            )
            got = mcor_from_matrix(block_with_identity(k, ones)).mcor
            if abs(got - independence_bound(d, k)) > 1e-10:
                failures.append(f"equality missed at d={d}, k={k}: {got!r}")
    _verdict(5, "k-independence block bound", failures)


def test_criterion_6_eigensolver_oracle():
    rng = SplitMix64(0x0EAC1E)
    failures = []
    worst = 0.0
    for _ in range(500):
        d = 2 + rng.next_u64() % 5  # d in [2, 6]
        m = rand_symmetric(rng, d, scale=3.0)
        spectrum = eigenvalues_symmetric(m)
        oracle = eig_bisect(full_square(m.lower))
        worst = max(worst, max(abs(a - b) for a, b in zip(spectrum.values, oracle)))
        diagonal_sum = trace(m.lower)
        if abs(math.fsum(spectrum.values) - diagonal_sum) > 1e-10 * max(1.0, abs(diagonal_sum)):
            failures.append("trace identity violated")
        fro2 = full_square_norm_sq(m.lower)
        if abs(math.fsum(v * v for v in spectrum.values) - fro2) > 1e-8 * max(1.0, fro2):
            failures.append("Frobenius identity violated")
    if worst > 1e-9:
        failures.append(f"max |eigensolver - bisection| = {worst:.3e} > 1e-9")
    _verdict(6, "eigensolver vs bisection oracle", failures)


def test_criterion_7_monte_carlo_consistency():
    failures = []
    seed = 0x5EED
    independent = monte_carlo(Scenario.INDEPENDENT, 1000, 200, seed)
    if independent.mcor_mean > 0.05:
        failures.append(f"independent mean {independent.mcor_mean:.4f} > 0.05")
    combo = monte_carlo(Scenario.LINEAR_COMBO, 1000, 200, seed)
    target = population_mcor(Scenario.LINEAR_COMBO)
    if abs(combo.mcor_mean - target) > 0.02:
        failures.append(
            f"linear-combo mean {combo.mcor_mean:.4f} not within 0.02 of {target:.4f}"
        )
    noisy = monte_carlo(Scenario.NOISY_COMBO, 1000, 200, seed)
    target = population_mcor(Scenario.NOISY_COMBO)
    if abs(noisy.mcor_mean - target) > 0.03:
        failures.append(
            f"noisy-combo mean {noisy.mcor_mean:.4f} not within 0.03 of {target:.4f}"
        )
    linear = monte_carlo(Scenario.ALL_LINEAR, 1000, 200, seed)
    if linear.mcor_sd > 1e-10:
        failures.append(f"all-linear sd {linear.mcor_sd:.3e} > 1e-10")
    _verdict(7, "Monte Carlo consistency at n=1000", failures)


def _matrix_report(path):
    from mcor.io import read_matrix

    return mcor_from_matrix(read_matrix(path))


def test_criterion_8_fixture_comparison(capsys):
    failures = []
    report1 = _matrix_report(AREA1)
    report2 = _matrix_report(AREA2)
    if abs(report1.mcor - AREA1_MCOR) > 1e-9:
        failures.append(f"area one mcor {report1.mcor!r} != frozen {AREA1_MCOR}")
    if abs(report2.mcor - AREA2_MCOR) > 1e-9:
        failures.append(f"area two mcor {report2.mcor!r} != frozen {AREA2_MCOR}")
    code = main(["compare", AREA1, AREA2, "--output", "json"])
    first = capsys.readouterr().out
    payload = json.loads(first)
    if code != 0 or payload["result"]["more_correlated"] != "B":
        failures.append("compare verdict is not B")
    main(["compare", AREA1, AREA2, "--output", "json"])
    second = capsys.readouterr().out
    if first != second:
        failures.append("JSON report is not byte-identical across reruns")
    with capsys.disabled():
        _verdict(8, "fixture matrices comparison", failures)


def test_criterion_9_cli_contract(tmp_path, capsys):
    failures = []

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    const = tmp_path / "const.csv"
    const.write_text("a,b\n1,5\n2,5\n3,5\n", encoding="utf-8")
    code, out, err = run("compute", str(const))
    if code != 1 or err != "error: ZERO_VARIANCE: column b\n":
        failures.append(f"zero-variance path gave code {code}, err {err!r}")

    rect = tmp_path / "rect.csv"
    rect.write_text("1,0.5,0.2\n0.5,1,0.1\n", encoding="utf-8")
    code, _, err = run("matrix", str(rect))
    if code != 1 or not err.startswith("error: NOT_SQUARE: ") or err.count("\n") != 1:
        failures.append(f"not-square path gave code {code}, err {err!r}")

    code, _, err = run("compute", str(tmp_path / "absent.csv"))
    if code != 1 or not err.startswith("error: FILE_ERROR: "):
        failures.append(f"missing-file path gave code {code}, err {err!r}")

    code, _, err = run("--no-such-flag")
    if code != 2 or not err.startswith("error: USAGE: ") or err.count("\n") != 1:
        failures.append(f"usage path gave code {code}, err {err!r}")

    # CSV round trip at 12 significant digits preserves the coefficient
    data = rand_data(SplitMix64(0x0C9), 60, 5)
    direct = mcor(data).mcor
    lines = [",".join(data.var_names)]
    lines += [",".join(f"{v:.12g}" for v in row) for row in data.values]
    round_trip = tmp_path / "round.csv"
    round_trip.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run("compute", str(round_trip), "--output", "json")
    if code != 0:
        failures.append("round-trip compute failed")
    else:
        got = json.loads(out)["result"]["mcor"]
        if abs(got - direct) > 1e-10:
            failures.append(f"round-trip mcor moved by {abs(got - direct):.3e}")

    with capsys.disabled():
        _verdict(9, "CLI error contract and round trip", failures)
