"""Library entry point of each workload, as the CLI subcommand calls it.

Run as a script, it times one call in a fresh interpreter, after the
imports, and prints {"seconds": ..., "result": {...}} as JSON, the result
holding the fields the CLI prints under the same names:

    PYTHONPATH=src python3 bench/entry.py tall-csv data.csv
    PYTHONPATH=src python3 bench/entry.py wide-matrix R.csv
    PYTHONPATH=src python3 bench/entry.py sim-noisy 7

A fresh interpreter per call gives each sample its own memory layout, as
each CLI invocation has; one layout kept for a whole run biases that run.
"""

from __future__ import annotations

import json
import sys
import time

from mcor import Scenario, mcor, mcor_from_matrix, monte_carlo
from mcor.io import read_csv_data, read_matrix

from workloads import SIM_N, SIM_REPS


def call(workload: str, arg: str) -> dict:
    """The workload's library call: its coefficient and spectrum, or its
    Monte Carlo mean."""
    if workload == "tall-csv":
        report = mcor(read_csv_data(arg, drop_na=True))
    elif workload == "wide-matrix":
        report = mcor_from_matrix(read_matrix(arg))
    else:
        summary = monte_carlo(Scenario.NOISY_COMBO, SIM_N, SIM_REPS, int(arg))
        return {"mcor_mean": summary.mcor_mean}
    return {"mcor": report.mcor, "eigenvalues": list(report.eigenvalues)}


if __name__ == "__main__":
    start = time.perf_counter()
    result = call(sys.argv[1], sys.argv[2])
    seconds = time.perf_counter() - start
    print(json.dumps({"seconds": seconds, "result": result}))
