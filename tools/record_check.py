"""Compare the records, stdout and exit codes of two source trees.

Usage::

    python3 tools/record_check.py [--stats] <parent-tree> [<change-tree>]

Each tree is a checkout of this repository; the change tree defaults to the
checkout that holds this script. Every sweep of ``SWEEPS`` runs once per tree
and per record format (CSV and JSON Lines), each in a fresh interpreter with
one BLAS thread, from an empty working directory; the two trees' runs of a
sweep run side by side. The ``wall_time`` column is left out of the
comparison, since it is the only field that is not a function of the seed.
Where both trees exit 2 (a configuration error), their stderr is compared
too; other stderr is not, since a traceback holds the tree's paths. For each
run the script prints ``same`` or the columns that differ with their largest
absolute difference, and it exits 1 if any record, stdout, exit code or such
stderr differs.

With ``--stats`` the trees may draw different records from the same law,
which a byte comparison cannot show. Every sweep of ``STATS_SWEEPS`` then
runs once per tree at ``--trials 400``, and per cell and per column of
``STATS_COLUMNS`` a two-sample Kolmogorov-Smirnov test compares the two
trees' values (a trial that wrote no value, such as an errored trial's, is
left out). The script prints each sweep's smallest p-value and test count,
then the smallest p-value of the whole run with its Bonferroni count, and it
exits 1 if that p-value times the count is below 1%, or an exit code differs.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# The sweeps every record check repeats: the default grid at two trials, a
# measurement grid, a grid with starved pure stages (seed 13), the tight-eps
# grid, the side experiments, the one-cell default, 40-trial default grids on
# both backends, and 40-trial side-experiment grids whose stacks cross the
# 16-trial boundary: gentle with rank-3 projections and the 1e-12 window, and
# scale-* from the d^2 floor to 1e5 shots; then configuration errors: stage 1
# below the d^2 floor, eps below the oracles' resolution floor, budgets that
# all fall below the floor, and d = 1.
SWEEPS = (
    ["chain-sweep", "--trials", "2", "--seed", "11"],
    ["chain-sweep", "--backend", "measurement", "--trials", "1", "--seed", "12"],
    [
        "chain-sweep", "--backend", "measurement", "--r", "1,2", "--d", "2,3",
        "--eps", "0.2,0.4", "--c-extra", "0.2", "--trials", "3", "--seed", "13",
    ],
    ["chain-sweep", "--d", "4,8", "--eps", "0.001,0.0001,1e-05", "--trials", "3", "--seed", "19"],
    ["scale-pure"],
    ["scale-mixed"],
    ["gentle", "--trials", "50"],
    ["prop-search", "--batch", "2000"],
    ["reduce", "--trials", "20"],
    ["chain-sweep", "--trials", "40"],
    ["chain-sweep", "--backend", "measurement", "--trials", "40"],
    [
        "gentle", "--r", "1,2,3", "--d", "3,4,8", "--delta", "0.5,0.1,1e-5,1e-12",
        "--trials", "40",
    ],
    ["scale-pure", "--d", "2,3,4,8", "--n", "64,1000,100000", "--trials", "40"],
    ["scale-mixed", "--r", "1,2,3", "--d", "3,4,8", "--n", "64,1000,100000", "--trials", "40"],
    ["chain-sweep", "--backend", "measurement", "--d", "4", "--n-copies", "15"],
    ["reduce", "--eps", "1e-13"],
    ["scale-pure", "--d", "4", "--n", "10"],
    ["chain-sweep", "--d", "1"],
)
FORMATS = ("csv", "jsonl")
# The sweeps of --stats: both chain backends and gentle on the default grid,
# and the scale-* grids of SWEEPS, from the d^2 floor to 1e5 shots.
STATS_SWEEPS = (
    ["chain-sweep"],
    ["chain-sweep", "--backend", "measurement"],
    ["gentle"],
    ["scale-pure", "--d", "2,3,4,8", "--n", "64,1000,100000"],
    ["scale-mixed", "--r", "1,2,3", "--d", "3,4,8", "--n", "64,1000,100000"],
)
STATS_TRIALS = 400
# the chain's stage-1 fidelity, keep probability and final fidelity, gentle's
# trace distance and the scale-* infidelity; a sweep's records hold some of them
STATS_COLUMNS = (
    "fidelity_mixed_estimate", "keep_probability", "final_fidelity", "trace_distance", "infidelity"
)
STATS_ALPHA = 0.01  # family-wise false-alarm rate of the Bonferroni-corrected tests
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_sweep(tree: Path, argv: list[str], fmt: str) -> tuple[int, str, str, list[dict]]:
    """Exit code, stdout, stderr and records (without wall_time) of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(_ONE_THREAD, "1"))
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / f"records.{fmt}"
        proc = subprocess.run(
            [sys.executable, "-m", "tomoreduce.cli", *argv, "--format", fmt, "--out", out.name],
            cwd=work, env=env, capture_output=True, text=True,
        )
        records = _read(out, fmt) if out.exists() else []
    for rec in records:
        rec.pop("wall_time", None)
    return proc.returncode, proc.stdout, proc.stderr, records


def _read(path: Path, fmt: str) -> list[dict]:
    with open(path, newline="") as f:
        if fmt == "csv":
            return list(csv.DictReader(f))
        return [json.loads(line) for line in f]


def _as_float(value) -> float | None:
    if isinstance(value, bool) or value is None or value == "":
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def record_differences(old: list[dict], new: list[dict]) -> dict[str, float]:
    """Columns that differ, each with its largest |difference| (nan where a
    differing value is not numeric, or the record counts differ)."""
    if len(old) != len(new):
        return {"<record count>": math.nan}
    diffs: dict[str, float] = {}
    for a, b in zip(old, new):
        for key in a.keys() | b.keys():
            x, y = a.get(key), b.get(key)
            if x == y:
                continue
            fx, fy = _as_float(x), _as_float(y)
            delta = abs(fx - fy) if fx is not None and fy is not None else math.nan
            prev = diffs.get(key, 0.0)
            diffs[key] = math.nan if math.isnan(prev) or math.isnan(delta) else max(prev, delta)
    return diffs


def cell_values(records: list[dict], column: str) -> dict[str, list[float]]:
    """The numeric values of one column, by cell."""
    by_cell: dict[str, list[float]] = {}
    for rec in records:
        value = _as_float(rec.get(column))
        if value is not None:
            by_cell.setdefault(str(rec["cell"]), []).append(value)
    return by_cell


def compare_laws(parent: Path, change: Path) -> int:
    """The --stats mode: per-cell two-sample KS tests between the trees."""
    from scipy.stats import ks_2samp

    tests: list[tuple[float, str]] = []
    codes_differ = False
    with ThreadPoolExecutor(max_workers=2) as pool:  # a sweep's two trees side by side
        for sweep in STATS_SWEEPS:
            argv = [*sweep, "--trials", str(STATS_TRIALS)]
            runs = pool.map(lambda tree: run_sweep(tree, argv, "csv"), (parent, change))
            (code_a, _, _, recs_a), (code_b, _, _, recs_b) = runs
            found = []
            for column in STATS_COLUMNS:
                old, new = cell_values(recs_a, column), cell_values(recs_b, column)
                for cell in sorted(old.keys() & new.keys(), key=int):
                    p = ks_2samp(old[cell], new[cell]).pvalue
                    found.append((float(p), f"{' '.join(argv)}: cell {cell} {column}"))
            label = f"{' '.join(argv)}: {len(recs_a)} -> {len(recs_b)} records"
            if code_a != code_b:
                label += f", exit code {code_a} -> {code_b}"
                codes_differ = True
            if found:
                p, where = min(found)
                label += f", {len(found)} tests, smallest p {p:.3g} ({where.split(': ', 1)[1]})"
            print(label, flush=True)
            tests += found
    if not tests:
        print("no values to compare")
        return 1
    p, where = min(tests)
    corrected = min(1.0, p * len(tests))
    verdict = "differ" if corrected < STATS_ALPHA else "agree"
    print(f"smallest p {p:.3g} of {len(tests)} tests ({where}); "
          f"Bonferroni-corrected {corrected:.3g}: the laws {verdict} at {STATS_ALPHA:g}")
    return 1 if corrected < STATS_ALPHA or codes_differ else 0


def main(argv: list[str]) -> int:
    stats = "--stats" in argv
    argv = [arg for arg in argv if arg != "--stats"]
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    if stats:
        return compare_laws(parent, change)
    differ = 0
    with ThreadPoolExecutor(max_workers=2) as pool:  # a sweep's two trees side by side
        for sweep in SWEEPS:
            for fmt in FORMATS:
                runs = pool.map(lambda tree: run_sweep(tree, sweep, fmt), (parent, change))
                (code_a, out_a, err_a, recs_a), (code_b, out_b, err_b, recs_b) = runs
                problems = []
                if code_a != code_b:
                    problems.append(f"exit code {code_a} -> {code_b}")
                if out_a != out_b:
                    problems.append("stdout differs")
                if code_a == code_b == 2 and err_a != err_b:
                    problems.append("stderr differs")
                diffs = record_differences(recs_a, recs_b)
                problems += [f"{key} max |d| {delta:.3g}" for key, delta in sorted(diffs.items())]
                label = f"{' '.join(sweep)} [{fmt}]"
                summary = "; ".join(problems) or "same"
                print(f"{label}: {len(recs_b)} records, {summary}", flush=True)
                differ += bool(problems)
    print(f"{differ} run(s) differ" if differ else "all runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
