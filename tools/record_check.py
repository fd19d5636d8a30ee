"""Compare the records, stdout and exit codes of two source trees.

Usage::

    python3 tools/record_check.py [--stats] <parent-tree> [<change-tree>]

Each tree is a checkout of this repository; the change tree defaults to the
checkout that holds this script. Every sweep of ``SWEEPS`` runs once per tree
and per record format (CSV and JSON Lines), each in a fresh interpreter with
one BLAS thread, from an empty working directory; the two trees' runs of a
sweep run side by side. The ``wall_time`` column is left out of the
comparison, since it is the only field that is not a function of the seed.
Records are compared key by key, in order, and in JSON Lines with the type of
each value, so ``true`` differs from ``1`` and ``1`` from ``1.0``. The record
files are also compared line by line as raw bytes, each line cut before its
last field, ``wall_time``, but keeping its line ending, so a change of quoting,
float format or line ending shows even where the parsed values agree. Where both
trees exit 2 (a configuration error), their stderr is compared too; other
stderr is not, since a traceback holds the tree's paths. A run that leaves
anything but its record file in its working directory, such as a temporary
file, fails the check on either tree. For each run the script prints
``same`` or the columns that differ with their largest absolute difference,
the first record line whose bytes differ and any files left behind, and it
exits 1 if any record, record line, stdout, exit code or such stderr
differs, or a run left a file behind.

With ``--stats`` the trees may draw different records from the same law,
which a byte comparison cannot show. Every sweep of ``STATS_SWEEPS`` then
runs once per tree at ``--trials 400``, and per cell and per column of
``STATS_COLUMNS`` a two-sample Kolmogorov-Smirnov test compares the two
trees' values (a trial that wrote no value, such as an errored trial's, is
left out). The script prints each sweep's smallest p-value and test count,
then the smallest p-value of the whole run with its Bonferroni count, and it
exits 1 if that p-value times the count is below 1%, an exit code differs,
or a run left a file behind.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# The sweeps every record check repeats: the default grid at two trials, a
# measurement grid, a grid with starved pure stages (seed 13), 16-trial cells
# that mix fed and starved trials (eps 0.2, 21 of 32 starved) or starve every
# trial at eps = 1 - 1e-13, where a stage value of 0 would land, the tight-eps
# grid, the side experiments, the one-cell default, 40-trial default grids on
# both backends, and 40-trial side-experiment grids, whose d = 8 cells run in
# more than one stack: gentle with rank-3 projections and the 1e-12 window, and
# scale-* from the d^2 floor to 1e5 shots; 130-trial chain grids on both
# backends at d = 2 and 8 and a 130-trial gentle grid, whose cells cross the
# 16-trial stacks of older trees and run whole or in stacks of 15 to 121
# under the memory budget (harness._stack_size); a wide-eps grid whose full-rank
# cells (r = d = 2 and 3) at eps = 0.5 and 0.9 draw targets up to the reach of
# the spectral rotation, 1 - min w, where it lies below the window's upper edge
# (14 of 560 trials), which no other sweep reaches; prop-search at d = 7, 8, 9 and 16 with
# 70,000 triples a trial, whose trials run a second batch of
# reduction._SEARCH_BATCH triples, which the default grid never reaches;
# a chain grid down to the oracles' eps = 1e-12 floor, where the last bits of
# F(rho, sigma) decide keep >= F and the landing tests, which no other sweep
# takes below 1e-5, and the rounding bound trims 12-14% of each 1e-12 window
# (3% of gentle's 1e-12 window, in the side-experiment grid); the same
# floor at r = 3 (d = 3 and 8), on the full-rank rotation and the rotation
# into a kernel; then configuration errors: stage 1 below the d^2 floor, eps
# below the oracles' resolution floor, budgets that all fall below the floor,
# d = 1, and an unknown backend, whose usage error on stderr lists the tree's
# --backend choices in order, so both trees' choices are compared. Every oracle
# estimate of every sweep is built once, with no search.
SWEEPS = (
    ["chain-sweep", "--trials", "2", "--seed", "11"],
    ["chain-sweep", "--backend", "measurement", "--trials", "1", "--seed", "12"],
    [
        "chain-sweep", "--backend", "measurement", "--r", "1,2", "--d", "2,3",
        "--eps", "0.2,0.4", "--c-extra", "0.2", "--trials", "3", "--seed", "13",
    ],
    [
        "chain-sweep", "--backend", "measurement", "--r", "2", "--d", "3,4",
        "--eps", "0.2,0.9999999999999", "--c-extra", "0.8", "--n-copies", "100",
        "--trials", "16", "--seed", "5",
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
    ["chain-sweep", "--d", "2,8", "--eps", "0.1", "--trials", "130"],
    ["chain-sweep", "--backend", "measurement", "--d", "2,8", "--eps", "0.1", "--trials", "130"],
    ["gentle", "--trials", "130"],
    ["chain-sweep", "--eps", "0.5,0.9", "--trials", "20", "--seed", "3"],
    ["prop-search", "--d", "7,8,9,16", "--eps", "0.1", "--batch", "70000", "--trials", "2"],
    [
        "chain-sweep", "--r", "1,2", "--d", "4", "--eps", "1e-6,1e-8,1e-10,1e-12",
        "--trials", "16", "--seed", "23",
    ],
    [
        "chain-sweep", "--r", "3", "--d", "3,8", "--eps", "1e-5,1e-9,1e-12",
        "--trials", "16", "--seed", "29",
    ],
    ["chain-sweep", "--backend", "measurement", "--d", "4", "--n-copies", "15"],
    ["reduce", "--eps", "1e-13"],
    ["scale-pure", "--d", "4", "--n", "10"],
    ["chain-sweep", "--d", "1"],
    ["chain-sweep", "--backend", "exact"],
)
FORMATS = ("csv", "jsonl")
# The sweeps of --stats: both chain backends, gentle and prop-search on the
# default grid, and the scale-* grids of SWEEPS, from the d^2 floor to 1e5 shots.
STATS_SWEEPS = (
    ["chain-sweep"],
    ["chain-sweep", "--backend", "measurement"],
    ["gentle"],
    ["prop-search"],
    ["scale-pure", "--d", "2,3,4,8", "--n", "64,1000,100000"],
    ["scale-mixed", "--r", "1,2,3", "--d", "3,4,8", "--n", "64,1000,100000"],
)
STATS_TRIALS = 400
# the chain's stage-1 fidelity, keep probability and final fidelity, gentle's
# trace distance, the scale-* infidelity and prop-search's extremes over a
# trial's triples; a sweep's records hold some of them
STATS_COLUMNS = (
    "fidelity_mixed_estimate", "keep_probability", "final_fidelity", "trace_distance",
    "infidelity", "min_slack", "min_c", "max_triangle_excess",
)
STATS_ALPHA = 0.01  # family-wise false-alarm rate of the Bonferroni-corrected tests
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_sweep(
    tree: Path, argv: list[str], fmt: str
) -> tuple[int, str, str, list[dict], list[bytes], list[str]]:
    """Exit code, stdout, stderr, records (without wall_time), the record
    file's lines (see ``record_lines``) and the names of any files other than
    the record file left in the working directory, such as a temporary file,
    of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(_ONE_THREAD, "1"))
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / f"records.{fmt}"
        proc = subprocess.run(
            [sys.executable, "-m", "tomoreduce.cli", *argv, "--format", fmt, "--out", out.name],
            cwd=work, env=env, capture_output=True, text=True,
        )
        records = _read(out, fmt) if out.exists() else []
        lines = record_lines(out.read_bytes(), fmt) if out.exists() else []
        leftovers = sorted(p.name for p in Path(work).iterdir() if p != out)
    for rec in records:
        rec.pop("wall_time", None)
    return proc.returncode, proc.stdout, proc.stderr, records, lines, leftovers


def record_lines(data: bytes, fmt: str) -> list[bytes]:
    """A record file's lines as raw bytes, each cut before its last field,
    wall_time, by the rule of tests/test_harness.py's ``without_wall_time``,
    and followed by its own line ending."""
    cut = b"," if fmt == "csv" else b', "wall_time": '
    lines = []
    for line in data.splitlines(keepends=True):
        body = line.rstrip(b"\r\n")
        lines.append(body.rsplit(cut, 1)[0] + line[len(body):])
    return lines


def line_difference(old: list[bytes], new: list[bytes]) -> str | None:
    """The first line that differs between two ``record_lines`` lists, with
    both versions (None for a line one file lacks), or None if none differs."""
    for number, (a, b) in enumerate(itertools.zip_longest(old, new), 1):
        if a != b:
            return f"line {number}: {a!r} -> {b!r}"
    return None


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
    differing value is not numeric, the types differ, or the record counts
    differ). So JSON's true is not 1 and 1 is not 1.0, and records whose keys
    come in a different order differ in ``<key order>``."""
    if len(old) != len(new):
        return {"<record count>": math.nan}
    diffs: dict[str, float] = {}
    for a, b in zip(old, new):
        if list(a) != list(b):
            diffs["<key order>"] = math.nan
        for key in a.keys() | b.keys():
            x, y = a.get(key), b.get(key)
            if type(x) is type(y) and (x == y or x != x and y != y):  # NaN is NaN
                continue
            fx, fy = _as_float(x), _as_float(y)
            numeric = fx is not None and fy is not None and type(x) is type(y)
            delta = abs(fx - fy) if numeric else math.nan
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
    runs_differ = False
    with ThreadPoolExecutor(max_workers=2) as pool:  # a sweep's two trees side by side
        for sweep in STATS_SWEEPS:
            argv = [*sweep, "--trials", str(STATS_TRIALS)]
            runs = pool.map(lambda tree: run_sweep(tree, argv, "csv"), (parent, change))
            (code_a, _, _, recs_a, _, left_a), (code_b, _, _, recs_b, _, left_b) = runs
            found = []
            for column in STATS_COLUMNS:
                old, new = cell_values(recs_a, column), cell_values(recs_b, column)
                for cell in sorted(old.keys() & new.keys(), key=int):
                    p = ks_2samp(old[cell], new[cell]).pvalue
                    found.append((float(p), f"{' '.join(argv)}: cell {cell} {column}"))
            label = f"{' '.join(argv)}: {len(recs_a)} -> {len(recs_b)} records"
            if code_a != code_b:
                label += f", exit code {code_a} -> {code_b}"
                runs_differ = True
            if left_a or left_b:
                label += f", files left behind {left_a} -> {left_b}"
                runs_differ = True
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
    return 1 if corrected < STATS_ALPHA or runs_differ else 0


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
                (code_a, out_a, err_a, recs_a, lines_a, left_a), run_b = runs
                code_b, out_b, err_b, recs_b, lines_b, left_b = run_b
                problems = []
                if left_a or left_b:
                    problems.append(f"files left behind {left_a} -> {left_b}")
                if code_a != code_b:
                    problems.append(f"exit code {code_a} -> {code_b}")
                if out_a != out_b:
                    problems.append("stdout differs")
                if code_a == code_b == 2 and err_a != err_b:
                    problems.append("stderr differs")
                diffs = record_differences(recs_a, recs_b)
                problems += [f"{key} max |d| {delta:.3g}" for key, delta in sorted(diffs.items())]
                line = line_difference(lines_a, lines_b)
                if line is not None:
                    problems.append(f"record bytes differ, first at {line}")
                label = f"{' '.join(sweep)} [{fmt}]"
                summary = "; ".join(problems) or "same"
                print(f"{label}: {len(recs_b)} records, {summary}", flush=True)
                differ += bool(problems)
    print(f"{differ} run(s) differ" if differ else "all runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
