"""Compare the records, stdout and exit codes of two source trees.

Usage::

    python3 tools/record_check.py <parent-tree> [<change-tree>]

Each tree is a checkout of this repository; the change tree defaults to the
checkout that holds this script. Every sweep of ``SWEEPS`` runs once per tree
and per record format (CSV and JSON Lines), each in a fresh interpreter with
one BLAS thread, from an empty working directory; the two trees' runs of a
sweep run side by side. The ``wall_time`` column is left out of the
comparison, since it is the only field that is not a function of the seed.
For each run the script prints ``same`` or the columns that differ with
their largest absolute difference, and it exits 1 if any record, stdout or
exit code differs.
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
# scale-* from the d^2 floor to 1e5 shots.
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
)
FORMATS = ("csv", "jsonl")
_ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def run_sweep(tree: Path, argv: list[str], fmt: str) -> tuple[int, str, list[dict]]:
    """Exit code, stdout and records (without wall_time) of one CLI run."""
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
    return proc.returncode, proc.stdout, records


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


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent = Path(argv[0]).resolve()
    change = Path(argv[1]).resolve() if len(argv) == 2 else Path(__file__).resolve().parents[1]
    differ = 0
    with ThreadPoolExecutor(max_workers=2) as pool:  # a sweep's two trees side by side
        for sweep in SWEEPS:
            for fmt in FORMATS:
                runs = pool.map(lambda tree: run_sweep(tree, sweep, fmt), (parent, change))
                (code_a, out_a, recs_a), (code_b, out_b, recs_b) = runs
                problems = []
                if code_a != code_b:
                    problems.append(f"exit code {code_a} -> {code_b}")
                if out_a != out_b:
                    problems.append("stdout differs")
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
