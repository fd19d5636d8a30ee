"""Batch experiment runner: seed-stable grids, per-trial records, summary
statistics, and CSV / JSON Lines persistence.

Records are append-ordered by (cell index, trial index) and every field
except wall_time is a pure function of the master seed, so re-running a
configuration reproduces the record files byte for byte once wall-time
columns are excluded.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import asdict, dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .measurement import _check_count, _check_integer
from .reduction import (
    ReductionConfig,
    ReductionError,
    ReductionReport,
    _gentle_distances,
    _guaranteed_bound,
    _mixed_stage,
    _run_reductions,
    proposition_search,
)
from .seeding import _check_seed, _child_seeds, _generator_words, _generators
from .states import _overlaps, _random_pure_states
from .tomography import TomographyBackend, _check_window, _inverted_pure_states, _shot_floor

__all__ = [
    "DEFAULT_R_GRID",
    "DEFAULT_D_GRID",
    "DEFAULT_EPS_GRID",
    "DEFAULT_DELTA_GRID",
    "DEFAULT_N_GRID",
    "DEFAULT_ETA_GRID",
    "DEFAULT_PROP_D_GRID",
    "OUTPUT_DIR_ENV_VAR",
    "ExperimentKind",
    "ExperimentConfig",
    "CellSummary",
    "ExperimentSummary",
    "ScalingFit",
    "flatten_report",
    "experiment_cells",
    "run_experiment",
    "write_records",
    "print_summary",
    "fit_scaling",
]

DEFAULT_R_GRID = (1, 2, 3)
DEFAULT_D_GRID = (2, 3, 4, 6, 8)
DEFAULT_EPS_GRID = (0.2, 0.1, 0.05, 0.01)
DEFAULT_DELTA_GRID = (0.1, 0.01, 0.001)
DEFAULT_N_GRID = (10_000, 100_000, 1_000_000)
DEFAULT_ETA_GRID = (0.01, 0.1, 0.3)
DEFAULT_PROP_D_GRID = (2, 3, 4, 5, 6)

OUTPUT_DIR_ENV_VAR = "TOMOREDUCE_OUT_DIR"

# Each chain-sweep backend name, with the stage backend it builds for a cell
# of a config; one backend serves both stages.
_BACKENDS = {
    "oracle": lambda config, cell: TomographyBackend.oracle(cell["epsilon"]),
    "measurement": lambda config, cell: TomographyBackend.linear_inversion(config.n_copies),
}


class ExperimentKind(Enum):
    CHAIN_SWEEP = "chain_sweep"
    SCALING_PURE = "scaling_pure"
    SCALING_MIXED = "scaling_mixed"
    GENTLE_MEASUREMENT = "gentle_measurement"
    PROPOSITION_SEARCH = "proposition_search"


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's grids, trial count, seeding, and output target. A chain
    grid is validated by building the ReductionConfig of each of its cells,
    and each cell's samples_total column must fit in int64."""

    experiment: ExperimentKind
    r_values: tuple[int, ...] = DEFAULT_R_GRID
    d_values: tuple[int, ...] = DEFAULT_D_GRID
    eps_values: tuple[float, ...] = DEFAULT_EPS_GRID
    delta_values: tuple[float, ...] = DEFAULT_DELTA_GRID
    n_values: tuple[int, ...] = DEFAULT_N_GRID
    trials: int = 100
    master_seed: int = 0
    backend: str = "oracle"  # a name in _BACKENDS
    n_copies: int = 10_000
    extra_copy_factor: float = 4.0
    prop_batch: int = 10_000
    out_path: str | None = None
    out_format: str = "csv"

    def __post_init__(self) -> None:
        _check_integer("trials", self.trials)
        _check_integer("prop_batch", self.prop_batch)
        for name in ("r_values", "d_values", "n_values"):
            for value in getattr(self, name):
                _check_integer(f"each of {name}", value)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        _check_seed("master_seed", self.master_seed)
        if self.backend not in _BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.out_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown output format {self.out_format!r}")
        if self.prop_batch < 1:
            raise ValueError("prop_batch must be at least 1")
        for name in ("r_values", "d_values", "eps_values", "delta_values", "n_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        if any(r < 1 for r in self.r_values) or any(d < 1 for d in self.d_values):
            raise ValueError("register dimensions must be positive")
        if any(not 0.0 < e < 1.0 for e in self.eps_values):
            raise ValueError("epsilon values must be in (0, 1)")
        if any(not 0.0 < x < 1.0 for x in self.delta_values):
            raise ValueError("delta values must be in (0, 1)")
        if any(n < 1 for n in self.n_values):
            raise ValueError("budget values must be positive")
        _check_count("shots", max(self.n_values))
        if self.out_path is not None:  # checked, not created
            out = Path(self.out_path)
            if out.is_dir() or not next(p for p in out.parents if p.exists()).is_dir():
                raise ValueError(f"{out} is a directory or lies below a file")
        cells = experiment_cells(self)
        if not cells:
            raise ValueError("grids produce no cell satisfying the module preconditions")
        if any(c["d"] == 1 for c in cells):
            raise ValueError("every experiment needs d >= 2: a cell with d = 1 has one state only")
        if self.experiment is ExperimentKind.CHAIN_SWEEP:
            for cell in cells:
                rconfig = _reduction_config(self, cell)
                # the samples_total column is the sum of two int64 counts
                _check_count("copies in total", rconfig.n_copies + rconfig.extra_copies)
        if self.experiment is ExperimentKind.GENTLE_MEASUREMENT:
            _check_window("trace distance", min(self.delta_values))


# Each experiment's cell columns, in loop order, with the grid each one takes.
_CELL_AXES = {
    ExperimentKind.CHAIN_SWEEP: {"r": "r_values", "d": "d_values", "epsilon": "eps_values"},
    ExperimentKind.SCALING_PURE: {"d": "d_values", "n": "n_values"},
    ExperimentKind.SCALING_MIXED: {"r": "r_values", "d": "d_values", "n": "n_values"},
    ExperimentKind.GENTLE_MEASUREMENT: {"r": "r_values", "d": "d_values", "delta": "delta_values"},
    ExperimentKind.PROPOSITION_SEARCH: {"d": "d_values", "eta": "eps_values"},
}


def experiment_cells(config: ExperimentConfig) -> list[dict[str, Any]]:
    """Grid cells for the experiment, with r > d combinations and budgets
    below the linear-inversion floor d^2 filtered out."""
    axes = _CELL_AXES[config.experiment]
    grids = (getattr(config, grid) for grid in axes.values())
    cells = (dict(zip(axes, values)) for values in itertools.product(*grids))
    return [
        c for c in cells if c.get("r", 1) <= c["d"] and c.get("n", math.inf) >= _shot_floor(c["d"])
    ]


# Columns of a reduction record, in file order. A type names the cast of the
# ReductionReport attribute of that name (None passes through); a string names
# the ChainCheck whose verdict the column holds, None where it does not apply.
_REPORT_COLUMNS: dict[str, type | str] = {
    "fidelity_mixed_estimate": float,
    "keep_probability": float,
    "projector_rank": int,
    "extra_copies": int,
    "kept_count": int,
    "samples_total": int,
    "projected_fidelity": float,
    "estimate_fidelity": float,
    "final_fidelity": float,
    "keep_vs_mixed_fidelity_ok": "keep_vs_mixed_fidelity",
    "keep_vs_epsilon_ok": "keep_vs_epsilon",
    "projection_identity_ok": "projection_identity",
    "final_vs_guaranteed_ok": "final_vs_guaranteed_bound",
    "final_vs_tightened_holds": "final_vs_tightened_bound",
    "violations": int,
    "low_yield": bool,
    "starved": bool,
}

# Casts of the cell parameters every record carries.
_CELL_TYPES = {"r": int, "d": int, "n": int, "epsilon": float, "delta": float, "eta": float}


def flatten_report(report: ReductionReport) -> dict[str, Any]:
    """Lossless flat view of a reduction report for record files."""
    checks = {c.name: c for c in report.chain}
    row: dict[str, Any] = {}
    for column, source in _REPORT_COLUMNS.items():
        if isinstance(source, str):
            check = checks.get(source)
            row[column] = bool(check.satisfied) if check is not None and check.applicable else None
        else:
            value = getattr(report, column)
            row[column] = None if value is None else source(value)
    return row


def _reduction_config(config, cell) -> ReductionConfig:
    """The ReductionConfig of one chain cell, shared by every trial of a stack;
    each trial's generator travels beside it. One backend serves both stages."""
    backend = _BACKENDS[config.backend](config, cell)
    return ReductionConfig(
        r=cell["r"],
        d=cell["d"],
        n_copies=config.n_copies,
        epsilon=cell["epsilon"],
        extra_copy_factor=config.extra_copy_factor,
        mixed_backend=backend,
        pure_backend=backend,
    )


def _trial_draws(cell, words):
    """Each trial's Haar input, drawn from the generator of its psi seed
    child_seed(s, 0), and the one generator its stages draw from, on its
    stream seed child_seed(s, 1); words holds, per trial, the generator words
    of those two seeds."""
    psis = _random_pure_states(cell.get("r", 1), cell["d"], _generators(words[:, 0]))
    return psis, _generators(words[:, 1])


def _reduction_fields(config, cell, trial_seeds, words) -> list[dict[str, Any]]:
    """The records of a stack of chain trials, run as one batch under one config."""
    psis, rngs = _trial_draws(cell, words)
    rconfig = _reduction_config(config, cell)
    bound = float(_guaranteed_bound(cell["epsilon"]))
    rows = []
    for outcome in _run_reductions(psis, rconfig, rngs):
        if isinstance(outcome, ReductionError):
            fields = dict.fromkeys(_REPORT_COLUMNS)
            error = str(outcome)
        else:
            fields = flatten_report(outcome)
            error = ""
        fields["guaranteed_bound"] = bound
        fields["error"] = error
        rows.append(fields)
    return rows


def _fidelity_fields(fidelities) -> list[dict[str, Any]]:
    return [{"fidelity": f, "infidelity": 1.0 - f, "violations": 0} for f in fidelities]


def _scaling_pure_fields(config, cell, trial_seeds, words) -> list[dict[str, Any]]:
    psis, rngs = _trial_draws(cell, words)
    estimates = _inverted_pure_states(psis, [cell["n"]] * len(psis), rngs)
    return _fidelity_fields(
        _overlaps([psi.amplitudes for psi in psis], [phi.amplitudes for phi in estimates])
    )


def _scaling_mixed_fields(config, cell, trial_seeds, words) -> list[dict[str, Any]]:
    n = cell["n"]
    psis, rngs = _trial_draws(cell, words)
    m = np.array([psi.as_matrix() for psi in psis])
    _, fidelities = _mixed_stage(m, TomographyBackend.linear_inversion(n), rngs, n)
    return _fidelity_fields(fidelities)


def _gentle_fields(config, cell, trial_seeds, words) -> list[dict[str, Any]]:
    delta = cell["delta"]
    psis, rngs = _trial_draws(cell, words)
    rows = []
    for t in _gentle_distances(psis, delta, rngs).tolist():
        values = (None,) * 3 if math.isnan(t) else (t, t / math.sqrt(delta), t / delta)
        fields = dict(zip(("trace_distance", "ratio_sqrt", "ratio_linear"), values))
        rows.append({**fields, "skipped": math.isnan(t), "violations": 0})
    return rows


def _prop_search_fields(config, cell, trial_seeds, words) -> list[dict[str, Any]]:
    # one search per trial, each vectorized over its triples
    return [
        asdict(proposition_search(cell["d"], cell["eta"], config.prop_batch, int(seed)))
        for seed in trial_seeds
    ]


# Each builder takes a stack's trial seeds and their generator words (see
# _seed_blocks) and returns, per trial, the fields of its record that follow
# the shared experiment, cell, trial, cell-parameter and seed columns.
_RECORD_BUILDERS = {
    ExperimentKind.CHAIN_SWEEP: _reduction_fields,
    ExperimentKind.SCALING_PURE: _scaling_pure_fields,
    ExperimentKind.SCALING_MIXED: _scaling_mixed_fields,
    ExperimentKind.GENTLE_MEASUREMENT: _gentle_fields,
    ExperimentKind.PROPOSITION_SEARCH: _prop_search_fields,
}

# Every experiment runs a cell's trials in stacks of this many, one numpy call
# per step for the whole stack (prop-search: one vectorized search per trial).
# With stacks of 16 the default chain sweep peaks at the RSS of one trial at a
# time; whole 100-trial cells as one stack raised that peak by 3%.
_TRIAL_BATCH = 16

# Seeds are derived for a block of whole cells at a time, of at least this many
# trials. One hash pass costs about the same at 16 seeds as at 168, so a pass
# per 12-trial cell gained less; the whole experiment's seed words at once
# raised the default chain sweep's peak RSS by 2%.
_SEED_BLOCK = 256


@dataclass(frozen=True)
class CellSummary:
    label: str
    trials: int
    violations: int
    failures: int
    stats: dict[str, float]


@dataclass(frozen=True)
class ExperimentSummary:
    experiment: ExperimentKind
    cells: tuple[CellSummary, ...]
    violations_total: int
    failures_total: int
    records: tuple[dict[str, Any], ...]
    out_path: str | None

    @property
    def ok(self) -> bool:
        return self.violations_total == 0


def _median(values: Sequence[float]) -> float:
    return float(np.quantile(np.asarray(values, dtype=float), 0.5)) if values else float("nan")


def _extreme(values: Sequence[float], pick) -> float:
    """min or max of the values as np.quantile at q = 0 or 1 gives it: NaN
    when there are none or any of them is NaN."""
    if not values or any(map(math.isnan, values)):
        return float("nan")
    return float(pick(values))


def _cell_summary(kind: ExperimentKind, cell: Mapping[str, Any], records: list[dict]) -> CellSummary:
    label = ",".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}" for k, v in cell.items())
    violations = sum(1 for rec in records if (rec.get("violations") or 0) > 0)
    failures = sum(1 for rec in records if rec.get("error"))
    stats: dict[str, float] = {}
    if kind is ExperimentKind.CHAIN_SWEEP:
        finals = [r["final_fidelity"] for r in records if r.get("final_fidelity") is not None]
        keeps = [r["keep_probability"] for r in records if r.get("keep_probability") is not None]
        stats["final_min"] = _extreme(finals, min)
        stats["final_median"] = _median(finals)
        stats["keep_min"] = _extreme(keeps, min)
        stats["bound"] = float(_guaranteed_bound(cell["epsilon"]))
        stats["samples"] = float(sum(r.get("samples_total") or 0 for r in records))
    elif kind in (ExperimentKind.SCALING_PURE, ExperimentKind.SCALING_MIXED):
        infids = [r["infidelity"] for r in records]
        stats["infid_median"] = _median(infids)
        stats["infid_max"] = _extreme(infids, max)
    elif kind is ExperimentKind.GENTLE_MEASUREMENT:
        ts = [r["trace_distance"] for r in records if r.get("trace_distance") is not None]
        stats["t_max"] = _extreme(ts, max)
        stats["ratio_sqrt_max"] = stats["t_max"] / math.sqrt(cell["delta"]) if ts else float("nan")
        stats["ratio_linear_max"] = stats["t_max"] / cell["delta"] if ts else float("nan")
        stats["skipped"] = float(sum(1 for r in records if r.get("skipped")))
    elif kind is ExperimentKind.PROPOSITION_SEARCH:
        stats["checked"] = float(sum(r["checked"] for r in records))
        stats["violations_found"] = float(sum(r["violations"] for r in records))
        stats["min_slack"] = min(r["min_slack"] for r in records)
    return CellSummary(
        label=label, trials=len(records), violations=violations, failures=failures, stats=stats
    )


def _seed_blocks(config: ExperimentConfig, n_cells: int):
    """Each cell's trial seeds and their generator words, derived in four hash
    passes per block of whole cells: cell seeds child_seed(master, cell), trial
    seeds child_seed(cell seed, trial), psi and stream seeds child_seed(trial
    seed, 0 or 1), then those two seeds' generator words. Yields, per cell, a
    (trials,) uint64 array and a (trials, 2, 4) one."""
    per_block = -(-_SEED_BLOCK // config.trials)
    for first in range(0, n_cells, per_block):
        block = np.arange(first, min(first + per_block, n_cells))
        cell_seeds = _child_seeds(config.master_seed, block)
        trial_seeds = _child_seeds(cell_seeds[:, None], np.arange(config.trials))
        words = _generator_words(_child_seeds(trial_seeds[..., None], np.arange(2)))
        yield from zip(trial_seeds, words)


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Execute all grid cells x trials, persist records, and summarize.

    Cell and trial seeds are split from the master seed, so cells can be
    evaluated in any order, and a cell's trials in stacks of any size,
    without changing any record field but wall_time. Every experiment runs
    a cell's trials in stacks of up to 16; each record's wall_time is its
    stack's time divided by the number of trials in the stack.
    """
    cells = experiment_cells(config)
    builder = _RECORD_BUILDERS[config.experiment]
    records: list[dict[str, Any]] = []
    summaries: list[CellSummary] = []
    blocks = _seed_blocks(config, len(cells))
    for cell_index, (cell, (trial_seeds, trial_words)) in enumerate(zip(cells, blocks)):
        params = {k: _CELL_TYPES[k](v) for k, v in cell.items()}
        stacks = []
        for first in range(0, config.trials, _TRIAL_BATCH):
            trials = range(first, min(first + _TRIAL_BATCH, config.trials))
            seeds = trial_seeds[first : trials.stop]
            start = time.perf_counter()
            stack = builder(config, cell, seeds, trial_words[first : trials.stop])
            stacks.append((trials, seeds, stack, (time.perf_counter() - start) / len(seeds)))
        # The records are built once the cell's last stack is done: built
        # between stacks, they sat among the freed arrays of each stack and
        # fragmented the heap, which raised the default chain sweep's peak
        # RSS by about 0.5%.
        cell_records = [
            {
                "experiment": config.experiment.value,
                "cell": cell_index,
                "trial": trial_index,
                **params,
                "seed": int(trial_seed),
                **fields,
                "wall_time": wall_time,
            }
            for trials, seeds, stack, wall_time in stacks
            for trial_index, trial_seed, fields in zip(trials, seeds, stack)
        ]
        records.extend(cell_records)
        summaries.append(_cell_summary(config.experiment, cell, cell_records))
    if config.out_path is not None:
        write_records(records, config.out_path, config.out_format)
    return ExperimentSummary(
        experiment=config.experiment,
        cells=tuple(summaries),
        violations_total=sum(c.violations for c in summaries),
        failures_total=sum(c.failures for c in summaries),
        records=tuple(records),
        out_path=config.out_path,
    )


def _csv_cell(value: Any) -> str:
    if isinstance(value, np.generic):  # np.float64 is a float whose repr names its type
        value = value.item()
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_value(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# _csv_cell for the exact types records hold; any other type, such as a
# subclass, takes _csv_cell itself.
_CSV_CELLS = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    float: repr,
    int: str,
    str: str,
}


def write_records(records: Iterable[Mapping[str, Any]], path: str | os.PathLike, fmt: str) -> None:
    """Persist records as RFC-4180 CSV or JSON Lines, full float precision.

    A numpy scalar is written as the Python scalar it holds. CSV takes its
    columns from the first record, so a record with a key the first one lacks
    raises ValueError before the file is opened.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to write")
    if fmt == "csv":
        first = records[0].keys()
        for i, rec in enumerate(records):
            if not rec.keys() <= first:
                extra = [k for k in rec if k not in first]
                raise ValueError(f"record {i} has columns the first record lacks: {extra}")
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        keys = list(records[0].keys())
        with open(out, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(keys)
            for rec in records:
                writer.writerow(
                    [_CSV_CELLS.get(type(v), _csv_cell)(v) for v in map(rec.get, keys)]
                )
    elif fmt == "jsonl":
        with open(out, "w") as f:
            for rec in records:
                f.write(json.dumps(dict(rec), default=_json_value))
                f.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")


def print_summary(summary: ExperimentSummary) -> None:
    """Aligned per-cell table plus a verdict line."""
    stat_keys: list[str] = []
    for cell in summary.cells:
        for k in cell.stats:
            if k not in stat_keys:
                stat_keys.append(k)
    header = ["cell", "trials", "violations", "failures", *stat_keys]
    rows = [header]
    for cell in summary.cells:
        rows.append(
            [
                cell.label,
                str(cell.trials),
                str(cell.violations),
                str(cell.failures),
                *[
                    f"{cell.stats[k]:.6g}" if k in cell.stats else ""
                    for k in stat_keys
                ],
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    for row in rows:
        print("  ".join(col.ljust(w) for col, w in zip(row, widths)))
    print(
        f"{summary.experiment.value}: {len(summary.records)} records, "
        f"{summary.violations_total} bound violation(s), {summary.failures_total} failed trial(s)"
    )


@dataclass(frozen=True)
class ScalingFit:
    """Log-log least-squares fit of median infidelity against shot budget."""

    slope: float
    intercept: float
    budgets: tuple[int, ...]
    medians: tuple[float, ...]
    residuals: tuple[float, ...]


def fit_scaling(records: Iterable[Mapping[str, Any]]) -> ScalingFit:
    """Fit log(median infidelity) = slope * log(n) + intercept.

    Needs records with "n" and "infidelity" fields covering at least three
    distinct budgets, each with a positive median infidelity: a median of 0
    has no logarithm, and an exact estimator has no law to fit.
    """
    groups: dict[int, list[float]] = {}
    for rec in records:
        groups.setdefault(int(rec["n"]), []).append(float(rec["infidelity"]))
    if len(groups) < 3:
        raise ValueError(f"need at least 3 distinct budget points, got {len(groups)}")
    budgets = sorted(groups)
    medians = np.array([float(np.median(groups[n])) for n in budgets])
    for n, m in zip(budgets, medians):
        if m <= 0.0:
            raise ValueError(f"median infidelity at budget n={n} is 0; there is no law to fit")
    x = np.log(np.array(budgets, dtype=float))
    y = np.log(medians)
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    return ScalingFit(
        slope=float(slope),
        intercept=float(intercept),
        budgets=tuple(budgets),
        medians=tuple(float(m) for m in medians),
        residuals=tuple(float(r) for r in residuals),
    )
