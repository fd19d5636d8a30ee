"""Batch experiment runner: seed-stable grids, per-trial records, summary
statistics, and CSV / JSON Lines persistence, streamed to disk one cell at a
time.

Records are append-ordered by (cell index, trial index) and every field
except wall_time is a pure function of the master seed, so re-running a
configuration reproduces the record files byte for byte once wall-time
columns are excluded. Records travel as columns, one list per field, from the
stack kernels (a chain stack's are those ``reduction._chain_columns`` fills)
to the file; a sweep that writes a file builds no per-trial record objects.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .measurement import _check_count
from .reduction import (
    ReductionConfig,
    _check_copy_factor,
    _gentle_distances,
    _guaranteed_bound,
    _mixed_stage,
    _run_reductions,
    proposition_search,
)
from .seeding import (
    _check_integer,
    _check_real,
    _check_seed,
    _child_seeds,
    _generator_words,
    _generators,
)
from .states import _check_unit_norms, _overlaps, _random_pure_states, _reduced_states
from .tomography import (
    _LADDER_CHUNK,
    _PRODUCT_BYTES,
    TomographyBackend,
    _check_window,
    _inverted_pure_states,
    _shot_floor,
)

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
    "run_experiment",
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
    """One experiment's grids, trial count, seeding, and output target. Every
    experiment checks that n_copies is an integer of at least 1 and that
    extra_copy_factor is finite and positive; a chain grid is also validated
    by building the ReductionConfig of each of its cells, and each cell's
    samples_total column must fit in int64. Each grid is kept as a tuple, and each
    value as the Python int or float its rule returns, so records hold no numpy scalar."""

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
        if not isinstance(self.experiment, ExperimentKind):
            raise ValueError(f"experiment must be an ExperimentKind, got {self.experiment!r}")
        object.__setattr__(self, "trials", _check_integer("trials", self.trials))
        object.__setattr__(self, "prop_batch", _check_integer("prop_batch", self.prop_batch))
        for name in ("r_values", "d_values", "n_values"):
            grid = tuple(_check_integer(f"each of {name}", v) for v in getattr(self, name))
            object.__setattr__(self, name, grid)
        for name in ("eps_values", "delta_values"):
            grid = tuple(_check_real(f"each of {name}", v) for v in getattr(self, name))
            object.__setattr__(self, name, grid)
        object.__setattr__(self, "extra_copy_factor", _check_copy_factor(self.extra_copy_factor))
        object.__setattr__(self, "n_copies", _check_integer("n_copies", self.n_copies))
        if self.n_copies < 1:
            raise ValueError("n_copies must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        object.__setattr__(self, "master_seed", _check_seed("master_seed", self.master_seed))
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
        cells = _experiment_cells(self)
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


def _experiment_cells(config: ExperimentConfig) -> list[dict[str, Any]]:
    """Grid cells for the experiment, with r > d combinations and budgets
    below the linear-inversion floor d^2 filtered out."""
    axes = _CELL_AXES[config.experiment]
    grids = (getattr(config, grid) for grid in axes.values())
    cells = (dict(zip(axes, values)) for values in itertools.product(*grids))
    return [
        c for c in cells if c.get("r", 1) <= c["d"] and c.get("n", math.inf) >= _shot_floor(c["d"])
    ]


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
    """Each trial's Haar input, a checked amplitude row drawn from the generator of
    its psi seed child_seed(s, 0), and the one generator its stages draw from, on
    its stream seed child_seed(s, 1); words holds those two seeds' generator words."""
    amps = _random_pure_states(cell.get("r", 1), cell["d"], _generators(words[:, 0]))
    _check_unit_norms(amps)
    return amps, _generators(words[:, 1])


def _reduction_fields(config, cell, trial_seeds, words) -> dict[str, list]:
    """The record columns of a stack of chain trials, run as one batch under one config."""
    amps, rngs = _trial_draws(cell, words)
    return _run_reductions(amps, _reduction_config(config, cell), rngs)


def _fidelity_fields(fids: list[float]) -> dict[str, list]:
    return {"fidelity": fids, "infidelity": [1.0 - f for f in fids], "violations": [0] * len(fids)}


def _scaling_pure_fields(config, cell, trial_seeds, words) -> dict[str, list]:
    amps, rngs = _trial_draws(cell, words)
    estimates = _inverted_pure_states(amps, np.full(len(amps), cell["n"]), rngs)
    _check_unit_norms(estimates)
    return _fidelity_fields(_overlaps(amps, estimates))


def _scaling_mixed_fields(config, cell, trial_seeds, words) -> dict[str, list]:
    r, n = cell["r"], cell["n"]
    amps, rngs = _trial_draws(cell, words)
    rho = _reduced_states(amps.reshape(len(amps), r, cell["d"]))
    _, fidelities = _mixed_stage(rho, TomographyBackend.linear_inversion(n), r, rngs, n)
    return _fidelity_fields(fidelities)


def _gentle_fields(config, cell, trial_seeds, words) -> dict[str, list]:
    delta = cell["delta"]
    amps, rngs = _trial_draws(cell, words)
    distances = _gentle_distances(amps, cell["r"], delta, rngs).tolist()
    ts = [None if math.isnan(t) else t for t in distances]
    return {
        "trace_distance": ts,
        "ratio_sqrt": [None if t is None else t / math.sqrt(delta) for t in ts],
        "ratio_linear": [None if t is None else t / delta for t in ts],
        "skipped": [t is None for t in ts],
        "violations": [0] * len(ts),
    }


def _prop_search_fields(config, cell, trial_seeds, words) -> dict[str, list]:
    # one search per trial, each vectorized over its triples
    d, eta, batch = cell["d"], cell["eta"], config.prop_batch
    results = [proposition_search(d, eta, batch, seed) for seed in trial_seeds]
    return {f.name: [getattr(res, f.name) for res in results] for f in fields(results[0])}


# Each builder takes a stack's trial seeds and their generator words (see
# _seed_blocks) and returns the fields of its trials' records that follow the
# shared experiment, cell, trial, cell-parameter and seed columns, as one list
# per field, in column order.
_RECORD_BUILDERS = {
    ExperimentKind.CHAIN_SWEEP: _reduction_fields,
    ExperimentKind.SCALING_PURE: _scaling_pure_fields,
    ExperimentKind.SCALING_MIXED: _scaling_mixed_fields,
    ExperimentKind.GENTLE_MEASUREMENT: _gentle_fields,
    ExperimentKind.PROPOSITION_SEARCH: _prop_search_fields,
}

# Every experiment runs a cell's trials in stacks, one numpy call per step for
# the whole stack (prop-search: one search per trial, which draws its overlaps
# in batches of at most reduction._SEARCH_BATCH triples, a few float arrays of
# the batch length each, whatever the stack and d). A stack's arrays
# stay within this many bytes: it holds as many trials as _trial_bytes says fit,
# and at least one, and linear inversion keeps tomography._PRODUCT_BYTES of it
# for its design products. Peak RSS follows the budget: whole 100-trial cells
# at d = 8 raise that of the default chain sweep by 2.8% (oracle) and 37%
# (measurement) over stacks of 16 trials; 640 KiB raises the oracle's by 0.6 to
# 0.7 MiB (1.6-1.9%), and 768 KiB by 0.8 MiB (2.0%).
_STACK_BYTES = 640 << 10

# Bytes a trial holds in its stack beside its arrays: its record and generators.
_TRIAL_OVERHEAD = 2048


def _trial_bytes(config: ExperimentConfig, cell: Mapping[str, Any]) -> int:
    """An upper estimate of the bytes one trial adds to the peak of its stack,
    read off the shapes of the experiment's per-trial arrays, in complex
    elements of 16 bytes:

    - oracle chain: five arrays of the calibration's _LADDER_CHUNK rungs of
      (d, k) eigenvectors, k = min(r, d) the rank of rho, and five (d, d) ones;
    - gentle: five arrays of the calibration's _LADDER_CHUNK rungs of (d, d)
      trace-distance differences;
    - linear inversion (measurement chain, scale-*): eight (d, d) arrays and,
      in a chain, eight of stage 2's (r^2, r^2) ones; the design products, of
      _num_bases(dim) * dim columns, are counted in _PRODUCT_BYTES;
    - prop-search: none, as each trial's search ends before the next begins.

    Each estimate holds on every cell of the default grids (at r = 3, d = 8 a
    test checks it with tracemalloc).
    """
    kind, r, d = config.experiment, cell.get("r", 1), cell["d"]
    if kind is ExperimentKind.PROPOSITION_SEARCH:
        elements = 0
    elif kind is ExperimentKind.GENTLE_MEASUREMENT:
        elements = 5 * _LADDER_CHUNK * d * d
    elif _inverts(config):
        elements = 8 * (d * d + (r**4 if kind is ExperimentKind.CHAIN_SWEEP else 0))
    else:
        elements = 5 * (_LADDER_CHUNK * d * min(r, d) + d * d)
    return _TRIAL_OVERHEAD + 16 * elements


def _inverts(config: ExperimentConfig) -> bool:
    """Whether the experiment's estimates are linear inversions."""
    kind = config.experiment
    if kind is ExperimentKind.CHAIN_SWEEP:
        return config.backend == "measurement"
    return kind in (ExperimentKind.SCALING_PURE, ExperimentKind.SCALING_MIXED)


def _stack_size(config: ExperimentConfig, cell: Mapping[str, Any]) -> int:
    """Trials per stack of a cell: as many as fit in _STACK_BYTES, at least one."""
    budget = _STACK_BYTES - (_PRODUCT_BYTES if _inverts(config) else 0)
    return max(1, min(config.trials, budget // _trial_bytes(config, cell)))


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
    """Per-cell summaries and totals of one run. ``records`` holds every
    record only when the run had no ``out_path``; a run with one streamed its
    records to that file cell by cell, and ``records`` is empty."""

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
    """np.quantile(values, 0.5) without numpy's quantile machinery, whose
    first use faults about 1.4 MiB into memory: numpy's linear rule at
    q = 0.5 on the sorted values, a + (b - a) * 0 between the middle value a
    and the next for odd n, b - (b - a) * 0.5 between the two middle values
    for even n, and NaN when there are none or any of them is NaN."""
    if not values or any(map(math.isnan, values)):
        return float("nan")
    x = sorted(values)
    k = (len(x) - 1) // 2
    a, b = x[k], x[min(k + 1, len(x) - 1)]
    return float(a + (b - a) * 0.0 if len(x) % 2 else b - (b - a) * 0.5)


def _extreme(values: Sequence[float], pick) -> float:
    """min or max of the values as np.quantile at q = 0 or 1 gives it: NaN
    when there are none or any of them is NaN."""
    if not values or any(map(math.isnan, values)):
        return float("nan")
    return float(pick(values))


def _cell_summary(kind: ExperimentKind, cell: Mapping[str, Any], columns: Mapping) -> CellSummary:
    # repr, the shortest text that reads back as the same float, keeps apart cells
    # that a fixed precision merges (0.1 and 0.1000001) or rounds (1 - 1e-13 to 1)
    label = ",".join(f"{k}={v!r}" for k, v in cell.items())
    violations = sum(1 for v in columns["violations"] if (v or 0) > 0)
    failures = sum(1 for error in columns.get("error", ()) if error)
    stats: dict[str, float] = {}
    if kind is ExperimentKind.CHAIN_SWEEP:
        finals = [v for v in columns["final_fidelity"] if v is not None]
        keeps = [v for v in columns["keep_probability"] if v is not None]
        stats["final_min"] = _extreme(finals, min)
        stats["final_median"] = _median(finals)
        stats["keep_min"] = _extreme(keeps, min)
        stats["bound"] = _guaranteed_bound(cell["epsilon"])
        stats["samples"] = float(sum(v or 0 for v in columns["samples_total"]))
    elif kind in (ExperimentKind.SCALING_PURE, ExperimentKind.SCALING_MIXED):
        infids = columns["infidelity"]
        stats["infid_median"] = _median(infids)
        stats["infid_max"] = _extreme(infids, max)
    elif kind is ExperimentKind.GENTLE_MEASUREMENT:
        ts = [t for t in columns["trace_distance"] if t is not None]
        stats["t_max"] = _extreme(ts, max)
        stats["ratio_sqrt_max"] = stats["t_max"] / math.sqrt(cell["delta"]) if ts else float("nan")
        stats["ratio_linear_max"] = stats["t_max"] / cell["delta"] if ts else float("nan")
        stats["skipped"] = float(sum(1 for s in columns["skipped"] if s))
    elif kind is ExperimentKind.PROPOSITION_SEARCH:
        stats["checked"] = float(sum(columns["checked"]))
        stats["violations_found"] = float(sum(columns["violations"]))
        stats["min_slack"] = min(columns["min_slack"])
    return CellSummary(label, len(columns["violations"]), violations, failures, stats)


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
    a cell's trials in stacks of as many as fit in a memory budget
    (``_stack_size``); each record's wall_time is its stack's time divided by
    the number of trials in the stack.

    Records go to one place. With ``out_path`` set, each cell's records are
    written as soon as its last stack is done and then dropped, so no more
    than two cells' records are in memory at once and the peak is bounded by
    the largest cell, not by the sweep; the file appears at ``out_path``
    only when the last cell is written (see ``_write_batches``), and
    ``ExperimentSummary.records`` is empty. Without it, the summary holds
    every record.
    """
    summaries: list[CellSummary] = []
    batches = _cell_records(config, summaries)
    records: tuple[dict[str, Any], ...] = ()
    if config.out_path is None:
        records = tuple(dict(zip(cols, row)) for cols in batches for row in zip(*cols.values()))
    else:
        _write_batches(batches, config.out_path, config.out_format)
    return ExperimentSummary(
        experiment=config.experiment,
        cells=tuple(summaries),
        violations_total=sum(c.violations for c in summaries),
        failures_total=sum(c.failures for c in summaries),
        records=records,
        out_path=config.out_path,
    )


def _cell_records(config: ExperimentConfig, summaries: list[CellSummary]):
    """Yields each cell's records in order, as one list per column, once its
    last stack is done, and appends the cell's summary to ``summaries`` first."""
    cells = _experiment_cells(config)
    builder = _RECORD_BUILDERS[config.experiment]
    blocks = _seed_blocks(config, len(cells))
    for cell_index, (cell, (trial_seeds, trial_words)) in enumerate(zip(cells, blocks)):
        stacks, wall_times = [], []
        size = _stack_size(config, cell)
        for first in range(0, config.trials, size):
            stop = min(first + size, config.trials)
            start = time.perf_counter()
            stacks.append(builder(config, cell, trial_seeds[first:stop], trial_words[first:stop]))
            wall_times += [(time.perf_counter() - start) / (stop - first)] * (stop - first)
        # The shared columns are built once the cell's last stack is done:
        # records built between stacks sat among the freed arrays of each stack
        # and fragmented the heap, which raised the default chain sweep's peak
        # RSS by about 0.5%.
        columns = {
            "experiment": [config.experiment.value] * config.trials,
            "cell": [cell_index] * config.trials,
            "trial": list(range(config.trials)),
            **{k: [v] * config.trials for k, v in cell.items()},
            "seed": trial_seeds.tolist(),
            **{k: [v for stack in stacks for v in stack[k]] for k in stacks[0]},
            "wall_time": wall_times,
        }
        summaries.append(_cell_summary(config.experiment, cell, columns))
        yield columns


# The CSV field of each type a record holds, as csv.writer writes the value
# (a bool as true or false, a float by repr, None as an empty field).
_CSV_CELLS = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    float: repr,
    int: str,
    str: str,
}

_CSV_QUOTED = frozenset(',"\r\n')  # csv.writer's minimal rule quotes a field with one


def _csv_column(values: list) -> list[str]:
    """One CSV column's fields as csv.writer writes their _CSV_CELLS text: float.__repr__
    or int.__repr__ where every value has that exact type, else _CSV_CELLS per value,
    quoted, with its quotes doubled, where a field holds a character of _CSV_QUOTED."""
    types = set(map(type, values))
    if types == {float}:
        return list(map(float.__repr__, values))
    if types == {int}:
        return list(map(int.__repr__, values))
    cells = [_CSV_CELLS[type(v)](v) for v in values]
    if not _CSV_QUOTED.isdisjoint("".join(cells)):
        cells = [c if _CSV_QUOTED.isdisjoint(c) else '"%s"' % c.replace('"', '""') for c in cells]
    return cells


def _write_batches(batches: Iterable[Mapping[str, list]], path, fmt: str) -> None:
    """Write each batch of records, one list per column, as it comes, as CSV with
    the columns of the first batch or as JSON Lines, to a temporary file beside
    ``path``, made with its directory once the first batch is ready; then move the
    file to ``path`` with ``os.replace``. On any exception, raised by a value or
    by the code that yields the batches, the temporary file is deleted."""
    batches = iter(batches)
    batch = next(batches)
    keys = list(batch)
    out = Path(path)
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    out.parent.mkdir(parents=True, exist_ok=True)
    try:
        with open(tmp, "w", newline="" if fmt == "csv" else None) as f:
            if fmt == "csv":
                csv.writer(f).writerow(keys)
            while batch is not None:
                if fmt == "csv":
                    cells = [_csv_column(batch[k]) for k in keys]
                    if len(cells) == 1:  # csv.writer quotes an empty field alone in its row
                        cells = [[c or '""' for c in cells[0]]]
                    f.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")
                else:
                    rows = (dict(zip(batch, values)) for values in zip(*batch.values()))
                    f.writelines(json.dumps(row) + "\n" for row in rows)
                batch = next(batches, None)
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)


def print_summary(summary: ExperimentSummary) -> None:
    """Aligned per-cell table plus a verdict line."""
    stat_keys = list(dict.fromkeys(k for cell in summary.cells for k in cell.stats))
    rows = [["cell", "trials", "violations", "failures", *stat_keys]]
    for cell in summary.cells:
        stats = (f"{cell.stats[k]:.6g}" if k in cell.stats else "" for k in stat_keys)
        rows.append([cell.label, *map(str, (cell.trials, cell.violations, cell.failures)), *stats])
    widths = [max(map(len, column)) for column in zip(*rows)]
    for row in rows:
        print("  ".join(col.ljust(w) for col, w in zip(row, widths)))
    print(
        f"{summary.experiment.value}: {sum(c.trials for c in summary.cells)} records, "
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
