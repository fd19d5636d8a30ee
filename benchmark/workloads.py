"""The benchmark's workloads: fixed sets of CLI sweeps, one round each.

A round runs every sweep of a workload once through ``tomoreduce.cli.main``.
Grids and trial counts are spelled out here rather than taken from the CLI
defaults, so that a change to a default does not silently change what the
benchmark measures. Flags equal to a CLI default are still passed, because
the correctness checks read them back from the sweep definition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

DEFAULT_R = (1, 2, 3)
DEFAULT_D = (2, 3, 4, 6, 8)
DEFAULT_EPS = (0.2, 0.1, 0.05, 0.01)
TIGHT_D = (4, 8)
TIGHT_EPS = (1e-3, 1e-4, 1e-5)
N_COPIES = 10_000
C_EXTRA = 4.0
GENTLE_R = (1, 2)
GENTLE_D = (4, 6)
GENTLE_DELTA = (0.1, 0.01, 0.001)
PROP_D = (2, 3, 4, 5, 6)
PROP_ETA = (0.01, 0.1, 0.3)
PROP_BATCH = 10_000
SCALE_N = (10_000, 100_000, 1_000_000)


def _csv(values) -> str:
    return ",".join(repr(v) for v in values)


@dataclass(frozen=True)
class Sweep:
    """One CLI invocation: a subcommand, its grid and its trials per cell."""

    command: str
    trials: int
    grid: dict[str, Any]

    def argv(self, seed: int, out: str) -> list[str]:
        """CLI arguments; each sweep of a workload is given its own ``seed``."""
        args = [self.command]
        for key, value in self.grid.items():
            flag = "--" + key.replace("_", "-")
            args += [flag, _csv(value) if isinstance(value, tuple) else str(value)]
        return args + ["--trials", str(self.trials), "--seed", str(seed), "--out", out]

    def cells(self) -> list[dict[str, Any]]:
        """Grid cells in the order the harness runs them (r > d dropped)."""
        g = self.grid
        if self.command == "chain-sweep":
            return [
                {"r": r, "d": d, "epsilon": e}
                for r in g["r"] for d in g["d"] if r <= d for e in g["eps"]
            ]
        if self.command == "gentle":
            return [
                {"r": r, "d": d, "delta": x}
                for r in g["r"] for d in g["d"] if r <= d for x in g["delta"]
            ]
        if self.command == "prop-search":
            return [{"d": d, "eta": e} for d in g["d"] if d >= 2 for e in g["eps"]]
        if self.command == "scale-pure":
            return [{"d": d, "n": n} for d in g["d"] for n in g["n"] if n >= d * d]
        if self.command == "scale-mixed":
            return [
                {"r": r, "d": d, "n": n}
                for r in g["r"] for d in g["d"] if r <= d for n in g["n"] if n >= d * d
            ]
        raise ValueError(f"unknown sweep command {self.command!r}")

    @property
    def planned_trials(self) -> int:
        return len(self.cells()) * self.trials


def cli_seed(seed: int, sweep_index: int) -> int:
    """The CLI master seed of a workload's sweep: distinct per sweep, so the
    per-eps sweeps of one grid do not reuse each other's states."""
    return 100 * seed + sweep_index


def _chain(backend: str, trials: int, r=DEFAULT_R, d=DEFAULT_D, eps=DEFAULT_EPS) -> Sweep:
    return Sweep(
        "chain-sweep",
        trials,
        {"r": r, "d": d, "eps": eps, "backend": backend, "n_copies": N_COPIES, "c_extra": C_EXTRA},
    )


# Each grid is split into sweeps of about a quarter of a second, one per eps
# (or delta, or eta) value. Load from other tenants slows the machine in
# bursts, and run.py scales each sweep by the reference kernel timed right
# after it; a short sweep and its kernel are far more likely to share one
# load phase than a long sweep and its kernel.
WORKLOADS: dict[str, tuple[Sweep, ...]] = {
    "oracle_chain": tuple(_chain("oracle", 12, eps=(e,)) for e in DEFAULT_EPS),
    "measurement_chain": tuple(_chain("measurement", 2, eps=(e,)) for e in DEFAULT_EPS),
    "tight_eps_chain": tuple(
        _chain("oracle", 10, d=TIGHT_D, eps=(e,)) for e in TIGHT_EPS
    ),
    "side_experiments": (
        *(Sweep("gentle", 50, {"r": GENTLE_R, "d": GENTLE_D, "delta": (x,)}) for x in GENTLE_DELTA),
        *(Sweep("prop-search", 2, {"d": PROP_D, "eps": (e,), "batch": PROP_BATCH}) for e in PROP_ETA),
        Sweep("scale-pure", 50, {"d": (4,), "n": SCALE_N}),
        Sweep("scale-mixed", 50, {"r": (2,), "d": (4,), "n": SCALE_N}),
    ),
}

# A sweep run once per untraced run, before the timed rounds, so that
# peak_rss_mib covers a sweep of the CLI's default size. The harness holds
# every record until write_records runs at the end, and the 5,600 records of
# the default oracle sweep take about 6.5 MiB; the short sweeps of the rounds
# hold too few records for that to show.
MEMORY_SWEEPS: dict[str, Sweep] = {
    "oracle_chain": _chain("oracle", 100),
}

# The chain grids the independent recomputation samples its inputs from:
# side_experiments runs no chain, so it checks the default oracle grid.
RECOMPUTE_GRIDS: dict[str, Sweep] = {
    "oracle_chain": _chain("oracle", 1),
    "measurement_chain": _chain("measurement", 1),
    "tight_eps_chain": _chain("oracle", 1, d=TIGHT_D, eps=TIGHT_EPS),
    "side_experiments": _chain("oracle", 1),
}
