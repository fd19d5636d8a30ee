"""Command-line front end for the experiment harness.

Exit codes: 0 on success, 1 if any analytic bound was violated, 2 on a
configuration error. The default output directory can be overridden with the
TOMOREDUCE_OUT_DIR environment variable.

Every flag stores its value under the name of the ExperimentConfig field it
sets, and each subcommand sets its experiment kind and trial count as
parser defaults, so the parsed namespace is the config's keyword arguments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path

from .harness import (
    DEFAULT_DELTA_GRID,
    DEFAULT_D_GRID,
    DEFAULT_EPS_GRID,
    DEFAULT_ETA_GRID,
    DEFAULT_N_GRID,
    DEFAULT_PROP_D_GRID,
    DEFAULT_R_GRID,
    OUTPUT_DIR_ENV_VAR,
    ExperimentConfig,
    ExperimentKind,
    fit_scaling,
    print_summary,
    run_experiment,
)
from .tomography import TomographyBackend


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _subcommand(sub, name: str, kind: ExperimentKind, trials: int, help_text: str):
    p = sub.add_parser(name, help=help_text)
    p.set_defaults(experiment=kind)
    p.add_argument("--seed", dest="master_seed", type=int, default=2024,
                   help="master seed (default 2024)")
    p.add_argument("--trials", type=int, default=trials,
                   help=f"trials per grid cell (default {trials})")
    p.add_argument("--out", dest="out_path", default=None, help="output record file")
    p.add_argument("--format", dest="out_format", choices=("csv", "jsonl"), default="csv",
                   help="record format")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoreduce",
        description="Reduction-protocol sweeps, scaling experiments, and bound checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, r, d, eps in (
        ("chain-sweep", "verify the fidelity chain over an (r, d, eps) grid",
         DEFAULT_R_GRID, DEFAULT_D_GRID, DEFAULT_EPS_GRID),
        ("reduce", "chain-sweep with a one-cell default grid (r=2, d=4, eps=0.1)",
         (2,), (4,), (0.1,)),
    ):
        p = _subcommand(sub, name, ExperimentKind.CHAIN_SWEEP, 100, help_text)
        p.add_argument("--r", dest="r_values", type=_int_list, default=r,
                       help="comma list of r values")
        p.add_argument("--d", dest="d_values", type=_int_list, default=d,
                       help="comma list of d values")
        p.add_argument("--eps", dest="eps_values", type=_float_list, default=eps,
                       help="comma list of eps")
        p.add_argument("--c-extra", dest="extra_copy_factor", type=float, default=4.0,
                       help="extra-copy constant")
        p.add_argument("--n-copies", type=int, default=10_000, help="copies consumed by stage 1")
        p.add_argument("--backend", choices=[kind.value for kind in TomographyBackend],
                       default="oracle")

    p = _subcommand(sub, "scale-pure", ExperimentKind.SCALING_PURE, 50,
                    "pure-estimator infidelity vs shot budget")
    p.add_argument("--d", dest="d_values", type=_int_list, default=(4,))
    p.add_argument("--n", dest="n_values", type=_int_list, default=DEFAULT_N_GRID,
                   help="comma list of budgets")

    p = _subcommand(sub, "scale-mixed", ExperimentKind.SCALING_MIXED, 50,
                    "mixed-estimator infidelity vs shot budget")
    p.add_argument("--r", dest="r_values", type=_int_list, default=(2,))
    p.add_argument("--d", dest="d_values", type=_int_list, default=(4,))
    p.add_argument("--n", dest="n_values", type=_int_list, default=DEFAULT_N_GRID)

    p = _subcommand(sub, "gentle", ExperimentKind.GENTLE_MEASUREMENT, 100,
                    "trace-distance disturbance of the support projection")
    p.add_argument("--r", dest="r_values", type=_int_list, default=(1, 2))
    p.add_argument("--d", dest="d_values", type=_int_list, default=(4, 6))
    p.add_argument("--delta", dest="delta_values", type=_float_list, default=DEFAULT_DELTA_GRID)

    p = _subcommand(sub, "prop-search", ExperimentKind.PROPOSITION_SEARCH, 100,
                    "randomized search for composition-bound violations")
    p.add_argument("--d", dest="d_values", type=_int_list, default=DEFAULT_PROP_D_GRID)
    p.add_argument("--eps", dest="eps_values", type=_float_list, default=DEFAULT_ETA_GRID,
                   help="eta values")
    p.add_argument("--batch", dest="prop_batch", type=int, default=10_000,
                   help="triples checked per trial")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()  # parse_args keeps no state in a parser, so main reuses one


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    fields = vars(args).copy()
    del fields["command"]
    if fields["out_path"] is None:
        base = os.environ.get(OUTPUT_DIR_ENV_VAR, ".")
        fields["out_path"] = str(Path(base) / f"{args.experiment.value}.{args.out_format}")
    return ExperimentConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    summary = run_experiment(config)
    print_summary(summary)
    if config.experiment in (ExperimentKind.SCALING_PURE, ExperimentKind.SCALING_MIXED):
        _print_scaling_fits(config)
    if summary.out_path:
        print(f"records written to {summary.out_path}")
    return 0 if summary.ok else 1


def _print_scaling_fits(config: ExperimentConfig) -> None:
    """One fit per (r, d), from the records the run just wrote; CSV gives
    their values as strings, which fit_scaling casts."""
    with open(config.out_path, newline="") as f:
        if config.out_format == "csv":
            records = list(csv.DictReader(f))
        else:
            records = [json.loads(line) for line in f]
    by_dim: dict[tuple, list] = {}
    for rec in records:
        key = (rec.get("r"), rec["d"])
        by_dim.setdefault(key, []).append(rec)
    for key, recs in by_dim.items():
        label = f"d={key[1]}" if key[0] is None else f"r={key[0]},d={key[1]}"
        try:
            fit = fit_scaling(recs)
            print(f"scaling fit {label}: slope {fit.slope:+.3f}, intercept {fit.intercept:+.3f}")
        except ValueError as exc:  # too few budgets or a zero median; exit code unaffected
            print(f"scaling fit {label}: none ({exc})")


if __name__ == "__main__":
    raise SystemExit(main())
