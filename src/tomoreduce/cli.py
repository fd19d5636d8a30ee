"""Command-line front end for the experiment harness.

Exit codes: 0 on success, 1 if any analytic bound was violated, 2 on a
configuration error. The default output directory can be overridden with the
TOMOREDUCE_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
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

_SUBCOMMANDS = {
    "chain-sweep": ExperimentKind.CHAIN_SWEEP,
    "reduce": ExperimentKind.CHAIN_SWEEP,
    "scale-pure": ExperimentKind.SCALING_PURE,
    "scale-mixed": ExperimentKind.SCALING_MIXED,
    "gentle": ExperimentKind.GENTLE_MEASUREMENT,
    "prop-search": ExperimentKind.PROPOSITION_SEARCH,
}


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=2024, help="master seed (default 2024)")
    sub.add_argument("--trials", type=int, default=None, help="trials per grid cell")
    sub.add_argument("--out", type=str, default=None, help="output record file")
    sub.add_argument("--format", choices=("csv", "jsonl"), default="csv", help="record format")


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
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--r", type=_int_list, default=r, help="comma list of r values")
        p.add_argument("--d", type=_int_list, default=d, help="comma list of d values")
        p.add_argument("--eps", type=_float_list, default=eps, help="comma list of eps")
        p.add_argument("--c-extra", type=float, default=4.0, help="extra-copy constant")
        p.add_argument("--n-copies", type=int, default=10_000, help="copies consumed by stage 1")
        p.add_argument("--backend", choices=("oracle", "measurement"), default="oracle")

    p = sub.add_parser("scale-pure", help="pure-estimator infidelity vs shot budget")
    _add_common(p)
    p.add_argument("--d", type=_int_list, default=(4,))
    p.add_argument("--n", type=_int_list, default=DEFAULT_N_GRID, help="comma list of budgets")

    p = sub.add_parser("scale-mixed", help="mixed-estimator infidelity vs shot budget")
    _add_common(p)
    p.add_argument("--r", type=_int_list, default=(2,))
    p.add_argument("--d", type=_int_list, default=(4,))
    p.add_argument("--n", type=_int_list, default=DEFAULT_N_GRID)

    p = sub.add_parser("gentle", help="trace-distance disturbance of the support projection")
    _add_common(p)
    p.add_argument("--r", type=_int_list, default=(1, 2))
    p.add_argument("--d", type=_int_list, default=(4, 6))
    p.add_argument("--delta", type=_float_list, default=DEFAULT_DELTA_GRID)

    p = sub.add_parser("prop-search", help="randomized search for composition-bound violations")
    _add_common(p)
    p.add_argument("--d", type=_int_list, default=DEFAULT_PROP_D_GRID)
    p.add_argument("--eps", type=_float_list, default=DEFAULT_ETA_GRID, help="eta values")
    p.add_argument("--batch", type=int, default=10_000, help="triples checked per trial")

    return parser


_DEFAULT_TRIALS = {
    ExperimentKind.CHAIN_SWEEP: 100,
    ExperimentKind.SCALING_PURE: 50,
    ExperimentKind.SCALING_MIXED: 50,
    ExperimentKind.GENTLE_MEASUREMENT: 100,
    ExperimentKind.PROPOSITION_SEARCH: 100,
}


def _default_out(kind: ExperimentKind, fmt: str) -> str:
    base = os.environ.get(OUTPUT_DIR_ENV_VAR, ".")
    return str(Path(base) / f"{kind.value}.{fmt}")


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    kind = _SUBCOMMANDS[args.command]
    trials = args.trials if args.trials is not None else _DEFAULT_TRIALS[kind]
    out_path = args.out if args.out is not None else _default_out(kind, args.format)
    kwargs = dict(
        experiment=kind,
        trials=trials,
        master_seed=args.seed,
        out_path=out_path,
        out_format=args.format,
    )
    if kind is ExperimentKind.CHAIN_SWEEP:
        kwargs.update(
            r_values=args.r,
            d_values=args.d,
            eps_values=args.eps,
            extra_copy_factor=args.c_extra,
            n_copies=args.n_copies,
            backend=args.backend,
        )
    elif kind is ExperimentKind.SCALING_PURE:
        kwargs.update(d_values=args.d, n_values=args.n)
    elif kind is ExperimentKind.SCALING_MIXED:
        kwargs.update(r_values=args.r, d_values=args.d, n_values=args.n)
    elif kind is ExperimentKind.GENTLE_MEASUREMENT:
        kwargs.update(r_values=args.r, d_values=args.d, delta_values=args.delta)
    elif kind is ExperimentKind.PROPOSITION_SEARCH:
        kwargs.update(d_values=args.d, eps_values=args.eps, prop_batch=args.batch)
    return ExperimentConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    summary = run_experiment(config)
    print_summary(summary)
    if config.experiment in (ExperimentKind.SCALING_PURE, ExperimentKind.SCALING_MIXED):
        _print_scaling_fits(summary)
    if summary.out_path:
        print(f"records written to {summary.out_path}")
    return 0 if summary.violations_total == 0 else 1


def _print_scaling_fits(summary) -> None:
    by_dim: dict[tuple, list] = {}
    for rec in summary.records:
        key = (rec.get("r"), rec["d"])
        by_dim.setdefault(key, []).append(rec)
    for key, recs in by_dim.items():
        budgets = {rec["n"] for rec in recs}
        if len(budgets) < 3:
            continue
        fit = fit_scaling(recs)
        label = f"d={key[1]}" if key[0] is None else f"r={key[0]},d={key[1]}"
        print(f"scaling fit {label}: slope {fit.slope:+.3f}, intercept {fit.intercept:+.3f}")


if __name__ == "__main__":
    raise SystemExit(main())
