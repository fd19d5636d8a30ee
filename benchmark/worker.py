"""Runs one workload's rounds through ``tomoreduce.cli.main`` in this process.

Started by run.py in a fresh interpreter, so that the peak resident memory it
reports belongs to this workload alone. Untraced, it runs whole rounds until
``--seconds`` have passed. Traced, it alternates untraced and traced rounds
over the same time, so the tracing overhead is measured against rounds run
under the same conditions. An untraced run of a workload with a memory sweep
runs that sweep once first, before the timed rounds start. After every sweep
the worker times the reference kernel, so the kernel samples the machine's
speed over the same interval as the sweep. Record files go to ``--out``;
run.py checks them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import time
import traceback
from pathlib import Path

import tomoreduce.cli
from reference import reference_seconds
from tracing import Tracer, layer_metrics
from workloads import MEMORY_SWEEPS, WORKLOADS, cli_seed


def run_round(sweeps, seed: int, round_dir: Path) -> dict:
    round_dir.mkdir(parents=True)
    walls, codes, errors, reference = [], [], [], []
    with open(round_dir / "stdout.txt", "w") as stdout, contextlib.redirect_stdout(stdout):
        for index, sweep in enumerate(sweeps):
            argv = sweep.argv(cli_seed(seed, index), str(round_dir / f"{index}.csv"))
            start = time.perf_counter()
            try:
                code, error = tomoreduce.cli.main(argv), ""
            except Exception:  # a crashed sweep fails its trials; the run goes on
                code, error = None, traceback.format_exc(limit=3)
            walls.append(time.perf_counter() - start)
            reference.append(reference_seconds())
            codes.append(code)
            errors.append(error)
    return {"dir": round_dir.name, "walls": walls, "codes": codes, "errors": errors,
            "reference": reference}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sweeps = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = Tracer() if args.trace else None

    memory = None
    if tracer is None and args.workload in MEMORY_SWEEPS:
        memory = run_round((MEMORY_SWEEPS[args.workload],), args.seed, out / "memory")

    rounds: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
        try:
            result = run_round(sweeps, args.seed, out / f"round{len(rounds)}")
        finally:
            if traced:
                tracer.uninstall()
        result["traced"] = traced
        rounds.append(result)
        # Stop on a round boundary; a traced run ends on a traced round.
        if time.perf_counter() >= deadline and (tracer is None or traced):
            break

    report = {
        "rounds": rounds,
        "memory": memory,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        traced_rounds = sum(1 for r in rounds if r["traced"])
        report["layers"], report["spans"] = layer_metrics(tracer, traced_rounds)
    (out / "worker.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
