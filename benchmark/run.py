"""tomoreduce benchmark: run one workload and print its metrics.

    python3 benchmark/run.py --workload oracle_chain --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, nothing is installed. With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics (setup_s, trials_per_s,
peak_rss_mib); with ``--trace 1`` it holds the per-layer metrics, and the full
span table is written to ``.bench_out/trace_<workload>_seed<n>.json``.
Exits 2 when the checkout holds no ``src/tomoreduce`` package.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The numerical libraries get one thread: the matrices are at most 64 x 64,
# where extra BLAS threads only add synchronisation, and one thread per
# process keeps a 2-core machine from being oversubscribed by the benchmark.
BLAS_THREADS = min(1, os.cpu_count() or 1)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

SETUP_PROBES = 11  # fresh interpreters timed per run; one import varies by tens of ms
RECOMPUTE_SAMPLES = 16  # inputs per run checked against the raw numpy recomputation
WORKER_GRACE_S = 60  # time a worker may take beyond --seconds before it is killed

sys.path.insert(0, str(BENCH_DIR))
from reference import REFERENCE_SECONDS, reference_seconds  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import MEMORY_SWEEPS, RECOMPUTE_GRIDS, WORKLOADS, cli_seed  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(argv: list[str]) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it has imported
    tomoreduce, parsed the CLI arguments and built the ExperimentConfig, and
    the reference kernel's time right after each probe."""
    times, reference = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), *argv],
            stdout=subprocess.PIPE, env=child_env(), text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.wait(timeout=30)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"setup probe failed with exit code {probe.returncode}")
        times.append(elapsed)
        reference.append(reference_seconds())
    return times, reference


def sweep_times(rounds: list[dict], traced: bool) -> dict[int, float]:
    """Each sweep's time at the reference speed, over the traced or untraced rounds.

    Load from other tenants slows the machine in bursts that last from a
    fraction of a second to minutes. The worker times the reference kernel
    right after every sweep, so the two mostly share one load phase and the
    ratio of their times cancels most of the slowdown. A sweep's time is the
    median of that ratio over its completed runs, times REFERENCE_SECONDS:
    its wall time at the machine speed where the kernel takes that long.
    """
    ratios: dict[int, list[float]] = {}
    for round_ in rounds:
        if round_["traced"] is traced:
            for index, (wall, code, kernel) in enumerate(
                zip(round_["walls"], round_["codes"], round_["reference"])
            ):
                if code == 0:
                    ratios.setdefault(index, []).append(wall / kernel)
    return {index: statistics.median(r) * REFERENCE_SECONDS for index, r in ratios.items()}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # checks that rejected output
    failed_sweeps: list[str] = field(default_factory=list)  # sweeps that raised or exited non-zero
    record_bytes: int = 0  # bytes of one round's record files, wall_time column excluded


def check_rounds(workload: str, rounds: list[dict], memory: dict | None, out: Path) -> Outcome:
    """Check every round's records and count attempted and failed trials.

    Every round repeats the same sweeps with the same seed, so round 0 is
    checked in full and every later round must repeat its records exactly,
    apart from the trailing wall_time column. The memory sweep, if the run
    had one, is checked in full.

    The CLI exits with code 1 when it counts a violation of a bound. Its
    records are then checked as usual, so the checks name the trials, and
    every trial of the sweep counts as failed.
    """
    from checks import check_records, load_records

    outcome = Outcome()

    def finished(round_: dict, index: int, sweep) -> Path | None:
        """Count the sweep's trials as attempted. Return its record file, or
        None if the sweep did not run to the end."""
        outcome.attempted += sweep.planned_trials
        code = round_["codes"][index]
        if code != 0:
            reason = round_["errors"][index].strip().splitlines()[-1:] or [f"exit code {code}"]
            outcome.failed_sweeps.append(f"{sweep.command} in {round_['dir']}: {reason[0]}")
        path = out / round_["dir"] / f"{index}.csv"
        if code not in (0, 1) or not path.is_file():
            outcome.failed += sweep.planned_trials
            return None
        return path

    def count_failed(round_: dict, index: int, sweep, rejected: int) -> None:
        planned = sweep.planned_trials
        outcome.failed += planned if round_["codes"][index] else min(planned, rejected)

    if memory is not None:
        sweep = MEMORY_SWEEPS[workload]
        path = finished(memory, 0, sweep)
        if path is not None:
            rejected = check_records(sweep, load_records(path))
            outcome.problems += rejected.messages
            count_failed(memory, 0, sweep, len(rejected.keys))

    reference: dict[int, tuple[list[str], set]] = {}
    for round_ in rounds:
        for index, sweep in enumerate(WORKLOADS[workload]):
            path = finished(round_, index, sweep)
            if path is None:
                continue
            raw = path.read_bytes()
            lines = [line.rsplit(b",", 1)[0] for line in raw.splitlines()]
            if index not in reference:
                rejected = check_records(sweep, load_records(path))
                reference[index] = (lines, rejected.keys)
                outcome.problems += rejected.messages
                outcome.record_bytes += len(raw) - sum(len(a) - len(b) for a, b in zip(raw.splitlines(), lines))
            ref_lines, ref_rejected = reference[index]
            differing = sum(1 for a, b in zip(lines, ref_lines) if a != b)
            differing += abs(len(lines) - len(ref_lines))
            if differing:
                outcome.problems.append(f"{sweep.command} in {round_['dir']}: {differing} record(s) differ from round 0")
            count_failed(round_, index, sweep, len(ref_rejected) + differing)
    return outcome


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tomoreduce" / "__init__.py").is_file():
        print(f"no tomoreduce package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("--seed must be nonnegative and --seconds positive", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    OUT_DIR.mkdir(exist_ok=True)
    sweeps = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        out = Path(tmp)
        if not args.trace:
            setup, setup_reference = measure_setup(sweeps[0].argv(cli_seed(args.seed, 0), str(out / "probe.csv")))
        worker = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            env=child_env(), timeout=args.seconds + WORKER_GRACE_S,
        )
        if worker.returncode != 0:
            print(f"worker exited with code {worker.returncode}", file=sys.stderr)
            return 1
        report = json.loads((out / "worker.json").read_text())
        outcome = check_rounds(args.workload, report["rounds"], report["memory"], out)

    sys.path.insert(0, str(SRC))
    import tomoreduce

    if Path(tomoreduce.__file__).resolve().parent != (SRC / "tomoreduce").resolve():
        print(f"tomoreduce imported from {tomoreduce.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from checks import recompute

    outcome.problems += recompute(RECOMPUTE_GRIDS[args.workload], args.seed, RECOMPUTE_SAMPLES)

    rounds = report["rounds"]
    print(f"workload {args.workload}, seed {args.seed}, {len(rounds)} round(s) of "
          f"{sum(s.planned_trials for s in sweeps)} trials, blas threads {BLAS_THREADS}")
    for failure in outcome.failed_sweeps[:10]:
        print(f"SWEEP FAILED: {failure}")
    for problem in outcome.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        traced, untraced = sweep_times(rounds, True), sweep_times(rounds, False)
        layers = dict(report["layers"])
        layers["harness.record_bytes"] = outcome.record_bytes
        layers["trace.overhead"] = sum(traced.values()) / sum(untraced[i] for i in traced)
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
        trace_path = OUT_DIR / f"trace_{args.workload}_seed{args.seed}.json"
        trace_path.write_text(json.dumps(
            {"per_round": layers, "traced_rounds": sum(r["traced"] for r in rounds),
             "spans": report["spans"]}, indent=1))
        print(f"span table written to {trace_path.relative_to(ROOT)}")
    else:
        # Both timings are scaled to the machine speed at which the reference
        # kernel takes REFERENCE_SECONDS, each sweep and each set-up probe by
        # the kernel timed right after it.
        times = sweep_times(rounds, False)
        completed = sum(sweeps[i].planned_trials for i in times)
        setup_s = statistics.median(t / k for t, k in zip(setup, setup_reference)) * REFERENCE_SECONDS
        kernel = statistics.median(t for r in rounds for t in r["reference"])
        print(f"  measured: median round of {sum(s.planned_trials for s in sweeps)} trials "
              f"{statistics.median(sum(r['walls']) for r in rounds):.4f} s with the kernel at "
              f"{kernel:.4f} s; set-up {statistics.median(setup):.6g} s with the kernel at "
              f"{statistics.median(setup_reference):.4f} s")
        if report["memory"] is not None:
            print(f"  measured: memory sweep of {MEMORY_SWEEPS[args.workload].planned_trials} trials "
                  f"{report['memory']['walls'][0]:.4f} s")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "trials_per_s": {"value": completed / sum(times.values()) if times else 0.0,
                             "unit": "trials/s"},
            "peak_rss_mib": {"value": report["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        }
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not outcome.problems and not outcome.failed_sweeps
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
