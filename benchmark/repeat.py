"""Repeat workloads over several seeds and print each metric's median and quartiles.

    python3 benchmark/repeat.py                      # every workload, seeds 1-10
    python3 benchmark/repeat.py --workloads oracle_chain --seeds 1-5
    python3 benchmark/repeat.py --trace 1 --seeds 3,3  # traced counts must match

Each run is a separate ``run.py`` process, as the benchmark is meant to be
run. The spread printed is (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; the bounds in BENCHMARK.json are set
against it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            output = proc.stdout.strip().splitlines()
            result = json.loads(output[-1])
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:4]),
                  flush=True)
            for line in output:
                if line.startswith("  measured:"):
                    print(f"   {line.strip()}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"== {workload}: {len(results)} runs, failed share(s) {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in results)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            note = f"  bound {bound:g} ({spread / bound:.2f} of it)" if bound else ""
            print(f"   {name:40s} median {median:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
                  f"{unit:8s} spread {spread:.4f}{note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
