"""Time a change against a parent tree in alternating pairs of benchmark runs.

Usage::

    python3 tools/bench_pairs.py <parent-tree> --workload W[,W2...] --seeds A-B \\
        --out BENCH_<n>.json [--seconds S] [--change <tree>]

Each tree is a checkout of this repository; the change tree defaults to the
checkout that holds this script. For every workload and every seed, the two
trees run ``benchmark/run.py --workload W --seed <seed> --seconds S --trace 0``
one after the other, each from its own root, and the tree that runs first
alternates from pair to pair, so slow phases of a shared machine fall on both
sides alike. The JSON file holds each pair's metrics, and per workload and
metric each side's median and quartiles and the number of pairs the change
won, in the direction BENCHMARK.json gives the metric, plus each side's share
of failed operations (failed over attempted, summed over its runs). Quartiles
are those of ``statistics.quantiles(values, n=4)``, as ``benchmark/repeat.py``
prints them. Each end-to-end metric with a ``bound`` in BENCHMARK.json also gets
a verdict, printed and stored: ``gain``, ``worse``, ``unresolved`` or ``within
bound`` (see ``verdict``). If a run fails or reports incorrect output, the
script writes the report so far, with that workload's finished pairs and the
failing side, its seed and the last lines of its stderr and stdout, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHANGE / "benchmark"))
from repeat import parse_seeds  # noqa: E402  (the --seeds syntax of repeat.py)


def git_state(tree: Path) -> dict:
    """The tree's HEAD commit, and whether its tracked files differ from it."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True).stdout
    return {"sha": git("rev-parse", "HEAD").strip() or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip())}


TAIL_LINES = 20  # lines of a failed run's stderr and stdout kept in the report


class RunFailed(RuntimeError):
    """A benchmark run that exited nonzero or reported incorrect output; run.py
    prints its failed checks (``CHECK FAILED``) to stdout, its errors to stderr."""

    def __init__(self, reason: str, proc: subprocess.CompletedProcess):
        super().__init__(reason)
        self.stderr_tail = proc.stderr.splitlines()[-TAIL_LINES:]
        self.stdout_tail = proc.stdout.splitlines()[-TAIL_LINES:]


def run(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RunFailed(f"exit {proc.returncode}", proc)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RunFailed("no JSON result on the last line of stdout", proc) from None
    if not result["correct"]:
        raise RunFailed("incorrect output", proc)
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) >= 2 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3}


def verdict(entry: dict, parent: list[float], change: list[float], bound: float) -> str:
    """The verdict on one metric's pairs, whose summary entry is ``entry``:

    - ``gain``: the change is better in at least 9 of 10 pairs, and its median
      beats the parent's by more than the parent's quartile spread Q3 - Q1;
    - ``worse``: the change's median is worse than the parent's by more than
      ``bound`` times the parent's median;
    - ``unresolved``: the parent's (Q3 - Q1) / median exceeds ``bound``, and
      not every change run beats every parent run;
    - ``within bound``: every other case.
    """
    sign = 1 if entry["better"] == "higher" else -1
    p, c = entry["parent"], entry["change"]
    parent_spread, scale = p["q3"] - p["q1"], bound * abs(p["median"])
    gain = sign * (c["median"] - p["median"])
    if 10 * entry["change_wins"] >= 9 * entry["pairs"] and gain > parent_spread:
        return "gain"
    if -gain > scale:
        return "worse"
    if parent_spread > scale and min(sign * x for x in change) <= max(sign * x for x in parent):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change won
    and, for metrics with a bound, the bound and the verdict; and each side's
    failed share of the operations it attempted."""
    summary = {"failed_share": {
        side: sum(p[side]["failed"] for p in pairs) / max(1, sum(p[side]["attempted"] for p in pairs))
        for side in ("parent", "change")
    }}
    for name in (pairs[0]["parent"]["metrics"] if pairs else ()):
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        entry = {"parent": spread(parent), "change": spread(change)}
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            entry["better"] = better[name]
            entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
            entry["pairs"] = len(pairs)
            if name in bounds:
                entry["bound"] = bounds[name]
                entry["verdict"] = verdict(entry, parent, change, bounds[name])
        summary[name] = entry
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("--change", type=Path, default=CHANGE)
    parser.add_argument("--workload", required=True, help="comma list of workloads")
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=int, default=None, help="default: BENCHMARK.json's")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "parent": git_state(trees["parent"]),
        "change": git_state(trees["change"]),
        "machine": {"python": platform.python_version(), "machine": platform.machine(),
                    "system": platform.system(), "processor": platform.processor()},
        "seconds": seconds,
        "workloads": {},
    }
    for workload in args.workload.split(","):
        pairs = []
        for index, seed in enumerate(args.seeds):
            order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                try:
                    pair[side] = run(trees[side], workload, seed, seconds)
                except RunFailed as error:
                    failure = {"side": side, "seed": seed, "reason": str(error),
                               "stderr_tail": error.stderr_tail, "stdout_tail": error.stdout_tail}
                    report["workloads"][workload] = {
                        "pairs": pairs, "summary": summarize(pairs, better, bounds), "failure": failure,
                    }
                    args.out.write_text(json.dumps(report, indent=1) + "\n")
                    print(f"{workload} seed {seed}: {side} run failed ({error}); "
                          f"report so far written to {args.out}", file=sys.stderr)
                    print("\n".join(error.stderr_tail + error.stdout_tail), file=sys.stderr)
                    return 1
            pairs.append(pair)
            print(f"{workload} seed {seed}: " + "  ".join(
                f"{name} {pair['parent']['metrics'][name]:.6g} -> {pair['change']['metrics'][name]:.6g}"
                for name in pair["parent"]["metrics"] if name in better
            ), flush=True)
        report["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, better, bounds)}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in report["workloads"].items():
        shares = entry["summary"]["failed_share"]
        print(f"== {workload} failed share: parent {shares['parent']:.3g}, change {shares['change']:.3g}")
        for name, s in entry["summary"].items():
            if "change_wins" in s:
                print(f"== {workload} {name}: median {s['parent']['median']:.6g} -> "
                      f"{s['change']['median']:.6g}, parent quartiles {s['parent']['q1']:.6g}-"
                      f"{s['parent']['q3']:.6g}, change better in {s['change_wins']} of {s['pairs']}"
                      + (f": {s['verdict']} (bound {s['bound']:g})" if "verdict" in s else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
