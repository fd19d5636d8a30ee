"""tools/bench_pairs.py: the failed shares in its summary, and the report it
keeps when a run fails."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(value, attempted=100, failed=0):
    return {"attempted": attempted, "failed": failed, "metrics": {"trials_per_s": value}}


def test_summary_holds_each_sides_failed_share():
    pairs = [
        {"parent": result(10.0, 100, 1), "change": result(12.0, 50, 0)},
        {"parent": result(11.0, 300, 3), "change": result(13.0, 150, 3)},
    ]
    summary = bench_pairs.summarize(pairs, {"trials_per_s": "higher"})
    assert summary["failed_share"] == {"parent": 4 / 400, "change": 3 / 200}
    assert summary["trials_per_s"]["change_wins"] == 2


def test_failed_run_keeps_the_report_so_far(monkeypatch, tmp_path):
    # the second pair's change run fails: the first pair, the failing side, its
    # seed and the tails of its stderr and stdout are written before it exits 1
    proc = subprocess.CompletedProcess(
        [], 1, stdout="CHECK FAILED: x\n", stderr="\n".join(f"line {i}" for i in range(30))
    )
    calls = []

    def fake_run(tree, workload, seed, seconds):
        calls.append(seed)
        if seed == 2 and tree == bench_pairs.CHANGE.resolve():
            raise bench_pairs.RunFailed("exit 1", proc)
        return result(float(seed), attempted=10, failed=seed == 2)

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "bench.json"
    argv = ["bench_pairs.py", str(tmp_path), "--workload", "oracle_chain", "--seeds", "1-3",
            "--seconds", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 1
    entry = json.loads(out.read_text())["workloads"]["oracle_chain"]
    assert [p["seed"] for p in entry["pairs"]] == [1]
    assert entry["failure"] == {
        "side": "change", "seed": 2, "reason": "exit 1",
        "stderr_tail": [f"line {i}" for i in range(10, 30)], "stdout_tail": ["CHECK FAILED: x"],
    }
    assert entry["summary"]["failed_share"] == {"parent": 0.0, "change": 0.0}
    assert calls == [1, 1, 2]  # the second pair runs the change first
