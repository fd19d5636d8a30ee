"""tools/bench_pairs.py: the failed shares and verdicts in its summary, and
the report it keeps when a run fails."""

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
    summary = bench_pairs.summarize(pairs, {"trials_per_s": "higher"}, {})
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


def verdict_of(parent, change, better="higher", bound=0.24):
    """The verdict of synthetic pairs of one metric, named trials_per_s."""
    pairs = [{"parent": result(p), "change": result(c)} for p, c in zip(parent, change)]
    entry = bench_pairs.summarize(pairs, {"trials_per_s": better}, {"trials_per_s": bound})
    assert entry["trials_per_s"]["bound"] == bound
    return entry["trials_per_s"]["verdict"]


def test_gain_needs_nine_of_ten_pairs_and_a_median_beyond_the_parents_spread():
    parent = [100.0 + i for i in range(10)]  # quartiles 101.75-107.25
    change = [99.0] + [120.0 + i for i in range(1, 10)]  # better in 9 of 10
    assert verdict_of(parent, change) == "gain"
    assert verdict_of(parent, [99.0, 98.0] + change[2:]) == "within bound"  # 8 of 10
    # better in 10 of 10, but the medians differ by 5.0 against a spread of 5.5
    assert verdict_of(parent, [p + 5.0 for p in parent]) == "within bound"
    assert verdict_of(parent, [p - 20.0 for p in parent], better="lower") == "gain"


def test_worse_is_a_median_beyond_the_bound():
    parent = [100.0 + 0.1 * i for i in range(10)]
    assert verdict_of(parent, [p - 30.0 for p in parent]) == "worse"  # 30% of 100.45
    assert verdict_of(parent, [p - 20.0 for p in parent]) == "within bound"
    assert verdict_of(parent, [p * 1.03 for p in parent], better="lower", bound=0.02) == "worse"


def test_unresolved_when_the_parents_spread_exceeds_the_bound():
    parent = [40.0 + 0.5 * i for i in range(10)]  # (Q3 - Q1) / median = 2.75 / 42.25
    change = [p + (0.25 if i % 2 else -0.25) for i, p in enumerate(parent)]
    assert verdict_of(parent, change, better="lower", bound=0.02) == "unresolved"
    # unless every change run beats every parent run
    assert verdict_of(parent, [39.9] * 10, better="lower", bound=0.02) == "within bound"


def test_within_bound_is_printed_and_stored(monkeypatch, tmp_path, capsys):
    # the bound comes from BENCHMARK.json: 0.24 for trials_per_s
    monkeypatch.setattr(
        bench_pairs, "run", lambda tree, workload, seed, seconds: result(100.0 + 0.1 * seed)
    )
    out = tmp_path / "bench.json"
    argv = ["bench_pairs.py", str(tmp_path), "--workload", "oracle_chain", "--seeds", "1-10",
            "--seconds", "1", "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    assert bench_pairs.main() == 0
    entry = json.loads(out.read_text())["workloads"]["oracle_chain"]["summary"]["trials_per_s"]
    assert (entry["change_wins"], entry["bound"], entry["verdict"]) == (0, 0.24, "within bound")
    assert "change better in 0 of 10: within bound (bound 0.24)" in capsys.readouterr().out
