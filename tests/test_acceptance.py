"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from tomoreduce import (
    DensityMatrix,
    ExperimentConfig,
    ExperimentKind,
    Projector,
    child_seed,
    fidelity_mixed,
    fidelity_pure_pure,
    fit_scaling,
    gentle_measurement_experiment,
    optimal_purification_against,
    outcome_probability,
    partial_trace_x,
    proposition_search,
    random_pure_state,
    random_rank_r_state,
    rng_from_seed,
    run_experiment,
    sample_shots,
    trace_distance,
)
from tomoreduce.reduction import CHAIN_SLACK
from tomoreduce.states import _haar_unitaries

from oracles import random_density_matrix, uhlmann_fidelity_search

MASTER_SEED = 20240817

ACCEPT_R = (1, 2, 3)
ACCEPT_D = (2, 3, 4, 5, 6, 7, 8)
ACCEPT_EPS = (0.2, 0.1, 0.05, 0.01)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def chain_sweep_summary():
    config = ExperimentConfig(
        experiment=ExperimentKind.CHAIN_SWEEP,
        r_values=ACCEPT_R,
        d_values=ACCEPT_D,
        eps_values=ACCEPT_EPS,
        trials=100,
        master_seed=MASTER_SEED,
        backend="oracle",
        n_copies=1000,
    )
    start = time.perf_counter()
    summary = run_experiment(config)
    elapsed = time.perf_counter() - start
    return summary, elapsed


def test_criterion_1_chain_bound(chain_sweep_summary):
    summary, elapsed = chain_sweep_summary
    records = summary.records
    holds = [
        rec["final_fidelity"] is not None
        and rec["final_fidelity"] >= 1.0 - 16.0 * rec["epsilon"]
        for rec in records
    ]
    ok = all(holds) and not summary.failures_total and elapsed < 300.0
    report(
        1,
        "final fidelity >= 1 - 16*eps in 100% of oracle trials over the full grid",
        ok,
        f"{sum(holds)}/{len(records)} trials, {elapsed:.1f}s",
    )


def test_criterion_2_keep_probability_bound(chain_sweep_summary):
    summary, _ = chain_sweep_summary
    records = summary.records
    cauchy = [rec["keep_probability"] >= rec["fidelity_mixed_estimate"] - 1e-9 for rec in records]
    window = [
        rec["keep_probability"] >= 1.0 - rec["epsilon"] - 1e-9
        for rec in records
        if rec["fidelity_mixed_estimate"] >= 1.0 - rec["epsilon"]
    ]
    ok = all(cauchy) and all(window) and len(window) == len(records)
    report(
        2,
        "keep probability >= F(rho, sigma) - 1e-9 and >= 1 - eps - 1e-9 under the oracle window",
        ok,
        f"{sum(cauchy)}/{len(records)} Cauchy-Schwarz, {sum(window)}/{len(window)} window",
    )


def test_criterion_3_projection_identity(chain_sweep_summary):
    summary, _ = chain_sweep_summary
    records = summary.records
    holds = [
        abs(rec["projected_fidelity"] - rec["keep_probability"]) <= 1e-9 for rec in records
    ]
    worst = max(abs(rec["projected_fidelity"] - rec["keep_probability"]) for rec in records)
    report(
        3,
        "|<psi_tilde|psi>|^2 equals the keep probability within 1e-9 in all trials",
        all(holds),
        f"worst deviation {worst:.2e}",
    )


def test_criterion_4_geometric_proposition():
    start = time.perf_counter()
    dims = (2, 3, 4, 5, 6)
    etas = (0.01, 0.1, 0.3)
    total_target = 1_000_000
    per_cell = total_target // (len(dims) * len(etas)) + 1
    checked = 0
    violations = 0
    min_slack = np.inf
    for i, d in enumerate(dims):
        for j, eta in enumerate(etas):
            res = proposition_search(d, eta, per_cell, child_seed(MASTER_SEED, 4, i, j))
            checked += res.checked
            violations += res.violations
            min_slack = min(min_slack, res.min_slack)
    elapsed = time.perf_counter() - start
    ok = checked >= total_target and violations == 0 and min_slack >= -1e-9 and elapsed < 120.0
    report(
        4,
        "zero violations of |<phi|psi>| >= 1 - 4*eta over 10^6 random triples",
        ok,
        f"{checked} triples, min slack {min_slack:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_uhlmann_consistency():
    rng = np.random.default_rng(child_seed(MASTER_SEED, 5))
    worst_search = 0.0
    for t in range(200):
        d = 2 + t % 3  # d in {2, 3, 4}
        rho = DensityMatrix.from_matrix(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
        sig = DensityMatrix.from_matrix(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
        f_closed = fidelity_mixed(rho, sig)
        f_search = uhlmann_fidelity_search(rho.matrix, sig.matrix, restarts=200, seed=t)
        worst_search = max(worst_search, abs(f_closed - f_search))
    worst_construct = 0.0
    for t in range(200):
        r = 2 + t % 2
        d = r + 1 + t % 2
        psi = random_pure_state(r, d, child_seed(MASTER_SEED, 50, t))
        sigma = random_rank_r_state(d, r, child_seed(MASTER_SEED, 51, t))
        achieved = fidelity_pure_pure(psi, optimal_purification_against(sigma, psi))
        worst_construct = max(
            worst_construct, abs(achieved - fidelity_mixed(partial_trace_x(psi), sigma))
        )
    ok = worst_search <= 1e-4 and worst_construct <= CHAIN_SLACK
    report(
        5,
        "closed-form fidelity matches purification search (1e-4) and the aligned "
        f"purification attains it ({CHAIN_SLACK:g})",
        ok,
        f"search worst {worst_search:.2e}, construction worst {worst_construct:.2e}",
    )


def test_criterion_6_fuchs_van_de_graaf():
    rng = np.random.default_rng(child_seed(MASTER_SEED, 6))
    worst_lower = np.inf
    worst_upper = np.inf
    for t in range(1000):
        d = int(rng.integers(2, 7))
        a = DensityMatrix.from_matrix(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
        b = DensityMatrix.from_matrix(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
        f = fidelity_mixed(a, b)
        t_dist = trace_distance(a, b)
        worst_lower = min(worst_lower, t_dist - (1.0 - math.sqrt(f)))
        worst_upper = min(worst_upper, math.sqrt(max(1.0 - f, 0.0)) - t_dist)
    ok = worst_lower >= -1e-8 and worst_upper >= -1e-8
    report(
        6,
        "1 - sqrt(F) <= T <= sqrt(1 - F) on 1000 random pairs with slack >= -1e-8",
        ok,
        f"slacks {worst_lower:.2e}, {worst_upper:.2e}",
    )


def test_criterion_7_measurement_statistics():
    shots = 100_000
    worst = 0.0
    for t in range(20):
        r = 1 + t % 3
        d = max(2 + t % 7, r)
        psi = random_pure_state(r, d, child_seed(MASTER_SEED, 7, t, 0))
        k = 1 + t % d
        u = _haar_unitaries(d, 1, rng_from_seed(child_seed(MASTER_SEED, 7, t, 1)))[0]
        pi = Projector(u[:, :k])
        p = outcome_probability(psi, pi)
        kept = sample_shots(psi, pi, shots, child_seed(MASTER_SEED, 7, t, 2))
        sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / shots)
        deviation = abs(kept / shots - p) / (3.0 * sigma)
        worst = max(worst, deviation)
    ok = worst <= 1.0
    report(
        7,
        "empirical keep frequency within 3 binomial standard deviations on 20 instances",
        ok,
        f"worst deviation {worst:.2f} of the 3-sigma budget",
    )


def test_criterion_8_pure_scaling_shape():
    start = time.perf_counter()
    config = ExperimentConfig(
        experiment=ExperimentKind.SCALING_PURE,
        d_values=(4,),
        n_values=(10_000, 100_000, 1_000_000),
        trials=50,
        master_seed=child_seed(MASTER_SEED, 8),
    )
    summary = run_experiment(config)
    fit = fit_scaling(summary.records)
    elapsed = time.perf_counter() - start
    ok = -1.3 <= fit.slope <= -0.7 and elapsed < 600.0
    report(
        8,
        "log-log slope of median infidelity vs budget lies in [-1.3, -0.7] at d = 4",
        ok,
        f"slope {fit.slope:+.3f}, medians {[f'{m:.2e}' for m in fit.medians]}, {elapsed:.1f}s",
    )


def test_criterion_9_gentle_measurement_study():
    deltas = (0.1, 0.01, 0.001)
    worst_ratio = 0.0
    linear_trend = {}
    for delta in deltas:
        cell_max_linear = 0.0
        for i, r in enumerate((1, 2)):
            for j, d in enumerate((4, 6)):
                psi = random_pure_state(r, d, child_seed(MASTER_SEED, 9, i, j, 0))
                res = gentle_measurement_experiment(
                    psi, delta, trials=1000, seed=child_seed(MASTER_SEED, 9, i, j, 1)
                )
                assert res.completed + res.skipped == 1000
                worst_ratio = max(worst_ratio, res.max_trace_distance / math.sqrt(delta))
                cell_max_linear = max(cell_max_linear, res.max_trace_distance / delta)
        linear_trend[delta] = cell_max_linear
    trend = ", ".join(f"delta={d:g}: max T/delta {v:.2f}" for d, v in linear_trend.items())
    print(f"    gentle-measurement linear-ratio trend (reported, no pass/fail): {trend}")
    ok = worst_ratio <= 3.0
    report(
        9,
        "projected state stays within 3*sqrt(delta) of the input in trace distance",
        ok,
        f"max T/sqrt(delta) {worst_ratio:.3f} over 12 cells x 1000 trials",
    )


def _strip_column_csv(path, column):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    idx = rows[0].index(column)
    return [row[:idx] + row[idx + 1 :] for row in rows]


def _strip_key_jsonl(path, key):
    out = []
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            rec.pop(key, None)
            out.append(json.dumps(rec))
    return out


def test_criterion_10_determinism(tmp_path):
    configs = [
        (
            dict(
                experiment=ExperimentKind.CHAIN_SWEEP,
                r_values=(1, 2),
                d_values=(2, 4),
                eps_values=(0.1, 0.05),
                trials=5,
                master_seed=MASTER_SEED,
            ),
            "csv",
        ),
        (
            dict(
                experiment=ExperimentKind.CHAIN_SWEEP,
                r_values=(2,),
                d_values=(3,),
                eps_values=(0.1,),
                trials=5,
                master_seed=MASTER_SEED,
            ),
            "jsonl",
        ),
        (
            dict(
                experiment=ExperimentKind.SCALING_PURE,
                d_values=(2,),
                n_values=(100, 1000),
                trials=5,
                master_seed=MASTER_SEED,
            ),
            "csv",
        ),
        (
            dict(
                experiment=ExperimentKind.GENTLE_MEASUREMENT,
                r_values=(1,),
                d_values=(4,),
                delta_values=(0.01,),
                trials=5,
                master_seed=MASTER_SEED,
            ),
            "csv",
        ),
        (
            dict(
                experiment=ExperimentKind.PROPOSITION_SEARCH,
                d_values=(2,),
                eps_values=(0.1,),
                trials=2,
                prop_batch=1000,
                master_seed=MASTER_SEED,
            ),
            "csv",
        ),
    ]
    all_ok = True
    for idx, (base, fmt) in enumerate(configs):
        paths = []
        for run in ("a", "b"):
            out = tmp_path / f"{idx}_{run}.{fmt}"
            run_experiment(ExperimentConfig(**base, out_path=str(out), out_format=fmt))
            paths.append(out)
        if fmt == "csv":
            same = _strip_column_csv(paths[0], "wall_time") == _strip_column_csv(
                paths[1], "wall_time"
            )
        else:
            same = _strip_key_jsonl(paths[0], "wall_time") == _strip_key_jsonl(
                paths[1], "wall_time"
            )
        all_ok = all_ok and same
    report(
        10,
        "re-running with the same master seed reproduces records byte-for-byte "
        "(wall-time fields excluded)",
        all_ok,
        f"{len(configs)} experiment configurations checked",
    )
