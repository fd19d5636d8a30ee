"""Correctness checks on the record files a workload's sweeps wrote.

The checks test properties the method must have, not copies of earlier
output: the oracle window, keep >= F, the projection identity, the final
1 - 16 eps bound where it applies, the copy accounting, binomial statistics of
the kept copies, the composition bound, the gentle-measurement bound and the
scaling slope. ``recompute`` checks ``run_reduction`` against raw numpy.

Each check returns the set of (cell, trial) keys whose output it rejects,
with a message per rejection.
"""

from __future__ import annotations

import csv
import math
from collections import defaultdict
from pathlib import Path
from typing import Any

import numpy as np

from workloads import Sweep

SLACK = 1e-9  # the program's CHAIN_SLACK: rounding, not a violation
WINDOW_SLACK = 1e-12  # float slack on the oracle's calibration window
BINOMIAL_ALPHA = 1e-9  # false-alarm probability of the per-cell kept-copies test
SLOPE_RANGE = (-1.3, -0.7)  # log-log slope of median infidelity against budget
RECOMPUTE_TOL = 1e-9  # agreement of run_reduction with the raw numpy recomputation
RANK_TOL = 1e-10  # eigenvalues above this count toward the support of sigma


def _value(text: str) -> Any:
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def load_records(path: Path) -> list[dict[str, Any]]:
    with open(path, newline="") as f:
        return [{k: _value(v) for k, v in row.items()} for row in csv.DictReader(f)]


class Rejections:
    def __init__(self) -> None:
        self.keys: set[tuple[int, int]] = set()
        self.messages: list[str] = []

    def reject(self, keys, message: str) -> None:
        self.keys.update(keys)
        self.messages.append(message)


def _key(rec) -> tuple[int, int]:
    return rec["cell"], rec["trial"]


def check_records(sweep: Sweep, records: list[dict[str, Any]]) -> Rejections:
    out = Rejections()
    cells = sweep.cells()
    by_cell: dict[int, list[dict]] = defaultdict(list)
    for rec in records:
        cell = cells[rec["cell"]] if 0 <= rec["cell"] < len(cells) else None
        if cell is None or any(rec[k] != v for k, v in cell.items()):
            out.reject([_key(rec)], f"{sweep.command}: record {_key(rec)} is not grid cell {cell}")
            continue
        by_cell[rec["cell"]].append(rec)
    for index, cell in enumerate(cells):
        found = {rec["trial"] for rec in by_cell[index]}
        missing = set(range(sweep.trials)) - found
        if missing or len(by_cell[index]) != sweep.trials:
            keys = [(index, t) for t in range(sweep.trials)]
            out.reject(keys, f"{sweep.command}: cell {cell} has trials {sorted(found)}, want {sweep.trials}")
    checker = {
        "chain-sweep": _check_chain,
        "gentle": _check_gentle,
        "prop-search": _check_prop_search,
        "scale-pure": _check_scaling,
        "scale-mixed": _check_scaling,
    }[sweep.command]
    checker(sweep, by_cell, out)
    return out


def _check_chain(sweep: Sweep, by_cell, out: Rejections) -> None:
    grid = sweep.grid
    oracle = grid["backend"] == "oracle"
    for recs in by_cell.values():
        for rec in recs:
            problems = _chain_trial_problems(rec, oracle, grid["n_copies"], grid["c_extra"])
            if problems:
                out.reject([_key(rec)], f"chain trial {_key(rec)} r={rec['r']} d={rec['d']} "
                           f"eps={rec['epsilon']}: " + "; ".join(problems))
        # Kept copies are Binomial(extra_copies, keep) per trial, independent
        # across trials, so the cell total is a sum of independent Bernoulli
        # draws with known mean and variance. Bernstein's inequality bounds its
        # deviation with false-alarm probability BINOMIAL_ALPHA: about 6.5
        # standard deviations when the variance is large, plus a few copies
        # when keep is so close to 1 that a single lost copy is many sd.
        ok = [r for r in recs if not r["error"]]
        kept = sum(r["kept_count"] for r in ok)
        mean = sum(r["extra_copies"] * r["keep_probability"] for r in ok)
        var = sum(r["extra_copies"] * r["keep_probability"] * (1 - r["keep_probability"]) for r in ok)
        t = math.log(2 / BINOMIAL_ALPHA)
        allowed = t / 3 + math.sqrt(t * t / 9 + 2 * var * t)
        if abs(kept - mean) > allowed:
            out.reject(
                [_key(r) for r in recs],
                f"chain cell {recs[0]['cell']}: kept total {kept} vs binomial mean {mean:.1f} "
                f"(sd {math.sqrt(var):.2f}) deviates by more than {allowed:.1f}",
            )


def _chain_trial_problems(rec, oracle: bool, n_copies: int, c_extra: float) -> list[str]:
    if rec["error"]:
        return [f"error {rec['error']!r}"]
    eps, r = rec["epsilon"], rec["r"]
    f, keep = rec["fidelity_mixed_estimate"], rec["keep_probability"]
    projected, estimate, final = rec["projected_fidelity"], rec["estimate_fidelity"], rec["final_fidelity"]
    extra, kept = rec["extra_copies"], rec["kept_count"]
    problems = []
    if oracle and not (1 - eps - WINDOW_SLACK <= f <= 1 - eps / 2 + WINDOW_SLACK):
        problems.append(f"F={f!r} outside the oracle window")
    if keep < f - SLACK:
        problems.append(f"keep={keep!r} < F={f!r}")
    if abs(projected - keep) > SLACK:
        problems.append(f"projected={projected!r} != keep={keep!r}")
    if extra != math.ceil(c_extra * r**2 / eps) or rec["samples_total"] != n_copies + extra:
        problems.append(f"copy accounting extra={extra} samples_total={rec['samples_total']}")
    if not 0 <= kept <= extra:
        problems.append(f"kept_count={kept} outside [0, {extra}]")
    # The 1 - 16 eps bound is guaranteed only when both stages hit 1 - eps.
    applies = (
        estimate is not None
        and f >= 1 - eps - WINDOW_SLACK
        and estimate >= 1 - eps - WINDOW_SLACK
    )
    if applies and (final < 1 - 16 * eps - SLACK or rec["final_vs_guaranteed_ok"] is not True):
        problems.append(f"final={final!r} below 1 - 16 eps")
    if rec["violations"] != 0:
        problems.append(f"{rec['violations']} violation(s) reported")
    return problems


def _check_gentle(sweep: Sweep, by_cell, out: Rejections) -> None:
    for recs in by_cell.values():
        for rec in recs:
            t = rec["trace_distance"]
            if rec["skipped"] is not (t is None) or (t is not None and t > 3 * math.sqrt(rec["delta"]) + SLACK):
                out.reject([_key(rec)], f"gentle trial {_key(rec)}: T={t!r} skipped={rec['skipped']} "
                           "(want T <= 3 sqrt(delta), and no T when skipped)")
        completed = sum(1 for r in recs if r["skipped"] is False)
        skipped = sum(1 for r in recs if r["skipped"] is True)
        if completed + skipped != sweep.trials:
            out.reject([_key(r) for r in recs], f"gentle cell {recs[0]['cell']}: "
                       f"{completed} completed + {skipped} skipped != {sweep.trials}")


def _check_prop_search(sweep: Sweep, by_cell, out: Rejections) -> None:
    batch = sweep.grid["batch"]
    for recs in by_cell.values():
        for rec in recs:
            if rec["violations"] != 0 or rec["min_slack"] < -SLACK or rec["checked"] != batch:
                out.reject([_key(rec)], f"prop-search trial {_key(rec)}: violations={rec['violations']} "
                           f"min_slack={rec['min_slack']!r} checked={rec['checked']}")
        if sum(r["checked"] for r in recs) != batch * sweep.trials:
            out.reject([_key(r) for r in recs], f"prop-search cell {recs[0]['cell']}: checked total wrong")


def _check_scaling(sweep: Sweep, by_cell, out: Rejections) -> None:
    groups: dict[tuple, list[dict]] = defaultdict(list)
    for recs in by_cell.values():
        for rec in recs:
            if not 0.0 <= rec["infidelity"] <= 1.0 or abs(rec["fidelity"] + rec["infidelity"] - 1) > SLACK:
                out.reject([_key(rec)], f"{sweep.command} trial {_key(rec)}: infidelity {rec['infidelity']!r}")
            groups[(rec.get("r"), rec["d"])].append(rec)
    for dims, recs in groups.items():
        budgets = sorted({r["n"] for r in recs})
        medians = [np.median([r["infidelity"] for r in recs if r["n"] == n]) for n in budgets]
        slope = np.polyfit(np.log(budgets), np.log(medians), 1)[0]
        if not SLOPE_RANGE[0] <= slope <= SLOPE_RANGE[1]:
            out.reject([_key(r) for r in recs], f"{sweep.command} {dims}: slope {slope:.3f} "
                       f"outside {SLOPE_RANGE}")


def recompute(sweep: Sweep, seed: int, samples: int) -> list[str]:
    """Run ``run_reduction`` on inputs drawn here and recompute F(rho, sigma),
    the keep probability and the final overlap in raw numpy.

    F uses Uhlmann's theorem on factors: with rho = A A^H (A the transposed
    coefficient matrix of psi) and sigma = B B^H, F = ||A^H B||_1^2. The
    program instead takes the nuclear norm of sqrt(rho) sqrt(sigma), so the
    two computations share no code.
    """
    from tomoreduce import PureState, ReductionConfig, TomographyBackend, run_reduction

    grid = sweep.grid
    rng = np.random.default_rng([seed, 0xBE7C])
    cells = sweep.cells()
    problems = []
    for _ in range(samples):
        cell = cells[int(rng.integers(len(cells)))]
        r, d, eps = cell["r"], cell["d"], cell["epsilon"]
        amps = rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
        amps /= np.linalg.norm(amps)
        if grid["backend"] == "oracle":
            backend = TomographyBackend.oracle(eps)
        else:
            backend = TomographyBackend.linear_inversion(grid["n_copies"])
        config = ReductionConfig(
            r=r, d=d, n_copies=grid["n_copies"], epsilon=eps, extra_copy_factor=grid["c_extra"],
            mixed_backend=backend, pure_backend=backend, seed=int(rng.integers(2**62)),
        )
        report = run_reduction(PureState(amps.reshape(-1), (r, d)), config)

        w, v = np.linalg.eigh(np.array(report.sigma.matrix))
        w, v = w[::-1], v[:, ::-1]
        support = int(np.count_nonzero(w > RANK_TOL))
        f = np.linalg.svd(amps.conj() @ (v[:, :support] * np.sqrt(w[:support])), compute_uv=False).sum() ** 2
        basis = v[:, : report.projector_rank]
        keep = np.linalg.norm(amps @ (basis @ basis.conj().T).T) ** 2
        label = f"recompute r={r} d={d} eps={eps}"
        if report.projector_rank != min(support, r):
            problems.append(f"{label}: projector rank {report.projector_rank}, sigma support {support}")
        if abs(f - report.fidelity_mixed_estimate) > RECOMPUTE_TOL:
            problems.append(f"{label}: F {report.fidelity_mixed_estimate!r} vs numpy {f!r}")
        if abs(keep - report.keep_probability) > RECOMPUTE_TOL:
            problems.append(f"{label}: keep {report.keep_probability!r} vs numpy {keep!r}")
        if report.estimate is not None:
            final = abs(np.vdot(np.asarray(report.estimate.amplitudes), amps.reshape(-1))) ** 2
            if abs(final - report.final_fidelity) > RECOMPUTE_TOL:
                problems.append(f"{label}: final {report.final_fidelity!r} vs numpy {final!r}")
    return problems
