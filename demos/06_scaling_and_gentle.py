#!/usr/bin/env python3
"""Two experiments: the error-vs-budget scaling of the pure-state estimator,
and how far support projection moves a state when the support comes from a
trace-distance-delta estimate.
"""

import math

from tomoreduce import (
    ExperimentConfig,
    ExperimentKind,
    fit_scaling,
    gentle_measurement_experiment,
    random_pure_state,
    run_experiment,
)

print("=== Scaling of the measurement-based pure estimator (d = 4) ===")
config = ExperimentConfig(
    experiment=ExperimentKind.SCALING_PURE,
    d_values=(4,),
    n_values=(10_000, 100_000, 1_000_000),
    trials=20,
    master_seed=404,
)
summary = run_experiment(config)
fit = fit_scaling(summary.records)
for n, med in zip(fit.budgets, fit.medians):
    print(f"  n = {n:>9,}   median infidelity = {med:.3e}")
print(f"log-log slope: {fit.slope:+.3f} (a 1/n law gives -1)")
print()

print("=== Support projection disturbance vs estimate quality ===")
print("sigma is held at trace distance [delta/2, delta] from the reduced state;")
print("T is the trace distance the projection moves the input state.")
print()
print(f"{'delta':>8} {'max T':>10} {'max T/sqrt(delta)':>18} {'max T/delta':>12}")
psi = random_pure_state(2, 6, seed=500)
for delta in (0.1, 0.01, 0.001):
    res = gentle_measurement_experiment(psi, delta, trials=300, seed=501)
    t_max = res.max_trace_distance
    print(f"{delta:>8} {t_max:>10.5f} {t_max / math.sqrt(delta):>18.4f} "
          f"{t_max / delta:>12.3f}")
print()
print("the sqrt(delta) ratio shrinks as delta does while the linear ratio")
print("stays flat: on random instances the disturbance tracks delta itself,")
print("well inside the sqrt(delta) guarantee. The worst case is not linear:")
print("rho = diag(1 - delta, delta, 0) and sigma = diag(1 - delta, 0, delta)")
print("give T = sqrt(delta) exactly, so T/delta = 3.16, 10.0 and 31.6 at")
print("delta = 0.1, 0.01 and 0.001. The random family does not reach that case.")
