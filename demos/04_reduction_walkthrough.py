#!/usr/bin/env python3
"""One fully annotated run of the reduction protocol, stage by stage,
ending with the verified inequality chain.
"""

import math

from tomoreduce import ReductionConfig, random_pure_state, run_reduction, verify_chain

R, D, EPS = 2, 6, 0.05

psi = random_pure_state(R, D, seed=2001)
config = ReductionConfig(r=R, d=D, n_copies=5000, epsilon=EPS, seed=2002)

print(f"input: bipartite pure state on ({R}, {D}), target infidelity eps = {EPS}")
print(f"extra copies for the projection stage: ceil(4 * r^2 / eps) = {config.extra_copies}")
print()

report = run_reduction(psi, config)

print("stage 1-2: reduce to the Y register and estimate the mixed state")
print(f"  F(rho, sigma) = {report.fidelity_mixed_estimate:.6f} "
      f"(oracle window [{1 - EPS}, {1 - EPS / 2}])")
print("stage 3-4: project onto the estimate's support")
print(f"  projector rank = {report.projector_rank}")
print(f"  keep probability = {report.keep_probability:.6f}")
print(f"  kept {report.kept_count} of {report.extra_copies} extra copies")
print(f"  |<psi_tilde|psi>|^2 = {report.projected_fidelity:.6f} "
      f"(equals the keep probability)")
print("stage 5: pure-state estimation inside the surviving subspace")
print(f"  |<phi|psi_tilde>|^2 = {report.estimate_fidelity:.6f}")
print()
print(f"final: |<phi|psi>|^2 = {report.final_fidelity:.6f} >= "
      f"1 - 16*eps = {1 - 16 * EPS:.2f}")
print(f"samples consumed: {report.samples_total} = {config.n_copies} + {report.extra_copies}")
print()

print("inequality chain:")
for check in report.chain:
    status = "ok " if check.satisfied else "VIOLATED"
    extra = " (advisory)" if check.advisory else ""
    applicable = "" if check.applicable else " [not applicable]"
    print(f"  {status} {check.name}: value {check.value:.6f} vs bound "
          f"{check.bound:.6f}{extra}{applicable}")

print()
print("standalone verification on the same (psi, sigma, phi):")
chain = verify_chain(psi, report.sigma, report.estimate, epsilon=EPS)
print(f"  Uhlmann overlap {chain.uhlmann_overlap:.6f} matches "
      f"F(rho, sigma) {chain.fidelity_mixed_estimate:.6f}")
print(f"  violations: {chain.violations}")

print()
print("geometric composition of the two stages (overlap moduli):")
a = math.sqrt(report.projected_fidelity)  # |<psi_tilde|psi>|
b = math.sqrt(report.estimate_fidelity)  # |<phi|psi_tilde>|
c = math.sqrt(report.final_fidelity)  # |<phi|psi>|
print(f"  a = {a:.6f}, b = {b:.6f} -> c = {c:.6f} >= 1 - 4*eps = {1 - 4 * EPS:.4f}: "
      f"{c >= 1 - 4 * EPS}")
