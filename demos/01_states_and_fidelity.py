#!/usr/bin/env python3
"""Tour of the state primitives: random states, partial trace, Schmidt
decomposition, fidelity, trace distance, and the Fuchs-van de Graaf sandwich.
"""

import numpy as np

from tomoreduce import (
    PureState,
    child_seed,
    fidelity_mixed,
    fidelity_pure_pure,
    partial_trace_x,
    purify,
    random_pure_state,
    random_rank_r_state,
    schmidt_decompose,
    trace_distance,
)

print("=== Bipartite pure states and the partial trace ===")
psi = random_pure_state(2, 3, seed=7)
print(f"|psi> lives on registers X (dim {psi.r}) and Y (dim {psi.d})")

rho = partial_trace_x(psi)
print(f"reduced state on Y: trace {np.real(np.trace(rho.matrix)):.6f}, rank {rho.rank}")

sd = schmidt_decompose(psi)
print(f"Schmidt coefficients: {np.round(sd.coefficients, 6)}")
print(f"squared coefficients vs reduced-state eigenvalues:")
print(f"  {np.round(sd.coefficients**2, 6)}")
print(f"  {np.round(rho.eigenvalues[: sd.k], 6)}")

print()
print("=== A Bell state is maximally entangled ===")
bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
print(f"Schmidt coefficients: {np.round(schmidt_decompose(bell).coefficients, 6)}")
print(f"reduced state:\n{np.round(partial_trace_x(bell).matrix.real, 3)}")

print()
print("=== Purification round trip ===")
sigma = random_rank_r_state(4, 2, seed=11)
recovered = partial_trace_x(purify(sigma, purifier_dim=2))
print(f"max |recovered - sigma| = {np.max(np.abs(recovered.matrix - sigma.matrix)):.2e}")

print()
print("=== Fidelity and trace distance ===")
a = random_rank_r_state(3, 2, seed=21)
b = random_rank_r_state(3, 3, seed=22)
f = fidelity_mixed(a, b)
t = trace_distance(a, b)
print(f"F(a, b) = {f:.6f}   T(a, b) = {t:.6f}")
print(f"Fuchs-van de Graaf: 1 - sqrt(F) = {1 - np.sqrt(f):.6f} <= T <= "
      f"sqrt(1 - F) = {np.sqrt(1 - f):.6f}")

print()
print("checking the sandwich on 200 random pairs...")
worst = np.inf
for k in range(200):
    rng = np.random.default_rng(child_seed(100, k))
    d = int(rng.integers(2, 6))
    x = random_rank_r_state(d, int(rng.integers(1, d + 1)), child_seed(101, k))
    y = random_rank_r_state(d, int(rng.integers(1, d + 1)), child_seed(102, k))
    ff, tt = fidelity_mixed(x, y), trace_distance(x, y)
    worst = min(worst, tt - (1 - np.sqrt(ff)), np.sqrt(1 - ff) - tt)
print(f"minimum slack over both sides: {worst:.2e} (never meaningfully negative)")

print()
print("pure-state fidelity is just the squared overlap:")
u = random_pure_state(1, 4, seed=31)
v = random_pure_state(1, 4, seed=32)
print(f"|<v|u>|^2 = {fidelity_pure_pure(u, v):.6f} = "
      f"F of the rank-1 density matrices = "
      f"{fidelity_mixed(u.to_density_matrix(), v.to_density_matrix()):.6f}")
