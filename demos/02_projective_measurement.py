#!/usr/bin/env python3
"""The two-outcome measurement {P, I - P} on the Y register: keep
probability, post-measurement state, and i.i.d. shot statistics. Shot
sampling returns only the number of kept copies, counted in bounded memory.
"""

import numpy as np

from tomoreduce import (
    Projector,
    fidelity_pure_pure,
    outcome_probability,
    project_and_renormalize,
    random_pure_state,
    sample_shots,
    schmidt_decompose,
    support_projector,
    partial_trace_x,
)

psi = random_pure_state(2, 4, seed=5)
rho = partial_trace_x(psi)

print("=== Projecting onto the Y-register support of the state itself ===")
pi_full = support_projector(rho, rank_cap=2)
p = outcome_probability(psi, pi_full)
print(f"keep probability with a projector covering the support: {p:.12f}")

print()
print("=== Projecting onto a single Schmidt direction ===")
sd = schmidt_decompose(psi)
pi_one = Projector(sd.right_vectors[:, :1])
p1 = outcome_probability(psi, pi_one)
print(f"keep probability: {p1:.6f} (the leading squared Schmidt coefficient "
      f"is {sd.coefficients[0]**2:.6f})")

psi_tilde = project_and_renormalize(psi, pi_one)
print(f"post-measurement overlap |<psi_tilde|psi>|^2 = "
      f"{fidelity_pure_pure(psi_tilde, psi):.6f}")
print("note: the overlap equals the keep probability exactly; that identity")
print("is what makes the projection step of the reduction analyzable.")

print()
print("=== Shot statistics ===")
shots = 100_000
kept = sample_shots(psi, pi_one, shots, seed=99)
freq = kept / shots
sigma = np.sqrt(p1 * (1 - p1) / shots)
print(f"{shots} shots: kept {kept} (frequency {freq:.5f}, "
      f"analytic {p1:.5f}, deviation {abs(freq - p1) / sigma:.2f} sigma)")

kept_again = sample_shots(psi, pi_one, shots, seed=99)
print(f"same seed, same count: {kept_again == kept}")
