"""Pluggable state estimators: calibrated synthetic oracles and a concrete
measurement-based estimator.

The oracle estimators return a randomly perturbed copy of the true state
whose infidelity (or trace distance) is driven by bisection into a requested
window. They stand in for an estimation procedure with a known guarantee, so
downstream analysis can be checked at an exact error level. The
measurement-based estimators simulate single-copy measurements in randomized
orthonormal bases and reconstruct by linear inversion; they realize the
error-vs-budget scaling shape without optimal constants. A design is one
stacked pass: one batched QR draws its Haar bases, one multinomial call its
counts, and the solve diagonalises the d^2 x d^2 frame operator with ``eigh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .seeding import child_seed, rng_from_seed
from .states import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    _haar_unitaries,
)

__all__ = [
    "BISECTION_MAX_ITER",
    "BackendKind",
    "TomographyBackend",
    "oracle_mixed_estimate",
    "oracle_pure_estimate",
    "oracle_trace_distance_estimate",
    "estimate_pure_state_from_measurements",
    "estimate_mixed_state_from_measurements",
]

BISECTION_MAX_ITER = 200
_EIGENVALUE_FLOOR = 1e-7  # relative floor keeping perturbed eigenvalues above the rank tolerance
_FAMILIES = 8  # perturbation families drawn before calibration gives up
_LADDER_STEPS = 140  # rungs of the geometric theta ladder
_LADDER_RATIO = 1.35  # fine enough not to hop over oscillation peaks
_LADDER_CHUNK = 8  # ladder rungs evaluated per stacked call
_RESOLUTION_FLOOR = 1e-12  # narrowest window float64 resolves; at 1e-15 F landed 2 ulps from 1


class BackendKind(Enum):
    ORACLE_EXACT_INFIDELITY = "oracle_exact_infidelity"
    MEASUREMENT_LINEAR_INVERSION = "measurement_linear_inversion"


@dataclass(frozen=True)
class TomographyBackend:
    """Estimator selection plus its parameters.

    Oracle backends need a target infidelity in [1e-12, 1), 1e-12 being the
    oracles' resolution floor; measurement backends need a default shot
    budget of at least 1. That budget applies only to direct
    ``estimate_mixed`` and ``estimate_pure`` calls that pass no ``shots``:
    ``run_reduction`` always passes its own budgets, ``n_copies`` for the
    mixed-state stage and the kept copy count for the pure-state stage.
    """

    kind: BackendKind
    epsilon_target: float | None = None
    shots: int | None = None

    def __post_init__(self) -> None:
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            if self.epsilon_target is None:
                raise ValueError("oracle backend needs a target infidelity")
            _check_window("infidelity", self.epsilon_target)
        elif self.kind is BackendKind.MEASUREMENT_LINEAR_INVERSION:
            if self.shots is None or self.shots < 1:
                raise ValueError("measurement backend needs a shot budget of at least 1")
        else:  # pragma: no cover - enum covers all kinds
            raise ValueError(f"unknown backend kind {self.kind!r}")

    @classmethod
    def oracle(cls, epsilon_target: float) -> "TomographyBackend":
        return cls(kind=BackendKind.ORACLE_EXACT_INFIDELITY, epsilon_target=epsilon_target)

    @classmethod
    def linear_inversion(cls, shots: int) -> "TomographyBackend":
        return cls(kind=BackendKind.MEASUREMENT_LINEAR_INVERSION, shots=shots)

    def min_shots(self, dim: int) -> int:
        """Fewest shots to estimate a state on C^dim: 1 for an oracle, d^2 for inversion."""
        return 1 if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY else _shot_floor(dim)

    def estimate_mixed(
        self, rho: DensityMatrix, rank: int, seed, shots: int | None = None
    ) -> DensityMatrix:
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            return oracle_mixed_estimate(rho, self.epsilon_target, seed)
        budget = shots if shots is not None else self.shots
        return estimate_mixed_state_from_measurements(rho, rank, budget, seed)

    def estimate_pure(self, psi: PureState, seed, shots: int | None = None) -> PureState:
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            return oracle_pure_estimate(psi, self.epsilon_target, seed)
        budget = shots if shots is not None else self.shots
        return estimate_pure_state_from_measurements(psi, budget, seed)


class _Family(NamedTuple):
    """Raw arrays of one perturbation family sigma(theta) around rho.

    ``lam`` and ``q`` are the spectrum (scaled to unit spectral norm) and
    eigenbasis of the rotation generator, ``coords`` holds rho's top-k
    eigenvectors in that basis, and the eigenvalues follow the log-direction
    ``drift`` from ``base_log``.
    """

    lam: np.ndarray  # (d,)
    q: np.ndarray  # (d, d) unitary
    coords: np.ndarray  # (d, k) isometry
    base_log: np.ndarray  # (k,)
    drift: np.ndarray  # (k,)


def _perturbation_family(rho: DensityMatrix, rng: np.random.Generator) -> _Family:
    """One-parameter family sigma(theta) with sigma(0) = rho and rank preserved.

    The eigenbasis is rotated by exp(i theta H) for a random Hermitian H of
    unit spectral norm, and the eigenvalues drift along a random log-direction
    (a softmax in theta, so no scale overflows), floored so the numerical
    rank never drops.
    """
    k = rho.rank
    g = rng.standard_normal((rho.dim, rho.dim)) + 1j * rng.standard_normal((rho.dim, rho.dim))
    h = (g + g.conj().T) / 2.0
    lam, q = np.linalg.eigh(h)
    lam = lam / max(float(np.max(np.abs(lam))), 1e-30)
    drift = rng.standard_normal(k)
    base_log = np.log(np.clip(rho.eigenvalues[:k], RANK_TOL, None))
    coords = q.conj().T @ rho.eigenvectors[:, :k]
    return _Family(lam, q, coords, base_log, drift)


def _eigenvalues_at(family: _Family, thetas: np.ndarray) -> np.ndarray:
    """Eigenvalues of sigma(theta) for each theta, shape (L, k)."""
    logits = family.base_log + thetas[:, None] * family.drift
    vals = np.exp(logits - logits.max(axis=1, keepdims=True))
    vals = np.maximum(vals, _EIGENVALUE_FLOOR * vals.max(axis=1, keepdims=True))
    return vals / vals.sum(axis=1, keepdims=True)


def _phased_coords(family: _Family, thetas: np.ndarray) -> np.ndarray:
    """Eigenvectors of sigma(theta) in the generator's eigenbasis, shape (L, d, k)."""
    return np.exp(1j * thetas[:, None] * family.lam)[:, :, None] * family.coords


def _sigma_at(family: _Family, theta: float) -> DensityMatrix:
    """The validated state sigma(theta)."""
    thetas = np.array([theta])
    vecs = family.q @ _phased_coords(family, thetas)[0]
    return DensityMatrix.from_eigensystem(_eigenvalues_at(family, thetas)[0], vecs)


def _infidelities(rho: DensityMatrix, family: _Family, thetas: np.ndarray) -> np.ndarray:
    """1 - F(rho, sigma(theta)) for each theta.

    With rho = U diag(w) U^H and sigma = V diag(v) V^H, the singular values of
    sqrt(rho) sqrt(sigma) are those of the k x k matrix
    diag(sqrt w) U^H V diag(sqrt v), and U^H V = coords^H diag(e^{i theta lam}) coords.
    """
    coords = family.coords
    root_w = np.sqrt(np.clip(rho.eigenvalues[: coords.shape[1]], 0.0, None))
    overlap = coords.conj().T @ _phased_coords(family, thetas)
    factor = root_w[:, None] * overlap * np.sqrt(_eigenvalues_at(family, thetas))[:, None, :]
    s = np.linalg.svd(factor, compute_uv=False)
    return 1.0 - np.minimum(1.0, np.sum(s, axis=1) ** 2)


def _trace_distances(rho: DensityMatrix, family: _Family, thetas: np.ndarray) -> np.ndarray:
    """T(rho, sigma(theta)) for each theta, both states taken in the generator's eigenbasis."""
    coords = family.coords
    rho_q = (coords * rho.eigenvalues[: coords.shape[1]]) @ coords.conj().T
    phased = _phased_coords(family, thetas)
    sigma_q = (phased * _eigenvalues_at(family, thetas)[:, None, :]) @ phased.conj().swapaxes(1, 2)
    w = np.linalg.eigvalsh(rho_q - sigma_q)
    return np.clip(0.5 * np.sum(np.abs(w), axis=1), 0.0, 1.0)


def _bracket_and_bisect(
    discrepancies: Callable[[np.ndarray], np.ndarray], lo: float, hi: float
) -> float | None:
    """Walk theta up a geometric ladder until the discrepancy exceeds the
    window, then bisect into it. Returns the theta that lands in the window,
    or None when the family never reaches it (the caller redraws a fresh
    family). The ladder is evaluated a stack of rungs at a time."""
    theta_lo = 0.0
    theta = max(lo, 1e-4)
    for start in range(0, _LADDER_STEPS, _LADDER_CHUNK):
        rungs = []
        for _ in range(min(_LADDER_CHUNK, _LADDER_STEPS - start)):
            rungs.append(theta)
            # repeated products, not powers: records depend on the exact rungs
            theta *= _LADDER_RATIO
        vals = discrepancies(np.array(rungs))
        reached = np.flatnonzero(vals >= lo)  # a NaN rung counts as below the window
        if reached.size:
            i = int(reached[0])
            if vals[i] <= hi:
                return rungs[i]
            theta_hi = rungs[i]
            if i:
                theta_lo = rungs[i - 1]
            break
        theta_lo = rungs[-1]
    else:
        return None
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (theta_lo + theta_hi)
        val = discrepancies(np.array([mid]))[0]
        if lo <= val <= hi:
            return mid
        if val < lo:
            theta_lo = mid
        else:
            theta_hi = mid
    raise RuntimeError(
        f"calibration failed to land in [{lo:g}, {hi:g}] after {BISECTION_MAX_ITER} bisection steps"
    )


def _calibrate(
    rho: DensityMatrix,
    rng: np.random.Generator,
    discrepancies: Callable[[DensityMatrix, _Family, np.ndarray], np.ndarray],
    lo: float,
    hi: float,
) -> DensityMatrix:
    """Draw perturbation families until one can be bisected into [lo, hi],
    and build the estimate there."""
    for _ in range(_FAMILIES):
        family = _perturbation_family(rho, rng)
        theta = _bracket_and_bisect(lambda thetas: discrepancies(rho, family, thetas), lo, hi)
        if theta is not None:
            return _sigma_at(family, theta)
    raise RuntimeError(
        f"no perturbation of the state reached the target window [{lo:g}, {hi:g}] "
        f"after {_FAMILIES} attempts"
    )


def _check_window(what: str, target: float) -> None:
    if not _RESOLUTION_FLOOR <= target < 1.0:
        raise ValueError(
            f"target {what} must be in [{_RESOLUTION_FLOOR:g}, 1), got {target!r}: a calibrated "
            "window narrower than that is not resolved in float64"
        )


def _shot_floor(dim: int) -> int:
    """d^2: linear inversion on C^dim resolves a Hermitian matrix of d^2 real parameters."""
    return dim * dim


def _check_count(what: str, count: float) -> None:
    """Raise ValueError unless a shot or copy count fits in int64, the dtype it is drawn in."""
    if not count <= np.iinfo(np.int64).max:
        raise ValueError(f"{count:.3g} {what} exceed the int64 limit 2^63 - 1")


def oracle_mixed_estimate(rho: DensityMatrix, epsilon: float, seed) -> DensityMatrix:
    """Estimate of rho with the same rank and fidelity in [1 - eps, 1 - eps/2].

    The window's lower edge is what stresses downstream bounds; exact equality
    with 1 - eps is measure zero under float arithmetic, so a window is used.
    eps must be at least the 1e-12 resolution floor.
    """
    _check_window("infidelity", epsilon)
    rng = rng_from_seed(seed)
    return _calibrate(rho, rng, _infidelities, epsilon / 2.0, epsilon)


def oracle_trace_distance_estimate(rho: DensityMatrix, delta: float, seed) -> DensityMatrix:
    """Same-rank estimate of rho with trace distance in [delta/2, delta], for
    delta at least the 1e-12 resolution floor."""
    _check_window("trace distance", delta)
    rng = rng_from_seed(seed)
    return _calibrate(rho, rng, _trace_distances, delta / 2.0, delta)


def oracle_pure_estimate(psi: PureState, epsilon: float, seed) -> PureState:
    """Pure estimate with |<phi|psi>|^2 in [1 - eps, 1 - eps/2].

    The state is rotated toward a random orthogonal unit vector by the angle
    whose cosine meets a target overlap drawn uniformly from the window.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"target infidelity must be in (0, 1), got {epsilon!r}")
    total = psi.total_dim
    rng = rng_from_seed(seed)
    if total < 2:
        raise ValueError("no orthogonal direction available in a one-dimensional space")

    target = rng.uniform(1.0 - epsilon, 1.0 - epsilon / 2.0)
    raw = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    chi = raw - np.vdot(psi.amplitudes, raw) * psi.amplitudes
    chi = chi / np.linalg.norm(chi)
    phi = math.sqrt(target) * psi.amplitudes + math.sqrt(1.0 - target) * chi
    return PureState(phi, psi.dims).phase_normalized()


def _measurement_design(dim: int, num_bases: int, rng: np.random.Generator) -> np.ndarray:
    """(num_bases, dim, dim) unitaries whose columns are the measurement
    vectors; the first is the standard basis, the rest are Haar random."""
    haar = _haar_unitaries(dim, num_bases - 1, rng)
    return np.concatenate([np.eye(dim, dtype=complex)[None], haar])


def _split_budget(n: int, num_bases: int) -> np.ndarray:
    per = np.full(num_bases, n // num_bases, dtype=int)
    per[: n % num_bases] += 1
    return per


def _projector_rows(bases: np.ndarray) -> np.ndarray:
    """Rows vec(P^T), with row . vec(X) = tr(P X), for every column of every
    basis; broadcasting matches ``np.outer(u[:, j].conj(), u[:, j])`` bit for bit."""
    v = bases.swapaxes(1, 2)
    return (v.conj()[:, :, :, None] * v[:, :, None, :]).reshape(-1, v.shape[-1] ** 2)


def _simulate_inversion(
    probabilities: Callable[[np.ndarray], np.ndarray], dim: int, n: int, seed
) -> np.ndarray:
    """Simulate n shots of a random design and invert them, Hermitized.

    ``probabilities`` maps an (m, d, d) stack of bases to (m, d) outcome
    probabilities. tr(P_k X) = f_k is solved through the frame operator
    S = A^H A, positive definite on every design built here: the n >= d^2
    floor leaves at least d + 1 bases with shots, and the standard basis plus
    d Haar bases are informationally complete with probability 1.
    """
    if n < _shot_floor(dim):
        raise ValueError(f"budget {n} is below the informational floor {_shot_floor(dim)}")
    _check_count("shots", n)
    num_bases = max(6, int(math.ceil(3.0 * math.log(dim))) * dim)
    budgets = _split_budget(n, num_bases)
    used = budgets > 0
    bases = _measurement_design(dim, num_bases, rng_from_seed(child_seed(seed, 0)))[used]
    budgets = budgets[used]
    p = np.clip(probabilities(bases), 0.0, None)
    p = p / p.sum(axis=1, keepdims=True)
    counts = rng_from_seed(child_seed(seed, 1)).multinomial(budgets, p)
    freqs = (counts / budgets[:, None]).reshape(-1)
    a = _projector_rows(bases)
    a_h = a.conj().T
    w, v = np.linalg.eigh(a_h @ a)
    x = (v @ ((v.conj().T @ (a_h @ freqs)) / w)).reshape(dim, dim)
    return (x + x.conj().T) / 2.0


def estimate_pure_state_from_measurements(psi_true: PureState, n: int, seed) -> PureState:
    """Reconstruct a pure state from n simulated single-copy measurements.

    Shots are split evenly across ceil(3 ln d) * d orthonormal bases (at
    least 6: the standard basis and a stacked batch of Haar bases), linear
    inversion through the design's frame operator recovers the empirical
    density matrix, and its top eigenvector is returned.
    """
    amps = psi_true.amplitudes
    x = _simulate_inversion(
        lambda u: np.abs(u.conj().swapaxes(1, 2) @ amps) ** 2, amps.size, n, seed
    )
    _, v = np.linalg.eigh(x)
    top = v[:, -1]
    return PureState(top / np.linalg.norm(top), psi_true.dims).phase_normalized()


def estimate_mixed_state_from_measurements(
    rho_true: DensityMatrix, r: int, n: int, seed
) -> DensityMatrix:
    """Rank-capped linear-inversion estimate of a mixed state.

    The design and the frame-operator solve are those of
    :func:`estimate_pure_state_from_measurements`. The raw inversion is then
    projected to the physical set: negative eigenvalues are clamped to zero,
    and the spectrum is truncated to the top r eigenpairs and renormalized.
    """
    dim = rho_true.dim
    if not 1 <= r <= dim:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={dim}")
    mat = rho_true.matrix
    x = _simulate_inversion(lambda u: np.real(np.sum(u.conj() * (mat @ u), axis=1)), dim, n, seed)
    w, v = np.linalg.eigh(x)
    w = np.clip(w[::-1], 0.0, None)
    v = v[:, ::-1]
    w = w[:r]
    v = v[:, :r]
    total = w.sum()
    if total <= 0.0:  # pragma: no cover - requires adversarial shot data
        raise RuntimeError("all truncated eigenvalues vanished; cannot renormalize")
    return DensityMatrix.from_eigensystem(w / total, v)
