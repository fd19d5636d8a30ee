"""Pluggable state estimators: calibrated synthetic oracles and a concrete
measurement-based estimator.

The oracle estimators return a randomly perturbed copy of the true state
whose infidelity (or trace distance) is driven by bisection into a requested
window. They stand in for an estimation procedure with a known guarantee, so
downstream analysis can be checked at an exact error level. The
measurement-based estimators simulate single-copy measurements in randomized
orthonormal bases and reconstruct by linear inversion; they realize the
error-vs-budget scaling shape without optimal constants. Each dimension has
one fixed, seeded design whose frame-operator inverse is built once, on first
use; each estimate rotates that design by its own Haar unitary, so every
basis it measures in is Haar. A stack of estimates is one pass: one batched
QR draws the rotations, one multinomial call per trial its counts, and one
stacked product applies the cached inverse. The stack kernels take one
generator per trial and draw from it in program order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .measurement import _check_count, _check_integer
from .seeding import child_seed, rng_from_seed
from .states import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    _density_matrices,
    _from_eigensystems,
    _frozen,
    _groups,
    _haar_unitaries,
    _haar_unitary_stack,
    _phase_normalized,
    _pure_states,
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
_DESIGN_SEED = 0  # master seed of the candidate measurement designs
_DESIGN_CANDIDATES = 15  # seeded designs per dimension, of which the median one is used
_DESIGN_CONDITION = 1e6  # largest condition number accepted for a design's frame operator


class BackendKind(Enum):
    ORACLE_EXACT_INFIDELITY = "oracle_exact_infidelity"
    MEASUREMENT_LINEAR_INVERSION = "measurement_linear_inversion"


@dataclass(frozen=True)
class TomographyBackend:
    """Estimator selection plus its parameters.

    Oracle backends need a target infidelity in [1e-12, 1), 1e-12 being the
    oracles' resolution floor; measurement backends need a default shot
    budget, an integer of at least 1. That budget applies only to direct
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
            if self.shots is None:
                raise ValueError("measurement backend needs a shot budget of at least 1")
            _check_integer("shots", self.shots)
            if self.shots < 1:
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
        budget = shots if shots is not None else self.shots
        return self._estimate_mixed_stack([rho], rank, [rng_from_seed(seed)], budget)[0]

    def estimate_pure(self, psi: PureState, seed, shots: int | None = None) -> PureState:
        budget = shots if shots is not None else self.shots
        return self._estimate_pure_stack([psi], [rng_from_seed(seed)], [budget])[0]

    def _estimate_mixed_stack(
        self, rhos: list[DensityMatrix], rank: int, rngs, shots: int | None
    ) -> list[DensityMatrix]:
        """estimate_mixed on a stack of states on one C^d, one generator each:
        an oracle calibrates them in lockstep, and linear inversion solves them in stacks."""
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            eps = self.epsilon_target
            return _calibrated_estimates(rhos, rngs, _infidelities, eps / 2.0, eps)
        return _inverted_mixed_states(rhos, rank, [shots] * len(rhos), rngs)

    def _estimate_pure_stack(self, states: list[PureState], rngs, shots) -> list[PureState]:
        """estimate_pure on a stack of states of one shape; ``rngs`` holds
        each state's generator and ``shots`` its budget."""
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            amps = np.array([psi.amplitudes for psi in states])
            rows = _oracle_pure_rows(amps, self.epsilon_target, rngs)
            return _pure_states(rows, states[0].dims)
        return _inverted_pure_states(states, shots, rngs)


class _Family(NamedTuple):
    """Raw arrays of a stack of perturbation families sigma_t(theta) around rho_t.

    ``lam`` and ``q`` are the spectra (scaled to unit spectral norm) and
    eigenbases of the rotation generators, ``coords`` holds each rho's top-k
    eigenvectors in its generator's eigenbasis, and the eigenvalues follow
    the log-direction ``drift`` from ``base_log``.
    """

    lam: np.ndarray  # (T, d)
    q: np.ndarray  # (T, d, d) unitary
    coords: np.ndarray  # (T, d, k) isometry
    base_log: np.ndarray  # (T, k)
    drift: np.ndarray  # (T, k)

    def take(self, idx: np.ndarray) -> "_Family":
        return _Family(*(a[idx] for a in self))


def _perturbation_families(
    rho_w: np.ndarray, rho_v: np.ndarray, rngs: list[np.random.Generator]
) -> _Family:
    """One family sigma_t(theta) per state, with sigma_t(0) = rho_t and rank
    preserved, drawn from the state's own generator.

    rho_w (T, k) holds the states' top-k eigenvalues and rho_v (T, d, m) their
    eigenvectors, of which the first k are used. The eigenbasis is rotated by
    exp(i theta H) for a random Hermitian H of unit spectral norm, and the
    eigenvalues drift along a random log-direction (a softmax in theta, so no
    scale overflows), floored so the numerical rank never drops.
    """
    d, k = rho_v.shape[1], rho_w.shape[1]
    g = np.array([rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for rng in rngs])
    h = (g + g.conj().swapaxes(1, 2)) / 2.0
    lam, q = np.linalg.eigh(h)
    lam = lam / np.maximum(np.max(np.abs(lam), axis=1), 1e-30)[:, None]
    drift = np.array([rng.standard_normal(k) for rng in rngs])
    base_log = np.log(np.clip(rho_w, RANK_TOL, None))
    # a strided view of the eigenvectors, as one state's [:, :k] slice is:
    # BLAS rounds a contiguous copy differently at some d
    coords = q.conj().swapaxes(1, 2) @ rho_v[:, :, :k]
    return _Family(lam, q, coords, base_log, drift)


def _eigenvalues_at(family: _Family, thetas: np.ndarray) -> np.ndarray:
    """Eigenvalues of sigma_t(theta) for a (T, L) stack of thetas, shape (T, L, k)."""
    logits = family.base_log[:, None, :] + thetas[:, :, None] * family.drift[:, None, :]
    vals = np.exp(logits - logits.max(axis=2, keepdims=True))
    vals = np.maximum(vals, _EIGENVALUE_FLOOR * vals.max(axis=2, keepdims=True))
    return vals / vals.sum(axis=2, keepdims=True)


def _phased_coords(family: _Family, thetas: np.ndarray) -> np.ndarray:
    """Eigenvectors of sigma_t(theta) in the generator's eigenbasis, shape (T, L, d, k)."""
    phases = np.exp(1j * thetas[:, :, None] * family.lam[:, None, :])
    return phases[:, :, :, None] * family.coords[:, None]


def _infidelities(rho_w: np.ndarray, family: _Family, thetas: np.ndarray) -> np.ndarray:
    """1 - F(rho_t, sigma_t(theta)) for a (T, L) stack of thetas.

    With rho = U diag(w) U^H and sigma = V diag(v) V^H, the singular values of
    sqrt(rho) sqrt(sigma) are those of the k x k matrix
    diag(sqrt w) U^H V diag(sqrt v), and U^H V = coords^H diag(e^{i theta lam}) coords.
    """
    root_w = np.sqrt(np.clip(rho_w, 0.0, None))
    overlap = family.coords.conj().swapaxes(1, 2)[:, None] @ _phased_coords(family, thetas)
    root_v = np.sqrt(_eigenvalues_at(family, thetas))
    factor = root_w[:, None, :, None] * overlap * root_v[:, :, None, :]
    s = np.linalg.svd(factor, compute_uv=False)
    return 1.0 - np.minimum(1.0, np.sum(s, axis=2) ** 2)


def _trace_distances(rho_w: np.ndarray, family: _Family, thetas: np.ndarray) -> np.ndarray:
    """T(rho_t, sigma_t(theta)) for a (T, L) stack of thetas, both states taken
    in the generator's eigenbasis."""
    coords = family.coords
    rho_q = (coords * rho_w[:, None, :]) @ coords.conj().swapaxes(1, 2)
    phased = _phased_coords(family, thetas)
    eigs = _eigenvalues_at(family, thetas)
    sigma_q = (phased * eigs[:, :, None, :]) @ phased.conj().swapaxes(2, 3)
    w = np.linalg.eigvalsh(rho_q[:, None] - sigma_q)
    return np.clip(0.5 * np.sum(np.abs(w), axis=2), 0.0, 1.0)


def _bracket_and_bisect(
    discrepancies: Callable[[list, np.ndarray], np.ndarray], count: int, lo: float, hi: float
) -> np.ndarray:
    """Walk each of ``count`` trials up the geometric theta ladder until its
    discrepancy exceeds the window, then bisect into it.

    ``discrepancies(idx, thetas)`` evaluates the trials ``idx`` (sorted) at
    thetas of shape (len(idx), L), or (1, L) for rungs that all of them
    share. The trials climb in lockstep, a chunk of rungs per call, and
    bisect in lockstep, one midpoint per trial per call; each trial retires
    as it lands. Returns the landing theta per trial, NaN where the family
    never reaches the window (the caller redraws a fresh family)."""
    theta = np.empty(count)
    theta.fill(np.nan)
    climbing = list(range(count))
    brackets: dict[int, tuple[float, float]] = {}
    # repeated products, not powers: records depend on the exact rungs
    ladder = np.cumprod([max(lo, 1e-4)] + [_LADDER_RATIO] * (_LADDER_STEPS - 1))
    for start in range(0, _LADDER_STEPS, _LADDER_CHUNK):
        chunk = ladder[start : start + _LADDER_CHUNK]
        still = []
        for trial, row in zip(climbing, discrepancies(climbing, chunk[None]).tolist()):
            # the first rung that reaches the window; a NaN rung counts as below it
            i = next((i for i, val in enumerate(row) if val >= lo), None)
            if i is None:
                still.append(trial)
            elif row[i] <= hi:
                theta[trial] = chunk[i]
            else:
                brackets[trial] = (ladder[start + i - 1] if start + i else 0.0, chunk[i])
        climbing = still
        if not climbing:
            break
    bisecting = sorted(brackets)
    theta_lo = np.array([brackets[t][0] for t in bisecting])
    theta_hi = np.array([brackets[t][1] for t in bisecting])
    for _ in range(BISECTION_MAX_ITER):
        if not bisecting:
            return theta
        mid = 0.5 * (theta_lo + theta_hi)
        val = discrepancies(bisecting, mid[:, None])[:, 0]
        inside = (lo <= val) & (val <= hi)
        below = val < lo  # a NaN midpoint counts as above the window
        theta[np.array(bisecting)[inside]] = mid[inside]
        theta_lo = np.where(below, mid, theta_lo)[~inside]
        theta_hi = np.where(below, theta_hi, mid)[~inside]
        bisecting = [t for t, done in zip(bisecting, inside.tolist()) if not done]
    if bisecting:
        raise RuntimeError(
            f"calibration failed to land in [{lo:g}, {hi:g}] after {BISECTION_MAX_ITER} bisection steps"
        )
    return theta


def _eigensystems_at(family: _Family, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (T, k) and (T, d, k) of sigma_t(theta_t), one theta per family."""
    thetas = theta[:, None]
    return _eigenvalues_at(family, thetas)[:, 0], family.q @ _phased_coords(family, thetas)[:, 0]


def _calibrate(
    rho_w: np.ndarray,
    rho_v: np.ndarray,
    rngs: list[np.random.Generator],
    discrepancies: Callable[[np.ndarray, _Family, np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    families: int = _FAMILIES,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (T, k) and (T, d, k) of a calibrated estimate of each state.

    rho_w holds the states' top-k eigenvalues and rho_v their eigenvectors
    (T, d, m), m >= k. Each trial draws a perturbation family from its own
    generator and is bisected into [lo, hi]; the trials whose family never
    reaches the window draw their next family together, up to ``families``
    draws, so a trial's draws are the ones it makes alone."""
    family = _perturbation_families(rho_w, rho_v, rngs)

    def family_discrepancies(idx, thetas):
        if len(idx) == len(rngs):  # every trial: no copies
            return discrepancies(rho_w, family, thetas)
        return discrepancies(rho_w[idx], family.take(idx), thetas)

    theta = _bracket_and_bisect(family_discrepancies, len(rngs), lo, hi)
    missed = np.isnan(theta)
    if not missed.any():
        return _eigensystems_at(family, theta)
    if families == 1:
        raise RuntimeError(
            f"no perturbation of the state reached the target window [{lo:g}, {hi:g}] "
            f"after {_FAMILIES} attempts"
        )
    w = np.empty_like(rho_w)
    v = np.empty((*rho_v.shape[:2], rho_w.shape[1]), dtype=complex)
    landed = ~missed
    w[landed], v[landed] = _eigensystems_at(family.take(landed), theta[landed])
    redraw = [rng for rng, miss in zip(rngs, missed.tolist()) if miss]
    w[missed], v[missed] = _calibrate(
        rho_w[missed], rho_v[missed], redraw, discrepancies, lo, hi, families - 1
    )
    return w, v


def _calibrated_estimates(
    rhos: list[DensityMatrix], rngs, discrepancies, lo: float, hi: float
) -> list[DensityMatrix]:
    """Calibrated estimates of a stack of states, each drawn from its own
    generator, one stack per rank, each checked once."""
    out: list[DensityMatrix] = [None] * len(rhos)
    for idx in _groups([(rho.rank, rho.eigenvectors.shape) for rho in rhos]):
        k = rhos[idx[0]].rank
        rho_w = np.array([rhos[i].eigenvalues[:k] for i in idx])
        rho_v = np.array([rhos[i].eigenvectors for i in idx])
        w, v = _calibrate(rho_w, rho_v, [rngs[i] for i in idx], discrepancies, lo, hi)
        for i, sigma in zip(idx, _density_matrices(*_from_eigensystems(w, v))):
            out[i] = sigma
    return out


def _check_window(what: str, target: float) -> None:
    if not _RESOLUTION_FLOOR <= target < 1.0:
        raise ValueError(
            f"target {what} must be in [{_RESOLUTION_FLOOR:g}, 1), got {target!r}: a calibrated "
            "window narrower than that is not resolved in float64"
        )


def _shot_floor(dim: int) -> int:
    """d^2: linear inversion on C^dim resolves a Hermitian matrix of d^2 real parameters."""
    return dim * dim


def oracle_mixed_estimate(rho: DensityMatrix, epsilon: float, seed) -> DensityMatrix:
    """Estimate of rho with the same rank and fidelity in [1 - eps, 1 - eps/2].

    The window's lower edge is what stresses downstream bounds; exact equality
    with 1 - eps is measure zero under float arithmetic, so a window is used.
    eps must be at least the 1e-12 resolution floor.
    """
    _check_window("infidelity", epsilon)
    rng = rng_from_seed(seed)
    return _calibrated_estimates([rho], [rng], _infidelities, epsilon / 2.0, epsilon)[0]


def oracle_trace_distance_estimate(rho: DensityMatrix, delta: float, seed) -> DensityMatrix:
    """Same-rank estimate of rho with trace distance in [delta/2, delta], for
    delta at least the 1e-12 resolution floor."""
    _check_window("trace distance", delta)
    rng = rng_from_seed(seed)
    return _calibrated_estimates([rho], [rng], _trace_distances, delta / 2.0, delta)[0]


def oracle_pure_estimate(psi: PureState, epsilon: float, seed) -> PureState:
    """Pure estimate with |<phi|psi>|^2 in [1 - eps, 1 - eps/2].

    The state is rotated toward a random orthogonal unit vector by the angle
    whose cosine meets a target overlap drawn uniformly from the window.
    """
    rows = _oracle_pure_rows(psi.amplitudes[None], epsilon, [rng_from_seed(seed)])
    return PureState(rows[0], psi.dims)


def _oracle_pure_rows(amps: np.ndarray, epsilon: float, rngs) -> np.ndarray:
    """Phase-normalized, unchecked amplitude rows of the pure oracle's
    estimates of a (T, n) stack of states, each drawn from its own generator."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"target infidelity must be in (0, 1), got {epsilon!r}")
    total = amps.shape[1]
    if total < 2:
        raise ValueError("no orthogonal direction available in a one-dimensional space")
    rows = []
    for psi, rng in zip(amps, rngs):
        target = rng.uniform(1.0 - epsilon, 1.0 - epsilon / 2.0)
        raw = rng.standard_normal(total) + 1j * rng.standard_normal(total)
        chi = raw - np.vdot(psi, raw) * psi
        chi = chi / np.linalg.norm(chi)
        rows.append(math.sqrt(target) * psi + math.sqrt(1.0 - target) * chi)
    return _phase_normalized(np.array(rows))


def _measurement_design(dim: int, num_bases: int, rng: np.random.Generator) -> np.ndarray:
    """(num_bases, dim, dim) unitaries whose columns are the measurement
    vectors; the first is the standard basis, the rest are Haar random."""
    haar = _haar_unitaries(dim, num_bases - 1, rng)
    return np.concatenate([np.eye(dim, dtype=complex)[None], haar])


def _num_bases(dim: int) -> int:
    """Bases of the design on C^dim: ceil(3 ln d) * d, at least 6."""
    return max(6, int(math.ceil(3.0 * math.log(dim))) * dim)


def _split_budget(n: int, num_bases: int) -> np.ndarray:
    per = np.full(num_bases, n // num_bases, dtype=int)
    per[: n % num_bases] += 1
    return per


def _projector_rows(bases: np.ndarray) -> np.ndarray:
    """Rows vec(P^T), with row . vec(X) = tr(P X), for every column of every
    basis; broadcasting matches ``np.outer(u[:, j].conj(), u[:, j])`` bit for bit."""
    v = bases.swapaxes(1, 2)
    return (v.conj()[:, :, :, None] * v[:, :, None, :]).reshape(-1, v.shape[-1] ** 2)


class _Design(NamedTuple):
    """The bases with shots of the fixed design on C^d and the inverse of
    their frame operator."""

    vectors: np.ndarray  # (d, m*d): column i*d + j is column j of basis i
    frame_inverse: np.ndarray  # (d^2, d^2): S^-1 for S = A^H A, A the rows vec(P^T)


def _frame_operator(bases: np.ndarray) -> np.ndarray:
    """The frame operator S = A^H A of a stack of bases, A the rows vec(P^T)
    of their projectors."""
    a = _projector_rows(bases)
    return a.conj().T @ a


@functools.lru_cache(maxsize=64)
def _design_seed(dim: int) -> int:
    """The seed of the fixed design on C^dim: of _DESIGN_CANDIDATES seeded
    designs, the one with the median tr(S^-1), the factor by which its
    frame operator scales the inversion's squared error.

    A typical design keeps the error law of the independent random designs
    it stands for. Small designs spread widely: at d = 2 a design drawn from
    one fixed seed, ``child_seed(0, 2)``, lay at the 98th percentile of
    tr(S^-1) and doubled the mean infidelity. A singular candidate ranks last.
    """
    seeds = [child_seed(_DESIGN_SEED, dim, k) for k in range(_DESIGN_CANDIDATES)]
    spread = []
    for seed in seeds:
        bases = _measurement_design(dim, _num_bases(dim), rng_from_seed(seed))
        with np.errstate(divide="ignore"):
            spread.append(np.sum(1.0 / np.abs(np.linalg.eigvalsh(_frame_operator(bases)))))
    return seeds[int(np.argsort(spread, kind="stable")[_DESIGN_CANDIDATES // 2])]


@functools.lru_cache(maxsize=64)
def _design(dim: int, used: int) -> _Design:
    """The first ``used`` bases of the fixed design on C^dim (seeded by
    ``_design_seed``), with the inverse of their frame operator. A budget
    of n shots uses the first min(n, _num_bases(dim)), so a key holds one
    prefix of one design per dimension.

    Raises RuntimeError unless the frame operator's condition number is at
    most _DESIGN_CONDITION: the n >= d^2 floor leaves at least d + 1 bases
    with shots, and the standard basis plus d Haar bases are informationally
    complete with probability 1, so this fails only on a degenerate design.
    Every key at d <= 16 has a condition number of at most 37.
    """
    rng = rng_from_seed(_design_seed(dim))
    bases = _measurement_design(dim, _num_bases(dim), rng)[:used]
    w, v = np.linalg.eigh(_frame_operator(bases))
    if not w[0] * _DESIGN_CONDITION >= w[-1]:
        raise RuntimeError(
            f"the frame operator of {used} bases on C^{dim} is ill conditioned: "
            f"eigenvalues {w[0]:.3g} to {w[-1]:.3g}"
        )
    vectors = bases.transpose(1, 0, 2).reshape(dim, used * dim)
    return _Design(_frozen(vectors), _frozen((v / w) @ v.conj().T))  # shared by every caller


def _simulate_inversion(mats: np.ndarray, shots, rngs) -> np.ndarray:
    """Simulate shots[t] single-copy measurements of each state of a
    (T, d, d) stack and invert them, Hermitized.

    Trial t draws, from its generator rngs[t], first one Haar unitary U and
    then all its counts, in one multinomial call; it measures in the bases
    U B_i of the fixed design B on C^d (see ``_design``), its shots split
    evenly across them. Rotating the design conjugates its frame operator S by
    a unitary, so the least-squares solution of tr(U P_k U^H X) = f_k is
    x = U mat(S^-1 vec(sum_i B_i diag(f_i) B_i^H)) U^H: the estimator is
    unitarily covariant, and S^-1 is computed once per design. Each basis
    U B_i is Haar, though the bases of a trial are not independent. Trials
    whose budgets use the same number of bases share one stacked pass.
    """
    dim = mats.shape[1]
    for n in shots:
        _check_integer("shots", n)
        if n < _shot_floor(dim):
            raise ValueError(f"budget {n} is below the informational floor {_shot_floor(dim)}")
        _check_count("shots", n)
    num_bases = _num_bases(dim)
    u = _haar_unitary_stack(dim, rngs)
    rotated = u.conj().swapaxes(1, 2) @ mats @ u
    x = np.empty_like(rotated)
    keys = [min(n, num_bases) for n in shots]  # bases with shots: a prefix of the design
    for idx in _groups(keys):
        used = keys[idx[0]]
        design = _design(dim, used)
        g = design.vectors
        p = np.real(np.sum(g.conj() * (rotated[idx] @ g), axis=1)).reshape(len(idx), used, dim)
        freqs = np.empty_like(p)
        for row, t in enumerate(idx.tolist()):
            budgets = _split_budget(shots[t], num_bases)[:used]
            pt = np.clip(p[row], 0.0, None)
            pt = pt / pt.sum(axis=1, keepdims=True)
            counts = rngs[t].multinomial(budgets, pt)
            freqs[row] = counts / budgets[:, None]
        y = (g * freqs.reshape(len(idx), 1, used * dim)) @ g.conj().T
        solved = design.frame_inverse @ y.reshape(len(idx), dim * dim, 1)
        x[idx] = solved.reshape(len(idx), dim, dim)
    x = u @ x @ u.conj().swapaxes(1, 2)
    return (x + x.conj().swapaxes(1, 2)) / 2.0


def _inverted_pure_states(states: list[PureState], shots, rngs) -> list[PureState]:
    """Linear-inversion estimates of a stack of pure states of one shape:
    the top eigenvector of each inversion, checked as one stack."""
    amps = np.array([psi.amplitudes for psi in states])
    x = _simulate_inversion(amps[:, :, None] * amps[:, None, :].conj(), shots, rngs)
    _, v = np.linalg.eigh(x)
    return _pure_states(_phase_normalized(v[:, :, -1]), states[0].dims)


def _inverted_mixed_states(
    rhos: list[DensityMatrix], r: int, shots, rngs
) -> list[DensityMatrix]:
    """Rank-capped linear-inversion estimates of a stack of states on one
    C^d, checked as one stack."""
    dim = rhos[0].dim
    if not 1 <= r <= dim:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={dim}")
    x = _simulate_inversion(np.array([rho.matrix for rho in rhos]), shots, rngs)
    w, v = np.linalg.eigh(x)
    w = np.clip(w[:, ::-1][:, :r], 0.0, None)
    total = w.sum(axis=1, keepdims=True)
    if not (total > 0.0).all():  # pragma: no cover - requires adversarial shot data
        raise RuntimeError("all truncated eigenvalues vanished; cannot renormalize")
    return _density_matrices(*_from_eigensystems(w / total, v[:, :, ::-1][:, :, :r]))


def estimate_pure_state_from_measurements(psi_true: PureState, n: int, seed) -> PureState:
    """Reconstruct a pure state from n simulated single-copy measurements.

    The shots are split evenly across ceil(3 ln d) * d orthonormal bases (at
    least 6): the standard basis and Haar bases of one fixed design per
    dimension, all rotated by one Haar unitary that the seed's generator draws
    before the counts. Linear inversion through the design's cached frame
    operator recovers the empirical density matrix, and its top eigenvector is returned.
    """
    return _inverted_pure_states([psi_true], [n], [rng_from_seed(seed)])[0]


def estimate_mixed_state_from_measurements(
    rho_true: DensityMatrix, r: int, n: int, seed
) -> DensityMatrix:
    """Rank-capped linear-inversion estimate of a mixed state.

    The design and the frame-operator solve are those of
    :func:`estimate_pure_state_from_measurements`. The raw inversion is then
    projected to the physical set: negative eigenvalues are clamped to zero,
    and the spectrum is truncated to the top r eigenpairs and renormalized.
    """
    return _inverted_mixed_states([rho_true], r, [n], [rng_from_seed(seed)])[0]
