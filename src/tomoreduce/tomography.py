"""Pluggable state estimators: closed-form synthetic oracles and a concrete
measurement-based estimator.

The oracle estimators return a random estimate of the true state whose
infidelity (or trace distance) lies in a requested window. They stand in for
an estimation procedure with a known guarantee, so downstream analysis can be
checked at an exact error level. Each draws its target uniformly from the
window, shrunk by a stated rounding bound, and builds the estimate in closed
form, in one pass per stack with no search: the infidelity oracle rotates
rho's rank-k factor by one angle, F = cos^2 t by Uhlmann's theorem
(``_infidelity_estimates``), and the trace-distance oracle rotates rho's top
eigenvectors into its kernel (``_trace_estimates``). Each states its reach,
and one exact recheck per stack (``states._fidelities`` or
``_half_trace_norms``) places every estimate in its window. The
measurement-based estimators simulate single-copy measurements in randomized
orthonormal bases and reconstruct by linear inversion; they realize the
error-vs-budget scaling shape without optimal constants. Each dimension has
one fixed, seeded design whose frame-operator inverse is built once, on first
use; each estimate rotates that design by its own Haar unitary, so every
basis it measures in is Haar. A stack of estimates is one pass: one batched
QR draws the rotations, one multinomial call per trial its counts, and one
stacked product applies the cached inverse. The stack kernels take one
generator per trial, draw from it in program order, and check no input:
each public entry checks its inputs once. They loop over trials only to draw,
and take norms and overlaps with ``states._row_norms`` and ``_row_vdots``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .measurement import _check_count
from .seeding import _check_integer, _check_real, child_seed, rng_from_seed
from .states import (
    RANK_TOL,
    DensityMatrix,
    PureState,
    _check_unit_norms,
    _density_matrices,
    _fidelities,
    _from_eigensystems,
    _frozen,
    _groups,
    _haar_unitaries,
    _haar_unitary_stack,
    _half_trace_norms,
    _phase_normalized,
    _ranks,
    _row_norms,
    _row_vdots,
)

__all__ = [
    "BackendKind",
    "TomographyBackend",
    "oracle_mixed_estimate",
    "oracle_pure_estimate",
    "estimate_pure_state_from_measurements",
    "estimate_mixed_state_from_measurements",
]

_RESOLUTION_FLOOR = 1e-12  # narrowest window float64 resolves; at 1e-15 F landed 2 ulps from 1
_U = np.finfo(float).eps / 2.0  # unit roundoff
_GROWN = 1e-5  # normalized eigenvalues the full-rank infidelity oracle never shrinks
_DESIGN_SEED = 0  # master seed of the candidate measurement designs
_DESIGN_CANDIDATES = 15  # seeded designs per dimension, of which the median one is used
_DESIGN_CONDITION = 1e6  # largest condition number accepted for a design's frame operator
_PRODUCT_BYTES = 320 << 10  # design products an inversion holds at once (see _simulate_inversion)


class BackendKind(Enum):
    ORACLE_EXACT_INFIDELITY = "oracle_exact_infidelity"
    MEASUREMENT_LINEAR_INVERSION = "measurement_linear_inversion"


@dataclass(frozen=True)
class TomographyBackend:
    """Estimator selection plus its parameters.

    Oracle backends need a target infidelity in [1e-12, 1), 1e-12 being the
    oracles' resolution floor; measurement backends need a shot budget, an
    integer of at least 1. No stage reads that budget: ``run_reduction``
    passes its own, ``n_copies`` for the mixed-state stage and the kept copy
    count for the pure-state stage. ``shots`` stays, checked, because
    ``benchmark/checks.py`` builds its backends with ``linear_inversion(shots)``.
    """

    kind: BackendKind
    epsilon_target: float | None = None
    shots: int | None = None

    def __post_init__(self) -> None:
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:  # the real rule rejects None
            target = _check_window("infidelity", self.epsilon_target)
            object.__setattr__(self, "epsilon_target", target)
        elif self.kind is BackendKind.MEASUREMENT_LINEAR_INVERSION:
            if self.shots is None:
                raise ValueError("measurement backend needs a shot budget of at least 1")
            object.__setattr__(self, "shots", _check_integer("shots", self.shots))
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

    def _estimate_mixed_stack(self, rho, rank: int, rngs, shots: int):
        """Checked (matrix, eigenvalues, eigenvectors) stacks of the estimates sigma_t
        of the states ``rho``, such stacks on one C^d with full spectra and all of
        one rank for an oracle, at a checked rank and budget, one generator per
        state, and F(rho_t, sigma_t) as an array, from the pairs ``fidelity_mixed``
        takes (rho's cut to its rank), so ``verify_chain`` repeats it bit for bit."""
        mat, w, v = rho
        k = _ranks(w).max()
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            return _infidelity_estimates(w[:, :k], v, self.epsilon_target, rngs)
        sigma = _inverted_mixed_states(mat, rank, np.full(len(mat), shots), rngs)
        return sigma, _fidelities(w[:, :k], v[:, :, :k], *sigma[1:])

    def _estimate_pure_stack(self, amps: np.ndarray, rngs, shots) -> np.ndarray:
        """Checked amplitude rows of the estimates of a (T, n) stack of pure
        states; ``rngs`` holds each state's generator and ``shots`` its
        checked budget."""
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            rows = _oracle_pure_rows(amps, self.epsilon_target, rngs)
        else:
            rows = _inverted_pure_states(amps, shots, rngs)
        _check_unit_norms(rows)
        return rows


def _draw_targets(rngs, shapes, what: str, k: int, hi: float, eta, reach, rounding: float):
    """Per generator, a target x drawn uniformly from [max(lo + rounding, floor),
    min(hi, reach) - rounding], the window [hi / 2, hi] shrunk by the oracle's
    rounding bound and cut to what it reaches from the state, then a block of
    complex normals per (rows, cols) of ``shapes``: arrays (T,) and (T, rows,
    cols). ValueError before any draw where that interval is empty."""
    lo, floor = hi / 2.0, _check_truncation_floor(what, k, eta, hi, rounding)
    upper, lower = np.minimum(hi, reach) - rounding, np.maximum(lo + rounding, floor)
    past = np.flatnonzero(~(lower <= upper))
    if past.size:
        t = past[0]
        raise ValueError(
            f"no target {what} in [{lo:g}, {hi:g}] lies within the oracle's reach from "
            f"{floor[t]:.3g} to {reach[t]:.3g} for this state, less its rounding {rounding:.2g}"
        )
    sizes = [rows * cols for rows, cols in shapes]
    draws = [(rng.random(), rng.standard_normal(2 * sum(sizes))) for rng in rngs]
    raw = np.array([z for _, z in draws]).reshape(len(rngs), 2, -1)  # real parts, then imaginary
    parts = np.split(raw[:, 0] + 1j * raw[:, 1], np.cumsum(sizes)[:-1], axis=1)
    x = lower + np.array([u for u, _ in draws]) * (upper - lower)
    return x, [part.reshape(len(rngs), *shape) for part, shape in zip(parts, shapes)]


def _check_truncation_floor(what: str, k: int, eta, hi: float, rounding: float) -> np.ndarray:
    """Per state, the least infidelity or trace distance of any rank-k estimate of
    rho's kept eigenvalues, of weight 1 - eta: 1 - F >= eta (the trace norm of
    diag(sqrt w_rho) W diag(sqrt w_sigma), W a contraction, is at most sqrt(1 - eta))
    and T >= |eta| / 2. ValueError where that floor lies above hi - rounding, as
    an estimate lands on its target only to within ``rounding``."""
    floor = eta if what == "infidelity" else np.abs(eta) / 2.0
    over = np.flatnonzero(floor > hi - rounding)
    if over.size:
        t = over[0]
        near = "" if floor[t] > hi else f", to within the oracle's rounding of {rounding:.2g}"
        raise ValueError(
            f"target {what} {hi:g} lies below {float(floor[t]):.3g}, the least {what} of any "
            f"rank-{k} estimate{near}: the eigenvalues rho keeps at rank {k} sum to "
            f"1 - {float(eta[t]):.3g}"
        )
    return floor


def _grown(w: np.ndarray):
    """For (T, k) spectra summing to 1, the mask of G, the eigenvalues that the
    full-rank oracles never shrink, so that sigma keeps rank k: the smallest and
    any below _GROWN. Also per state G's weight and the least eigenvalue off G."""
    grows = (w < _GROWN) | (np.arange(w.shape[1]) == w.shape[1] - 1)
    least = np.min(np.where(grows, np.inf, w), axis=1)
    return grows, np.sum(np.where(grows, w, 0.0), axis=1), least


def _check_landed(values: np.ndarray, what: str, lo: float, hi: float) -> None:
    """The exact recheck: raise RuntimeError unless every value lies in [lo, hi]."""
    if not ((lo <= values) & (values <= hi)).all():
        raise RuntimeError(f"an oracle estimate's {what} left [{lo:g}, {hi:g}]: {values!r}")


def _infidelity_estimates(rho_w: np.ndarray, rho_v: np.ndarray, epsilon: float, rngs):
    """Checked (matrix, eigenvalues, eigenvectors) stacks of the infidelity oracle's
    estimates sigma_t of states of one rank k, with 1 - F(rho_t, sigma_t) in
    [epsilon / 2, epsilon], and those F as an array; rho_w (T, k) holds the states'
    top-k eigenvalues, of sum 1 - eta, and rho_v (T, d, m), m >= k, their
    eigenvectors V. Each trial draws its target x (``_draw_targets``) and builds
    sigma in one pass: with w = rho_w / (1 - eta), W_rho = V diag(sqrt w) and
    cos^2 t = (1 - x) / (1 - eta),

    - k < d: sigma = W W^H, W = cos t W_rho + sin t Z with Z = V A diag(sqrt w) + N
      of unit Frobenius norm, A Hermitian, sum_i w_i A_ii = 0, N in ker rho and
      A's share scaled to sin t ||A||_2 <= min(sin t, cos t / 2). So ||W||_F = 1
      and diag(sqrt rho_w) V^H W = sqrt(1 - eta) diag(sqrt w) (cos t I + sin t A)
      diag(sqrt w) is PSD, of trace sqrt(1 - eta) cos t: by Uhlmann's theorem
      (F = ||W_rho^H W||_1^2 for any factors) F = (1 - eta) cos^2 t = 1 - x, any x
      in [eta, 1]. sigma's eigenpairs, from one SVD of W, are at least cos^2 t min
      w / 4, so sigma keeps rank k where that exceeds RANK_TOL.
    - k = d, where ker rho is empty: sigma = V diag(w') V^H commutes with rho,
      sqrt w' = cos t sqrt w + sin t e, e the unit vector orthogonal to sqrt w in
      its plane with its part on G (``_grown``): sqrt w'_i = sqrt w_i sin(t + psi)
      / sin psi on G and sqrt w_i cos(t + psi) / cos psi off it, sin^2 psi = G's
      weight. It reaches x = 1 - (1 - eta) sin^2 psi at t + psi = pi / 2, within
      1e-5 (k - 2) of 1 - min rho_w, which no sigma exceeds (sqrt rho sigma sqrt
      rho >= min rho_w sigma, and tr sqrt sigma >= 1). Targets stop at most
      2e-5 + 3e-5 sqrt(k - 1) short, where an eigenvalue off G reaches 2 RANK_TOL.

    Targets start at eta (``_check_truncation_floor``). With u = 2^-53, the 1 - F
    of ``states._fidelities`` lies within (256 + 4 (d + k)) u of x: W's rounding
    (V's Gram defect, N's residue in span V and the products, (d + k) u), the
    SVDs' backward errors (small multiples of d u ||W||_2 <= d u) and cos t, sin t
    and 1 - eta each move sqrt F by at most their Frobenius norm, as ||W_rho||_F
    <= 1, and 1 - F twice that. Over k <= 3, d <= 32, eps from 0.5 to 1e-12 and
    spectra to 10 RANK_TOL it lay at most 51 u from x (d = 2), a fifth of the
    bound. Each F is rechecked against the window.
    """
    k, d = rho_w.shape[1], rho_v.shape[1]
    v, total = rho_v[:, :, :k], rho_w.sum(axis=1)  # total = 1 - eta
    eta, root = 1.0 - total, np.sqrt(rho_w / total[:, None])
    rounding = (256 + 4 * (d + k)) * _U
    if k == d:  # at cos t = c cos psi + sqrt(1 - c^2) sin psi, sigma's least off G is 2 RANK_TOL
        grows, weight, least = _grown(root**2)
        sin_psi, cos_psi = np.sqrt(weight), np.sqrt(1.0 - weight)
        c = cos_psi * np.sqrt(np.minimum(1.0, 2.0 * RANK_TOL / least))
        reach, shapes = 1.0 - total * (c * cos_psi + np.sqrt(1.0 - c * c) * sin_psi) ** 2, []
    else:
        reach, shapes = np.ones(len(rho_w)), [(k, k), (d, k)]
    x, blocks = _draw_targets(rngs, shapes, "infidelity", k, epsilon, eta, reach, rounding)
    cos, sin = np.sqrt((1.0 - x) / total)[:, None], np.sqrt((x - eta) / total)[:, None]
    if k == d:
        e = root * np.where(grows, (cos_psi / sin_psi)[:, None], -(sin_psi / cos_psi)[:, None])
        sigma = _from_eigensystems((cos * root + sin * e) ** 2, v)
    else:
        g, n = blocks
        a = (g + g.conj().swapaxes(1, 2)) / 2.0
        trace = np.sum(root**2 * np.diagonal(a.real, axis1=1, axis2=2), axis=1)
        a -= trace[:, None, None] * np.eye(k)  # sum_i w_i A_ii = 0
        n -= v @ (v.conj().swapaxes(1, 2) @ n)
        n_norm = np.sqrt(np.sum(n.real**2 + n.imag**2, axis=(1, 2)))
        a_norm = np.sqrt(np.sum(a.real**2 + a.imag**2, axis=(1, 2)))  # >= ||A||_2
        cap = n_norm * cos[:, 0] / np.maximum(2.0 * sin[:, 0], cos[:, 0])  # min(1, cot t / 2) n
        share = cap / np.maximum(a_norm, cap)  # min(1, cap / a_norm), 1 where A = 0 (k = 1)
        scaled = share[:, None, None] * a * root[:, None, :]
        z_norm = np.sqrt(np.sum(scaled.real**2 + scaled.imag**2, axis=(1, 2)) + n_norm**2)
        step = (sin[:, 0] / z_norm)[:, None, None]
        w = v * (cos * root)[:, None, :] + v @ (step * scaled) + step * n
        left, s, _ = np.linalg.svd(w, full_matrices=False)
        sigma = _from_eigensystems(s * s, left)
    f = _fidelities(rho_w, v, *sigma[1:])
    _check_landed(1.0 - f, "infidelity", epsilon / 2.0, epsilon)
    return sigma, f


def _trace_estimates(rho_w: np.ndarray, rho_v: np.ndarray, delta: float, rngs):
    """Checked (matrix, eigenvalues, eigenvectors) stacks of the trace-distance
    oracle's estimates sigma_t of states of one rank k, with T(rho_t, sigma_t) in
    [delta / 2, delta] for rho_t the states' truncation to rank k; rho_w and rho_v
    as ``_infidelity_estimates`` takes them, as is the target x. sigma has
    eigenvalues w = rho_w / (1 - eta), and:

    - k < d: the top s = min(k, d - k) eigenvectors, of weight W_S in w, rotate by
      one angle t into an orthonormal set in ker rho (a QR of normals projected off
      V). rho - sigma is (1 - eta) w_i P - w_i P' in the plane of v_i and n_i, P and
      P' rank-1 projectors at angle t, and -eta w_i on each other v_i, so T = (|eta|
      (1 - W_S) + W_S sqrt(eta^2 + 4 (1 - eta) sin^2 t)) / 2 (W_S sin t at eta = 0),
      from |eta| / 2 at t = 0 up to about W_S at t = pi / 2.
    - k = d: sigma = V diag((1 - l) w + l p) V^H, p = w on G (``_grown``) over its
      weight W_G, commutes with rho: T = l (1 - W_G) - eta (1 - 2 W_G) / 2 for l >=
      eta, up to within 1e-5 (k - 2) of 1 - min w, the largest T of any sigma.
      Targets stop at l = 1 - 2 RANK_TOL / (the least w off G) >= 1 - 2e-5, so
      sigma keeps rank k: gentle's support projector is I and its T is 0.

    ``states._half_trace_norms`` rechecks each T on rho - sigma, within 8 d u of x
    (u = 2^-53): forming rho - sigma errs by a few k u in Frobenius norm, moving the
    d absolute eigenvalues' sum by sqrt(d) times that (Hoffman-Wielandt), and
    eigvalsh and the rotation's residue in span V add small multiples of d u. Over
    the ranges of ``_infidelity_estimates`` T lay at most 1.75 d u from x.
    """
    k, d = rho_w.shape[1], rho_v.shape[1]
    v, total = rho_v[:, :, :k], rho_w.sum(axis=1)
    eta, w, s, rounding = 1.0 - total, rho_w / total[:, None], min(k, d - k), 8 * d * _U
    if s:
        weight = w[:, :s].sum(axis=1)
        reach = (np.abs(eta) * (1.0 - weight) + weight * np.sqrt(eta**2 + 4.0 * total)) / 2.0
    else:  # the mixture stops where sigma's least eigenvalue off G is 2 RANK_TOL
        grows, weight, least = _grown(w)
        reach = (1.0 - 2.0 * RANK_TOL / least) * (1.0 - weight) - eta * (1.0 - 2.0 * weight) / 2.0
    x, (g,) = _draw_targets(rngs, [(d, s)], "trace distance", k, delta, eta, reach, rounding)
    if s:
        q, _ = np.linalg.qr(g - v @ (v.conj().swapaxes(1, 2) @ g))
        half = (2.0 * x - np.abs(eta) * (1.0 - weight)) / weight
        sin = np.sqrt(np.clip((half - eta) * (half + eta) / (4 * total), 0, 1)).reshape(-1, 1, 1)
        rotated = v.copy()
        rotated[:, :, :s] = np.sqrt(1.0 - sin * sin) * v[:, :, :s] + sin * q
        sigma = _from_eigensystems(w, rotated)
    else:
        mix = ((x + eta * (1.0 - 2.0 * weight) / 2.0) / (1.0 - weight))[:, None]
        mixed = (1.0 - mix) * w + mix * np.where(grows, w / weight[:, None], 0.0)
        sigma = _from_eigensystems(mixed, v)
    rho = (v * rho_w[:, None, :]) @ v.conj().swapaxes(1, 2)
    _check_landed(_half_trace_norms(rho - sigma[0]), "trace distance", delta / 2.0, delta)
    return sigma


def _check_window(what: str, target: float) -> float:
    target = _check_real(f"target {what}", target)
    if not _RESOLUTION_FLOOR <= target < 1.0:
        raise ValueError(
            f"target {what} must be in [{_RESOLUTION_FLOOR:g}, 1), got {target!r}: a calibrated "
            "window narrower than that is not resolved in float64"
        )
    return target


def _shot_floor(dim: int) -> int:
    """d^2: linear inversion on C^dim resolves a Hermitian matrix of d^2 real parameters."""
    return dim * dim


def _check_budget(n, dim: int) -> int:
    """A shot budget on C^dim as a Python int; raise ValueError unless it is an
    integer that reaches the d^2 floor and fits in int64."""
    n = _check_integer("shots", n)
    if n < _shot_floor(dim):
        raise ValueError(f"budget {n} is below the informational floor {_shot_floor(dim)}")
    _check_count("shots", n)
    return n


def _check_perturbable(dim: int) -> None:
    if dim < 2:
        raise ValueError("the oracle cannot perturb the only state on d = 1")


def oracle_mixed_estimate(rho: DensityMatrix, epsilon: float, seed) -> DensityMatrix:
    """Estimate of rho with the same rank and fidelity in [1 - eps, 1 - eps/2].

    sigma is built in closed form on an infidelity drawn from the window
    (``_infidelity_estimates``): any infidelity where rho has a kernel, and up
    to 1 - its smallest eigenvalue, beyond which no estimate lies, at full rank.
    eps must be at least the 1e-12 resolution floor.
    """
    epsilon = _check_window("infidelity", epsilon)
    _check_perturbable(rho.dim)
    w, v, rngs = rho.eigenvalues[None, : rho.rank], rho.eigenvectors[None], [rng_from_seed(seed)]
    return _density_matrices(*_infidelity_estimates(w, v, epsilon, rngs)[0])[0]


def oracle_pure_estimate(psi: PureState, epsilon: float, seed) -> PureState:
    """Pure estimate with |<phi|psi>|^2 in [1 - eps, 1 - eps/2].

    The state is rotated toward a random orthogonal unit vector by the angle
    whose cosine meets a target overlap drawn uniformly from the window.
    """
    epsilon = _check_real("target infidelity", epsilon)
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"target infidelity must be in (0, 1), got {epsilon!r}")
    if psi.amplitudes.size < 2:
        raise ValueError("no orthogonal direction available in a one-dimensional space")
    rows = _oracle_pure_rows(psi.amplitudes[None], epsilon, [rng_from_seed(seed)])
    return PureState(rows[0], psi.dims)


def _oracle_pure_rows(amps: np.ndarray, epsilon: float, rngs) -> np.ndarray:
    """Phase-normalized, unchecked amplitude rows of the pure oracle's
    estimates of a (T, n) stack of states, n >= 2 and epsilon in (0, 1),
    each drawn from its own generator."""
    n = amps.shape[1]
    # per generator: the target overlap, then one draw of the direction's parts
    target = np.array([rng.uniform(1.0 - epsilon, 1.0 - epsilon / 2.0) for rng in rngs])[:, None]
    raw = np.array([rng.standard_normal(2 * n) for rng in rngs])
    raw = raw[:, :n] + 1j * raw[:, n:]
    chi = raw - _row_vdots(amps, raw)[:, None] * amps
    chi = chi / _row_norms(chi)[:, None]
    return _phase_normalized(np.sqrt(target) * amps + np.sqrt(1.0 - target) * chi)


def _measurement_design(dim: int, num_bases: int, rng: np.random.Generator) -> np.ndarray:
    """(num_bases, dim, dim) unitaries whose columns are the measurement
    vectors; the first is the standard basis, the rest are Haar random."""
    haar = _haar_unitaries(dim, num_bases - 1, rng)
    return np.concatenate([np.eye(dim, dtype=complex)[None], haar])


def _num_bases(dim: int) -> int:
    """Bases of the design on C^dim: ceil(3 ln d) * d, at least 6."""
    return max(6, int(math.ceil(3.0 * math.log(dim))) * dim)


def _split_budget(n, num_bases: int) -> np.ndarray:
    """Shots per basis, the remainder on the first bases, of a budget or a (T,) array of them."""
    n = np.asarray(n, dtype=np.int64)[..., None]
    return n // num_bases + (np.arange(num_bases) < n % num_bases)


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
    whose budgets use the same number of bases share one stacked pass, whose
    products with the design, two (dim, m * dim) arrays per trial for m bases,
    are taken a chunk of trials at a time within _PRODUCT_BYTES; each trial
    gets the bits it gets alone. Each of the T budgets ``shots`` must pass
    ``_check_budget``.
    """
    dim, shots = mats.shape[1], np.asarray(shots)
    num_bases = _num_bases(dim)
    u = _haar_unitary_stack(dim, rngs)
    rotated = u.conj().swapaxes(1, 2) @ mats @ u
    x = np.empty_like(rotated)
    keys = np.minimum(shots, num_bases)  # bases with shots: a prefix of the design
    for group in _groups(keys):
        used = int(keys[group[0]])
        design = _design(dim, used)
        g, g_conj = design.vectors, design.vectors.conj()
        # two arrays of g's shape per trial, counted as three for g_conj and the counts
        per_chunk = max(1, _PRODUCT_BYTES // (3 * g.nbytes))
        for idx in np.split(group, range(per_chunk, len(group), per_chunk)):
            p = np.real(np.sum(g_conj * (rotated[idx] @ g), axis=1)).reshape(len(idx), used, dim)
            p = np.clip(p, 0.0, None)
            p = p / p.sum(axis=2, keepdims=True)
            budgets = _split_budget(shots[idx], num_bases)[:, :used]
            counts = np.array(
                [rngs[t].multinomial(n, q) for t, n, q in zip(idx.tolist(), budgets, p)]
            )
            freqs = counts / budgets[:, :, None]
            y = (g * freqs.reshape(len(idx), 1, used * dim)) @ g_conj.T
            solved = design.frame_inverse @ y.reshape(len(idx), dim * dim, 1)
            x[idx] = solved.reshape(len(idx), dim, dim)
    x = u @ x @ u.conj().swapaxes(1, 2)
    return (x + x.conj().swapaxes(1, 2)) / 2.0


def _inverted_pure_states(amps: np.ndarray, shots, rngs) -> np.ndarray:
    """Unchecked amplitude rows of the linear-inversion estimates of a (T, n)
    stack of pure states: the top eigenvector of each inversion."""
    x = _simulate_inversion(amps[:, :, None] * amps[:, None, :].conj(), shots, rngs)
    _, v = np.linalg.eigh(x)
    return _phase_normalized(v[:, :, -1])


def _inverted_mixed_states(mats: np.ndarray, r: int, shots, rngs):
    """Checked (matrix, eigenvalues, eigenvectors) stacks of the rank-capped
    linear-inversion estimates, 1 <= r <= d, of a (T, d, d) stack of states."""
    x = _simulate_inversion(mats, shots, rngs)
    w, v = np.linalg.eigh(x)
    w = np.clip(w[:, ::-1][:, :r], 0.0, None)
    total = w.sum(axis=1, keepdims=True)
    if not (total > 0.0).all():  # pragma: no cover - requires adversarial shot data
        raise RuntimeError("all truncated eigenvalues vanished; cannot renormalize")
    return _from_eigensystems(w / total, v[:, :, ::-1][:, :, :r])


def estimate_pure_state_from_measurements(psi_true: PureState, n: int, seed) -> PureState:
    """Reconstruct a pure state from n simulated single-copy measurements.

    The shots are split evenly across ceil(3 ln d) * d orthonormal bases (at
    least 6): the standard basis and Haar bases of one fixed design per
    dimension, all rotated by one Haar unitary that the seed's generator draws
    before the counts. Linear inversion through the design's cached frame
    operator recovers the empirical density matrix, and its top eigenvector is returned.
    """
    n = _check_budget(n, psi_true.amplitudes.size)
    rows = _inverted_pure_states(psi_true.amplitudes[None], np.array([n]), [rng_from_seed(seed)])
    return PureState(rows[0], psi_true.dims)


def estimate_mixed_state_from_measurements(
    rho_true: DensityMatrix, r: int, n: int, seed
) -> DensityMatrix:
    """Rank-capped linear-inversion estimate of a mixed state.

    The design and the frame-operator solve are those of
    :func:`estimate_pure_state_from_measurements`. The raw inversion is then
    projected to the physical set: negative eigenvalues are clamped to zero,
    and the spectrum is truncated to the top r eigenpairs and renormalized.
    """
    r = _check_integer("r", r)
    if not 1 <= r <= rho_true.dim:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={rho_true.dim}")
    n = _check_budget(n, rho_true.dim)
    sigma = _inverted_mixed_states(rho_true.matrix[None], r, np.array([n]), [rng_from_seed(seed)])
    return _density_matrices(*sigma)[0]
