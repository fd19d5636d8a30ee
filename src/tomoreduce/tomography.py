"""Pluggable state estimators: calibrated synthetic oracles and a concrete
measurement-based estimator.

The oracle estimators return a randomly perturbed copy of the true state
whose infidelity (or trace distance) is driven by bisection into a requested
window. They stand in for an estimation procedure with a known guarantee, so
downstream analysis can be checked at an exact error level. Calibration only
compares each rung with the window's edges: infidelity rungs are evaluated by
a closed-form kernel with a rounding bound (``_bounded_infidelities``), and a
row with a rung within its bound of an edge by the exact SVD kernel
``states._fidelities``; rank-1 trace-distance rungs likewise by a closed form
(``_bounded_trace_distances``) and the eigvalsh kernel ``_trace_distances``,
which decides every higher rank. Each infidelity trial climbs from a start
rung below which the Bures-angle speed limit proves every rung below the
window (``_start_rungs``), so most stacks land in one ladder call. Every
landing is the exact kernels'. The
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
from typing import Callable, NamedTuple

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
    "BISECTION_MAX_ITER",
    "BackendKind",
    "TomographyBackend",
    "oracle_mixed_estimate",
    "oracle_pure_estimate",
    "estimate_pure_state_from_measurements",
    "estimate_mixed_state_from_measurements",
]

BISECTION_MAX_ITER = 200
_EIGENVALUE_FLOOR = 1e-7  # relative floor keeping perturbed eigenvalues above the rank tolerance
_FAMILIES = 8  # perturbation families drawn before calibration gives up
_LADDER_STEPS = 140  # rungs of the geometric theta ladder
_LADDER_RATIO = 1.35  # fine enough not to hop over oscillation peaks
_LADDER_CHUNK = 6  # ladder rungs evaluated per stacked call
_RESOLUTION_FLOOR = 1e-12  # narrowest window float64 resolves; at 1e-15 F landed 2 ulps from 1
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
        """Checked (matrix, eigenvalues, eigenvectors) stacks of the estimates of the
        states ``rho``, such stacks on one C^d with full spectra and all of one rank
        for an oracle, at a checked rank and budget, one generator per state."""
        mat, w, v = rho
        if self.kind is BackendKind.ORACLE_EXACT_INFIDELITY:
            eps = self.epsilon_target
            k = _ranks(w[:1])[0]
            return _calibrated_estimates(w[:, :k], v, rngs, _sided_infidelities, eps / 2.0, eps)
        return _inverted_mixed_states(mat, rank, np.full(len(mat), shots), rngs)

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
    # one draw per trial: the generator's real and imaginary parts, then its drift
    x = np.array([rng.standard_normal(2 * d * d + k) for rng in rngs])
    g = x[:, : d * d].reshape(-1, d, d) + 1j * x[:, d * d : 2 * d * d].reshape(-1, d, d)
    h = (g + g.conj().swapaxes(1, 2)) / 2.0
    lam, q = np.linalg.eigh(h)
    lam = lam / np.maximum(np.max(np.abs(lam), axis=1), 1e-30)[:, None]
    drift = x[:, 2 * d * d :]
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
    return _phases(family, thetas)[:, :, :, None] * family.coords[:, None]


def _phases(family: _Family, thetas: np.ndarray) -> np.ndarray:
    """e^{i theta lam} of the generators' spectra, shape (T, L, d)."""
    return np.exp(1j * thetas[:, :, None] * family.lam[:, None, :])


def _infidelities(rho_w: np.ndarray, family: _Family, thetas: np.ndarray) -> np.ndarray:
    """1 - F(rho_t, sigma_t(theta)) for a (T, L) stack of thetas, the eigenvectors
    of both states taken in the generator's eigenbasis."""
    eigs, phased = _eigenvalues_at(family, thetas), _phased_coords(family, thetas)
    return 1.0 - _fidelities(rho_w[:, None], family.coords[:, None], eigs, phased)


def _bounded_infidelities(
    rho_w: np.ndarray, family: _Family, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """1 - F(rho_t, sigma_t(theta)) for a (T, L) stack of thetas without an SVD,
    and a bound on each value's distance to ``_infidelities``'s, both (T, L).

    sqrt F is the trace norm s = ||M||_1 of M = diag(sqrt w_rho) W diag(sqrt w_sigma),
    W = C^H diag(e^{i theta lam}) C for the family's coordinates C (d, k). W is
    one (T, L, d) @ (T, d, k^2) product of the phases with the outer products
    conj(C_ja) C_jb, and s is |m_11| at k = 1, sqrt(||M||_F^2 + 2|det M|) at
    k = 2 (s^2 = s_1^2 + s_2^2 + 2 s_1 s_2), and the sum of sqrt(lambda_i) over
    eigvalsh(M^H M) at k >= 3. With u = 2^-53, |s - s_exact| <= ds, the sum of:

    - The norm's rounding, here and in the exact kernel's SVD, which LAPACK
      bounds by a small multiple of u ||M||_2 <= u s.
      - k = 1: 64 u s. hypot and the 1 x 1 SVD are each within a few ulps of
        |m_11|.
      - k = 2: 128 u ||M||_F^2 / s. ||M||_F^2 carries at most 5 u ||M||_F^2;
        2|det M| at most 5 u ||M||_F^2, as |m_11 m_22| + |m_12 m_21| <=
        ||M||_F^2 / 2 bounds the cancellation; so s^2 is within
        12 u ||M||_F^2, s within 8 u ||M||_F^2 / s, and s <= 2 ||M||_F^2 / s
        takes the SVD's error into the same form.
      - k >= 3: sum_i min(sqrt(dl), dl / sqrt(lambda_i)), dl = 8 k^2 u tr(M^H M).
        Forming M^H M moves each eigenvalue by at most (k + 2) u ||M||_F^2 and
        eigvalsh by a small multiple of u ||M^H M||_2 <= u tr(M^H M); then
        |sqrt a - sqrt b| <= min(sqrt|a - b|, |a - b| / sqrt a). The SVD's
        error, a small multiple of k u s_1, is below the top term
        dl / s_1 >= 8 k^2 u s_1.
    - W's, formed here as phases @ outer products and there as C^H (phases * C):
      8 sqrt(k) (d + 6) u. Each entry of either carries at most (d + 6) u
      sum_j |C_ja| |C_jb|, so the two Ms differ by 2 (d + 6) u in Frobenius
      norm (the weights sum to at most 1) and their trace norms by sqrt(k) times that.

    The infidelities 1 - min(1, s^2) then differ by at most ds (2 s + ds) + 16 u,
    the last term for the square and the subtraction, 2 u a side. Each
    constant is at least 4 times its worst case above, or, for LAPACK's terms,
    10 times the largest distance measured over k = 1 to 4, d = 2 to 16 and
    thetas from 1e-8 to 50: the closed forms and the SVD differed by at most
    3.7 u s at k = 1, 9.2 u ||M||_F^2 / s at k = 2 (7 u s of it the SVD's, by
    mpmath) and 0.34 of the k >= 3 term at dl = k^2 u tr(M^H M), the two Ms
    by 0.4 sqrt(k) (d + 6) u, and the subtractions by 1 u. A value or bound
    that is not finite (a NaN theta, M = 0) compares false, so
    ``_sided_infidelities`` rechecks it.
    """
    c = family.coords
    d, k = c.shape[1:]
    u = np.finfo(float).eps / 2.0
    root_a = np.sqrt(np.where(rho_w > RANK_TOL, rho_w, 0.0))
    eigs = _eigenvalues_at(family, thetas)
    root_b = np.sqrt(np.where(eigs > RANK_TOL, eigs, 0.0))
    phases = _phases(family, thetas)
    outer = (c.conj()[:, :, :, None] * c[:, :, None, :]).reshape(len(c), d, k * k)
    w = (phases @ outer).reshape(*phases.shape[:2], k, k)
    m = root_a[:, None, :, None] * w * root_b[:, :, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        if k == 1:
            s = np.abs(m[..., 0, 0])
            ds = 64.0 * u * s
        elif k == 2:
            fro2 = np.sum(m.real**2 + m.imag**2, axis=(2, 3))
            det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
            s = np.sqrt(fro2 + 2.0 * np.abs(det))
            ds = 128.0 * u * fro2 / s
        else:
            lam = np.linalg.eigvalsh(m.conj().swapaxes(2, 3) @ m)
            dl = 8.0 * k * k * u * np.sum(m.real**2 + m.imag**2, axis=(2, 3))[..., None]
            s = np.sum(np.sqrt(np.clip(lam, 0.0, None)), axis=2)
            # min(sqrt(dl), dl / sqrt(lambda)) in one step: sqrt(dl) where lambda < dl
            ds = np.sum(dl / np.sqrt(np.maximum(lam, dl)), axis=2)
    ds = ds + 8.0 * math.sqrt(k) * (d + 6) * u
    return 1.0 - np.minimum(1.0, s * s), ds * (2.0 * s + ds) + 16.0 * u


def _sided(bounded, exact, rho_w, family, thetas, lo, hi) -> np.ndarray:
    """Discrepancies that lie on the same side of lo and of hi as the kernel
    ``exact``'s, for a (T, L) stack of thetas: ``bounded``'s values where its
    bound decides both sides, and ``exact``'s, in one call of the same shape,
    on every row with an entry it leaves undecided."""
    vals, bound = bounded(rho_w, family, thetas)
    decided = (np.abs(vals - lo) > bound) & (np.abs(vals - hi) > bound)  # False at NaN
    rows = np.flatnonzero(~decided.all(axis=1))
    if rows.size:
        vals[rows] = exact(rho_w[rows], family.take(rows), thetas[rows])
    return vals


def _sided_infidelities(
    rho_w: np.ndarray, family: _Family, thetas: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Infidelities on ``_infidelities``'s side of lo and of hi, decided by
    ``_bounded_infidelities`` where its bound allows (see ``_sided``)."""
    return _sided(_bounded_infidelities, _infidelities, rho_w, family, thetas, lo, hi)


def _trace_distances(rho_w: np.ndarray, family: _Family, thetas: np.ndarray) -> np.ndarray:
    """T(rho_t, sigma_t(theta)) for a (T, L) stack of thetas, both states taken
    in the generator's eigenbasis: half the sum of |eigvalsh| of their difference."""
    coords = family.coords
    rho_q = (coords * rho_w[:, None, :]) @ coords.conj().swapaxes(1, 2)
    phased = _phased_coords(family, thetas)
    eigs = _eigenvalues_at(family, thetas)
    sigma_q = (phased * eigs[:, :, None, :]) @ phased.conj().swapaxes(2, 3)
    return _half_trace_norms(rho_q[:, None] - sigma_q)


def _bounded_trace_distances(
    rho_w: np.ndarray, family: _Family, thetas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """T(rho_t, sigma_t(theta)) of rank-1 states for a (T, L) stack of thetas
    without an eigensolver, and a bound on each value's distance to
    ``_trace_distances``'s, both (T, L).

    With rho = a c c^H, c the coordinates (d,) with n = ||c||^2, and sigma =
    c' c'^H for c' = diag(e^{i theta lam}) c (sigma's one eigenvalue is
    exactly 1, a softmax of one logit), rho - sigma has rank 2, trace (a - 1) n
    and determinant -a (n^2 - |o|^2) on its span, o = <c|c'>. Its eigenvalues
    have opposite signs, so ||rho - sigma||_1 is their difference:
    T = sqrt(((a - 1) n)^2 + 4 a (n^2 - |o|^2)) / 2. Here n^2 - |o|^2 is
    the sum over j, l of p_j p_l 2 sin^2(theta (lam_j - lam_l) / 2), p = |c|^2,
    a sum of terms of one sign, never 1 - |o|^2, whose rounding of about u
    the square root would lift to sqrt(u) near T = 0. With u = 2^-53, the
    two kernels differ by at most (8 sqrt(d) (8 + theta) + 24 theta
    + 8 (d + 4)^2 T) u, the sum of:

    - This form's rounding: the sum of d^2 terms and the products carry a
      relative (d^2 + 2 d + 16) u, of which T takes half; each angle, rounded
      to a relative 3 u, moves a term 2 sin^2 x by 12 u |x| |sin x|, and
      |x| <= theta, which by Cauchy-Schwarz moves T by at most 4.3 u theta n.
    - ``_trace_distances``' rounding: its phases carry (theta + 3) u each, and
      forming rho_q, sigma_q and their difference adds (3 a + 3) u n, so
      the difference is off by at most (12 + 2 theta) u n in Frobenius norm;
      the sum of |eigenvalues| moves by sqrt(d) times that (Hoffman-Wielandt),
      and eigvalsh's own error, a small multiple of d u ||rho - sigma||_2
      <= 2 d u T per eigenvalue, adds d^2 u T at most over the spectrum.

    n is 1 to a few u. Each constant is at least 4 times its worst case
    above; over d = 2 to 16 and thetas from 1e-12 to 1e8, the two kernels
    differed by at most 0.043 of the bound. A value or bound that is not
    finite compares false, so ``_sided_trace_distances`` rechecks it.
    """
    u = np.finfo(float).eps / 2.0
    c, lam, a = family.coords[:, :, 0], family.lam, rho_w[:, :1]
    d = c.shape[1]
    p = c.real**2 + c.imag**2
    n = p.sum(axis=1, keepdims=True)
    half = thetas[:, :, None, None] * ((lam[:, :, None] - lam[:, None, :]) / 2.0)[:, None]
    gaps = 2.0 * np.sin(half) ** 2
    spread = ((gaps @ p[:, None, :, None])[..., 0] * p[:, None, :]).sum(axis=2)
    t = 0.5 * np.sqrt(((a - 1.0) * n) ** 2 + 4.0 * a * spread)
    bound = (8.0 * math.sqrt(d) * (8.0 + thetas) + 24.0 * thetas + 8.0 * (d + 4) ** 2 * t) * u
    return t, bound


def _sided_trace_distances(
    rho_w: np.ndarray, family: _Family, thetas: np.ndarray, lo: float, hi: float
) -> np.ndarray:
    """Trace distances on ``_trace_distances``'s side of lo and of hi: at rank 1
    decided by ``_bounded_trace_distances`` where its bound allows (see
    ``_sided``), and at rank 2 and up ``_trace_distances``'s own."""
    if rho_w.shape[1] > 1:
        return _trace_distances(rho_w, family, thetas)
    return _sided(_bounded_trace_distances, _trace_distances, rho_w, family, thetas, lo, hi)


@functools.lru_cache(maxsize=64)
def _ladder(lo: float) -> np.ndarray:
    """The geometric theta ladder of a window with lower edge lo: _LADDER_STEPS
    rungs from max(lo, 1e-4), each _LADDER_RATIO times the one below."""
    # repeated products, not powers: records depend on the exact rungs
    return _frozen(np.cumprod([max(lo, 1e-4)] + [_LADDER_RATIO] * (_LADDER_STEPS - 1)))


def _start_rungs(rho_w: np.ndarray, family: _Family, lo: float) -> np.ndarray:
    """Per trial, the first rung of ``_ladder(lo)`` that an a-priori bound
    does not prove to give an infidelity below lo under the exact kernel
    ``_infidelities``: calibration need not evaluate the rungs below it.

    The Bures angle A(rho, sigma) = arccos sqrt F is a metric, and along a
    path sigma(theta) it grows at most at speed sqrt(F_Q) / 2, F_Q the
    quantum Fisher information (Braunstein and Caves, PRL 72, 3439, 1994).
    So A(rho, sigma(theta)) <= A_0 + c theta, A_0 = A(rho, sigma(0)) and c
    a bound on the speed. sigma(theta) = U D(theta) U^H with U = e^{i theta H}
    splits F_Q in two:

    - the coherent part, at most 4 Var_sigma(H) <= 4 ||H||^2 = 4, as the
      generator has unit spectral norm;
    - the classical part, the variance, under D's eigenvalues w, of their
      log-derivatives. Unfloored, w_i's is drift_i less the top logit's
      drift, and floored it is 0, the top logit's own term; so they all lie
      in a range of Delta = max drift - min drift, and Popoviciu's
      inequality bounds their variance by Delta^2 / 4.

    So c = sqrt(1 + Delta^2 / 16). rho and sigma(0) share eigenvectors, so
    cos A_0 = sum_i sqrt(lambda_i w_i(0)) over rho's eigenvalues lambda,
    divided by sqrt(sum lambda) where that sum exceeds 1. A sum below 1 only
    scales F by it, which the bound keeps: arccos(x cos A) - A decreases in
    A for x <= 1. Then 1 - F = sin^2 A <= A^2 <= (A_0 + c theta)^2, so a
    rung theta lies below lo where (A_0 + c theta)^2 < lo - m, m a bound on
    the exact kernel's rounding at theta < 1, as every rung so proven is.
    With u = 2^-53 and D = max |drift|, m = 2 ds + ds^2 + 16 u for a bound
    ds on the rounding of sqrt F, the sum of:

    - W = C^H diag(e^{i theta lam}) C: 8 sqrt(k) (d + 6) u for its products,
      as in ``_bounded_infidelities``, and 64 sqrt(k) d u for the isometry
      defect of the coordinates C, 2 sqrt(k) ||C^H C - I||_2 with that norm
      taken at 4 times the largest measured, 7.7 d u over d = 2 to 32;
    - the SVD and the sum of its k values: 20 k u;
    - the square roots of the eigenvalues: their logits, of modulus at most
      24 + D, carry (24 + 2 D) u each, so a square root carries at most
      (33 + 2 D + k / 2) u relative: (136 + 8 D + 4 k) u;

    and 16 u for the square, the subtraction and this bound's own rounding.
    cos A_0 is taken (144 + 8 k) u low, 4 times its rounding, so that the
    arccos, ill-conditioned near 1, never comes out too small. Each
    constant is at least 4 times its worst case.
    """
    k, d = rho_w.shape[1], family.coords.shape[1]
    u = np.finfo(float).eps / 2.0
    w0 = _eigenvalues_at(family, np.zeros((len(rho_w), 1)))[:, 0]
    cos_a0 = np.sqrt(rho_w * w0).sum(axis=1) / np.sqrt(np.maximum(1.0, rho_w.sum(axis=1)))
    a0 = np.arccos(np.clip(cos_a0 - (144 + 8 * k) * u, -1.0, 1.0))
    top, bottom = family.drift.max(axis=1), family.drift.min(axis=1)
    speed = np.sqrt(1.0 + (top - bottom) ** 2 / 16.0)
    reach = np.maximum(top, -bottom)
    ds = (8.0 * math.sqrt(k) * (9 * d + 6) + 24 * k + 136 + 8.0 * reach) * u
    margin = 2.0 * ds + ds * ds + 16.0 * u
    theta = (np.sqrt(np.clip(lo - margin, 0.0, None)) - a0) / speed
    return np.searchsorted(_ladder(lo), theta)


def _bracket_and_bisect(
    discrepancies: Callable[[np.ndarray, np.ndarray], np.ndarray],
    start: np.ndarray,
    lo: float,
    hi: float,
) -> np.ndarray:
    """Walk each trial up the geometric theta ladder ``_ladder(lo)`` from its
    start rung ``start[t]`` until its discrepancy exceeds the window, then
    bisect into it.

    ``discrepancies(idx, thetas)`` evaluates the trials ``idx`` (sorted) at
    thetas of shape (len(idx), L). The trials climb in lockstep, a chunk of
    _LADDER_CHUNK rungs from each one's own next rung per call (the rungs
    past the ladder's top repeat it and count as below the window), and
    bisect in lockstep, one midpoint per trial per call; each trial retires
    as it lands. A trial that overshoots at a rung bisects from the rung
    below it (0 at rung 0), so one that starts above rung 0 lands as it would
    from rung 0 whenever every rung below its start lies below the window.
    Returns the landing theta per trial, NaN where the family never reaches
    the window (the caller redraws a fresh family)."""
    count = len(start)
    theta, theta_lo, theta_hi = np.full((3, count), np.nan)
    ladder = _ladder(lo)
    climbing, rung = np.arange(count), np.asarray(start)
    steps = np.arange(_LADDER_CHUNK)
    while climbing.size:
        at = rung[:, None] + steps
        chunk = ladder[np.minimum(at, _LADDER_STEPS - 1)]
        vals = discrepancies(climbing, chunk)
        # each trial's first rung that reaches the window; a NaN rung counts as below it
        reached = (vals >= lo) & (at < _LADDER_STEPS)
        i = reached.argmax(axis=1)
        hit = reached.any(axis=1)
        rows = np.arange(len(i))
        over = hit & ~(vals[rows, i] <= hi)
        landed = hit & ~over
        theta[climbing[landed]] = chunk[rows[landed], i[landed]]
        top = at[rows[over], i[over]]
        theta_lo[climbing[over]] = np.where(top > 0, ladder[top - 1], 0.0)
        theta_hi[climbing[over]] = ladder[top]
        going = ~hit & (at[:, -1] < _LADDER_STEPS - 1)
        climbing, rung = climbing[going], rung[going] + _LADDER_CHUNK
    bisecting = np.flatnonzero(~np.isnan(theta_hi))
    theta_lo, theta_hi = theta_lo[bisecting], theta_hi[bisecting]
    for _ in range(BISECTION_MAX_ITER):
        if not bisecting.size:
            return theta
        mid = 0.5 * (theta_lo + theta_hi)
        val = discrepancies(bisecting, mid[:, None])[:, 0]
        inside = (lo <= val) & (val <= hi)
        below = val < lo  # a NaN midpoint counts as above the window
        theta[bisecting[inside]] = mid[inside]
        theta_lo = np.where(below, mid, theta_lo)[~inside]
        theta_hi = np.where(below, theta_hi, mid)[~inside]
        bisecting = bisecting[~inside]
    if bisecting.size:
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
    discrepancies: Callable[[np.ndarray, _Family, np.ndarray, float, float], np.ndarray],
    lo: float,
    hi: float,
    families: int = _FAMILIES,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (T, k) and (T, d, k) of a calibrated estimate of each state.

    rho_w holds the states' top-k eigenvalues and rho_v their eigenvectors
    (T, d, m), m >= k. Each trial draws a perturbation family from its own
    generator and is bisected into [lo, hi]; the trials whose family never
    reaches the window draw their next family together, up to ``families``
    draws, so a trial's draws are the ones it makes alone. Calibration only
    compares discrepancies with lo and hi, so ``discrepancies(rho_w, family,
    thetas, lo, hi)`` may return any value on the exact value's side of each.
    With ``_sided_infidelities`` each trial climbs from its ``_start_rungs``
    rung, whose rungs below are proven below lo, so it lands where it would
    from rung 0; trace distances climb from rung 0."""
    family = _perturbation_families(rho_w, rho_v, rngs)

    def family_discrepancies(idx, thetas):
        if len(idx) == len(rngs):  # every trial: no copies
            return discrepancies(rho_w, family, thetas, lo, hi)
        return discrepancies(rho_w[idx], family.take(idx), thetas, lo, hi)

    # T <= sqrt(1 - F) <= A_0 + c theta proves no trace-distance rung below
    # lo <= _ladder(lo)[0], so only infidelities start above rung 0
    if discrepancies is _sided_infidelities:
        start = _start_rungs(rho_w, family, lo)
    else:
        start = np.zeros(len(rngs), dtype=np.int64)
    theta = _bracket_and_bisect(family_discrepancies, start, lo, hi)
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


def _calibrated_estimates(rho_w: np.ndarray, rho_v: np.ndarray, rngs, discrepancies, lo, hi):
    """Checked (matrix, eigenvalues, eigenvectors) stacks of the calibrated estimates
    of states of one rank k, from rho_w (T, k), their top-k eigenvalues, and rho_v
    (T, d, m), m >= k, their eigenvectors; each drawn from its own generator.
    ``_check_truncation_floor`` runs first, so an unreachable window climbs no rung."""
    _check_truncation_floor(rho_w, discrepancies, hi)
    return _from_eigensystems(*_calibrate(rho_w, rho_v, rngs, discrepancies, lo, hi))


def _check_truncation_floor(rho_w: np.ndarray, discrepancies, hi: float) -> None:
    """Raise ValueError where a state's truncation to rank k puts the window's
    upper edge hi out of reach. Calibration keeps rho's top k eigenvalues, of
    weight 1 - eta, so every sigma of rank k has 1 - F >= eta (the trace norm of
    diag(sqrt w_rho) W diag(sqrt w_sigma), W a contraction, is at most sqrt(1 - eta))
    and T >= eta / 2 (the traces differ by eta). The sum and 1 - sum round eta by
    at most (k + 1) u, u = 2^-53, so a state fails only where its floor exceeds hi by more."""
    k = rho_w.shape[1]
    eta = 1.0 - float(rho_w.sum(axis=1).min())
    if discrepancies is _sided_infidelities:
        what, floor = "infidelity", eta
    else:
        what, floor = "trace distance", eta / 2.0
    if floor > hi + (k + 1) * np.finfo(float).eps / 2.0:
        raise ValueError(
            f"target {what} {hi:g} lies below {floor:.3g}, the least {what} of any rank-{k} "
            f"estimate: the eigenvalues rho keeps at rank {k} sum to 1 - {eta:.3g}"
        )


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

    The window's lower edge is what stresses downstream bounds; exact equality
    with 1 - eps is measure zero under float arithmetic, so a window is used.
    eps must be at least the 1e-12 resolution floor.
    """
    epsilon = _check_window("infidelity", epsilon)
    _check_perturbable(rho.dim)
    w, v, rngs = rho.eigenvalues[None, : rho.rank], rho.eigenvectors[None], [rng_from_seed(seed)]
    sigma = _calibrated_estimates(w, v, rngs, _sided_infidelities, epsilon / 2.0, epsilon)
    return _density_matrices(*sigma)[0]


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
