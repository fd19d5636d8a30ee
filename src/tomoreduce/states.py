"""Linear-algebra primitives for pure and mixed quantum states.

Pure states live on a bipartite register pair X (dimension r) and Y
(dimension d); a flat state uses dims (1, d). Density matrices carry their
eigendecomposition. All constructors validate normalization, Hermiticity,
and positivity at fixed tolerances, written ``not defect <= tol`` so that a
NaN fails them, and the eigenvectors or factors a state carries are checked
to be orthonormal. Every array held by a state object is frozen after
construction, so instances are safe to share across threads.

A stack kernel on (T, ...) arrays loops over trials only to draw; each other
step is one numpy call per stack that keeps each trial's bits: ``_row_vdots``
and ``_row_norms`` make the BLAS calls of ``np.vdot`` and ``np.linalg.norm``
per row, moduli are ``np.hypot``, and squares of overlaps stay scalar (``pow``).
Each distance between mixed states has one stacked kernel: ``_fidelities``, on
eigenpairs whose eigenvalues at or below RANK_TOL count as 0 (the rule of
``_ranks`` and ``support_projector``), and ``_half_trace_norms``. Every
fidelity that is recorded or decides a landing comes from ``_fidelities``; the
oracle's calibration rungs use a cheaper bounded kernel in ``tomography`` that
only proves on which side of the window a rung lies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import _check_integer, rng_from_seed

__all__ = [
    "NORM_ATOL",
    "RECONSTRUCT_ATOL",
    "RANK_TOL",
    "SCHMIDT_TOL",
    "PureState",
    "DensityMatrix",
    "SchmidtDecomposition",
    "Projector",
    "random_pure_state",
    "random_rank_r_state",
    "partial_trace_x",
    "schmidt_decompose",
    "fidelity_pure_pure",
    "fidelity_mixed",
    "trace_distance",
    "purify",
    "optimal_purification_against",
    "support_projector",
]

NORM_ATOL = 1e-9  # unit norm / unit trace / Hermiticity tolerance
RECONSTRUCT_ATOL = 1e-8  # eigenpair and Schmidt reconstruction tolerance
RANK_TOL = 1e-10  # eigenvalues at or below this do not count toward the rank
SCHMIDT_TOL = 1e-12  # Schmidt coefficients at or below this are dropped
_PHASE_TOL = 1e-12  # amplitudes below this are skipped when fixing the global phase


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit complex amplitude vector on an (r, d) register pair."""

    amplitudes: np.ndarray
    dims: tuple[int, int]

    def __post_init__(self) -> None:
        r, d = self.dims
        r = _check_integer("r", r)
        d = _check_integer("d", d)
        if r < 1 or d < 1:
            raise ValueError(f"register dimensions must be positive, got {self.dims!r}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != r * d:
            raise ValueError(f"expected {r * d} amplitudes, got {amps.size}")
        _check_unit_norms(amps[None])
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "dims", (r, d))

    @property
    def r(self) -> int:
        return self.dims[0]

    @property
    def d(self) -> int:
        return self.dims[1]

    @property
    def total_dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def as_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to an (r, d) coefficient matrix."""
        return self.amplitudes.reshape(self.dims)

    def to_density_matrix(self) -> "DensityMatrix":
        """Rank-1 density matrix on the full r*d-dimensional space."""
        return DensityMatrix.from_eigensystem(
            np.array([1.0]), self.amplitudes.reshape(-1, 1)
        )


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD unit-trace matrix with its eigendecomposition attached.

    ``eigenvalues`` are nonincreasing and ``eigenvectors`` holds the matching
    orthonormal columns. The pair may be truncated (fewer columns than the
    dimension) when the trailing eigenvalues are exactly zero by construction.
    Construction checks Hermiticity, unit trace, the eigenvalue order and
    sign, that the columns are orthonormal (Gram defect within ``NORM_ATOL``)
    and that the pairs reconstruct the matrix.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=complex)
        w = np.asarray(self.eigenvalues, dtype=float).reshape(-1)
        v = np.asarray(self.eigenvectors, dtype=complex)
        _check_density_stack(mat[None], w[None], v[None])
        object.__setattr__(self, "matrix", _frozen(mat))
        object.__setattr__(self, "eigenvalues", _frozen(w))
        object.__setattr__(self, "eigenvectors", _frozen(v))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DensityMatrix":
        """Validate a raw matrix and attach its eigendecomposition."""
        herm, w, v = _from_matrices(np.asarray(matrix, dtype=complex)[None])
        return cls(matrix=herm[0], eigenvalues=w[0], eigenvectors=v[0])

    @classmethod
    def from_eigensystem(cls, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> "DensityMatrix":
        """Build from explicit orthonormal eigenpairs (possibly truncated)."""
        w = np.asarray(eigenvalues, dtype=float).reshape(1, -1)
        v = np.asarray(eigenvectors, dtype=complex)[None]
        return _density_matrices(*_from_eigensystems(w, v))[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        """Number of eigenvalues above the rank tolerance."""
        return int(_ranks(self.eigenvalues[None])[0])


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Coefficients and orthonormal factor pairs of a bipartite pure state."""

    coefficients: np.ndarray  # nonincreasing positive reals, length k
    left_vectors: np.ndarray  # (r, k) orthonormal columns
    right_vectors: np.ndarray  # (d, k) orthonormal columns

    def __post_init__(self) -> None:
        lam = np.asarray(self.coefficients, dtype=float).reshape(-1)
        left = np.asarray(self.left_vectors, dtype=complex)
        right = np.asarray(self.right_vectors, dtype=complex)
        k = lam.size
        if k == 0:
            raise ValueError("at least one Schmidt coefficient is required")
        if left.shape[1] != k or right.shape[1] != k:
            raise ValueError("factor counts do not match the coefficients")
        if np.any(lam <= 0) or (k > 1 and np.any(np.diff(lam) > 0)):
            raise ValueError("coefficients must be positive and nonincreasing")
        if not abs(np.sum(lam**2) - 1.0) <= NORM_ATOL:
            raise ValueError("squared coefficients must sum to 1")
        _check_orthonormal(left[None], "left factors")
        _check_orthonormal(right[None], "right factors")
        object.__setattr__(self, "coefficients", _frozen(lam))
        object.__setattr__(self, "left_vectors", _frozen(left))
        object.__setattr__(self, "right_vectors", _frozen(right))

    @property
    def k(self) -> int:
        return self.coefficients.size

    def reconstruct(self) -> np.ndarray:
        """Coefficient matrix sum_i lambda_i u_i v_i^T, shape (r, d)."""
        return (self.left_vectors * self.coefficients) @ self.right_vectors.T


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector given by an orthonormal basis of its support."""

    basis: np.ndarray  # (dimension, rank) orthonormal columns

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D column stack")
        dim, k = basis.shape
        if not 1 <= k <= dim:
            raise ValueError(f"need 1 <= rank <= dimension, got rank {k}, dimension {dim}")
        _check_orthonormal(basis[None], "basis columns")
        object.__setattr__(self, "basis", _frozen(basis))

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]


# State checks and builders on stacks: a leading axis T indexes independent
# states. The classes above check one state as a stack of one, and a batch of
# trials checks each of its stacks once.


def _groups(keys: np.ndarray) -> list[np.ndarray]:
    """Index arrays of the positions of equal entries of a (T,) array, in order of
    first appearance: not np.unique, whose first use faults about 1.2 MiB in."""
    groups, rest = [], np.arange(len(keys))
    while rest.size:
        same = keys[rest] == keys[rest[0]]
        groups.append(rest[same])
        rest = rest[~same]
    return groups


def _ranks(w: np.ndarray) -> np.ndarray:
    """Numerical ranks of a (T, k) stack of spectra: the eigenvalues above RANK_TOL."""
    return np.count_nonzero(w > RANK_TOL, axis=1)


def _row_vdots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a_t|b_t> for the rows of two (T, n) stacks: per row the BLAS dot that
    ``np.vdot(a_t, b_t)`` calls, on the conjugated row, so bit for bit its value."""
    return (a.conj()[:, None, :] @ b[:, :, None])[:, 0, 0]


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Norms of the rows of a (T, n) complex stack, bit for bit ``np.linalg.norm``
    of each: the dots of the strided ``.real`` and ``.imag`` views, as its 1-D
    path takes them; contiguous copies, or a norm along an axis, round otherwise."""
    dots = [(x[:, None, :] @ x[:, :, None])[:, 0, 0] for x in (a.real, a.imag)]
    return np.sqrt(dots[0] + dots[1])


def _unchecked(cls, **fields):
    """An instance of a frozen state class whose fields a stack check passed."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _check_unit_norms(amps: np.ndarray) -> None:
    """Raise ValueError unless each row of a (T, n) amplitude stack, if any, has unit norm."""
    defect = np.abs(np.linalg.norm(amps, axis=1) - 1.0).max(initial=0.0)
    if not defect <= NORM_ATOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {defect:.3e}")


def _pure_states(amps: np.ndarray, dims: tuple[int, int]) -> list[PureState]:
    """The rows of a (T, r*d) amplitude stack that passed ``_check_unit_norms`` as PureStates."""
    return [_unchecked(PureState, amplitudes=row, dims=dims) for row in _frozen(amps)]


def _phase_normalized(amps: np.ndarray) -> np.ndarray:
    """Rows of a (T, n) stack with their first amplitude above the phase
    tolerance made real nonnegative. The modulus of the pivot is a hypot, the
    scalar ``abs`` of one complex number, which ``np.abs`` of a complex array
    does not reproduce bit for bit."""
    pivot = amps[np.arange(len(amps)), (np.abs(amps) > _PHASE_TOL).argmax(axis=1)]
    return amps * (pivot.conj() / np.hypot(pivot.real, pivot.imag))[:, None]


def _check_hermitian(mat: np.ndarray) -> None:
    if mat.ndim != 3 or mat.shape[1] != mat.shape[2]:
        raise ValueError(f"matrix must be square, got shape {mat.shape[1:]}")
    herm_defect = np.abs(mat - mat.conj().swapaxes(1, 2)).max()
    if not herm_defect <= NORM_ATOL:
        raise ValueError(f"matrix is not Hermitian: defect {herm_defect:.3e}")


def _check_orthonormal(v: np.ndarray, what: str) -> None:
    """Raise ValueError unless each v[t] of a (T, n, k) stack has orthonormal columns."""
    defect = np.abs(v.conj().swapaxes(1, 2) @ v - np.eye(v.shape[2])).max(initial=0.0)
    if not defect <= NORM_ATOL:
        raise ValueError(f"{what} are not orthonormal: defect {defect:.3e}")


def _check_density_stack(mat: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
    """Raise ValueError unless each mat[t] is Hermitian with unit trace and
    (w[t], v[t]) are its eigenpairs, possibly truncated: nonincreasing, not
    negative beyond NORM_ATOL, orthonormal and reconstructing mat[t]."""
    _check_hermitian(mat)
    trace = np.real(np.trace(mat, axis1=1, axis2=2))
    if not np.abs(trace - 1.0).max() <= NORM_ATOL:
        raise ValueError(f"trace must be 1, got {trace[~(np.abs(trace - 1.0) <= NORM_ATOL)][0]!r}")
    if w.ndim != 2 or v.ndim != 3 or v.shape[1] != mat.shape[1] or v.shape[2] != w.shape[1]:
        raise ValueError("eigenvector shape does not match eigenvalues")
    if (w[:, 1:] > w[:, :-1]).any():
        raise ValueError("eigenvalues must be nonincreasing")
    negative = w[:, -1:] < -NORM_ATOL
    if negative.any():
        raise ValueError(f"negative eigenvalue {w[:, -1:][negative][0]!r} beyond tolerance")
    _check_orthonormal(v, "eigenvectors")
    defect = np.abs((v * w[:, None, :]) @ v.conj().swapaxes(1, 2) - mat).max()
    if not defect <= RECONSTRUCT_ATOL:
        raise ValueError(f"eigenpairs do not reconstruct the matrix: defect {defect:.3e}")


def _density_matrices(mat: np.ndarray, w: np.ndarray, v: np.ndarray) -> list[DensityMatrix]:
    """DensityMatrix objects from checked (T, n, n), (T, k) and (T, n, k) stacks."""
    return [
        _unchecked(DensityMatrix, matrix=m, eigenvalues=a, eigenvectors=b)
        for m, a, b in zip(_frozen(mat), _frozen(w), _frozen(v))
    ]


def _from_matrices(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitian part and nonincreasing eigenpairs of a stack of matrices
    that are Hermitian within NORM_ATOL."""
    _check_hermitian(mat)
    herm = (mat + mat.conj().swapaxes(1, 2)) / 2.0
    w, v = np.linalg.eigh(herm)
    return herm, w[:, ::-1].copy(), v[:, :, ::-1].copy()


def _from_eigensystems(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hermitized matrices of a stack of eigenpairs, and the pairs sorted
    nonincreasing, checked as one stack."""
    order = np.argsort(w, axis=1)[:, ::-1]
    stack = np.arange(len(w))[:, None]
    w = w[stack, order]
    v = v[stack[:, :, None], np.arange(v.shape[1])[:, None], order[:, None, :]]
    mat = (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)
    mat = (mat + mat.conj().swapaxes(1, 2)) / 2.0
    _check_density_stack(mat, w, v)
    return mat, w, v


def _reduced_states(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced states on Y of a stack of (r, d) coefficient matrices, as
    (matrix, eigenvalues, eigenvectors) stacks checked as one stack."""
    mat, w, v = _from_matrices(m.swapaxes(1, 2) @ m.conj())
    _check_density_stack(mat, w, v)
    return mat, w, v


def _fidelities(w_a: np.ndarray, v_a: np.ndarray, w_b: np.ndarray, v_b: np.ndarray) -> np.ndarray:
    """F(a, b) for stacks (..., k) and (..., n, k) of the eigenpairs of two
    states, the vectors of both in one orthonormal basis: the squared sum of the
    singular values of diag(sqrt w_a) v_a^H v_b diag(sqrt w_b), capped at 1.
    Eigenvalues at or below RANK_TOL count as 0. Summing along the last axis of
    the contiguous singular values is the pairwise sum one state gets alone."""
    root_a, root_b = (np.sqrt(np.where(w > RANK_TOL, w, 0.0)) for w in (w_a, w_b))
    overlap = v_a.conj().swapaxes(-1, -2) @ v_b
    s = np.linalg.svd(root_a[..., :, None] * overlap * root_b[..., None, :], compute_uv=False)
    return np.minimum(1.0, np.sum(s, axis=-1) ** 2)


def _half_trace_norms(diff: np.ndarray) -> np.ndarray:
    """T = ||diff||_1 / 2, clipped to [0, 1], for a stack (..., n, n) of
    Hermitian differences of states."""
    return np.clip(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1), 0.0, 1.0)


def _overlaps(a: np.ndarray, b: np.ndarray) -> list[float]:
    """|<a_t|b_t>|^2 for the rows of two amplitude stacks: the moduli of
    ``_row_vdots`` as ``np.hypot``, the scalar ``abs``, squared per scalar."""
    dots = _row_vdots(a, b)
    return [min(1.0, x**2) for x in np.hypot(dots.real, dots.imag).tolist()]


def _support_ranks(w: np.ndarray, rank_cap: int) -> np.ndarray:
    """Ranks of the projectors onto the leading eigenvectors of a (T, k) stack
    of spectra under a cap of at least 1."""
    ranks = np.minimum(_ranks(w), rank_cap)
    if not ranks.all():
        raise ValueError("state has no eigenvalue above the rank tolerance")
    return ranks


def _haar_unitaries(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` Haar unitaries, shape (count, dim, dim), from one stacked QR
    of Ginibre matrices; bit for bit ``count`` successive single draws."""
    return _unitaries_from_ginibre(rng.standard_normal((count, 2, dim, dim)))


def _haar_unitary_stack(dim: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """One Haar unitary per generator, shape (len(rngs), dim, dim), from one
    stacked QR; bit for bit each generator's ``_haar_unitaries(dim, 1, rng)``."""
    return _unitaries_from_ginibre(np.array([rng.standard_normal((2, dim, dim)) for rng in rngs]))


def _unitaries_from_ginibre(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from the real and imaginary parts, shape (T, 2, d, d),
    of a stack of Ginibre matrices: the QR factors with R's diagonal phases
    moved into Q."""
    z = (g[:, 0] + 1j * g[:, 1]) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r, axis1=1, axis2=2).copy()
    ph[np.abs(ph) == 0] = 1.0
    ph /= np.abs(ph)
    return q * ph[:, None, :]


def random_pure_state(r: int, d: int, seed) -> PureState:
    """Haar-random unit vector on the (r, d) register pair, deterministic per seed."""
    r = _check_integer("r", r)
    d = _check_integer("d", d)
    if r < 1 or d < 1:
        raise ValueError("register dimensions must be positive")
    return PureState(_random_pure_states(r, d, [rng_from_seed(seed)])[0], (r, d))


def _random_pure_states(r: int, d: int, rngs) -> np.ndarray:
    """Unchecked amplitude rows (T, r*d) of one Haar-random state per
    generator: one draw of the real and imaginary parts per generator."""
    n = r * d
    g = np.array([rng.standard_normal(2 * n) for rng in rngs])
    amps = g[:, :n] + 1j * g[:, n:]
    return _phase_normalized(amps / _row_norms(amps)[:, None])


def random_rank_r_state(d: int, r: int, seed) -> DensityMatrix:
    """Random rank-r mixed state on dimension d.

    Equal by construction to ``partial_trace_x(random_pure_state(r, d, seed))``,
    so the purification behind any draw can be recovered from the same seed.
    """
    d = _check_integer("d", d)
    r = _check_integer("r", r)
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    return partial_trace_x(random_pure_state(r, d, seed))


def partial_trace_x(psi: PureState) -> DensityMatrix:
    """Reduced state on Y: rho[a, b] = sum_x psi[x, a] * conj(psi[x, b])."""
    return _density_matrices(*_reduced_states(psi.as_matrix()[None]))[0]


def schmidt_decompose(psi: PureState) -> SchmidtDecomposition:
    """SVD of the (r, d) coefficient matrix, with near-zero coefficients dropped."""
    u, s, vh = np.linalg.svd(psi.as_matrix(), full_matrices=False)
    k = max(1, int(np.count_nonzero(s > SCHMIDT_TOL)))
    return SchmidtDecomposition(s[:k], u[:, :k], vh[:k].T)


def fidelity_pure_pure(psi: PureState, phi: PureState) -> float:
    """Squared overlap |<phi|psi>|^2; symmetric and global-phase invariant."""
    if psi.total_dim != phi.total_dim:
        raise ValueError("dimension mismatch")
    return _overlaps(phi.amplitudes[None], psi.amplitudes[None])[0]


def fidelity_mixed(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Squared-convention fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Computed by ``_fidelities`` from rho's eigenpairs cut to its rank and
    sigma's stored pairs, so eigenvalues at or below RANK_TOL count as 0. Equals
    1 exactly when the states coincide and |<phi|psi>|^2 on pure inputs.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    k = rho.rank
    w, v = rho.eigenvalues[None, :k], rho.eigenvectors[None, :, :k]
    return float(_fidelities(w, v, sigma.eigenvalues[None], sigma.eigenvectors[None])[0])


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of the absolute eigenvalues of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return float(_half_trace_norms((rho.matrix - sigma.matrix)[None])[0])


def purify(sigma: DensityMatrix, purifier_dim: int) -> PureState:
    """Canonical purification sum_i sqrt(mu_i) |i> (x) |w_i> on (purifier_dim, d)."""
    purifier_dim = _check_integer("purifier_dim", purifier_dim)
    return PureState(_purification(sigma, purifier_dim).reshape(-1), (purifier_dim, sigma.dim))


def _purification(sigma: DensityMatrix, purifier_dim: int) -> np.ndarray:
    """purify's coefficient matrix, phase-normalized and unchecked."""
    if purifier_dim < sigma.rank:
        raise ValueError(
            f"purifier dimension {purifier_dim} is below the state's rank {sigma.rank}"
        )
    k = sigma.rank
    mu = np.clip(sigma.eigenvalues[:k], 0.0, None)
    m = np.zeros((purifier_dim, sigma.dim), dtype=complex)
    m[:k] = np.sqrt(mu)[:, None] * sigma.eigenvectors[:, :k].T
    m /= np.linalg.norm(m)
    return _phase_normalized(m.reshape(1, -1)).reshape(purifier_dim, sigma.dim)


def optimal_purification_against(sigma: DensityMatrix, psi: PureState) -> PureState:
    """Purification of sigma on psi's register pair with maximal overlap to psi.

    The canonical purification is rotated on the purifying register so that
    the overlap matrix's singular values add up coherently, which attains
    ``fidelity_mixed(partial_trace_x(psi), sigma)`` as |<psi|phi>|^2.
    """
    r, d = psi.dims
    if sigma.dim != d:
        raise ValueError("dimension mismatch")
    if sigma.rank > r:
        raise ValueError(
            f"purifying register of dimension {r} cannot hold a rank-{sigma.rank} state"
        )
    phi0 = _purification(sigma, r)
    c = phi0 @ psi.as_matrix().conj().T  # c[y, x] = sum_a conj(psi[x,a]) phi0[y,a]
    w, _, vh = np.linalg.svd(c)
    u_opt = vh.conj().T @ w.conj().T
    return PureState(_phase_normalized((u_opt @ phi0).reshape(1, -1))[0], (r, d))


def support_projector(sigma: DensityMatrix, rank_cap: int) -> Projector:
    """Projector onto the span of sigma's leading eigenvectors.

    Eigenvalues at or below the rank tolerance are excluded, so a state of
    lower numerical rank yields a lower-rank projector rather than one padded
    with arbitrary directions.
    """
    rank_cap = _check_integer("rank_cap", rank_cap)
    if rank_cap < 1:
        raise ValueError("rank cap must be at least 1")
    return Projector(sigma.eigenvectors[:, : _support_ranks(sigma.eigenvalues[None], rank_cap)[0]])
