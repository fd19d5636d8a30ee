"""Linear-algebra primitives for pure and mixed quantum states.

Pure states live on a bipartite register pair X (dimension r) and Y
(dimension d); a flat state uses dims (1, d). Density matrices carry their
eigendecomposition. All constructors validate normalization, Hermiticity,
and positivity at fixed tolerances, written ``not defect <= tol`` so that a
NaN fails them, and the eigenvectors or factors a state carries are checked
to be orthonormal. Every array held by a state object is frozen after
construction, so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .seeding import rng_from_seed

__all__ = [
    "NORM_ATOL",
    "RECONSTRUCT_ATOL",
    "RANK_TOL",
    "SCHMIDT_TOL",
    "PureState",
    "DensityMatrix",
    "SchmidtDecomposition",
    "Projector",
    "haar_random_unitary",
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
        if r < 1 or d < 1:
            raise ValueError(f"register dimensions must be positive, got {self.dims!r}")
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != r * d:
            raise ValueError(f"expected {r * d} amplitudes, got {amps.size}")
        _check_unit_norms(amps[None])
        object.__setattr__(self, "amplitudes", _frozen(amps))
        object.__setattr__(self, "dims", (int(r), int(d)))

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
        mat, w, v = _from_eigensystems(w, np.asarray(eigenvectors, dtype=complex)[None])
        return cls(matrix=mat[0], eigenvalues=w[0], eigenvectors=v[0])

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        """Number of eigenvalues above the rank tolerance."""
        return int(np.count_nonzero(self.eigenvalues > RANK_TOL))

    def sqrt_matrix(self) -> np.ndarray:
        """Principal square root, with rounding-noise negatives clamped to 0."""
        return _sqrt_matrices(self.eigenvalues[None], self.eigenvectors[None])[0]


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


def _groups(keys) -> list[np.ndarray]:
    """Index arrays of the positions of equal keys, in order of first appearance."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return [np.array(idx) for idx in groups.values()]


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
    """The rows of a (T, r*d) amplitude stack as PureStates, checked as one stack."""
    _check_unit_norms(amps)
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
    """DensityMatrix objects from (T, n, n), (T, k) and (T, n, k) stacks,
    checked as one stack."""
    _check_density_stack(mat, w, v)
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
    """Hermitized matrices of a stack of eigenpairs, and the pairs sorted nonincreasing."""
    order = np.argsort(w, axis=1)[:, ::-1]
    stack = np.arange(len(w))[:, None]
    w = w[stack, order]
    v = v[stack[:, :, None], np.arange(v.shape[1])[:, None], order[:, None, :]]
    mat = (v * w[:, None, :]) @ v.conj().swapaxes(1, 2)
    return (mat + mat.conj().swapaxes(1, 2)) / 2.0, w, v


def _reduced_states(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduced states on Y of a stack of (r, d) coefficient matrices, as
    (matrix, eigenvalues, eigenvectors) stacks."""
    return _from_matrices(m.swapaxes(1, 2) @ m.conj())


def _sqrt_matrices(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Principal square roots from eigenpair stacks, rounding-noise negatives clamped to 0."""
    return (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(1, 2)


def _fidelities(root_rho: np.ndarray, root_sigma: np.ndarray) -> list[float]:
    """F(rho_t, sigma_t) from stacks of square roots: the squared nuclear norm
    of their product. The sum of each row of singular values is taken alone,
    so a stack gives the bits of one pair at a time."""
    s = np.linalg.svd(root_rho @ root_sigma, compute_uv=False)
    return [min(1.0, float(np.sum(row)) ** 2) for row in s]


def _overlaps(a: np.ndarray, b: np.ndarray) -> list[float]:
    """|<a_t|b_t>|^2 for the rows of two amplitude stacks, one vdot per row."""
    return [float(min(1.0, abs(np.vdot(x, y)) ** 2)) for x, y in zip(a, b)]


def _support_rank(sigma: DensityMatrix, rank_cap: int) -> int:
    """Rank of the projector onto sigma's leading eigenvectors under a cap of at least 1."""
    k = min(sigma.rank, rank_cap)
    if k < 1:
        raise ValueError("state has no eigenvalue above the rank tolerance")
    return k


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


def haar_random_unitary(dim: int, seed) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise ValueError("dimension must be positive")
    return _haar_unitaries(dim, 1, rng_from_seed(seed))[0]


def random_pure_state(r: int, d: int, seed) -> PureState:
    """Haar-random unit vector on the (r, d) register pair, deterministic per seed."""
    return _random_pure_states(r, d, [rng_from_seed(seed)])[0]


def _random_pure_states(r: int, d: int, rngs) -> list[PureState]:
    """One Haar-random state per generator, checked as one stack."""
    if r < 1 or d < 1:
        raise ValueError("register dimensions must be positive")
    rows = []
    for rng in rngs:
        amps = rng.standard_normal(r * d) + 1j * rng.standard_normal(r * d)
        rows.append(amps / np.linalg.norm(amps))
    return _pure_states(_phase_normalized(np.array(rows)), (r, d))


def random_rank_r_state(d: int, r: int, seed) -> DensityMatrix:
    """Random rank-r mixed state on dimension d.

    Equal by construction to ``partial_trace_x(random_pure_state(r, d, seed))``,
    so the purification behind any draw can be recovered from the same seed.
    """
    if not 1 <= r <= d:
        raise ValueError(f"need 1 <= r <= d, got r={r}, d={d}")
    return partial_trace_x(random_pure_state(r, d, seed))


def partial_trace_x(psi: PureState) -> DensityMatrix:
    """Reduced state on Y: rho[a, b] = sum_x psi[x, a] * conj(psi[x, b])."""
    mat, w, v = _reduced_states(psi.as_matrix()[None])
    return DensityMatrix(matrix=mat[0], eigenvalues=w[0], eigenvectors=v[0])


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

    Computed as the squared nuclear norm of sqrt(rho) @ sqrt(sigma), which is
    the same quantity and symmetric in the arguments. Equals 1 exactly when
    the states coincide and |<phi|psi>|^2 on pure inputs.
    """
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    return _fidelities(rho.sqrt_matrix()[None], sigma.sqrt_matrix()[None])[0]


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of the absolute eigenvalues of rho - sigma."""
    if rho.dim != sigma.dim:
        raise ValueError("dimension mismatch")
    w = np.linalg.eigvalsh(rho.matrix - sigma.matrix)
    return float(np.clip(0.5 * np.sum(np.abs(w)), 0.0, 1.0))


def purify(sigma: DensityMatrix, purifier_dim: int) -> PureState:
    """Canonical purification sum_i sqrt(mu_i) |i> (x) |w_i> on (purifier_dim, d)."""
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
    if rank_cap < 1:
        raise ValueError("rank cap must be at least 1")
    return Projector(sigma.eigenvectors[:, : _support_rank(sigma, rank_cap)])
