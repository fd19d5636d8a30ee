"""Independent numerical oracles used by the test suite.

Everything here is written against raw numpy arrays and deliberately avoids
the library's own fidelity/purification code paths, so it can serve as a
second opinion on them.
"""

from __future__ import annotations

import numpy as np


def eigh_desc(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    w, v = np.linalg.eigh(mat)
    return w[::-1], v[:, ::-1]


def canonical_purification(sigma_mat: np.ndarray, purifier_dim: int) -> np.ndarray:
    """(purifier_dim, d) coefficient matrix of a purification of sigma."""
    w, v = eigh_desc(sigma_mat)
    w = np.clip(w, 0.0, None)
    out = np.zeros((purifier_dim, sigma_mat.shape[0]), dtype=complex)
    k = min(purifier_dim, sigma_mat.shape[0])
    out[:k] = np.sqrt(w[:k])[:, None] * v[:, :k].T
    return out / np.linalg.norm(out)


def _random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r).copy()
    ph[np.abs(ph) == 0] = 1.0
    return q * (ph / np.abs(ph))


def _ascend(c: np.ndarray, u: np.ndarray, iters: int) -> np.ndarray:
    """Hill-climb |tr(U C)|^2 from each unitary of the (R, d, d) stack along
    geodesics U exp(t*Om); returns the R climbed values. A restart retires
    when its ascent direction vanishes or no step of the ladder improves it."""
    z = np.trace(u @ c, axis1=1, axis2=2)
    f = np.abs(z) ** 2
    steps = (1.0, 0.5, 0.25, 0.1, 0.05, 0.02, 0.005, 0.001)
    active = np.arange(len(u))
    for _ in range(iters):
        m = c @ u[active]
        x = np.conj(z[active])[:, None, None] * m
        om = -(x - x.conj().swapaxes(1, 2)) / 2.0  # steepest anti-Hermitian ascent direction
        norm = np.linalg.norm(om, axis=(1, 2))
        moving = norm >= 1e-14
        active, om = active[moving], om[moving] / norm[moving, None, None]
        lam, q = np.linalg.eigh(-1j * om)  # om = i * herm, exp via eigenphases
        qh = q.conj().swapaxes(1, 2)
        searching = np.arange(len(active))  # positions in active still trying a step
        for t in steps:
            e = q[searching] @ (np.exp(1j * t * lam[searching])[:, :, None] * qh[searching])
            idx = active[searching]
            u_new = u[idx] @ e
            z_new = np.trace(u_new @ c, axis1=1, axis2=2)
            better = np.abs(z_new) ** 2 > f[idx] + 1e-15
            took = idx[better]
            u[took], z[took], f[took] = u_new[better], z_new[better], np.abs(z_new[better]) ** 2
            searching = searching[~better]
        active = np.delete(active, searching)
        if active.size == 0:
            break
    return f


def uhlmann_fidelity_search(
    rho_mat: np.ndarray,
    sigma_mat: np.ndarray,
    restarts: int = 200,
    iters: int = 80,
    seed: int = 0,
) -> float:
    """Brute-force max of |<psi|phi>|^2 over purifications of sigma.

    psi is a fixed purification of rho; phi ranges over (U (x) I) phi0 for
    unitaries U on the purifying register, optimized by random-restart
    geodesic hill climbing, all restarts climbing as one stack. The overlap
    reduces to tr(U C) for the fixed overlap matrix C of the two canonical
    purifications.
    """
    d = rho_mat.shape[0]
    psi = canonical_purification(rho_mat, d)
    phi0 = canonical_purification(sigma_mat, d)
    c = phi0 @ psi.conj().T  # c[y, x] = sum_a conj(psi[x, a]) phi0[y, a]
    rng = np.random.default_rng(seed)
    starts = [np.eye(d, dtype=complex)] + [_random_unitary(d, rng) for _ in range(restarts - 1)]
    return float(_ascend(c, np.array(starts), iters).max())


def factor_fidelity(coefficients: np.ndarray, sigma_mat: np.ndarray, rank_tol: float) -> float:
    """F(rho, sigma) for rho = A A^H, A the transpose of psi's (r, d) coefficient
    matrix, by Uhlmann's theorem on factors: with B = V sqrt(w) from sigma's
    eigenpairs above rank_tol, F = (sum of the singular values of A^H B)^2. No
    eigendecomposition of rho is taken."""
    w, v = eigh_desc(sigma_mat)
    keep = w > rank_tol
    b = v[:, keep] * np.sqrt(w[keep])
    return float(np.linalg.svd(coefficients.conj() @ b, compute_uv=False).sum() ** 2)


def random_density_matrix(d: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-capped density matrix built directly from Gaussian factors."""
    a = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    mat = a @ a.conj().T
    return mat / np.real(np.trace(mat))


# The check of a report's chain behind each verdict column of a chain record,
# written out here apart from the library's row builder.
VERDICT_CHECKS = {
    "keep_vs_mixed_fidelity_ok": "keep_vs_mixed_fidelity",
    "keep_vs_epsilon_ok": "keep_vs_epsilon",
    "projection_identity_ok": "projection_identity",
    "final_vs_guaranteed_ok": "final_vs_guaranteed_bound",
    "final_vs_tightened_holds": "final_vs_tightened_bound",
}


def report_columns(report, columns) -> list[tuple]:
    """(column, type, value) of each chain record column a ReductionReport
    holds, in the given order: a verdict from the report's chain by check name
    (None where the check is absent or does not apply), any other column the
    attribute of its name. guaranteed_bound and error are not report values."""
    checks = {c.name: c for c in report.chain}
    out = []
    for column in columns:
        if column in ("guaranteed_bound", "error"):
            continue
        if column in VERDICT_CHECKS:
            check = checks.get(VERDICT_CHECKS[column])
            value = check.satisfied if check is not None and check.applicable else None
        else:
            value = getattr(report, column)
        out.append((column, type(value), value))
    return out


# The composition search built from vectors, the reference for the law that
# proposition_search draws each triple's overlap from: psi Haar, phi_t and phi
# rotated from psi and phi_t toward Haar unit vectors of their orthogonal
# complements, held as (m, d) rows, ROW_BATCH triples at a time.
ROW_BATCH = 16384


def _random_unit_rows(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    z = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def _orthogonal_unit_rows(rng: np.random.Generator, base: np.ndarray) -> np.ndarray:
    m, d = base.shape
    z = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
    ip = np.sum(base.conj() * z, axis=1)
    z = z - ip[:, None] * base
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    return z / np.maximum(norms, 1e-300)


def _rotate_toward_orthogonal(
    rng: np.random.Generator, base: np.ndarray, eta: float, edge: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    m = base.shape[0]
    chi = _orthogonal_unit_rows(rng, base)
    a = np.full(m, 1.0 - eta) if edge else rng.uniform(1.0 - eta, 1.0, m)
    th = rng.uniform(0.0, 2.0 * np.pi, m)
    rotated = np.exp(1j * th)[:, None] * (a[:, None] * base + np.sqrt(1.0 - a**2)[:, None] * chi)
    return rotated, chi, a


def composition_rows(d: int, eta: float, count: int, seed: int, edge: bool):
    """The moduli a and b, the phase theta_1 of <psi|phi_t>, w = <u|chi_2>, u the
    unit vector of phi_t's complement in span{psi, chi_1}, and the overlap
    c = |<phi|psi>| of count triples built from vectors, with a and b all pinned
    at 1 - eta when edge, else none."""
    rng = np.random.default_rng(seed)
    parts = []
    for start in range(0, count, ROW_BATCH):
        m = min(ROW_BATCH, count - start)
        psi = _random_unit_rows(rng, m, d)
        phi_t, _, a = _rotate_toward_orthogonal(rng, psi, eta, edge)
        phi, chi_2, b = _rotate_toward_orthogonal(rng, phi_t, eta, edge)
        c = np.abs(np.sum(phi.conj() * psi, axis=1))
        ip = np.sum(phi_t.conj() * psi, axis=1)  # a e^(-i theta_1)
        u = psi - ip[:, None] * phi_t
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        w = np.sum(u.conj() * chi_2, axis=1)
        parts.append((a, b, -np.angle(ip), w, c))
    return tuple(np.concatenate(column) for column in zip(*parts))


def proposition_search_rows(d: int, eta: float, count: int, seed: int, edge: bool):
    """The overlap c and |w|^2 of ``composition_rows``."""
    _, _, _, w, c = composition_rows(d, eta, count, seed, edge)
    return c, np.abs(w) ** 2
