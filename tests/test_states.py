"""Tests for the state primitives."""

import numpy as np
import pytest

from tomoreduce import (
    DensityMatrix,
    Projector,
    PureState,
    SchmidtDecomposition,
    child_seed,
    estimate_mixed_state_from_measurements,
    estimate_pure_state_from_measurements,
    fidelity_mixed,
    fidelity_pure_pure,
    optimal_purification_against,
    oracle_mixed_estimate,
    partial_trace_x,
    purify,
    random_pure_state,
    random_rank_r_state,
    rng_from_seed,
    schmidt_decompose,
    support_projector,
    trace_distance,
)

from tomoreduce import states
from tomoreduce.reduction import CHAIN_SLACK
from tomoreduce.states import (
    RANK_TOL,
    _haar_unitaries,
    _phase_normalized,
    _random_pure_states,
    _row_norms,
    _row_vdots,
)

from oracles import factor_fidelity, random_density_matrix


def bell_state() -> PureState:
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


def product_state(u: np.ndarray, v: np.ndarray, dims) -> PureState:
    return PureState(np.kron(u, v), dims)


def projector_matrix(pi: Projector) -> np.ndarray:
    return pi.basis @ pi.basis.conj().T


class TestPureState:
    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError):
            random_pure_state(0, 3, 1)
        with pytest.raises(ValueError):
            PureState(np.array([1.0]), (1, 0))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            PureState(np.array([1.0, 1.0]), (1, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="amplitudes"):
            PureState(np.array([1.0, 0.0, 0.0]), (2, 2))

    def test_amplitudes_frozen(self):
        psi = random_pure_state(2, 2, 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0.0

    def test_scalar_state_is_unimodular(self):
        psi = random_pure_state(1, 1, 12345)
        assert abs(abs(psi.amplitudes[0]) - 1.0) < 1e-12
        # phase convention pins it to exactly +1
        assert abs(psi.amplitudes[0] - 1.0) < 1e-12

    def test_deterministic_per_seed(self):
        a = random_pure_state(2, 2, seed=7)
        b = random_pure_state(2, 2, seed=7)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_haar_marginal_mean(self):
        # E[|amp_0|^2] = 1/(r*d) for Haar states
        acc = 0.0
        draws = 10_000
        for t in range(draws):
            acc += abs(random_pure_state(2, 2, child_seed(42, t)).amplitudes[0]) ** 2
        assert abs(acc / draws - 0.25) < 0.02

    def test_phase_convention(self):
        for t in range(20):
            psi = random_pure_state(2, 3, child_seed(9, t))
            pivot = psi.amplitudes[np.flatnonzero(np.abs(psi.amplitudes) > 1e-12)[0]]
            assert abs(pivot.imag) < 1e-12
            assert pivot.real >= 0


class TestIntegerRule:
    # each entry raised TypeError from inside numpy on a float, and PureState
    # took (2.0, 3) and (True, 6), the latter as dims (1, 6)
    SIGMA = random_rank_r_state(3, 1, seed=0)
    ENTRIES = {
        "random_pure_state r": ("r", lambda x: random_pure_state(x, 3, 0)),
        "random_pure_state d": ("d", lambda x: random_pure_state(2, x, 0)),
        "random_rank_r_state d": ("d", lambda x: random_rank_r_state(x, 1, 0)),
        "random_rank_r_state r": ("r", lambda x: random_rank_r_state(3, x, 0)),
        "purify": ("purifier_dim", lambda x: purify(TestIntegerRule.SIGMA, x)),
        "support_projector": ("rank_cap", lambda x: support_projector(TestIntegerRule.SIGMA, x)),
        "PureState r": ("r", lambda x: PureState(np.ones(6) / np.sqrt(6), (x, 3 if x != 1 else 6))),
        "PureState d": ("d", lambda x: PureState(np.ones(6) / np.sqrt(6), (3 if x != 1 else 6, x))),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("value", [2.0, 1.5, True])
    def test_rejects_values_that_are_not_integers(self, entry, value):
        name, call = self.ENTRIES[entry]
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            call(value)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_accepts_numpy_integers(self, entry):
        _, call = self.ENTRIES[entry]
        call(np.int64(2))


class TestRandomRankRState:
    def test_rank_one_is_pure(self):
        rho = random_rank_r_state(3, 1, seed=11)
        assert rho.eigenvalues[0] == pytest.approx(1.0, abs=1e-9)

    def test_trace_and_positivity(self):
        rho = random_rank_r_state(2, 2, seed=5)
        assert np.real(np.trace(rho.matrix)) == pytest.approx(1.0, abs=1e-9)
        assert rho.eigenvalues.min() >= -1e-9

    def test_rank_matches_independent_svd(self):
        # rank via eigenvalue threshold == rank of the purification's
        # coefficient matrix, computed with a plain SVD
        seed = 321
        rho = random_rank_r_state(4, 2, seed)
        coeff = random_pure_state(2, 4, seed).as_matrix()  # documented purification
        sv = np.linalg.svd(coeff, compute_uv=False)
        assert rho.rank == int(np.count_nonzero(sv**2 > 1e-10)) == 2

    def test_rejects_rank_above_dimension(self):
        with pytest.raises(ValueError):
            random_rank_r_state(2, 3, seed=0)


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix.from_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix.from_matrix(np.eye(2))

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix.from_matrix(np.diag([1.5, -0.5]))

    def test_eigenpairs_reconstruct(self):
        rho = random_rank_r_state(4, 3, seed=8)
        recon = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
        assert np.max(np.abs(recon - rho.matrix)) < 1e-8

    def test_matrix_frozen(self):
        rho = random_rank_r_state(2, 1, seed=3)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_rejects_non_orthonormal_eigenvectors(self):
        # two copies of |0>: trace 1 and Hermitian, but not an eigensystem of rank 2
        with pytest.raises(ValueError, match="orthonormal"):
            DensityMatrix.from_eigensystem(np.array([0.5, 0.5]), np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_rank_follows_eigenvalues(self):
        # the rank is derived from the eigenvalues and cannot be supplied
        w = np.array([0.5, 0.5])
        with pytest.raises(TypeError):
            DensityMatrix(matrix=np.eye(2) / 2, eigenvalues=w, eigenvectors=np.eye(2), rank=7)
        rho = DensityMatrix(matrix=np.eye(2) / 2, eigenvalues=w, eigenvectors=np.eye(2))
        assert rho.rank == 2
        assert DensityMatrix.from_matrix(np.diag([1.0, 0.0])).rank == 1


NAN = float("nan")


class TestRejectsNan:
    # every tolerance check is written so that a NaN defect fails it

    @pytest.mark.parametrize("amps", [[NAN, 0.0], [1.0, NAN]])
    def test_pure_state(self, amps):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array(amps), (1, 2))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: DensityMatrix.from_matrix(np.diag([NAN, NAN])),
            lambda: DensityMatrix.from_matrix(np.array([[0.5, NAN], [NAN, 0.5]])),
            lambda: DensityMatrix(np.eye(2) / 2, np.array([NAN, 0.5]), np.eye(2)),
        ],
    )
    def test_density_matrix(self, build):
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("basis", [[[NAN], [0.0]], [[1.0, NAN], [0.0, 1.0]]])
    def test_projector(self, basis):
        with pytest.raises(ValueError, match="orthonormal"):
            Projector(np.array(basis))

    @pytest.mark.parametrize(
        "factors", [([NAN], [[1.0]], [[1.0]]), ([1.0], [[NAN]], [[1.0]]), ([1.0], [[1.0]], [[NAN]])]
    )
    def test_schmidt_decomposition(self, factors):
        with pytest.raises(ValueError):
            SchmidtDecomposition(*factors)


class TestPartialTrace:
    def test_product_state(self):
        u = np.array([1, 1j]) / np.sqrt(2)
        v = np.array([0, 1, 0], dtype=complex)
        rho = partial_trace_x(product_state(u, v, (2, 3)))
        np.testing.assert_allclose(rho.matrix, np.outer(v, v.conj()), atol=1e-12)

    def test_bell_state_is_maximally_mixed(self):
        rho = partial_trace_x(bell_state())
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-12)

    def test_eigenvalues_equal_squared_schmidt_coefficients(self):
        psi = random_pure_state(2, 3, seed=77)
        rho = partial_trace_x(psi)
        lam = schmidt_decompose(psi).coefficients
        np.testing.assert_allclose(rho.eigenvalues[: lam.size], lam**2, atol=1e-8)
        np.testing.assert_allclose(rho.eigenvalues[lam.size :], 0.0, atol=1e-8)


class TestSchmidtDecompose:
    def test_product_state_single_coefficient(self):
        u = np.array([1, 0], dtype=complex)
        v = np.array([1, 1], dtype=complex) / np.sqrt(2)
        sd = schmidt_decompose(product_state(u, v, (2, 2)))
        assert sd.k == 1
        assert sd.coefficients[0] == pytest.approx(1.0, abs=1e-12)

    def test_bell_state_coefficients(self):
        sd = schmidt_decompose(bell_state())
        np.testing.assert_allclose(sd.coefficients, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_reconstruction_and_svd_oracle(self):
        psi = random_pure_state(3, 5, seed=13)
        sd = schmidt_decompose(psi)
        assert np.max(np.abs(sd.reconstruct() - psi.as_matrix())) < 1e-8
        sv = np.linalg.svd(psi.as_matrix(), compute_uv=False)
        np.testing.assert_allclose(sd.coefficients, sv[: sd.k], atol=1e-10)

    def test_factors_orthonormal(self):
        sd = schmidt_decompose(random_pure_state(3, 4, seed=2))
        k = sd.k
        np.testing.assert_allclose(sd.left_vectors.conj().T @ sd.left_vectors, np.eye(k), atol=1e-9)
        np.testing.assert_allclose(sd.right_vectors.conj().T @ sd.right_vectors, np.eye(k), atol=1e-9)


class TestFidelityPurePure:
    def test_self_fidelity(self):
        psi = random_pure_state(1, 4, seed=1)
        assert fidelity_pure_pure(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        e0 = PureState(np.array([1, 0, 0]), (1, 3))
        e1 = PureState(np.array([0, 1, 0]), (1, 3))
        assert fidelity_pure_pure(e0, e1) == 0.0

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(4)
        psi = random_pure_state(2, 2, seed=4)
        for _ in range(10):
            theta = rng.uniform(0, 2 * np.pi)
            rotated = PureState(np.exp(1j * theta) * psi.amplitudes, psi.dims)
            assert fidelity_pure_pure(psi, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_pure_pure(random_pure_state(1, 2, 0), random_pure_state(1, 3, 0))


class TestFidelityPureMixed:
    # a pure first argument: F(psi psi^dagger, sigma) = <psi|sigma|psi>
    def test_own_projector(self):
        psi = random_pure_state(1, 3, seed=6)
        rho = psi.to_density_matrix()
        assert fidelity_mixed(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        e0 = PureState(np.array([1, 0, 0, 0]), (1, 4))
        mixed = DensityMatrix.from_matrix(np.eye(4) / 4)
        assert fidelity_mixed(e0.to_density_matrix(), mixed) == pytest.approx(0.25, abs=1e-12)

    def test_agrees_with_general_formula(self):
        rng = np.random.default_rng(15)
        for t in range(10):
            psi = random_pure_state(1, 4, child_seed(15, t))
            sigma = DensityMatrix.from_matrix(random_density_matrix(4, 3, rng))
            expectation = np.real(np.vdot(psi.amplitudes, sigma.matrix @ psi.amplitudes))
            assert fidelity_mixed(psi.to_density_matrix(), sigma) == pytest.approx(
                expectation, abs=1e-8
            )


class TestFidelityMixed:
    def test_self_fidelity(self):
        rho = random_rank_r_state(3, 2, seed=9)
        assert fidelity_mixed(rho, rho) == pytest.approx(1.0, abs=1e-8)

    def test_commuting_diagonal_states(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.1, 0.6, 0.3])
        f = fidelity_mixed(DensityMatrix.from_matrix(np.diag(p)), DensityMatrix.from_matrix(np.diag(q)))
        assert f == pytest.approx(float(np.sum(np.sqrt(p * q)) ** 2), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = DensityMatrix.from_matrix(random_density_matrix(3, 3, rng))
            b = DensityMatrix.from_matrix(random_density_matrix(3, 2, rng))
            assert fidelity_mixed(a, b) == pytest.approx(fidelity_mixed(b, a), abs=1e-8)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(22)
        a = DensityMatrix.from_matrix(random_density_matrix(4, 2, rng))
        b = DensityMatrix.from_matrix(random_density_matrix(4, 4, rng))
        f = fidelity_mixed(a, b)
        for t in range(5):
            u = _haar_unitaries(4, 1, rng_from_seed(child_seed(22, t)))[0]
            fa = DensityMatrix.from_matrix(u @ a.matrix @ u.conj().T)
            fb = DensityMatrix.from_matrix(u @ b.matrix @ u.conj().T)
            assert fidelity_mixed(fa, fb) == pytest.approx(f, abs=1e-8)

    def test_matches_pure_overlap_on_pure_inputs(self):
        psi = random_pure_state(1, 3, seed=30)
        phi = random_pure_state(1, 3, seed=31)
        assert fidelity_mixed(psi.to_density_matrix(), phi.to_density_matrix()) == pytest.approx(
            fidelity_pure_pure(psi, phi), abs=1e-8
        )

    @pytest.mark.parametrize("r, d", [(1, 4), (2, 4), (3, 8), (2, 16)])
    def test_matches_factor_form_on_stage_one_estimates(self, r, d):
        # F from psi's coefficients, never from rho's eigenpairs, against the
        # oracle's estimates down to its 1e-12 floor, linear inversion and an
        # arbitrary sigma of rank <= r, whose stored matrix has ~1e-16 noise
        # eigenvalues: the square-root form lifted them to ~1e-8
        rng = np.random.default_rng(child_seed(70, r, d))
        for t in range(3):
            psi = random_pure_state(r, d, child_seed(71, r, d, t))
            rho = partial_trace_x(psi)
            sigmas = [
                oracle_mixed_estimate(rho, eps, child_seed(72, r, d, t, i))
                for i, eps in enumerate((0.1, 1e-6, 1e-10, 1e-12))
            ]
            sigmas.append(
                estimate_mixed_state_from_measurements(rho, r, 10 * d * d, child_seed(73, r, d, t))
            )
            rank = int(rng.integers(1, r + 1))
            sigmas.append(DensityMatrix.from_matrix(random_density_matrix(d, rank, rng)))
            for sigma in sigmas:
                reference = factor_fidelity(psi.as_matrix(), sigma.matrix, RANK_TOL)
                assert abs(fidelity_mixed(rho, sigma) - reference) <= 1e-14


class TestTraceDistance:
    def test_zero_on_equal(self):
        rho = random_rank_r_state(3, 3, seed=14)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_one_on_orthogonal_pure(self):
        a = PureState(np.array([1, 0]), (1, 2)).to_density_matrix()
        b = PureState(np.array([0, 1]), (1, 2)).to_density_matrix()
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_fuchs_van_de_graaf(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            a = DensityMatrix.from_matrix(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
            b = DensityMatrix.from_matrix(random_density_matrix(d, int(rng.integers(1, d + 1)), rng))
            f = fidelity_mixed(a, b)
            t = trace_distance(a, b)
            assert 1 - np.sqrt(f) <= t + 1e-8
            assert t <= np.sqrt(1 - f) + 1e-8


class TestPurify:
    def test_pure_state_gives_product(self):
        psi = random_pure_state(1, 3, seed=41)
        out = purify(psi.to_density_matrix(), purifier_dim=2)
        assert schmidt_decompose(out).k == 1

    def test_maximally_mixed_gives_maximally_entangled(self):
        out = purify(DensityMatrix.from_matrix(np.eye(2) / 2), purifier_dim=2)
        np.testing.assert_allclose(
            schmidt_decompose(out).coefficients, [1 / np.sqrt(2)] * 2, atol=1e-9
        )

    def test_round_trip(self):
        sigma = random_rank_r_state(4, 2, seed=55)
        out = purify(sigma, purifier_dim=2)
        assert np.max(np.abs(partial_trace_x(out).matrix - sigma.matrix)) < 1e-8

    def test_round_trip_with_larger_purifier(self):
        sigma = random_rank_r_state(3, 2, seed=56)
        out = purify(sigma, purifier_dim=5)
        assert np.max(np.abs(partial_trace_x(out).matrix - sigma.matrix)) < 1e-8

    def test_rejects_small_purifier(self):
        sigma = random_rank_r_state(4, 3, seed=57)
        with pytest.raises(ValueError, match="rank"):
            purify(sigma, purifier_dim=2)


class TestOptimalPurificationAgainst:
    def test_self_fidelity(self):
        psi = random_pure_state(2, 4, seed=60)
        phi = optimal_purification_against(partial_trace_x(psi), psi)
        assert fidelity_pure_pure(psi, phi) == pytest.approx(1.0, abs=1e-8)

    def test_orthogonal_support(self):
        psi = product_state(np.array([1, 0]), np.array([1, 0, 0]), (2, 3))
        sigma = PureState(np.array([0, 1, 0]), (1, 3)).to_density_matrix()
        phi = optimal_purification_against(sigma, psi)
        assert fidelity_pure_pure(psi, phi) == pytest.approx(0.0, abs=1e-10)

    def test_achieves_uhlmann_fidelity(self):
        for t in range(20):
            psi = random_pure_state(2, 4, child_seed(61, t))
            sigma = random_rank_r_state(4, 2, child_seed(62, t))
            phi = optimal_purification_against(sigma, psi)
            achieved = fidelity_pure_pure(psi, phi)
            target = fidelity_mixed(partial_trace_x(psi), sigma)
            assert achieved == pytest.approx(target, abs=CHAIN_SLACK)
            # phi purifies sigma
            assert np.max(np.abs(partial_trace_x(phi).matrix - sigma.matrix)) < 1e-8

    def test_rejects_rank_above_register(self):
        psi = random_pure_state(2, 4, seed=63)
        sigma = random_rank_r_state(4, 3, seed=64)
        with pytest.raises(ValueError, match="rank"):
            optimal_purification_against(sigma, psi)


class TestSupportProjector:
    def test_pure_state_rank_one(self):
        sigma = random_rank_r_state(3, 1, seed=70)
        pi = support_projector(sigma, rank_cap=1)
        assert pi.rank == 1
        np.testing.assert_allclose(
            projector_matrix(pi), np.outer(sigma.eigenvectors[:, 0], sigma.eigenvectors[:, 0].conj()), atol=1e-12
        )

    def test_full_rank_gives_identity(self):
        sigma = random_rank_r_state(3, 3, seed=71)
        pi = support_projector(sigma, rank_cap=3)
        np.testing.assert_allclose(projector_matrix(pi), np.eye(3), atol=1e-9)

    def test_support_containment(self):
        sigma = random_rank_r_state(5, 2, seed=72)
        pi = support_projector(sigma, rank_cap=2)
        assert np.real(np.trace(projector_matrix(pi) @ sigma.matrix)) == pytest.approx(1.0, abs=1e-8)

    def test_idempotent_and_hermitian(self):
        sigma = random_rank_r_state(4, 2, seed=73)
        p = projector_matrix(support_projector(sigma, rank_cap=2))
        assert np.max(np.abs(p @ p - p)) < 1e-8
        assert np.max(np.abs(p - p.conj().T)) < 1e-8
        assert np.real(np.trace(p)) == pytest.approx(2.0, abs=1e-8)

    def test_lower_numerical_rank_truncates(self):
        sigma = random_rank_r_state(4, 2, seed=74)
        pi = support_projector(sigma, rank_cap=3)  # cap above actual rank
        assert pi.rank == 2

    def test_rejects_zero_cap(self):
        with pytest.raises(ValueError):
            support_projector(random_rank_r_state(2, 1, seed=75), rank_cap=0)


class TestModuleInvariants:
    @pytest.mark.parametrize("build", ["estimate_pure", "purify", "optimal_purification"])
    def test_one_norm_check_per_pure_state(self, monkeypatch, build):
        # the phase is fixed before the one check, not by a second PureState
        psi = random_pure_state(2, 3, seed=82)
        sigma = random_rank_r_state(3, 2, seed=83)
        calls = {
            "estimate_pure": lambda: estimate_pure_state_from_measurements(psi, 500, 84),
            "purify": lambda: purify(sigma, purifier_dim=3),
            "optimal_purification": lambda: optimal_purification_against(sigma, psi),
        }
        checks = []
        original = states._check_unit_norms
        monkeypatch.setattr(
            states, "_check_unit_norms", lambda amps: checks.append(1) or original(amps)
        )
        out = calls[build]()
        assert len(checks) == 1
        pivot = out.amplitudes[np.flatnonzero(np.abs(out.amplitudes) > 1e-12)[0]]
        assert abs(pivot.imag) <= 1e-15 and pivot.real > 0.0

    def test_purify_then_trace_is_identity(self):
        for t in range(20):
            d = 2 + t % 4
            r = 1 + t % d
            sigma = random_rank_r_state(d, r, child_seed(80, t))
            again = partial_trace_x(purify(sigma, purifier_dim=r))
            assert np.max(np.abs(again.matrix - sigma.matrix)) < 1e-8

    def test_haar_unitary_is_unitary(self):
        u = _haar_unitaries(5, 1, rng_from_seed(81))[0]
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_stacked_haar_draws_match_single_draws(self, dim):
        # one stacked QR equals successive single draws bit for bit, and both
        # equal the per-matrix Ginibre QR with its diagonal phase fix
        def reference(rng):
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, r = np.linalg.qr(z / np.sqrt(2))
            ph = np.diagonal(r).copy()
            ph /= np.abs(ph)
            return q * ph

        for seed in range(5):
            stack = _haar_unitaries(dim, 7, np.random.default_rng(seed))
            singles = np.random.default_rng(seed)
            loop = np.random.default_rng(seed)
            for u in stack:
                assert np.array_equal(u, _haar_unitaries(dim, 1, singles)[0])
                assert np.array_equal(u, reference(loop))


class TestRowForms:
    # the stacked forms give each row the bits of the per-row numpy call they
    # replace, on contiguous stacks and on the strided views kernels pass
    @pytest.mark.parametrize("n", range(1, 65))
    def test_row_vdots_and_norms_match_per_row_calls(self, n):
        rng = np.random.default_rng(n)
        g = rng.standard_normal((2, 2, 9, 2 * n))
        a, b = g[:, 0] + 1j * g[:, 1]
        mix = rng.standard_normal((2, 9, n, 2 * n)) + 1j * rng.standard_normal((2, 9, n, 2 * n))
        r = next(x for x in (3, 2, 1) if n % x == 0)
        left = rng.standard_normal((2, 9, r, 5)) + 1j * rng.standard_normal((2, 9, r, 5))
        right = rng.standard_normal((2, 9, 5, n // r)) + 1j * rng.standard_normal((2, 9, 5, n // r))
        stacks = {
            "contiguous": (a[:, :n].copy(), b[:, :n].copy()),
            "prefix": (a[:, :n], b[:, :n]),
            "every_other": (a[:, ::2], b[:, ::2]),
            # the [:, :, 0] slice of a stacked matrix-vector product, a view of its (T, n, 1) result
            "product_slice": ((mix[0] @ a[:, :, None])[:, :, 0], (mix[1] @ b[:, :, None])[:, :, 0]),
            # a stacked (T, r, d) @ (T, d, k) product reshaped to rows of r * k = n, as
            # _reduction_stages normalizes the pure-state stage's coordinates
            "factor_product": tuple((left @ right).reshape(2, 9, n)),
        }
        for x, y in stacks.values():
            assert np.array_equal(_row_vdots(x, y), [np.vdot(p, q) for p, q in zip(x, y)])
            assert np.array_equal(_row_norms(x), [np.linalg.norm(p) for p in x])

    @pytest.mark.parametrize("r, d", [(1, 1), (1, 2), (2, 3), (3, 8), (4, 16)])
    def test_random_pure_states_stack_matches_one_trial_at_a_time(self, r, d):
        # and each row is the per-trial loop's: two draws and one vector norm
        stack = _random_pure_states(r, d, [np.random.default_rng(s) for s in range(20)])
        for seed, row in enumerate(stack):
            assert np.array_equal(row, _random_pure_states(r, d, [np.random.default_rng(seed)])[0])
            rng = np.random.default_rng(seed)
            amps = rng.standard_normal(r * d) + 1j * rng.standard_normal(r * d)
            assert np.array_equal(row, _phase_normalized((amps / np.linalg.norm(amps))[None])[0])
