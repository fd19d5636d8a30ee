"""Tests for the two-outcome projective measurement."""

import tracemalloc

import numpy as np
import pytest

from tomoreduce import (
    DensityMatrix,
    ProjectionError,
    Projector,
    PureState,
    child_seed,
    fidelity_pure_pure,
    outcome_probability,
    project_and_renormalize,
    purify,
    random_pure_state,
    rng_from_seed,
    sample_shots,
    schmidt_decompose,
)
from tomoreduce.states import _haar_unitaries


def projector_on_columns(d: int, cols) -> Projector:
    eye = np.eye(d, dtype=complex)
    return Projector(eye[:, list(cols)])


class TestOutcomeProbability:
    def test_identity_projector(self):
        psi = random_pure_state(2, 3, seed=1)
        assert outcome_probability(psi, Projector(np.eye(3))) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projector(self):
        psi = PureState(np.array([1, 0, 0, 0, 0, 0]) + 0j, (2, 3))  # Y support = {0}
        pi = projector_on_columns(3, [1, 2])
        assert outcome_probability(psi, pi) == pytest.approx(0.0, abs=1e-12)

    def test_covering_projector_probability_one(self):
        psi = random_pure_state(2, 4, seed=3)
        sd = schmidt_decompose(psi)
        pi = Projector(sd.right_vectors)  # spans the Y support exactly
        assert outcome_probability(psi, pi) == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            outcome_probability(random_pure_state(2, 3, 0), Projector(np.eye(4)))


class TestProjectAndRenormalize:
    def test_covering_projector_returns_same_ray(self):
        psi = random_pure_state(2, 4, seed=5)
        pi = Projector(schmidt_decompose(psi).right_vectors)
        out = project_and_renormalize(psi, pi)
        assert fidelity_pure_pure(out, psi) == pytest.approx(1.0, abs=1e-12)

    def test_single_surviving_term(self):
        # (u1 (x) v1 + u2 (x) v2)/sqrt(2) projected onto |v1><v1|
        amps = np.zeros(4, dtype=complex)
        amps[0] = 1 / np.sqrt(2)  # u1 (x) v1
        amps[3] = 1 / np.sqrt(2)  # u2 (x) v2
        psi = PureState(amps, (2, 2))
        out = project_and_renormalize(psi, projector_on_columns(2, [0]))
        expected = np.zeros(4, dtype=complex)
        expected[0] = 1.0
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-12)

    def test_projection_identity(self):
        # |<psi_tilde|psi>|^2 equals the keep probability
        for t in range(50):
            psi = random_pure_state(2, 5, child_seed(6, t))
            basis = _haar_unitaries(5, 1, rng_from_seed(child_seed(7, t)))[0][:, :2]
            pi = Projector(basis)
            p = outcome_probability(psi, pi)
            if p <= 1e-12:
                continue
            out = project_and_renormalize(psi, pi)
            assert fidelity_pure_pure(out, psi) == pytest.approx(p, abs=1e-9)

    def test_output_supported_in_projector(self):
        psi = random_pure_state(2, 4, seed=8)
        basis = _haar_unitaries(4, 1, rng_from_seed(9))[0][:, :2]
        pi = Projector(basis)
        out = project_and_renormalize(psi, pi)
        m = out.as_matrix()
        residual = m - (m @ pi.basis.conj()) @ pi.basis.T
        assert np.max(np.abs(residual)) < 1e-9

    def test_raises_on_vanishing_projection(self):
        psi = PureState(np.array([1, 0, 0, 0, 0, 0]) + 0j, (2, 3))
        with pytest.raises(ProjectionError):
            project_and_renormalize(psi, projector_on_columns(3, [1, 2]))


class TestCauchySchwarzStep:
    def test_purification_overlap_bounded_by_keep_probability(self):
        # For any sigma supported inside Pi and any purification phi of it,
        # |<psi|phi>|^2 <= <psi|(I (x) Pi)|psi>
        rng = np.random.default_rng(10)
        for t in range(200):
            r, d = 2, 4
            psi = random_pure_state(r, d, child_seed(11, t))
            basis = _haar_unitaries(d, 1, rng_from_seed(child_seed(12, t)))[0][:, :r]
            pi = Projector(basis)
            weights = rng.dirichlet(np.ones(r))
            sigma = DensityMatrix.from_matrix((basis * weights) @ basis.conj().T)
            phi0 = purify(sigma, r)
            u = _haar_unitaries(r, 1, rng_from_seed(child_seed(13, t)))[0]
            rotated = (u @ phi0.as_matrix()).reshape(-1)
            phi = PureState(rotated, (r, d))
            assert fidelity_pure_pure(psi, phi) <= outcome_probability(psi, pi) + 1e-9


class TestSampleShots:
    def test_identity_keeps_all(self):
        psi = random_pure_state(1, 3, seed=20)
        assert sample_shots(psi, Projector(np.eye(3)), 100, seed=0) == 100

    def test_probability_zero_keeps_none(self):
        psi = PureState(np.array([1, 0, 0]) + 0j, (1, 3))
        assert sample_shots(psi, projector_on_columns(3, [1]), 100, seed=0) == 0

    def test_binomial_concentration(self):
        # p = 0.9 within 3 sigma over 1e5 shots
        p = 0.9
        amps = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
        psi = PureState(amps, (1, 2))
        pi = projector_on_columns(2, [0])
        shots = 100_000
        kept = sample_shots(psi, pi, shots, seed=99)
        sigma3 = 3 * np.sqrt(p * (1 - p) / shots)
        assert abs(kept / shots - p) < sigma3

    def test_deterministic_per_seed(self):
        psi = random_pure_state(2, 3, seed=21)
        pi = Projector(schmidt_decompose(psi).right_vectors[:, :1])
        assert sample_shots(psi, pi, 1000, seed=5) == sample_shots(psi, pi, 1000, seed=5)

    def test_monotone_in_projector(self):
        # enlarging the support can only increase the keep count (same seed)
        psi = random_pure_state(2, 4, seed=22)
        u = _haar_unitaries(4, 1, rng_from_seed(23))[0]
        small = Projector(u[:, :1])
        large = Projector(u[:, :3])
        assert outcome_probability(psi, small) <= outcome_probability(psi, large)
        kept_small = sample_shots(psi, small, 5000, seed=7)
        kept_large = sample_shots(psi, large, 5000, seed=7)
        assert kept_small <= kept_large

    def test_zero_shots(self):
        psi = random_pure_state(1, 2, seed=24)
        assert sample_shots(psi, Projector(np.eye(2)), 0, seed=0) == 0

    def test_negative_shots_rejected(self):
        psi = random_pure_state(1, 2, seed=25)
        with pytest.raises(ValueError):
            sample_shots(psi, Projector(np.eye(2)), -1, seed=0)

    def test_shots_beyond_int64_rejected(self):
        # the int64 count rule, not numpy's OverflowError from the binomial draw
        psi = random_pure_state(1, 2, seed=25)
        pi = Projector(np.eye(2))
        for shots in (2**63, 10**30):
            with pytest.raises(ValueError, match="int64"):
                sample_shots(psi, pi, shots, seed=0)
        assert 0 <= sample_shots(psi, pi, 2**63 - 1, seed=0) <= 2**63 - 1

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("shots", [0, 1, 2**16 + 1, 10**15])
    def test_count_is_one_binomial_draw(self, shots, p):
        psi = PureState(np.array([np.sqrt(p), np.sqrt(1 - p)]), (1, 2))
        pi = projector_on_columns(2, [0])
        keep = outcome_probability(psi, pi)
        assert keep == pytest.approx(p, abs=1e-15)
        expected = np.random.default_rng(27).binomial(shots, keep)
        assert sample_shots(psi, pi, shots, seed=27) == expected

    def test_memory_bounded(self):
        # 10**7 copies would take 86 MiB as one float and one bool array
        psi = random_pure_state(1, 2, seed=28)
        pi = projector_on_columns(2, [0])
        tracemalloc.start()
        try:
            sample_shots(psi, pi, 10**7, seed=29)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
