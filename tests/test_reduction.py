"""Tests for the reduction protocol, chain verifier, geometric composition,
and the gentle-measurement experiment."""

import math

import numpy as np
import pytest

from tomoreduce import (
    DensityMatrix,
    OverlapTriple,
    PureState,
    ReductionConfig,
    TomographyBackend,
    child_seed,
    gentle_measurement_experiment,
    geometric_composition,
    oracle_mixed_estimate,
    partial_trace_x,
    proposition_search,
    random_pure_state,
    random_rank_r_state,
    run_reduction,
    verify_chain,
)

from oracles import random_density_matrix


def bell_state() -> PureState:
    return PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


class TestReductionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReductionConfig(r=3, d=2, n_copies=10, epsilon=0.1)
        with pytest.raises(ValueError):
            ReductionConfig(r=1, d=2, n_copies=0, epsilon=0.1)
        with pytest.raises(ValueError):
            ReductionConfig(r=1, d=2, n_copies=10, epsilon=1.0)
        with pytest.raises(ValueError):
            ReductionConfig(r=1, d=2, n_copies=10, epsilon=0.1, extra_copy_factor=0.0)

    def test_rejects_configs_that_cannot_run(self):
        with pytest.raises(ValueError, match="d = 1"):
            ReductionConfig(r=1, d=1, n_copies=10, epsilon=0.1)
        inversion = TomographyBackend.linear_inversion(shots=100)
        with pytest.raises(ValueError, match="n_copies >= d\\^2 = 16"):
            ReductionConfig(r=1, d=4, n_copies=15, epsilon=0.1, mixed_backend=inversion)
        ReductionConfig(r=1, d=4, n_copies=16, epsilon=0.1, mixed_backend=inversion)

    def test_extra_copies(self):
        cfg = ReductionConfig(r=2, d=4, n_copies=10, epsilon=0.1, extra_copy_factor=4.0)
        assert cfg.extra_copies == math.ceil(4.0 * 4 / 0.1) == 160

    def test_default_backends_are_oracles(self):
        cfg = ReductionConfig(r=1, d=2, n_copies=1, epsilon=0.25)
        assert cfg.mixed_backend.epsilon_target == 0.25
        assert cfg.pure_backend.epsilon_target == 0.25


class TestRunReduction:
    def test_rank_one_degeneration(self):
        # pure input: the reduced state is pure, the projector has rank 1,
        # and the projected state approaches the input as eps -> 0
        psi = random_pure_state(1, 4, seed=1)
        cfg = ReductionConfig(r=1, d=4, n_copies=10, epsilon=1e-6, seed=2)
        rep = run_reduction(psi, cfg)
        assert rep.projector_rank == 1
        assert rep.projected_fidelity >= 1 - 2e-6
        assert rep.final_fidelity >= 1 - 16e-6
        assert rep.violations == 0

    def test_bell_state_respects_guaranteed_bound(self):
        cfg = ReductionConfig(r=2, d=2, n_copies=100, epsilon=0.05, seed=3)
        rep = run_reduction(bell_state(), cfg)
        assert rep.final_fidelity >= 1 - 16 * 0.05  # = 0.2
        assert rep.violations == 0

    def test_monte_carlo_sweep_r2_d6(self):
        # 500 seeds at eps = 0.01: the guaranteed bound and the keep bound
        # hold in every trial
        eps = 0.01
        for t in range(500):
            psi = random_pure_state(2, 6, child_seed(4, t))
            cfg = ReductionConfig(r=2, d=6, n_copies=10, epsilon=eps, seed=child_seed(5, t))
            rep = run_reduction(psi, cfg)
            assert not rep.starved
            assert rep.final_fidelity >= 1 - 16 * eps
            assert rep.keep_probability >= 1 - eps - 1e-9
            assert rep.violations == 0

    def test_sample_accounting(self):
        cfg = ReductionConfig(r=2, d=4, n_copies=123, epsilon=0.07, extra_copy_factor=3.5, seed=6)
        rep = run_reduction(random_pure_state(2, 4, seed=7), cfg)
        assert rep.extra_copies == math.ceil(3.5 * 4 / 0.07)
        assert rep.samples_total == 123 + rep.extra_copies

    def test_deterministic(self):
        psi = random_pure_state(2, 4, seed=8)
        cfg = ReductionConfig(r=2, d=4, n_copies=10, epsilon=0.1, seed=9)
        a = run_reduction(psi, cfg)
        b = run_reduction(psi, cfg)
        assert a.final_fidelity == b.final_fidelity
        assert a.kept_count == b.kept_count
        np.testing.assert_array_equal(a.sigma.matrix, b.sigma.matrix)

    def test_estimate_lies_in_subspace(self):
        # phi must live in (X register) (x) supp(Pi)
        psi = random_pure_state(2, 5, seed=10)
        cfg = ReductionConfig(r=2, d=5, n_copies=10, epsilon=0.05, seed=11)
        rep = run_reduction(psi, cfg)
        basis = rep.sigma.eigenvectors[:, : rep.projector_rank]
        embed = np.kron(np.eye(2, dtype=complex), basis)
        inside = embed @ (embed.conj().T @ rep.estimate.amplitudes)
        assert np.linalg.norm(rep.estimate.amplitudes - inside) < 1e-9

    def test_dims_mismatch(self):
        cfg = ReductionConfig(r=2, d=4, n_copies=10, epsilon=0.1)
        with pytest.raises(ValueError):
            run_reduction(random_pure_state(2, 3, seed=0), cfg)

    def test_measurement_backends_end_to_end(self):
        psi = random_pure_state(2, 3, seed=12)
        backend = TomographyBackend.linear_inversion(shots=20_000)
        cfg = ReductionConfig(
            r=2,
            d=3,
            n_copies=20_000,
            epsilon=0.1,
            mixed_backend=backend,
            pure_backend=backend,
            seed=13,
        )
        rep = run_reduction(psi, cfg)
        assert not rep.starved
        assert rep.final_fidelity is not None
        assert 0.0 <= rep.final_fidelity <= 1.0

    def test_starved_pure_stage_reported_not_raised(self):
        # a measurement pure backend with kept_count below its floor is
        # reported as starved
        psi = random_pure_state(2, 3, seed=14)
        cfg = ReductionConfig(
            r=2,
            d=3,
            n_copies=20_000,
            epsilon=0.4,
            extra_copy_factor=0.1,  # ~1 extra copy, far below (r*rank)^2
            mixed_backend=TomographyBackend.linear_inversion(shots=20_000),
            pure_backend=TomographyBackend.linear_inversion(shots=20_000),
            seed=15,
        )
        rep = run_reduction(psi, cfg)
        assert rep.starved
        assert rep.estimate is None and rep.final_fidelity is None


class TestVerifyChain:
    def test_exact_inputs_are_tight(self):
        psi = random_pure_state(2, 4, seed=20)
        rho = partial_trace_x(psi)
        report = verify_chain(psi, rho, psi)
        assert report.violations == 0
        assert report.fidelity_mixed_estimate == pytest.approx(1.0, abs=1e-8)
        assert report.final_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_support_flagged_unusable(self):
        psi = PureState(np.kron([1, 0], [1, 0, 0]).astype(complex), (2, 3))
        sigma = PureState(np.array([0, 1, 0]) + 0j, (1, 3)).to_density_matrix()
        report = verify_chain(psi, sigma, psi)
        assert not report.usable
        assert report.keep_probability <= 1e-12
        assert report.violations == 0  # nothing applicable was violated

    def test_cauchy_schwarz_never_violated(self):
        # 10^4 random (psi, sigma with F >= 1 - eps) instances; the keep
        # probability dominates the fidelity within the 1e-9 slack
        eps = 0.1
        for t in range(10_000):
            r, d = 2, 4
            psi = random_pure_state(r, d, child_seed(22, t))
            sigma = oracle_mixed_estimate(partial_trace_x(psi), eps, child_seed(23, t))
            report = verify_chain(psi, sigma, psi, epsilon=eps)
            named = {c.name: c for c in report.checks}
            assert not named["keep_vs_mixed_fidelity"].violated

    def test_cauchy_schwarz_on_arbitrary_sigma(self):
        # unconditioned random sigma: the fidelity of the stored matrix sees
        # its ~1e-16 noise eigenvalues (sqrt amplifies them to ~1e-8) that the
        # rank-capped support projector truncates, so the slack is looser here
        rng = np.random.default_rng(21)
        for t in range(2_000):
            r, d = 2, 4
            psi = random_pure_state(r, d, child_seed(27, t))
            if t % 2 == 0:
                sigma = DensityMatrix.from_matrix(
                    random_density_matrix(d, int(rng.integers(1, r + 1)), rng)
                )
            else:
                sigma = random_rank_r_state(d, r, child_seed(28, t))
            report = verify_chain(psi, sigma, psi)
            assert report.keep_probability >= report.fidelity_mixed_estimate - 1e-7

    def test_agrees_with_run_reduction(self):
        # on a run's own (psi, sigma, phi), the standalone verifier repeats
        # every verdict the two entry points share
        shared = ("keep_vs_mixed_fidelity", "projection_identity", "final_vs_guaranteed_bound")
        cases = [(1, 3, 0.1), (2, 2, 0.2), (2, 4, 0.05), (3, 6, 0.01), (2, 5, 0.3)]
        for i, (r, d, eps) in enumerate(cases):
            for t in range(10):
                psi = random_pure_state(r, d, child_seed(60, i, t))
                cfg = ReductionConfig(r=r, d=d, n_copies=10, epsilon=eps, seed=child_seed(61, i, t))
                report = run_reduction(psi, cfg)
                verified = verify_chain(psi, report.sigma, report.estimate, epsilon=eps)
                ran = {c.name: c for c in report.chain}
                checked = {c.name: c for c in verified.checks}
                for name in shared:
                    a, b = ran[name], checked[name]
                    assert (a.value, a.bound, a.satisfied, a.applicable) == (
                        b.value,
                        b.bound,
                        b.satisfied,
                        b.applicable,
                    ), name

    def test_uhlmann_check_on_calibrated_sigma(self):
        for t in range(20):
            psi = random_pure_state(2, 4, child_seed(24, t))
            sigma = oracle_mixed_estimate(partial_trace_x(psi), 0.1, child_seed(25, t))
            phi = random_pure_state(2, 4, child_seed(26, t))
            report = verify_chain(psi, sigma, phi, epsilon=0.1)
            named = {c.name: c for c in report.checks}
            assert named["uhlmann_attains_fidelity"].satisfied
            assert not named["keep_vs_mixed_fidelity"].violated


class TestGeometricComposition:
    def test_coincident_states(self):
        psi = random_pure_state(1, 3, seed=30)
        t = OverlapTriple.from_states(psi, psi, psi)
        check = geometric_composition(t, 0.0)
        assert check.applicable and check.satisfied
        assert check.lower_bound == 1.0
        assert t.c == pytest.approx(1.0, abs=1e-12)

    def test_geodesic_midpoint_construction(self):
        # psi, psi_tilde, phi equally spaced on a real geodesic with
        # cos(gamma) = 1 - eta: <phi|psi> = 2(1-eta)^2 - 1 = 1 - 4 eta + 2 eta^2,
        # so the bound 1 - 4 eta holds with slack 2 eta^2 (c is the modulus)
        for eta in (0.01, 0.1, 0.3):
            gamma = math.acos(1 - eta)
            e0 = np.array([1, 0], dtype=complex)
            e1 = np.array([0, 1], dtype=complex)
            psi = PureState(e0, (1, 2))
            mid = PureState(math.cos(gamma) * e0 + math.sin(gamma) * e1, (1, 2))
            phi = PureState(math.cos(2 * gamma) * e0 + math.sin(2 * gamma) * e1, (1, 2))
            t = OverlapTriple.from_states(mid, psi, phi)
            check = geometric_composition(t, eta)
            assert check.applicable and check.satisfied and check.intermediates_satisfied
            assert t.c == pytest.approx(abs(1 - 4 * eta + 2 * eta**2), abs=1e-9)
            assert t.c >= 1 - 4 * eta - 1e-12

    def test_precondition_miss_is_not_applicable(self):
        psi = random_pure_state(1, 4, seed=31)
        phi = random_pure_state(1, 4, seed=32)
        t = OverlapTriple.from_states(psi, phi, psi)
        check = geometric_composition(t, 1e-6)
        assert not check.applicable

    def test_alignment_phase_invariants(self):
        for t_idx in range(20):
            psi = random_pure_state(1, 4, child_seed(33, t_idx))
            mid = random_pure_state(1, 4, child_seed(34, t_idx))
            phi = random_pure_state(1, 4, child_seed(35, t_idx))
            t = OverlapTriple.from_states(mid, psi, phi)
            aligned_a = np.exp(1j * t.alpha) * mid.overlap(psi)
            assert abs(aligned_a.imag) < 1e-9
            assert aligned_a.real == pytest.approx(t.a, abs=1e-9)
            aligned_b = np.exp(1j * t.beta) * mid.overlap(phi)
            assert abs(aligned_b.imag) < 1e-9
            assert aligned_b.real == pytest.approx(t.b, abs=1e-9)

    def test_rejects_negative_eta(self):
        psi = random_pure_state(1, 2, seed=36)
        t = OverlapTriple.from_states(psi, psi, psi)
        with pytest.raises(ValueError):
            geometric_composition(t, -0.1)


class TestPropositionSearch:
    def test_no_violations_small_run(self):
        for d in (2, 4, 6):
            for eta in (0.01, 0.1, 0.3):
                res = proposition_search(d, eta, 20_000, seed=40)
                assert res.violations == 0
                assert res.min_slack >= -1e-9
                assert res.max_triangle_excess <= 1e-9
                assert res.checked == 20_000

    def test_edge_pinning_reaches_near_bound(self):
        # with coefficients pinned at 1 - eta the slack can approach
        # the 2 eta^2 geodesic value but never cross zero
        res = proposition_search(2, 0.3, 50_000, seed=41)
        assert res.violations == 0
        assert res.min_slack < 0.25  # actually stressed, not vacuous

    def test_validation(self):
        with pytest.raises(ValueError):
            proposition_search(1, 0.1, 10, seed=0)
        with pytest.raises(ValueError):
            proposition_search(2, 0.0, 10, seed=0)
        with pytest.raises(ValueError):
            proposition_search(2, 0.1, 0, seed=0)


class TestGentleMeasurement:
    def test_tiny_delta_moves_state_little(self):
        psi = random_pure_state(2, 4, seed=50)
        res = gentle_measurement_experiment(psi, 1e-8, trials=20, seed=51)
        assert res.completed == 20
        assert res.max_trace_distance <= 1e-3

    def test_ratio_statistics_reported(self):
        psi = random_pure_state(1, 4, seed=52)
        res = gentle_measurement_experiment(psi, 0.01, trials=50, seed=53)
        assert res.completed == 50
        assert res.skipped == 0

    def test_sqrt_delta_bound(self):
        for delta in (0.1, 0.01):
            psi = random_pure_state(2, 4, seed=54)
            res = gentle_measurement_experiment(psi, delta, trials=100, seed=55)
            assert res.max_trace_distance <= 3 * math.sqrt(delta)

    def test_validation(self):
        psi = random_pure_state(1, 2, seed=56)
        with pytest.raises(ValueError):
            gentle_measurement_experiment(psi, 0.0, trials=5, seed=0)
        with pytest.raises(ValueError):
            gentle_measurement_experiment(psi, 0.1, trials=0, seed=0)
