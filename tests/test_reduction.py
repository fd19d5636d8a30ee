"""Tests for the reduction protocol, chain verifier, composition margins,
and the gentle-measurement experiment."""

import math

import numpy as np
import pytest

from tomoreduce import (
    DensityMatrix,
    PureState,
    ReductionConfig,
    TomographyBackend,
    child_seed,
    gentle_measurement_experiment,
    oracle_mixed_estimate,
    oracle_trace_distance_estimate,
    partial_trace_x,
    project_and_renormalize,
    proposition_search,
    random_pure_state,
    random_rank_r_state,
    run_reduction,
    support_projector,
    trace_distance,
    verify_chain,
)
from tomoreduce import states
from tomoreduce.reduction import CHAIN_SLACK, _chain, _composition_margins

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

    @pytest.mark.parametrize(
        "backend", [TomographyBackend.oracle(0.1), TomographyBackend.linear_inversion(10)]
    )
    def test_rejects_d_1_for_every_backend(self, backend):
        # linear inversion used to run on d = 1, where there is one state only
        with pytest.raises(ValueError, match="d = 1"):
            ReductionConfig(
                r=1, d=1, n_copies=10, epsilon=0.1, mixed_backend=backend, pure_backend=backend
            )

    @pytest.mark.parametrize("factor", [float("nan"), float("inf"), -1.0, 1e308, 2.0**62])
    def test_rejects_copy_count_beyond_int64(self, factor):
        # the kept count is one binomial draw, which takes an int64 copy count
        inversion = TomographyBackend.linear_inversion(shots=100)
        with pytest.raises(ValueError, match="extra"):
            ReductionConfig(
                r=1, d=2, n_copies=10, epsilon=0.5, extra_copy_factor=factor,
                mixed_backend=inversion, pure_backend=inversion,
            )

    def test_rejects_stage_one_budget_beyond_int64(self):
        inversion = TomographyBackend.linear_inversion(shots=100)
        with pytest.raises(ValueError, match="int64"):
            ReductionConfig(r=1, d=2, n_copies=2**63, epsilon=0.1, mixed_backend=inversion)
        ReductionConfig(r=1, d=2, n_copies=2**63 - 1, epsilon=0.1, mixed_backend=inversion)

    @pytest.mark.parametrize("n_copies", [100.5, float("nan"), 100.0, True])
    def test_rejects_copy_count_that_is_not_an_integer(self, n_copies):
        # 100.5 used to be accepted and reported samples_total = 140.5
        with pytest.raises(ValueError, match=f"n_copies must be an integer, got {n_copies!r}"):
            ReductionConfig(r=1, d=2, n_copies=n_copies, epsilon=0.1)

    def test_largest_copy_count_accepted(self):
        inversion = TomographyBackend.linear_inversion(shots=100)
        cfg = ReductionConfig(
            r=1, d=2, n_copies=10, epsilon=0.5, extra_copy_factor=2.0**61,
            mixed_backend=inversion, pure_backend=inversion,
        )
        assert cfg.extra_copies == 2**62

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

    @pytest.mark.parametrize("seed, starved", [(8, True), (0, False), (1, False)])
    def test_oracle_pure_stage_starved_only_without_copies(self, seed, starved):
        # ceil(0.125 * 2^2 / 0.5) = 1 extra copy: the oracle needs that one copy kept
        psi = random_pure_state(2, 3, seed=30)
        cfg = ReductionConfig(
            r=2, d=3, n_copies=10, epsilon=0.5, extra_copy_factor=0.125, seed=seed
        )
        rep = run_reduction(psi, cfg)
        assert rep.extra_copies == 1
        assert rep.kept_count == (0 if starved else 1)
        assert rep.starved is starved
        assert (rep.estimate is None) is starved
        assert (rep.final_fidelity is None) is starved


class TestVerifyChain:
    def test_exact_inputs_are_tight(self):
        psi = random_pure_state(2, 4, seed=20)
        rho = partial_trace_x(psi)
        report = verify_chain(psi, rho, psi)
        assert report.violations == 0
        assert report.fidelity_mixed_estimate == pytest.approx(1.0, abs=1e-8)
        assert report.final_fidelity == pytest.approx(1.0, abs=1e-9)

    def test_rejects_supplied_epsilon_outside_unit_interval(self):
        psi = random_pure_state(2, 4, seed=20)
        rho = partial_trace_x(psi)
        for eps in (-1.0, 0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match="epsilon"):
                verify_chain(psi, rho, psi, epsilon=eps)
        assert verify_chain(psi, rho, psi, epsilon=0.5).epsilon == 0.5

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
        # every verdict of the run's chain
        shared = (
            "keep_vs_mixed_fidelity",
            "keep_vs_epsilon",
            "projection_identity",
            "final_vs_guaranteed_bound",
            "final_vs_tightened_bound",
        )
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

    def test_rejects_sigma_of_rank_above_r(self):
        # the support projector is capped at rank r, so keep >= F needs rank(sigma) <= r
        psi = random_pure_state(2, 4, seed=62)
        sigma = random_rank_r_state(4, 3, seed=63)
        with pytest.raises(ValueError, match="sigma has rank 3 above r = 2"):
            verify_chain(psi, sigma, psi)
        verify_chain(psi, random_rank_r_state(4, 2, seed=63), psi)

    def test_uhlmann_check_on_calibrated_sigma(self):
        for t in range(20):
            psi = random_pure_state(2, 4, child_seed(24, t))
            sigma = oracle_mixed_estimate(partial_trace_x(psi), 0.1, child_seed(25, t))
            phi = random_pure_state(2, 4, child_seed(26, t))
            report = verify_chain(psi, sigma, phi, epsilon=0.1)
            named = {c.name: c for c in report.checks}
            assert named["uhlmann_attains_fidelity"].satisfied
            assert not named["keep_vs_mixed_fidelity"].violated


# Stage values at which every check of the chain holds and applies, at eps = 0.01.
_EPS = 0.01
_HOLDING = dict(eps=_EPS, f=0.995, keep=0.996, projected=0.996, estimate=0.995, final=0.991)
_CHAIN_NAMES = (
    "keep_vs_mixed_fidelity",
    "keep_vs_epsilon",
    "projection_identity",
    "final_vs_guaranteed_bound",
    "final_vs_tightened_bound",
)


def _checks(**values):
    return {c.name: c for c in _chain(**{**_HOLDING, **values})}


class TestChain:
    """The chain's verdict rules at hand-picked stage values."""

    def test_all_checks_hold_in_chain_order(self):
        chain = _chain(**_HOLDING)
        assert tuple(c.name for c in chain) == _CHAIN_NAMES
        assert all(c.satisfied and c.applicable for c in chain)
        assert [c.advisory for c in chain] == [False] * 4 + [True]

    @pytest.mark.parametrize(
        "name, past",
        [
            # each row's values at an offset x past the bound
            ("keep_vs_mixed_fidelity", lambda x: dict(keep=0.995 - x, projected=0.995 - x)),
            ("keep_vs_epsilon", lambda x: dict(f=0.99, keep=0.99 - x, projected=0.99 - x)),
            ("projection_identity", lambda x: dict(projected=0.996 + x)),
            ("projection_identity", lambda x: dict(projected=0.996 - x)),
            ("final_vs_guaranteed_bound", lambda x: dict(final=1 - 16 * _EPS - x)),
            ("final_vs_tightened_bound", lambda x: dict(final=1 - 8 * _EPS - x)),
        ],
    )
    @pytest.mark.parametrize("offset, holds", [(2 * CHAIN_SLACK, False), (CHAIN_SLACK / 2, True)])
    def test_bound_plus_slack_separates_verdicts(self, name, past, offset, holds):
        check = _checks(**past(offset))[name]
        assert check.applicable
        assert check.satisfied is holds
        assert check.violated is (not holds and not check.advisory)

    def test_final_between_guaranteed_and_tightened_counts_no_violation(self):
        chain = _chain(**{**_HOLDING, "final": 1 - 12 * _EPS})
        named = {c.name: c for c in chain}
        assert named["final_vs_guaranteed_bound"].satisfied
        tightened = named["final_vs_tightened_bound"]
        assert tightened.applicable and not tightened.satisfied and not tightened.violated
        assert sum(c.violated for c in chain) == 0

    @pytest.mark.parametrize(
        "values, not_applicable",
        [
            # stage 1 misses its window: keep >= 1 - eps and both final checks
            (dict(f=1 - _EPS - 1e-6), _CHAIN_NAMES[1:2] + _CHAIN_NAMES[3:]),
            # only the estimate misses its window: only the final checks
            (dict(estimate=1 - _EPS - 1e-6), _CHAIN_NAMES[3:]),
            # eps = 1, reachable by a derived eps: the final checks say nothing
            (dict(eps=1.0), _CHAIN_NAMES[3:]),
            # a window edge that rounding misses by less than 1e-12 still lands
            (dict(f=1 - _EPS - 1e-13, estimate=1 - _EPS - 1e-13), ()),
        ],
    )
    def test_applicability(self, values, not_applicable):
        named = _checks(**values)
        assert {n for n, c in named.items() if not c.applicable} == set(not_applicable)

    @pytest.mark.parametrize(
        "values, names",
        [
            (dict(estimate=None, final=None), _CHAIN_NAMES[:3]),
            (dict(projected=None, estimate=None, final=None), _CHAIN_NAMES[:2]),
            (dict(eps=None, projected=None, estimate=None, final=None), _CHAIN_NAMES[:1]),
        ],
    )
    def test_missing_stages_drop_their_checks(self, values, names):
        assert tuple(c.name for c in _chain(**{**_HOLDING, **values})) == names


class TestGeometricComposition:
    def test_coincident_states(self):
        psi = random_pure_state(1, 3, seed=30).amplitudes
        overlap = abs(np.vdot(psi, psi))
        slack, excess = _composition_margins(overlap, overlap, overlap, 0.0)
        assert overlap == pytest.approx(1.0, abs=1e-12)
        assert slack >= -CHAIN_SLACK and excess <= CHAIN_SLACK

    def test_geodesic_midpoint_construction(self):
        # psi, psi_tilde, phi equally spaced on a real geodesic with
        # cos(gamma) = 1 - eta: <phi|psi> = 2(1-eta)^2 - 1 = 1 - 4 eta + 2 eta^2,
        # so the bound 1 - 4 eta holds with slack 2 eta^2 (c is the modulus)
        for eta in (0.01, 0.1, 0.3):
            gamma = math.acos(1 - eta)
            psi = np.array([1, 0], dtype=complex)
            mid = np.array([math.cos(gamma), math.sin(gamma)], dtype=complex)
            phi = np.array([math.cos(2 * gamma), math.sin(2 * gamma)], dtype=complex)
            a, b, c = abs(np.vdot(mid, psi)), abs(np.vdot(phi, mid)), abs(np.vdot(phi, psi))
            assert a == pytest.approx(1 - eta, abs=1e-12) and b == pytest.approx(1 - eta, abs=1e-12)
            slack, excess = _composition_margins(a, b, c, eta)
            assert slack >= -CHAIN_SLACK and excess <= CHAIN_SLACK
            assert c == pytest.approx(abs(1 - 4 * eta + 2 * eta**2), abs=1e-9)
            assert c >= 1 - 4 * eta - 1e-12


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
        for d, count in ((2.5, 10), (True, 10), (2, 10.0), (2, True)):
            with pytest.raises(ValueError, match="must be an integer"):
                proposition_search(d, 0.1, count, seed=0)


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

    def test_matches_density_matrix_reference(self):
        # T is the residual norm ||psi - <psi_tilde|psi> psi_tilde||; the
        # reference is the trace distance of the two rank-1 density matrices
        for r in (1, 2, 3):
            for d in (3, 4, 6, 8):
                psi = random_pure_state(r, d, child_seed(57, r, d))
                rho = partial_trace_x(psi)
                for k, delta in enumerate((0.1, 1e-2, 1e-3, 1e-4, 1e-5)):
                    seed = child_seed(58, r, d, k)
                    res = gentle_measurement_experiment(psi, delta, trials=5, seed=seed)
                    assert res.skipped == 0
                    for t in range(5):
                        sigma = oracle_trace_distance_estimate(rho, delta, child_seed(seed, t))
                        tilde = project_and_renormalize(psi, support_projector(sigma, r))
                        ref = trace_distance(tilde.to_density_matrix(), psi.to_density_matrix())
                        assert abs(res.trace_distances[t] - ref) <= 1e-15

    def test_builds_one_density_matrix_per_estimate(self, monkeypatch):
        # one stack check of the 10 reduced states (full spectra) and one of
        # the 10 rank-2 estimates; no pure-state density matrix is checked
        checks = []
        original = states._check_density_stack
        monkeypatch.setattr(
            states,
            "_check_density_stack",
            lambda mat, w, v: checks.append((mat.shape, w.shape)) or original(mat, w, v),
        )
        psi = random_pure_state(2, 4, seed=59)
        res = gentle_measurement_experiment(psi, 0.01, trials=10, seed=60)
        assert res.completed == 10
        assert checks == [((10, 4, 4), (10, 4)), ((10, 4, 4), (10, 2))]

    def test_validation(self):
        psi = random_pure_state(1, 2, seed=56)
        with pytest.raises(ValueError):
            gentle_measurement_experiment(psi, 0.0, trials=5, seed=0)
        for trials in (2.5, True, 5.0):
            with pytest.raises(ValueError, match="trials must be an integer"):
                gentle_measurement_experiment(psi, 0.1, trials=trials, seed=0)
        with pytest.raises(ValueError, match="1e-12"):
            gentle_measurement_experiment(psi, 1e-13, trials=5, seed=0)
        with pytest.raises(ValueError):
            gentle_measurement_experiment(psi, 0.1, trials=0, seed=0)
