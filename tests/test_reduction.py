"""Tests for the reduction protocol, chain verifier, composition margins,
and the gentle-measurement experiment."""

import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import beta, ks_2samp, kstest

from tomoreduce import (
    DensityMatrix,
    ExperimentConfig,
    ExperimentKind,
    PureState,
    ReductionConfig,
    TomographyBackend,
    child_seed,
    fidelity_mixed,
    gentle_measurement_experiment,
    oracle_mixed_estimate,
    oracle_pure_estimate,
    partial_trace_x,
    project_and_renormalize,
    proposition_search,
    random_pure_state,
    random_rank_r_state,
    rng_from_seed,
    run_reduction,
    support_projector,
    trace_distance,
    verify_chain,
)
from tomoreduce import reduction, states
from tomoreduce import tomography as tm
from tomoreduce.reduction import (
    CHAIN_SLACK,
    _CHAIN_COLUMNS,
    _chain,
    _composition_margins,
    _gentle_distances,
    _reduction_stages,
    _run_reductions,
)
from tomoreduce.states import _density_matrices, _reduced_states

from oracles import (
    composition_rows,
    proposition_search_rows,
    random_density_matrix,
    report_columns,
)


@st.composite
def _arbitrary_sigma_cases(draw):
    """A random psi on (r, d) and a sigma of rank <= r: either an arbitrary
    density matrix or an oracle estimate of psi's reduced state, down to the
    oracles' 1e-12 floor."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(max(2, r), 8))
    seed = draw(st.integers(0, 2**32))
    psi = random_pure_state(r, d, seed)
    eps = draw(st.sampled_from([None, 0.1, 1e-6, 1e-10, 1e-12]))
    if eps is not None:
        return psi, oracle_mixed_estimate(partial_trace_x(psi), eps, seed)
    rng = np.random.default_rng(seed)
    rank = draw(st.integers(1, r))
    return psi, DensityMatrix.from_matrix(random_density_matrix(d, rank, rng))


def trace_distance_estimate(rho, delta, seed):
    """The same-rank estimate of rho with trace distance in [delta/2, delta]
    that a gentle-measurement trial builds, from the seed's generator."""
    w, v, rngs = rho.eigenvalues[None, : rho.rank], rho.eigenvectors[None], [rng_from_seed(seed)]
    return _density_matrices(*tm._trace_estimates(w, v, delta, rngs))[0]


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

    @pytest.mark.parametrize("field", ["r", "d"])
    @pytest.mark.parametrize("value", [1.5, 3.0, True])
    def test_register_dimensions_must_be_integers(self, field, value):
        # r = 1.5 used to be accepted, with 90 extra copies; d = 3.0 too
        dims = {"r": 1, "d": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            ReductionConfig(**dims, n_copies=10, epsilon=0.1)
        config = ReductionConfig(r=np.int64(2), d=np.int64(3), n_copies=10, epsilon=0.1)
        assert config.extra_copies == 160

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

    def test_extra_copies_computed_once(self, monkeypatch):
        # each access used to recompute the count and check it again
        calls = []
        check = reduction._check_count
        monkeypatch.setattr(reduction, "_check_count", lambda *a: calls.append(a) or check(*a))
        cfg = ReductionConfig(r=2, d=4, n_copies=10, epsilon=0.1)
        assert len(calls) == 2  # the extra copies and the stage-one copies
        assert [cfg.extra_copies for _ in range(5)] == [160] * 5
        assert len(calls) == 2

    def test_default_backends_are_oracles(self):
        cfg = ReductionConfig(r=1, d=2, n_copies=1, epsilon=0.25)
        assert cfg.mixed_backend.epsilon_target == 0.25
        assert cfg.pure_backend.epsilon_target == 0.25


@st.composite
def _skewed_projection_cases(draw):
    """A (r, d) state psi with Schmidt spectrum (1 - (r - 1) lam, lam, ...), lam
    from 1e-12 up to 1/r, and either an arbitrary density matrix of rank <= r
    (eps None) or the oracle's window eps and seed for an estimate of its reduced
    state. Below RANK_TOL the reduced state's rank drops lam's weight, up to 2e-10
    here, and an eps below that floor, or within the oracle's rounding above it,
    must fail at once."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(max(2, r), 8))
    seed = draw(st.integers(0, 2**32))
    lam = 10.0 ** draw(st.floats(-12.0, -math.log10(r) if r > 1 else 0.0))
    rng = np.random.default_rng(seed)
    spectrum = np.array([1.0 - (r - 1) * lam] + [lam] * (r - 1))
    x, y = states._haar_unitaries(r, 1, rng)[0], states._haar_unitaries(d, 1, rng)[0]
    m = (x * np.sqrt(spectrum)) @ y[:, :r].T
    psi = PureState(m.reshape(-1), (r, d))
    eps = draw(st.sampled_from([None, 0.1, 1e-6, 1e-12]))
    if eps is None:
        rank = draw(st.integers(1, r))
        return psi, None, seed, DensityMatrix.from_matrix(random_density_matrix(d, rank, rng))
    return psi, eps, seed, None


class TestProjectionIdentity:
    # |<psi_tilde|psi>|^2 = keep for the projected state of stage 3, on the
    # stacked path the chain takes, down to Schmidt coefficients of 1e-12 and
    # oracle windows of 1e-12
    @settings(max_examples=150, deadline=None)
    @given(case=_skewed_projection_cases())
    def test_overlap_with_the_projected_state_is_keep(self, case):
        psi, eps, seed, sigma = case
        if sigma is None:
            rho = partial_trace_x(psi)
            k = rho.rank
            rounding = (256 + 4 * (rho.dim + k)) * tm._U  # the oracle's stated bound
            if 1.0 - rho.eigenvalues[:k].sum() > eps - rounding:  # at the truncation floor
                with pytest.raises(ValueError, match="the least infidelity of any rank-"):
                    oracle_mixed_estimate(rho, eps, seed)
                return
            sigma = oracle_mixed_estimate(rho, eps, seed)
        m = psi.as_matrix()[None]
        w, v = sigma.eigenvalues[None], sigma.eigenvectors[None]
        _, keep, usable, tilde = reduction._support_projections(m, w, v, psi.r)
        for t, row in zip(usable.tolist(), tilde):
            overlap = abs(np.vdot(row, psi.amplitudes)) ** 2
            assert abs(overlap - keep[t]) <= CHAIN_SLACK


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

    @pytest.mark.parametrize(
        "kind, r, d, eps_values, projector_ranks",
        [
            ("oracle", 2, 5, (0.1, 1e-3, 1e-12), {2}),
            ("oracle", 3, 4, (0.1, 1e-3, 1e-12), {3}),
            ("measurement", 2, 4, (0.1, 0.01), {2}),
            # a measurement cell whose projector ranks differ between trials
            ("measurement", 3, 3, (0.1, 0.01), {2, 3}),
        ],
        ids=["oracle-r2", "oracle-r3", "measurement-r2", "measurement-r3"],
    )
    def test_estimate_lies_in_subspace(self, kind, r, d, eps_values, projector_ranks):
        # phi must live in (X register) (x) supp(Pi), checked against the
        # projector kron(I_r, B) kron(I_r, B)^dagger on B = sigma's leading
        # eigenvectors; then |<phi|psi>|^2 = keep * |<phi|psi_tilde>|^2 exactly
        ranks_seen = set()
        for eps in eps_values:
            backend = (
                TomographyBackend.oracle(eps)
                if kind == "oracle"
                else TomographyBackend.linear_inversion(10_000)
            )
            config = ReductionConfig(
                r=r, d=d, n_copies=10_000, epsilon=eps, mixed_backend=backend, pure_backend=backend
            )
            seeds = [child_seed(10, r, d, t) for t in range(40)]
            m = np.array([random_pure_state(r, d, s).as_matrix() for s in seeds])
            rngs = [rng_from_seed(child_seed(s, 1)) for s in seeds]
            sigma, phi, stages = _reduction_stages(m, _reduced_states(m), config, rngs)
            _, keep, ranks, _, usable, fed, (_, estimate, final) = stages
            assert fed.all()
            for row, t in enumerate(usable):
                embed = np.kron(np.eye(r), sigma[2][t, :, : ranks[t]])
                inside = embed @ (embed.conj().T @ phi[row])
                assert np.linalg.norm(phi[row] - inside) <= 1e-13
                assert abs(final[t] - keep[t] * estimate[t]) <= 1e-13
            ranks_seen.update(ranks[usable].tolist())
        assert ranks_seen == projector_ranks

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

    @pytest.mark.parametrize("starved, nth", [(True, 0), (False, 0), (False, 1)])
    def test_oracle_pure_stage_starved_only_without_copies(self, starved, nth):
        # ceil(0.125 * 2^2 / 0.5) = 1 extra copy: the oracle needs that one copy
        # kept. The case is the nth seed whose kept draw starves (or feeds) the stage
        psi = random_pure_state(2, 3, seed=30)

        def report(seed):
            cfg = ReductionConfig(
                r=2, d=3, n_copies=10, epsilon=0.5, extra_copy_factor=0.125, seed=seed
            )
            return run_reduction(psi, cfg)

        found = (rep for rep in map(report, range(64)) if (rep.kept_count == 0) is starved)
        rep = next(itertools.islice(found, nth, None))
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
            assert report.violations == 0
            assert report.keep_probability >= report.fidelity_mixed_estimate - CHAIN_SLACK
            assert abs(report.uhlmann_overlap - report.fidelity_mixed_estimate) <= CHAIN_SLACK

    @settings(max_examples=150, deadline=None)
    @given(sigma_case=_arbitrary_sigma_cases())
    def test_keep_dominates_fidelity_on_any_sigma(self, sigma_case):
        psi, sigma = sigma_case
        report = verify_chain(psi, sigma, psi)
        assert report.keep_probability >= report.fidelity_mixed_estimate - CHAIN_SLACK

    @settings(max_examples=150, deadline=None)
    @given(sigma_case=_arbitrary_sigma_cases())
    def test_fuchs_van_de_graaf_on_any_sigma(self, sigma_case):
        # the forms rounding resolves: at r = 1, T = sqrt(1 - F) exactly, and
        # near F = 1 a rounding of F by 2e-15 moves sqrt(1 - F) by 1.4e-9
        psi, sigma = sigma_case
        rho = partial_trace_x(psi)
        f, t = fidelity_mixed(rho, sigma), trace_distance(rho, sigma)
        assert 1.0 - math.sqrt(f) <= t + CHAIN_SLACK
        assert t**2 <= 1.0 - f + CHAIN_SLACK

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

    def test_rejects_phi_of_another_dimension(self):
        # a phi on 3 amplitudes against psi on 6 failed inside numpy's matmul
        psi, phi = random_pure_state(2, 3, 0), random_pure_state(1, 3, 1)
        sigma = partial_trace_x(psi)
        with pytest.raises(ValueError, match=r"^phi has dimension 3, psi has 6$"):
            verify_chain(psi, sigma, phi)
        # the check is on the total dimension: phi on (3, 2) has psi's 6
        flipped = PureState(random_pure_state(3, 2, 1).amplitudes, (3, 2))
        assert verify_chain(psi, sigma, flipped).final_fidelity is not None

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


def _parameters(test, argnames):
    """The parameter sets of the parametrize mark of ``test`` over ``argnames``."""
    (mark,) = (m for m in test.pytestmark if m.args[0] == argnames)
    return mark.args[1]


def _same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN equals NaN


_NAN = float("nan")


def _chain_value_sets():
    """TestChain's value sets without missing stages: the holding values, each
    row past its bound by either offset, a final between the two bounds and the
    applicability sets; then NaN sets, for a starved pure stage or a broken value."""
    bound_test = TestChain.test_bound_plus_slack_separates_verdicts
    offsets = [offset for offset, _ in _parameters(bound_test, "offset, holds")]
    applicability = _parameters(TestChain.test_applicability, "values, not_applicable")
    past_bounds = [past(x) for _, past in _parameters(bound_test, "name, past") for x in offsets]
    nans = [dict(f=_NAN), dict(final=_NAN), dict(estimate=_NAN), dict(estimate=_NAN, final=_NAN)]
    return [
        {**_HOLDING, **values}
        for values in (
            {}, *past_bounds, {"final": 1 - 12 * _EPS}, *(v for v, _ in applicability), *nans
        )
    ]


class TestStackedChain:
    """``_chain`` on a stack's arrays gives, element for element, each scalar call."""

    SETS = _chain_value_sets()

    @pytest.mark.parametrize("eps", sorted({values["eps"] for values in SETS}))
    def test_stack_gives_each_scalar_chain(self, eps):
        sets = [values for values in self.SETS if values["eps"] == eps]
        names = ("f", "keep", "projected", "estimate", "final")
        stacked = _chain(eps, *(np.array([values[n] for values in sets]) for n in names))
        for t, values in enumerate(sets):
            scalar = _chain(**values)
            assert [c.name for c in stacked] == [c.name for c in scalar] == list(_CHAIN_NAMES)
            for s, c in zip(scalar, stacked):
                for attr in ("value", "bound", "satisfied", "applicable", "violated"):
                    at_t = np.broadcast_to(getattr(c, attr), len(sets))[t]
                    assert _same(at_t, getattr(s, attr)), (values, s.name, attr)

    @pytest.mark.parametrize(
        "values, violated", [(dict(f=_NAN), _CHAIN_NAMES[0]), (dict(final=_NAN), _CHAIN_NAMES[3])]
    )
    def test_nan_stage_value_is_violated(self, values, violated):
        # a NaN never drops a check or lets it pass silently
        for chain in (_checks(**values).values(), self._stack_of_one(values)):
            assert [c.name for c in chain] == list(_CHAIN_NAMES)
            assert [c.name for c in chain if c.violated] == [violated]

    def test_nan_estimate_makes_only_the_final_checks_inapplicable(self):
        values = dict(estimate=_NAN)
        for chain in (_checks(**values).values(), self._stack_of_one(values)):
            assert [c.name for c in chain if not c.applicable] == list(_CHAIN_NAMES[3:])
            assert not any(c.violated for c in chain)

    def test_scalar_verdicts_stay_python_bools(self):
        for values in self.SETS:
            for c in _chain(**values):
                assert {type(c.satisfied), type(c.applicable), type(c.violated)} == {bool}

    @staticmethod
    def _stack_of_one(values):
        """The chain on a stack of one trial: the holding values with ``values``."""
        values = {**_HOLDING, **values}
        return _chain(values.pop("eps"), *(np.array([v]) for v in values.values()))


_PSI = random_pure_state(2, 3, seed=0)
_RHO = partial_trace_x(_PSI)


class TestRealRule:
    # each entry raised TypeError from a comparison on a string, None or a
    # complex; extra_copy_factor took True as 1
    ENTRIES = {
        "ReductionConfig epsilon": (
            "epsilon", lambda x: ReductionConfig(r=1, d=2, n_copies=10, epsilon=x)
        ),
        "ReductionConfig extra_copy_factor": (
            "extra_copy_factor",
            lambda x: ReductionConfig(r=1, d=2, n_copies=10, epsilon=0.1, extra_copy_factor=x),
        ),
        "verify_chain": ("epsilon", lambda x: verify_chain(_PSI, _RHO, _PSI, epsilon=x)),
        "TomographyBackend.oracle": ("target infidelity", TomographyBackend.oracle),
        "oracle_mixed_estimate": ("target infidelity", lambda x: oracle_mixed_estimate(_RHO, x, 0)),
        "oracle_pure_estimate": ("target infidelity", lambda x: oracle_pure_estimate(_PSI, x, 0)),
        "gentle_measurement_experiment": (
            "target trace distance", lambda x: gentle_measurement_experiment(_PSI, x, 2, 0)
        ),
        "proposition_search": ("eta", lambda x: proposition_search(3, x, 10, 0)),
        "ExperimentConfig eps_values": (
            "each of eps_values",
            lambda x: ExperimentConfig(ExperimentKind.PROPOSITION_SEARCH, eps_values=(x,)),
        ),
        "ExperimentConfig delta_values": (
            "each of delta_values",
            lambda x: ExperimentConfig(ExperimentKind.GENTLE_MEASUREMENT, delta_values=(x,)),
        ),
        "ExperimentConfig extra_copy_factor": (
            "extra_copy_factor",
            lambda x: ExperimentConfig(ExperimentKind.CHAIN_SWEEP, extra_copy_factor=x),
        ),
    }

    @pytest.mark.parametrize(
        "entry, value",
        [
            (entry, value)
            for entry in ENTRIES
            for value in ("0.1", None, 0.1 + 0j, True)
            if (entry, value) != ("verify_chain", None)  # None derives epsilon there
        ],
    )
    def test_rejects_values_that_are_not_real_numbers(self, entry, value):
        name, call = self.ENTRIES[entry]
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(value)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_accepts_numpy_floats(self, entry):
        _, call = self.ENTRIES[entry]
        call(np.float64(0.1))

    def test_experiment_config_rejects_a_kind_by_name(self):
        message = "experiment must be an ExperimentKind, got 'chain_sweep'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig("chain_sweep")


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


class _ReplayDraws:
    """A stand-in generator that returns prescribed draws, each checked against
    the call that asks for it: ("uniform", low, high, values) or ("random", values)."""

    def __init__(self, draws):
        self._draws = list(draws)

    def _next(self, *call):
        *expected, values = self._draws.pop(0)
        assert tuple(expected) == call
        return np.array(values, dtype=float)

    def uniform(self, low, high, size):
        out = self._next("uniform", low, high)
        assert out.shape == (size,)
        return out

    def random(self, size):
        out = self._next("random")
        assert out.shape == (size,)
        return out


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

    # At d = 16 a sampler of Beta(1, d - 1) in place of Beta(1, d - 2) moves c's
    # law by too little for 10^5 triples to show, so that case takes 3 * 10^5.
    @pytest.mark.parametrize("edge", [False, True], ids=["bulk", "edge"])
    @pytest.mark.parametrize("eta", [0.01, 0.3])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_overlaps_follow_the_law_of_the_vector_construction(self, d, eta, edge):
        count = 300_000 if d == 16 else 100_000
        c_rows, w_sq = proposition_search_rows(d, eta, count, d, edge)
        if d == 2:  # phi_t's complement is a line, so chi_2 is u up to a phase
            np.testing.assert_allclose(w_sq, 1.0, atol=1e-12)
        else:
            assert kstest(w_sq, beta(1, d - 2).cdf).pvalue >= 1e-4
        rng = rng_from_seed(100 + d)
        _, _, c = reduction._composition_triples(rng, d, eta, count, count if edge else 0)
        assert ks_2samp(c, c_rows).pvalue >= 1e-4

    @pytest.mark.parametrize("edge", [False, True], ids=["bulk", "edge"])
    @pytest.mark.parametrize("eta", [0.01, 0.3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 16, 65])
    def test_draws_of_a_vector_triple_give_its_overlap(self, d, eta, edge):
        # replay each vector triple's a, b, |w|^2 and omega = arg w - theta_1 as
        # the sampler's draws: it must return that triple's c, not only its law
        m = 2_000
        a, b, theta_1, w, c_rows = composition_rows(d, eta, m, d, edge)
        draws = [("uniform", 1.0 - eta, 1.0, a), ("uniform", 1.0 - eta, 1.0, b)]
        if d > 2:  # U with 1 - (1 - U)^(1/(d-2)) = |w|^2
            draws.append(("random", -np.expm1((d - 2) * np.log1p(-np.abs(w) ** 2))))
        draws.append(("uniform", 0.0, 2.0 * np.pi, np.mod(np.angle(w) - theta_1, 2.0 * np.pi)))
        got_a, got_b, c = reduction._composition_triples(
            _ReplayDraws(draws), d, eta, m, m if edge else 0
        )
        assert np.array_equal(got_a, a) and np.array_equal(got_b, b)
        np.testing.assert_allclose(c, c_rows, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("count", [5, 10_000, 70_000])  # 70,000 crosses a batch
    @pytest.mark.parametrize("eta", [0.01, 0.3])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 16, 65])
    def test_folds_batches_of_triples_drawn_in_turn(self, d, eta, count):
        # batches of 65,536 triples from one stream, the first eighth of each
        # pinned at the edge: a change to either changes every prop-search record
        rng = rng_from_seed(d)
        batches = []
        for start in range(0, count, 65_536):
            m = min(65_536, count - start)
            batches.append(reduction._composition_triples(rng, d, eta, m, m // 8))
        a, b, c = (np.concatenate(column) for column in zip(*batches))
        margin = c - (1.0 - 4.0 * eta)
        excess = (2.0 - 2.0 * c) - (2.0 * (2.0 - 2.0 * a) + 2.0 * (2.0 - 2.0 * b))
        expected = {
            "checked": count,
            "violations": int(np.count_nonzero(margin < -CHAIN_SLACK)),
            "min_slack": float(margin.min()),
            "min_c": float(c.min()),
            "max_triangle_excess": float(excess.max()),
        }
        assert expected["violations"] == 0
        assert dataclasses.asdict(proposition_search(d, eta, count, d)) == expected

    def test_peak_memory_stays_below_nine_float_batch_arrays(self):
        # a batch holds a few float arrays of its length, whatever d: one complex
        # (6, m) array of states alone would exceed the bound
        m = 10_000
        proposition_search(6, 0.1, 1, seed=0)  # imports numpy.random outside the trace
        for d in (6, 64):
            tracemalloc.start()
            try:
                proposition_search(d, 0.1, m, seed=42)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 9 * m * np.dtype(float).itemsize

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 12),
        eta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        count=st.integers(1, 2_000),
        seed=st.integers(0, 2**63),
    )
    def test_composition_bound_holds_on_any_search(self, d, eta, count, seed):
        res = proposition_search(d, eta, count, seed)
        assert res.violations == 0
        assert res.min_slack >= -CHAIN_SLACK
        assert res.max_triangle_excess <= CHAIN_SLACK
        assert res.checked == count

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


class TestIntegerCounts:
    # a numpy integer count used to reach these int fields, and json.dumps then raised
    def test_counts_in_results_are_python_ints(self):
        psi = random_pure_state(2, 4, seed=9)
        config = ReductionConfig(r=2, d=4, n_copies=np.int64(100), epsilon=0.1)
        for result, field in (
            (proposition_search(3, 0.1, np.int64(10), 1), "checked"),
            (gentle_measurement_experiment(psi, 0.1, np.int64(5), 1), "skipped"),
            (run_reduction(psi, config), "samples_total"),
        ):
            value = getattr(result, field)
            assert type(value) is int
            json.dumps(value)


class TestMixedRankStacks:
    # reduced states of rank 1 and 2 in one stack: the oracle calibrates each
    # rank apart, and every trial gets what it gets alone
    PSIS = [
        random_pure_state(2, 3, child_seed(66, t))
        if t % 3
        else PureState(np.kron(random_pure_state(1, 2, t).amplitudes, np.eye(3)[t % 2]), (2, 3))
        for t in range(7)
    ]
    SEEDS = [child_seed(67, t) for t in range(7)]

    @pytest.mark.parametrize(
        "backend", [TomographyBackend.oracle(0.1), TomographyBackend.linear_inversion(10_000)]
    )
    def test_reductions_match_one_trial_at_a_time(self, backend):
        config = ReductionConfig(
            r=2, d=3, n_copies=10_000, epsilon=0.1, mixed_backend=backend, pure_backend=backend
        )
        amps = np.array([psi.amplitudes for psi in self.PSIS])
        columns = _run_reductions(amps, config, [rng_from_seed(s) for s in self.SEEDS])
        assert list(columns) == list(_CHAIN_COLUMNS)
        assert [psi.as_matrix().shape for psi in self.PSIS] == [(2, 3)] * 7
        ranks = [partial_trace_x(psi).rank for psi in self.PSIS]
        assert set(ranks) == {1, 2}
        for rank in (1, 2):
            # the stage arrays of the one-rank sub-stack the rows were built from
            trials = [t for t in range(7) if ranks[t] == rank]
            m = amps[trials].reshape(len(trials), 2, 3)
            rngs = [rng_from_seed(self.SEEDS[t]) for t in trials]
            sigma, phi, _ = _reduction_stages(m, _reduced_states(m), config, rngs)
            for j, t in enumerate(trials):
                alone = run_reduction(self.PSIS[t], dataclasses.replace(config, seed=self.SEEDS[t]))
                assert np.array_equal(sigma[2][j], alone.sigma.eigenvectors)
                assert np.array_equal(sigma[0][j], alone.sigma.matrix)
                assert np.array_equal(phi[j], alone.estimate.amplitudes)
                row = {name: column[t] for name, column in columns.items()}
                expected = report_columns(alone, _CHAIN_COLUMNS)
                assert [(k, type(row[k]), row[k]) for k, _, _ in expected] == expected
                assert list(row) == list(_CHAIN_COLUMNS)
                assert (row["guaranteed_bound"], row["error"]) == (1.0 - 16.0 * 0.1, "")

    def test_gentle_distances_match_one_trial_at_a_time(self):
        amps = np.array([psi.amplitudes for psi in self.PSIS])
        stack = _gentle_distances(amps, 2, 0.01, [rng_from_seed(s) for s in self.SEEDS])
        for row, seed, distance in zip(amps, self.SEEDS, stack):
            assert distance == _gentle_distances(row[None], 2, 0.01, [rng_from_seed(seed)])[0]


@st.composite
def _gentle_cases(draw):
    """A (r, d) state psi, r <= 3 and d <= 16, whose smallest Schmidt
    coefficient squared lies between 1 / r and 10 RANK_TOL, a seed and a
    window edge delta from 0.5 down to 1e-12."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(max(2, r), 16))
    seed = draw(st.integers(0, 2**32))
    low = 10.0 ** draw(st.floats(math.log10(10 * states.RANK_TOL), -math.log10(r)))
    delta = 10.0 ** draw(st.floats(-12.0, math.log10(0.5)))
    rng = np.random.default_rng(seed)
    spectrum = np.append(rng.uniform(0.1, 1.0, r - 1), 0.0)
    if r > 1:
        spectrum *= (1.0 - low) / spectrum.sum()
    spectrum[-1] = 1.0 if r == 1 else low
    x, y = states._haar_unitaries(r, 1, rng)[0], states._haar_unitaries(d, 1, rng)[0]
    m = (x * np.sqrt(spectrum)) @ y[:, :r].T
    return PureState(m.reshape(-1), (r, d)), seed, delta


class TestGentleMeasurement:
    @settings(max_examples=100, deadline=None)
    @given(case=_gentle_cases())
    def test_sharp_sqrt_delta_bound(self, case):
        # T <= sqrt(T(rho, sigma)) on the trace oracle's estimates: with Pi the
        # projector onto sigma's support, T^2 = 1 - keep = tr((1 - Pi) rho)
        # = tr((1 - Pi)(rho - sigma)) <= T(rho, sigma)
        psi, seed, delta = case
        seeds = [child_seed(seed, t) for t in range(4)]
        amps = np.repeat(psi.amplitudes[None], 4, axis=0)
        distances = _gentle_distances(amps, psi.r, delta, [rng_from_seed(s) for s in seeds])
        rho = partial_trace_x(psi)
        for distance, s in zip(distances.tolist(), seeds):
            sigma = trace_distance_estimate(rho, delta, s)
            assert distance <= math.sqrt(trace_distance(rho, sigma)) + CHAIN_SLACK

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
                        sigma = trace_distance_estimate(rho, delta, child_seed(seed, t))
                        tilde = project_and_renormalize(psi, support_projector(sigma, r))
                        ref = trace_distance(tilde.to_density_matrix(), psi.to_density_matrix())
                        assert abs(res.trace_distances[t] - ref) <= 1e-15

    @pytest.mark.parametrize("r, d", [(1, 3), (2, 4), (3, 8)])
    def test_stack_matches_one_trial_at_a_time(self, r, d):
        # each distance is the per-trial vdot and vector norm of the public
        # one-state calls, bit for bit, on a stack of different inputs
        psis = [random_pure_state(r, d, child_seed(63, r, d, t)) for t in range(16)]
        seeds = [child_seed(64, r, d, t) for t in range(16)]
        amps = np.array([psi.amplitudes for psi in psis])
        stack = _gentle_distances(amps, r, 0.01, [rng_from_seed(s) for s in seeds])
        for psi, seed, distance in zip(psis, seeds, stack):
            sigma = trace_distance_estimate(partial_trace_x(psi), 0.01, seed)
            tilde = project_and_renormalize(psi, support_projector(sigma, r)).amplitudes
            a = psi.amplitudes
            assert distance == np.linalg.norm(a - np.vdot(tilde, a) * tilde)

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
