"""Tests for the oracle and measurement-based estimators."""

import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tomoreduce import (
    BackendKind,
    DensityMatrix,
    Projector,
    PureState,
    ReductionConfig,
    TomographyBackend,
    child_seed,
    estimate_mixed_state_from_measurements,
    estimate_pure_state_from_measurements,
    fidelity_mixed,
    fidelity_pure_pure,
    gentle_measurement_experiment,
    oracle_mixed_estimate,
    oracle_pure_estimate,
    partial_trace_x,
    random_pure_state,
    random_rank_r_state,
    rng_from_seed,
    run_reduction,
    sample_shots,
    support_projector,
    trace_distance,
)
from tomoreduce import states
from tomoreduce import tomography as tm
from tomoreduce.states import _haar_unitaries
from tomoreduce.tomography import (
    _measurement_design,
    _num_bases,
    _projector_rows,
    _simulate_inversion,
    _split_budget,
)

OracleGrid = [(r, d) for r in (1, 2, 3) for d in (2, 3, 4, 5, 6, 7, 8) if r <= d]
EpsGrid = (0.2, 0.1, 0.05, 0.01)


def trace_distance_estimate(rho, delta, seed):
    """The same-rank estimate of rho with trace distance in [delta/2, delta]
    that a gentle-measurement trial builds, from the seed's generator."""
    w, v, rngs = rho.eigenvalues[None, : rho.rank], rho.eigenvectors[None], [rng_from_seed(seed)]
    return states._density_matrices(*tm._trace_estimates(w, v, delta, rngs))[0]


class TestOracleMixedEstimate:
    def test_continuity_at_tiny_epsilon(self):
        rho = random_rank_r_state(3, 2, seed=1)
        sigma = oracle_mixed_estimate(rho, 1e-6, seed=2)
        assert trace_distance(rho, sigma) <= 1e-2

    def test_pure_input_window(self):
        psi = random_pure_state(1, 3, seed=3)
        rho = psi.to_density_matrix()
        sigma = oracle_mixed_estimate(rho, 0.1, seed=4)
        assert sigma.rank == 1
        assert 0.9 <= fidelity_mixed(rho, sigma) <= 0.95

    def test_rank_two_window(self):
        rho = random_rank_r_state(4, 2, seed=5)
        sigma = oracle_mixed_estimate(rho, 0.05, seed=6)
        assert sigma.rank == 2
        assert 0.95 <= fidelity_mixed(rho, sigma) <= 0.975

    def test_epsilon_out_of_range(self):
        rho = random_rank_r_state(2, 1, seed=7)
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                oracle_mixed_estimate(rho, eps, seed=0)

    def test_deterministic(self):
        rho = random_rank_r_state(3, 2, seed=8)
        a = oracle_mixed_estimate(rho, 0.1, seed=9)
        b = oracle_mixed_estimate(rho, 0.1, seed=9)
        np.testing.assert_array_equal(a.matrix, b.matrix)


class TestOracleValidation:
    @pytest.mark.parametrize("estimate", [oracle_mixed_estimate, trace_distance_estimate])
    def test_one_validated_state_per_estimate(self, monkeypatch, estimate):
        # calibration runs on raw arrays; only the returned estimate is
        # validated, as one stack check of one row
        rhos = [random_rank_r_state(4, 1 + t % 3, child_seed(130, t)) for t in range(10)]
        original = states._check_density_stack
        checks = []

        def counting(mat, w, v):
            checks.append(mat)
            original(mat, w, v)

        monkeypatch.setattr(states, "_check_density_stack", counting)
        for t, rho in enumerate(rhos):
            sigma = estimate(rho, 0.05, child_seed(131, t))
            assert len(checks) == 1 and len(checks[0]) == 1
            assert np.array_equal(checks[0][0], sigma.matrix)
            checks.clear()


# States of every shape d = 2-8, r = 1-3, three of each, with their seeds.
STACK_CASES = [(d, r, t) for d in range(2, 9) for r in range(1, min(3, d) + 1) for t in range(3)]


def infidelity_stack(w, v, eps, rngs):
    return tm._infidelity_estimates(w, v, eps, rngs)[0]


class TestStackedCalibration:
    # each trial of a stack gets the estimate it gets alone
    @pytest.mark.parametrize(
        "estimate, stack",
        [(oracle_mixed_estimate, infidelity_stack), (trace_distance_estimate, tm._trace_estimates)],
        ids=["fidelity", "trace"],
    )
    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.05, 1e-11])
    def test_stack_matches_one_state_at_a_time(self, estimate, stack, eps):
        rhos = [random_rank_r_state(d, r, child_seed(140, d, r, t)) for d, r, t in STACK_CASES]
        seeds = [child_seed(141, d, r, t) for d, r, t in STACK_CASES]
        rngs = [rng_from_seed(seed) for seed in seeds]
        for i in range(0, len(STACK_CASES), 3):  # a stack of the three states of one (d, r)
            group = rhos[i : i + 3]
            w = np.array([rho.eigenvalues[: rho.rank] for rho in group])
            v = np.array([rho.eigenvectors for rho in group])
            stacked = stack(w, v, eps, rngs[i : i + 3])
            for rho, seed, *sigma in zip(group, seeds[i : i + 3], *stacked):
                alone = estimate(rho, eps, seed)
                assert np.array_equal(alone.matrix, sigma[0])
                assert np.array_equal(alone.eigenvectors, sigma[2])
                assert np.array_equal(alone.eigenvalues, sigma[1])


def recorded_targets():
    """A patch of tomography._draw_targets that records the targets each stack
    draws, and the list it records them in."""
    seen, real = [], tm._draw_targets

    def draw_targets(*args):
        x, raw = real(*args)
        seen.append(x)
        return x, raw

    return mock.patch.object(tm, "_draw_targets", draw_targets), seen


@st.composite
def _oracle_cases(draw):
    """Spectra (3, k) and eigenvectors (3, d, d) of three rank-k states on C^d,
    k <= 3 and d <= 16, two of them with a smallest eigenvalue from 1 / k down
    to 10 RANK_TOL, three seeds and a window edge from 0.5 down to 1e-12."""
    k = draw(st.integers(1, 3))
    d = draw(st.integers(max(2, k), 16))
    seed = draw(st.integers(0, 2**32))
    low = 10.0 ** draw(st.floats(math.log10(10 * states.RANK_TOL), -math.log10(k)))
    eps = 10.0 ** draw(st.floats(-12.0, math.log10(0.5)))
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(3, k))
    if k > 1:
        w[1:, -1] = 0.0
        w *= (1.0 - np.array([0.0, low, low]))[:, None] / w.sum(axis=1, keepdims=True)
        w[1:, -1] = low
    w = -np.sort(-w / w.sum(axis=1, keepdims=True), axis=1)
    return w, _haar_unitaries(d, 3, rng), [child_seed(seed, t) for t in range(3)], eps


class _EdgeGenerator:
    """A seeded generator whose uniform draws all sit at one edge of [0, 1]."""

    def __init__(self, seed, edge: float):
        self._rng, self._edge = rng_from_seed(seed), edge

    def random(self) -> float:
        return self._edge

    def standard_normal(self, size):
        return self._rng.standard_normal(size)


class TestClosedFormOracles:
    # each estimate lands on the target it drew, to rounding, in one
    # construction, and each trial of a stack gets the estimate it gets alone
    @settings(max_examples=150, deadline=None)
    @given(case=_oracle_cases())
    @example(case=(
        np.array([[1.0 - 1e-9, 1e-9]] * 3), _haar_unitaries(2, 3, np.random.default_rng(1)),
        [1, 2, 3], 0.5,
    ))
    def test_infidelity_oracle_lands_on_its_target(self, case):
        w, v, seeds, eps = case
        patch, targets = recorded_targets()
        with patch:
            sigma, f = tm._infidelity_estimates(w, v, eps, [rng_from_seed(s) for s in seeds])
        assert np.all(np.abs((1.0 - f) - targets[0]) <= 1e-14)
        assert np.all((eps / 2 <= targets[0]) & (targets[0] <= eps))
        assert np.all(states._ranks(sigma[1]) <= w.shape[1])
        for t, seed in enumerate(seeds):
            rng = [rng_from_seed(seed)]
            alone, f_alone = tm._infidelity_estimates(w[t : t + 1], v[t : t + 1], eps, rng)
            assert f_alone[0] == f[t]
            assert all(np.array_equal(a[0], b[t]) for a, b in zip(alone, sigma))

    @settings(max_examples=150, deadline=None)
    @given(case=_oracle_cases())
    def test_trace_oracle_lands_on_its_target(self, case):
        w, v, seeds, delta = case
        k = w.shape[1]
        patch, targets = recorded_targets()
        with patch:
            sigma = tm._trace_estimates(w, v, delta, [rng_from_seed(s) for s in seeds])
        kept = v[:, :, :k]
        rho = (kept * w[:, None, :]) @ kept.conj().swapaxes(1, 2)
        assert np.all(np.abs(states._half_trace_norms(rho - sigma[0]) - targets[0]) <= 1e-14)
        assert np.all(states._ranks(sigma[1]) <= k)
        for t, seed in enumerate(seeds):
            alone = tm._trace_estimates(w[t : t + 1], v[t : t + 1], delta, [rng_from_seed(seed)])
            assert all(np.array_equal(a[0], b[t]) for a, b in zip(alone, sigma))

    @pytest.mark.parametrize("k, d", [(1, 2), (2, 3), (2, 4), (3, 4)])
    @pytest.mark.parametrize("eps", [0.9, 0.99])
    def test_wide_windows_keep_the_product_psd(self, k, d, eps):
        # at a large angle t a random A makes cos t I + sin t A indefinite;
        # A's share of Z is scaled down so that it never is, and F stays cos^2 t
        rng = np.random.default_rng(child_seed(177, k, d))
        w = -np.sort(-rng.dirichlet(np.ones(k), size=64), axis=1)
        v = _haar_unitaries(d, 64, rng)
        patch, targets = recorded_targets()
        with patch:
            rngs = [rng_from_seed(child_seed(178, t)) for t in range(64)]
            _, f = tm._infidelity_estimates(w, v, eps, rngs)
        assert np.all(np.abs((1.0 - f) - targets[0]) <= 1e-14)

    @pytest.mark.parametrize("edge", [0.0, 1.0])
    @pytest.mark.parametrize("eps", [1e-12, 1e-6, 0.1])
    def test_targets_at_the_shrunk_window_edges_land(self, edge, eps):
        # a target on either edge of the window shrunk by the rounding bound
        # lands inside the window (the exact recheck raises otherwise)
        rhos = [random_rank_r_state(d, r, child_seed(179, d, r, t)) for d, r, t in STACK_CASES]
        for i in range(0, len(STACK_CASES), 3):
            w = np.array([rho.eigenvalues[: rho.rank] for rho in rhos[i : i + 3]])
            v = np.array([rho.eigenvectors for rho in rhos[i : i + 3]])
            rngs = [_EdgeGenerator(child_seed(180, i, t), edge) for t in range(3)]
            infidelity_stack(w, v, eps, rngs)
            tm._trace_estimates(w, v, eps, rngs)

    @pytest.mark.parametrize("lam", [1.5e-10, 1e-9, 1e-8])
    @pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10, 1e-12])
    def test_kept_eigenvalues_near_the_rank_tolerance_land(self, lam, eps):
        # r = 2, d = 4, Schmidt spectrum (1 - lam, lam): the perturbation
        # families floored sigma's eigenvalues at 1e-7 of the largest, so
        # these windows climbed, bisected and raised RuntimeError on every seed
        for t in range(8):
            rho = partial_trace_x(_schmidt_state(lam, child_seed(170, t)))
            assert rho.rank == 2
            sigma = oracle_mixed_estimate(rho, eps, child_seed(171, t))
            assert 1 - eps <= fidelity_mixed(rho, sigma) <= 1 - eps / 2
            assert sigma.rank == 2
            sigma = trace_distance_estimate(rho, eps, child_seed(172, t))
            assert eps / 2 <= trace_distance(rho, sigma) <= eps

    def test_window_within_rounding_of_the_truncation_floor(self):
        # lam = 1e-12 drops a weight eta within 1e-15 of eps = 1e-12: every state
        # raises the floor's ValueError (44 of 108 used to raise RuntimeError
        # after 200 bisection steps), and lam = 1e-13 lands
        for t in range(108):
            rho = partial_trace_x(_schmidt_state(1e-12, child_seed(173, t)))
            with pytest.raises(ValueError, match="the least infidelity of any rank-1 estimate"):
                oracle_mixed_estimate(rho, 1e-12, child_seed(174, t))
            rho = partial_trace_x(_schmidt_state(1e-13, child_seed(173, t)))
            sigma = oracle_mixed_estimate(rho, 1e-12, child_seed(174, t))
            assert 1 - 1e-12 <= fidelity_mixed(rho, sigma) <= 1 - 0.5e-12

    @pytest.mark.parametrize("d, r", [(2, 2), (3, 3)])
    @pytest.mark.parametrize("eps", [0.5, 0.9])
    def test_full_rank_reach(self, d, r, eps):
        # at full rank targets stop short of 1 - min w, which no estimate of any
        # rank exceeds; a window wholly beyond an oracle's reach raises ValueError
        for t in range(50):
            rho = random_rank_r_state(d, r, child_seed(175, d, t))
            sigma = oracle_mixed_estimate(rho, eps, child_seed(176, d, t))
            f = fidelity_mixed(rho, sigma)
            assert 1 - eps <= f <= 1 - eps / 2 and f >= rho.eigenvalues[-1] and sigma.rank == r
        # gentle's rotation reaches a trace distance of about the top s = 1
        # eigenvalue at k = 3, d = 4: 0.34 here, below the window [0.45, 0.9]
        rho = DensityMatrix.from_eigensystem(np.array([0.34, 0.33, 0.33]), np.eye(4)[:, :3])
        with pytest.raises(ValueError, match="within the oracle's reach"):
            trace_distance_estimate(rho, 0.9, 0)


class TestOraclePureEstimate:
    def test_tiny_epsilon(self):
        psi = random_pure_state(1, 4, seed=10)
        phi = oracle_pure_estimate(psi, 1e-9, seed=11)
        assert fidelity_pure_pure(phi, psi) >= 1 - 1e-9

    def test_window_d2(self):
        psi = random_pure_state(1, 2, seed=12)
        phi = oracle_pure_estimate(psi, 0.2, seed=13)
        assert 0.8 <= fidelity_pure_pure(phi, psi) <= 0.9

    def test_rejects_one_dimensional_space(self):
        psi = PureState(np.array([1.0]), (1, 1))
        with pytest.raises(ValueError, match="one-dimensional"):
            oracle_pure_estimate(psi, 0.1, seed=0)

    @pytest.mark.parametrize("n", [2, 3, 4, 9, 24])
    def test_stack_matches_one_trial_at_a_time(self, n):
        # and each row is the per-trial loop's: three draws, one vdot and one vector norm
        psis = [random_pure_state(1, n, child_seed(150, n, t)) for t in range(16)]
        seeds = [child_seed(151, n, t) for t in range(16)]
        amps = np.array([psi.amplitudes for psi in psis])
        stack = tm._oracle_pure_rows(amps, 0.1, [rng_from_seed(seed) for seed in seeds])
        for psi, seed, row in zip(psis, seeds, stack):
            assert np.array_equal(row, oracle_pure_estimate(psi, 0.1, seed).amplitudes)
            rng, a = rng_from_seed(seed), psi.amplitudes
            target = rng.uniform(0.9, 0.95)
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            chi = raw - np.vdot(a, raw) * a
            chi = chi / np.linalg.norm(chi)
            loop = math.sqrt(target) * a + math.sqrt(1.0 - target) * chi
            assert np.array_equal(row, states._phase_normalized(loop[None])[0])


class TestOracleWindowSweep:
    def test_mixed_oracle_hits_window_everywhere(self):
        # full (r, d, eps) grid, ~5000 randomized calls, zero misses
        per_cell = 5000 // (len(OracleGrid) * len(EpsGrid)) + 1
        calls = 0
        for r, d in OracleGrid:
            for eps in EpsGrid:
                for t in range(per_cell):
                    rho = random_rank_r_state(d, r, child_seed(100, calls))
                    sigma = oracle_mixed_estimate(rho, eps, child_seed(101, calls))
                    f = fidelity_mixed(rho, sigma)
                    assert 1 - eps <= f <= 1 - eps / 2, (r, d, eps, f)
                    assert sigma.rank == rho.rank
                    calls += 1
        assert calls >= 5000

    def test_pure_oracle_hits_window_everywhere(self):
        dims = [rd for rd in range(2, 10)]
        per_cell = 5000 // (len(dims) * len(EpsGrid)) + 1
        calls = 0
        for dim in dims:
            for eps in EpsGrid:
                for t in range(per_cell):
                    psi = random_pure_state(1, dim, child_seed(110, calls))
                    phi = oracle_pure_estimate(psi, eps, child_seed(111, calls))
                    f = fidelity_pure_pure(phi, psi)
                    assert 1 - eps <= f <= 1 - eps / 2, (dim, eps, f)
                    calls += 1
        assert calls >= 5000


class TestOracleTraceDistance:
    def test_window(self):
        for t in range(30):
            d = 2 + t % 5
            r = 1 + t % min(3, d)
            rho = random_rank_r_state(d, r, child_seed(120, t))
            sigma = trace_distance_estimate(rho, 0.05, child_seed(121, t))
            assert 0.025 <= trace_distance(rho, sigma) <= 0.05
            assert sigma.rank == rho.rank


class TestEstimatePure:
    def test_large_budget_consistency(self):
        psi = random_pure_state(1, 2, seed=20)
        est = estimate_pure_state_from_measurements(psi, 10**6, seed=21)
        assert 1 - fidelity_pure_pure(est, psi) <= 1e-3

    def test_basis_state_median_error(self):
        # the standard basis is part of the design; median infidelity over
        # 100 trials stays below 10 * d / n
        d, n = 2, 10_000
        e0 = PureState(np.eye(d)[0].astype(complex), (1, d))
        infids = []
        for t in range(100):
            est = estimate_pure_state_from_measurements(e0, n, child_seed(22, t))
            infids.append(1 - fidelity_pure_pure(est, e0))
        assert np.median(infids) <= 10 * d / n

    def test_minimum_budget_returns_unit_vector(self):
        psi = random_pure_state(1, 2, seed=23)
        est = estimate_pure_state_from_measurements(psi, 4, seed=24)
        assert np.linalg.norm(est.amplitudes) == pytest.approx(1.0, abs=1e-9)

    def test_budget_floor(self):
        psi = random_pure_state(1, 3, seed=25)
        with pytest.raises(ValueError, match="floor"):
            estimate_pure_state_from_measurements(psi, 8, seed=0)

    def test_budget_beyond_int64_rejected(self):
        # the budget is split into int64 shot counts per basis
        psi = random_pure_state(1, 2, seed=25)
        with pytest.raises(ValueError, match="int64"):
            estimate_pure_state_from_measurements(psi, 2**63, seed=0)

    def test_deterministic(self):
        psi = random_pure_state(1, 3, seed=26)
        a = estimate_pure_state_from_measurements(psi, 100, seed=27)
        b = estimate_pure_state_from_measurements(psi, 100, seed=27)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_median_infidelity_nonincreasing(self):
        psi = random_pure_state(1, 2, seed=29)
        medians = []
        for n in (100, 1000, 10_000):
            vals = []
            for t in range(50):
                est = estimate_pure_state_from_measurements(psi, n, child_seed(290 + n, t))
                vals.append(1 - fidelity_pure_pure(est, psi))
            medians.append(float(np.median(vals)))
        assert medians[0] >= medians[1] >= medians[2]


def _loop_inversion(probabilities, dim, n, rng):
    """The per-basis reference: the fixed design of dimension d rotated by one
    Haar draw, one multinomial per basis, rows from np.outer, solved by
    lstsq; the rotation and then the shots are drawn from ``rng``. Returns
    (rows, x)."""
    num_bases = _num_bases(dim)
    design_rng = np.random.default_rng(tm._design_seed(dim))
    design = _measurement_design(dim, num_bases, design_rng)
    u = _haar_unitaries(dim, 1, rng)[0]
    rows, freqs = [], []
    for b, shots in zip(design, _split_budget(n, num_bases)):
        if shots == 0:
            continue
        basis = u @ b
        p = np.clip(probabilities(basis), 0.0, None)
        counts = rng.multinomial(shots, p / p.sum())
        for j in range(dim):
            rows.append(np.outer(basis[:, j].conj(), basis[:, j]).reshape(-1))
            freqs.append(counts[j] / shots)
    x, *_ = np.linalg.lstsq(np.array(rows), np.array(freqs, dtype=complex), rcond=None)
    x = x.reshape(dim, dim)
    return np.array(rows), (x + x.conj().T) / 2.0


class TestStackedInversion:
    # d = 2 with n = 4 or 5 leaves zero-shot bases and the fewest bases with
    # shots; d = 8 and 9 are the largest dimensions the sweeps use
    CASES = [(2, 4), (2, 5), (8, 10**4), (9, 10**4)]

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_broadcast_rows_match_outer(self, dim):
        bases = _measurement_design(dim, 5, np.random.default_rng(dim))
        outer = [np.outer(u[:, j].conj(), u[:, j]).reshape(-1) for u in bases for j in range(dim)]
        assert np.array_equal(_projector_rows(bases), np.array(outer))

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    @pytest.mark.parametrize("dim,n", CASES)
    def test_frame_operator_solve_matches_lstsq(self, dim, n, kind):
        # the rotated fixed design solved through its cached frame operator
        # against lstsq on the rotated bases
        if kind == "pure":
            amps = random_pure_state(1, dim, seed=50 + dim).amplitudes
            per_basis = lambda u: np.abs(u.conj().T @ amps) ** 2
            mat = np.outer(amps, amps.conj())
        else:
            mat = random_rank_r_state(dim, 2, seed=50 + dim).matrix
            per_basis = lambda u: np.real(np.sum(u.conj() * (mat @ u), axis=0))
        # the rotation and then the shots come from one generator
        rows, expected = _loop_inversion(per_basis, dim, n, np.random.default_rng(52))
        assert rows.shape[0] >= (dim + 1) * dim
        x = _simulate_inversion(mat[None], [n], [np.random.default_rng(52)])[0]
        assert np.max(np.abs(x - expected)) <= 1e-12

    @pytest.mark.parametrize("product_bytes", [1, tm._PRODUCT_BYTES])
    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_stack_matches_one_trial_at_a_time(self, dim, product_bytes, monkeypatch):
        # unequal budgets: trials with the same number of bases share one pass,
        # in chunks of one trial or as many as _PRODUCT_BYTES holds
        monkeypatch.setattr(tm, "_PRODUCT_BYTES", product_bytes)
        budgets = [dim * dim, 10**4, dim * dim + 1, 997, dim * dim, 10**5]
        rhos = [random_rank_r_state(dim, 1 + t % dim, child_seed(152, dim, t)) for t in range(6)]
        mats = np.array([rho.matrix for rho in rhos])
        seeds = [child_seed(153, dim, t) for t in range(6)]
        stack = _simulate_inversion(mats, budgets, [rng_from_seed(seed) for seed in seeds])
        for mat, n, seed, x in zip(mats, budgets, seeds, stack):
            assert np.array_equal(x, _simulate_inversion(mat[None], [n], [rng_from_seed(seed)])[0])


# Every key the estimators can ask for at d = 2-9: the full design of each
# dimension, and the prefixes that budgets from the d^2 floor up leave with shots.
DESIGN_KEYS = [(d, _num_bases(d)) for d in range(2, 10)] + [
    (2, 4), (2, 5), (3, 9), (3, 10), (3, 11), (4, 16), (4, 17), (4, 18), (4, 19)
]


class TestCachedDesign:
    @pytest.mark.parametrize("dim,used", DESIGN_KEYS)
    def test_exact_probabilities_round_trip(self, dim, used):
        # exact outcome probabilities, summed projector by projector, are
        # inverted back to the state through the cached frame-operator inverse
        design = tm._design(dim, used)
        assert design.vectors.shape == (dim, used * dim)
        rho = random_rank_r_state(dim, dim, seed=60 + dim).matrix
        y = np.zeros((dim, dim), dtype=complex)
        for g in design.vectors.T:
            y += np.real(g.conj() @ rho @ g) * np.outer(g, g.conj())
        x = (design.frame_inverse @ y.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(x - rho)) <= 1e-12

    def test_budgets_use_a_prefix_of_one_design(self):
        full = tm._design(4, _num_bases(4)).vectors
        for used in (16, 17, 18, 19):
            assert np.array_equal(tm._design(4, used).vectors, full[:, : used * 4])

    def test_each_key_is_built_once(self):
        tm._design.cache_clear()
        rho = random_rank_r_state(3, 2, seed=61)
        psi = random_pure_state(1, 3, seed=62)
        for t in range(3):
            estimate_mixed_state_from_measurements(rho, 2, 10**4, child_seed(63, t))
            estimate_pure_state_from_measurements(psi, 10, child_seed(64, t))
        rngs = [rng_from_seed(s) for s in range(1, 5)]
        tm._inverted_mixed_states(np.array([rho.matrix] * 4), 2, [9, 10, 10**4, 9], rngs)
        # keys (3, 12), (3, 10) and (3, 9): built once each, then read
        info = tm._design.cache_info()
        assert (info.misses, info.hits) == (3, 6)

    def test_rank_deficient_design_raises_when_built(self, monkeypatch):
        # every basis the standard basis: the frame operator sees only diagonals
        monkeypatch.setattr(
            tm, "_measurement_design", lambda dim, m, rng: np.array([np.eye(dim, dtype=complex)] * m)
        )
        tm._design.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="ill conditioned"):
                tm._design(3, 12)
            rho = random_rank_r_state(3, 2, seed=65)
            with pytest.raises(RuntimeError, match="ill conditioned"):
                estimate_mixed_state_from_measurements(rho, 2, 10**4, seed=66)
        finally:
            tm._design.cache_clear()
            tm._design_seed.cache_clear()

    @pytest.mark.parametrize("dim", range(2, 10))
    def test_stack_matches_one_trial_at_a_time(self, dim):
        # budgets from the floor up, so a stack mixes keys, bit for bit
        budgets = [dim * dim, dim * dim + 1, 10**4, dim * dim, 10**3, 10**4]
        seeds = [child_seed(67, dim, t) for t in range(len(budgets))]
        rhos = [random_rank_r_state(dim, 1 + t % dim, child_seed(68, dim, t)) for t in range(6)]
        r = min(2, dim)
        mats = np.array([rho.matrix for rho in rhos])
        stacked = tm._inverted_mixed_states(mats, r, budgets, [rng_from_seed(s) for s in seeds])
        for rho, n, seed, *sigma in zip(rhos, budgets, seeds, *stacked):
            alone = estimate_mixed_state_from_measurements(rho, r, n, seed)
            assert np.array_equal(alone.matrix, sigma[0])
            assert np.array_equal(alone.eigenvalues, sigma[1])
            assert np.array_equal(alone.eigenvectors, sigma[2])
        psis = [random_pure_state(1, dim, child_seed(69, dim, t)) for t in range(6)]
        amps = np.array([psi.amplitudes for psi in psis])
        stacked = tm._inverted_pure_states(amps, budgets, [rng_from_seed(s) for s in seeds])
        for psi, n, seed, row in zip(psis, budgets, seeds, stacked):
            alone = estimate_pure_state_from_measurements(psi, n, seed)
            assert np.array_equal(alone.amplitudes, row)


class TestEstimateMixed:
    def test_maximally_mixed_consistency(self):
        rho = DensityMatrix.from_matrix(np.eye(3) / 3)
        est = estimate_mixed_state_from_measurements(rho, 3, 10**6, seed=30)
        assert trace_distance(rho, est) <= 0.02

    def test_rank_one_fidelity_improves_with_budget(self):
        psi = random_pure_state(1, 3, seed=31)
        rho = psi.to_density_matrix()
        medians = []
        for n in (10**4, 10**5):
            fids = []
            for t in range(50):
                est = estimate_mixed_state_from_measurements(rho, 1, n, child_seed(32 + n, t))
                assert est.rank == 1
                fids.append(fidelity_mixed(rho, est))
            medians.append(np.median(fids))
        assert medians[1] >= medians[0]

    def test_output_is_valid_state(self):
        rho = random_rank_r_state(4, 2, seed=33)
        est = estimate_mixed_state_from_measurements(rho, 2, 64, seed=34)
        assert est.rank <= 2
        assert est.eigenvalues.min() >= -1e-9
        assert np.real(np.trace(est.matrix)) == pytest.approx(1.0, abs=1e-9)

    def test_median_infidelity_nonincreasing(self):
        rho = random_rank_r_state(2, 2, seed=35)
        medians = []
        for n in (100, 1000, 10_000):
            vals = []
            for t in range(50):
                est = estimate_mixed_state_from_measurements(rho, 2, n, child_seed(36 + n, t))
                vals.append(1 - fidelity_mixed(rho, est))
            medians.append(float(np.median(vals)))
        assert medians[0] >= medians[1] >= medians[2]

    @pytest.mark.parametrize("n", [4.5, float("nan"), 100.0, True])
    def test_rejects_budget_that_is_not_an_integer(self, n):
        # 4.5 used to die in a TypeError, and NaN was reported as beyond int64;
        # sample_shots used to return a count for 4.5
        rho = random_rank_r_state(2, 1, seed=38)
        psi = random_pure_state(1, 2, seed=39)
        for estimate in (
            lambda: estimate_mixed_state_from_measurements(rho, 1, n, 3),
            lambda: estimate_pure_state_from_measurements(psi, n, 3),
            lambda: sample_shots(psi, Projector(np.eye(2)), n, 3),
        ):
            with pytest.raises(ValueError, match=f"shots must be an integer, got {n!r}"):
                estimate()

    @pytest.mark.parametrize("r", [1.5, 3.0, True])
    def test_rejects_rank_that_is_not_an_integer(self, r):
        # 1.5 used to fail inside the kernel with a TypeError from a slice
        rho = random_rank_r_state(3, 2, seed=37)
        with pytest.raises(ValueError, match=f"^r must be an integer, got {r!r}$"):
            estimate_mixed_state_from_measurements(rho, r, 100, 0)
        assert estimate_mixed_state_from_measurements(rho, np.int64(2), 100, 0).rank <= 2

    def test_budget_floor_and_rank_bounds(self):
        rho = random_rank_r_state(3, 2, seed=37)
        with pytest.raises(ValueError, match="floor"):
            estimate_mixed_state_from_measurements(rho, 2, 8, seed=0)
        with pytest.raises(ValueError, match="r <= d"):
            estimate_mixed_state_from_measurements(rho, 4, 100, seed=0)


def _truncated_state() -> PureState:
    """psi on (2, 4) with Schmidt spectrum (1 - 5e-11, 5e-11): its reduced state
    has rank 1 and drops an eigenvalue of 5e-11 below RANK_TOL."""
    m = np.zeros((2, 4))
    m[0, 0], m[1, 1] = math.sqrt(1.0 - 5e-11), math.sqrt(5e-11)
    return PureState(m.reshape(-1), (2, 4))


def _schmidt_state(lam: float, seed) -> PureState:
    """A state on (2, 4) with Schmidt spectrum (1 - lam, lam) and Haar Schmidt vectors."""
    rng = np.random.default_rng(seed)
    x, y = _haar_unitaries(2, 1, rng)[0], _haar_unitaries(4, 1, rng)[0]
    m = (x * np.sqrt([1.0 - lam, lam])) @ y[:, :2].T
    return PureState(m.reshape(-1), (2, 4))


class TestTruncationFloor:
    # every rank-1 estimate of that state has infidelity >= 5e-11 and trace
    # distance >= 2.5e-11; each entry fails on a window below that floor
    # before it builds an estimate
    ENTRIES = {
        "oracle_mixed_estimate": (
            "infidelity", 5e-11, lambda psi, eps: oracle_mixed_estimate(partial_trace_x(psi), eps, 0)
        ),
        "run_reduction": (
            "infidelity", 5e-11,
            lambda psi, eps: run_reduction(psi, ReductionConfig(r=2, d=4, n_copies=1, epsilon=eps)),
        ),
        "gentle_measurement_experiment": (
            "trace distance", 2.5e-11, lambda psi, eps: gentle_measurement_experiment(psi, eps, 3, 0)
        ),
    }

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_window_below_the_floor_fails_before_any_estimate(self, entry, monkeypatch):
        what, floor, call = self.ENTRIES[entry]
        built = []
        monkeypatch.setattr(tm, "_from_eigensystems", lambda *args: built.append(args))
        message = (
            f"target {what} 1e-12 lies below {floor:.3g}, the least {what} of any rank-1 "
            "estimate: the eigenvalues rho keeps at rank 1 sum to 1 - 5e-11"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(_truncated_state(), 1e-12)
        assert built == []

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_window_above_the_floor_lands(self, entry):
        call = self.ENTRIES[entry][2]
        call(_truncated_state(), 1e-10)  # 1e-10 lies above both floors: no error


class TestResolutionFloor:
    # a calibrated window below 1e-12 is not resolved in float64
    def test_below_floor_rejected(self):
        rho = random_rank_r_state(4, 2, seed=140)
        for call in (
            lambda: oracle_mixed_estimate(rho, 9e-13, seed=141),
            lambda: TomographyBackend.oracle(9e-13),
        ):
            with pytest.raises(ValueError, match="1e-12"):
                call()

    def test_floor_lands(self):
        for t in range(10):
            rho = random_rank_r_state(2 + t % 7, 1 + t % 2, child_seed(142, t))
            sigma = oracle_mixed_estimate(rho, 1e-12, child_seed(143, t))
            assert 1 - 1e-12 <= fidelity_mixed(rho, sigma) <= 1 - 0.5e-12
            sigma = trace_distance_estimate(rho, 1e-12, child_seed(144, t))
            assert 0.5e-12 <= trace_distance(rho, sigma) <= 1e-12


class TestBackendConfig:
    def test_oracle_requires_epsilon(self):
        with pytest.raises(ValueError):
            TomographyBackend(kind=BackendKind.ORACLE_EXACT_INFIDELITY)
        with pytest.raises(ValueError):
            TomographyBackend.oracle(1.5)

    def test_measurement_requires_budget(self):
        with pytest.raises(ValueError):
            TomographyBackend(kind=BackendKind.MEASUREMENT_LINEAR_INVERSION)
        with pytest.raises(ValueError):
            TomographyBackend.linear_inversion(0)

    @pytest.mark.parametrize("shots", [float("nan"), 4.5, 100.0, True, np.bool_(True)])
    def test_rejects_shots_that_are_not_an_integer(self, shots):
        with pytest.raises(ValueError, match=f"shots must be an integer, got {shots!r}"):
            TomographyBackend.linear_inversion(shots)

    def test_numpy_integer_shots_accepted(self):
        assert TomographyBackend.linear_inversion(np.int64(5)).shots == 5

    def test_min_shots(self):
        for dim in (1, 2, 6):
            assert TomographyBackend.oracle(0.1).min_shots(dim) == 1
            assert TomographyBackend.linear_inversion(5).min_shots(dim) == dim * dim

    def test_dispatch(self):
        # each backend's stack kernels are the ones its public entries run
        rho = random_rank_r_state(3, 2, seed=40)
        oracle = TomographyBackend.oracle(0.1)
        sigma = oracle_mixed_estimate(rho, 0.1, seed=41)
        assert 0.9 <= fidelity_mixed(rho, sigma) <= 0.95
        stack = (rho.matrix[None], rho.eigenvalues[None], rho.eigenvectors[None])
        (same, _, _), _ = oracle._estimate_mixed_stack(stack, 2, [rng_from_seed(41)], 1)
        assert np.array_equal(same[0], sigma.matrix)
        li = TomographyBackend.linear_inversion(shots=5000)
        sigma2 = estimate_mixed_state_from_measurements(rho, 2, 5000, seed=42)
        assert sigma2.rank <= 2
        (same, _, _), _ = li._estimate_mixed_stack(stack, 2, [rng_from_seed(42)], 5000)
        assert np.array_equal(same[0], sigma2.matrix)
        psi = random_pure_state(1, 3, seed=43)
        phi = oracle_pure_estimate(psi, 0.1, seed=44)
        assert 0.9 <= fidelity_pure_pure(phi, psi) <= 0.95
        same = oracle._estimate_pure_stack(psi.amplitudes[None], [rng_from_seed(44)], [1])
        assert np.array_equal(same[0], phi.amplitudes)
        phi2 = estimate_pure_state_from_measurements(psi, 2000, seed=45)
        assert np.linalg.norm(phi2.amplitudes) == pytest.approx(1.0, abs=1e-9)
        same = li._estimate_pure_stack(psi.amplitudes[None], [rng_from_seed(45)], [2000])
        assert np.array_equal(same[0], phi2.amplitudes)


# Each check the stack kernels trust their callers with, at the public entry
# that makes it: the call, and the whole message of its ValueError.
_RHO3 = random_rank_r_state(3, 2, seed=70)
_PSI3 = random_pure_state(1, 3, seed=71)
ENTRY_CHECKS = {
    "pure_budget_not_integer": (
        lambda: estimate_pure_state_from_measurements(_PSI3, 9.5, 0),
        "shots must be an integer, got 9.5",
    ),
    "pure_budget_below_floor": (
        lambda: estimate_pure_state_from_measurements(_PSI3, 8, 0),
        "budget 8 is below the informational floor 9",
    ),
    "pure_budget_beyond_int64": (
        lambda: estimate_pure_state_from_measurements(_PSI3, 2**63, 0),
        "9.22e+18 shots exceed the int64 limit 2^63 - 1",
    ),
    "mixed_budget_not_integer": (
        lambda: estimate_mixed_state_from_measurements(_RHO3, 2, 9.5, 0),
        "shots must be an integer, got 9.5",
    ),
    "mixed_budget_below_floor": (
        lambda: estimate_mixed_state_from_measurements(_RHO3, 2, 8, 0),
        "budget 8 is below the informational floor 9",
    ),
    "mixed_budget_beyond_int64": (
        lambda: estimate_mixed_state_from_measurements(_RHO3, 2, 2**63, 0),
        "9.22e+18 shots exceed the int64 limit 2^63 - 1",
    ),
    "mixed_rank_above_d": (
        lambda: estimate_mixed_state_from_measurements(_RHO3, 4, 100, 0),
        "need 1 <= r <= d, got r=4, d=3",
    ),
    "mixed_rank_zero": (
        lambda: estimate_mixed_state_from_measurements(_RHO3, 0, 100, 0),
        "need 1 <= r <= d, got r=0, d=3",
    ),
    "oracle_pure_eps_zero": (
        lambda: oracle_pure_estimate(_PSI3, 0.0, 0),
        "target infidelity must be in (0, 1), got 0.0",
    ),
    "oracle_pure_eps_one": (
        lambda: oracle_pure_estimate(_PSI3, 1.0, 0),
        "target infidelity must be in (0, 1), got 1.0",
    ),
    "oracle_pure_one_dimensional": (
        lambda: oracle_pure_estimate(PureState(np.array([1.0]), (1, 1)), 0.1, 0),
        "no orthogonal direction available in a one-dimensional space",
    ),
    "reduction_dims": (
        lambda: run_reduction(_PSI3, ReductionConfig(r=1, d=4, n_copies=10, epsilon=0.1)),
        "state dims (1, 3) do not match config (1, 4)",
    ),
    "support_rank_cap": (
        lambda: support_projector(_RHO3, 0),
        "rank cap must be at least 1",
    ),
}


@pytest.mark.parametrize("name", ENTRY_CHECKS)
def test_entry_checks(name):
    call, message = ENTRY_CHECKS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda rho, psi: oracle_mixed_estimate(rho, 0.1, 0),
        lambda rho, psi: gentle_measurement_experiment(psi, 0.1, 3, 0),
    ],
    ids=["oracle_mixed", "gentle"],
)
def test_oracles_reject_d_1(call):
    # there is no other state on d = 1 to calibrate toward; these calls used
    # to give up with a RuntimeError after eight perturbation families
    rho = DensityMatrix.from_matrix(np.eye(1))
    psi = PureState(np.array([1.0]), (1, 1))
    with pytest.raises(ValueError, match="cannot perturb the only state on d = 1"):
        call(rho, psi)
