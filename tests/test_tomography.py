"""Tests for the oracle and measurement-based estimators."""

import math
import re

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
    that a gentle-measurement trial calibrates, from the seed's generator."""
    w, v, rngs = rho.eigenvalues[None, : rho.rank], rho.eigenvectors[None], [rng_from_seed(seed)]
    sigma = tm._calibrated_estimates(w, v, rngs, tm._sided_trace_distances, delta / 2.0, delta)
    return states._density_matrices(*sigma)[0]


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


class TestStackedCalibration:
    # the lockstep calibration of a stack lands every trial where it lands alone
    @pytest.mark.parametrize(
        "estimate, discrepancies",
        [
            (oracle_mixed_estimate, tm._sided_infidelities),
            (trace_distance_estimate, tm._sided_trace_distances),
        ],
        ids=["fidelity", "trace"],
    )
    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.05, 1e-11])
    def test_stack_matches_one_state_at_a_time(self, estimate, discrepancies, eps):
        rhos = [random_rank_r_state(d, r, child_seed(140, d, r, t)) for d, r, t in STACK_CASES]
        seeds = [child_seed(141, d, r, t) for d, r, t in STACK_CASES]
        rngs = [rng_from_seed(seed) for seed in seeds]
        for i in range(0, len(STACK_CASES), 3):  # a stack of the three states of one (d, r)
            stack = rhos[i : i + 3]
            w = np.array([rho.eigenvalues[: rho.rank] for rho in stack])
            v = np.array([rho.eigenvectors for rho in stack])
            stacked = tm._calibrated_estimates(w, v, rngs[i : i + 3], discrepancies, eps / 2, eps)
            for rho, seed, *sigma in zip(stack, seeds[i : i + 3], *stacked):
                alone = estimate(rho, eps, seed)
                assert np.array_equal(alone.matrix, sigma[0])
                assert np.array_equal(alone.eigenvectors, sigma[2])
                assert np.array_equal(alone.eigenvalues, sigma[1])

    @pytest.mark.parametrize("eps", [0.2, 1e-3, 1e-5, 1e-7])
    def test_start_rungs_land_where_rung_zero_does(self, monkeypatch, eps):
        # every state of STACK_CASES, calibrated from its start rung and from
        # rung 0, lands on the same bits; some start above rung 0 at every eps
        # (below eps = 1e-8 the ladder's first rung, 1e-4, is already near the window)
        rhos = [random_rank_r_state(d, r, child_seed(142, d, r, t)) for d, r, t in STACK_CASES]
        seeds = [child_seed(143, d, r, t) for d, r, t in STACK_CASES]
        starts, start_rungs = [], tm._start_rungs

        def recorded(rho_w, family, lo):
            start = start_rungs(rho_w, family, lo)
            starts.extend(start.tolist())
            return start

        def calibrated():
            sigmas = []
            for i in range(0, len(STACK_CASES), 3):
                stack = rhos[i : i + 3]
                w = np.array([rho.eigenvalues[: rho.rank] for rho in stack])
                v = np.array([rho.eigenvectors for rho in stack])
                rngs = [rng_from_seed(seed) for seed in seeds[i : i + 3]]
                kernel = tm._sided_infidelities
                sigmas.append(tm._calibrated_estimates(w, v, rngs, kernel, eps / 2, eps))
            return sigmas

        monkeypatch.setattr(tm, "_start_rungs", recorded)
        climbed = calibrated()
        assert max(starts) > 0
        monkeypatch.setattr(tm, "_start_rungs", lambda rho_w, family, lo: np.zeros(len(rho_w), int))
        for ours, from_zero in zip(climbed, calibrated()):
            for a, b in zip(ours, from_zero):
                assert np.array_equal(a, b)

    def test_stack_cases_bisect_and_redraw(self, monkeypatch):
        # pins two trials of the stacks above: (d, r, t) = (3, 2, 2) at eps 0.5
        # overshoots the window on the ladder and bisects back into it, and
        # (2, 1, 2) at eps 0.2 draws a second family
        draws, bisects = [], []
        families, infidelities = tm._perturbation_families, tm._sided_infidelities

        def counted_families(rho_w, rho_v, rngs):
            draws.append(len(rngs))
            return families(rho_w, rho_v, rngs)

        def counted_infidelities(rho_w, family, thetas, lo, hi):
            bisects.append(thetas.shape[1] == 1)  # one midpoint per trial
            return infidelities(rho_w, family, thetas, lo, hi)

        monkeypatch.setattr(tm, "_perturbation_families", counted_families)
        # every evaluation of calibration, whichever kernel decides it
        monkeypatch.setattr(tm, "_sided_infidelities", counted_infidelities)
        rho = random_rank_r_state(3, 2, child_seed(140, 3, 2, 2))
        oracle_mixed_estimate(rho, 0.5, child_seed(141, 3, 2, 2))
        assert draws == [1] and any(bisects)
        draws.clear()
        bisects.clear()
        rho = random_rank_r_state(2, 1, child_seed(140, 2, 1, 2))
        oracle_mixed_estimate(rho, 0.2, child_seed(141, 2, 1, 2))
        assert draws == [1, 1] and not any(bisects)

    @pytest.mark.parametrize("lo", [1e-12, 0.1])
    @pytest.mark.parametrize(
        "j, start", [(0, 0), (5, 0), (6, 0), (139, 0), (7, 7), (9, 4), (139, 135)]
    )
    def test_ladder_rungs_and_brackets(self, lo, j, start):
        # the rungs are repeated products of the first, bit for bit; a trial
        # climbs from its start rung a chunk at a time, the rungs past the top
        # repeating it, and one that overshoots at rung j bisects from the rung
        # below it (0 at j = 0), its start rung included
        ladder, rung = [], max(lo, 1e-4)
        for _ in range(tm._LADDER_STEPS):
            ladder.append(rung)
            rung *= tm._LADDER_RATIO
        assert tm._ladder(lo).tolist() == ladder
        climbed = []

        def overshoot_from_rung_j(idx, thetas):
            if thetas.shape[1] == 1:  # a bisection midpoint: land in the window
                return np.full_like(thetas, 1.5 * lo)
            climbed.extend(thetas[0].tolist())
            return np.where(thetas >= ladder[j], 3.0 * lo, 0.0)

        theta = tm._bracket_and_bisect(overshoot_from_rung_j, np.array([start]), lo, 2.0 * lo)
        chunks = (j - start) // tm._LADDER_CHUNK + 1
        top = tm._LADDER_STEPS - 1
        assert climbed == [ladder[min(start + i, top)] for i in range(chunks * tm._LADDER_CHUNK)]
        assert theta[0] == ((ladder[j - 1] if j else 0.0) + ladder[j]) / 2


@st.composite
def _rung_cases(draw, max_k=4, max_d=8, min_mid=1e-6):
    """The rank k, dimension d, seed, window edge eps (1e-12 to 0.9) and random
    midpoints of a ``_rung_stack``."""
    k = draw(st.integers(1, max_k))
    d = draw(st.integers(max(2, k), max_d))
    seed = draw(st.integers(0, 2**32))
    eps = 10.0 ** draw(st.floats(-12.0, math.log10(0.9)))
    mids = draw(st.lists(st.floats(min_mid, 60.0), min_size=1, max_size=16))
    return k, d, seed, eps, mids


def _rung_stack(k, d, seed, eps, mids):
    """Two rank-k states on C^d, their families, and thetas (2, L), one row per
    state: the calibration ladder's rungs below 1e3 for the window [eps/2, eps],
    then mids."""
    rhos = [random_rank_r_state(d, k, child_seed(seed, t)) for t in range(2)]
    w = np.array([rho.eigenvalues[:k] for rho in rhos])
    v = np.array([rho.eigenvectors for rho in rhos])
    family = tm._perturbation_families(w, v, [rng_from_seed(child_seed(seed, 2, t)) for t in range(2)])
    ladder = np.cumprod([max(eps / 2, 1e-4)] + [tm._LADDER_RATIO] * (tm._LADDER_STEPS - 1))
    thetas = np.concatenate([ladder[ladder < 1e3], mids])
    return w, family, np.stack([thetas, thetas])


class TestCheapRungKernel:
    # _bounded_infidelities decides a side of lo and hi only where its bound
    # proves it; every other row comes from the exact SVD kernel
    @settings(max_examples=120, deadline=None)
    @given(case=_rung_cases())
    @example(case=(3, 16, 5, 1e-3, [0.05, 2.0]))
    @example(case=(2, 16, 6, 1e-12, [1e-5, 3.0]))
    def test_decides_every_side_as_the_exact_kernel(self, case):
        w, family, thetas = _rung_stack(*case)
        lo, hi = case[3] / 2, case[3]
        exact = tm._infidelities(w, family, thetas)
        vals, bound = tm._bounded_infidelities(w, family, thetas)
        for per_row in (thetas, thetas[0, -2:, None]):  # ladder chunks and bisection midpoints
            want = tm._infidelities(w, family, per_row)
            sided = tm._sided_infidelities(w, family, per_row, lo, hi)
            assert np.array_equal(sided >= lo, want >= lo)
            assert np.array_equal(sided <= hi, want <= hi)
        decided = (np.abs(vals - lo) > bound) & (np.abs(vals - hi) > bound)
        assert np.all(np.abs(vals - exact)[decided] <= bound[decided] / 10)
        # an edge one ulp from an exact value leaves its row to the exact kernel
        for t, j in [(0, 0), (1, thetas.shape[1] // 2), (0, thetas.shape[1] - 1)]:
            for edge in (np.nextafter(exact[t, j], -1.0), np.nextafter(exact[t, j], 2.0)):
                for window in ((edge, 2.0), (-1.0, edge)):
                    assert not ((np.abs(vals[t, j] - window[0]) > bound[t, j])
                                & (np.abs(vals[t, j] - window[1]) > bound[t, j]))
                    sided = tm._sided_infidelities(w, family, thetas, *window)
                    assert np.array_equal(sided[t], exact[t])

    def test_a_nan_rung_goes_to_the_exact_kernel(self, monkeypatch):
        w, family, thetas = _rung_stack(2, 4, 7, 0.05, [0.3])
        thetas[1, 3] = np.nan
        seen = []

        def exact(rho_w, fam, th):
            seen.append(th.copy())
            return np.full(th.shape, 0.5)

        monkeypatch.setattr(tm, "_infidelities", exact)
        sided = tm._sided_infidelities(w, family, thetas, 0.025, 0.05)
        assert len(seen) == 1 and np.array_equal(seen[0], thetas[1:], equal_nan=True)
        assert np.array_equal(sided[1], np.full(thetas.shape[1], 0.5))
        assert np.all(np.isfinite(sided[0]))


@st.composite
def _start_rung_cases(draw):
    """The rank k (1 to 4), dimension d (2 to 8), seed, window edge eps (1e-12
    to 0.9) and smallest-eigenvalue exponent of a ``_start_rung_stack``."""
    k = draw(st.integers(1, 4))
    d = draw(st.integers(max(2, k), 8))
    seed = draw(st.integers(0, 2**32))
    eps = 10.0 ** draw(st.floats(-12.0, math.log10(0.9)))
    skew = draw(st.floats(0.0, 9.5))
    return k, d, seed, eps, skew


def _start_rung_stack(k, d, seed, eps, skew, trials=8):
    """Spectra (T, k), rank-k states on C^d whose smallest eigenvalue sits
    10^-skew below the largest (so sigma's eigenvalue floor can act), and
    their families: half the states random, half with skewed spectra."""
    rng = rng_from_seed(seed)
    w = rng.uniform(0.1, 1.0, size=(trials, k))
    w[trials // 2 :, -1] = w[trials // 2 :, 0] * 10.0**-skew
    w = -np.sort(-w / w.sum(axis=1, keepdims=True), axis=1)
    v = _haar_unitaries(d, trials, rng)
    rngs = [rng_from_seed(child_seed(seed, t)) for t in range(trials)]
    family = tm._perturbation_families(w, v, rngs)
    return w, family


class TestStartRungs:
    # the Bures-angle speed limit proves every rung below a trial's start rung
    # below the window, under the exact kernel
    @settings(max_examples=150, deadline=None)
    @given(case=_start_rung_cases())
    @example(case=(1, 8, 3, 1e-3, 0.0))
    @example(case=(4, 8, 4, 1e-12, 9.0))
    @example(case=(2, 2, 5, 0.9, 8.0))
    def test_every_rung_below_the_start_is_below_the_window(self, case):
        lo = case[3] / 2
        w, family = _start_rung_stack(*case)
        start = tm._start_rungs(w, family, lo)
        assert start.dtype.kind == "i" and np.all((0 <= start) & (start < tm._LADDER_STEPS))
        top = int(start.max())
        if top == 0:
            return
        thetas = np.broadcast_to(tm._ladder(lo)[:top], (len(w), top))
        exact = tm._infidelities(w, family, thetas)
        assert np.all(exact[np.arange(top) < start[:, None]] < lo)

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_start_rungs_sit_near_the_window(self, eps):
        # the bound is sharp enough to skip most rungs: at rank 1 no trial
        # reaches the window more than 6 rungs above its start
        w, family = _start_rung_stack(1, 8, 11, eps, 0.0, trials=64)
        lo, ladder = eps / 2, tm._ladder(eps / 2)
        start = tm._start_rungs(w, family, lo)
        exact = tm._infidelities(w, family, np.broadcast_to(ladder, (64, len(ladder))))
        first = (exact >= lo).argmax(axis=1)
        assert np.all(start > 0) and np.all(first - start < tm._LADDER_CHUNK)


class TestRankOneTraceKernel:
    # _bounded_trace_distances decides a side of lo and hi only where its bound
    # proves it; every other row comes from the eigvalsh kernel
    @settings(max_examples=120, deadline=None)
    @given(case=_rung_cases(max_k=1, max_d=16, min_mid=1e-12))
    @example(case=(1, 8, 5, 1e-12, [1e-12, 1e-6]))
    @example(case=(1, 16, 6, 1e-3, [0.05, 2.0]))
    def test_decides_every_side_as_eigvalsh(self, case):
        w, family, thetas = _rung_stack(*case)
        lo, hi = case[3] / 2, case[3]
        exact = tm._trace_distances(w, family, thetas)
        vals, bound = tm._bounded_trace_distances(w, family, thetas)
        for per_row in (thetas, thetas[0, -2:, None]):  # ladder chunks and bisection midpoints
            want = tm._trace_distances(w, family, per_row)
            sided = tm._sided_trace_distances(w, family, per_row, lo, hi)
            assert np.array_equal(sided >= lo, want >= lo)
            assert np.array_equal(sided <= hi, want <= hi)
        decided = (np.abs(vals - lo) > bound) & (np.abs(vals - hi) > bound)
        assert np.all(np.abs(vals - exact)[decided] <= bound[decided] / 10)
        # an edge one ulp from an exact value leaves its row to eigvalsh
        for t, j in [(0, 0), (1, thetas.shape[1] // 2), (0, thetas.shape[1] - 1)]:
            for edge in (np.nextafter(exact[t, j], -1.0), np.nextafter(exact[t, j], 2.0)):
                for window in ((edge, 2.0), (-1.0, edge)):
                    sided = tm._sided_trace_distances(w, family, thetas, *window)
                    assert np.array_equal(sided[t], exact[t])

    def test_higher_ranks_take_eigvalsh(self):
        w, family, thetas = _rung_stack(2, 4, 7, 0.05, [0.3])
        sided = tm._sided_trace_distances(w, family, thetas, 0.025, 0.05)
        assert np.array_equal(sided, tm._trace_distances(w, family, thetas))


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


class TestTruncationFloor:
    # every rank-1 estimate of that state has infidelity >= 5e-11 and trace
    # distance >= 2.5e-11; each entry used to climb, bisect and raise
    # RuntimeError after 200 bisection steps on a window below that floor
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
    def test_window_below_the_floor_fails_before_any_rung(self, entry, monkeypatch):
        what, floor, call = self.ENTRIES[entry]
        rungs = []
        monkeypatch.setattr(tm, "_bracket_and_bisect", lambda *args: rungs.append(args))
        message = (
            f"target {what} 1e-12 lies below {floor:.3g}, the least {what} of any rank-1 "
            "estimate: the eigenvalues rho keeps at rank 1 sum to 1 - 5e-11"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(_truncated_state(), 1e-12)
        assert rungs == []

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
        same, _, _ = oracle._estimate_mixed_stack(stack, 2, [rng_from_seed(41)], 1)
        assert np.array_equal(same[0], sigma.matrix)
        li = TomographyBackend.linear_inversion(shots=5000)
        sigma2 = estimate_mixed_state_from_measurements(rho, 2, 5000, seed=42)
        assert sigma2.rank <= 2
        same, _, _ = li._estimate_mixed_stack(stack, 2, [rng_from_seed(42)], 5000)
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
