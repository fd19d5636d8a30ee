"""Reduction of mixed-state estimation to pure-state estimation, with a
verifier for every inequality its fidelity guarantee rests on.

Given a bipartite pure input, the protocol (1) forms the reduced state on the
Y register, (2) estimates it with a mixed-state backend, (3) projects the
input onto the estimate's support via a two-outcome measurement, keeping the
copies where the support outcome fired, and (4) re-estimates the
post-measurement state with a pure-state backend inside the surviving
subspace. When both backends achieve infidelity eps, the final estimate has
squared overlap at least 1 - 16*eps with the input. Each run checks the five
steps of the chain behind that bound, written once in ``_chain``: keep >= F
(Cauchy-Schwarz) always; keep >= 1 - eps when stage 1 landed (F >= 1 - eps);
the projection identity |<psi_tilde|psi>|^2 = keep; and, when the pure stage
ran, eps < 1 and both stages landed, the guaranteed 1 - 16*eps bound and an
advisory 1 - 8*eps bound that never counts as a violation. The composition
step between the stages is checked only by a randomized search over
synthetic triples. A side experiment measures the trace-distance
disturbance of the projection (the gentle-measurement question).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measurement import (
    PROB_TOL,
    _check_count,
    _check_integer,
    _keep_and_projected,
    _renormalized,
)
from .seeding import _check_seed, _child_seeds, _generator_words, _generators, rng_from_seed
from .states import (
    DensityMatrix,
    PureState,
    _density_matrices,
    _fidelities,
    _groups,
    _phase_normalized,
    _pure_states,
    _reduced_states,
    _sqrt_matrices,
    _support_rank,
    fidelity_mixed,
    fidelity_pure_pure,
    optimal_purification_against,
    partial_trace_x,
)
from .tomography import (
    TomographyBackend,
    _calibrated_estimates,
    _check_perturbable,
    _check_window,
    _trace_distances,
)

__all__ = [
    "CHAIN_SLACK",
    "ReductionError",
    "ReductionConfig",
    "ChainCheck",
    "ReductionReport",
    "ChainReport",
    "PropositionSearchResult",
    "GentleMeasurementResult",
    "run_reduction",
    "verify_chain",
    "proposition_search",
    "gentle_measurement_experiment",
]

CHAIN_SLACK = 1e-9  # absolute slack separating genuine violations from rounding
_WINDOW_SLACK = 1e-12  # float slack when testing whether a backend hit its window


class ReductionError(RuntimeError):
    """The support estimate is incompatible with the input state."""


def _extra_copy_count(factor: float, r: int, epsilon: float) -> int:
    """ceil(factor * r^2 / epsilon), the projection stage's copy count.

    Raises ValueError unless factor is finite and positive and the count fits
    in int64, so that the kept count is one binomial draw.
    """
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"extra_copy_factor must be finite and positive, got {factor!r}")
    copies = factor * r**2 / epsilon
    _check_count("extra copies", copies)
    return int(math.ceil(copies))


@dataclass(frozen=True)
class ReductionConfig:
    """Parameters of one reduction run.

    ``n_copies`` is the sample count consumed by the mixed-state stage (in
    simulation those copies collapse to one classical reduced state, but the
    count enters the sample accounting; it must be an integer, reach the
    mixed backend's ``min_shots(d)`` and fit in int64). The projection stage consumes
    ``ceil(extra_copy_factor * r^2 / epsilon)`` additional copies; ``seed`` is an integer >= 0.
    """

    r: int
    d: int
    n_copies: int
    epsilon: float
    extra_copy_factor: float = 4.0
    mixed_backend: TomographyBackend | None = None
    pure_backend: TomographyBackend | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.r <= self.d:
            raise ValueError(f"need 1 <= r <= d, got r={self.r}, d={self.d}")
        _check_seed("seed", self.seed)
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        _check_integer("n_copies", self.n_copies)
        if self.n_copies < 1:
            raise ValueError("n_copies must be at least 1")
        _extra_copy_count(self.extra_copy_factor, self.r, self.epsilon)
        if self.mixed_backend is None:
            object.__setattr__(self, "mixed_backend", TomographyBackend.oracle(self.epsilon))
        if self.pure_backend is None:
            object.__setattr__(self, "pure_backend", TomographyBackend.oracle(self.epsilon))
        if self.d == 1:
            raise ValueError("the reduction needs d >= 2: on d = 1 there is one state only")
        floor = self.mixed_backend.min_shots(self.d)
        if self.n_copies < floor:  # only linear inversion asks for more than one copy
            raise ValueError(
                f"linear inversion needs n_copies >= d^2 = {floor}, got {self.n_copies}"
            )
        _check_count("copies", self.n_copies)

    @property
    def extra_copies(self) -> int:
        return _extra_copy_count(self.extra_copy_factor, self.r, self.epsilon)


@dataclass(frozen=True)
class ChainCheck:
    """One inequality of the fidelity chain: value, bound, and the verdict.

    ``advisory`` marks checks that are recorded but never counted as
    violations (bounds stronger than the guaranteed one)."""

    name: str
    value: float
    bound: float
    satisfied: bool
    applicable: bool = True
    advisory: bool = False

    @property
    def violated(self) -> bool:
        return self.applicable and not self.advisory and not self.satisfied


def _landed(fidelity: float, epsilon: float) -> bool:
    """Whether a stage met its hypothesis: fidelity at least 1 - epsilon."""
    return fidelity >= 1.0 - epsilon - _WINDOW_SLACK


def _guaranteed_bound(epsilon: float) -> float:
    return 1.0 - 16.0 * epsilon


def _stage_fidelities(psi: PureState, psi_tilde: PureState, phi: PureState | None):
    """The overlaps |<psi_tilde|psi>|^2, |<phi|psi_tilde>|^2 and |<phi|psi>|^2
    that the chain checks; the last two are None without phi."""
    projected = fidelity_pure_pure(psi_tilde, psi)
    if phi is None:
        return projected, None, None
    return projected, fidelity_pure_pure(phi, psi_tilde), fidelity_pure_pure(phi, psi)


def _chain(eps, f, keep, projected, estimate, final) -> tuple[ChainCheck, ...]:
    """The fidelity chain, in order, from its stage values as floats: eps,
    F(rho, sigma), the keep probability and the three overlaps of
    ``_stage_fidelities``, each None where its stage has no value.

    - ``keep_vs_mixed_fidelity``: keep >= F (Cauchy-Schwarz), always.
    - ``keep_vs_epsilon``: keep >= 1 - eps, when eps is known; applicable
      only when stage 1 landed, F >= 1 - eps.
    - ``projection_identity``: |projected - keep| <= slack, when psi_tilde exists.
    - ``final_vs_guaranteed_bound``: final >= 1 - 16*eps, and the advisory
      ``final_vs_tightened_bound``: final >= 1 - 8*eps, when phi exists;
      applicable only when eps < 1 and both stages landed (F and the
      estimate fidelity at least 1 - eps).

    Each inequality is satisfied within CHAIN_SLACK.
    """
    checks = [ChainCheck("keep_vs_mixed_fidelity", keep, f, keep >= f - CHAIN_SLACK)]
    if eps is not None:
        landed = _landed(f, eps)
        checks.append(
            ChainCheck("keep_vs_epsilon", keep, 1.0 - eps, keep >= 1.0 - eps - CHAIN_SLACK, landed)
        )
    if projected is not None:
        checks.append(
            ChainCheck("projection_identity", projected, keep, abs(projected - keep) <= CHAIN_SLACK)
        )
    if final is not None:  # phi exists only where psi_tilde and eps do
        both_landed = eps < 1.0 and landed and _landed(estimate, eps)
        for name, bound, advisory in (
            ("final_vs_guaranteed_bound", _guaranteed_bound(eps), False),
            ("final_vs_tightened_bound", 1.0 - 8.0 * eps, True),
        ):
            checks.append(
                ChainCheck(name, final, bound, final >= bound - CHAIN_SLACK, both_landed, advisory)
            )
    return tuple(checks)


@dataclass(frozen=True, eq=False)
class ReductionReport:
    """Full trace of one reduction run.

    ``projected_fidelity`` is |<psi_tilde|psi>|^2 for the post-measurement
    state psi_tilde, ``estimate_fidelity`` is |<phi|psi_tilde>|^2 for the
    final estimate phi, and ``final_fidelity`` is |<phi|psi>|^2. The estimate
    fields are None when the pure-state stage was starved of copies.
    """

    sigma: DensityMatrix
    projector_rank: int
    fidelity_mixed_estimate: float
    keep_probability: float
    extra_copies: int
    kept_count: int
    projected_fidelity: float
    estimate_fidelity: float | None
    final_fidelity: float | None
    chain: tuple[ChainCheck, ...]
    samples_total: int
    low_yield: bool
    starved: bool
    estimate: PureState | None

    @property
    def violations(self) -> int:
        return sum(1 for c in self.chain if c.violated)


def _support_projections(m: np.ndarray, sigmas: list[DensityMatrix], rank_cap: int):
    """Projector ranks, keep probabilities and projected states of a stack of
    (r, d) coefficient matrices on the rank-capped supports of their sigmas.

    Trials are stacked by projector rank. The projected states are
    phase-normalized and checked as one stack: a PureState per trial, or None
    where the keep probability is at most PROB_TOL. The support bases need no
    check of their own: they are columns of sigma's eigenvectors, whose Gram
    defect sigma's check bounds.
    """
    count, r, d = m.shape
    ranks = [_support_rank(sigma, rank_cap) for sigma in sigmas]
    p = np.empty(count)
    projected = np.empty(m.shape, dtype=complex)
    for idx in _groups(ranks):
        k = ranks[idx[0]]
        basis = np.array([sigmas[i].eigenvectors[:, :k] for i in idx])
        p[idx], projected[idx] = _keep_and_projected(m[idx], basis)
    keep = np.clip(p, 0.0, 1.0)
    usable = np.flatnonzero(keep > PROB_TOL)
    rows = _renormalized(p[usable], projected[usable])
    tildes: list[PureState | None] = [None] * count
    for t, tilde in zip(usable, _pure_states(rows, (r, d))):
        tildes[t] = tilde
    return ranks, keep, tildes


def _embeddings(basis: np.ndarray, r: int) -> np.ndarray:
    """kron(I_r, B_t) for a (T, d, k) stack of support bases, shape (T, r*d, r*k)."""
    count, d, k = basis.shape
    embed = np.zeros((count, r, d, r, k), dtype=complex)
    for x in range(r):
        embed[:, x, :, x, :] = basis
    return embed.reshape(count, r * d, r * k)


def run_reduction(psi: PureState, config: ReductionConfig) -> ReductionReport:
    """Run the four-stage reduction on one bipartite pure input.

    The stages draw in order from one generator on the config seed, so a run
    is a pure function of (psi, config). A keep probability at or below the
    projection tolerance raises :class:`ReductionError` (the support estimate
    misses the state entirely); a starved pure-state stage is reported, not raised.
    """
    if psi.dims != (config.r, config.d):
        raise ValueError(f"state dims {psi.dims} do not match config ({config.r}, {config.d})")
    (outcome,) = _run_reductions([psi], config, [rng_from_seed(config.seed)])
    if isinstance(outcome, ReductionError):
        raise outcome
    return outcome


def _mixed_stage(
    m: np.ndarray, backend: TomographyBackend, rngs, shots: int
) -> tuple[list[DensityMatrix], list[float]]:
    """Stage 1 on a (T, r, d) stack of coefficient matrices: the backend's
    rank-r estimates sigma_t of the reduced states rho_t, drawn from rngs[t],
    and F(rho_t, sigma_t). sqrt(sigma) is taken per stack of one eigenvector shape."""
    count, r, d = m.shape
    rho_mat, rho_w, rho_v = _reduced_states(m)
    rhos = _density_matrices(rho_mat, rho_w, rho_v)
    sigmas = backend._estimate_mixed_stack(rhos, r, rngs, shots)
    root_sigma = np.empty((count, d, d), dtype=complex)
    for idx in _groups([sigma.eigenvectors.shape for sigma in sigmas]):
        root_sigma[idx] = _sqrt_matrices(
            np.array([sigmas[i].eigenvalues for i in idx]),
            np.array([sigmas[i].eigenvectors for i in idx]),
        )
    return sigmas, _fidelities(_sqrt_matrices(rho_w, rho_v), root_sigma)


def _run_reductions(
    psis: list[PureState], config: ReductionConfig, rngs
) -> list[ReductionReport | ReductionError]:
    """The reduction on a stack of inputs under one config, trial t drawing
    from the generator rngs[t] in place of ``config.seed``'s.

    One numpy call serves every trial of the stack that shares a shape (the
    projector rank may differ between trials), and each state stack is
    checked once. Each trial's stages draw in order from its own generator: stage 1,
    the kept count, then stage 2. So its report is the one ``run_reduction`` gives
    it alone. Returns a report per trial, or the ReductionError that failed it alone.
    Every input has the config's dims (r, d).
    """
    r, d, eps = config.r, config.d, config.epsilon
    count = len(psis)
    m = np.array([psi.as_matrix() for psi in psis])

    sigmas, f_rho_sigma = _mixed_stage(m, config.mixed_backend, rngs, config.n_copies)

    ranks, keep, tildes = _support_projections(m, sigmas, r)
    usable = [t for t in range(count) if tildes[t] is not None]
    extra_copies = config.extra_copies
    samples_total = config.n_copies + extra_copies
    kept = {t: int(rngs[t].binomial(extra_copies, keep[t])) for t in usable}
    # The pure-state stage runs in coordinates on (X register) x supp(Pi),
    # a subspace of dimension r * rank(Pi) <= r^2.
    fed = [t for t in usable if kept[t] >= config.pure_backend.min_shots(r * ranks[t])]
    estimates = {t: tildes[t] for t in fed if r * ranks[t] == 1}  # tomography is trivially exact
    embedded = [t for t in fed if r * ranks[t] > 1]
    for idx in _groups([ranks[t] for t in embedded]):
        trials = [embedded[i] for i in idx]
        k = ranks[trials[0]]
        embed = _embeddings(np.array([sigmas[t].eigenvectors[:, :k] for t in trials]), r)
        tilde = np.array([tildes[t].amplitudes for t in trials])
        coords = (embed.conj().swapaxes(1, 2) @ tilde[:, :, None])[:, :, 0]
        # one vector norm per trial: a norm along an axis rounds differently
        coords = np.array([c / np.linalg.norm(c) for c in coords])
        phis = config.pure_backend._estimate_pure_stack(
            _pure_states(coords, (r, k)), [rngs[t] for t in trials], [kept[t] for t in trials]
        )
        phi = np.array([p.amplitudes for p in phis])
        rows = _phase_normalized((embed @ phi[:, :, None])[:, :, 0])
        estimates.update(zip(trials, _pure_states(rows, (r, d))))

    outcomes: list[ReductionReport | ReductionError] = []
    for t in range(count):
        if tildes[t] is None:
            outcomes.append(
                ReductionError(
                    f"keep probability {keep[t]:.3e} is below {PROB_TOL:g}; "
                    "the support estimate is disjoint from the input state"
                )
            )
            continue
        estimate = estimates.get(t)
        keep_t = float(keep[t])
        projected, est, final = _stage_fidelities(psis[t], tildes[t], estimate)
        outcomes.append(
            ReductionReport(
                sigma=sigmas[t],
                projector_rank=ranks[t],
                fidelity_mixed_estimate=f_rho_sigma[t],
                keep_probability=keep_t,
                extra_copies=extra_copies,
                kept_count=kept[t],
                projected_fidelity=projected,
                estimate_fidelity=est,
                final_fidelity=final,
                chain=_chain(eps, f_rho_sigma[t], keep_t, projected, est, final),
                samples_total=samples_total,
                low_yield=kept[t] < math.ceil(extra_copies / 2),
                starved=estimate is None,
                estimate=estimate,
            )
        )
    return outcomes


@dataclass(frozen=True, eq=False)
class ChainReport:
    """Outcome of a standalone chain verification on (psi, sigma, phi)."""

    fidelity_mixed_estimate: float
    uhlmann_overlap: float
    keep_probability: float
    usable: bool
    projected_fidelity: float | None
    estimate_fidelity: float | None
    final_fidelity: float | None
    epsilon: float | None
    checks: tuple[ChainCheck, ...]

    @property
    def violations(self) -> int:
        return sum(1 for c in self.checks if c.violated)


def verify_chain(
    psi: PureState,
    sigma: DensityMatrix,
    phi: PureState,
    epsilon: float | None = None,
) -> ChainReport:
    """Check every step of the fidelity chain on an explicit (psi, sigma, phi).

    The checks are ``uhlmann_attains_fidelity`` (the optimal purification of
    sigma against psi attains F(rho, sigma) within 1e-6), then the chain of
    ``_chain``: keep >= F always; keep >= 1 - eps when eps is known, applicable
    when F >= 1 - eps; and, when the projected state psi_tilde exists, the
    projection identity, the guaranteed 1 - 16*eps bound and the advisory
    1 - 8*eps bound, the last two applicable when eps < 1 and both
    |<phi|psi_tilde>|^2 and F reach 1 - eps.

    Violations are reported, never raised. A supplied epsilon must lie in
    (0, 1). When epsilon is not supplied it is derived as the smallest value
    for which both chain hypotheses hold, namely
    max(1 - F(rho, sigma), 1 - |<phi|psi_tilde>|^2); the final checks are
    marked not applicable if that reaches 1, and without psi_tilde no epsilon
    is derived.

    sigma must have rank at most r, or ValueError is raised: the support
    projector is capped at rank r, and keep >= F needs supp(sigma) inside it.
    """
    if epsilon is not None and not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if sigma.rank > psi.r:
        raise ValueError(
            f"sigma has rank {sigma.rank} above r = {psi.r}: keep >= F(rho, sigma) "
            "needs supp(sigma) inside the rank-r support projector"
        )
    f_rho_sigma = fidelity_mixed(partial_trace_x(psi), sigma)
    uhlmann_overlap = fidelity_pure_pure(psi, optimal_purification_against(sigma, psi))
    _, keep, (psi_tilde,) = _support_projections(psi.as_matrix()[None], [sigma], psi.r)
    keep_probability = float(keep[0])
    projected = estimate_fidelity = final_fidelity = None
    eps = epsilon
    if psi_tilde is not None:
        projected, estimate_fidelity, final_fidelity = _stage_fidelities(psi, psi_tilde, phi)
        if eps is None:
            eps = max(1.0 - f_rho_sigma, 1.0 - estimate_fidelity, 1e-15)
    uhlmann = ChainCheck(
        "uhlmann_attains_fidelity",
        uhlmann_overlap,
        f_rho_sigma,
        abs(uhlmann_overlap - f_rho_sigma) <= 1e-6,
    )
    chain = _chain(eps, f_rho_sigma, keep_probability, projected, estimate_fidelity, final_fidelity)
    return ChainReport(
        fidelity_mixed_estimate=f_rho_sigma,
        uhlmann_overlap=uhlmann_overlap,
        keep_probability=keep_probability,
        usable=psi_tilde is not None,
        projected_fidelity=projected,
        estimate_fidelity=estimate_fidelity,
        final_fidelity=final_fidelity,
        epsilon=eps,
        checks=(uhlmann, *chain),
    )


def _composition_margins(a, b, c, eta):
    """Slack c - (1 - 4*eta) of the composition bound and excess of its
    triangle step, dist_sq_c - (2*dist_sq_a + 2*dist_sq_b) with
    dist_sq_x = 2 - 2*x. Takes floats or equal-length arrays of triples."""
    slack = c - (1.0 - 4.0 * eta)
    excess = (2.0 - 2.0 * c) - (2.0 * (2.0 - 2.0 * a) + 2.0 * (2.0 - 2.0 * b))
    return slack, excess


@dataclass(frozen=True)
class PropositionSearchResult:
    """Aggregate of a randomized search for composition-bound violations;
    its fields, in order, are the columns of a prop-search record."""

    checked: int
    violations: int
    min_slack: float  # min over triples of c - (1 - 4*eta)
    min_c: float
    max_triangle_excess: float  # max of dist_sq_c - (2*dist_sq_a + 2*dist_sq_b)


_SEARCH_BATCH = 65536  # triples drawn per vectorized batch
_EDGE_FRACTION = 0.125  # share of each batch with a and b pinned at 1 - eta


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
    rng: np.random.Generator, base: np.ndarray, eta: float, n_edge: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows rotated toward random orthogonal unit rows, with a random phase and
    overlap moduli from [1 - eta, 1] (the first n_edge at 1 - eta), and the moduli."""
    m = base.shape[0]
    chi = _orthogonal_unit_rows(rng, base)
    a = rng.uniform(1.0 - eta, 1.0, m)
    a[:n_edge] = 1.0 - eta
    th = rng.uniform(0.0, 2.0 * np.pi, m)
    rotated = np.exp(1j * th)[:, None] * (a[:, None] * base + np.sqrt(1.0 - a**2)[:, None] * chi)
    return rotated, a


def proposition_search(d: int, eta: float, count: int, seed) -> PropositionSearchResult:
    """Randomized search over state triples satisfying a, b >= 1 - eta.

    Each triple is built by rotating a Haar-random state toward random
    orthogonal directions with overlap moduli drawn from [1 - eta, 1] (an
    eighth of each batch pinned exactly at the edge) and random relative
    phases, then c = |<phi|psi>| is tested against 1 - 4*eta with slack 1e-9.
    """
    _check_integer("d", d)
    _check_integer("count", count)
    if d < 2:
        raise ValueError("need dimension at least 2")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must be in (0, 1)")
    if count < 1:
        raise ValueError("count must be positive")
    rng = rng_from_seed(seed)
    checked = 0
    violations = 0
    min_slack = np.inf
    min_c = np.inf
    max_excess = -np.inf
    while checked < count:
        m = min(_SEARCH_BATCH, count - checked)
        n_edge = int(_EDGE_FRACTION * m)
        psi = _random_unit_rows(rng, m, d)
        # phi first holds the intermediate psi_t; rebinding it frees psi_t
        phi, a = _rotate_toward_orthogonal(rng, psi, eta, n_edge)
        phi, b = _rotate_toward_orthogonal(rng, phi, eta, n_edge)
        c = np.abs(np.sum(phi.conj() * psi, axis=1))
        slack, excess = _composition_margins(a, b, c, eta)
        violations += int(np.count_nonzero(slack < -CHAIN_SLACK))
        min_slack = min(min_slack, float(slack.min()))
        min_c = min(min_c, float(c.min()))
        max_excess = max(max_excess, float(excess.max()))
        checked += m
    return PropositionSearchResult(
        checked=checked,
        violations=violations,
        min_slack=float(min_slack),
        min_c=float(min_c),
        max_triangle_excess=float(max_excess),
    )


@dataclass(frozen=True, eq=False)
class GentleMeasurementResult:
    """Trace distances T between the projected and the original state, one
    per completed trial, under a calibrated trace-distance-delta support
    estimate. Ratios such as T/sqrt(delta) and T/delta are left to the
    caller, which knows delta."""

    delta: float
    skipped: int
    trace_distances: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.trace_distances, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "trace_distances", arr)

    @property
    def completed(self) -> int:
        return self.trace_distances.size

    @property
    def max_trace_distance(self) -> float:
        return float(self.trace_distances.max()) if self.completed else float("nan")


def gentle_measurement_experiment(
    psi: PureState, delta: float, trials: int, seed
) -> GentleMeasurementResult:
    """How far does projecting onto an estimate's support move the state?

    Each trial builds a same-rank sigma with trace_distance(rho, sigma) in
    [delta/2, delta], projects psi onto sigma's support, and records the
    trace distance T = ||psi - <psi_tilde|psi> psi_tilde|| between the projected
    and the original state (it equals sqrt(1 - keep), but 1 - keep cancels in
    floats). Trials whose keep probability vanishes are skipped and counted.
    T/delta is data, not a pass/fail: rho = diag(1 - delta, delta, 0) and
    sigma = diag(1 - delta, 0, delta) give T = sqrt(delta), so T/delta has no
    bound, though the sampled family does not reach that case.
    """
    _check_window("trace distance", delta)
    _check_integer("trials", trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_perturbable(psi.d)
    trial_seeds = _child_seeds(_check_seed("master seed", seed), np.arange(trials))
    rngs = _generators(_generator_words(trial_seeds))
    distances = _gentle_distances([psi] * trials, delta, rngs)
    kept = distances[~np.isnan(distances)]
    return GentleMeasurementResult(delta=delta, skipped=trials - kept.size, trace_distances=kept)


def _gentle_distances(psis: list[PureState], delta: float, rngs) -> np.ndarray:
    """T per trial of the gentle-measurement experiment on a stack of states
    of one shape, the trial's sigma drawn from its generator; NaN where the
    keep probability vanishes and the trial is skipped."""
    m = np.array([psi.as_matrix() for psi in psis])
    rhos = _density_matrices(*_reduced_states(m))
    sigmas = _calibrated_estimates(rhos, rngs, _trace_distances, delta / 2.0, delta)
    _, _, tildes = _support_projections(m, sigmas, psis[0].r)
    distances = np.full(len(psis), np.nan)
    for t, tilde in enumerate(tildes):
        if tilde is None:
            continue
        # one vdot and one vector norm per trial: row-wise forms round differently
        a, b = psis[t].amplitudes, tilde.amplitudes
        distances[t] = float(np.linalg.norm(a - np.vdot(b, a) * b))
    return distances
