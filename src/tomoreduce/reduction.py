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
synthetic triples, which builds no state: it draws each triple's overlap from
its exact law, in at most four draws a triple whatever d. A side experiment
measures the trace-distance disturbance of the projection (the
gentle-measurement question).

A chain record's columns are listed once, in ``_CHAIN_COLUMNS``; ``_chain_columns``
fills them, a list each, from a stack's stage arrays with one ``_chain``, and builds
no per-trial object. A starved trial's estimate and final overlap are NaN in the stack,
so its final checks do not apply, and its record holds None there, from the ``fed`` mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .measurement import PROB_TOL, _check_count, _keep_and_projected, _renormalized
from .seeding import (
    _check_integer,
    _check_real,
    _check_seed,
    _child_seeds,
    _generator_words,
    _generators,
    rng_from_seed,
)
from .states import (
    DensityMatrix,
    PureState,
    _check_unit_norms,
    _density_matrices,
    _groups,
    _overlaps,
    _phase_normalized,
    _pure_states,
    _ranks,
    _reduced_states,
    _row_norms,
    _row_vdots,
    _support_ranks,
    fidelity_mixed,
    fidelity_pure_pure,
    optimal_purification_against,
    partial_trace_x,
)
from .tomography import TomographyBackend, _check_perturbable, _check_window, _trace_estimates

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


def _check_copy_factor(factor: float) -> float:
    """The extra-copy factor as a Python float; ValueError unless finite and positive."""
    factor = _check_real("extra_copy_factor", factor)
    if not (math.isfinite(factor) and factor > 0.0):
        raise ValueError(f"extra_copy_factor must be finite and positive, got {factor!r}")
    return factor


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
        object.__setattr__(self, "r", _check_integer("r", self.r))
        object.__setattr__(self, "d", _check_integer("d", self.d))
        if not 1 <= self.r <= self.d:
            raise ValueError(f"need 1 <= r <= d, got r={self.r}, d={self.d}")
        object.__setattr__(self, "seed", _check_seed("seed", self.seed))
        object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon))
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        object.__setattr__(self, "n_copies", _check_integer("n_copies", self.n_copies))
        if self.n_copies < 1:
            raise ValueError("n_copies must be at least 1")
        object.__setattr__(self, "extra_copy_factor", _check_copy_factor(self.extra_copy_factor))
        _check_count("extra copies", self.extra_copy_factor * self.r**2 / self.epsilon)
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

    @cached_property
    def extra_copies(self) -> int:
        """ceil(extra_copy_factor * r^2 / epsilon), checked to fit in int64 at
        construction, so that the kept count is one binomial draw."""
        return math.ceil(self.extra_copy_factor * self.r**2 / self.epsilon)


@dataclass(frozen=True)
class ChainCheck:
    """One inequality of the fidelity chain: value, bound, and the verdict, as
    floats and bools for one trial or as arrays for a whole stack, which
    ``_chain`` evaluates once (NaN where a starved trial has no value).

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
        # applicable and not satisfied; elementwise on a stack's arrays
        return not self.advisory and self.applicable > self.satisfied


def _landed(fidelity: float, epsilon: float) -> bool:
    """Whether a stage met its hypothesis: fidelity at least 1 - epsilon."""
    return fidelity >= 1.0 - epsilon - _WINDOW_SLACK


def _guaranteed_bound(epsilon: float) -> float:
    return 1.0 - 16.0 * epsilon


def _stage_fidelities(psi: np.ndarray, psi_tilde: np.ndarray, phi: np.ndarray):
    """The overlaps |<psi_tilde|psi>|^2, |<phi|psi_tilde>|^2 and |<phi|psi>|^2
    that the chain checks, as lists, for (T, n) stacks of amplitude rows."""
    return _overlaps(psi, psi_tilde), _overlaps(psi_tilde, phi), _overlaps(psi, phi)


def _chain(eps, f, keep, projected, estimate, final) -> tuple[ChainCheck, ...]:
    """The fidelity chain, in order, from its stage values: eps, F(rho, sigma),
    the keep probability and the three overlaps of ``_stage_fidelities``: as
    floats, each None where its stage has no value, or once for a whole stack as
    arrays, NaN where the pure stage starved. A NaN never lands, nor satisfies a check.

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
        both_landed = (eps < 1.0) & landed & _landed(estimate, eps)
        for name, bound, advisory in (
            ("final_vs_guaranteed_bound", _guaranteed_bound(eps), False),
            ("final_vs_tightened_bound", 1.0 - 8.0 * eps, True),
        ):
            checks.append(
                ChainCheck(name, final, bound, final >= bound - CHAIN_SLACK, both_landed, advisory)
            )
    return tuple(checks)


# The columns of a chain record, in file order: the nine stage values, the
# verdict of each check of ``_chain`` in chain order (None where it does not
# apply), the violation count and the trial's flags, the cell's guaranteed bound,
# and the error ("" when the trial ran). A failed trial holds only its bound and its error.
_CHAIN_COLUMNS = (
    "fidelity_mixed_estimate", "keep_probability", "projector_rank", "extra_copies",
    "kept_count", "samples_total", "projected_fidelity", "estimate_fidelity", "final_fidelity",
    "keep_vs_mixed_fidelity_ok", "keep_vs_epsilon_ok", "projection_identity_ok",
    "final_vs_guaranteed_ok", "final_vs_tightened_holds",
    "violations", "low_yield", "starved", "guaranteed_bound", "error",
)


def _chain_columns(config: ReductionConfig, stages) -> dict[str, list]:
    """The chain record fields of a stack's trials, as one list per column of
    ``_CHAIN_COLUMNS``, from the stage arrays of the stack under its config (see
    ``_reduction_stages``), with one ``_chain`` on the whole stack. A trial whose
    keep probability is at or below PROB_TOL fails. A starved trial's NaN
    estimate and final fidelity land nowhere, so its final verdicts are None,
    and so are those two columns, set from the ``fed`` mask."""
    eps, extra_copies = config.epsilon, config.extra_copies
    f, keep, ranks, kept, usable, fed, overlaps = stages
    checks = _chain(eps, f, keep, *overlaps)
    projected, est, final = overlaps.tolist()
    for t in usable[~fed].tolist():
        est[t] = final[t] = None
    count, bound = len(keep), _guaranteed_bound(eps)
    # Python lists, not object arrays: a verdict is None where its check does
    # not apply, and a False verdict of a check that is not advisory is
    # ``ChainCheck.violated``.
    verdicts = [
        c.satisfied.tolist() if c.applicable is True
        else [s if a else None for s, a in zip(c.satisfied.tolist(), c.applicable.tolist())]
        for c in checks
    ]
    counted = [v for v, c in zip(verdicts, checks) if not c.advisory]
    columns = dict(zip(_CHAIN_COLUMNS, (
        f.tolist(), keep.tolist(), ranks.tolist(), [extra_copies] * count, kept.tolist(),
        [config.n_copies + extra_copies] * count, projected, est, final,
        *verdicts, [v.count(False) for v in zip(*counted)],
        (kept < math.ceil(extra_copies / 2)).tolist(),
        [value is None for value in est], [bound] * count, [""] * count,
    )))
    for t in set(range(count)).difference(usable.tolist()):
        for column in columns.values():
            column[t] = None
        columns["guaranteed_bound"][t], columns["error"][t] = bound, (
            f"keep probability {keep[t]:.3e} is below {PROB_TOL:g}; "
            "the support estimate is disjoint from the input state"
        )
    return columns


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


def _support_projections(m: np.ndarray, w: np.ndarray, v: np.ndarray, rank_cap: int):
    """Projector ranks, keep probabilities, the trials ``usable`` whose keep
    probability exceeds PROB_TOL, and their projected states as phase-normalized
    amplitude rows checked as one stack, for (r, d) coefficient matrices on the
    rank-capped supports of sigmas given by eigenvalues (T, k) and eigenvectors
    (T, d, k), stacked by projector rank. The support bases need no check of
    their own: sigma's check bounds the Gram defect of its eigenvectors."""
    count = len(m)
    ranks = _support_ranks(w, rank_cap)
    p = np.empty(count)
    projected = np.empty(m.shape, dtype=complex)
    for idx in _groups(ranks):
        p[idx], projected[idx] = _keep_and_projected(m[idx], v[idx, :, : ranks[idx[0]]])
    keep = np.clip(p, 0.0, 1.0)
    usable = np.flatnonzero(keep > PROB_TOL)
    rows = _renormalized(p[usable], projected[usable])
    _check_unit_norms(rows)
    return ranks, keep, usable, rows


def run_reduction(psi: PureState, config: ReductionConfig) -> ReductionReport:
    """Run the four-stage reduction on one bipartite pure input.

    The stages draw in order from one generator on the config seed, so a run
    is a pure function of (psi, config). A keep probability at or below the
    projection tolerance raises :class:`ReductionError` (the support estimate
    misses the state entirely); a starved pure-state stage is reported, not raised.
    The report is the trial's chain record row with sigma, phi and the checks added.
    """
    if psi.dims != (config.r, config.d):
        raise ValueError(f"state dims {psi.dims} do not match config ({config.r}, {config.d})")
    m, rngs = psi.as_matrix()[None], [rng_from_seed(config.seed)]
    sigma, phi, stages = _reduction_stages(m, _reduced_states(m), config, rngs)
    row = {name: column[0] for name, column in _chain_columns(config, stages).items()}
    if row["error"]:
        raise ReductionError(row["error"])
    f, keep, _, _, _, _, *overlaps = map(row.get, _CHAIN_COLUMNS[:9])  # the stage values
    return ReductionReport(
        sigma=_density_matrices(*sigma)[0],
        chain=_chain(config.epsilon, f, keep, *overlaps),
        estimate=None if row["starved"] else _pure_states(phi, psi.dims)[0],
        **{field.name: row[field.name] for field in fields(ReductionReport) if field.name in row},
    )


def _run_reductions(amps: np.ndarray, config: ReductionConfig, rngs) -> dict[str, list]:
    """The chain record columns of a (T, r*d) stack of input amplitude rows under
    one config, trial t drawing from rngs[t] in place of ``config.seed``'s generator;
    the stack is split by the rank of rho only where ranks differ."""
    m = amps.reshape(len(amps), config.r, config.d)
    rho = _reduced_states(m)
    rho_ranks = _ranks(rho[1])
    if (rho_ranks != rho_ranks[0]).any():  # the oracle builds estimates of one rank at a time
        groups = _groups(rho_ranks)
        parts = [_run_reductions(amps[idx], config, [rngs[t] for t in idx]) for idx in groups]
        joined = {name: [v for part in parts for v in part[name]] for name in _CHAIN_COLUMNS}
        where = np.argsort(np.concatenate(groups)).tolist()  # each trial's place in joined
        return {name: [column[i] for i in where] for name, column in joined.items()}
    return _chain_columns(config, _reduction_stages(m, rho, config, rngs)[2])


def _reduction_stages(m: np.ndarray, rho, config: ReductionConfig, rngs):
    """The four stages on a (T, r, d) stack of coefficient matrices whose reduced
    states, the checked stacks rho, share one rank, in one numpy call per shape;
    trial t draws from rngs[t] in order: stage 1, the kept count, then stage 2.
    Returns sigma's stacks, phi's rows for the trials ``usable`` whose keep
    probability exceeds PROB_TOL (zero where the pure stage starved), and the
    arrays of F(rho, sigma), keep, projector rank and kept count, ``usable``, the
    mask ``fed`` over it of trials whose pure stage ran, and the (3, T) overlaps
    of ``_stage_fidelities``, NaN where their stage did not run."""
    r, count = config.r, len(m)
    sigma, f_rho_sigma = config.mixed_backend._estimate_mixed_stack(rho, r, rngs, config.n_copies)
    ranks, keep, usable, tilde = _support_projections(m, *sigma[1:], r)
    extra_copies = config.extra_copies
    kept = np.zeros(count, dtype=np.int64)
    kept[usable] = [rngs[t].binomial(extra_copies, keep[t]) for t in usable.tolist()]
    # The pure-state stage runs on (X register) x supp(Pi), of dimension r * rank(Pi) <= r^2,
    # in stage 3's coordinates M conj(B), and its estimate S is lifted back as S B^T.
    # Rows of phi stay zero where the stage is starved, and their overlaps are replaced by NaN.
    support = ranks[usable]
    fed = kept[usable] >= config.pure_backend.min_shots(r * support)
    phi = np.where((fed & (r * support == 1))[:, None], tilde, 0.0)  # tomography is trivially exact
    lifted = np.flatnonzero(fed & (r * support > 1))
    for at in (lifted[idx] for idx in _groups(support[lifted])):
        trials, k = usable[at], support[at[0]]
        basis = sigma[2][trials, :, :k]
        coords = (tilde[at].reshape(-1, r, config.d) @ basis.conj()).reshape(-1, r * k)
        # the stacked dots of _row_norms are those of one row's norm alone
        coords = coords / _row_norms(coords)[:, None]
        _check_unit_norms(coords)
        stage = config.pure_backend._estimate_pure_stack
        in_support = stage(coords, [rngs[t] for t in trials], kept[trials])
        lift = in_support.reshape(-1, r, k) @ basis.swapaxes(1, 2)
        phi[at] = _phase_normalized(lift.reshape(-1, r * config.d))
    _check_unit_norms(phi[lifted])
    overlaps = np.full((3, count), np.nan)
    overlaps[:, usable] = _stage_fidelities(m.reshape(count, -1)[usable], tilde, phi)
    overlaps[1:, usable[~fed]] = np.nan
    return sigma, phi, (f_rho_sigma, keep, ranks, kept, usable, fed, overlaps)


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
    sigma against psi attains F(rho, sigma) within CHAIN_SLACK), then the chain of
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
    So must phi have psi's total dimension.
    """
    if epsilon is not None:
        epsilon = _check_real("epsilon", epsilon)
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon!r}")
    if phi.total_dim != psi.total_dim:
        raise ValueError(f"phi has dimension {phi.total_dim}, psi has {psi.total_dim}")
    if sigma.rank > psi.r:
        raise ValueError(
            f"sigma has rank {sigma.rank} above r = {psi.r}: keep >= F(rho, sigma) "
            "needs supp(sigma) inside the rank-r support projector"
        )
    f_rho_sigma = fidelity_mixed(partial_trace_x(psi), sigma)
    uhlmann_overlap = fidelity_pure_pure(psi, optimal_purification_against(sigma, psi))
    m, w, v = psi.as_matrix()[None], sigma.eigenvalues[None], sigma.eigenvectors[None]
    _, keep, usable, psi_tilde = _support_projections(m, w, v, psi.r)
    keep_probability = float(keep[0])
    projected = estimate_fidelity = final_fidelity = None
    eps = epsilon
    if usable.size:
        overlaps = _stage_fidelities(psi.amplitudes[None], psi_tilde, phi.amplitudes[None])
        projected, estimate_fidelity, final_fidelity = (values[0] for values in overlaps)
        if eps is None:
            eps = max(1.0 - f_rho_sigma, 1.0 - estimate_fidelity, 1e-15)
    uhlmann = ChainCheck(
        "uhlmann_attains_fidelity",
        uhlmann_overlap,
        f_rho_sigma,
        abs(uhlmann_overlap - f_rho_sigma) <= CHAIN_SLACK,
    )
    chain = _chain(eps, f_rho_sigma, keep_probability, projected, estimate_fidelity, final_fidelity)
    return ChainReport(
        fidelity_mixed_estimate=f_rho_sigma,
        uhlmann_overlap=uhlmann_overlap,
        keep_probability=keep_probability,
        usable=bool(usable.size),
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


_SEARCH_BATCH = 65536  # triples drawn per batch
_EDGE_FRACTION = 0.125  # share of each batch with a and b pinned at 1 - eta


def _composition_triples(rng: np.random.Generator, d: int, eta: float, m: int, n_edge: int):
    """The moduli a, b and the overlaps c of m triples of ``proposition_search``,
    the first n_edge with a and b pinned at 1 - eta, drawn from their exact law in
    this order: a, b, |w|^2 (for d >= 3), omega."""
    a = rng.uniform(1.0 - eta, 1.0, m)
    a[:n_edge] = 1.0 - eta
    b = rng.uniform(1.0 - eta, 1.0, m)
    b[:n_edge] = 1.0 - eta
    ab = a * b
    s = np.sqrt((1.0 - a * a) * (1.0 - b * b))
    if d > 2:  # |w|^2 = 1 - (1 - U)^(1/(d-2)), Beta(1, d-2)'s inverse CDF at U uniform
        s *= np.sqrt(-np.expm1(np.log1p(-rng.random(m)) / (d - 2)))
    # |x + y e^(i omega)|^2 = (x - y)^2 + 2xy(1 + cos omega), a sum of terms >= 0
    c = np.cos(rng.uniform(0.0, 2.0 * np.pi, m))
    c += 1.0
    c *= 2.0 * ab * s
    c += (ab - s) ** 2
    return a, b, np.sqrt(c, out=c)


def proposition_search(d: int, eta: float, count: int, seed) -> PropositionSearchResult:
    """Randomized search over state triples satisfying a, b >= 1 - eta.

    A triple is psi, phi_t = e^(i theta_1) (a psi + sqrt(1 - a^2) chi_1) and
    phi = e^(i theta_2) (b phi_t + sqrt(1 - b^2) chi_2) in C^d, with chi_1 Haar
    on psi's orthogonal complement, chi_2 Haar on phi_t's, the moduli a and b
    uniform on [1 - eta, 1] (an eighth of each batch pinned at 1 - eta) and the
    phases uniform; c = |<phi|psi>| is tested against 1 - 4*eta with slack
    CHAIN_SLACK. No vector is built: c is drawn from its exact law. Write
    psi = a e^(-i theta_1) phi_t + sqrt(1 - a^2) u, with u the unit vector of
    phi_t's complement in span{psi, chi_1}. Then

        <psi|phi> = e^(i theta_2) (ab e^(i theta_1) + sqrt(1 - a^2) sqrt(1 - b^2) w),

    where w = <u|chi_2> is one coordinate of a Haar unit vector of the
    (d - 1)-dimensional complement of phi_t: |w|^2 ~ Beta(1, d - 2) for d >= 3,
    |w| = 1 at d = 2, and the phase of w is uniform and independent of |w|, a,
    b and theta_1. So c = |ab + sqrt(1 - a^2) sqrt(1 - b^2) |w| e^(i omega)|
    with omega = arg w - theta_1 uniform, and theta_2, a global phase of phi,
    never enters. A triple takes the draws a, b, |w| (for d >= 3) and omega
    (``_composition_triples``), in batches of up to ``_SEARCH_BATCH`` triples,
    a few float arrays of the batch length each, whatever d.
    """
    d = _check_integer("d", d)
    count = _check_integer("count", count)
    if d < 2:
        raise ValueError("need dimension at least 2")
    eta = _check_real("eta", eta)
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
        a, b, c = _composition_triples(rng, d, eta, m, int(_EDGE_FRACTION * m))
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
    per completed trial, under a support estimate at trace distance
    delta/2 to delta. Ratios such as T/sqrt(delta) and T/delta are left to the
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

    Each trial builds a same-rank sigma at trace distance x from rho, x drawn
    from [delta/2, delta], in closed form (``tomography._trace_estimates``): rho's
    top s = min(k, d - k) eigenvectors rotate into its kernel, up to about their
    weight, or at full rank sigma mixes rho toward its smallest eigenvalues, up
    to about 1 - the smallest. It projects psi onto sigma's support and records
    T = ||psi - <psi_tilde|psi> psi_tilde|| (sqrt(1 - keep), but 1 - keep cancels
    in floats); trials whose keep probability vanishes are skipped and counted.
    T <= sqrt(x), as 1 - keep = tr((1 - Pi)(rho - sigma)) <= x, but T/delta is
    data: rho = diag(1 - delta, delta, 0) and sigma = diag(1 - delta, 0, delta)
    give T = sqrt(delta), so T/delta has no bound (the rotation misses that case).
    """
    delta = _check_window("trace distance", delta)
    trials = _check_integer("trials", trials)
    if trials < 1:
        raise ValueError("trials must be positive")
    _check_perturbable(psi.d)
    trial_seeds = _child_seeds(_check_seed("master seed", seed), np.arange(trials))
    rngs = _generators(_generator_words(trial_seeds))
    amps = np.repeat(psi.amplitudes[None], trials, axis=0)
    distances = _gentle_distances(amps, psi.r, delta, rngs)
    kept = distances[~np.isnan(distances)]
    return GentleMeasurementResult(delta=delta, skipped=trials - kept.size, trace_distances=kept)


def _gentle_distances(amps: np.ndarray, r: int, delta: float, rngs) -> np.ndarray:
    """T per trial of the gentle-measurement experiment on a (T, r*d) stack of
    input amplitude rows, the trial's sigma drawn from its generator; NaN where
    the keep probability vanishes and the trial is skipped."""
    count = len(amps)
    m = amps.reshape(count, r, -1)
    _, rho_w, rho_v = _reduced_states(m)
    ranks = _ranks(rho_w)
    if (ranks != ranks[0]).any():  # the oracle builds estimates of one rank at a time
        distances = np.empty(count)
        for idx in _groups(ranks):
            distances[idx] = _gentle_distances(amps[idx], r, delta, [rngs[t] for t in idx])
        return distances
    rho_w = rho_w[:, : ranks[0]]
    _, w, v = _trace_estimates(rho_w, rho_v, delta, rngs)
    _, _, usable, tilde = _support_projections(m, w, v, r)
    # _row_vdots and _row_norms make, per row, the BLAS calls of np.vdot and np.linalg.norm
    a = amps[usable]
    distances = np.full(count, np.nan)
    distances[usable] = _row_norms(a - _row_vdots(tilde, a)[:, None] * tilde)
    return distances
