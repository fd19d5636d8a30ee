"""Simulation of a reduction from mixed-state to pure-state tomography,
with numerical verification of its fidelity guarantees.

The library provides exact (up to float tolerance) state primitives,
two-outcome projective measurement on one register of a bipartite state,
calibrated synthetic and measurement-based tomography backends, the
reduction protocol itself with a per-inequality chain verifier, and a
seed-stable experiment harness with CSV/JSONL output.
"""

from .harness import (
    ExperimentConfig,
    ExperimentKind,
    ExperimentSummary,
    ScalingFit,
    fit_scaling,
    print_summary,
    run_experiment,
)
from .measurement import (
    ProjectionError,
    outcome_probability,
    project_and_renormalize,
    sample_shots,
)
from .reduction import (
    ChainCheck,
    ChainReport,
    GentleMeasurementResult,
    PropositionSearchResult,
    ReductionConfig,
    ReductionError,
    ReductionReport,
    gentle_measurement_experiment,
    proposition_search,
    run_reduction,
    verify_chain,
)
from .seeding import child_seed, rng_from_seed
from .states import (
    DensityMatrix,
    Projector,
    PureState,
    SchmidtDecomposition,
    fidelity_mixed,
    fidelity_pure_pure,
    optimal_purification_against,
    partial_trace_x,
    purify,
    random_pure_state,
    random_rank_r_state,
    schmidt_decompose,
    support_projector,
    trace_distance,
)
from .tomography import (
    BackendKind,
    TomographyBackend,
    estimate_mixed_state_from_measurements,
    estimate_pure_state_from_measurements,
    oracle_mixed_estimate,
    oracle_pure_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "BackendKind",
    "ChainCheck",
    "ChainReport",
    "DensityMatrix",
    "ExperimentConfig",
    "ExperimentKind",
    "ExperimentSummary",
    "GentleMeasurementResult",
    "ProjectionError",
    "Projector",
    "PropositionSearchResult",
    "PureState",
    "ReductionConfig",
    "ReductionError",
    "ReductionReport",
    "ScalingFit",
    "SchmidtDecomposition",
    "TomographyBackend",
    "child_seed",
    "estimate_mixed_state_from_measurements",
    "estimate_pure_state_from_measurements",
    "fidelity_mixed",
    "fidelity_pure_pure",
    "fit_scaling",
    "gentle_measurement_experiment",
    "optimal_purification_against",
    "oracle_mixed_estimate",
    "oracle_pure_estimate",
    "outcome_probability",
    "partial_trace_x",
    "print_summary",
    "project_and_renormalize",
    "proposition_search",
    "purify",
    "random_pure_state",
    "random_rank_r_state",
    "rng_from_seed",
    "run_experiment",
    "run_reduction",
    "sample_shots",
    "schmidt_decompose",
    "support_projector",
    "trace_distance",
    "verify_chain",
]
