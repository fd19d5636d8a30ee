"""Two-outcome projective measurement {P, I - P} on the Y register.

The measurement acts on the second register of a bipartite pure state.
Because copies are i.i.d. and the post-measurement state is the same for
every kept copy, the kept count of n copies is one Binomial(n, keep) draw
on the analytic keep probability; this is exact, not an approximation, and
its time and memory do not depend on n.
"""

from __future__ import annotations

import numpy as np

from .seeding import rng_from_seed
from .states import Projector, PureState

__all__ = [
    "PROB_TOL",
    "ProjectionError",
    "outcome_probability",
    "project_and_renormalize",
    "sample_shots",
]

PROB_TOL = 1e-12  # outcome probabilities at or below this cannot be renormalized


class ProjectionError(RuntimeError):
    """The projection norm is too small to renormalize.

    Signals that the support estimate behind the projector misses the state;
    dividing by a near-zero norm would amplify rounding noise past any
    tolerance, so the condition is reported instead.
    """


def _check_dims(psi: PureState, pi: Projector) -> None:
    if pi.dimension != psi.d:
        raise ValueError(
            f"projector acts on dimension {pi.dimension}, state's Y register has {psi.d}"
        )


def outcome_probability(psi: PureState, pi: Projector) -> float:
    """Probability <psi|(I (x) P)|psi> of the keep outcome."""
    _check_dims(psi, pi)
    g = psi.as_matrix() @ pi.basis.conj()
    return float(np.clip(np.sum(np.abs(g) ** 2), 0.0, 1.0))


def project_and_renormalize(psi: PureState, pi: Projector) -> PureState:
    """Post-measurement state (I (x) P)|psi> / ||(I (x) P)|psi>||."""
    _check_dims(psi, pi)
    m = psi.as_matrix()
    g = m @ pi.basis.conj()
    p = float(np.sum(np.abs(g) ** 2))
    if p <= PROB_TOL:
        raise ProjectionError(f"projection norm squared {p:.3e} is below {PROB_TOL:g}")
    projected = g @ pi.basis.T
    return PureState((projected / np.sqrt(p)).reshape(-1), psi.dims).phase_normalized()


def sample_shots(psi: PureState, pi: Projector, shots: int, seed) -> int:
    """Number of keep outcomes among `shots` i.i.d. copies, deterministic per seed.

    The count is one ``binomial(shots, p)`` draw from the seed's stream, the
    law of counting i.i.d. keep outcomes; ``shots`` must fit in int64. All
    kept copies collapse to the one state returned by
    :func:`project_and_renormalize`.
    """
    if shots < 0:
        raise ValueError("shot count must be nonnegative")
    return int(rng_from_seed(seed).binomial(shots, outcome_probability(psi, pi)))
