"""Two-outcome projective measurement {P, I - P} on the Y register.

The measurement acts on the second register of a bipartite pure state.
Because copies are i.i.d. and the post-measurement state is the same for
every kept copy, the kept count of n copies is one Binomial(n, keep) draw
on the analytic keep probability; this is exact, not an approximation, and
its time and memory do not depend on n.

The one-state API (``outcome_probability``, ``project_and_renormalize``,
``sample_shots``) stays beside the stacked kernel the reduction uses, since it
takes any projector: demo 02 projects onto a Schmidt direction, and the
gentle-measurement reference test projects with it.
"""

from __future__ import annotations

import numpy as np

from .seeding import _check_integer, rng_from_seed
from .states import Projector, PureState, _phase_normalized

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


def _keep_and_projected(m: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keep probabilities ||M_t conj(B_t)||_F^2 and unnormalized projected
    coefficient matrices M_t conj(B_t) B_t^T, for a stack of (r, d)
    coefficient matrices M and (d, k) orthonormal support bases B. Each
    probability is the pairwise sum along one contiguous row of r*k squared
    moduli, as a state's sum alone is, so a stack gives the bits of one state."""
    g = m @ basis.conj()
    return (np.abs(g) ** 2).reshape(len(g), -1).sum(axis=1), g @ basis.swapaxes(1, 2)


def _renormalized(p: np.ndarray, projected: np.ndarray) -> np.ndarray:
    """Phase-normalized amplitude rows of the projected states, unchecked."""
    count, r, d = projected.shape
    return _phase_normalized((projected / np.sqrt(p)[:, None, None]).reshape(count, r * d))


def _check_count(what: str, count: float) -> None:
    """Raise ValueError unless a shot or copy count fits in int64, the dtype it is drawn in."""
    if not count <= np.iinfo(np.int64).max:
        raise ValueError(f"{count:.3g} {what} exceed the int64 limit 2^63 - 1")


def outcome_probability(psi: PureState, pi: Projector) -> float:
    """Probability <psi|(I (x) P)|psi> of the keep outcome."""
    _check_dims(psi, pi)
    p, _ = _keep_and_projected(psi.as_matrix()[None], pi.basis[None])
    return float(np.clip(p[0], 0.0, 1.0))


def project_and_renormalize(psi: PureState, pi: Projector) -> PureState:
    """Post-measurement state (I (x) P)|psi> / ||(I (x) P)|psi>||."""
    _check_dims(psi, pi)
    p, projected = _keep_and_projected(psi.as_matrix()[None], pi.basis[None])
    if p[0] <= PROB_TOL:
        raise ProjectionError(f"projection norm squared {p[0]:.3e} is below {PROB_TOL:g}")
    return PureState(_renormalized(p, projected)[0], psi.dims)


def sample_shots(psi: PureState, pi: Projector, shots: int, seed) -> int:
    """Number of keep outcomes among `shots` i.i.d. copies, deterministic per seed.

    The count is one ``binomial(shots, p)`` draw from the seed's stream, the
    law of counting i.i.d. keep outcomes; ``shots`` must be an integer that
    fits in int64. All kept copies collapse to the one state returned by
    :func:`project_and_renormalize`.
    """
    shots = _check_integer("shots", shots)
    if shots < 0:
        raise ValueError("shot count must be nonnegative")
    _check_count("shots", shots)
    return int(rng_from_seed(seed).binomial(shots, outcome_probability(psi, pi)))
