"""Deterministic seed derivation for reproducible, parallel-safe experiments."""

from __future__ import annotations

import numpy as np

__all__ = ["child_seed", "rng_from_seed"]


def child_seed(master: int, *path: int) -> int:
    """Derive a decorrelated 64-bit seed for one node of a seed tree.

    The same (master, path) pair always yields the same child, and distinct
    paths yield statistically independent streams, so cells, trials, and the
    operations inside a trial can run in any order (or in parallel) without
    changing results.
    """
    if master < 0:
        raise ValueError("master seed must be nonnegative")
    seq = np.random.SeedSequence(int(master), spawn_key=tuple(int(p) for p in path))
    return int(seq.generate_state(1, np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    """A PCG64 generator for an explicit integer seed."""
    return np.random.default_rng(int(seed))
