"""Deterministic seed derivation for reproducible, parallel-safe experiments."""

from __future__ import annotations

import numbers

import numpy as np

__all__ = ["child_seed", "rng_from_seed"]


def _check_seed(what: str, seed) -> int:
    """The seed rule: raise ValueError unless ``seed`` is an integer >= 0; a
    bool, a float (NaN or whole) and a fraction are not seeds."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {seed!r}")
    return int(seed)


def child_seed(master: int, *path: int) -> int:
    """Derive a decorrelated 64-bit seed for one node of a seed tree.

    The same (master, path) pair always yields the same child, and distinct
    paths yield statistically independent streams, so cells and trials can
    run in any order (or in parallel) without changing results.
    """
    key = tuple(_check_seed("seed path entry", p) for p in path)
    seq = np.random.SeedSequence(_check_seed("master seed", master), spawn_key=key)
    return int(seq.generate_state(1, np.uint64)[0])


def rng_from_seed(seed: int) -> np.random.Generator:
    """A PCG64 generator for an explicit integer seed."""
    return np.random.default_rng(_check_seed("seed", seed))
