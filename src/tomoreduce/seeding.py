"""Deterministic seed derivation for reproducible, parallel-safe experiments.

``child_seed`` and ``rng_from_seed`` are the reference: one numpy
``SeedSequence`` per call. The private bulk forms compute the same
``SeedSequence`` pool hash over whole uint32 arrays, so a block of seeds and
generators costs a few numpy passes instead of one ``SeedSequence`` each;
they equal the reference bit for bit, and the tests pin that against numpy.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np

__all__ = ["child_seed", "rng_from_seed"]


def _check_seed(what: str, seed) -> int:
    """The seed rule: raise ValueError unless ``seed`` is an integer >= 0; a
    bool, a float (NaN or whole) and a fraction are not seeds."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {seed!r}")
    return int(seed)


def _check_integer(what: str, count) -> int:
    """The integer rule for counts and dimensions: raise ValueError unless the
    value is an integer; a bool, a float (NaN or whole) and a fraction are not.
    Returns the Python int, which every entry keeps in place of its argument.
    It sits beside the seed rule because every module, states too, imports seeding."""
    if isinstance(count, bool) or not isinstance(count, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {count!r}")
    return int(count)


def _check_real(what: str, value) -> float:
    """The real-number rule for epsilon, delta, eta and factors: raise ValueError
    unless the value is a real number; a bool, a string, None and a complex are not.
    Returns the Python float, so that no bound is computed in a float32's precision."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    return float(value)


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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words, mixed from the entropy words by hashmix and mix, then hashed
# out into the state words.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # hashmix, while mixing the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # hashmix, while generating state
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
# the pool words each source word is mixed into, while mixing the pool
_OTHER_WORDS = [[dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE)]


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of the first ``calls`` hashmix calls: each call xors its
    value with the running constant, advances the constant by ``mult`` and
    multiplies the value by it. They are the same for every input."""
    running = [init]
    for _ in range(calls):
        running.append(running[-1] * mult & 0xFFFFFFFF)
    constants = np.array(running, dtype=np.uint32)
    constants.setflags(write=False)  # cached: every caller gets these arrays
    return constants[:-1], constants[1:]


def _hashmix(values: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    values = (values ^ xor) * mul
    return values ^ (values >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool of each row of an (N, L) uint32 entropy array, L >= 4."""
    length = entropy.shape[1]
    # 4 hashmix calls fill the pool, 12 mix it, and 4 per entropy word past it
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * length)
    with np.errstate(over="ignore"):
        pool = _hashmix(entropy[:, :_POOL_SIZE], xor[:_POOL_SIZE], mul[:_POOL_SIZE])
        k = _POOL_SIZE
        # every pool word into the other three, so late bits reach early ones
        for src, dst in enumerate(_OTHER_WORDS):
            hashed = _hashmix(pool[:, src, None], xor[k : k + 3], mul[k : k + 3])
            pool[:, dst] = _mix(pool[:, dst], hashed)
            k += 3
        # then each entropy word past the pool into every pool word
        for src in range(_POOL_SIZE, length):
            hashed = _hashmix(entropy[:, src, None], xor[k : k + 4], mul[k : k + 4])
            pool = _mix(pool, hashed)
            k += 4
    return pool


def _state_words(pool: np.ndarray, n_words: int) -> np.ndarray:
    """``generate_state(n_words, np.uint64)`` of each pool row: (N, n_words) uint64."""
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    with np.errstate(over="ignore"):
        halves = _hashmix(pool[:, np.arange(2 * n_words) % _POOL_SIZE], xor, mul)
    # as numpy does it: each pair of words, low word first, is one uint64
    pairs = np.ascontiguousarray(halves, dtype="<u4").view("<u8")
    return pairs.astype(np.uint64, copy=False)


def _seed_entropy(seeds: np.ndarray, length: int) -> np.ndarray:
    """Entropy rows of length ``length`` that start with each 64-bit seed as
    the words [lo, hi, 0, 0]. With a spawn key numpy pads the seed to the
    pool size, and without one its pool zero-fills, so every seed below 2**64
    hashes alike, whatever its word count."""
    entropy = np.zeros((seeds.size, length), dtype=np.uint32)
    entropy[:, :2] = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(-1, 2)
    return entropy


def _child_seeds(masters, *path) -> np.ndarray:
    """``child_seed(m, *p)`` for every element of ``masters`` and the path
    entries, broadcast together: a uint64 array of their broadcast shape.

    Masters and entries are non-negative integers or integer arrays (object
    arrays hold values past 2**64). A master of 2**64 or more, or an entry of
    2**32 or more, takes more entropy words than the hash pass lays out, so
    its element goes through ``child_seed``.
    """
    arrays = np.broadcast_arrays(*map(np.asarray, (masters, *path)))
    shape = arrays[0].shape
    columns = [a.reshape(-1) for a in arrays]
    wide = np.zeros(columns[0].size, dtype=bool)
    fitted = []
    for column, limit in zip(columns, [2**64] + [2**32] * len(path)):
        # the largest value decides first: an elementwise comparison would
        # fault another 128 KiB of numpy's code into every sweep's RSS
        if column.size and int(column.max()) >= limit:
            over = np.asarray(column >= limit, dtype=bool)
            wide |= over
            column = np.where(over, 0, column)
        fitted.append(column.astype(np.uint64))
    entropy = _seed_entropy(fitted[0], _POOL_SIZE + len(path))
    for j, entry in enumerate(fitted[1:]):
        entropy[:, _POOL_SIZE + j] = entry
    seeds = _state_words(_pool(entropy), 1)[:, 0]
    for i in np.flatnonzero(wide):
        seeds[i] = child_seed(*(int(c[i]) for c in columns))
    return seeds.reshape(shape)


def _generator_words(seeds) -> np.ndarray:
    """The PCG64 state words ``rng_from_seed(s)`` derives for each seed below
    2**64: its ``generate_state(4, np.uint64)``, an array of shape + (4,)."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = _state_words(_pool(_seed_entropy(seeds.reshape(-1), _POOL_SIZE)), 4)
    return words.reshape(*seeds.shape, 4)


@functools.cache
def _state_words_type() -> type:
    """A seed sequence type that hands PCG64 precomputed state words. It is
    built on first use, so that importing tomoreduce does not import
    numpy.random (30 ms and 6 MiB)."""
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError("holds the 4 uint64 state words of PCG64 only")
            return self.words

    return StateWords


def _generators(words: np.ndarray) -> list[np.random.Generator]:
    """One generator per row of ``_generator_words`` output: bit for bit the
    generator ``rng_from_seed`` builds on that row's seed. PCG64 reads each
    row's memory, so the rows must be contiguous."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    state_words = _state_words_type()
    return [np.random.Generator(np.random.PCG64(state_words(w))) for w in words]
