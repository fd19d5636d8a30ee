"""Bulk seed derivation equals numpy's SeedSequence bit for bit.

The harness derives its seeds and generators with a vectorized copy of
numpy's SeedSequence pool hash. These tests compare it with numpy itself, so
a numpy release that changes SeedSequence fails here, loudly, instead of
quietly moving every record.
"""

from fractions import Fraction

import numpy as np
import pytest

from tomoreduce.seeding import (
    _check_integer,
    _check_real,
    _child_seeds,
    _generator_words,
    _generators,
    _state_words_type,
    child_seed,
    rng_from_seed,
)

EDGE_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**70, 2**128 + 5]
EDGE_ENTRIES = [0, 1, 2**31, 2**32 - 1, 2**32, 2**40, 2**64 + 3]


def reference(master, path):
    return int(np.random.SeedSequence(master, spawn_key=path).generate_state(1, np.uint64)[0])


def random_values(rng, size, edges, widths):
    """Integers of random bit width among ``widths`` (object dtype, so past
    2**64 too), with every edge value among them."""
    bits = rng.choice(widths, size)
    values = [int(rng.integers(0, 2**62)) * int(rng.integers(0, 2**62)) % 2 ** int(b) for b in bits]
    values[: len(edges)] = edges
    return np.array(values, dtype=object)


class TestChildSeeds:
    @pytest.mark.parametrize("length", [0, 1, 2, 3])
    def test_equals_seed_sequence(self, length):
        # 4 path lengths x 2,600 rows: masters of every word count, path
        # entries mostly below 2**32 with some that take the fallback
        rng = np.random.default_rng(length)
        n = 2600
        masters = random_values(rng, n, EDGE_MASTERS, [1, 8, 32, 33, 63, 64, 64, 64, 70])
        path = [random_values(rng, n, EDGE_ENTRIES, [1, 5, 31, 32, 32, 32, 32, 32, 40])
                for _ in range(length)]
        for entry in path:  # each edge entry meets other masters too
            rng.shuffle(entry)
        got = _child_seeds(masters, *path)
        assert got.dtype == np.uint64 and got.shape == (n,)
        for i in range(n):
            row_path = tuple(int(entry[i]) for entry in path)
            assert int(got[i]) == reference(int(masters[i]), row_path), (masters[i], row_path)

    def test_broadcasts_like_the_scalar_calls(self):
        masters = np.array([3, 2**64 - 1, 2**40], dtype=np.uint64)
        got = _child_seeds(masters[:, None, None], np.arange(4)[:, None], np.arange(2))
        assert got.shape == (3, 4, 2)
        for (i, t, k), seed in np.ndenumerate(got):
            assert int(seed) == child_seed(int(masters[i]), t, k)

    @pytest.mark.parametrize("master", [0, 7, 2**64 - 1, 2**70])
    def test_scalar_master(self, master):
        assert int(_child_seeds(master)) == child_seed(master)
        assert _child_seeds(master, np.arange(3)).tolist() == [child_seed(master, t) for t in range(3)]


class TestGenerators:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    def seeds(self):
        rng = np.random.default_rng(5)
        drawn = rng.integers(0, 2**64 - 1, 200, dtype=np.uint64, endpoint=True)
        return np.concatenate([np.array(self.SEEDS, dtype=np.uint64), drawn])

    def test_words_equal_seed_sequence_state(self):
        seeds = self.seeds()
        words = _generator_words(seeds)
        assert words.shape == (seeds.size, 4) and words.dtype == np.uint64
        for seed, row in zip(seeds, words):
            expected = np.random.SeedSequence(int(seed)).generate_state(4, np.uint64)
            assert row.tolist() == expected.tolist()

    def test_streams_equal_default_rng(self):
        seeds = self.seeds()
        for seed, rng in zip(seeds, _generators(_generator_words(seeds))):
            ref = np.random.default_rng(int(seed))
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.standard_normal(7).tolist() == ref.standard_normal(7).tolist()
            assert rng.integers(0, 2**40, 5).tolist() == ref.integers(0, 2**40, 5).tolist()
        for seed, rng in zip(seeds, _generators(_generator_words(seeds))):
            assert rng.random(10).tolist() == rng_from_seed(int(seed)).random(10).tolist()

    def test_words_of_any_shape_and_layout(self):
        # PCG64 reads raw memory: rows that are not contiguous must give the
        # same generators as contiguous ones
        seeds = self.seeds()[:12].reshape(3, 2, 2)
        words = _generator_words(seeds)
        assert words.shape == (3, 2, 2, 4)
        strided = np.asfortranarray(words.reshape(-1, 4))
        assert not strided[0].flags.c_contiguous
        for rng, seed in zip(_generators(strided), seeds.ravel()):
            assert rng.random(4).tolist() == np.random.default_rng(int(seed)).random(4).tolist()

    def test_state_words_serve_pcg64_only(self):
        words = _generator_words(np.array([9], dtype=np.uint64))[0]
        with pytest.raises(ValueError, match="4 uint64 state words"):
            _state_words_type()(words).generate_state(8, np.uint32)


class TestRules:
    # each rule returns the Python scalar it accepts, which every entry keeps
    @pytest.mark.parametrize(
        "value, expected",
        [(7, 7), (np.int64(-3), -3), (np.uint8(200), 200), (np.uint64(2**64 - 1), 2**64 - 1),
         (2**70, 2**70)],
    )
    def test_integer_rule_returns_a_python_int(self, value, expected):
        got = _check_integer("count", value)
        assert type(got) is int and got == expected

    @pytest.mark.parametrize(
        "value, expected",
        [(0.1, 0.1), (np.float32(0.05), 0.05000000074505806), (np.float64(0.01), 0.01),
         (np.int64(3), 3.0), (2, 2.0), (Fraction(1, 3), 1 / 3), (float("inf"), float("inf"))],
    )
    def test_real_rule_returns_a_python_float(self, value, expected):
        got = _check_real("epsilon", value)
        assert type(got) is float and got == expected
