"""Counter-based RNG: oracle checks against a pure-Python reference mixer.

The reference below reimplements the mixing pipeline with plain Python
integer arithmetic, independently of the numpy vector path under test, so
any wraparound or casting bug in either path shows up as a mismatch.
"""

import math
import warnings

import numpy as np

from atlas.rng import derive_seed, hash_stream, normal_pair_stream, uniform01

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


def reference_mix(x: int) -> int:
    x = (x + GAMMA) & MASK
    x = ((x ^ (x >> 30)) * MIX1) & MASK
    x = ((x ^ (x >> 27)) * MIX2) & MASK
    return x ^ (x >> 31)


def reference_word(seed: int, salt: int, lane: int) -> int:
    h = reference_mix((seed & MASK) ^ ((lane * MIX1) & MASK))
    return reference_mix(h ^ ((salt * MIX2) & MASK))


def test_hash_stream_matches_reference_oracle():
    ids = np.array([0, 1, 2, 5, 97, 2**40, 2**62], dtype=np.int64)
    for seed, salt in [(0, 0), (1, 0), (0, 1), (12345, 678), (2**63 - 1, 2**31)]:
        got = hash_stream(seed, salt, ids)
        want = [reference_word(seed, salt, int(i)) for i in ids]
        assert got.tolist() == want


def test_hash_stream_with_salt_arrays_matches_reference_oracle():
    ids = np.array([0, 1, 2, 5, 97, 2**40, 2**62, 2**63 - 1], dtype=np.int64)
    salts = np.array([0, 1, 7, 2**31, 2**31 - 1, 3, 2**62, 2**63 - 1], dtype=np.int64)
    for seed in (0, 1, 12345, 2**63 - 1):
        got = hash_stream(seed, salts, ids)
        want = [reference_word(seed, int(s), int(i)) for s, i in zip(salts, ids)]
        assert got.tolist() == want
        # a (k, 1) salt column broadcasts against the ids: one row per salt
        grid = hash_stream(seed, salts[:3, None], ids)
        assert grid.shape == (3, len(ids))
        for row, s in zip(grid.tolist(), salts[:3].tolist()):
            assert row == [reference_word(seed, s, int(i)) for i in ids]


def reference_normal(seed: int, salt: int) -> np.float64:
    """Box-Muller on one salt's two reference words, in numpy scalar arithmetic."""
    u1, u2 = (np.float64(reference_word(seed, salt, lane)) * 2.0**-64 for lane in (1, 2))
    u1 = max(u1, 2.0**-64)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def test_normal_pair_stream_over_salt_arrays_matches_scalar_oracle():
    for seed in (0, 42, 2**63 - 1):
        for salts in (np.arange(600), np.array([2**31 - 2, 2**31 - 1, 2**31])):
            got = normal_pair_stream(seed, salts)
            assert got.dtype == np.float64 and got.shape == salts.shape
            want = np.array([reference_normal(seed, int(k)) for k in salts])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert [normal_pair_stream(seed, int(k)) for k in salts[:50]] == got[:50].tolist()


def test_derive_seed_matches_reference_oracle():
    def reference(seed: int, name: str) -> int:
        h = seed & MASK
        for ch in name.encode("utf-8"):
            h = reference_mix(h ^ ch)
        return h

    for seed, name in [(0, ""), (42, "world"), (42, "sortie/3"), (2**63 - 1, "probe")]:
        assert derive_seed(seed, name) == reference(seed, name)


def test_uniform01_is_hash_scaled():
    ids = np.arange(50, dtype=np.int64)
    h = hash_stream(7, 3, ids)
    u = uniform01(7, 3, ids)
    assert np.array_equal(u, h.astype(np.float64) * 2.0**-64)
    assert np.all((0.0 <= u) & (u < 1.0))


def test_streams_are_deterministic_and_keyed():
    ids = np.arange(100, dtype=np.int64)
    a = hash_stream(11, 4, ids)
    assert np.array_equal(a, hash_stream(11, 4, ids))
    assert not np.array_equal(a, hash_stream(12, 4, ids))
    assert not np.array_equal(a, hash_stream(11, 5, ids))


def test_uniform01_looks_uniform():
    u = uniform01(2024, 0, np.arange(100_000, dtype=np.int64))
    assert abs(float(u.mean()) - 0.5) < 0.005
    assert abs(float(u.var()) - 1.0 / 12.0) < 0.002
    hist, _ = np.histogram(u, bins=10, range=(0.0, 1.0))
    assert hist.min() > 8000  # every decile populated


def test_normal_pair_stream_moments_and_determinism():
    zs = np.array([normal_pair_stream(9, k) for k in range(20_000)])
    assert normal_pair_stream(9, 17) == zs[17]
    assert abs(float(zs.mean())) < 0.02
    assert abs(float(zs.std()) - 1.0) < 0.02
    assert np.all(np.isfinite(zs))


def test_derive_seed_separates_names():
    seeds = {derive_seed(42, name) for name in ("world", "sortie/0", "sortie/1", "probe", "")}
    assert len(seeds) == 5
    assert derive_seed(42, "world") == derive_seed(42, "world")
    assert derive_seed(43, "world") != derive_seed(42, "world")
    assert all(0 <= s <= MASK for s in seeds)


def test_no_numpy_overflow_warnings():
    # uint64 scalar arithmetic in numpy 2.x warns on wraparound; the scalar
    # paths must therefore stay in Python ints.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        derive_seed(2**63 - 1, "a-very-long-name-with-high-bytes-\xff\xfe")
        hash_stream(2**63 - 1, 2**62, np.array([2**62, 1], dtype=np.int64))
        uniform01(2**63 - 1, 2**62, np.arange(10, dtype=np.int64))
        normal_pair_stream(2**63 - 1, 2**31)
        salts = np.array([2**62, 2**63 - 1, 1], dtype=np.int64)
        hash_stream(2**63 - 1, salts, np.array([2**62, 2**63 - 1, 1], dtype=np.int64))
        uniform01(2**63 - 1, salts, np.arange(3, dtype=np.int64))
        normal_pair_stream(2**63 - 1, salts)


def test_normal_pair_guards_log_zero():
    # Even if a lane produced u == 0, Box-Muller must stay finite.
    zs = [normal_pair_stream(0, k) for k in range(5000)]
    assert all(math.isfinite(z) for z in zs)


def test_list_input_matches_array_input():
    ids = [3, 1, 4, 1, 5]
    assert np.array_equal(
        hash_stream(8, 2, np.array(ids, dtype=np.int64)), hash_stream(8, 2, np.array(ids))
    )
