"""Counter-based deterministic random streams.

Selection tie-breaking and simulated landmark detection must be reproducible
and independent of iteration order or of what else happens to be selected, so
instead of drawing from a stateful generator we hash (seed, salt, id) tuples
through a SplitMix64-style finalizer.  The same id always yields the same
draw for a given seed and salt, which is what lets two selection policies
share one stream of observation outcomes.

Batching is the other reason the streams are counter-based: no draw depends
on another, so draws can be taken in any order and in any batch.  A salt may
be an int64 array broadcast against the ids, so a caller that knows its salts
in advance (pose indices, say) takes a whole block of draws in one call
instead of one call per salt, and gets the same words.
"""

from __future__ import annotations

import numpy as np

_MASK_INT = 0xFFFFFFFFFFFFFFFF
# SplitMix64 finalizer constants (Steele et al., the golden-gamma mixer).
_GAMMA_INT = 0x9E3779B97F4A7C15
_MIX1_INT = 0xBF58476D1CE4E5B9
_MIX2_INT = 0x94D049BB133111EB

_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(_MIX1_INT)
_MIX2 = np.uint64(_MIX2_INT)
_INV_2_64 = float(2.0**-64)


def _mix(x: np.ndarray) -> np.ndarray:
    """Finalize a uint64 array in place and return it.

    Array-only: numpy wraps uint64 arrays silently but warns on scalars.
    """
    x += _GAMMA
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _mix_int(x: int) -> int:
    x = (x + _GAMMA_INT) & _MASK_INT
    x = ((x ^ (x >> 30)) * _MIX1_INT) & _MASK_INT
    x = ((x ^ (x >> 27)) * _MIX2_INT) & _MASK_INT
    return x ^ (x >> 31)


def hash_stream(seed: int, salt: int | np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Return one uint64 word per id, deterministic in (seed, salt, id).

    `salt` is an int or an int64 array broadcast against `ids`; element i
    of an array salt gives the word hash_stream(seed, int(salt[i]), ids[i]).
    """
    h = np.asarray(ids, dtype=np.int64).astype(np.uint64)
    h *= _MIX1
    h ^= np.uint64(seed & _MASK_INT)
    if np.ndim(salt):
        salt_word = np.asarray(salt, dtype=np.int64).astype(np.uint64)
        salt_word *= _MIX2
    else:
        salt_word = np.uint64((int(salt) * _MIX2_INT) & _MASK_INT)
    return _mix(_mix(h) ^ salt_word)


def uniform01(seed: int, salt: int | np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Uniform draws in [0, 1), one per id, keyed by (seed, salt, id)."""
    return hash_stream(seed, salt, ids).astype(np.float64) * _INV_2_64


_BOX_MULLER_LANES = np.array([1, 2], dtype=np.int64)


def normal_pair_stream(seed: int, salts: int | np.ndarray) -> float | np.ndarray:
    """Standard normal draws via Box-Muller, one per salt, keyed by (seed, salt).

    An int salt gives a float; an array of salts gives one float64 per salt,
    each equal to the draw of that salt alone.
    """
    salts = np.asarray(salts, dtype=np.int64)
    u = uniform01(seed, salts.reshape(-1, 1), _BOX_MULLER_LANES)
    u1 = np.maximum(u[:, 0], _INV_2_64)  # guard log(0)
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u[:, 1])
    return float(z[0]) if salts.ndim == 0 else z.reshape(salts.shape)


def derive_seed(seed: int, name: str) -> int:
    """Derive a named child seed, so one experiment seed fans out into
    independent streams (world, sorties, observations, tie-breaks)."""
    h = seed & _MASK_INT
    for ch in name.encode("utf-8"):
        h = _mix_int(h ^ ch)
    return h
