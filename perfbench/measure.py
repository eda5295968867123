"""Small statistics and digest helpers shared by the benchmark and its self-tests."""

from __future__ import annotations

import hashlib
import math
import statistics

# Percentiles considered for a tail figure, highest first.
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(samples, p: float) -> float:
    """The p-th percentile by the nearest-rank rule (a sample, never interpolated)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(ordered) * p / 100.0))
    return ordered[rank - 1]


def beyond(n: int, p: float) -> int:
    """How many of n samples rank above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(n * p / 100.0))


def tail_percentile(samples, ladder=PERCENTILE_LADDER, min_beyond: int = MIN_BEYOND):
    """(p, value, n): the highest percentile with at least min_beyond samples above it.

    Returns p = None when even the lowest rung is unsupported.
    """
    n = len(samples)
    for p in ladder:
        if beyond(n, p) >= min_beyond:
            return p, nearest_rank(samples, p), n
    return None, math.nan, n


def median(values) -> float:
    return float(statistics.median(values))


def digest(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()
