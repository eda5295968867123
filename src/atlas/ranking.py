"""Appearance-based landmark ranking and selection.

Scores are defined on appearance equivalence classes, never on individual
landmarks, so two landmarks with the same observing-session set always score
identically.  A rolling window over the last few localization iterations
keeps one row of per-class count arrays per iteration: how many members of
each class were selected and how many of those were then actually
observed.  The class ratio observed/selected is the ranking signal.  A
per-session variant (the max over the class's sessions of the session's
observed/selected weight) is kept as a baseline; its session counts are
derived from the class counts through the index's class keys, so the
window holds no second table.  A uniform random and an unranked reference
policy complete the set.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from atlas.mapcore import EquivalenceClassIndex
from atlas.rng import hash_stream

# max_selected for reference runs: effectively "no budget".
NO_BUDGET = 2**31
# Largest max_selected: selection sizes are int64.
MAX_BUDGET = 2**63 - 1


class RankingKind(str, Enum):
    ALL = "all"
    RANDOM = "random"
    CLASS_RATIO = "class_ratio"
    SESSION_WEIGHT = "session_weight"


# Accepted spellings in config files and query payloads.
RANKING_ALIASES: dict[str, RankingKind] = {
    "all": RankingKind.ALL,
    "f_0": RankingKind.ALL,
    "random": RankingKind.RANDOM,
    "f_rand": RankingKind.RANDOM,
    "class_ratio": RankingKind.CLASS_RATIO,
    "f_rank": RankingKind.CLASS_RATIO,
    "session_weight": RankingKind.SESSION_WEIGHT,
    "f_orig": RankingKind.SESSION_WEIGHT,
}


def parse_ranking(name: str) -> RankingKind:
    try:
        return RANKING_ALIASES[name.lower()]
    except KeyError:
        raise ValueError(f"unknown ranking {name!r}") from None


@dataclass(frozen=True)
class SelectionPolicy:
    """What to rank by, how much to keep, and the tie-break seed."""

    ranking: RankingKind
    selection_ratio: float = 1.0
    max_selected: int = NO_BUDGET
    seed: int = 0
    window_len: int = 10

    def __post_init__(self) -> None:
        if not 0.0 < self.selection_ratio <= 1.0:
            raise ValueError("selection_ratio must be in (0, 1]")
        if not 1 <= self.max_selected <= MAX_BUDGET:
            raise ValueError(f"max_selected must be in [1, {MAX_BUDGET}]")
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")

    @property
    def name(self) -> str:
        return f"{self.ranking.value}@{self.selection_ratio:g}"


def reference_policy(seed: int = 0) -> SelectionPolicy:
    """The unranked full-selection policy all observation ratios compare against."""
    return SelectionPolicy(RankingKind.ALL, selection_ratio=1.0, max_selected=NO_BUDGET, seed=seed)


def parse_policy(spec: str, seed: int = 0, window_len: int = 10) -> SelectionPolicy:
    """Parse "ranking[@ratio]" strings such as "class_ratio@0.2" or "f_rand"."""
    name, _, ratio = spec.partition("@")
    try:
        sr = float(ratio) if ratio else 1.0
    except ValueError:
        raise ValueError(f"bad selection ratio in policy {spec!r}") from None
    return SelectionPolicy(parse_ranking(name), selection_ratio=sr, seed=seed, window_len=window_len)


def selection_size(selection_ratio: float, n_candidates, max_selected: int):
    """min(ceil(ratio * n), max_selected), at least 1, and 0 without candidates.

    Safe against float round-off.  n_candidates is an int (giving an int,
    computed in Python with the same float64 arithmetic) or an array of
    candidate counts (giving one size per count).
    """
    if np.ndim(n_candidates) == 0:
        n = int(n_candidates)
        return max(1, min(math.ceil(selection_ratio * n - 1e-9), max_selected, n)) if n > 0 else 0
    n = np.asarray(n_candidates, dtype=np.int64)
    k = np.ceil(selection_ratio * n - 1e-9).astype(np.int64)
    return np.where(n > 0, np.maximum(1, np.minimum(np.minimum(k, max_selected), n)), 0)


def class_ratio_scores(selected: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Observed/selected ratio of each class (the last axis) from window sums.

    Nothing is observed without being selected, so a class never selected
    scores 0 / 1 = 0.
    """
    return observed / np.maximum(selected, 1)


def session_sums(index: EquivalenceClassIndex, counts: np.ndarray) -> np.ndarray:
    """Per-session sums of per-class counts (the last axis), indexed by session id.

    A class's count goes to every session of its key.  Every row of counts
    is summed in one bincount, each into its own block of session ids.
    """
    n = int(index.key_sessions.max()) + 1 if len(index.key_sessions) else 0
    counts = np.asarray(counts)
    rows = counts.reshape(int(np.prod(counts.shape[:-1])), counts.shape[-1])
    keys = (np.arange(len(rows))[:, None] * n + index.key_sessions).ravel()
    weights = np.repeat(rows, np.diff(index.key_ptr), axis=-1).ravel()
    sums = np.bincount(keys, weights=weights, minlength=len(rows) * n)
    return sums.reshape(*counts.shape[:-1], n)


def session_weight_scores(
    index: EquivalenceClassIndex, selected: np.ndarray, observed: np.ndarray
) -> np.ndarray:
    """Best observed/selected weight among the sessions of each class (the last axis)."""
    by_session = session_sums(index, np.stack((selected, observed)))
    weight = class_ratio_scores(*by_session)
    return np.maximum.reduceat(weight[..., index.key_sessions], index.key_ptr[:-1], axis=-1)


class RollingSelectionStats:
    """Sliding window of per-class selection/observation counts.

    Each row is a pair of count arrays indexed by class id: how many members
    of each class one localization iteration selected and how many of those
    it then observed.  The running sums are kept incrementally on push and
    eviction and always equal a sum over the stored rows (`recount`).  Class
    ids belong to the index that was current when the rows were pushed;
    users clear the stats when the map, and therefore the class numbering,
    changes.
    """

    def __init__(self, window_len: int = 10):
        if window_len < 1:
            raise ValueError("window_len must be >= 1")
        self.window_len = window_len
        self.rows: deque[tuple[np.ndarray, np.ndarray]] = deque()
        self.selected = np.zeros(0, dtype=np.int64)
        self.observed = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.rows)

    def clear(self) -> None:
        self.rows.clear()
        self.selected = np.zeros(0, dtype=np.int64)
        self.observed = np.zeros(0, dtype=np.int64)

    def push_record(self, selected: np.ndarray, observed: np.ndarray) -> None:
        """Append one iteration's per-class (selected, observed) counts."""
        if not self.rows:
            self.selected = np.zeros(len(selected), dtype=np.int64)
            self.observed = np.zeros(len(observed), dtype=np.int64)
        elif len(selected) != len(self.selected):
            raise ValueError("a window holds rows of one class index only")
        self.rows.append((selected, observed))
        self.selected += selected
        self.observed += observed
        while len(self.rows) > self.window_len:
            sel, obs = self.rows.popleft()
            self.selected -= sel
            self.observed -= obs

    def recount(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-class sums recomputed from the stored rows (the oracle for push_record)."""
        if not self.rows:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        sel, obs = zip(*self.rows)
        return np.sum(sel, axis=0), np.sum(obs, axis=0)

    def class_ratio(self, class_ids: np.ndarray | int) -> np.ndarray:
        """Observed/selected ratio of each class in class_ids; 0 when never selected."""
        if not self.rows:
            return np.zeros(np.shape(class_ids))
        return class_ratio_scores(self.selected, self.observed)[class_ids]

    def session_counts(self, index: EquivalenceClassIndex) -> tuple[np.ndarray, np.ndarray]:
        """Per-session (selected, observed) counts, indexed by session id.

        A class's counts go to every session of its key, so a session's
        count is the number of selections of landmarks it observed.
        """
        counts = np.stack((self.selected, self.observed)) if self.rows else np.zeros((2, len(index)))
        selected, observed = session_sums(index, counts)
        return selected, observed

    def session_weight(
        self, index: EquivalenceClassIndex, class_ids: np.ndarray | int
    ) -> np.ndarray:
        """Best observed/selected weight among the sessions of each class in class_ids."""
        if not self.rows:
            return np.zeros(np.shape(class_ids))
        return session_weight_scores(index, self.selected, self.observed)[class_ids]


def update_window(
    stats: RollingSelectionStats,
    class_ids: np.ndarray,
    observed_mask: np.ndarray,
    index: EquivalenceClassIndex,
) -> RollingSelectionStats:
    """Push one iteration: the class ids of its distinct selected landmarks and an observed mask.

    Class ids must come from the given index, which sizes the count rows.
    """
    n = len(index)
    stats.push_record(
        np.bincount(class_ids, minlength=n), np.bincount(class_ids[observed_mask], minlength=n)
    )
    return stats


def class_scores(
    policy: SelectionPolicy,
    stats: RollingSelectionStats,
    index: EquivalenceClassIndex,
    class_ids: np.ndarray,
) -> np.ndarray:
    """Rank score for each entry of class_ids.

    class_ratio scores a class by its observed/selected ratio and
    session_weight by the best weight among the sessions that define it;
    the unranked and random policies score everything 0.
    """
    if policy.ranking is RankingKind.CLASS_RATIO:
        return stats.class_ratio(class_ids)
    if policy.ranking is RankingKind.SESSION_WEIGHT:
        return stats.session_weight(index, class_ids)
    return np.zeros(len(class_ids))


def selection_order(
    policy: SelectionPolicy, ids: np.ndarray, scores: np.ndarray, tiebreak: np.ndarray | None
) -> np.ndarray:
    """Indices into ids, best candidate first, before the budget is applied.

    tiebreak holds one hash_stream(policy.seed, salt, ids) word per id; the
    unranked policy orders by id alone and takes None.
    """
    if policy.ranking is RankingKind.ALL:
        return np.argsort(ids, kind="stable")
    if policy.ranking is RankingKind.RANDOM:
        return np.lexsort((ids, tiebreak))
    return np.lexsort((ids, tiebreak, -np.asarray(scores, dtype=np.float64)))


def select_from_arrays(
    policy: SelectionPolicy, ids: np.ndarray, scores: np.ndarray, salt: int = 0
) -> np.ndarray:
    """Pick min(ceil(ratio * |ids|), max_selected) ids, best first.

    Ties (and the random ranking) are broken by a hash stream keyed on
    (policy.seed, salt, landmark id), then by ascending id, so the result is
    a pure function of its inputs.  The unranked policy returns lowest ids.
    """
    k = selection_size(policy.selection_ratio, len(ids), policy.max_selected)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    tiebreak = None if policy.ranking is RankingKind.ALL else hash_stream(policy.seed, salt, ids)
    return ids[selection_order(policy, ids, scores, tiebreak)[:k]]
