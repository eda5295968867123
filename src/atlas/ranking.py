"""Appearance-based landmark ranking and selection.

Scores are defined on appearance equivalence classes, never on individual
landmarks, so two landmarks with the same observing-session set always score
identically.  A rolling window over the last few localization iterations
keeps one row of per-class count arrays per iteration: how many members of
each class were selected and how many of those were then actually
observed.  The class ratio observed/selected is the ranking signal.  A
per-session variant (the max over the class's sessions of the session's
observed/selected weight) is kept as a baseline; its session counts are
derived from the class counts through the index's (class, session)
incidence matrix, so the window holds no second table.  A window has one
lane per policy: the simulator's ranked policies share one, and a served
session has its own.  A uniform random and an unranked reference policy
complete the set.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

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

    @property
    def windowed(self) -> bool:
        """Whether the ranking reads the rolling window's scores."""
        return self in (RankingKind.CLASS_RATIO, RankingKind.SESSION_WEIGHT)


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


def session_weight_scores(
    index: EquivalenceClassIndex, selected: np.ndarray, observed: np.ndarray
) -> np.ndarray:
    """Best observed/selected weight among the sessions of each class (the last axis).

    A session's counts are the sums of its classes' counts, exact in int64.
    Weights are never negative, so zeroing the weights of the sessions
    outside a class leaves its best unchanged, and an index without
    sessions takes the initial 0.
    """
    by_session = np.stack((selected, observed)) @ index.incidence
    weight = class_ratio_scores(*by_session)
    return (weight[..., None, :] * index.incidence).max(axis=-1, initial=0.0)


def _lanes(mask: list[bool]) -> slice | np.ndarray | None:
    """The lanes mask picks: None for none, and a slice (a view, not a copy) for all."""
    if not any(mask):
        return None
    return slice(None) if all(mask) else np.flatnonzero(mask)


class RollingSelectionStats:
    """Rolling windows of per-class selection/observation counts, one lane per policy.

    A row is a (lane, class, [unobserved, observed]) count array: per lane,
    how many members of each class one localization iteration selected and
    did not observe, and how many it observed.  Each lane sums its policy's
    last window_len rows, kept incrementally on push and eviction; a row is
    dropped once no lane holds it, so memory follows the rows pushed, never
    window_len.  A window is made for one class index; users make a new one
    when the map, and therefore the class numbering, changes.
    """

    def __init__(self, policies: Sequence[SelectionPolicy], n_classes: int):
        lens = [p.window_len for p in policies]
        self.sums = np.zeros((len(lens), n_classes, 2), dtype=np.int64)
        self.rows: deque[np.ndarray] = deque()
        self._longest = max(lens)
        # The lanes each window length evicts from, and the lanes ranked by weight.
        self._evictions = [(w, _lanes([n == w for n in lens])) for w in sorted(set(lens))]
        self._by_weight = _lanes([p.ranking is RankingKind.SESSION_WEIGHT for p in policies])

    def __len__(self) -> int:
        return len(self.rows)

    def push_record(self, row: np.ndarray) -> None:
        """Append one iteration's (lane, class, [unobserved, observed]) counts.

        The window keeps row itself, so the caller must not change it.
        """
        if row.shape != self.sums.shape:
            raise ValueError("a row holds every lane and every class of the window")
        self.rows.append(row)
        self.sums += row
        n = len(self.rows)
        for w, lanes in self._evictions:
            if n > w:
                self.sums[lanes] -= self.rows[-1 - w][lanes]
        if n > self._longest:
            self.rows.popleft()

    def class_ratio(self, class_ids: np.ndarray | int | slice = slice(None)) -> np.ndarray:
        """Each lane's observed/selected ratio of the classes in class_ids; 0 when never selected."""
        observed = self.sums[:, class_ids, 1]
        return class_ratio_scores(self.sums[:, class_ids, 0] + observed, observed)

    def scores(self, index: EquivalenceClassIndex) -> np.ndarray:
        """(lane, class) rank scores of the classes of index.

        A lane scores a class by its class_ratio, or, when its policy ranks
        by session_weight, by the best weight among the sessions that define
        the class.  The unranked and random policies read no score.
        """
        scores = self.class_ratio()
        lanes = self._by_weight
        if lanes is not None:
            sums = self.sums[lanes]
            observed = sums[..., 1]
            scores[lanes] = session_weight_scores(index, sums[..., 0] + observed, observed)
        return scores


def update_window(
    window: RollingSelectionStats,
    class_ids: np.ndarray,
    observed_mask: np.ndarray,
    index: EquivalenceClassIndex,
) -> None:
    """Push one iteration to a one-lane window: the class ids of its distinct
    selected landmarks and an observed mask.

    Class ids must come from the given index, which sizes the row.
    """
    n = len(index)
    row = np.bincount(2 * class_ids + observed_mask, minlength=2 * n)
    window.push_record(row.reshape(1, n, 2))


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
