"""Appearance-based landmark ranking and selection.

Scores are defined on appearance equivalence classes, never on individual
landmarks, so two landmarks with the same observing-session set always score
identically.  A rolling window over the last few localization iterations
tracks, per class, how often members were selected and how often they were
then actually observed; the class ratio observed/selected is the ranking
signal.  A per-session variant (the max over the landmark's sessions of the
session's observed/selected weight) is kept as a baseline, along with a
uniform random and an unranked reference policy.
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
        if self.max_selected < 1:
            raise ValueError("max_selected must be >= 1")
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


def selection_size(selection_ratio: float, n_candidates: int, max_selected: int) -> int:
    """min(ceil(ratio * n), max_selected), safe against float round-off."""
    if n_candidates <= 0:
        return 0
    k = math.ceil(selection_ratio * n_candidates - 1e-9)
    return max(1, min(k, max_selected, n_candidates))


@dataclass
class WindowRecord:
    """One localization iteration, with its tallies resolved at push time."""

    selected: tuple[int, ...]
    observed: tuple[int, ...]
    class_selected: dict[int, int]
    class_observed: dict[int, int]
    session_selected: dict[int, int]
    session_observed: dict[int, int]


class RollingSelectionStats:
    """Sliding window of selection/observation incidences.

    Aggregate tallies are maintained incrementally on push and eviction and
    always equal a full recount over the stored records (`recount`).  Class
    tallies are keyed by the equivalence-class ids of the index that was
    current when the record was pushed; users reset the stats when the map,
    and therefore the class numbering, changes.
    """

    def __init__(self, window_len: int = 10):
        if window_len < 1:
            raise ValueError("window_len must be >= 1")
        self.window_len = window_len
        self.records: deque[WindowRecord] = deque()
        self.class_tallies: dict[int, list[int]] = {}
        self.session_tallies: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.records)

    def clear(self) -> None:
        self.records.clear()
        self.class_tallies.clear()
        self.session_tallies.clear()

    def push_record(self, rec: WindowRecord) -> None:
        if not set(rec.observed) <= set(rec.selected):
            raise ValueError("observed landmarks must be a subset of selected landmarks")
        self.records.append(rec)
        self._apply(rec, +1)
        while len(self.records) > self.window_len:
            self._apply(self.records.popleft(), -1)

    def _apply(self, rec: WindowRecord, sign: int) -> None:
        for tallies, sel, obs in (
            (self.class_tallies, rec.class_selected, rec.class_observed),
            (self.session_tallies, rec.session_selected, rec.session_observed),
        ):
            for key, c in sel.items():
                t = tallies.setdefault(key, [0, 0])
                t[0] += sign * c
            for key, c in obs.items():
                tallies[key][1] += sign * c
            if sign < 0:
                for key in set(sel) | set(obs):
                    if tallies.get(key) == [0, 0]:
                        del tallies[key]

    def recount(self) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
        """Recompute both tally tables from scratch (the oracle for _apply)."""
        classes: dict[int, list[int]] = {}
        sessions: dict[int, list[int]] = {}
        for rec in self.records:
            for tallies, sel, obs in (
                (classes, rec.class_selected, rec.class_observed),
                (sessions, rec.session_selected, rec.session_observed),
            ):
                for key, c in sel.items():
                    tallies.setdefault(key, [0, 0])[0] += c
                for key, c in obs.items():
                    tallies.setdefault(key, [0, 0])[1] += c
        return classes, sessions

    def class_ratio(self, class_id: int) -> float:
        """Observed/selected ratio for one class; 0 when never selected."""
        t = self.class_tallies.get(class_id)
        if t is None or t[0] == 0:
            return 0.0
        return t[1] / t[0]

    def session_weight(self, session_id: int) -> float:
        """Observed/selected weight of one session; 0 when never selected."""
        t = self.session_tallies.get(session_id)
        if t is None or t[0] == 0:
            return 0.0
        return t[1] / t[0]


def _tallies(
    class_ids: np.ndarray, index: EquivalenceClassIndex
) -> tuple[dict[int, int], dict[int, int]]:
    """Per-class counts of class_ids, and per-session counts expanded from the class keys."""
    uniq, counts = np.unique(class_ids, return_counts=True)
    per_class = dict(zip(uniq.tolist(), counts.tolist()))
    per_session: dict[int, int] = {}
    for cid, c in per_class.items():
        for s in index.class_key(cid):
            per_session[s] = per_session.get(s, 0) + c
    return per_class, per_session


def update_window(
    stats: RollingSelectionStats,
    selected: np.ndarray,
    class_ids: np.ndarray,
    observed_mask: np.ndarray,
    index: EquivalenceClassIndex,
) -> RollingSelectionStats:
    """Push one iteration: distinct selected ids, their class ids, and a boolean observed mask.

    Class ids must come from the given index, whose class keys resolve the
    session tallies.
    """
    class_sel, sess_sel = _tallies(class_ids, index)
    class_obs, sess_obs = _tallies(class_ids[observed_mask], index)
    stats.push_record(
        WindowRecord(
            tuple(np.sort(selected).tolist()),
            tuple(np.sort(selected[observed_mask]).tolist()),
            class_sel,
            class_obs,
            sess_sel,
            sess_obs,
        )
    )
    return stats


def class_ratio_score(
    stats: RollingSelectionStats, index: EquivalenceClassIndex, landmark_id: int
) -> float:
    """Score of a landmark: its appearance class's observed/selected ratio."""
    return stats.class_ratio(index.class_of_landmark(landmark_id))


def class_scores(
    policy: SelectionPolicy,
    stats: RollingSelectionStats,
    index: EquivalenceClassIndex,
    class_ids: np.ndarray,
) -> np.ndarray:
    """Rank score for each entry of class_ids; each distinct class is scored once.

    class_ratio scores a class by its observed/selected ratio and
    session_weight by the best weight among the sessions that define it;
    the unranked and random policies score everything 0.
    """
    if policy.ranking is RankingKind.CLASS_RATIO:
        score = stats.class_ratio
    elif policy.ranking is RankingKind.SESSION_WEIGHT:
        def score(cid: int) -> float:
            return max((stats.session_weight(s) for s in index.class_key(cid)), default=0.0)
    else:
        return np.zeros(len(class_ids))
    uniq, inv = np.unique(class_ids, return_inverse=True)
    values = np.fromiter((score(int(c)) for c in uniq), dtype=np.float64, count=len(uniq))
    return values[inv]


def selection_order(
    policy: SelectionPolicy, ids: np.ndarray, scores: np.ndarray, salt: int = 0
) -> np.ndarray:
    """Indices into ids, best candidate first, before the budget is applied."""
    if policy.ranking is RankingKind.ALL:
        return np.argsort(ids, kind="stable")
    tiebreak = hash_stream(policy.seed, salt, ids)
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
    order = selection_order(policy, ids, scores, salt)
    return ids[order[:k]]
