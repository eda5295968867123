"""Ranking and selection: window arithmetic oracles, deterministic ordering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlas.ranking import (
    NO_BUDGET,
    RankingKind,
    RollingSelectionStats,
    SelectionPolicy,
    class_scores,
    parse_policy,
    parse_ranking,
    reference_policy,
    select_from_arrays,
    selection_size,
    update_window,
)
from atlas.mapcore import MultiSessionMap, NewLandmark
from atlas.rng import hash_stream

from helpers import LINE_POSES, two_session_map


# -- selection_size --


def oracle_selection_size(ratio: float, n: int, m: int) -> int:
    if n <= 0:
        return 0
    exact = ratio * n
    k = math.ceil(exact) if not math.isclose(exact, round(exact), abs_tol=1e-9) else round(exact)
    return max(1, min(k, m, n))


@pytest.mark.parametrize(
    "ratio,n,m,want",
    [
        (1.0, 10, NO_BUDGET, 10),
        (0.2, 10, NO_BUDGET, 2),  # exact product must not round up to 3
        (0.3, 10, NO_BUDGET, 3),
        (0.25, 10, NO_BUDGET, 3),  # fractional product rounds up
        (0.2, 1, NO_BUDGET, 1),
        (0.01, 10, NO_BUDGET, 1),  # never below one
        (0.5, 10, 3, 3),  # budget caps
        (2.0, 10, NO_BUDGET, 10),  # never above n
        (0.2, 0, NO_BUDGET, 0),
    ],
)
def test_selection_size_cases(ratio, n, m, want):
    assert selection_size(ratio, n, m) == want


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=2.0),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=500),
)
def test_selection_size_matches_oracle(ratio, n, m):
    assert selection_size(ratio, n, m) == oracle_selection_size(ratio, n, m)


# -- rolling window --


def push(stats, m, selected, observed):
    """update_window for plain id lists, with classes resolved by the map's index."""
    ids = np.asarray(selected, dtype=np.int64)
    index = m.index
    return update_window(stats, index.classes_of(ids), np.isin(ids, observed), index)


def session_weights(stats, m, landmark_ids):
    index = m.index
    policy = parse_policy("session_weight")
    return class_scores(policy, stats, index, index.classes_of(landmark_ids))


def test_ratio_arithmetic_by_hand():
    # classes: {1, 2} (session 1), {3} (sessions 1, 2), {4, 5} (session 2)
    m = two_session_map()
    index = m.index
    stats = RollingSelectionStats(window_len=10)
    push(stats, m, [1, 2, 3], [1, 3])
    push(stats, m, [1, 2], [2])
    # class {1, 2}: selected 4 times (1,2,1,2), observed 2 times (1,2) -> 0.5
    assert stats.class_ratio(index.class_of_landmark(1)) == 0.5
    # class {3}: selected once, observed once -> 1.0
    assert stats.class_ratio(index.class_of_landmark(3)) == 1.0
    # session 1 backs every selected landmark: 5 selected, 3 observed
    selected, observed = stats.session_counts(index)
    assert (selected[1], observed[1]) == (5, 3)
    # session 2 backs only landmark 3 among them
    assert (selected[2], observed[2]) == (1, 1)
    # landmarks 1-2 have session 1 only; 3 takes its best session, 2; 4 has 2 as well
    assert session_weights(stats, m, [1, 3, 4]).tolist() == [3 / 5, 1.0, 1.0]


def test_zero_when_never_selected():
    m = two_session_map()
    index = m.index
    stats = RollingSelectionStats()
    every_class = np.arange(len(index))
    assert stats.class_ratio(every_class).tolist() == [0.0] * len(index)
    assert stats.class_ratio(0) == 0.0
    assert session_weights(stats, m, [1, 3, 4]).tolist() == [0.0] * 3
    push(stats, m, [1], [])
    assert stats.class_ratio(index.class_of_landmark(1)) == 0.0  # selected, never observed
    assert stats.class_ratio(index.class_of_landmark(4)) == 0.0  # never selected
    assert session_weights(stats, m, [1, 4]).tolist() == [0.0, 0.0]


def test_window_eviction():
    m = two_session_map()
    cid = m.index.class_of_landmark(1)
    stats = RollingSelectionStats(window_len=2)
    push(stats, m, [1], [1])
    push(stats, m, [1], [])
    push(stats, m, [1], [])
    assert len(stats) == 2
    assert stats.class_ratio(cid) == 0.0  # the observing row fell out
    assert (stats.selected[cid], stats.observed[cid]) == (2, 0)
    stats.clear()
    assert len(stats) == 0 and len(stats.selected) == 0 and len(stats.observed) == 0


def test_observed_must_be_subset_of_selected():
    # The observed row is counted from the selection's own class ids, so an
    # observed count can never exceed the selected count of its class.
    m = two_session_map()
    stats = RollingSelectionStats()
    for observed in ([1, 2, 3, 4, 5], [3], [], [2, 4]):
        push(stats, m, [1, 2, 3, 4, 5], observed)
        assert np.all(stats.observed <= stats.selected)
    assert stats.observed.tolist() == [3, 2, 3] and stats.selected.tolist() == [8, 4, 8]


def test_window_rejects_rows_of_another_index():
    m = two_session_map()
    stats = RollingSelectionStats()
    push(stats, m, [1], [1])
    other = many_class_map(0)
    assert len(other.index) != len(m.index)
    with pytest.raises(ValueError):
        push(stats, other, [1], [1])
    assert len(stats) == 1


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 5)), min_size=1, max_size=40),
       st.integers(min_value=1, max_value=8))
def test_window_tallies_match_recount_oracle(steps, window_len):
    n_classes = 4
    stats = RollingSelectionStats(window_len=window_len)
    for n_sel, seed in steps:
        local = np.random.default_rng(seed)
        class_ids = local.integers(0, n_classes, size=n_sel)
        observed = local.random(n_sel) < 0.5
        stats.push_record(
            np.bincount(class_ids, minlength=n_classes),
            np.bincount(class_ids[observed], minlength=n_classes),
        )
        selected_sum, observed_sum = stats.recount()
        assert stats.selected.tolist() == selected_sum.tolist()
        assert stats.observed.tolist() == observed_sum.tolist()
        assert len(stats) <= window_len


def test_update_window_resolves_classes_and_sessions():
    m = two_session_map()
    index = m.index
    stats = RollingSelectionStats()
    push(stats, m, [1, 2, 3], [3])
    cid_12 = index.class_of_landmark(1)
    cid_3 = index.class_of_landmark(3)
    assert (stats.selected[cid_12], stats.observed[cid_12]) == (2, 0)
    assert (stats.selected[cid_3], stats.observed[cid_3]) == (1, 1)
    # landmark 3 carries sessions {1, 2}; 1 and 2 carry {1}
    selected, observed = stats.session_counts(index)
    assert (selected[1], observed[1]) == (3, 1)
    assert (selected[2], observed[2]) == (1, 1)
    assert stats.class_ratio(index.class_of_landmark(1)) == 0.0
    assert stats.class_ratio(index.class_of_landmark(3)) == 1.0
    # best session weight wins for multi-session landmarks
    got = class_scores(parse_policy("session_weight"), stats, index, index.classes_of([3, 1]))
    assert got.tolist() == [1.0, 1 / 3]


def test_class_constancy_within_a_class():
    m = two_session_map()
    index = m.index
    stats = RollingSelectionStats()
    push(stats, m, [1, 2, 4, 5], [1, 4])
    assert stats.class_ratio(index.class_of_landmark(1)) == stats.class_ratio(
        index.class_of_landmark(2)
    )
    assert stats.class_ratio(index.class_of_landmark(4)) == stats.class_ratio(
        index.class_of_landmark(5)
    )


def test_class_scores_per_policy():
    m = two_session_map()
    index = m.index
    stats = RollingSelectionStats()
    push(stats, m, [1, 2, 3, 4], [1, 3])
    cids = index.classes_of([1, 2, 3, 4, 5])
    ratio = class_scores(parse_policy("class_ratio"), stats, index, cids)
    assert ratio.tolist() == [
        stats.class_ratio(index.class_of_landmark(i)) for i in (1, 2, 3, 4, 5)
    ]
    assert ratio.tolist() == [0.5, 0.5, 1.0, 0.0, 0.0]
    # sessions: 1 backs landmarks 1-3 (2 of 3 observed), 2 backs 3-4 (1 of 2)
    weight = class_scores(parse_policy("session_weight"), stats, index, cids)
    assert weight.tolist() == [2 / 3, 2 / 3, 2 / 3, 0.5, 0.5]
    for spec in ("all", "random"):
        assert class_scores(parse_policy(spec), stats, index, cids).tolist() == [0.0] * 5
    assert len(class_scores(parse_policy("class_ratio"), stats, index, cids[:0])) == 0
    assert len(class_scores(parse_policy("session_weight"), stats, index, cids[:0])) == 0


def many_class_map(seed: int) -> MultiSessionMap:
    """One rich session of 12 landmarks, then observation sessions over random subsets."""
    rng = np.random.default_rng(seed)
    m = MultiSessionMap()
    m.add_rich_session(
        LINE_POSES,
        [NewLandmark(np.array([float(i), 1.0, 0.0]), {0: 1, 1: 1}) for i in range(12)],
    )
    for _ in range(4):
        seen = [lid for lid in m.landmarks if rng.random() < 0.5]
        m.add_observation_session({lid: {1: 1} for lid in seen})
    return m


def per_landmark_recount(m, records):
    """The tallies of a window resolved one landmark at a time from the map itself."""
    index = m.index
    classes = np.zeros((2, len(index)), dtype=np.int64)
    sessions: dict[int, list[int]] = {}
    for selected, observed in records:
        for slot, ids in ((0, selected), (1, observed)):
            for lid in ids:
                classes[slot, index.class_of_landmark(lid)] += 1
                for s in m.landmarks[lid].sessions:
                    sessions.setdefault(s, [0, 0])[slot] += 1
    return classes, sessions


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 6), st.lists(st.integers(0, 2**16), min_size=1, max_size=12))
def test_update_window_matches_per_landmark_recount(map_seed, window_len, step_seeds):
    m = many_class_map(map_seed)
    index = m.index
    stats = RollingSelectionStats(window_len)
    pushed = []
    for seed in step_seeds:
        rng = np.random.default_rng(seed)
        ids = np.array(sorted(lid for lid in m.landmarks if rng.random() < 0.6), dtype=np.int64)
        observed = [int(i) for i in ids if rng.random() < 0.5]
        push(stats, m, rng.permutation(ids), observed)
        pushed.append((ids.tolist(), observed))
        classes, sessions = per_landmark_recount(m, pushed[-window_len:])
        assert stats.selected.tolist() == classes[0].tolist()
        assert stats.observed.tolist() == classes[1].tolist()
        selected, observed_s = stats.session_counts(index)
        derived = {
            s: [int(selected[s]), int(observed_s[s])] for s in range(len(selected)) if selected[s]
        }
        assert derived == {s: t for s, t in sessions.items() if t[0]}
        assert all(observed_s[s] == 0 for s in range(len(selected)) if not selected[s])
        assert [a.tolist() for a in stats.recount()] == classes.tolist()


def test_classes_of_agrees_with_class_of_landmark():
    m = many_class_map(3)
    index = m.index
    ids = sorted(m.landmarks)
    assert len(index) >= 3
    assert index.classes_of(ids).tolist() == [index.class_of_landmark(i) for i in ids]
    assert index.classes_of(np.array(ids[::-1])).tolist() == [
        index.class_of_landmark(i) for i in ids[::-1]
    ]
    assert index.classes_of([]).dtype == np.int64
    with pytest.raises(KeyError, match="landmark 999"):
        index.classes_of([ids[0], 999])
    with pytest.raises(KeyError):
        index.class_of_landmark(999)


# -- selection --


def test_select_all_policy_returns_lowest_ids():
    policy = SelectionPolicy(RankingKind.ALL, selection_ratio=1.0)
    got = select_from_arrays(policy, np.array([9, 2, 7, 1]), np.zeros(4))
    assert got.tolist() == [1, 2, 7, 9]


def test_select_budget_and_determinism():
    policy = SelectionPolicy(RankingKind.RANDOM, selection_ratio=0.5, seed=3)
    ids = np.arange(20)
    scores = np.zeros(20)
    a = select_from_arrays(policy, ids, scores, salt=11)
    b = select_from_arrays(policy, ids, scores, salt=11)
    assert np.array_equal(a, b)
    assert len(a) == 10
    c = select_from_arrays(policy, ids, scores, salt=12)
    assert not np.array_equal(a, c)  # a new draw reshuffles


def test_tie_break_matches_hash_stream_oracle():
    policy = SelectionPolicy(RankingKind.CLASS_RATIO, selection_ratio=1.0, seed=5)
    ids = np.array([4, 8, 15, 16, 23, 42], dtype=np.int64)
    scores = np.full(len(ids), 0.5)  # all tied
    got = select_from_arrays(policy, ids, scores, salt=9).tolist()
    tiebreak = hash_stream(5, 9, ids)
    want = [int(i) for _, _, i in sorted(zip(tiebreak, ids, ids))]
    assert got == want


def test_ranked_selection_prefers_high_scores():
    policy = SelectionPolicy(RankingKind.CLASS_RATIO, selection_ratio=0.5, seed=0)
    ids = np.array([1, 2, 3, 4])
    scores = np.array([0.1, 0.9, 0.5, 0.2])
    assert select_from_arrays(policy, ids, scores).tolist() == [2, 3]


def test_max_selected_budget():
    policy = SelectionPolicy(RankingKind.ALL, selection_ratio=1.0, max_selected=3)
    assert len(select_from_arrays(policy, np.arange(10), np.zeros(10))) == 3


def test_select_from_arrays_empty():
    policy = reference_policy()
    assert len(select_from_arrays(policy, np.empty(0, dtype=np.int64), np.empty(0))) == 0


# -- parsing --


def test_parse_ranking_aliases():
    assert parse_ranking("f_0") is RankingKind.ALL
    assert parse_ranking("f_rand") is RankingKind.RANDOM
    assert parse_ranking("f_rank") is RankingKind.CLASS_RATIO
    assert parse_ranking("f_orig") is RankingKind.SESSION_WEIGHT
    assert parse_ranking("class_ratio") is RankingKind.CLASS_RATIO
    with pytest.raises(ValueError):
        parse_ranking("nope")


def test_parse_policy_specs():
    p = parse_policy("class_ratio@0.2", seed=7, window_len=5)
    assert p.ranking is RankingKind.CLASS_RATIO
    assert p.selection_ratio == 0.2
    assert p.seed == 7 and p.window_len == 5
    assert p.name == "class_ratio@0.2"
    assert parse_policy("f_rand").selection_ratio == 1.0
    assert parse_policy("all@1").name == "all@1"
    with pytest.raises(ValueError):
        parse_policy("class_ratio@lots")


def test_reference_policy_shape():
    ref = reference_policy()
    assert ref.ranking is RankingKind.ALL
    assert ref.selection_ratio == 1.0
    assert ref.max_selected == NO_BUDGET


def test_policy_validation():
    with pytest.raises(ValueError):
        SelectionPolicy(RankingKind.ALL, selection_ratio=0.0)
    with pytest.raises(ValueError):
        SelectionPolicy(RankingKind.ALL, selection_ratio=-0.5)
    with pytest.raises(ValueError):
        SelectionPolicy(RankingKind.ALL, window_len=0)
