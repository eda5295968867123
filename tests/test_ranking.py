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
    parse_policy,
    parse_ranking,
    reference_policy,
    select_from_arrays,
    selection_size,
    session_weight_scores,
    update_window,
)
from atlas.mapcore import MultiSessionMap
from atlas.rng import hash_stream

from helpers import LINE_POSES, DequeWindow, session_totals, session_weight_oracle, two_session_map


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
        (0.07, 100, NO_BUDGET, 7),  # 0.07 * 100 is 7.000000000000001
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


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=1e-6, max_value=2.0),
    st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=2**62),
)
def test_scalar_selection_size_equals_the_array_path(ratio, counts, m):
    sizes = selection_size(ratio, np.array(counts), m)
    for n, size in zip(counts, sizes.tolist()):
        scalar = selection_size(ratio, n, m)
        assert type(scalar) is int and scalar == size
        assert selection_size(ratio, np.int64(n), m) == size


def test_policy_budget_must_fit_int64():
    assert SelectionPolicy(RankingKind.ALL, max_selected=2**63 - 1).max_selected == 2**63 - 1
    for bad in (0, 2**63, 10**30):
        with pytest.raises(ValueError):
            SelectionPolicy(RankingKind.ALL, max_selected=bad)


# -- rolling window --


RATIO = parse_policy("class_ratio")
WEIGHT = parse_policy("session_weight")


def push(window, m, selected, observed):
    """One iteration of plain id lists, counted by update_window, pushed to every lane."""
    ids = np.asarray(selected, dtype=np.int64)
    index = m.index
    one = RollingSelectionStats([RATIO], len(index))
    update_window(one, index.classes_of(ids), np.isin(ids, observed), index)
    window.push_record(np.repeat(one.rows[0], len(window.sums), axis=0))


def tallies(window, lane=0):
    """A lane's per-class (selected, observed) window sums."""
    observed = window.sums[lane, :, 1]
    return window.sums[lane, :, 0] + observed, observed


def session_tallies(window, index, lane=0):
    """A lane's per-session (selected, observed) counts, indexed by session id."""
    selected, observed = session_totals(index, *tallies(window, lane))
    return selected, observed


def test_ratio_arithmetic_by_hand():
    # classes: {1, 2} (session 1), {3} (sessions 1, 2), {4, 5} (session 2)
    m = two_session_map()
    index = m.index
    window = RollingSelectionStats([RATIO, WEIGHT], len(index))
    push(window, m, [1, 2, 3], [1, 3])
    push(window, m, [1, 2], [2])
    # class {1, 2}: selected 4 times (1,2,1,2), observed 2 times (1,2) -> 0.5
    assert window.class_ratio(index.classes_of([1])[0]).tolist() == [0.5, 0.5]
    # class {3}: selected once, observed once -> 1.0
    assert window.class_ratio(index.classes_of([3])[0]).tolist() == [1.0, 1.0]
    # session 1 backs every selected landmark: 5 selected, 3 observed
    selected, observed = session_tallies(window, index)
    assert (selected[1], observed[1]) == (5, 3)
    # session 2 backs only landmark 3 among them
    assert (selected[2], observed[2]) == (1, 1)
    # landmarks 1-2 have session 1 only; 3 takes its best session, 2; 4 has 2 as well
    scores = window.scores(index)[:, index.classes_of([1, 3, 4])]
    assert scores.tolist() == [[0.5, 1.0, 0.0], [3 / 5, 1.0, 1.0]]


def test_zero_when_never_selected():
    m = two_session_map()
    index = m.index
    window = RollingSelectionStats([RATIO, WEIGHT], len(index))
    assert window.scores(index).tolist() == [[0.0] * len(index)] * 2
    assert window.class_ratio(0).tolist() == [0.0, 0.0]
    push(window, m, [1], [])
    # selected, never observed; and never selected
    assert window.class_ratio(index.classes_of([1, 4])).tolist() == [[0.0, 0.0]] * 2
    assert window.scores(index)[1, index.classes_of([1, 4])].tolist() == [0.0, 0.0]


def test_window_eviction():
    m = two_session_map()
    cid = m.index.classes_of([1])[0]
    window = RollingSelectionStats([parse_policy("class_ratio", window_len=2)], len(m.index))
    push(window, m, [1], [1])
    push(window, m, [1], [])
    push(window, m, [1], [])
    assert len(window) == 2
    assert window.class_ratio(cid).tolist() == [0.0]  # the observing row fell out
    selected, observed = tallies(window)
    assert (selected[cid], observed[cid]) == (2, 0)


def test_observed_must_be_subset_of_selected():
    # The observed row is counted from the selection's own class ids, so an
    # observed count can never exceed the selected count of its class.
    m = two_session_map()
    window = RollingSelectionStats([RATIO], len(m.index))
    for observed in ([1, 2, 3, 4, 5], [3], [], [2, 4]):
        push(window, m, [1, 2, 3, 4, 5], observed)
        sel, obs = tallies(window)
        assert np.all(obs <= sel)
    assert obs.tolist() == [3, 2, 3] and sel.tolist() == [8, 4, 8]


def test_window_rejects_rows_of_another_index():
    m = two_session_map()
    window = RollingSelectionStats([RATIO], len(m.index))
    push(window, m, [1], [1])
    other = many_class_map(0)
    assert len(other.index) != len(m.index)
    with pytest.raises(ValueError):
        update_window(window, other.index.classes_of([1]), np.array([True]), other.index)
    assert len(window) == 1


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.integers(1, 13), min_size=1, max_size=5),
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 2**16)), min_size=1, max_size=40),
)
def test_window_tallies_match_recount_oracle(window_lens, steps):
    """Every lane of a window sums the same rows as its own deque window would."""
    n_classes = 4
    policies = [parse_policy("class_ratio", window_len=w) for w in window_lens]
    window = RollingSelectionStats(policies, n_classes)
    oracles = [DequeWindow(w, n_classes) for w in window_lens]
    for n_sel, seed in steps:
        local = np.random.default_rng(seed)
        keys = 2 * local.integers(0, n_classes, size=(len(policies), n_sel))
        keys += local.random(keys.shape) < 0.5
        keys += 2 * n_classes * np.arange(len(policies))[:, None]
        row = np.bincount(keys.ravel(), minlength=window.sums.size).reshape(window.sums.shape)
        window.push_record(row)
        for lane, oracle in enumerate(oracles):
            oracle.push_record(row[lane].sum(axis=1), row[lane, :, 1])
            selected, observed = oracle.recount()
            assert [a.tolist() for a in tallies(window, lane)] == [selected.tolist(), observed.tolist()]
            assert min(len(window), oracle.window_len) == len(oracle)
        assert len(window) <= max(window_lens)
    for shape in ((len(policies), n_classes + 1, 2), (len(policies) + 1, n_classes, 2)):
        with pytest.raises(ValueError):
            window.push_record(np.zeros(shape, dtype=np.int64))


def test_update_window_resolves_classes_and_sessions():
    m = two_session_map()
    index = m.index
    window = RollingSelectionStats([WEIGHT], len(index))
    push(window, m, [1, 2, 3], [3])
    cid_12 = index.classes_of([1])[0]
    cid_3 = index.classes_of([3])[0]
    selected, observed = tallies(window)
    assert (selected[cid_12], observed[cid_12]) == (2, 0)
    assert (selected[cid_3], observed[cid_3]) == (1, 1)
    # landmark 3 carries sessions {1, 2}; 1 and 2 carry {1}
    selected, observed = session_tallies(window, index)
    assert (selected[1], observed[1]) == (3, 1)
    assert (selected[2], observed[2]) == (1, 1)
    assert window.class_ratio(index.classes_of([1])[0]).tolist() == [0.0]
    assert window.class_ratio(index.classes_of([3])[0]).tolist() == [1.0]
    # best session weight wins for multi-session landmarks
    assert window.scores(index)[0, index.classes_of([3, 1])].tolist() == [1.0, 1 / 3]


def test_class_constancy_within_a_class():
    m = two_session_map()
    index = m.index
    window = RollingSelectionStats([RATIO, WEIGHT], len(index))
    push(window, m, [1, 2, 4, 5], [1, 4])
    scores = window.scores(index)
    for pair in ([1, 2], [4, 5]):
        cids = index.classes_of(pair)
        assert cids[0] == cids[1]
        assert window.class_ratio(cids[0]).tolist() == window.class_ratio(cids[1]).tolist()
        assert scores[:, cids[0]].tolist() == scores[:, cids[1]].tolist()


def test_class_scores_per_policy():
    m = two_session_map()
    index = m.index
    policies = [parse_policy(spec) for spec in ("class_ratio", "session_weight", "all", "random")]
    window = RollingSelectionStats(policies, len(index))
    push(window, m, [1, 2, 3, 4], [1, 3])
    cids = index.classes_of([1, 2, 3, 4, 5])
    ratio, weight = window.scores(index)[:2, cids]
    assert ratio.tolist() == window.class_ratio(cids)[0].tolist()
    assert ratio.tolist() == [0.5, 0.5, 1.0, 0.0, 0.0]
    # sessions: 1 backs landmarks 1-3 (2 of 3 observed), 2 backs 3-4 (1 of 2)
    assert weight.tolist() == [2 / 3, 2 / 3, 2 / 3, 0.5, 0.5]
    # the unranked and random policies read no score: their order ignores it
    ids = np.array([1, 2, 3, 4, 5])
    for p, scores in zip(policies[2:], window.scores(index)[2:, cids]):
        got = select_from_arrays(p, ids, scores, salt=4)
        assert got.tolist() == select_from_arrays(p, ids, np.zeros(5), salt=4).tolist()
    assert window.scores(index)[:, cids[:0]].shape == (4, 0)


def many_class_map(seed: int) -> MultiSessionMap:
    """One rich session of 12 landmarks, then observation sessions over random subsets."""
    rng = np.random.default_rng(seed)
    m = MultiSessionMap()
    m.add_rich_session(
        LINE_POSES,
        [[float(i), 1.0, 0.0] for i in range(12)],
        [(i, k, 1) for i in range(12) for k in (0, 1)],
    )
    for _ in range(4):
        seen = [lid for lid in m.landmarks if rng.random() < 0.5]
        m.add_observation_session([(lid, 1, 1) for lid in seen])
    return m


def per_landmark_recount(m, records):
    """The tallies of a window resolved one landmark at a time from the map itself."""
    index = m.index
    classes = np.zeros((2, len(index)), dtype=np.int64)
    sessions: dict[int, list[int]] = {}
    for selected, observed in records:
        for slot, ids in ((0, selected), (1, observed)):
            for lid in ids:
                classes[slot, index.classes_of([lid])[0]] += 1
                for s in m.landmarks[lid].sessions:
                    sessions.setdefault(s, [0, 0])[slot] += 1
    return classes, sessions


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**16), st.integers(1, 6), st.lists(st.integers(0, 2**16), min_size=1, max_size=12))
def test_update_window_matches_per_landmark_recount(map_seed, window_len, step_seeds):
    m = many_class_map(map_seed)
    index = m.index
    window = RollingSelectionStats([parse_policy("class_ratio", window_len=window_len)], len(index))
    pushed = []
    for seed in step_seeds:
        rng = np.random.default_rng(seed)
        ids = np.array(sorted(lid for lid in m.landmarks if rng.random() < 0.6), dtype=np.int64)
        observed = [int(i) for i in ids if rng.random() < 0.5]
        push(window, m, rng.permutation(ids), observed)
        pushed.append((ids.tolist(), observed))
        classes, sessions = per_landmark_recount(m, pushed[-window_len:])
        assert [a.tolist() for a in tallies(window)] == classes.tolist()
        selected, observed_s = session_tallies(window, index)
        derived = {
            s: [int(selected[s]), int(observed_s[s])] for s in range(len(selected)) if selected[s]
        }
        assert derived == {s: t for s, t in sessions.items() if t[0]}
        assert all(observed_s[s] == 0 for s in range(len(selected)) if not selected[s])


@pytest.mark.parametrize("seed", range(12))
def test_session_weight_scores_match_the_per_class_oracle(seed):
    """Random maps (some thinned until sessions and classes vanish) and random
    window sums over several lanes, with classes never selected."""
    rng = np.random.default_rng(seed)
    m = many_class_map(seed)
    m.drop_landmarks([lid for lid in m.landmarks if rng.random() < seed / 12])
    index = m.index
    lanes, n = int(rng.integers(1, 4)), len(index)
    selected = rng.integers(0, 7, (lanes, n)) * (rng.random((lanes, n)) < 0.7)
    observed = rng.integers(0, selected + 1)
    got = session_weight_scores(index, selected, observed)
    want = [session_weight_oracle(index, *lane) for lane in zip(selected, observed)]
    assert got.shape == (lanes, n)
    assert got.tolist() == np.array(want).reshape(lanes, n).tolist()
    assert session_weight_scores(index, selected[0], observed[0]).tolist() == want[0].tolist()


def test_session_weight_scores_of_an_empty_index():
    index = MultiSessionMap().index
    assert len(index) == 0 and session_weight_oracle(index, [], []).shape == (0,)
    none = np.zeros((3, 0), dtype=np.int64)
    assert session_weight_scores(index, none, none).shape == (3, 0)
    assert session_weight_scores(index, none[0], none[0]).shape == (0,)


def test_classes_of_agrees_with_class_of_landmark():
    m = many_class_map(3)
    index = m.index
    ids = sorted(m.landmarks)
    assert len(index) >= 3
    assert index.classes_of(ids).tolist() == [index.classes_of([i])[0] for i in ids]
    assert index.classes_of(np.array(ids[::-1])).tolist() == [
        index.classes_of([i])[0] for i in ids[::-1]
    ]
    assert index.classes_of([]).dtype == np.int64
    with pytest.raises(KeyError, match="landmark 999"):
        index.classes_of([ids[0], 999])
    with pytest.raises(KeyError):
        index.classes_of([999])[0]


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
