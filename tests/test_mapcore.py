"""Multi-session map: structural invariants, oracles, and atomicity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlas.mapcore import MapValidationError, MultiSessionMap, SessionKind, UNBOUNDED_CAP

from helpers import LINE_POSES, two_session_map


def brute_force_classes(m: MultiSessionMap) -> dict[tuple[int, ...], set[int]]:
    """Independent recomputation of the appearance partition."""
    groups: dict[tuple[int, ...], set[int]] = {}
    for lm in m.landmarks.values():
        groups.setdefault(tuple(sorted(set(lm.sessions))), set()).add(lm.id)
    return groups


def class_members(m: MultiSessionMap) -> dict[int, set[int]]:
    """Landmark ids of each class id, read one landmark at a time."""
    members: dict[int, set[int]] = {}
    for lid in m.landmarks:
        members.setdefault(m.index.classes_of([lid])[0], set()).add(lid)
    return members


def test_two_session_map_structure():
    m = two_session_map()
    assert [s.kind for s in m.sessions] == [SessionKind.RICH, SessionKind.RICH]
    assert sorted(m.landmarks) == [1, 2, 3, 4, 5]
    assert len(m.vertices) == 10
    assert m.landmarks[3].sessions == [1, 2]
    # re-observation lands on the second session's vertices (ids 8 and 9)
    assert m.landmarks[3].obs_counts == {3: 1, 4: 2, 8: 1, 9: 1}
    assert m.landmarks_created_by(1) == [1, 2, 3]
    assert m.landmarks_created_by(2) == [4, 5]
    m.validate()


def test_index_matches_brute_force_and_is_deterministic():
    m = two_session_map()
    index = m.index
    groups = brute_force_classes(m)
    assert len(index) == len(groups)
    for key, members in groups.items():
        cid = index.keys.index(key)
        assert class_members(m)[cid] == members
        assert index.keys[cid] == key
        for lid in members:
            assert index.classes_of([lid])[0] == cid
    # class ids follow the sorted key order
    assert index.keys == sorted(index.keys)


def test_index_rebuilds_after_mutation():
    m = two_session_map()
    before = m.index
    m.add_observation_session([[1, 1, 1], [4, 6, 2]], label="obs")
    after = m.index
    assert after is not before
    assert brute_force_classes(m) == {
        after.keys[cid]: members for cid, members in class_members(m).items()
    }
    assert m.landmarks[1].sessions == [1, 3]
    with pytest.raises(KeyError):
        after.classes_of([999])[0]


def test_candidate_set_matches_linear_scan():
    m = two_session_map()
    for pose, radius in [((0.0, 0.0), 1.5), ((2.0, 0.5), 2.0), ((10.0, 0.0), 0.5), ((2.0, 1.0), 0.0)]:
        got = m.candidate_set(pose, radius).tolist()
        want = sorted(
            lm.id
            for lm in m.landmarks.values()
            if math.dist([*pose, 0.0], lm.position.tolist()) <= radius
        )
        assert got == want


def test_candidate_set_rejects_bad_radius():
    m = two_session_map()
    with pytest.raises(ValueError):
        m.candidate_set((0, 0), -1.0)
    with pytest.raises(ValueError):
        m.candidate_set((0, 0), float("inf"))


def test_nearest_vertices_prefer_lowest_id_on_ties():
    m = MultiSessionMap()
    m.add_rich_session(
        [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]], [[0, 0, 1], [0, 1, 1]]
    )
    # equidistant from both, lowest id wins; then nearer to each in turn
    assert m.nearest_vertices([(1.0, 0.0), (1.9, 0.5), (-3.0, 0.0)]).tolist() == [1, 2, 1]
    with pytest.raises(MapValidationError):
        MultiSessionMap().nearest_vertices([(0.0, 0.0)])


def test_rich_session_validation_and_atomicity():
    m = two_session_map()
    stamp = (m.version, len(m.landmarks), len(m.vertices), len(m.sessions))

    def unchanged():
        assert (m.version, len(m.landmarks), len(m.vertices), len(m.sessions)) == stamp

    with pytest.raises(MapValidationError):
        m.add_rich_session([], [np.zeros(3)], [[0, 0, 1], [0, 1, 1]])
    unchanged()
    with pytest.raises(MapValidationError):  # single observing pose
        m.add_rich_session(LINE_POSES, [np.zeros(3)], [[0, 0, 2]])
    unchanged()
    with pytest.raises(MapValidationError):  # pose index out of range
        m.add_rich_session(LINE_POSES, [np.zeros(3)], [[0, 0, 1], [0, 9, 1]])
    unchanged()
    with pytest.raises(MapValidationError):  # nonpositive count
        m.add_rich_session(LINE_POSES, [np.zeros(3)], [[0, 0, 1], [0, 1, 0]])
    unchanged()
    with pytest.raises(MapValidationError):  # unknown re-observed landmark
        m.add_rich_session(LINE_POSES, [], [], seen=[[99, 0, 1]])
    unchanged()
    with pytest.raises(MapValidationError):  # non-finite pose
        m.add_rich_session([[0.0, float("nan"), 0.0]], [], [])
    unchanged()
    with pytest.raises(MapValidationError):  # observation of no new landmark
        m.add_rich_session(LINE_POSES, [np.zeros(3)], [[0, 0, 1], [0, 1, 1], [1, 2, 1]])
    unchanged()
    with pytest.raises(MapValidationError):  # one (new landmark, pose) pair twice
        m.add_rich_session(LINE_POSES, [np.zeros(3)], [[0, 0, 1], [0, 1, 1], [0, 1, 1]])
    unchanged()
    with pytest.raises(MapValidationError):  # one (seen landmark, pose) pair twice
        m.add_rich_session(LINE_POSES, [], [], seen=[[3, 0, 1], [3, 0, 2]])
    unchanged()
    with pytest.raises(MapValidationError):  # not rows of three
        m.add_rich_session(LINE_POSES, [np.zeros(3)], [[0, 0], [0, 1]])
    unchanged()


def test_observation_session_validation_and_atomicity():
    m = two_session_map()
    stamp = (m.version, {lid: list(lm.sessions) for lid, lm in m.landmarks.items()})
    with pytest.raises(MapValidationError):  # unknown landmark rejects everything
        m.add_observation_session([[1, 1, 1], [99, 1, 1]])
    with pytest.raises(MapValidationError):  # unknown vertex
        m.add_observation_session([[1, 999, 1]])
    with pytest.raises(MapValidationError):  # a row without a count
        m.add_observation_session([[1, 1]])
    with pytest.raises(MapValidationError):  # nonpositive count
        m.add_observation_session([[1, 1, -2]])
    with pytest.raises(MapValidationError):  # one (landmark, vertex) pair twice
        m.add_observation_session([[1, 1, 1], [2, 1, 1], [1, 1, 3]])
    assert stamp == (m.version, {lid: list(lm.sessions) for lid, lm in m.landmarks.items()})


def test_observation_session_adds_no_geometry():
    m = two_session_map()
    n_vertices, n_landmarks = len(m.vertices), len(m.landmarks)
    sid = m.add_observation_session([[2, 2, 3]], label="drive-by")
    assert (len(m.vertices), len(m.landmarks)) == (n_vertices, n_landmarks)
    assert m.sessions[-1].id == sid and m.sessions[-1].kind is SessionKind.OBSERVATION
    assert m.landmarks[2].sessions == [1, sid]
    assert m.landmarks[2].obs_counts[2] == 4  # 1 original + 3 new
    m.validate()


def test_sessions_strictly_increasing_per_landmark():
    m = two_session_map()
    sid = m.add_observation_session([[1, 1, 1]])
    m.add_observation_session([[1, 1, 1]])
    lm = m.landmarks[1]
    assert lm.sessions == sorted(set(lm.sessions))
    assert lm.sessions[0] == lm.origin_session
    assert sid in lm.sessions


def test_drop_landmarks_and_version():
    m = two_session_map()
    v = m.version
    with pytest.raises(MapValidationError):
        m.drop_landmarks([1, 999])
    assert m.version == v and 1 in m.landmarks
    m.drop_landmarks([1, 4])
    assert sorted(m.landmarks) == [2, 3, 5]
    assert m.version == v + 1
    m.validate()


def test_copy_is_deep_for_mutable_state():
    m = two_session_map()
    c = m.copy()
    c.add_observation_session([[1, 1, 1]])
    c.landmarks[2].obs_counts[1] = 99
    c.drop_landmarks([5])
    assert m.landmarks[1].sessions == [1]
    assert m.landmarks[2].obs_counts.get(1) != 99
    assert 5 in m.landmarks
    assert m.n_observation_sessions == 0


def test_copy_shares_read_only_columns():
    m = two_session_map()
    index = m.index
    c = m.copy()
    columns = [name for name, value in vars(m).items() if isinstance(value, np.ndarray)]
    assert len(columns) == 11
    for name in columns:
        assert np.shares_memory(getattr(m, name), getattr(c, name)), name
        with pytest.raises(ValueError):
            getattr(m, name)[...] = 0
    assert c.sessions == m.sessions and c.sessions is not m.sessions
    assert c.version == m.version and c.index is index
    c.add_observation_session([[1, 1, 1]])
    assert not np.shares_memory(m.pair_sessions, c.pair_sessions)
    assert np.shares_memory(m.landmark_positions, c.landmark_positions)
    assert c.index is not index and m.index is index


def test_landmark_id_column_is_replaced_exactly_when_landmarks_change():
    """Holding the same landmark_ids object means holding the same landmarks
    (what sortie draws are checked against)."""
    m = two_session_map()
    ids = m.landmark_ids
    assert m.copy().landmark_ids is ids
    assert m.without_observation_sessions().landmark_ids is ids
    m.add_observation_session([[1, 1, 1]])
    assert m.landmark_ids is ids
    m.drop_landmarks([5])
    assert m.landmark_ids is not ids
    ids = m.landmark_ids
    m.add_rich_session(LINE_POSES, [[0.0, 2.0, 0.0]], [[0, 0, 1], [0, 1, 1]])
    assert m.landmark_ids is not ids


def test_cap_is_validated_not_enforced_on_ingest():
    with pytest.raises(MapValidationError):
        MultiSessionMap(landmark_cap=0)
    m = MultiSessionMap(landmark_cap=1)
    m.add_rich_session(
        LINE_POSES, [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0]], [[0, 0, 1], [0, 1, 1], [1, 1, 1], [1, 2, 1]]
    )
    with pytest.raises(MapValidationError):
        m.validate()  # over cap: ingestion allows it, persistence must not
    assert MultiSessionMap().landmark_cap == UNBOUNDED_CAP


def test_heading_wraps_into_principal_range():
    m = MultiSessionMap()
    m.add_rich_session(
        [[0.0, 0.0, 3 * math.pi], [1.0, 0.0, -3 * math.pi]],
        [[0.0, 1.0, 0.0]],
        [[0, 0, 1], [0, 1, 1]],
    )
    headings = [v.pose[2] for v in m.vertices.values()]
    assert all(-math.pi <= h < math.pi for h in headings)


# -- Property tests over randomly grown maps --


@st.composite
def grown_maps(draw):
    """A map grown by a random sequence of valid rich/observation sessions."""
    m = MultiSessionMap()
    n_sessions = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    for s in range(n_sessions):
        make_rich = s == 0 or draw(st.booleans())
        if make_rich:
            n_poses = draw(st.integers(min_value=2, max_value=5))
            poses = rng.normal(size=(n_poses, 3))
            n_new = draw(st.integers(min_value=0, max_value=4))
            positions, new = [], []
            for row in range(n_new):
                k = draw(st.integers(min_value=2, max_value=n_poses))
                pose_ids = rng.choice(n_poses, size=k, replace=False)
                positions.append(rng.normal(size=3))
                new += [(row, int(p), int(rng.integers(1, 4))) for p in pose_ids]
            seen = []
            if m.landmarks and draw(st.booleans()):
                lid = int(rng.choice(sorted(m.landmarks)))
                seen.append((lid, int(rng.integers(0, n_poses)), 1))
            m.add_rich_session(poses, positions, new, seen=seen, label=f"s{s}")
        else:
            observed = []
            for lid in m.landmarks:
                if rng.random() < 0.5:
                    vid = int(rng.choice(sorted(m.vertices)))
                    observed.append((lid, vid, int(rng.integers(1, 3))))
            if not observed:
                continue
            m.add_observation_session(observed, label=f"s{s}")
    return m


@settings(max_examples=60, deadline=None)
@given(grown_maps())
def test_property_grown_maps_valid_and_partitioned(m):
    m.validate()
    index = m.index
    sessions = np.array(sorted({s for key in index.keys for s in key}), dtype=np.int64)
    assert index.incidence.shape == (len(index), len(sessions))
    # the classes partition the landmark set
    seen = set()
    for cid, members in class_members(m).items():
        assert not (set(members) & seen)
        seen.update(members)
        key = index.keys[cid]
        assert tuple(sessions[index.incidence[cid]].tolist()) == key
        for lid in members:
            assert tuple(sorted(m.landmarks[lid].sessions)) == key
    assert seen == set(m.landmarks)
    assert brute_force_classes(m).keys() == set(index.keys)


@settings(max_examples=30, deadline=None)
@given(grown_maps(), st.floats(min_value=0.0, max_value=5.0), st.floats(-3, 3), st.floats(-3, 3))
def test_property_candidate_set_oracle(m, radius, x, y):
    got = m.candidate_set((x, y), radius).tolist()
    want = sorted(
        lm.id
        for lm in m.landmarks.values()
        if math.dist([x, y, 0.0], lm.position.tolist()) <= radius
    )
    assert got == want


@settings(max_examples=30, deadline=None)
@given(grown_maps())
def test_property_copy_equals_original(m):
    c = m.copy()
    c.validate()
    assert sorted(c.landmarks) == sorted(m.landmarks)
    assert sorted(c.vertices) == sorted(m.vertices)
    assert [(s.id, s.kind, s.timestamp, s.label) for s in c.sessions] == [
        (s.id, s.kind, s.timestamp, s.label) for s in m.sessions
    ]
    for lid, lm in m.landmarks.items():
        assert c.landmarks[lid].sessions == lm.sessions
        assert c.landmarks[lid].obs_counts == lm.obs_counts
        assert np.array_equal(c.landmarks[lid].position, lm.position)
