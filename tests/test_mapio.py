"""Map persistence: canonical bytes, checksums, corruption detection."""

import json
import math

import numpy as np
import pytest

from atlas.mapcore import MapValidationError
from atlas.mapio import (
    ChecksumMismatchError,
    MapFormatError,
    UnsupportedVersionError,
    dumps_map,
    load_map,
    loads_map,
    map_from_document,
    save_map,
)

from helpers import assert_same_columns, two_session_map


def document(m) -> dict:
    return json.loads(dumps_map(m))


def maps_equal(a, b) -> bool:
    if sorted(a.landmarks) != sorted(b.landmarks) or sorted(a.vertices) != sorted(b.vertices):
        return False
    if [(s.id, s.kind, s.timestamp, s.label) for s in a.sessions] != [
        (s.id, s.kind, s.timestamp, s.label) for s in b.sessions
    ]:
        return False
    if a.landmark_cap != b.landmark_cap:
        return False
    for lid, lm in a.landmarks.items():
        other = b.landmarks[lid]
        if lm.sessions != other.sessions or lm.obs_counts != other.obs_counts:
            return False
        if not np.allclose(lm.position, other.position):
            return False
    return all(np.allclose(a.vertices[v].pose, b.vertices[v].pose) for v in a.vertices)


def test_round_trip_preserves_everything():
    m = two_session_map()
    m.add_observation_session([[1, 1, 2]], label="obs")
    again = loads_map(dumps_map(m))
    assert maps_equal(m, again)
    again.validate()


def test_dumps_is_deterministic_and_canonical():
    m = two_session_map()
    data = dumps_map(m)
    assert data == dumps_map(m)
    assert data == dumps_map(m.copy())
    assert b"\n" not in data  # single canonical line
    doc = json.loads(data)
    assert list(doc) == sorted(doc)
    # The checksum spliced in front of the body leaves the bytes canonical.
    assert data == json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def test_documents_load_whatever_the_order_of_ids():
    m = two_session_map()
    m.add_observation_session([[1, 1, 2], [4, 7, 1]], label="obs")
    doc = document(m)
    del doc["checksum"]  # the reversed lists are not what dumps_map writes
    doc["landmarks"].reverse()
    doc["vertices"].reverse()
    for lm in doc["landmarks"]:
        lm["obs_counts"] = dict(reversed(lm["obs_counts"].items()))
    again = map_from_document(doc)
    assert_same_columns(again, m)
    assert dumps_map(again) == dumps_map(m)


def test_save_and_load_file(tmp_path):
    m = two_session_map()
    path = tmp_path / "map.json"
    save_map(m, path)
    assert maps_equal(m, load_map(path))


def test_checksum_detects_content_corruption():
    m = two_session_map()
    doc = document(m)
    doc["landmarks"][0]["position"][0] += 1.0
    with pytest.raises(ChecksumMismatchError):
        map_from_document(doc)


def test_checksum_is_optional_but_format_is_not():
    doc = document(two_session_map())
    del doc["checksum"]
    map_from_document(doc).validate()  # absent checksum: trusted load
    doc["format_version"] = 99
    with pytest.raises(UnsupportedVersionError):
        map_from_document(doc)


@pytest.mark.parametrize(
    "data",
    [b"not json at all", b"[1, 2, 3]", b"{}", b'{"format_version": 1}'],
)
def test_malformed_documents_raise(data):
    with pytest.raises(MapFormatError):
        loads_map(data)


def test_corrupt_structure_never_returns_partial_map():
    doc = document(two_session_map())
    del doc["checksum"]
    doc["landmarks"][2]["sessions"] = [2, 1]  # violates strictly-increasing
    with pytest.raises(MapValidationError):  # well-formed JSON, invalid map
        map_from_document(doc)


def test_loaded_map_continues_id_sequences():
    m = two_session_map()
    again = loads_map(dumps_map(m))
    sid = again.add_observation_session([[1, 1, 1]])
    assert sid == 3  # session ids continue, not restart
    again.add_rich_session(
        [[9.0, 9.0, 0.0], [9.5, 9.0, 0.0]], [np.zeros(3)], [[0, 0, 1], [0, 1, 1]]
    )
    assert max(again.landmarks) == 6  # landmark ids continue
    assert max(again.vertices) == 12


def test_cap_round_trips():
    m = two_session_map()
    m.landmark_cap = 123
    assert loads_map(dumps_map(m)).landmark_cap == 123


@pytest.mark.parametrize("table", ["landmarks", "vertices"])
def test_ids_listed_twice_are_refused(table):
    doc = document(two_session_map())
    del doc["checksum"]
    twin = json.loads(json.dumps(doc[table][2]))
    twin["position" if table == "landmarks" else "pose"][0] += 5.0
    doc[table].append(twin)  # same id, other content: neither entry may win
    with pytest.raises(MapFormatError):
        map_from_document(doc)


def test_vertex_ids_spelled_twice_in_obs_counts_are_refused():
    doc = document(two_session_map())
    del doc["checksum"]
    doc["landmarks"][0]["obs_counts"] = {"1": 1, "01": 5, "2": 1}  # neither count may win
    with pytest.raises(MapFormatError):
        map_from_document(doc)


def test_landmark_without_sessions_is_refused():
    doc = document(two_session_map())
    del doc["checksum"]
    doc["landmarks"][0]["sessions"] = []  # not to be read as [origin_session]
    with pytest.raises(MapFormatError):
        map_from_document(doc)


@pytest.mark.parametrize(
    "change",
    [
        lambda d: d["landmarks"][0]["obs_counts"].update({"99": 1}),
        lambda d: d["landmarks"][0].update(obs_counts=[[1, 1]]),
        lambda d: d["landmarks"][0].update(id=2**70),
        lambda d: d["vertices"][0].update(pose=[0.0, 1.0]),
        lambda d: d["landmarks"][0]["position"].__setitem__(0, math.nan),  # json.loads reads NaN
    ],
    ids=["unknown_vertex", "obs_counts_not_an_object", "id_beyond_int64", "two_element_pose", "nan"],
)
def test_malformed_fields_are_refused(change):
    doc = document(two_session_map())
    del doc["checksum"]
    change(doc)
    with pytest.raises(MapValidationError):
        map_from_document(doc)


def test_non_finite_value_under_a_checksum_is_refused():
    m = two_session_map()
    first = repr(float(m.landmark_positions[0, 0])).encode()
    with pytest.raises(MapFormatError):  # the checksum cannot be recomputed over NaN
        loads_map(dumps_map(m).replace(first, b"NaN", 1))
