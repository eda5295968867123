"""The fleet's bulk traffic: uploads read straight into columns, and
landmarks replies joined from the texts the server keeps per map version."""

import json
import random
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import atlas.server
from atlas.client import sortie_json
from atlas.experiment import build_dataset, build_world
from atlas.locsim import process_sortie
from atlas.mapcore import MultiSessionMap
from atlas.mapio import dumps_map, loads_map
from atlas.protocol import EncodedBody, Message, MessageKind, decode_body, encode_body, encode_frame
from atlas.server import MapBackend, _Published, read_upload
from atlas.worldgen import (
    SortieDataset,
    generate_sortie,
    generate_world,
    get_scenario,
    sortie_from_doc,
    sortie_from_json,
)

from helpers import tiny_scenario


def vehicle_upload(ds: SortieDataset, cid: int = 3, token: int | None = 1) -> bytes:
    """The upload frame body the vehicle writes (client.upload_sortie)."""
    body = EncodedBody(f'{{"sortie":{sortie_json(ds)}}}')
    return encode_body(Message(MessageKind.UPLOAD_SORTIE, cid=cid, token=token, body=body))


def assert_same_dataset(got: SortieDataset, want: SortieDataset) -> None:
    """Equal field by field: scalars in value and type, arrays in dtype, shape and bytes."""
    for name in ("label", "condition", "sensor_range", "observation_seed", "error_seed"):
        a, b = getattr(got, name), getattr(want, name)
        assert (type(a), a) == (type(b), b), name
    arrays = [("poses", got.poses, want.poses)] + [
        (name, getattr(got.proposals, name), getattr(want.proposals, name))
        for name in ("positions", "observations", "kernels")
    ]
    for name, a, b in arrays:
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name


def reference_message(raw: bytes) -> Message:
    """What decode_body and sortie_from_doc make of a frame body."""
    msg = decode_body(raw)
    return Message(msg.kind, msg.cid, msg.token, {"sortie": sortie_from_doc(msg.body["sortie"])})


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("name", ["city_dusk", "parking_year"])
def test_vehicle_uploads_take_the_reader_and_read_as_json_does(name, seed):
    # Also the guard of the fast path: a change to sortie_json that moved
    # the vehicle's frames off the reader's layout fails here.
    sc = get_scenario(name)
    world = build_world(sc, seed)
    for i in range(len(sc.schedule)):
        raw = vehicle_upload(build_dataset(world, i, seed), cid=i, token=7)
        got = read_upload(raw)
        assert got is not None, f"sortie {i} fell back to decode_body"
        want = reference_message(raw)
        assert (got.kind, got.cid, got.token) == (want.kind, want.cid, want.token)
        assert_same_dataset(got.body["sortie"], want.body["sortie"])


# -- frames off the vehicle's layout: the reader defers or agrees --


def _tiny_frames() -> list[bytes]:
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    return [vehicle_upload(generate_sortie(world, c, seed=s, label=label))
            for c, s, label in ((0.10, 101, "first"), (0.6, 102, "x"), (0.11, 103, ""))]


BASE_FRAMES = _tiny_frames()


def _replace_nth(raw: bytes, old: bytes, new, n: int) -> bytes:
    """raw with the n-th match (modulo their count) of the pattern old
    replaced by new, bytes or a function of the match."""
    matches = list(re.finditer(old, raw))
    if not matches:
        return raw
    match = matches[n % len(matches)]
    return raw[:match.start()] + (new(match) if callable(new) else new) + raw[match.end():]


def _named_twice(match: re.Match) -> bytes:
    """The first pose of a proposal's observations named once more, with another count."""
    return b'"observations":{"%b":2,"%b":' % (match[1], match[1])


def _relabel(raw: bytes, draw) -> bytes:
    text = draw(st.sampled_from([
        json.dumps(draw(st.text(max_size=6)), ensure_ascii=draw(st.booleans())).encode(),
        b'"a\\"b"', b'"\\u00e9"', '"é"'.encode(), b'"\xff"', b'"\xed\xa0\x80"', b'"a\x01"',
    ]))
    return _replace_nth(raw, rb'"label":"(?:[^"\\]|\\.)*"', b'"label":' + text, 0)


def _reorder(raw: bytes, draw) -> bytes:
    try:
        doc = json.loads(raw)
        sortie = doc["body"]["sortie"]
        sortie["proposals"][0]["kernel"]
    except (ValueError, KeyError, TypeError, IndexError):  # an earlier perturbation broke it
        return raw
    target = draw(st.sampled_from(["envelope", "sortie", "proposal", "kernel", "observations"]))
    if target == "envelope":
        obj = doc
    elif target == "sortie":
        obj = sortie
    else:
        proposal = sortie["proposals"][draw(st.integers(0, len(sortie["proposals"]) - 1))]
        obj = proposal if target == "proposal" else proposal[target]
    items = list(obj.items())
    random.Random(draw(st.integers(0, 2**16))).shuffle(items)
    obj.clear()
    obj.update(items)
    return json.dumps(doc, separators=(",", ":")).encode()


def _space(raw: bytes, draw) -> bytes:
    at = draw(st.integers(0, len(raw)))
    return raw[:at] + draw(st.sampled_from([b" ", b"\n", b"\t"])) + raw[at:]


def _token(old: bytes, values: list[bytes]):
    """A perturbation that replaces one match of the pattern old by one of values."""
    def change(raw: bytes, draw) -> bytes:
        return _replace_nth(raw, old, draw(st.sampled_from(values)), draw(st.integers(0, 50)))
    return change


FLOAT = rb"-?[0-9]+\.[0-9]+(?:e[-+]?[0-9]+)?"


PERTURBATIONS = {
    "space": _space,
    "reorder": _reorder,
    "label": _relabel,
    "truncate": lambda raw, draw: raw[:draw(st.integers(0, len(raw) - 1))],
    "duplicate_pose": _token(rb'"observations":\{"([0-9]+)":', [_named_twice]),
    "leading_zero_pose": _token(rb'":1,"', [b'":1,"0', b'":1,"00']),
    "count": _token(rb'":1,"', [b'":0,"', b'":01,"', b'":-1,"', b'":2,"', b'":1.0,"', b'":1e0,"',
                                b'":1234567890123456789,"', b'":123456789012345678,"']),
    "pose_key": _token(rb',"1":', [b',"99999":', b',"1234567890123456789":', b',"-1":', b',"":', b',"1 ":']),
    "no_observations": _token(rb'"observations":\{', [b'"observations":{},"x":{']),
    "number": _token(FLOAT, [b"NaN", b"Infinity", b"-Infinity", b"1e400", b"-1e400", b"2e-400", b"1", b"-0",
                             b"1E5", b"1.50", b"01.5", b"1.", b".5", b"+1", b"1e", b"--1", b"1e5e5", b"0.5"]),
    "seed": _token(rb'_seed":', [b'_seed":-', b'_seed":0', b'_seed":1' + b"0" * 30, b'_seed":1' + b"0" * 5000,
                                 b'_seed":1.5,"x":', b'_seed":true,"x":']),
    "envelope": _token(rb',"cid":3,', [b',"cid":0,', b',"cid":03,', b',"cid":-3,', b',"cid":' + b"9" * 19 + b",",
                                       b',"cid":3.0,', b',"cid":true,']),
    "token": _token(rb'"token":1\}', [b'"token":null}', b'"token":99}', b'"token":-1}', b'"token":01}',
                                      b'"token":"1"}']),
    "kind": _token(rb'"kind":"upload_sortie"', [b'"kind":"query"', b'"kind":"upload_sortiex"']),
    "no_proposals": _token(rb'"proposals":\[.*\],"sensor_range"', [b'"proposals":[],"sensor_range"']),
    "poses": _token(rb'"poses":\[\[', [b'"poses":[[]],"x":[[', b'"poses":[[0,0],[', b'"poses":[[1,2,3],[',
                                        b'"poses":[[1,2,3,4],[']),
}


def _reply_pair(raw: bytes) -> tuple[bytes, bytes, MapBackend, MapBackend]:
    """The reply to raw of a fresh backend with one session open, read as
    served and read with the reader switched off."""
    sc = tiny_scenario()
    replies, backends = [], []
    for reader in (atlas.server.sortie_from_json, lambda text: None):
        backend = MapBackend(MultiSessionMap(), threshold_m=sc.threshold_m)
        backend.handle_frame(encode_body(Message(MessageKind.OPEN_SESSION, cid=1, body={})))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(atlas.server, "sortie_from_json", reader)
            replies.append(backend.handle_frame(raw))
        backends.append(backend)
    return replies[0], replies[1], backends[0], backends[1]


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_perturbed_uploads_are_deferred_or_read_as_json_reads_them(data):
    raw = data.draw(st.sampled_from(BASE_FRAMES))
    for _ in range(data.draw(st.integers(1, 2))):
        name = data.draw(st.sampled_from(sorted(PERTURBATIONS)))
        raw = PERTURBATIONS[name](raw, data.draw)
    got = read_upload(raw)
    event("read by the reader" if got is not None else "deferred to decode_body")
    if got is not None:
        want = reference_message(raw)
        assert (got.kind, got.cid, got.token) == (want.kind, want.cid, want.token)
        assert_same_dataset(got.body["sortie"], want.body["sortie"])
    served, reference, a, b = _reply_pair(raw)
    assert served == reference
    assert a.ledger == b.ledger
    assert dumps_map(a.snapshot) == dumps_map(b.snapshot)


@pytest.mark.parametrize("old, new, taken", [
    (rb'":1,"', b'":1,"0', False),  # a pose key with a leading zero
    (rb'"observations":\{"([0-9]+)":', _named_twice, False),  # a pose named twice
    (rb'"label":"', b'"label":"\\u00e9', False),  # an escape
    (rb'"label":"', b'"label": "', False),  # spacing
    (FLOAT, b"NaN", False),
    (FLOAT, b"1e400", False),  # read as inf, which sortie_from_doc refuses
    (rb'":1,"', b'":1234567890123456789,"', False),  # a count of 19 digits
    (rb'"token":1\}', b'"token":null}', True),
    (rb'":1,"', b'":2,"', True),
    (FLOAT, b"-0", True),
    (FLOAT, b"1E5", True),
    (rb'"label":"', '"label":"é'.encode(), True),  # raw UTF-8
])
def test_perturbations_reach_both_paths(old, new, taken):
    # The perturbations test both paths only if some frames still take the
    # reader and some leave it; every canonical frame takes it.
    assert all(read_upload(raw) is not None for raw in BASE_FRAMES)
    raw = _replace_nth(BASE_FRAMES[0], old, new, 3)
    assert raw != BASE_FRAMES[0]
    assert (read_upload(raw) is not None) == taken
    if taken:
        assert_same_dataset(read_upload(raw).body["sortie"], reference_message(raw).body["sortie"])


def test_sortie_reader_takes_only_whole_texts():
    raw = BASE_FRAMES[0]
    text = raw[raw.index(b'{"condition"'):raw.rindex(b'},"cid"')]
    assert sortie_from_json(text) is not None
    assert sortie_from_json(memoryview(text)) is not None
    for cut in (1, 2, 100, len(text) // 2):
        assert sortie_from_json(text[:-cut]) is None
    assert sortie_from_json(text + b" ") is None
    assert sortie_from_json(b"{}") is None


# -- the per-version reply table --


def assert_fresh_table(backend: MapBackend) -> None:
    """The published texts equal a full encode of the published map."""
    pub = backend._published
    fresh = _Published.of(pub.map, pub.kernels)
    for name in ("id_texts", "positions", "class_texts"):
        assert getattr(pub, name).tolist() == getattr(fresh, name).tolist(), name
    m = pub.map
    assert pub.id_texts.tolist() == [str(i) for i in m.landmark_ids.tolist()]
    assert pub.positions.tolist() == [json.dumps(p, separators=(",", ":")) for p in m.landmark_positions.tolist()]


def test_published_texts_equal_a_full_encode_after_every_capped_upload():
    sc = get_scenario("city_dusk")
    world = build_world(sc, 42)
    backend = MapBackend(MultiSessionMap(landmark_cap=sc.landmark_cap), threshold_m=sc.threshold_m)
    assert_fresh_table(backend)
    backend.handle_frame(encode_body(Message(MessageKind.OPEN_SESSION, cid=1, body={})))
    summarized = 0
    for i in range(len(sc.schedule)):
        ack = decode_body(backend.handle_frame(vehicle_upload(build_dataset(world, i, 42)))[4:])
        assert ack.kind is MessageKind.UPDATE_ACK, ack.body
        summarized += ack.body["summarized"]
        assert_fresh_table(backend)
    assert summarized == 1


def test_published_texts_of_a_loaded_map_and_its_next_uploads():
    sc = get_scenario("parking_year")
    world = build_world(sc, 7)
    m, kernels = MultiSessionMap(landmark_cap=sc.landmark_cap), {}
    for i in range(3):
        m, kernels, _ = process_sortie(m, build_dataset(world, i, 7), kernels, threshold_m=sc.threshold_m)
    backend = MapBackend(loads_map(dumps_map(m)), kernels, threshold_m=sc.threshold_m)
    assert_fresh_table(backend)
    backend.handle_frame(encode_body(Message(MessageKind.OPEN_SESSION, cid=1, body={})))
    for i in range(3, 6):
        ack = decode_body(backend.handle_frame(vehicle_upload(build_dataset(world, i, 7)))[4:])
        assert ack.kind is MessageKind.UPDATE_ACK, ack.body
        assert_fresh_table(backend)


def test_landmarks_replies_equal_the_canonical_encoder():
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    m, _, _ = process_sortie(MultiSessionMap(), generate_sortie(world, 0.10, seed=101), {},
                             threshold_m=sc.threshold_m)
    backend = MapBackend(m)
    token = decode_body(backend.handle_frame(
        encode_body(Message(MessageKind.OPEN_SESSION, cid=1, body={"policy": "all@1"}))
    )[4:]).token
    for k, pose in enumerate(generate_sortie(world, 0.11, seed=102).poses[::7]):
        query = Message(MessageKind.QUERY, cid=k, token=token, body={"pose": pose.tolist()})
        frame = backend.handle_frame(encode_body(query))
        reply = decode_body(frame[4:])
        assert reply.kind is MessageKind.LANDMARKS
        assert frame == encode_frame(reply)
        rows = np.searchsorted(m.landmark_ids, reply.body["landmark_ids"])
        assert reply.body["class_ids"] == m.index.class_ids[rows].tolist()
        assert reply.body["positions"] == m.landmark_positions[rows].tolist()
        report = Message(MessageKind.REPORT, cid=k, token=token, body={"observed": []})
        assert decode_body(backend.handle_frame(encode_body(report))[4:]).kind is MessageKind.UPDATE_ACK
