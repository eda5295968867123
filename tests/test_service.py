"""Map backend service: session semantics, accounting, transport parity."""

import hashlib
import io
import json
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

import atlas.locsim
import atlas.protocol
import atlas.server
from atlas.client import BackendError, VehicleClient, drive_sortie, sortie_json
from atlas.experiment import build_dataset, build_world, run_chronological
from atlas.locsim import localize_dataset, process_sortie
from atlas.mapcore import MultiSessionMap
from atlas.mapio import dumps_map
from atlas.protocol import (
    EncodedBody,
    MessageKind,
    Message,
    ProtocolError,
    decode_body,
    encode_body,
    encode_frame,
    read_frame,
)
from atlas.ranking import MAX_WINDOW_LEN, parse_policy, reference_policy
from atlas.server import MapBackend, MapServer
from atlas.worldgen import (
    Proposals,
    SortieDataset,
    generate_sortie,
    generate_world,
    get_scenario,
    sortie_from_doc,
    sortie_to_doc,
)

from helpers import (
    DequeWindow,
    by_pose,
    in_process_client,
    session_totals,
    tiny_scenario,
    two_session_map,
)


class Wire:
    """Drives a backend through its byte-level entry point, mirroring the
    accounting a faithful transport would see."""

    def __init__(self, backend: MapBackend):
        self.backend = backend
        self.cid = 0
        self.bytes_up = 0
        self.bytes_down = 0
        self.landmarks_seen = 0

    def send(self, kind, body=None, token=None, raw=None):
        if raw is None:
            self.cid += 1
            raw = encode_body(Message(kind, cid=self.cid, token=token, body=body or {}))
        reply_frame = self.backend.handle_frame(raw)
        self.bytes_up += 4 + len(raw)
        self.bytes_down += len(reply_frame)
        reply = decode_body(reply_frame[4:])
        if reply.kind is MessageKind.LANDMARKS:
            self.landmarks_seen += len(reply.body["landmark_ids"])
        return reply


def fresh_backend(policy_map=None) -> MapBackend:
    return MapBackend(policy_map if policy_map is not None else two_session_map())


def open_session(wire, **body):
    reply = wire.send(MessageKind.OPEN_SESSION, body)
    assert reply.kind is MessageKind.UPDATE_ACK
    return reply.token


def test_session_lifecycle():
    wire = Wire(fresh_backend())
    reply = wire.send(MessageKind.OPEN_SESSION, {"policy": "class_ratio@0.5", "seed": 3})
    assert reply.kind is MessageKind.UPDATE_ACK
    token = reply.token
    assert token is not None
    assert reply.body["policy"] == "class_ratio@0.5"
    assert reply.body["n_landmarks"] == 5

    got = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    assert got.kind is MessageKind.LANDMARKS
    ids = got.body["landmark_ids"]
    assert 1 <= len(ids) <= 5
    assert len(got.body["positions"]) == len(ids) == len(got.body["class_ids"])
    assert got.body["n_candidates"] == 5
    snap = wire.backend.snapshot
    for lid, pos in zip(ids, got.body["positions"]):
        assert pos == [float(x) for x in snap.landmarks[lid].position]

    ack = wire.send(MessageKind.REPORT, {"observed": ids[:1]}, token=token)
    assert ack.kind is MessageKind.UPDATE_ACK
    assert ack.body == {"n_recorded": 1, "window_fill": 1}

    closed = wire.send(MessageKind.CLOSE, token=token)
    assert closed.kind is MessageKind.UPDATE_ACK
    assert closed.body["token"] == token
    assert closed.body["ledger"]["queries"] == 1


def test_second_query_without_report_is_rejected():
    wire = Wire(fresh_backend())
    token = open_session(wire)
    first = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    assert first.kind is MessageKind.LANDMARKS
    second = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    assert second.kind is MessageKind.ERROR
    assert second.body["code"] == "bad_request"
    # reporting clears the way for the next query
    wire.send(MessageKind.REPORT, {"observed": []}, token=token)
    third = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    assert third.kind is MessageKind.LANDMARKS


def test_bad_report_keeps_selection_pending():
    wire = Wire(fresh_backend())
    token = open_session(wire)
    got = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    ids = got.body["landmark_ids"]
    bad = wire.send(MessageKind.REPORT, {"observed": ids[:1] + [999]}, token=token)
    assert bad.kind is MessageKind.ERROR and bad.body["code"] == "bad_report"
    # the window is untouched and the same selection can still be reported
    ok = wire.send(MessageKind.REPORT, {"observed": ids[:2]}, token=token)
    assert ok.kind is MessageKind.UPDATE_ACK
    assert ok.body["window_fill"] == 1
    # a second report has nothing pending to resolve
    dup = wire.send(MessageKind.REPORT, {"observed": []}, token=token)
    assert dup.kind is MessageKind.ERROR and dup.body["code"] == "bad_report"


def test_report_validation_and_deduplication():
    wire = Wire(fresh_backend())
    token = open_session(wire)
    wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    bad_type = wire.send(MessageKind.REPORT, {"observed": "everything"}, token=token)
    assert bad_type.body["code"] == "bad_request"
    bad_bool = wire.send(MessageKind.REPORT, {"observed": [True]}, token=token)
    assert bad_bool.body["code"] == "bad_request"
    got = wire.send(MessageKind.REPORT, {"observed": [1, 1]}, token=token)
    assert got.body["n_recorded"] == 1


def test_report_credits_duplicate_ids_once():
    backend = fresh_backend()
    wire = Wire(backend)
    token = open_session(wire, policy="class_ratio@1")
    got = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    assert sorted(got.body["landmark_ids"]) == [1, 2, 3, 4, 5]
    ack = wire.send(MessageKind.REPORT, {"observed": [3, 3, 3]}, token=token)
    assert ack.body["n_recorded"] == 1
    unobserved, observed = backend.sessions[token].window.sums[0].T
    selected = unobserved + observed
    index = backend.snapshot.index
    # landmark 3 is alone in its class and carries sessions {1, 2}
    cid = index.classes_of([3])[0]
    assert (selected[cid], observed[cid]) == (1, 1)
    by_session = session_totals(index, selected, observed)
    assert by_session.tolist() == [[0, 3, 3], [0, 1, 1]]


def test_unknown_or_missing_token_paths():
    wire = Wire(fresh_backend())
    for kind, body in [
        (MessageKind.QUERY, {"pose": [0.0, 0.0]}),
        (MessageKind.REPORT, {"observed": []}),
        (MessageKind.UPLOAD_SORTIE, {"sortie": {}}),
        (MessageKind.CLOSE, {}),
    ]:
        reply = wire.send(kind, body, token=777)
        assert reply.kind is MessageKind.ERROR
        assert reply.body["code"] == "no_session"
    nothing = wire.send(MessageKind.QUERY, {"pose": [0.0, 0.0]})
    assert nothing.body["code"] == "no_session"
    # a closed token behaves like an unknown one
    token = open_session(wire)
    wire.send(MessageKind.CLOSE, token=token)
    after = wire.send(MessageKind.QUERY, {"pose": [0.0, 0.0]}, token=token)
    assert after.body["code"] == "no_session"


def test_query_errors_still_count_traffic():
    backend = fresh_backend()
    wire = Wire(backend)
    token = open_session(wire)
    for pose in ("nope", [1.0], [0.0, True]):
        reply = wire.send(MessageKind.QUERY, {"pose": pose}, token=token)
        assert reply.kind is MessageKind.ERROR
        assert reply.body["code"] == "bad_request"
    # a non-canonical peer can smuggle an Infinity token past json.loads;
    # the finite check on the pose still rejects it
    raw = b'{"body":{"pose":[0.0,Infinity]},"cid":9,"kind":"query","token":%d}' % token
    inf_reply = wire.send(None, raw=raw)
    assert inf_reply.kind is MessageKind.ERROR
    assert inf_reply.body["code"] == "bad_request"
    no_token = wire.send(MessageKind.QUERY, {"pose": [0.0, 0.0]})
    assert no_token.body["code"] == "no_session"
    assert backend.ledger.queries == 5
    assert backend.sessions[token].ledger.queries == 4


def test_undecodable_frame_answers_bad_request():
    backend = fresh_backend()
    wire = Wire(backend)
    reply = wire.send(None, raw=b"this is not json")
    assert reply.kind is MessageKind.ERROR
    assert reply.cid == 0 and reply.token is None
    assert reply.body["code"] == "bad_request"
    assert backend.ledger.bytes_up == 4 + len(b"this is not json")


def test_reply_kinds_are_not_requests():
    wire = Wire(fresh_backend())
    reply = wire.send(MessageKind.LANDMARKS, {"landmark_ids": []})
    assert reply.kind is MessageKind.ERROR
    assert reply.body["code"] == "bad_request"


def test_open_session_validates_parameters():
    wire = Wire(fresh_backend())
    bad_policy = wire.send(MessageKind.OPEN_SESSION, {"policy": "sorcery@0.2"})
    assert bad_policy.kind is MessageKind.ERROR
    assert bad_policy.body["code"] == "bad_request"
    bad_range = wire.send(MessageKind.OPEN_SESSION, {"sensor_range": -3})
    assert bad_range.body["code"] == "bad_request"
    assert wire.backend.sessions == {}


def test_each_open_is_charged_to_the_session_it_creates():
    """A vehicle opens a second session without closing the first.  Each open
    is charged to the session its reply creates, whatever token the request
    names, and a refused open to the total only."""
    backend = fresh_backend()
    with MapServer(backend) as server, VehicleClient(*server.address, timeout=10) as client:
        first = client.open_session("class_ratio@0.5")
        second = client.open_session()
        ledgers = backend.ledger_doc()
        for token, cid, policy in ((first, 1, "class_ratio@0.5"), (second, 2, "all@1")):
            request = Message(MessageKind.OPEN_SESSION, cid=cid, token=None, body={"policy": policy})
            assert ledgers["sessions"][str(token)]["bytes_up"] == 4 + len(encode_body(request))
        for field in ("bytes_up", "bytes_down"):
            assert sum(s[field] for s in ledgers["sessions"].values()) == ledgers["total"][field]
        wire = Wire(backend)
        third = wire.send(MessageKind.OPEN_SESSION, {}, token=second).token
        opened = {"bytes_up": wire.bytes_up, "bytes_down": wire.bytes_down}
        refused = wire.send(MessageKind.OPEN_SESSION, {"policy": "sorcery@0.2"}, token=third)
        assert refused.body["code"] == "bad_request"
        after = backend.ledger_doc()
        assert after["sessions"][str(second)] == ledgers["sessions"][str(second)]
        assert {f: after["sessions"][str(third)][f] for f in opened} == opened
        assert after["total"]["bytes_up"] == ledgers["total"]["bytes_up"] + wire.bytes_up
        assert after["total"]["bytes_down"] == ledgers["total"]["bytes_down"] + wire.bytes_down


HUGE_INT = b"1" + b"0" * 400  # an integer literal beyond the float range

# Each frame once escaped handle_frame with an exception: the connection
# thread died, no reply went out and nothing was charged.  token is the
# session the frame is sent on, opened beforehand.
HOSTILE_FRAMES = {
    "deep_nesting": lambda token: b"[" * 100000,
    "integer_of_5000_digits": lambda token: b"1" * 5000,
    "error_with_a_list_code": lambda token: (
        b'{"body":{"code":[1]},"cid":1,"kind":"error","token":null}'),
    "pose_beyond_float_range": lambda token: (
        b'{"body":{"pose":[%s,0.0]},"cid":1,"kind":"query","token":%d}' % (HUGE_INT, token)),
    "sensor_range_beyond_float_range": lambda token: (
        b'{"body":{"sensor_range":%s},"cid":1,"kind":"open_session","token":null}' % HUGE_INT),
    "infinite_seed": lambda token: (
        b'{"body":{"seed":1e400},"cid":1,"kind":"open_session","token":null}'),
    "max_selected_beyond_int64": lambda token: (
        b'{"body":{"max_selected":%d},"cid":1,"kind":"open_session","token":null}' % 10**30),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_FRAMES))
def test_hostile_frame_gets_one_charged_bad_request(name):
    backend = fresh_backend()
    wire = Wire(backend)
    token = open_session(wire)
    wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    wire.send(MessageKind.REPORT, {"observed": []}, token=token)
    before = dict(backend.ledger.to_doc())
    raw = HOSTILE_FRAMES[name](token)
    reply = backend.handle_frame(raw)
    decoded = decode_body(reply[4:])
    assert decoded.kind is MessageKind.ERROR and decoded.body["code"] == "bad_request"
    assert backend.ledger.bytes_up == before["bytes_up"] + 4 + len(raw)
    assert backend.ledger.bytes_down == before["bytes_down"] + len(reply)
    assert len(backend.sessions) == 1  # no session was opened
    # the session still works
    ok = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    assert ok.kind is MessageKind.LANDMARKS


def test_ledger_matches_wire_bytes_exactly():
    backend = fresh_backend()
    wire = Wire(backend)
    token = open_session(wire, policy="class_ratio@0.4", seed=1)
    for pose in ([0.0, 1.0], [2.0, 1.0], [4.0, 1.0]):
        got = wire.send(MessageKind.QUERY, {"pose": pose}, token=token)
        wire.send(MessageKind.REPORT, {"observed": got.body["landmark_ids"][:1]}, token=token)
    wire.send(MessageKind.QUERY, {"pose": "bad"}, token=token)  # rejected, still counted
    wire.send(MessageKind.CLOSE, token=token)
    assert backend.ledger.bytes_up == wire.bytes_up
    assert backend.ledger.bytes_down == wire.bytes_down
    assert backend.ledger.landmarks_sent == wire.landmarks_seen
    assert backend.ledger.queries == 4
    doc = backend.ledger_doc()
    assert doc["total"] == backend.ledger.to_doc()
    assert set(doc["sessions"]) == {str(token)}


def test_close_ack_ledger_excludes_the_close_exchange():
    backend = fresh_backend()
    wire = Wire(backend)
    token = open_session(wire)
    got = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    wire.send(MessageKind.REPORT, {"observed": got.body["landmark_ids"]}, token=token)
    before_up, before_down = wire.bytes_up, wire.bytes_down
    closed = wire.send(MessageKind.CLOSE, token=token)
    reported = closed.body["ledger"]
    assert reported["bytes_up"] == before_up
    assert reported["bytes_down"] == before_down
    # the session ledger itself is charged for the close once the ack is out
    final = backend.ledger_doc()["sessions"][str(token)]
    assert final["bytes_up"] == wire.bytes_up
    assert final["bytes_down"] == wire.bytes_down
    assert final == backend.ledger.to_doc()  # single session carries all traffic


def test_ledger_exact_under_concurrent_connections():
    backend = fresh_backend()
    wires = [Wire(backend) for _ in range(4)]
    done = []

    def hammer(wire, seed):
        token = open_session(wire, policy="class_ratio@0.4", seed=seed)
        for k in range(150):
            got = wire.send(MessageKind.QUERY, {"pose": [float(k % 5), 1.0]}, token=token)
            wire.send(MessageKind.REPORT, {"observed": got.body["landmark_ids"][:1]}, token=token)
        wire.send(MessageKind.QUERY, {"pose": "bad"}, token=token)  # rejected, still counted
        done.append(seed)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often so unlocked updates would collide
    try:
        threads = [threading.Thread(target=hammer, args=(w, i)) for i, w in enumerate(wires)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3]
    total = backend.ledger
    assert total.bytes_up == sum(w.bytes_up for w in wires)
    assert total.bytes_down == sum(w.bytes_down for w in wires)
    assert total.landmarks_sent == sum(w.landmarks_seen for w in wires)
    assert total.queries == 4 * 151
    sessions = backend.ledger_doc()["sessions"].values()
    for field in ("queries", "landmarks_sent", "bytes_down", "bytes_up"):
        assert getattr(total, field) == sum(doc[field] for doc in sessions)


def test_frames_for_one_token_are_serialized(monkeypatch):
    """Two threads query one token while the selection is held at a barrier.
    Unserialized, both would select and the second selection would overwrite
    the first; serialized, the second query finds the first one pending."""
    backend = fresh_backend()
    token = open_session(Wire(backend))
    barrier = threading.Barrier(2, timeout=0.5)
    select = atlas.server.select_from_arrays

    def held_select(*args, **kwargs):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:  # the other query never got this far
            pass
        return select(*args, **kwargs)

    monkeypatch.setattr(atlas.server, "select_from_arrays", held_select)
    raw = encode_body(Message(MessageKind.QUERY, cid=1, token=token, body={"pose": [0.0, 1.0]}))
    replies = []
    threads = [
        threading.Thread(target=lambda: replies.append(decode_body(backend.handle_frame(raw)[4:])))
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    outcomes = sorted((r.kind.value, r.body.get("code")) for r in replies)
    assert outcomes == [("error", "bad_request"), ("landmarks", None)]
    assert backend.sessions[token].n_queries == 1


@pytest.mark.parametrize("kind", [MessageKind.QUERY, MessageKind.REPORT])
def test_frame_that_resolved_its_session_before_a_close_gets_no_session(monkeypatch, kind):
    """A frame resolves its session, a close on another connection then runs
    to the end, and only then does the frame reach the session lock.  It must
    answer as a frame sent after the close: no_session, no change to the
    session, and no charge to a session ledger the close already reported."""
    backend = fresh_backend()
    wire = Wire(backend)
    token = open_session(wire, policy="class_ratio@0.5")
    if kind is MessageKind.REPORT:
        wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
    session = backend.sessions[token]
    resolve = backend._resolve
    closes = []

    def resolve_then_close(t):
        resolved = resolve(t)
        if not closes:  # the close frame resolves through here too
            closes.append(None)
            closes[0] = Wire(backend).send(MessageKind.CLOSE, token=token)
        return resolved

    monkeypatch.setattr(backend, "_resolve", resolve_then_close)
    body = {"pose": [0.0, 1.0]} if kind is MessageKind.QUERY else {"observed": []}
    up, down = wire.bytes_up, wire.bytes_down
    reply = wire.send(kind, body, token=token)
    assert closes[0].kind is MessageKind.UPDATE_ACK
    assert reply.kind is MessageKind.ERROR
    assert reply.body["code"] == "no_session"
    assert session.pending is None and len(session.window) == 0
    assert session.n_queries == (kind is MessageKind.REPORT)
    # every other frame was charged to the session; this one to the total only
    total = backend.ledger
    assert total.bytes_up - session.ledger.bytes_up == wire.bytes_up - up
    assert total.bytes_down - session.ledger.bytes_down == wire.bytes_down - down
    assert total.queries - session.ledger.queries == (kind is MessageKind.QUERY)


def test_one_token_on_many_connections_keeps_one_selection_pending():
    """Threads share one token and race query/report pairs.  Each report
    resolves the one pending selection, so at the end at most one selection
    is unreported, and every selection served was counted."""
    backend = fresh_backend()
    token = open_session(Wire(backend), policy="class_ratio@0.4")
    counts = {"landmarks": 0, "reported": 0}
    lock = threading.Lock()

    def hammer():
        wire = Wire(backend)
        for k in range(100):
            got = wire.send(MessageKind.QUERY, {"pose": [float(k % 5), 1.0]}, token=token)
            ack = wire.send(MessageKind.REPORT, {"observed": []}, token=token)
            with lock:
                counts["landmarks"] += got.kind is MessageKind.LANDMARKS
                counts["reported"] += ack.kind is MessageKind.UPDATE_ACK

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(t.is_alive() for t in threads)
    session = backend.sessions[token]
    assert counts["landmarks"] == session.n_queries
    unreported = counts["landmarks"] - counts["reported"]
    assert unreported == (session.pending is not None)


@pytest.mark.parametrize("spec", ["class_ratio@0.5", "session_weight@0.5", "random@0.5"])
def test_every_policy_serves_an_empty_map(spec):
    wire = Wire(MapBackend(MultiSessionMap()))
    token = open_session(wire, policy=spec)
    for fill in (1, 2):
        got = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
        assert got.body["landmark_ids"] == [] and got.body["n_candidates"] == 0
        ack = wire.send(MessageKind.REPORT, {"observed": []}, token=token)
        assert ack.body == {"n_recorded": 0, "window_fill": fill}


def test_sessions_refuse_window_lengths_past_the_maximum():
    wire = Wire(fresh_backend())
    for window_len in (MAX_WINDOW_LEN + 1, 10**30):
        body = {"policy": "session_weight@0.6", "window_len": window_len}
        reply = wire.send(MessageKind.OPEN_SESSION, body)
        assert reply.kind is MessageKind.ERROR and reply.body["code"] == "bad_request"
        assert f"[1, {MAX_WINDOW_LEN}]" in reply.body["detail"]
    assert not wire.backend.sessions


def test_sessions_accept_the_maximum_window_length():
    wire = Wire(fresh_backend())
    token = open_session(wire, policy="session_weight@0.6", window_len=MAX_WINDOW_LEN)
    for fill in (1, 2, 3):
        got = wire.send(MessageKind.QUERY, {"pose": [0.0, 1.0]}, token=token)
        assert got.kind is MessageKind.LANDMARKS
        ack = wire.send(MessageKind.REPORT, {"observed": got.body["landmark_ids"][:1]}, token=token)
        assert ack.body == {"n_recorded": 1, "window_fill": fill}
    assert len(wire.backend.sessions[token].window.rows) == 3


@pytest.fixture(scope="module")
def grown():
    """A map built from one rich sortie plus the revisit dataset, shared
    read-only by the transport-parity tests."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    first = generate_sortie(world, 0.10, seed=101, label="first")
    m, kernels, _ = process_sortie(MultiSessionMap(), first, {}, threshold_m=sc.threshold_m)
    revisit = generate_sortie(world, 0.11, seed=102, label="revisit")
    return sc, m, kernels, revisit


def test_upload_updates_map_and_registers_kernels(grown):
    sc, _, _, _ = grown
    world = generate_world(sc, seed=11)
    first = generate_sortie(world, 0.10, seed=101, label="first")
    backend = MapBackend(MultiSessionMap(), threshold_m=sc.threshold_m)
    wire = Wire(backend)
    token = open_session(wire)
    v0 = backend.map_version
    ack = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": sortie_to_doc(first)}, token=token)
    assert ack.kind is MessageKind.UPDATE_ACK
    assert ack.body["session_kind"] == "rich"
    assert ack.body["map_version"] == backend.map_version != v0
    assert ack.body["n_landmarks"] == len(first.proposals)
    assert len(ack.body["new_landmark_ids"]) == len(first.proposals)
    assert ack.body["rms_m"] > sc.threshold_m
    assert not ack.body["summarized"]
    assert set(ack.body["new_landmark_ids"]) == set(backend.kernels)
    assert set(backend.snapshot.landmarks) == set(ack.body["new_landmark_ids"])


def test_upload_rejects_malformed_sorties():
    wire = Wire(fresh_backend())
    token = open_session(wire)
    missing = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": {"label": "x"}}, token=token)
    assert missing.body["code"] == "bad_request"
    not_dict = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": 7}, token=token)
    assert not_dict.body["code"] == "bad_request"
    world = generate_world(tiny_scenario(), seed=11)
    doc = sortie_to_doc(generate_sortie(world, 0.10, seed=101, label="first"))
    for observations in ([0, 1], {"0": 1, str(2**70): 1}):  # not an object; pose beyond int64
        doc["proposals"][0]["observations"] = observations
        bad = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": doc}, token=token)
        assert bad.body["code"] == "bad_request" and "malformed sortie" in bad.body["detail"]


def test_upload_naming_a_pose_twice_is_refused():
    world = generate_world(tiny_scenario(), seed=11)
    doc = sortie_to_doc(generate_sortie(world, 0.10, seed=101, label="first"))
    observations = doc["proposals"][0]["observations"]
    pose = next(iter(observations))
    observations["0" + pose] = 5  # the same pose index spelled a second way
    backend = MapBackend(MultiSessionMap())
    wire = Wire(backend)
    token = open_session(wire)
    snap, kernels = backend.snapshot, dict(backend.kernels)
    reply = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": doc}, token=token)
    assert reply.kind is MessageKind.ERROR and reply.body["code"] == "bad_request"
    assert "malformed sortie" in reply.body["detail"]
    assert backend.snapshot is snap and backend.kernels == kernels


def test_upload_without_poses_or_with_a_non_finite_condition_is_refused():
    world = generate_world(tiny_scenario(), seed=11)
    doc = sortie_to_doc(generate_sortie(world, 0.10, seed=101, label="first"))
    backend = fresh_backend()
    wire = Wire(backend)
    token = open_session(wire)
    snap, kernels = backend.snapshot, dict(backend.kernels)

    def raw(sortie) -> bytes:
        body = {"sortie": sortie}
        return encode_body(Message(MessageKind.UPLOAD_SORTIE, cid=1, token=token, body=body))

    empty, flat, narrow = [], [0.0, 1.0, 0.0], [[0.0, 1.0], [1.0, 1.0]]
    frames = [raw({**doc, "poses": poses}) for poses in (empty, flat, narrow)]
    # json.loads accepts the non-standard tokens a canonical encoder never writes
    sentinel = raw({**doc, "condition": 0.375})
    assert sentinel.count(b'"condition":0.375') == 1
    for token_text in (b"Infinity", b"-Infinity", b"NaN"):
        frames.append(sentinel.replace(b'"condition":0.375', b'"condition":' + token_text))
    for frame in frames:
        reply = wire.send(None, raw=frame)
        assert reply.kind is MessageKind.ERROR and reply.body["code"] == "bad_request"
        assert "malformed sortie" in reply.body["detail"]
    assert backend.snapshot is snap and backend.kernels == kernels


@pytest.fixture(scope="module")
def city_revisit():
    """A city_dusk map built from sortie 0 at seed 42, its kernels, and the
    upload of sortie 1, which that map turns into an observation update."""
    sc = get_scenario("city_dusk")
    world = build_world(sc, 42)
    m, kernels, _ = process_sortie(
        MultiSessionMap(landmark_cap=sc.landmark_cap), build_dataset(world, 0, 42), {},
        threshold_m=sc.threshold_m,
    )
    return m, kernels, sortie_to_doc(build_dataset(world, 1, 42))


# Written once into a frame, then swapped for a token the canonical encoder refuses.
SENTINEL = 0.123456789

# Defects of proposal 0: (field, how to change its value, non-finite token or None).
PROPOSAL_DEFECTS = {
    "two_element_position": ("position", lambda v: v[:2], None),
    "nan_position": ("position", lambda v: [SENTINEL] + v[1:], b"NaN"),
    "infinite_kernel_width": ("kernel", lambda v: {**v, "width": SENTINEL}, b"Infinity"),
    "nan_kernel_width": ("kernel", lambda v: {**v, "width": SENTINEL}, b"NaN"),
    "one_observing_pose": ("observations", lambda v: dict(list(v.items())[:1]), None),
    "pose_out_of_range": ("observations", lambda v: {**v, "99999": 1}, None),
    "zero_count": ("observations", lambda v: {**v, next(iter(v)): 0}, None),
}


# Defects of the sortie itself, in the same form.
SORTIE_DEFECTS = {
    "nan_pose": ("poses", lambda v: [[SENTINEL] + v[0][1:]] + v[1:], b"NaN"),
    "infinite_sensor_range": ("sensor_range", lambda v: SENTINEL, b"Infinity"),
    "negative_sensor_range": ("sensor_range", lambda v: -v, None),
}


def defective_upload(token: int, sortie: dict, non_finite: bytes | None) -> bytes:
    """The upload frame of sortie, its one SENTINEL swapped for non_finite if given."""
    raw = encode_body(Message(MessageKind.UPLOAD_SORTIE, cid=1, token=token, body={"sortie": sortie}))
    if non_finite is not None:
        assert raw.count(repr(SENTINEL).encode()) == 1
        raw = raw.replace(repr(SENTINEL).encode(), non_finite)
    return raw


@pytest.mark.parametrize("defect", sorted(PROPOSAL_DEFECTS))
def test_malformed_proposal_is_refused_whatever_the_update_kind(city_revisit, defect):
    m, kernels, doc = city_revisit
    backend = MapBackend(m, kernels)
    wire = Wire(backend)
    token = open_session(wire)
    field, change, non_finite = PROPOSAL_DEFECTS[defect]
    proposal = doc["proposals"][0]
    bad = {**doc, "proposals": [{**proposal, field: change(proposal[field])}] + doc["proposals"][1:]}
    snap, registry = backend.snapshot, dict(backend.kernels)
    reply = wire.send(None, raw=defective_upload(token, bad, non_finite))
    assert reply.kind is MessageKind.ERROR and reply.body["code"] == "bad_request"
    assert "malformed sortie" in reply.body["detail"]
    assert backend.snapshot is snap and backend.kernels == registry
    # Intact, the same upload is an observation update: it ingests no proposal.
    ack = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": doc}, token=token)
    assert ack.kind is MessageKind.UPDATE_ACK and ack.body["session_kind"] == "observation"


@pytest.mark.parametrize("defect", sorted(SORTIE_DEFECTS))
def test_non_finite_pose_or_bad_sensor_range_is_refused_before_the_update(city_revisit, defect):
    m, kernels, doc = city_revisit
    backend = MapBackend(m, kernels)
    wire = Wire(backend)
    token = open_session(wire)
    field, change, non_finite = SORTIE_DEFECTS[defect]
    version = backend.map_version
    # Intact, this upload localizes well enough to be published as an observation update.
    reply = wire.send(None, raw=defective_upload(token, {**doc, field: change(doc[field])}, non_finite))
    assert reply.kind is MessageKind.ERROR and reply.body["code"] == "bad_request"
    assert "malformed sortie" in reply.body["detail"]
    assert backend.map_version == version


# sha256 of the upload frame of sortie 0 of each built-in scenario at seed 42.
# city_dusk carries 923 proposals in 385,713 bytes.
UPLOAD_FRAME_SHA256 = {
    "city_dusk": "6e532cd273e664d918c45d3c21c6a098945191270f112c828cedb8dda118bcc6",
    "parking_year": "a41093b8efc0defd259b9047e1b7baed463c2b1b3d21212bd09365024224aaa7",
}


@pytest.mark.parametrize("name", sorted(UPLOAD_FRAME_SHA256))
def test_upload_frame_bytes_are_pinned(name):
    dataset = build_dataset(build_world(get_scenario(name), 42), 0, 42)

    def frame(ds):
        body = {"sortie": sortie_to_doc(ds)}
        return encode_frame(Message(MessageKind.UPLOAD_SORTIE, cid=1, token=1, body=body))

    sent = frame(dataset)
    assert hashlib.sha256(sent).hexdigest() == UPLOAD_FRAME_SHA256[name]
    assert frame(sortie_from_doc(sortie_to_doc(dataset))) == sent


def upload_frame(ds, cid=3, token=7) -> bytes:
    """The upload frame as the canonical encoder writes it from the sortie document."""
    return encode_frame(Message(MessageKind.UPLOAD_SORTIE, cid=cid, token=token,
                                body={"sortie": sortie_to_doc(ds)}))


@pytest.mark.parametrize("name", ["city_dusk", "parking_year"])
def test_upload_frames_written_from_columns_equal_the_canonical_encoder(name):
    sc = get_scenario(name)
    world = build_world(sc, 42)
    for i in range(len(sc.schedule)):
        ds = build_dataset(world, i, 42)
        body = EncodedBody(f'{{"sortie":{sortie_json(ds)}}}')
        written = encode_frame(Message(MessageKind.UPLOAD_SORTIE, cid=3, token=7, body=body))
        assert written == upload_frame(ds), f"sortie {i}"


def awkward_sortie() -> SortieDataset:
    """Counts other than 1, pose keys whose string order is not their numeric
    order, a proposal with no observations, and floats json.dumps writes in
    exponent form or with a sign on zero."""
    poses = np.zeros((120, 3))
    poses[:3] = [[-0.0, 1e16, 1e-05], [0.1, -2.5, 5e-324], [1 / 3, 123456.789, -1e-300]]
    observations = np.array([[0, 9, 1], [0, 10, 2], [0, 100, 7], [2, 0, 1], [2, 11, 1], [2, 2, 3]])
    positions = np.array([[0.0, -0.0, 1e22], [1.5, 2.5, 3.5], [-1e-07, 4.0, 0.25]])
    kernels = np.array([[0.5, 0.1, 0.9], [0.0, 0.05, 1.0], [0.999, 0.2, 0.3]])
    return SortieDataset("awkward \u00e9\"label", 0.125, poses,
                         Proposals(positions, observations, kernels), 25, 2**64 - 1, 7)


def recording_client(replies: list[Message]) -> VehicleClient:
    """A VehicleClient with no socket: it records what it sends and reads the given replies."""

    class Recorder:
        def __init__(self):
            self.sent: list[bytes] = []

        def sendall(self, data: bytes) -> None:
            self.sent.append(data)

    client = VehicleClient.__new__(VehicleClient)
    client._sock = Recorder()
    client._stream = io.BytesIO(b"".join(encode_frame(r) for r in replies))
    client._next_cid = 1
    client.token = 7
    return client


def hand_written_reply(ids: str = "4,2", classes: str = "0,1", n: str = "5", version: str = "3") -> bytes:
    """A landmarks reply frame to the first request of recording_client,
    written by hand with the given texts for its fields."""
    body = (f'{{"body":{{"class_ids":[{classes}],"landmark_ids":[{ids}],"map_version":{version},'
            f'"n_candidates":{n},"positions":[[0.0,0.0,0.0],[1.0,0.0,0.0]]}},'
            '"cid":1,"kind":"landmarks","token":7}').encode()
    return struct.pack(">I", len(body)) + body


@pytest.mark.parametrize("frame, ids", [
    (hand_written_reply("1234567890123456789,-2"), [1234567890123456789, -2]),  # 19 digits
    (hand_written_reply("4, 2"), [4, 2]),  # spacing
])
def test_vehicle_reads_reply_ids_off_the_servers_layout(frame, ids):
    client = recording_client([])
    client._stream = io.BytesIO(frame)
    result = client.query([0.0, 0.0, 0.0])
    assert result.landmark_ids.dtype == np.int64 and result.landmark_ids.tolist() == ids
    assert result.class_ids.tolist() == [0, 1]
    assert (result.n_candidates, result.map_version) == (5, 3)


@pytest.mark.parametrize("field, text", [
    ("ids", "1.5,7"), ("ids", "true,7"), ("ids", "1e0,7"), ("ids", "null,7"),
    ("ids", "9223372036854775808,7"), ("ids", "-9223372036854775809,7"),
    ("classes", "0,false"), ("classes", "0,1.0"),
    ("n", "5.0"), ("n", "true"), ("version", '"3"'), ("version", "null"),
])
def test_vehicle_refuses_reply_ids_that_are_not_int64(field, text):
    # A float or bool would otherwise be cast to a landmark id (1.5 and true
    # to landmark 1), and an id beyond int64 escape as a bare OverflowError.
    client = recording_client([])
    client._stream = io.BytesIO(hand_written_reply(**{field: text}))
    with pytest.raises(ProtocolError):
        client.query([0.0, 0.0, 0.0])


def test_vehicle_frames_equal_the_canonical_encoder():
    ds = awkward_sortie()
    assert sortie_json(ds) == json.dumps(sortie_to_doc(ds), sort_keys=True, separators=(",", ":"))
    ack = {"session_kind": "observation", "new_landmark_ids": []}
    client = recording_client([
        Message(MessageKind.LANDMARKS, cid=1, token=7, body={
            "landmark_ids": [4, 2], "class_ids": [0, 1], "positions": [[0.0, 0.0, 0.0]] * 2,
            "n_candidates": 5, "map_version": 3}),
        Message(MessageKind.UPDATE_ACK, cid=2, token=7, body={"n_recorded": 1, "window_fill": 1}),
        Message(MessageKind.UPDATE_ACK, cid=3, token=7, body=ack),
    ])
    result = client.query(ds.poses[0])
    assert result.landmark_ids.tolist() == [4, 2] and result.class_ids.tolist() == [0, 1]
    client.report(np.array([4, 4], dtype=np.int64))
    assert client.upload_sortie(ds) == ack
    pose = [float(v) for v in ds.poses[0]]
    assert client._sock.sent == [
        encode_frame(Message(MessageKind.QUERY, cid=1, token=7, body={"pose": pose})),
        encode_frame(Message(MessageKind.REPORT, cid=2, token=7, body={"observed": [4, 4]})),
        upload_frame(ds, cid=3, token=7),
    ]


def test_vehicle_refuses_non_finite_values_as_the_encoder_does():
    ds = awkward_sortie()
    bad_positions = ds.proposals.positions.copy()
    bad_positions[1, 2] = np.nan
    bad = SortieDataset(ds.label, ds.condition, ds.poses,
                        Proposals(bad_positions, ds.proposals.observations, ds.proposals.kernels),
                        ds.sensor_range, ds.observation_seed, ds.error_seed)
    with pytest.raises(ProtocolError):
        upload_frame(bad)
    client = recording_client([])
    with pytest.raises(ProtocolError):
        client.upload_sortie(bad)
    with pytest.raises(ProtocolError):
        client.query([0.0, np.inf, 0.0])
    with pytest.raises(ProtocolError):
        client.upload_sortie(SortieDataset(**{**ds.__dict__, "condition": float("nan")}))
    assert client._sock.sent == []


def test_window_resets_when_map_version_changes(grown):
    sc, m, kernels, revisit = grown
    backend = MapBackend(m.copy(), kernels, threshold_m=sc.threshold_m)
    wire = Wire(backend)
    token = open_session(wire, policy="class_ratio@0.5")
    pose = [float(v) for v in revisit.poses[0][:2]]
    for expected_fill in (1, 2):
        got = wire.send(MessageKind.QUERY, {"pose": pose}, token=token)
        ack = wire.send(MessageKind.REPORT, {"observed": got.body["landmark_ids"][:2]}, token=token)
        assert ack.body["window_fill"] == expected_fill
    up = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": sortie_to_doc(revisit)}, token=token)
    assert up.kind is MessageKind.UPDATE_ACK
    assert up.body["session_kind"] == "observation"
    got = wire.send(MessageKind.QUERY, {"pose": pose}, token=token)
    ack = wire.send(MessageKind.REPORT, {"observed": got.body["landmark_ids"][:2]}, token=token)
    assert ack.body["window_fill"] == 1  # fresh window against the new classes


def test_concurrent_uploads_serialize():
    sc = tiny_scenario()
    backend = MapBackend(MultiSessionMap(), threshold_m=sc.threshold_m)
    datasets = [
        generate_sortie(generate_world(sc, seed=41), 0.10, seed=401, label="a"),
        generate_sortie(generate_world(sc, seed=42), 0.50, seed=402, label="b"),
    ]
    acks = [None, None]

    def fly(slot):
        wire = Wire(backend)
        token = open_session(wire)
        acks[slot] = wire.send(
            MessageKind.UPLOAD_SORTIE, {"sortie": sortie_to_doc(datasets[slot])}, token=token
        )

    threads = [threading.Thread(target=fly, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for ack in acks:
        assert ack.kind is MessageKind.UPDATE_ACK
        assert ack.body["session_kind"] == "rich"
    new_a = set(acks[0].body["new_landmark_ids"])
    new_b = set(acks[1].body["new_landmark_ids"])
    assert new_a and new_b and not (new_a & new_b)
    snap = backend.snapshot
    assert snap.n_rich_sessions == 2
    assert set(snap.landmarks) == new_a | new_b
    snap.validate()


def test_socket_transport_bytes_match_backend_ledger(grown):
    sc, m, kernels, revisit = grown
    backend = MapBackend(m.copy(), kernels, threshold_m=sc.threshold_m)
    with MapServer(backend) as server:
        host, port = server.address
        sent = received = 0
        with socket.create_connection((host, port), timeout=10) as sock:
            stream = sock.makefile("rb")

            def call(msg):
                nonlocal sent, received
                frame = encode_frame(msg)
                sock.sendall(frame)
                sent += len(frame)
                raw = read_frame(stream)
                received += 4 + len(raw)
                return decode_body(raw)

            opened = call(Message(MessageKind.OPEN_SESSION, cid=1, body={"policy": "all@1"}))
            token = opened.token
            got = call(Message(MessageKind.QUERY, cid=2, token=token,
                               body={"pose": [float(revisit.poses[0][0]), float(revisit.poses[0][1])]}))
            assert got.kind is MessageKind.LANDMARKS
            call(Message(MessageKind.REPORT, cid=3, token=token,
                         body={"observed": got.body["landmark_ids"][:3]}))
            closed = call(Message(MessageKind.CLOSE, cid=4, token=token))
            assert closed.kind is MessageKind.UPDATE_ACK
            stream.close()
    assert backend.ledger.bytes_up == sent
    assert backend.ledger.bytes_down == received
    assert backend.ledger.landmarks_sent == len(got.body["landmark_ids"])


def test_driven_sortie_matches_local_simulation(grown):
    sc, m, kernels, revisit = grown
    backend = MapBackend(m.copy(), dict(kernels), threshold_m=sc.threshold_m)
    local = localize_dataset(m, revisit, reference_policy(), kernels)
    with MapServer(backend) as server:
        host, port = server.address
        with VehicleClient(host, port) as client:
            client.open_session(policy="all@1", sensor_range=sc.sensor_range)
            drive = drive_sortie(client, revisit, dict(kernels), upload=False)
    assert np.array_equal(drive.selected_counts, local.selected_counts)
    assert np.array_equal(drive.observed_counts, local.observed_counts)
    assert np.array_equal(drive.errors_m, local.errors_m)
    assert drive.n_failures == local.n_failures
    assert drive.rms_translation_m == pytest.approx(local.rms_translation_m)


@pytest.fixture(scope="module")
def many_classes():
    """A map grown by seven sorties under varying conditions, with a revisit."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    m, kernels = MultiSessionMap(), {}
    for i, condition in enumerate((0.10, 0.12, 0.45, 0.5, 0.11, 0.3, 0.13)):
        sortie = generate_sortie(world, condition, seed=700 + i, label=f"s{i}")
        m, kernels, _ = process_sortie(m, sortie, kernels, threshold_m=sc.threshold_m)
    revisit = generate_sortie(world, 0.12, seed=799, label="revisit")
    return sc, m, kernels, revisit


@pytest.mark.parametrize("spec", ["class_ratio@0.2", "session_weight@0.3", "random@0.4"])
def test_served_selection_matches_simulated_selection(many_classes, spec):
    sc, m, kernels, revisit = many_classes
    assert len(m.index) >= 5
    local = localize_dataset(m, revisit, parse_policy(spec), kernels, bootstrap_full_first=False)
    backend = MapBackend(m.copy(), dict(kernels), threshold_m=sc.threshold_m)
    with MapServer(backend) as server:
        host, port = server.address
        with VehicleClient(host, port) as client:
            client.open_session(policy=spec, sensor_range=revisit.sensor_range)
            selected = by_pose(local.selected_ids, local.selected_counts)
            observed = by_pose(local.observed_ids, local.observed_counts)
            for k, (sel, obs) in enumerate(zip(selected, observed)):
                result = client.query(revisit.poses[k])
                assert result.landmark_ids.tolist() == sel.tolist(), f"iteration {k}"
                assert result.class_ids.tolist() == [m.index.classes_of([i])[0] for i in sel]
                client.report(obs.tolist())


@pytest.mark.parametrize(
    "spec", ["class_ratio@0.2", "session_weight@0.3", "random@0.4", "all@1"]
)
def test_driven_sortie_matches_localize_dataset(many_classes, spec):
    """Whole sorties: what a vehicle observes against a served map is what localize_dataset
    computes on the same map, pose for pose."""
    sc, m, kernels, revisit = many_classes
    local = localize_dataset(m, revisit, parse_policy(spec), kernels, bootstrap_full_first=False)
    backend = MapBackend(m.copy(), dict(kernels), threshold_m=sc.threshold_m)
    with MapServer(backend) as server:
        host, port = server.address
        with VehicleClient(host, port) as client:
            client.open_session(policy=spec, sensor_range=revisit.sensor_range)
            drive = drive_sortie(client, revisit, dict(kernels), upload=False)
    assert np.array_equal(drive.selected_counts, local.selected_counts)
    assert np.array_equal(drive.observed_counts, local.observed_counts)
    assert drive.errors_m.tolist() == local.errors_m.tolist()
    assert drive.n_failures == local.n_failures


def test_serve_forever_returns_cleanly_on_interrupt_after_listening(monkeypatch):
    lines = []
    server = MapServer(fresh_backend(), log=lines.append)
    real_start = server.start

    def start_then_interrupt():
        real_start()
        raise KeyboardInterrupt

    monkeypatch.setattr(server, "start", start_then_interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.shutdown()
        pytest.fail("KeyboardInterrupt escaped serve_forever")
    assert [json.loads(line)["event"] for line in lines] == ["listening", "stopped"]


def test_vehicle_client_drive_with_upload_extends_sidecar():
    sc = tiny_scenario()
    world = generate_world(sc, seed=51)
    first = generate_sortie(world, 0.10, seed=501, label="first")
    backend = MapBackend(MultiSessionMap(), threshold_m=sc.threshold_m)
    sidecar = {}
    with MapServer(backend) as server:
        host, port = server.address
        with VehicleClient(host, port) as client:
            client.open_session(policy="all@1", sensor_range=sc.sensor_range)
            drive = drive_sortie(client, first, sidecar, upload=True)
            assert drive.upload_ack["session_kind"] == "rich"
            assert np.all(drive.observed_counts == 0)  # nothing to match yet
            assert drive.n_failures == first.n_iterations
            assert set(sidecar) == set(backend.kernels)
            assert sidecar == backend.kernels
            ledger = client.close_session()["ledger"]
            assert ledger["queries"] == first.n_iterations
    assert backend.snapshot.n_rich_sessions == 1


def test_vehicle_sidecar_matches_the_backend_after_every_capped_upload():
    # The fleet's schedule and cap: one upload summarizes and reports only
    # the created ids that survived, so ids and proposals no longer pair up
    # in order.  The vehicle is never told which landmarks were dropped, so
    # it keeps their kernels; ids are never reused, so those are never read.
    # The served schedule is the chronological run's: the same decisions,
    # map and registry.
    scenario = get_scenario("city_dusk")
    world = build_world(scenario, 42)
    chrono = run_chronological(scenario, 42)
    backend = MapBackend(MultiSessionMap(landmark_cap=scenario.landmark_cap))
    client = in_process_client(backend)
    sidecar: dict = {}
    summarized = 0
    for i, report in enumerate(chrono.reports):
        client.open_session(policy="all@1", sensor_range=scenario.sensor_range)
        ack = drive_sortie(client, build_dataset(world, i, 42), sidecar, upload=True).upload_ack
        client.close_session()
        summarized += ack["summarized"]
        assert sidecar.keys() >= backend.kernels.keys(), f"upload {i + 1}"
        assert {lid: sidecar[lid] for lid in backend.kernels} == backend.kernels, f"upload {i + 1}"
        assert (ack["session_kind"], ack["n_landmarks"], ack["rms_m"], ack["summarized"]) == (
            report.session_kind.value, report.n_landmarks_after, report.rms_m, report.summarized
        ), f"upload {i + 1}"
    assert len(chrono.reports) == len(scenario.schedule)
    assert summarized == 1 and len(backend.snapshot.landmarks) == scenario.landmark_cap
    assert dumps_map(backend.snapshot) == dumps_map(chrono.final_map)
    assert backend.kernels == chrono.kernels


def drive_tiny_schedule(monkeypatch, module, kind: MessageKind) -> MapBackend:
    """Drive tiny_scenario's schedule in process, failing on any frame of
    the given kind that module.decode_body reads."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    backend = MapBackend(MultiSessionMap(), threshold_m=sc.threshold_m)
    decode = module.decode_body

    def refuse_kind(raw):
        msg = decode(raw)
        assert msg.kind is not kind, f"a {kind.value} frame went to decode_body"
        return msg

    monkeypatch.setattr(module, "decode_body", refuse_kind)
    client = in_process_client(backend)
    kernels: dict = {}
    for i, spec in enumerate(sc.schedule):
        client.open_session(policy="class_ratio@0.5", sensor_range=sc.sensor_range)
        ack = drive_sortie(client, generate_sortie(world, spec.condition, seed=100 + i), kernels).upload_ack
        client.close_session()
        assert ack["map_version"] == backend.map_version
    return backend


def test_served_vehicle_uploads_never_decode_json(monkeypatch):
    drive_tiny_schedule(monkeypatch, atlas.server, MessageKind.UPLOAD_SORTIE)


def test_served_landmarks_replies_never_decode_json(monkeypatch):
    # The guard of the vehicle's fast path: the backend's replies take
    # protocol.landmarks_reply, and read_message hands none to decode_body.
    backend = drive_tiny_schedule(monkeypatch, atlas.protocol, MessageKind.LANDMARKS)
    assert backend.ledger.landmarks_sent > 0


def test_client_raises_backend_errors():
    backend = fresh_backend()
    with MapServer(backend) as server:
        host, port = server.address
        with VehicleClient(host, port) as client:
            with pytest.raises(BackendError) as info:
                client.query([0.0, 0.0])  # no session yet
            assert info.value.code == "no_session"
            client.open_session()
            client.query([0.0, 1.0])
            with pytest.raises(BackendError) as info:
                client.query([0.0, 1.0])  # previous selection unreported
            assert info.value.code == "bad_request"
            client.report([])
            client.close_session()


def test_parallel_clients_get_distinct_sessions(grown):
    sc, m, kernels, revisit = grown
    backend = MapBackend(m.copy(), kernels, threshold_m=sc.threshold_m)
    tokens = []
    with MapServer(backend) as server:
        host, port = server.address
        clients = [VehicleClient(host, port) for _ in range(3)]
        try:
            for i, client in enumerate(clients):
                tokens.append(client.open_session(policy="random@0.3", seed=i))
            for client in clients:
                result = client.query(revisit.poses[0])
                client.report(result.landmark_ids[:1])
        finally:
            for client in clients:
                client.close_session()
                client.close_transport()
    assert len(set(tokens)) == 3
    sessions = backend.ledger_doc()["sessions"]
    assert set(sessions) == {str(t) for t in tokens}
    for doc in sessions.values():
        assert doc["queries"] == 1


def _dict_built_landmarks_frame(snap, reply, pose, sensor_range):
    """The landmarks frame as the canonical encoder writes it from the map's own objects."""
    ids = reply.body["landmark_ids"]
    body = {
        "landmark_ids": ids,
        "positions": [[float(x) for x in snap.landmarks[i].position] for i in ids],
        "class_ids": [int(snap.index.classes_of([i])[0]) for i in ids],
        "n_candidates": len(snap.candidate_set(pose, sensor_range)),
        "map_version": snap.version,
    }
    return encode_frame(Message(MessageKind.LANDMARKS, cid=reply.cid, token=reply.token, body=body))


def test_served_landmarks_replies_equal_the_canonical_encoder():
    """A multi-sortie session (rich, observation and summarizing uploads) replayed
    through handle_frame: every landmarks reply is byte-identical to the
    dict-built frame of the map it was served from, and every report moves the
    window as an np.isin mask over the selection would."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    backend = MapBackend(MultiSessionMap(landmark_cap=150), threshold_m=sc.threshold_m)
    rnd = np.random.default_rng(3)
    cid = 0

    def send(kind, body, token):
        nonlocal cid
        cid += 1
        frame = backend.handle_frame(encode_body(Message(kind, cid=cid, token=token, body=body)))
        return frame, decode_body(frame[4:])

    kinds, n_replies = [], 0
    specs = ["all@1", "class_ratio@0.3", "session_weight@0.4", "random@0.5", "class_ratio@0.2"]
    for i, (condition, spec) in enumerate(zip((0.10, 0.11, 0.45, 0.12, 0.47), specs)):
        sortie = generate_sortie(world, condition, seed=900 + i, label=f"s{i}")
        _, opened = send(MessageKind.OPEN_SESSION,
                         {"policy": spec, "seed": i, "sensor_range": sortie.sensor_range}, None)
        token = opened.token
        shadow = DequeWindow(backend.sessions[token].policy.window_len, len(backend.snapshot.index))
        for pose in sortie.poses:
            snap = backend.snapshot
            query = [float(pose[0]), float(pose[1])]
            frame, reply = send(MessageKind.QUERY, {"pose": query}, token)
            assert reply.kind is MessageKind.LANDMARKS
            assert frame == _dict_built_landmarks_frame(snap, reply, query, sortie.sensor_range)
            n_replies += 1
            selected = np.array(reply.body["landmark_ids"], dtype=np.int64)
            observed = [int(j) for j in selected if rnd.random() < 0.6]
            observed += observed[: rnd.integers(0, 3)]  # a named-twice id is credited once
            _, ack = send(MessageKind.REPORT, {"observed": observed}, token)
            shadow.push(np.array(reply.body["class_ids"], dtype=np.int64),
                        np.isin(selected, observed))
            missed, seen = backend.sessions[token].window.sums[0].T
            assert ack.body == {"n_recorded": len(set(observed)), "window_fill": len(shadow)}
            assert [(missed + seen).tolist(), seen.tolist()] == [
                a.tolist() for a in shadow.recount()
            ]
        _, up = send(MessageKind.UPLOAD_SORTIE, {"sortie": sortie_to_doc(sortie)}, token)
        assert up.kind is MessageKind.UPDATE_ACK
        kinds.append((up.body["session_kind"], up.body["summarized"]))
        send(MessageKind.CLOSE, {}, token)
    assert ("rich", True) in kinds and ("observation", False) in kinds
    assert n_replies == 5 * sc.n_iterations
    assert backend.ledger.landmarks_sent > 0


def test_failed_upload_leaves_map_and_kernels_unpublished(monkeypatch):
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    backend = MapBackend(MultiSessionMap(landmark_cap=150), threshold_m=sc.threshold_m)
    wire = Wire(backend)
    token = open_session(wire)
    first = generate_sortie(world, 0.10, seed=900, label="first")
    ok = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": sortie_to_doc(first)}, token=token)
    assert ok.body["session_kind"] == "rich" and not ok.body["summarized"]
    snap, kernels = backend.snapshot, dict(backend.kernels)

    calls = []

    def failing_solve(problem):
        calls.append(problem)
        raise ValueError("solver gave up")

    monkeypatch.setattr(atlas.locsim, "solve", failing_solve)
    # A second rich sortie overflows the cap of 150, so the upload has to summarize.
    second = generate_sortie(world, 0.45, seed=902, label="second")
    failed = wire.send(MessageKind.UPLOAD_SORTIE, {"sortie": sortie_to_doc(second)}, token=token)
    assert failed.kind is MessageKind.ERROR and failed.body["code"] == "bad_request"
    assert len(calls) == 1
    assert backend.snapshot is snap
    assert backend.kernels == kernels
    assert set(backend.kernels) == set(snap.landmarks)
    pose = [float(v) for v in first.poses[0][:2]]
    frame = backend.handle_frame(encode_body(
        Message(MessageKind.QUERY, cid=99, token=token, body={"pose": pose})))
    reply = decode_body(frame[4:])
    assert frame == _dict_built_landmarks_frame(snap, reply, pose, backend.default_sensor_range)


def test_finished_connection_threads_are_dropped():
    with MapServer(fresh_backend()) as server:
        host, port = server.address
        for cid in range(1, 51):
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(encode_frame(Message(MessageKind.OPEN_SESSION, cid=cid)))
                assert decode_body(read_frame(sock.makefile("rb"))).cid == cid
        assert len(server._threads) <= 5


def test_pipelined_requests_are_answered_without_delay():
    # A client that sends two requests at once and then reads both replies
    # must not wait on Nagle plus a delayed ACK for the second reply (about
    # 40 ms a pair on Linux loopback without TCP_NODELAY on the server).
    with MapServer(fresh_backend()) as server:
        host, port = server.address
        with socket.create_connection((host, port), timeout=10) as sock:
            stream = sock.makefile("rb")
            cids = []
            start = time.perf_counter()
            for first in range(1, 101, 2):
                sock.sendall(b"".join(
                    encode_frame(Message(MessageKind.OPEN_SESSION, cid=cid))
                    for cid in (first, first + 1)
                ))
                cids += [decode_body(read_frame(stream)).cid for _ in range(2)]
            elapsed = time.perf_counter() - start
            stream.close()
        assert cids == list(range(1, 101))
        assert elapsed < 1.0
        client = VehicleClient(host, port)
        try:
            assert client._sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        finally:
            client.close_transport()
