"""Map backend service: session semantics, accounting, transport parity."""

import hashlib
import json
import socket
import struct
import sys
import threading

import numpy as np
import pytest

import atlas.locsim
from atlas.client import BackendError, VehicleClient, drive_sortie
from atlas.experiment import build_dataset, build_world
from atlas.locsim import PipelineConfig, localize_dataset, process_sortie
from atlas.mapcore import MultiSessionMap
from atlas.protocol import (
    MessageKind,
    Message,
    decode_body,
    encode_body,
    encode_frame,
    read_frame,
)
from atlas.ranking import RollingSelectionStats, parse_policy, reference_policy, update_window
from atlas.server import MapBackend, MapServer
from atlas.worldgen import (
    generate_sortie,
    generate_world,
    get_scenario,
    sortie_from_doc,
    sortie_to_doc,
)

from helpers import tiny_scenario, two_session_map


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
    stats = backend.sessions[token].stats
    index = backend.snapshot.index
    # landmark 3 is alone in its class and carries sessions {1, 2}
    cid = index.class_of_landmark(3)
    assert (stats.selected[cid], stats.observed[cid]) == (1, 1)
    selected, observed = stats.session_counts(index)
    assert selected.tolist() == [0, 3, 3] and observed.tolist() == [0, 1, 1]
    assert np.all(stats.observed <= stats.selected)


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


@pytest.fixture(scope="module")
def grown():
    """A map built from one rich sortie plus the revisit dataset, shared
    read-only by the transport-parity tests."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    first = generate_sortie(world, 0.10, seed=101, label="first")
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    m, _ = process_sortie(MultiSessionMap(), first, reference_policy(), cfg)
    revisit = generate_sortie(world, 0.11, seed=102, label="revisit")
    return sc, m, cfg.kernels, revisit


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
    assert np.array_equal(drive.selected_counts,
                          [len(it.selected) for it in local.iterations])
    assert np.array_equal(drive.observed_counts, local.observed_counts)
    assert np.array_equal(drive.errors_m, local.errors_m)
    assert drive.n_failures == local.n_failures
    assert drive.rms_translation_m == pytest.approx(local.rms_translation_m)


@pytest.fixture(scope="module")
def many_classes():
    """A map grown by seven sorties under varying conditions, with a revisit."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    m = MultiSessionMap()
    for i, condition in enumerate((0.10, 0.12, 0.45, 0.5, 0.11, 0.3, 0.13)):
        sortie = generate_sortie(world, condition, seed=700 + i, label=f"s{i}")
        m, _ = process_sortie(m, sortie, reference_policy(), cfg)
    revisit = generate_sortie(world, 0.12, seed=799, label="revisit")
    return sc, m, cfg.kernels, revisit


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
            for k, it in enumerate(local.iterations):
                result = client.query(revisit.poses[k])
                assert result.landmark_ids == it.selected.tolist(), f"iteration {k}"
                assert result.class_ids == [m.index.class_of_landmark(i) for i in it.selected]
                client.report(it.observed.tolist())


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
        "class_ids": [snap.index.class_of_landmark(i) for i in ids],
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
        shadow = RollingSelectionStats(backend.sessions[token].policy.window_len)
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
            update_window(shadow, np.array(reply.body["class_ids"], dtype=np.int64),
                          np.isin(selected, observed), snap.index)
            stats = backend.sessions[token].stats
            assert ack.body == {"n_recorded": len(set(observed)), "window_fill": len(shadow)}
            assert np.array_equal(stats.selected, shadow.selected)
            assert np.array_equal(stats.observed, shadow.observed)
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
