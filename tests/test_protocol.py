"""Wire protocol: canonical round-trips, envelope validation, framing."""

import io
import json
import random
import struct

import numpy as np
import pytest

from atlas.protocol import (
    ERR_BAD_REQUEST,
    MAX_FRAME_BYTES,
    FrameTooLarge,
    LandmarksReply,
    Message,
    MessageKind,
    ProtocolError,
    REPLY_KINDS,
    REQUEST_KINDS,
    TruncatedFrame,
    decode_body,
    encode_body,
    encode_frame,
    encode_landmarks_frame,
    position_fragments,
    read_frame,
    read_message,
)

from helpers import random_message


def test_thousand_message_fuzz_round_trip_is_byte_identical():
    rnd = random.Random(20260819)
    for _ in range(1000):
        msg = random_message(rnd)
        frame = encode_frame(msg)
        raw = read_frame(io.BytesIO(frame))
        assert raw == frame[4:]
        decoded = decode_body(raw)
        assert decoded == msg
        assert encode_frame(decoded) == frame


def test_envelope_is_canonical_json():
    msg = Message(MessageKind.QUERY, cid=7, token=3, body={"z": 1, "a": [1.5, None, True]})
    body = encode_body(msg)
    text = body.decode("utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
    assert text.startswith('{"body":')  # envelope keys arrive sorted
    assert '"cid":7' in text and '"token":3' in text


def test_length_prefix_counts_body_only():
    msg = Message(MessageKind.CLOSE, cid=1, token=2)
    frame = encode_frame(msg)
    (declared,) = struct.unpack(">I", frame[:4])
    assert declared == len(frame) - 4 == len(encode_body(msg))


def test_reply_and_error_helpers_echo_correlation():
    req = Message(MessageKind.QUERY, cid=41, token=9, body={"pose": [0, 0]})
    rep = req.reply(MessageKind.LANDMARKS, {"landmark_ids": []})
    assert rep.cid == 41 and rep.token == 9
    err = req.error(ERR_BAD_REQUEST, "what")
    assert err.kind is MessageKind.ERROR
    assert err.cid == 41 and err.token == 9
    assert err.body == {"code": "bad_request", "detail": "what"}
    with pytest.raises(ValueError):
        req.error("not_a_code")


def test_kind_partition():
    assert REQUEST_KINDS | REPLY_KINDS == frozenset(MessageKind)
    assert not REQUEST_KINDS & REPLY_KINDS


def test_nan_and_unserializable_bodies_are_refused():
    with pytest.raises(ProtocolError):
        encode_body(Message(MessageKind.QUERY, cid=1, body={"x": float("nan")}))
    with pytest.raises(ProtocolError):
        encode_body(Message(MessageKind.QUERY, cid=1, body={"x": float("inf")}))
    with pytest.raises(ProtocolError):
        encode_body(Message(MessageKind.QUERY, cid=1, body={"x": object()}))


def test_oversized_frame_refused_on_encode():
    big = {"blob": "x" * (MAX_FRAME_BYTES + 10)}
    with pytest.raises(FrameTooLarge):
        encode_frame(Message(MessageKind.UPLOAD_SORTIE, cid=1, token=1, body=big))


def test_oversized_frame_refused_before_reading_body():
    # Prefix advertises 512 MiB but only 3 bytes follow; the cap check must
    # fire on the prefix alone, never attempting to buffer the body.
    stream = io.BytesIO(struct.pack(">I", 512 * 2**20) + b"abc")
    with pytest.raises(FrameTooLarge):
        read_frame(stream)
    assert stream.tell() == 4


def test_clean_eof_and_truncation():
    assert read_frame(io.BytesIO(b"")) is None
    assert read_message(io.BytesIO(b"")) is None
    with pytest.raises(TruncatedFrame):
        read_frame(io.BytesIO(b"\x00\x01"))  # partial prefix
    frame = encode_frame(Message(MessageKind.CLOSE, cid=5, token=1))
    with pytest.raises(TruncatedFrame):
        read_frame(io.BytesIO(frame[:-3]))  # partial body


def test_back_to_back_frames_in_one_stream():
    messages = [
        Message(MessageKind.OPEN_SESSION, cid=0, body={"policy": "all@1"}),
        Message(MessageKind.QUERY, cid=1, token=4, body={"pose": [1.0, 2.0]}),
        Message(MessageKind.CLOSE, cid=2, token=4),
    ]
    stream = io.BytesIO(b"".join(encode_frame(m) for m in messages))
    got = [read_message(stream) for _ in range(3)]
    assert got == messages
    assert read_message(stream) is None


@pytest.mark.parametrize(
    "raw",
    [
        b"not json",
        b"[1,2,3]",  # not an object
        b'{"cid":1,"kind":"query","token":null}',  # missing body
        b'{"body":{},"cid":1,"kind":"query","token":null,"x":1}',  # extra key
        b'{"body":{},"cid":1,"kind":"mystery","token":null}',  # unknown kind
        b'{"body":{},"cid":true,"kind":"query","token":null}',  # bool cid
        b'{"body":{},"cid":-1,"kind":"query","token":null}',  # negative cid
        b'{"body":{},"cid":1.5,"kind":"query","token":null}',  # float cid
        b'{"body":{},"cid":1,"kind":"query","token":true}',  # bool token
        b'{"body":{},"cid":1,"kind":"query","token":"t"}',  # string token
        b'{"body":[],"cid":1,"kind":"query","token":null}',  # body not object
        b'{"body":{},"cid":1,"kind":"error","token":null}',  # error sans code
        b'{"body":{"code":"wat"},"cid":1,"kind":"error","token":null}',
        b'{"body":{},"cid":1,"kind":"query","token":null}\xff',  # bad UTF-8 tail
    ],
)
def test_decode_rejects_malformed_envelopes(raw):
    with pytest.raises(ProtocolError):
        decode_body(raw)


def test_decode_accepts_null_token_and_zero_cid():
    raw = b'{"body":{},"cid":0,"kind":"open_session","token":null}'
    msg = decode_body(raw)
    assert msg.cid == 0 and msg.token is None
    assert msg.kind is MessageKind.OPEN_SESSION
    assert encode_body(msg) == raw


def _dict_built_landmarks_frame(reply: LandmarksReply, positions: np.ndarray) -> bytes:
    """The canonical encoder on the reply as a Message with float-list positions."""
    body = {
        "landmark_ids": list(reply.landmark_ids),
        "positions": [[float(x) for x in row] for row in positions],
        "class_ids": list(reply.class_ids),
        "n_candidates": reply.n_candidates,
        "map_version": reply.map_version,
    }
    return encode_frame(Message(MessageKind.LANDMARKS, cid=reply.cid, token=reply.token, body=body))


_AWKWARD_FLOATS = [0.0, -0.0, 1.0, -3.0, 2.0**53, 1e-300, -1e-300, 5e-324, 1e16, -1e16,
                   1e22, 1.7976931348623157e308, 0.1, 1 / 3, 123456.789]


def test_landmarks_frame_matches_canonical_encoder():
    rnd = random.Random(20261018)
    for trial in range(400):
        n = 0 if trial % 10 == 0 else rnd.randrange(1, 40)
        floats = [
            rnd.choice(_AWKWARD_FLOATS) if rnd.random() < 0.5
            else rnd.uniform(-1e3, 1e3) * 10.0 ** rnd.randrange(-20, 20)
            for _ in range(3 * n)
        ]
        positions = np.array(floats, dtype=np.float64).reshape(n, 3)
        id_top = rnd.choice([50, 2**31 + 5, 2**62])
        reply = LandmarksReply(
            cid=rnd.choice([0, 1, rnd.randrange(2**40)]),
            token=rnd.choice([1, rnd.randrange(2**33)]),
            landmark_ids=[rnd.randrange(id_top) for _ in range(n)],
            class_ids=[rnd.randrange(2**32 if trial % 3 == 0 else 30) for _ in range(n)],
            positions=position_fragments(positions),
            n_candidates=n + rnd.randrange(2**31 + 10 if trial % 7 == 0 else 100),
            map_version=rnd.randrange(2**35 if trial % 5 == 0 else 20),
        )
        assert encode_landmarks_frame(reply) == _dict_built_landmarks_frame(reply, positions)


def test_landmarks_frame_edge_values_and_fragments():
    positions = np.array([[-0.0, 3.0, 1e16], [1e-300, -2.5, 0.0]])
    fragments = position_fragments(positions)
    assert fragments.tolist() == ["[-0.0,3.0,1e+16]", "[1e-300,-2.5,0.0]"]
    assert position_fragments(np.empty((0, 3))).tolist() == []
    reply = LandmarksReply(cid=4, token=2**31 + 1, landmark_ids=[2**31, 2**40], class_ids=[0, 7],
                           positions=fragments, n_candidates=9, map_version=3)
    frame = encode_landmarks_frame(reply)
    assert frame == _dict_built_landmarks_frame(reply, positions)
    decoded = decode_body(frame[4:])
    assert decoded.kind is MessageKind.LANDMARKS
    assert decoded.body["positions"][0] == [-0.0, 3.0, 1e16]
    assert str(decoded.body["positions"][0][0]) == "-0.0"
    empty = LandmarksReply(cid=1, token=1, landmark_ids=[], class_ids=[],
                           positions=fragments[:0], n_candidates=0, map_version=0)
    assert encode_landmarks_frame(empty) == _dict_built_landmarks_frame(empty, np.empty((0, 3)))


def test_oversized_landmarks_frame_refused():
    n = MAX_FRAME_BYTES // 16  # at least 18 body bytes per landmark
    reply = LandmarksReply(cid=1, token=1, landmark_ids=[0] * n, class_ids=[0] * n,
                           positions=["[0.0,0.0,0.0]"] * n, n_candidates=n, map_version=0)
    with pytest.raises(FrameTooLarge):
        encode_landmarks_frame(reply)
