"""Wire protocol: canonical round-trips, envelope validation, framing."""

import io
import json
import random
import struct

import pytest

from atlas.protocol import (
    ERR_BAD_REQUEST,
    MAX_FRAME_BYTES,
    FrameTooLarge,
    Message,
    MessageKind,
    ProtocolError,
    REPLY_KINDS,
    REQUEST_KINDS,
    TruncatedFrame,
    decode_body,
    encode_body,
    encode_frame,
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
