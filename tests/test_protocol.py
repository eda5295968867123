"""Wire protocol: canonical round-trips, envelope validation, framing."""

import io
import json
import random
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import atlas.protocol
from atlas.protocol import (
    ERR_BAD_REQUEST,
    MAX_FRAME_BYTES,
    EncodedBody,
    FrameTooLarge,
    LandmarksReply,
    Message,
    MessageKind,
    ProtocolError,
    REPLY_KINDS,
    REQUEST_KINDS,
    TruncatedFrame,
    canonical_json,
    decode_body,
    encode_body,
    encode_frame,
    encode_landmarks_frame,
    float_texts,
    parse_json,
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


def _texts_reply(landmark_ids: list[int], class_ids: list[int], positions: np.ndarray,
                 **fields) -> LandmarksReply:
    """A LandmarksReply holding the texts of the given ids and positions."""
    return LandmarksReply(landmark_ids=list(map(str, landmark_ids)),
                          class_ids=list(map(str, class_ids)),
                          positions=position_fragments(positions), **fields)


def _dict_built_landmarks_frame(reply: LandmarksReply, landmark_ids: list[int],
                                class_ids: list[int], positions: np.ndarray) -> bytes:
    """The canonical encoder on the reply as a Message with int ids and float-list positions."""
    body = {
        "landmark_ids": list(landmark_ids),
        "positions": [[float(x) for x in row] for row in positions],
        "class_ids": list(class_ids),
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
        landmark_ids = [rnd.randrange(id_top) for _ in range(n)]
        class_ids = [rnd.randrange(2**32 if trial % 3 == 0 else 30) for _ in range(n)]
        reply = _texts_reply(
            landmark_ids, class_ids, positions,
            cid=rnd.choice([0, 1, rnd.randrange(2**40)]),
            token=rnd.choice([1, rnd.randrange(2**33)]),
            n_candidates=n + rnd.randrange(2**31 + 10 if trial % 7 == 0 else 100),
            map_version=rnd.randrange(2**35 if trial % 5 == 0 else 20),
        )
        assert encode_landmarks_frame(reply) == _dict_built_landmarks_frame(
            reply, landmark_ids, class_ids, positions)


def test_landmarks_frame_edge_values_and_fragments():
    positions = np.array([[-0.0, 3.0, 1e16], [1e-300, -2.5, 0.0]])
    fragments = position_fragments(positions)
    assert fragments.tolist() == ["[-0.0,3.0,1e+16]", "[1e-300,-2.5,0.0]"]
    assert position_fragments(np.empty((0, 3))).tolist() == []
    reply = _texts_reply([2**31, 2**40], [0, 7], positions,
                         cid=4, token=2**31 + 1, n_candidates=9, map_version=3)
    frame = encode_landmarks_frame(reply)
    assert frame == _dict_built_landmarks_frame(reply, [2**31, 2**40], [0, 7], positions)
    decoded = decode_body(frame[4:])
    assert decoded.kind is MessageKind.LANDMARKS
    assert decoded.body["positions"][0] == [-0.0, 3.0, 1e16]
    assert str(decoded.body["positions"][0][0]) == "-0.0"
    empty = _texts_reply([], [], np.empty((0, 3)), cid=1, token=1, n_candidates=0, map_version=0)
    assert encode_landmarks_frame(empty) == _dict_built_landmarks_frame(empty, [], [], np.empty((0, 3)))


def test_oversized_landmarks_frame_refused():
    n = MAX_FRAME_BYTES // 16  # at least 18 body bytes per landmark
    reply = LandmarksReply(cid=1, token=1, landmark_ids=["0"] * n, class_ids=["0"] * n,
                           positions=["[0.0,0.0,0.0]"] * n, n_candidates=n, map_version=0)
    with pytest.raises(FrameTooLarge):
        encode_landmarks_frame(reply)


# -- decoding is json.loads, parsed by orjson where the two agree --


def same_json(a, b) -> bool:
    """Equal values of equal types all the way down: 1 is not 1.0 nor True,
    -0.0 is not 0.0, and dict keys come in the same order."""
    pending = [(a, b)]
    while pending:
        a, b = pending.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            if a.hex() != b.hex() and not (a != a and b != b):
                return False
        elif isinstance(a, list):
            if len(a) != len(b):
                return False
            pending.extend(zip(a, b))
        elif isinstance(a, dict):
            if list(a) != list(b):
                return False
            pending.extend((a[k], b[k]) for k in a)
        elif a != b:
            return False
    return True


def reference_parse(raw: bytes):
    """json.loads(raw.decode("utf-8")), or the exception type it raises."""
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return type(exc)


def assert_parses_like_json_loads(raw: bytes) -> None:
    want = reference_parse(raw)
    if isinstance(want, type):
        with pytest.raises(want):
            parse_json(raw)
    else:
        assert same_json(parse_json(raw), want)
    # inside an envelope: the same value, or the same refusal as ProtocolError
    frame = b'{"body":{"v":' + raw + b'},"cid":1,"kind":"query","token":null}'
    if isinstance(reference_parse(frame), type):
        with pytest.raises(ProtocolError):
            decode_body(frame)
    else:
        assert same_json(decode_body(frame).body, reference_parse(frame)["body"])


DEEP = sys.getrecursionlimit() + 500
JSON_EDGE_CASES = [
    b"NaN", b"Infinity", b"-Infinity", b"[1e400]", b"-1E400", b"1e-400",
    b"18446744073709551615", b"18446744073709551616", b"-9223372036854775808",
    b"-9223372036854775809", b"[12345678901234567890,-1234567890123456789]",
    b"99999999999999999999999", b"1" * 5000, b"-0", b"-0.0",
    b"0.00012345678901234567", b"12345678901234567890.5", b"12345678901234567890e-3",
    b"1e-12345678901234567890", b"1e+00000000000000000001", b'"12345678901234567890123"',
    b'"\\ud800"', b'"\\udc00x"', b'"\\ud83d\\ude00"', b'"\xed\xa0\x80"', b"\xff",
    b"\xef\xbb\xbf{}", b'"\x01"', b'{"a":1,"a":2,"b":3}', b" {} ", b"[1,]",
    b"[" * 100000, b"[" * 2000 + b"]" * 2000, b"[" * 300 + b"]" * 300,
    b'{"a":' * 600 + b"1" + b"}" * 600,
    b'["]]]]",' + b"[" * 600 + b"]" * 600 + b"]",
    # Strings that close each level's bracket and open it again, as written
    # and with escaped quotes, nested deeper than json.loads can read.
    b'["]",' * DEEP + b"1" + b',"["]' * DEEP,
    b'["\\"]\\"",' * DEEP + b"1" + b',"\\"[\\""]' * DEEP,
]


@pytest.mark.parametrize("raw", JSON_EDGE_CASES, ids=lambda raw: repr(raw[:24]))
def test_parse_json_edge_cases_match_json_loads(raw):
    assert_parses_like_json_loads(raw)


json_leaves = (
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -(2**63), -(2**63) - 1])
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=30,
)
# json.dumps writes NaN and Infinity as json.loads reads them; orjson refuses them.
json_texts = st.builds(json.dumps, json_values)
# Lone surrogates, broken UTF-8 and stray bytes, spliced into a valid text.
json_splices = st.builds(
    lambda text, at, junk: text.encode()[:at] + junk + text.encode()[at:],
    json_texts, st.integers(0, 40),
    st.sampled_from([b"", b"\xff", b"\xed\xa0\x80", b'"\\ud800"', b"[", b"]", b",", b"\\", b"1e400"]),
)


def nested(depth: int, width: int, text: str) -> bytes:
    """text beside width small lists, in a list inside depth lists and objects."""
    inner = "[" + text + ",[1.5,2]" * width + "]"
    for level in range(depth):
        inner = f"[{inner}]" if level % 2 else f'{{"k":{inner}}}'
    return inner.encode()


# json.loads refuses nesting near the recursion limit at a depth that moves
# with its caller's stack, so depths stay clear of that band on both sides
# (hypothesis may raise the limit while it runs a test).
nesting_depths = (
    st.integers(0, 40) | st.integers(480, 520)
    | st.integers(0, 500).map(lambda k: sys.getrecursionlimit() + 500 + k)
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    json_texts.map(str.encode),
    json_splices,
    st.binary(max_size=40),
    st.builds(nested, nesting_depths, st.integers(0, 600), st.sampled_from(['"]"', '"\\"', "1", '"["'])),
))
def test_parse_json_matches_json_loads(raw):
    assert_parses_like_json_loads(raw)


@pytest.mark.parametrize("text", ['"]]"', '"\\"]"', '"\\\\"', '"[[{"'])
@pytest.mark.parametrize("depth", [499, 500, 501])
def test_parse_json_at_the_trusted_depth(depth, text):
    """Brackets, escaped quotes and backslashes inside strings leave the nesting
    depth as the values give it: json.loads reads frames from 500 levels on."""
    raw = (("[" + text + ",") * (depth - 1) + "[" + text + "]" + "]" * (depth - 1)).encode()
    value = json.loads(raw)
    for _ in range(depth - 1):
        value = value[1]
    assert value == [json.loads(text)]  # depth lists, one in the next
    assert atlas.protocol._beyond_orjson(raw) == (depth >= 500)
    assert_parses_like_json_loads(raw)


# -- bodies written as canonical text --


def test_encoded_body_frames_equal_dict_built_frames():
    rnd = random.Random(20261019)
    for _ in range(300):
        msg = random_message(rnd)
        text = EncodedBody(canonical_json(msg.body))
        encoded = Message(msg.kind, cid=msg.cid, token=msg.token, body=text)
        assert encode_frame(encoded) == encode_frame(msg)


def test_float_texts_are_json_floats_and_refuse_non_finite():
    values = np.array([0.0, -0.0, 1e16, 1e-05, 0.1, 1 / 3, 5e-324, -1.7976931348623157e308])
    assert ",".join(float_texts(values)) == json.dumps(values.tolist(), separators=(",", ":"))[1:-1]
    assert float_texts(np.array([[1, 2], [3, 4]])) == ["1", "2", "3", "4"]
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ProtocolError):
            float_texts(np.array([1.0, bad]))
    with pytest.raises(ProtocolError):
        canonical_json({"x": float("nan")})
