"""Wire protocol for the map-backend service.

Framing
-------
Every message travels as one frame: a 4-byte big-endian unsigned length
followed by exactly that many bytes of UTF-8 JSON.  The length counts the
JSON body only, never the prefix itself, and is capped at 16 MiB; anything
larger is refused before allocation.

Message envelope
----------------
The JSON body is always an object with exactly four keys:

    {"body": {...}, "cid": int, "kind": str, "token": int | null}

``kind`` names the message type, ``cid`` is a client-chosen correlation id
echoed verbatim in the reply, ``token`` is the session token (null only in
``open_session``), and ``body`` carries the kind-specific payload.  Encoding
is canonical: keys sorted, compact separators, no NaN/Infinity.  Re-encoding
a decoded frame reproduces the original bytes exactly, which makes frames
safe to hash, diff, and count for bandwidth accounting.

A body may also arrive already written as canonical JSON text
(``EncodedBody``): the vehicle writes its queries, reports and sortie
uploads from its arrays that way, and ``landmarks`` replies, the bulk of
the traffic, are joined by ``encode_landmarks_frame`` from the texts of
ids and positions that the server keeps per map version
(``position_fragments``).  Both go through one envelope writer and give
exactly the bytes ``encode_frame`` writes for the same message with the
body as a dict.

Frames are parsed by ``json.loads`` (``decode_body``).  The two bulk
frames each have a reader for the layout their writer gives them instead:
an ``upload_sortie`` frame as the vehicle writes it is read straight into
columns (``upload_sortie_text`` here, the sortie by
``worldgen.sortie_from_json``), and a ``landmarks`` reply as
``encode_landmarks_frame`` writes it into id arrays (``landmarks_reply``).
Any other frame, and any such frame its reader does not take, goes to
``decode_body``.

Every request receives exactly one reply carrying the same ``cid``: a
``query`` is answered by ``landmarks`` or ``error``; ``open_session``,
``report``, ``upload_sortie``, and ``close`` are answered by ``update_ack``
or ``error``.
"""

from __future__ import annotations

import json
import math
import re
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, ClassVar, Sequence

import numpy as np

MAX_FRAME_BYTES = 16 * 2**20

_LENGTH_PREFIX = struct.Struct(">I")


class ProtocolError(ValueError):
    """Raised when a frame or message violates the wire format."""


class FrameTooLarge(ProtocolError):
    """Frame length prefix exceeds MAX_FRAME_BYTES."""


class TruncatedFrame(ProtocolError):
    """Connection ended mid-frame."""


class MessageKind(str, Enum):
    OPEN_SESSION = "open_session"
    QUERY = "query"
    LANDMARKS = "landmarks"
    REPORT = "report"
    UPLOAD_SORTIE = "upload_sortie"
    UPDATE_ACK = "update_ack"
    ERROR = "error"
    CLOSE = "close"


REQUEST_KINDS = frozenset(
    {MessageKind.OPEN_SESSION, MessageKind.QUERY, MessageKind.REPORT,
     MessageKind.UPLOAD_SORTIE, MessageKind.CLOSE}
)
REPLY_KINDS = frozenset(
    {MessageKind.LANDMARKS, MessageKind.UPDATE_ACK, MessageKind.ERROR}
)

# Error codes carried in the body of an ``error`` reply.
ERR_NO_SESSION = "no_session"
ERR_BAD_REQUEST = "bad_request"
ERR_BAD_REPORT = "bad_report"

_ERROR_CODES = frozenset({ERR_NO_SESSION, ERR_BAD_REQUEST, ERR_BAD_REPORT})

_ENVELOPE_KEYS = frozenset({"body", "cid", "kind", "token"})
_KINDS = {kind.value: kind for kind in MessageKind}


class EncodedBody(str):
    """A message body already written as canonical JSON text (an object).

    encode_body writes it into the envelope as it is, so it must be what
    canonical_json writes for the body as a dict.
    """


@dataclass(frozen=True)
class Message:
    """One protocol message, independent of its wire encoding."""

    kind: MessageKind
    cid: int
    token: int | None = None
    body: dict[str, Any] | EncodedBody = field(default_factory=dict)

    def reply(self, kind: MessageKind, body: dict[str, Any]) -> "Message":
        """Build a reply echoing this message's correlation id and token."""
        return Message(kind=kind, cid=self.cid, token=self.token, body=body)

    def error(self, code: str, detail: str = "") -> "Message":
        if code not in _ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        return self.reply(MessageKind.ERROR, {"code": code, "detail": detail})


def canonical_json(value: Any) -> str:
    """The canonical JSON text of a value: sorted keys, compact separators,
    floats by float.__repr__; ProtocolError for NaN, infinities and
    anything JSON cannot hold."""
    try:
        return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message body: {exc}") from exc


def float_texts(values: np.ndarray) -> list[str]:
    """canonical_json of each element of a numeric array, in C order.

    Elements are written as json.dumps writes the Python numbers tolist()
    gives (float.__repr__ for a float); ProtocolError unless all are finite.
    """
    values = np.asarray(values).ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise ProtocolError("unserializable message body: "
                            "Out of range float values are not JSON compliant")
    return list(map(repr, values))


def encode_body(message: Message) -> bytes:
    """Serialize a message to canonical JSON bytes (no length prefix)."""
    if isinstance(message.body, EncodedBody):
        return _envelope(message.kind, message.cid, message.token, message.body)
    payload = {
        "body": message.body,
        "cid": message.cid,
        "kind": message.kind.value,
        "token": message.token,
    }
    return canonical_json(payload).encode("utf-8")


def _envelope(kind: MessageKind, cid: int, token: int | None, body: str) -> bytes:
    """The canonical body bytes of a message whose body is canonical JSON text.

    The one place the envelope is written by hand: keys in sorted order,
    and cid and token are ints, which json.dumps writes with str.
    """
    return "".join((
        '{"body":', body, ',"cid":', str(cid), ',"kind":"', kind.value,
        '","token":', "null" if token is None else str(token), "}",
    )).encode("utf-8")


def encode_frame(message: Message) -> bytes:
    """Serialize a message to a complete frame: length prefix plus body."""
    return _framed(encode_body(message))


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame body is {len(body)} bytes")
    return _LENGTH_PREFIX.pack(len(body)) + body


@dataclass(frozen=True)
class LandmarksReply:
    """A ``landmarks`` reply whose ids and positions are already canonical JSON.

    ``landmark_ids`` and ``class_ids`` hold the text of each int, as
    json.dumps writes it, and ``positions`` one ``"[x,y,z]"`` fragment per
    landmark, as made by position_fragments.  It stands for the Message
    whose body has the same fields with each id as an int and each position
    as a list of three floats.
    """

    kind: ClassVar[MessageKind] = MessageKind.LANDMARKS
    cid: int
    token: int
    landmark_ids: Sequence[str]
    class_ids: Sequence[str]
    positions: Sequence[str]
    n_candidates: int
    map_version: int


def position_fragments(positions: np.ndarray) -> np.ndarray:
    """One canonical JSON fragment ``"[x,y,z]"`` per row of an (n, 3) array.

    Numbers are written by float_texts, so a non-finite one raises
    ProtocolError.  The result is an object array of str, so a selection of
    rows is one fancy index.
    """
    xyz = iter(float_texts(positions))
    out = np.empty(len(positions), dtype=object)
    out[:] = [f"[{x},{y},{z}]" for x, y, z in zip(xyz, xyz, xyz)]
    return out


def encode_landmarks_frame(reply: LandmarksReply) -> bytes:
    """The frame encode_frame makes for the same reply, joined from its texts.

    Body keys go in sorted order, and the two scalar ints are written with
    str, as json.dumps writes them.
    """
    body = "".join((
        '{"class_ids":[', ",".join(reply.class_ids),
        '],"landmark_ids":[', ",".join(reply.landmark_ids),
        '],"map_version":', str(reply.map_version),
        ',"n_candidates":', str(reply.n_candidates),
        ',"positions":[', ",".join(reply.positions), "]}",
    ))
    return _framed(_envelope(reply.kind, reply.cid, reply.token, body))


def decode_body(raw: bytes) -> Message:
    """Parse and validate one frame body.

    The body is decoded as UTF-8 first: json.loads would take bytes in
    UTF-16 or UTF-32 as well."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as exc:  # not UTF-8, not JSON, or an integer of over 4300 digits
        raise ProtocolError(f"frame is not valid UTF-8 JSON: {exc}") from exc
    except RecursionError:
        raise ProtocolError("frame is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    if payload.keys() != _ENVELOPE_KEYS:
        extra = set(payload) - _ENVELOPE_KEYS
        if extra:
            raise ProtocolError(f"unexpected envelope keys: {sorted(extra)}")
        raise ProtocolError(f"missing envelope keys: {sorted(_ENVELOPE_KEYS - set(payload))}")
    try:
        kind = _KINDS[payload["kind"]]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ProtocolError(f"unknown message kind {payload['kind']!r}") from None
    cid = payload["cid"]
    if not isinstance(cid, int) or isinstance(cid, bool) or cid < 0:
        raise ProtocolError("cid must be a non-negative integer")
    token = payload["token"]
    if token is not None and (not isinstance(token, int) or isinstance(token, bool)):
        raise ProtocolError("token must be an integer or null")
    body = payload["body"]
    if not isinstance(body, dict):
        raise ProtocolError("body must be a JSON object")
    if kind is MessageKind.ERROR:
        code = body.get("code")
        if not isinstance(code, str) or code not in _ERROR_CODES:
            raise ProtocolError(f"error reply carries unknown code {code!r}")
    return Message(kind=kind, cid=cid, token=token, body=body)


# An upload_sortie frame as the vehicle writes it (client.upload_sortie): the
# sortie object, then cid and token as JSON integers of at most 18 digits.
_UPLOAD = re.compile(
    rb'\{"body":\{"sortie":(\{.*\})\},"cid":(0|[1-9][0-9]{0,17}),"kind":"upload_sortie",'
    rb'"token":(null|-?(?:0|[1-9][0-9]{0,17}))\}',
    re.DOTALL,
)


def upload_sortie_text(raw: bytes) -> tuple[int, int | None, memoryview] | None:
    """(cid, token, the text of the sortie) of an upload_sortie frame body in
    the layout the vehicle writes, or None for any other frame body.

    The envelope is checked here and the sortie's text is left to its
    reader, which reads it into columns (worldgen.sortie_from_json).  When
    that reader takes the text, decode_body reads the frame to the same
    kind, cid and token, and sortie_from_doc its sortie to the same dataset.
    """
    envelope = _UPLOAD.fullmatch(raw)
    if envelope is None:
        return None
    token = envelope[3]
    return (int(envelope[2]), None if token == b"null" else int(token),
            memoryview(raw)[envelope.start(1):envelope.end(1)])


# A landmarks reply as encode_landmarks_frame writes it: ids, class ids, the
# two scalars, cid and token as JSON integers of at most 18 digits, and each
# position three JSON numbers.  Possessive quantifiers keep the match linear.
_INT = rb"-?(?:0|[1-9][0-9]{0,17})"
_INTS = rb"(?:" + _INT + rb"(?:," + _INT + rb")*+)?+"
_NUMBER = rb"-?+(?:0|[1-9][0-9]*+)(?:\.[0-9]++)?+(?:[eE][-+]?+[0-9]++)?+"
_POSITION = rb"\[" + _NUMBER + rb"," + _NUMBER + rb"," + _NUMBER + rb"\]"
_LANDMARKS = re.compile(
    rb'\{"body":\{"class_ids":\[(' + _INTS + rb')\],"landmark_ids":\[(' + _INTS + rb')\],'
    rb'"map_version":(' + _INT + rb'),"n_candidates":(' + _INT + rb'),'
    rb'"positions":\[(?:' + _POSITION + rb'(?:,' + _POSITION + rb')*+)?+\]\},'
    rb'"cid":(0|[1-9][0-9]{0,17}),"kind":"landmarks","token":(null|' + _INT + rb')\}'
)


def landmarks_reply(raw: bytes) -> Message | None:
    """The landmarks reply of a frame body in the layout encode_landmarks_frame
    writes, or None for any other frame body.

    Its body holds landmark_ids and class_ids as int64 arrays, and
    n_candidates and map_version.  Positions, which the vehicle does not
    read, are matched against the JSON number grammar and not converted.
    When this reader takes a frame, decode_body reads it to the same kind,
    cid and token, and to the same ids and scalars.
    """
    reply = _LANDMARKS.fullmatch(raw)
    if reply is None:
        return None
    token = reply[6]
    return Message(MessageKind.LANDMARKS, cid=int(reply[5]),
                   token=None if token == b"null" else int(token),
                   body={"landmark_ids": np.fromstring(reply[2], dtype=np.int64, sep=","),
                         "class_ids": np.fromstring(reply[1], dtype=np.int64, sep=","),
                         "n_candidates": int(reply[4]), "map_version": int(reply[3])})


def read_frame(stream) -> bytes | None:
    """Read one frame body from a binary file-like stream.

    Returns None on a clean end-of-stream (no bytes at all); raises
    TruncatedFrame when the stream ends inside a frame.
    """
    prefix = stream.read(_LENGTH_PREFIX.size)
    if not prefix:
        return None
    if len(prefix) < _LENGTH_PREFIX.size:
        raise TruncatedFrame("stream ended inside the length prefix")
    (length,) = _LENGTH_PREFIX.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"advertised frame length {length} exceeds cap")
    chunks: list[bytes] = []
    remaining = length
    while remaining:
        chunk = stream.read(remaining)
        if not chunk:
            raise TruncatedFrame(
                f"stream ended with {remaining} of {length} body bytes unread")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_message(stream) -> Message | None:
    """The next message of a stream: a landmarks reply by its reader, any
    other frame by decode_body; None on a clean end-of-stream."""
    raw = read_frame(stream)
    if raw is None:
        return None
    msg = landmarks_reply(raw)
    return decode_body(raw) if msg is None else msg
