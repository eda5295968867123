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

``landmarks`` replies, the bulk of the traffic, have a second encoder:
``encode_landmarks_frame`` joins positions that were encoded once per map
snapshot (``position_fragments``) into the envelope, and writes exactly
the bytes ``encode_frame`` writes for the same reply.

Every request receives exactly one reply carrying the same ``cid``: a
``query`` is answered by ``landmarks`` or ``error``; ``open_session``,
``report``, ``upload_sortie``, and ``close`` are answered by ``update_ack``
or ``error``.
"""

from __future__ import annotations

import json
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


@dataclass(frozen=True)
class Message:
    """One protocol message, independent of its wire encoding."""

    kind: MessageKind
    cid: int
    token: int | None = None
    body: dict[str, Any] = field(default_factory=dict)

    def reply(self, kind: MessageKind, body: dict[str, Any]) -> "Message":
        """Build a reply echoing this message's correlation id and token."""
        return Message(kind=kind, cid=self.cid, token=self.token, body=body)

    def error(self, code: str, detail: str = "") -> "Message":
        if code not in _ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        return self.reply(MessageKind.ERROR, {"code": code, "detail": detail})


def encode_body(message: Message) -> bytes:
    """Serialize a message to canonical JSON bytes (no length prefix)."""
    payload = {
        "body": message.body,
        "cid": message.cid,
        "kind": message.kind.value,
        "token": message.token,
    }
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"unserializable message body: {exc}") from exc
    return text.encode("utf-8")


def encode_frame(message: Message) -> bytes:
    """Serialize a message to a complete frame: length prefix plus body."""
    return _framed(encode_body(message))


def _framed(body: bytes) -> bytes:
    if len(body) > MAX_FRAME_BYTES:
        raise FrameTooLarge(f"frame body is {len(body)} bytes")
    return _LENGTH_PREFIX.pack(len(body)) + body


@dataclass(frozen=True)
class LandmarksReply:
    """A ``landmarks`` reply whose positions are already canonical JSON.

    ``positions`` holds one ``"[x,y,z]"`` fragment per landmark, as made by
    position_fragments.  It stands for the Message whose body has the same
    fields with each position as a list of three floats.
    """

    kind: ClassVar[MessageKind] = MessageKind.LANDMARKS
    cid: int
    token: int
    landmark_ids: list[int]
    class_ids: list[int]
    positions: Sequence[str]
    n_candidates: int
    map_version: int


def position_fragments(positions: np.ndarray) -> np.ndarray:
    """One canonical JSON fragment ``"[x,y,z]"`` per row of an (n, 3) array.

    Floats are written with float.__repr__, as json.dumps writes them; the
    positions must be finite.  The result is an object array of str, so a
    selection of rows is one fancy index.
    """
    out = np.empty(len(positions), dtype=object)
    rows = np.asarray(positions, dtype=np.float64).tolist()
    out[:] = [f"[{x!r},{y!r},{z!r}]" for x, y, z in rows]
    return out


def encode_landmarks_frame(reply: LandmarksReply) -> bytes:
    """The frame encode_frame makes for the same reply, joined from its parts.

    Keys go in sorted order at both levels, ints are written with str (as
    json.dumps writes them) and positions are joined from their fragments.
    """
    text = "".join((
        '{"body":{"class_ids":[', ",".join(map(str, reply.class_ids)),
        '],"landmark_ids":[', ",".join(map(str, reply.landmark_ids)),
        '],"map_version":', str(reply.map_version),
        ',"n_candidates":', str(reply.n_candidates),
        ',"positions":[', ",".join(reply.positions),
        ']},"cid":', str(reply.cid),
        ',"kind":"landmarks","token":', str(reply.token), "}",
    ))
    return _framed(text.encode("utf-8"))


def decode_body(raw: bytes) -> Message:
    """Parse and validate one frame body."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame body must be a JSON object")
    extra = set(payload) - {"body", "cid", "kind", "token"}
    if extra:
        raise ProtocolError(f"unexpected envelope keys: {sorted(extra)}")
    missing = {"body", "cid", "kind", "token"} - set(payload)
    if missing:
        raise ProtocolError(f"missing envelope keys: {sorted(missing)}")
    try:
        kind = MessageKind(payload["kind"])
    except ValueError:
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
        if code not in _ERROR_CODES:
            raise ProtocolError(f"error reply carries unknown code {code!r}")
    return Message(kind=kind, cid=cid, token=token, body=body)


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
    raw = read_frame(stream)
    if raw is None:
        return None
    return decode_body(raw)
