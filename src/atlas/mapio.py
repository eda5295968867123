"""Map persistence.

A map is one self-describing JSON document with sorted keys and no
insignificant whitespace, so saving the same map twice produces identical
bytes.  A sha256 checksum over the canonical payload (computed with the
checksum field absent) guards against torn or corrupted files: a load either
returns a fully validated map or raises, never a partial map.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from atlas.mapcore import (
    Landmark,
    MapValidationError,
    MultiSessionMap,
    SessionKind,
    SessionRecord,
    Vertex,
)


class MapFormatError(MapValidationError):
    """The byte stream is not a well-formed map document."""


class ChecksumMismatchError(MapFormatError):
    """The document parsed but its checksum does not match its content."""


class UnsupportedVersionError(MapFormatError):
    """The document declares a format version this code does not read."""


def _canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def map_to_document(m: MultiSessionMap) -> dict:
    doc = {
        "format_version": MultiSessionMap.FORMAT_VERSION,
        "landmark_cap": m.landmark_cap,
        "sessions": [
            {"id": s.id, "kind": s.kind.value, "timestamp": s.timestamp, "label": s.label}
            for s in m.sessions
        ],
        "vertices": [
            {"id": v.id, "pose": v.pose.tolist(), "session": v.session} for v in m.vertices.values()
        ],
        "landmarks": [
            {
                "id": lm.id,
                "position": lm.position.tolist(),
                "origin_session": lm.origin_session,
                "sessions": lm.sessions,
                "obs_counts": {str(vid): c for vid, c in lm.obs_counts.items()},
            }
            for lm in m.landmarks.values()
        ],
    }
    doc["checksum"] = hashlib.sha256(_canonical(doc)).hexdigest()
    return doc


def dumps_map(m: MultiSessionMap) -> bytes:
    """Serialize to canonical bytes (deterministic for equal map content)."""
    return _canonical(map_to_document(m))


def save_map(m: MultiSessionMap, path: str | Path) -> None:
    Path(path).write_bytes(dumps_map(m))


def map_from_document(doc: dict) -> MultiSessionMap:
    if not isinstance(doc, dict):
        raise MapFormatError("map document must be a JSON object")
    version = doc.get("format_version")
    if version != MultiSessionMap.FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported map format version {version!r}")
    expected = doc.get("checksum")
    if expected is not None:
        body = {k: v for k, v in doc.items() if k != "checksum"}
        actual = hashlib.sha256(_canonical(body)).hexdigest()
        if actual != expected:
            raise ChecksumMismatchError("map checksum does not match content")
    try:
        sessions = [
            SessionRecord(
                id=int(s["id"]),
                kind=SessionKind(s["kind"]),
                timestamp=int(s["timestamp"]),
                label=str(s.get("label", "")),
            )
            for s in doc["sessions"]
        ]
        vertices = [
            Vertex(id=int(v["id"]), pose=v["pose"], session=int(v["session"]))
            for v in doc["vertices"]
        ]
        landmarks = [
            Landmark(
                id=int(l["id"]),
                position=l["position"],
                origin_session=int(l["origin_session"]),
                sessions=[int(s) for s in l["sessions"]],
                obs_counts={int(k): int(c) for k, c in l["obs_counts"].items()},
            )
            for l in doc["landmarks"]
        ]
        for kind, records in (("vertex", vertices), ("landmark", landmarks)):
            if len({r.id for r in records}) != len(records):
                raise MapFormatError(f"a {kind} id is listed more than once")
        for lm, l in zip(landmarks, doc["landmarks"]):
            if len(lm.obs_counts) != len(l["obs_counts"]):
                raise MapFormatError(f"landmark {lm.id} lists a vertex id more than once")
        if not all(lm.sessions for lm in landmarks):
            raise MapFormatError("a landmark lists no observing sessions")
        return MultiSessionMap.from_records(int(doc["landmark_cap"]), sessions, vertices, landmarks)
    except MapValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"malformed map document: {exc}") from exc


def loads_map(data: bytes | str) -> MultiSessionMap:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"not a JSON map document: {exc}") from exc
    return map_from_document(doc)


def load_map(path: str | Path) -> MultiSessionMap:
    return loads_map(Path(path).read_bytes())
