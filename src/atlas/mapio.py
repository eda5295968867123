"""Map persistence.

A map is one self-describing JSON document with sorted keys and no
insignificant whitespace, so saving the same map twice produces identical
bytes.  It is written straight from the map's columns: the body is dumped
once, and its sha256 checksum is spliced in front as the first key, which
keeps the document canonical since "checksum" sorts before every other key.
The checksum guards against torn or corrupted files: a load either returns
a fully validated map or raises, never a partial map.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable
from itertools import pairwise
from pathlib import Path

import numpy as np

from atlas.mapcore import MapValidationError, MultiSessionMap, SessionKind, SessionRecord, rows_of


class MapFormatError(MapValidationError):
    """The byte stream is not a well-formed map document."""


class ChecksumMismatchError(MapFormatError):
    """The document parsed but its checksum does not match its content."""


class UnsupportedVersionError(MapFormatError):
    """The document declares a format version this code does not read."""


def _canonical(doc: dict) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False).encode("utf-8")


def dumps_map(m: MultiSessionMap) -> bytes:
    """Serialize to canonical bytes (deterministic for equal map content)."""
    pair_spans, obs_spans = (  # (start, end) of each landmark's entries, sorted by landmark row
        pairwise([0, *np.cumsum(np.bincount(rows, minlength=len(m.landmark_ids))).tolist()])
        for rows in (m.pair_landmarks, m.obs_landmarks)
    )
    sessions = m.pair_sessions[np.argsort(m.pair_landmarks, kind="stable")].tolist()
    keys, counts = m.vertex_ids[m.obs_vertices].astype(str).tolist(), m.obs_counts.tolist()
    vertices = zip(m.vertex_ids.tolist(), m.vertex_poses.tolist(), m.vertex_sessions.tolist())
    landmarks = zip(
        m.landmark_ids.tolist(), m.landmark_positions.tolist(), m.landmark_origins.tolist(),
        pair_spans, obs_spans,
    )
    body = _canonical({
        "format_version": MultiSessionMap.FORMAT_VERSION,
        "landmark_cap": m.landmark_cap,
        "sessions": [
            {"id": s.id, "kind": s.kind.value, "timestamp": s.timestamp, "label": s.label}
            for s in m.sessions
        ],
        "vertices": [{"id": i, "pose": pose, "session": s} for i, pose, s in vertices],
        "landmarks": [
            {"id": i, "position": position, "origin_session": origin, "sessions": sessions[a:b],
             "obs_counts": dict(zip(keys[c:d], counts[c:d]))}
            for i, position, origin, (a, b), (c, d) in landmarks
        ],
    })
    return b'{"checksum":"' + hashlib.sha256(body).hexdigest().encode() + b'",' + body[1:]


def save_map(m: MultiSessionMap, path: str | Path) -> None:
    Path(path).write_bytes(dumps_map(m))


def _ints(values: Iterable) -> np.ndarray:
    return np.array([int(v) for v in values], dtype=np.int64)


def map_from_document(doc: dict) -> MultiSessionMap:
    if not isinstance(doc, dict):
        raise MapFormatError("map document must be a JSON object")
    version = doc.get("format_version")
    if version != MultiSessionMap.FORMAT_VERSION:
        raise UnsupportedVersionError(f"unsupported map format version {version!r}")
    try:
        expected = doc.get("checksum")
        body = {k: v for k, v in doc.items() if k != "checksum"}
        if expected is not None and hashlib.sha256(_canonical(body)).hexdigest() != expected:
            raise ChecksumMismatchError("map checksum does not match content")
        sessions = [SessionRecord(int(s["id"]), SessionKind(s["kind"]), int(s["timestamp"]),
                                  str(s.get("label", ""))) for s in doc["sessions"]]
        vertices = sorted(doc["vertices"], key=lambda v: int(v["id"]))
        landmarks = sorted(doc["landmarks"], key=lambda l: int(l["id"]))
        vertex_ids = _ints(v["id"] for v in vertices)
        landmark_ids = _ints(l["id"] for l in landmarks)
        for kind, ids in (("vertex", vertex_ids), ("landmark", landmark_ids)):
            if np.any(np.diff(ids) == 0):
                raise MapFormatError(f"a {kind} id is listed more than once")

        def require_ascending(rows: np.ndarray, keys: np.ndarray, problem: str) -> None:
            """MapFormatError naming the first landmark whose keys do not strictly
            ascend; rows holds each key's landmark row, ascending."""
            falls = (np.diff(rows) == 0) & (np.diff(keys) <= 0)
            if falls.any():
                raise MapFormatError(f"landmark {landmark_ids[rows[np.argmax(falls)]]} {problem}")

        rows, origins = np.arange(len(landmarks)), _ints(l["origin_session"] for l in landmarks)
        n_sessions = [len(l["sessions"]) for l in landmarks]
        if 0 in n_sessions:
            raise MapFormatError("a landmark lists no observing sessions")
        pair_landmarks = np.repeat(rows, n_sessions)
        pair_sessions = _ints(s for l in landmarks for s in l["sessions"])
        require_ascending(pair_landmarks, pair_sessions, "sessions must be increasing")
        # Pairs go back in the order ingestion records them: by session, and
        # within a rich session its own landmarks before those it re-observed.
        own = pair_sessions == origins[pair_landmarks]
        recorded = np.lexsort((pair_landmarks, ~own, pair_sessions))
        observed = [l["obs_counts"] for l in landmarks]
        obs_landmarks = np.repeat(rows, [len(o) for o in observed])
        obs_vertices = rows_of(
            vertex_ids, _ints(v for o in observed for v in o), "observation from unknown vertex {}",
            MapFormatError,
        )
        by_vertex = np.lexsort((obs_vertices, obs_landmarks))
        require_ascending(obs_landmarks[by_vertex], obs_vertices[by_vertex], "lists a vertex twice")
        return MultiSessionMap.from_columns(
            int(doc["landmark_cap"]),
            sessions,
            vertex_ids=vertex_ids,
            vertex_poses=[v["pose"] for v in vertices],
            vertex_sessions=_ints(v["session"] for v in vertices),
            landmark_ids=landmark_ids,
            landmark_positions=[l["position"] for l in landmarks],
            landmark_origins=origins,
            pair_landmarks=pair_landmarks[recorded],
            pair_sessions=pair_sessions[recorded],
            obs_landmarks=obs_landmarks[by_vertex],
            obs_vertices=obs_vertices[by_vertex],
            obs_counts=_ints(c for o in observed for c in o.values())[by_vertex],
        )
    except MapValidationError:
        raise
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise MapFormatError(f"malformed map document: {exc}") from exc


def loads_map(data: bytes | str) -> MultiSessionMap:
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MapFormatError(f"not a JSON map document: {exc}") from exc
    return map_from_document(doc)


def load_map(path: str | Path) -> MultiSessionMap:
    return loads_map(Path(path).read_bytes())
