"""Multi-session landmark map.

A map accumulates vehicle sorties as sessions of two kinds: rich sessions
contribute new vertices and new landmarks, observation sessions only mark
existing landmarks as re-observed.  Landmarks carry the ordered set of
sessions that observed them; grouping landmarks by identical session sets
yields the appearance equivalence classes used by ranking and selection.

All poses are planar (x, y, heading); landmark positions are 3-D points in
the single map reference frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

# Sentinel cap for "never summarize".  A plain large integer so the cap is
# always an int, including in the JSON map format.
UNBOUNDED_CAP = 2**62


class MapValidationError(ValueError):
    """Raised when an update or a loaded document violates map invariants."""


class SessionKind(str, Enum):
    RICH = "rich"
    OBSERVATION = "observation"


def _wrap_heading(h: float) -> float:
    """Normalize a heading to [-pi, pi)."""
    return float((h + math.pi) % (2.0 * math.pi) - math.pi)


@dataclass
class SessionRecord:
    id: int
    kind: SessionKind
    timestamp: int
    label: str = ""


@dataclass
class Vertex:
    """A planar trajectory pose owned by the rich session that created it."""

    id: int
    pose: np.ndarray  # (x, y, heading)
    session: int

    def __post_init__(self) -> None:
        pose = np.asarray(self.pose, dtype=np.float64)
        if pose.shape != (3,) or not np.all(np.isfinite(pose)):
            raise MapValidationError(f"vertex {self.id}: pose must be 3 finite floats")
        pose[2] = _wrap_heading(pose[2])
        self.pose = pose


@dataclass
class Landmark:
    """A 3-D landmark and the record of who observed it from where.

    sessions is insertion-ordered and strictly increasing (session ids are
    monotone), and always contains origin_session.  obs_counts maps vertex id
    to the number of recorded observations from that vertex, aggregated over
    all sessions.
    """

    id: int
    position: np.ndarray  # (x, y, z)
    origin_session: int
    sessions: list[int] = field(default_factory=list)
    obs_counts: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        pos = np.asarray(self.position, dtype=np.float64)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise MapValidationError(f"landmark {self.id}: position must be 3 finite floats")
        self.position = pos
        if not self.sessions:
            self.sessions = [self.origin_session]

    @property
    def session_key(self) -> tuple[int, ...]:
        """Canonical appearance-class key: the sorted tuple of session ids."""
        return tuple(sorted(self.sessions))

    @property
    def total_observations(self) -> int:
        return sum(self.obs_counts.values())

    def copy(self) -> "Landmark":
        return Landmark(
            id=self.id,
            position=self.position.copy(),
            origin_session=self.origin_session,
            sessions=list(self.sessions),
            obs_counts=dict(self.obs_counts),
        )


@dataclass
class NewLandmark:
    """A landmark proposal for rich-session ingestion.

    observations maps an index into the ingested pose sequence to an
    observation count; a proposal needs at least two observing poses to be
    considered triangulated.  id is normally left None and assigned by the
    map, which is the only id authority.
    """

    position: np.ndarray
    observations: dict[int, int]
    id: int | None = None


class EquivalenceClassIndex:
    """Partition of landmarks into appearance equivalence classes.

    Two landmarks are equivalent when they were observed by exactly the same
    set of sessions.  Class ids are assigned by sorting the canonical session
    tuples, so the numbering is deterministic for a given map state.  The
    index is rebuilt lazily after every ingestion or removal.

    The class keys are also held in CSR form: the sessions of class c are
    key_sessions[key_ptr[c]:key_ptr[c + 1]], ascending.
    """

    def __init__(self, landmarks: Mapping[int, Landmark]):
        members: dict[tuple[int, ...], list[int]] = {}
        for lm in landmarks.values():
            members.setdefault(lm.session_key, []).append(lm.id)
        self.keys: list[tuple[int, ...]] = sorted(members)
        self.key_to_class: dict[tuple[int, ...], int] = {k: i for i, k in enumerate(self.keys)}
        self.members: dict[int, list[int]] = {
            self.key_to_class[k]: sorted(ids) for k, ids in members.items()
        }
        self.class_of: dict[int, int] = {}
        for cid, ids in self.members.items():
            for lid in ids:
                self.class_of[lid] = cid
        self.key_ptr = np.zeros(len(self.keys) + 1, dtype=np.int64)
        np.cumsum([len(k) for k in self.keys], out=self.key_ptr[1:])
        self.key_sessions = np.fromiter(
            (s for k in self.keys for s in k), dtype=np.int64, count=int(self.key_ptr[-1])
        )

    def __len__(self) -> int:
        return len(self.keys)

    def class_key(self, class_id: int) -> tuple[int, ...]:
        return self.keys[class_id]

    def class_of_landmark(self, landmark_id: int) -> int:
        try:
            return self.class_of[landmark_id]
        except KeyError:
            raise KeyError(f"landmark {landmark_id} is not in the index") from None

    def classes_of(self, landmark_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Class id of each landmark, in input order, as an int64 array."""
        try:
            return np.fromiter(
                (self.class_of[int(i)] for i in landmark_ids),
                dtype=np.int64,
                count=len(landmark_ids),
            )
        except KeyError as exc:
            raise KeyError(f"landmark {exc.args[0]} is not in the index") from None


class MultiSessionMap:
    """The landmark map shared by all sessions.

    Mutating operations validate their whole payload before touching any
    state, so a rejected update leaves the map exactly as it was.
    """

    FORMAT_VERSION = 1

    def __init__(self, landmark_cap: int = UNBOUNDED_CAP):
        if not isinstance(landmark_cap, int) or landmark_cap <= 0:
            raise MapValidationError("landmark_cap must be a positive integer")
        self.landmark_cap = landmark_cap
        self.sessions: list[SessionRecord] = []
        self.vertices: dict[int, Vertex] = {}
        self.landmarks: dict[int, Landmark] = {}
        self._next_vertex_id = 1
        self._next_landmark_id = 1
        self._index: EquivalenceClassIndex | None = EquivalenceClassIndex({})
        self._version = 0
        self._spatial_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._vertex_cache: tuple[np.ndarray, np.ndarray] | None = None

    # -- Read operations --

    @property
    def index(self) -> EquivalenceClassIndex:
        if self._index is None:
            self._index = EquivalenceClassIndex(self.landmarks)
        return self._index

    @property
    def version(self) -> int:
        """Monotone counter, bumped by every successful mutation."""
        return self._version

    @property
    def n_rich_sessions(self) -> int:
        return sum(1 for s in self.sessions if s.kind is SessionKind.RICH)

    @property
    def n_observation_sessions(self) -> int:
        return sum(1 for s in self.sessions if s.kind is SessionKind.OBSERVATION)

    def landmarks_created_by(self, session_id: int) -> list[int]:
        """Ids of landmarks whose origin is the given session, insertion order."""
        return [lm.id for lm in self.landmarks.values() if lm.origin_session == session_id]

    def landmark_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, positions) with ids ascending; cached until the map changes."""
        if self._spatial_cache is None:
            ids = np.fromiter(sorted(self.landmarks), dtype=np.int64, count=len(self.landmarks))
            pos = (
                np.stack([self.landmarks[int(i)].position for i in ids])
                if len(ids)
                else np.empty((0, 3))
            )
            self._spatial_cache = (ids, pos)
        return self._spatial_cache

    def vertex_array(self) -> tuple[np.ndarray, np.ndarray]:
        """(ids, xy positions) for vertices, ids ascending; cached."""
        if self._vertex_cache is None:
            ids = np.fromiter(sorted(self.vertices), dtype=np.int64, count=len(self.vertices))
            xy = (
                np.stack([self.vertices[int(i)].pose[:2] for i in ids])
                if len(ids)
                else np.empty((0, 2))
            )
            self._vertex_cache = (ids, xy)
        return self._vertex_cache

    def candidate_mask(
        self, query_poses: Sequence[Sequence[float]] | np.ndarray, radius: float
    ) -> np.ndarray:
        """Row k marks the landmarks within `radius` (inclusive) of query pose k.

        Columns follow landmark_array order.  Distance is Euclidean between
        the landmark position and the planar query point lifted to z = 0.
        """
        if radius < 0 or not np.isfinite(radius):
            raise ValueError("radius must be finite and non-negative")
        _, pos = self.landmark_array()
        q = np.asarray(query_poses, dtype=np.float64)
        dx = q[:, 0:1] - pos[None, :, 0]
        dy = q[:, 1:2] - pos[None, :, 1]
        return dx * dx + dy * dy + pos[None, :, 2] ** 2 <= radius * radius

    def candidate_set(self, query_pose: Sequence[float], radius: float) -> np.ndarray:
        """Ids of landmarks within `radius` (inclusive) of the query position, ascending."""
        ids, _ = self.landmark_array()
        return ids[self.candidate_mask([query_pose], radius)[0]]

    def nearest_vertex(self, query_pose: Sequence[float]) -> int:
        """Id of the vertex closest (planar) to the query pose; lowest id wins ties."""
        ids, xy = self.vertex_array()
        if len(ids) == 0:
            raise MapValidationError("map has no vertices")
        d2 = np.sum((xy - np.asarray(query_pose[:2], dtype=np.float64)) ** 2, axis=1)
        return int(ids[int(np.argmin(d2))])  # argmin takes the first, ids ascending

    # -- Session ingestion --

    def _next_session_stamp(self) -> tuple[int, int]:
        sid = self.sessions[-1].id + 1 if self.sessions else 1
        ts = self.sessions[-1].timestamp + 1 if self.sessions else 1
        return sid, ts

    def add_rich_session(
        self,
        poses: Sequence[Sequence[float]],
        new_landmarks: Iterable[NewLandmark],
        observed_existing: Mapping[int, Mapping[int, int]] | None = None,
        label: str = "",
    ) -> int:
        """Ingest a mapping sortie.

        Adds one vertex per pose, one landmark per proposal, marks the
        existing landmarks that were re-observed during the sortie's
        localization (observed_existing maps landmark id to per-pose-index
        counts, attributed to the new vertices), and appends a rich
        SessionRecord.  The whole payload is validated first; on any error
        the map is unchanged.
        """
        proposals = list(new_landmarks)
        observed_existing = dict(observed_existing or {})
        n_poses = len(poses)
        if n_poses == 0:
            raise MapValidationError("a rich session needs at least one pose")
        try:
            pose_rows = np.asarray(poses, dtype=np.float64)
        except ValueError as exc:
            raise MapValidationError(f"malformed pose sequence: {exc}") from exc
        if pose_rows.shape != (n_poses, 3) or not np.all(np.isfinite(pose_rows)):
            raise MapValidationError("poses must be finite (x, y, heading) triples")

        explicit_ids = [p.id for p in proposals if p.id is not None]
        if len(set(explicit_ids)) != len(explicit_ids):
            raise MapValidationError("duplicate explicit landmark ids in proposals")
        for lid in explicit_ids:
            if lid in self.landmarks:
                raise MapValidationError(f"proposal id {lid} already exists in the map")
        for p in proposals:
            obs = {int(k): int(v) for k, v in p.observations.items()}
            if len([c for c in obs.values() if c > 0]) < 2:
                raise MapValidationError("each new landmark needs >= 2 observing poses")
            if any(c <= 0 for c in obs.values()):
                raise MapValidationError("observation counts must be positive")
            if any(not 0 <= k < n_poses for k in obs):
                raise MapValidationError("proposal references a pose index out of range")
        for lid, per_pose in observed_existing.items():
            if lid not in self.landmarks:
                raise MapValidationError(f"observed landmark {lid} is not in the map")
            if not per_pose or any(c <= 0 for c in per_pose.values()):
                raise MapValidationError("observed counts must be non-empty and positive")
            if any(not 0 <= k < n_poses for k in per_pose):
                raise MapValidationError("observation references a pose index out of range")
        # Validation done, now mutate.
        sid, ts = self._next_session_stamp()
        self.sessions.append(SessionRecord(sid, SessionKind.RICH, ts, label))
        vertex_ids = []
        for pose in pose_rows:
            vid = self._next_vertex_id
            self._next_vertex_id += 1
            self.vertices[vid] = Vertex(vid, pose.copy(), sid)
            vertex_ids.append(vid)
        for p in proposals:
            if p.id is not None:
                self._next_landmark_id = max(self._next_landmark_id, p.id + 1)
        for p in proposals:
            if p.id is None:
                lid = self._next_landmark_id
                self._next_landmark_id += 1
            else:
                lid = p.id
            counts = {vertex_ids[int(k)]: int(v) for k, v in p.observations.items()}
            self.landmarks[lid] = Landmark(
                id=lid, position=p.position, origin_session=sid, obs_counts=counts
            )
        for lid, per_pose in observed_existing.items():
            lm = self.landmarks[lid]
            lm.sessions.append(sid)
            for k, c in per_pose.items():
                vid = vertex_ids[int(k)]
                lm.obs_counts[vid] = lm.obs_counts.get(vid, 0) + int(c)
        self._mutated()
        return sid

    def add_observation_session(
        self,
        observed: Mapping[int, Mapping[int, int]],
        label: str = "",
    ) -> int:
        """Ingest a lightweight sortie: mark existing landmarks as observed.

        observed maps landmark id to per-vertex observation counts against
        existing vertices.  No vertices and no landmarks are added.  Atomic:
        any unknown landmark or vertex id rejects the whole update.
        """
        observed = {int(k): dict(v) for k, v in observed.items()}
        for lid, counts in observed.items():
            if lid not in self.landmarks:
                raise MapValidationError(f"observed landmark {lid} is not in the map")
            if not counts or any(c <= 0 for c in counts.values()):
                raise MapValidationError("observed counts must be non-empty and positive")
            for vid in counts:
                if vid not in self.vertices:
                    raise MapValidationError(f"observed vertex {vid} is not in the map")
        sid, ts = self._next_session_stamp()
        self.sessions.append(SessionRecord(sid, SessionKind.OBSERVATION, ts, label))
        for lid, counts in observed.items():
            lm = self.landmarks[lid]
            lm.sessions.append(sid)
            for vid, c in counts.items():
                lm.obs_counts[vid] = lm.obs_counts.get(vid, 0) + int(c)
        self._mutated()
        return sid

    def drop_landmarks(self, landmark_ids: Iterable[int]) -> None:
        """Remove landmarks (summarization).  Vertices and sessions stay."""
        ids = list(landmark_ids)
        for lid in ids:
            if lid not in self.landmarks:
                raise MapValidationError(f"cannot drop unknown landmark {lid}")
        for lid in ids:
            del self.landmarks[lid]
        self._mutated()

    def _mutated(self) -> None:
        self._version += 1
        self._index = None
        self._spatial_cache = None
        self._vertex_cache = None

    # -- Copy and validation --

    def copy(self) -> "MultiSessionMap":
        m = MultiSessionMap(landmark_cap=self.landmark_cap)
        m.sessions = [SessionRecord(s.id, s.kind, s.timestamp, s.label) for s in self.sessions]
        m.vertices = {vid: Vertex(v.id, v.pose.copy(), v.session) for vid, v in self.vertices.items()}
        m.landmarks = {lid: lm.copy() for lid, lm in self.landmarks.items()}
        m._next_vertex_id = self._next_vertex_id
        m._next_landmark_id = self._next_landmark_id
        m._version = self._version
        m._index = None
        return m

    def validate(self) -> None:
        """Check every structural invariant; raise MapValidationError on the first hit."""
        session_ids = [s.id for s in self.sessions]
        if session_ids != sorted(set(session_ids)):
            raise MapValidationError("session ids must be unique and increasing")
        timestamps = [s.timestamp for s in self.sessions]
        if any(b <= a for a, b in zip(timestamps, timestamps[1:])):
            raise MapValidationError("session timestamps must be strictly increasing")
        known_sessions = {s.id: s for s in self.sessions}
        for v in self.vertices.values():
            owner = known_sessions.get(v.session)
            if owner is None or owner.kind is not SessionKind.RICH:
                raise MapValidationError(f"vertex {v.id} must belong to a rich session")
        for lm in self.landmarks.values():
            if not lm.sessions:
                raise MapValidationError(f"landmark {lm.id} has no observing sessions")
            if lm.sessions != sorted(set(lm.sessions)):
                raise MapValidationError(f"landmark {lm.id}: sessions must be increasing")
            if lm.origin_session not in lm.sessions:
                raise MapValidationError(f"landmark {lm.id}: origin session missing from sessions")
            for sid in lm.sessions:
                if sid not in known_sessions:
                    raise MapValidationError(f"landmark {lm.id} references unknown session {sid}")
            if not lm.obs_counts:
                raise MapValidationError(f"landmark {lm.id} has no observations")
            for vid, c in lm.obs_counts.items():
                if vid not in self.vertices:
                    raise MapValidationError(f"landmark {lm.id} references unknown vertex {vid}")
                if not isinstance(c, int) or c <= 0:
                    raise MapValidationError(f"landmark {lm.id}: counts must be positive ints")
        if len(self.landmarks) > self.landmark_cap:
            # The cap is enforced by the sortie pipeline, not by raw ingestion,
            # but a persisted map must never violate it.
            raise MapValidationError("landmark count exceeds the map's cap")
