"""Multi-session landmark map.

A map accumulates vehicle sorties as sessions of two kinds: rich sessions
contribute new vertices and new landmarks, observation sessions only mark
existing landmarks as re-observed.  Landmarks carry the ordered set of
sessions that observed them; grouping landmarks by identical session sets
yields the appearance equivalence classes used by ranking and selection.

All poses are planar (x, y, heading); landmark positions are 3-D points in
the single map reference frame.

The map is stored as columns, after the summary maps of Muehlfellner et
al. (JFR 2016): vertex ids, poses and owner sessions; landmark ids,
positions and origin sessions; the (landmark, session) pairs; and the
(landmark, vertex, count) observation triples.  Ids ascend down their
column.  Pairs and triples name landmarks and vertices by row; pairs are
kept in the order they were recorded, so each landmark's sessions ascend,
and triples are sorted by (landmark row, vertex row).  Every stored array
is read-only: a mutation builds new arrays and assigns them, so a copy
shares all of them with its original.  Ingestion takes observations in the
same form, as int64 (landmark, pose or vertex, count) rows.  `landmarks`
and `vertices` are read-only views that build Landmark and Vertex records
on access, for readers of one landmark at a time; map documents are
written from the columns and read back into them (`from_columns`).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from copy import copy as shallow_copy
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Sentinel cap for "never summarize".  A plain large integer so the cap is
# always an int, including in the JSON map format.
UNBOUNDED_CAP = 2**62


class MapValidationError(ValueError):
    """Raised when an update or a loaded document violates map invariants."""


class SessionKind(str, Enum):
    RICH = "rich"
    OBSERVATION = "observation"


def _wrap_headings(h: np.ndarray) -> np.ndarray:
    """Normalize headings to [-pi, pi)."""
    return (h + math.pi) % (2.0 * math.pi) - math.pi


def _triples(values: Sequence[Sequence[float]] | np.ndarray, what: str, dtype: type) -> np.ndarray:
    """values as a new (len(values), 3) array; MapValidationError unless that shape and finite."""
    try:
        triples = np.array(values, dtype=dtype).reshape(len(values), 3)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MapValidationError(f"malformed {what}: {exc}") from exc
    if not np.all(np.isfinite(triples)):
        raise MapValidationError(f"{what} must be finite")
    return triples


def rows_of(
    ids: np.ndarray, keys: Iterable[int], message: str, error: type = MapValidationError
) -> np.ndarray:
    """Rows of keys in the ascending id column; error(message) names the first absent key."""
    keys = np.array(keys if isinstance(keys, np.ndarray) else list(keys), dtype=np.int64)
    rows = np.searchsorted(ids, keys)
    found = rows < len(ids)
    found[found] = ids[rows[found]] == keys[found]
    if not found.all():
        raise error(message.format(keys[np.argmin(found)]))
    return rows


def check_new_landmarks(
    n_poses: int,
    positions: Sequence[Sequence[float]] | np.ndarray,
    new_observations: Sequence[Sequence[int]] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """New (n, 3) float64 positions and (k, 3) int64 observation rows, checked.

    Each observation row is (row of positions, pose index, count) against a
    sortie of n_poses poses.  MapValidationError unless every position is a
    finite 3-D point, every row and pose index is in range, every count is
    positive and every new landmark has at least two observing poses.
    """
    positions = _triples(positions, "new positions", np.float64)
    new = _triples(new_observations, "new observations", np.int64)
    n_new = len(positions)
    rows_of(np.arange(n_new), new[:, 0], "new landmark row {} out of range")
    if np.any(np.bincount(new[:, 0], minlength=n_new) < 2):
        raise MapValidationError("each new landmark needs >= 2 observing poses")
    rows_of(np.arange(n_poses), new[:, 1], "observation from pose index {} out of range")
    if np.any(new[:, 2] <= 0):
        raise MapValidationError("observation counts must be positive")
    return positions, new


def within_radius(
    query_poses: Sequence[Sequence[float]] | np.ndarray, positions: np.ndarray, radius: float
) -> np.ndarray:
    """Row k marks the positions within `radius` (inclusive) of query pose k.

    Distance is Euclidean between the 3-D position and the planar query
    point lifted to z = 0.  This is the one candidate test: every candidate
    search applies it, to all landmarks or to a prefiltered superset of
    the ones it accepts.
    """
    if radius < 0 or not np.isfinite(radius):
        raise ValueError("radius must be finite and non-negative")
    q = np.asarray(query_poses, dtype=np.float64)
    dx = q[:, 0:1] - positions[None, :, 0]
    dy = q[:, 1:2] - positions[None, :, 1]
    return dx * dx + dy * dy + positions[None, :, 2] ** 2 <= radius * radius


@dataclass(frozen=True)
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


@dataclass
class Landmark:
    """A 3-D landmark and the record of who observed it from where.

    sessions is strictly increasing and always contains origin_session.
    obs_counts maps vertex id to the number of recorded observations from
    that vertex, aggregated over all sessions.  A record is a copy built
    from the map's columns; changing it does not change the map.
    """

    id: int
    position: np.ndarray  # (x, y, z)
    origin_session: int
    sessions: list[int]
    obs_counts: dict[int, int]


class _Records(Mapping):
    """Read-only id -> record view of a column; records are built on access."""

    def __init__(self, ids: np.ndarray, record: Callable[[int], object]):
        self._ids = ids
        self._record = record

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._ids.tolist())

    def __getitem__(self, key: int):
        if not isinstance(key, (int, np.integer)):
            raise KeyError(key)
        return self._record(int(rows_of(self._ids, [key], "{}", KeyError)[0]))


class EquivalenceClassIndex:
    """Partition of landmarks into appearance equivalence classes.

    Two landmarks are equivalent when they were observed by exactly the same
    set of sessions.  Class ids are assigned by sorting the canonical session
    tuples, so the numbering is deterministic for a given map state.  The
    index is rebuilt lazily after every ingestion or removal.

    The class keys are also held as a dense bool (class, session) incidence
    matrix, with one column per session of some key, ascending.  It is built
    with the index, so an index, once made, is only ever read.
    """

    def __init__(self, m: MultiSessionMap):
        # One row per landmark holding its sessions, padded after the last one
        # with a value below every session id, so that sorting the rows
        # sorts the session tuples (a prefix sorts first).
        n = len(m.landmark_ids)
        order = np.argsort(m.pair_landmarks, kind="stable")  # keeps sessions ascending
        pair_rows = m.pair_landmarks[order]
        starts = np.searchsorted(pair_rows, np.arange(n))
        width = max(1, int(np.diff(starts, append=len(pair_rows)).max(initial=0)))
        pad = np.iinfo(np.int64).min
        padded = np.full((n, width), pad, dtype=np.int64)
        padded[pair_rows, np.arange(len(pair_rows)) - starts[pair_rows]] = m.pair_sessions[order]
        order = np.lexsort(padded.T[::-1])
        ordered = padded[order]
        first = np.ones(n, dtype=bool)
        first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        unique = ordered[first]
        filled = unique != pad
        self.ids = m.landmark_ids
        self.class_ids = np.empty(n, dtype=np.int64)
        self.class_ids[order] = np.cumsum(first) - 1
        self.keys: list[tuple[int, ...]] = [
            tuple(key[present].tolist()) for key, present in zip(unique, filled)
        ]
        sessions, column = np.unique(unique[filled], return_inverse=True)
        self.incidence = np.zeros((len(unique), len(sessions)), dtype=bool)
        self.incidence[np.nonzero(filled)[0], column] = True

    def __len__(self) -> int:
        return len(self.keys)

    def classes_of(self, landmark_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Class id of each landmark, in input order, as an int64 array."""
        rows = rows_of(self.ids, landmark_ids, "landmark {} is not in the index", KeyError)
        return self.class_ids[rows]


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
        self._version = 0
        self.sessions: list[SessionRecord] = []
        ints, points = np.empty(0, dtype=np.int64), np.empty((0, 3))
        self._assign(
            vertex_ids=ints, vertex_poses=points, vertex_sessions=ints,
            landmark_ids=ints, landmark_positions=points, landmark_origins=ints,
            pair_landmarks=ints, pair_sessions=ints,
            obs_landmarks=ints, obs_vertices=ints, obs_counts=ints,
        )
        self._next_landmark_id = 1

    @classmethod
    def from_columns(
        cls, landmark_cap: int, sessions: Sequence[SessionRecord], **columns: np.ndarray
    ) -> "MultiSessionMap":
        """A validated map of the sessions and of every column the module docstring
        lists, in the form it sets out.  Poses and positions may be any (n, 3)
        nested sequences; headings are wrapped as on ingestion.  The map takes
        the other arrays.  The next landmark id is the largest id + 1."""
        m = cls(landmark_cap)
        if columns.keys() != {k for k, v in vars(m).items() if isinstance(v, np.ndarray)}:
            raise TypeError("from_columns takes every stored column, by name")
        m.sessions = list(sessions)
        poses = _triples(columns.pop("vertex_poses"), "vertex poses", np.float64)
        poses[:, 2] = _wrap_headings(poses[:, 2])
        positions = _triples(columns.pop("landmark_positions"), "positions", np.float64)
        m._assign(vertex_poses=poses, landmark_positions=positions, **columns)
        m._next_landmark_id = int(m.landmark_ids[-1]) + 1 if len(m.landmark_ids) else 1
        m.validate()
        return m

    # -- Read operations --

    @property
    def index(self) -> EquivalenceClassIndex:
        if self._index is None:
            self._index = EquivalenceClassIndex(self)
        return self._index

    @property
    def version(self) -> int:
        """Monotone counter, bumped by every successful mutation."""
        return self._version

    @property
    def landmarks(self) -> Mapping[int, Landmark]:
        """Read-only view: landmark id -> Landmark record, ids ascending."""
        return _Records(self.landmark_ids, self._landmark_record)

    @property
    def vertices(self) -> Mapping[int, Vertex]:
        """Read-only view: vertex id -> Vertex record, ids ascending."""
        return _Records(self.vertex_ids, self._vertex_record)

    def _landmark_record(self, row: int) -> Landmark:
        c, d = np.searchsorted(self.obs_landmarks, (row, row + 1))
        vertex_ids = self.vertex_ids[self.obs_vertices[c:d]].tolist()
        return Landmark(
            id=int(self.landmark_ids[row]),
            position=self.landmark_positions[row].copy(),
            origin_session=int(self.landmark_origins[row]),
            sessions=self.pair_sessions[self.pair_landmarks == row].tolist(),
            obs_counts=dict(zip(vertex_ids, self.obs_counts[c:d].tolist())),
        )

    def _vertex_record(self, row: int) -> Vertex:
        return Vertex(
            int(self.vertex_ids[row]), self.vertex_poses[row].copy(), int(self.vertex_sessions[row])
        )

    @property
    def n_rich_sessions(self) -> int:
        return sum(1 for s in self.sessions if s.kind is SessionKind.RICH)

    @property
    def n_observation_sessions(self) -> int:
        return sum(1 for s in self.sessions if s.kind is SessionKind.OBSERVATION)

    @property
    def next_landmark_id(self) -> int:
        """The id of the next landmark created: a rich session numbers its
        landmarks from here, in proposal order."""
        return self._next_landmark_id

    def landmarks_created_by(self, session_id: int) -> list[int]:
        """Ids of landmarks whose origin is the given session, ascending."""
        return self.landmark_ids[self.landmark_origins == session_id].tolist()

    def candidate_set(self, query_pose: Sequence[float], radius: float) -> np.ndarray:
        """Ids of landmarks within `radius` (inclusive) of the query position, ascending."""
        return self.landmark_ids[within_radius([query_pose], self.landmark_positions, radius)[0]]

    def nearest_vertices(self, query_poses: Sequence[Sequence[float]] | np.ndarray) -> np.ndarray:
        """Id of the vertex closest (planar) to each query pose; lowest id wins ties."""
        if len(self.vertex_ids) == 0:
            raise MapValidationError("map has no vertices")
        q = np.asarray(query_poses, dtype=np.float64)
        d2 = np.sum((self.vertex_poses[None, :, :2] - q[:, None, :2]) ** 2, axis=2)
        return self.vertex_ids[np.argmin(d2, axis=1)]  # argmin takes the first, ids ascending

    # -- Session ingestion --

    def _next_session_stamp(self) -> tuple[int, int]:
        sid = self.sessions[-1].id + 1 if self.sessions else 1
        ts = self.sessions[-1].timestamp + 1 if self.sessions else 1
        return sid, ts

    def add_rich_session(
        self,
        poses: Sequence[Sequence[float]] | np.ndarray,
        positions: Sequence[Sequence[float]] | np.ndarray,
        new_observations: Sequence[Sequence[int]] | np.ndarray,
        seen: Sequence[Sequence[int]] | np.ndarray | None = None,
        label: str = "",
    ) -> int:
        """Ingest a mapping sortie.

        Adds one vertex per pose and one landmark per row of positions, and
        appends a rich SessionRecord; the map assigns the new ids.
        positions and new_observations are as check_new_landmarks takes
        them.  seen holds (existing landmark id, pose index, count) rows:
        the landmarks re-observed during the sortie's localization,
        attributed to the new vertices.  The whole payload is validated
        first; on any error the map is unchanged.
        """
        n_poses = len(poses)
        if n_poses == 0:
            raise MapValidationError("a rich session needs at least one pose")
        pose_rows = _triples(poses, "poses", np.float64)
        positions, new = check_new_landmarks(n_poses, positions, new_observations)
        seen = _triples([] if seen is None else seen, "seen observations", np.int64)
        n_new = len(positions)
        n_vertices, n_landmarks = len(self.vertex_ids), len(self.landmark_ids)
        seen_rows = rows_of(self.landmark_ids, seen[:, 0], "observed landmark {} is not in the map")
        rows_of(np.arange(n_poses), seen[:, 1], "observation from pose index {} out of range")
        triples = self._with_observations(
            np.concatenate([n_landmarks + new[:, 0], seen_rows]),
            n_vertices + np.concatenate([new[:, 1], seen[:, 1]]),
            np.concatenate([new[:, 2], seen[:, 2]]),
            n_vertices + n_poses,
        )
        # Validation done, now build the new columns.
        rows = np.concatenate([n_landmarks + np.arange(n_new), np.unique(seen_rows)])
        first_vid = int(self.vertex_ids[-1]) + 1 if n_vertices else 1
        pose_rows[:, 2] = _wrap_headings(pose_rows[:, 2])
        sid, ts = self._next_session_stamp()
        self.sessions.append(SessionRecord(sid, SessionKind.RICH, ts, label))
        self._assign(
            vertex_ids=np.concatenate([self.vertex_ids, first_vid + np.arange(n_poses)]),
            vertex_poses=np.concatenate([self.vertex_poses, pose_rows]),
            vertex_sessions=np.concatenate([self.vertex_sessions, np.full(n_poses, sid)]),
            landmark_ids=np.concatenate(
                [self.landmark_ids, self._next_landmark_id + np.arange(n_new)]
            ),
            landmark_positions=np.concatenate([self.landmark_positions, positions]),
            landmark_origins=np.concatenate([self.landmark_origins, np.full(n_new, sid)]),
            pair_landmarks=np.concatenate([self.pair_landmarks, rows]),
            pair_sessions=np.concatenate([self.pair_sessions, np.full(len(rows), sid)]),
            **triples,
        )
        self._next_landmark_id += n_new
        self._version += 1
        return sid

    def add_observation_session(
        self, observations: Sequence[Sequence[int]] | np.ndarray, label: str = ""
    ) -> int:
        """Ingest a lightweight sortie: mark existing landmarks as observed.

        observations holds (landmark id, vertex id, count) rows against
        existing landmarks and vertices.  No vertices and no landmarks are
        added.  Atomic: any unknown landmark or vertex id rejects the whole
        update.
        """
        obs = _triples(observations, "observations", np.int64)
        rows = rows_of(self.landmark_ids, obs[:, 0], "observed landmark {} is not in the map")
        vertex_rows = rows_of(self.vertex_ids, obs[:, 1], "observed vertex {} is not in the map")
        triples = self._with_observations(rows, vertex_rows, obs[:, 2], len(self.vertex_ids))
        rows = np.unique(rows)
        sid, ts = self._next_session_stamp()
        self.sessions.append(SessionRecord(sid, SessionKind.OBSERVATION, ts, label))
        self._assign(
            pair_landmarks=np.concatenate([self.pair_landmarks, rows]),
            pair_sessions=np.concatenate([self.pair_sessions, np.full(len(rows), sid)]),
            **triples,
        )
        self._version += 1
        return sid

    def drop_landmarks(self, landmark_ids: Iterable[int]) -> None:
        """Remove landmarks (summarization).  Vertices and sessions stay."""
        rows = rows_of(self.landmark_ids, landmark_ids, "cannot drop unknown landmark {}")
        keep = np.ones(len(self.landmark_ids), dtype=bool)
        keep[rows] = False
        new_row = np.cumsum(keep) - 1
        pairs = keep[self.pair_landmarks]
        triples = keep[self.obs_landmarks]
        self._assign(
            landmark_ids=self.landmark_ids[keep],
            landmark_positions=self.landmark_positions[keep],
            landmark_origins=self.landmark_origins[keep],
            pair_landmarks=new_row[self.pair_landmarks[pairs]],
            pair_sessions=self.pair_sessions[pairs],
            obs_landmarks=new_row[self.obs_landmarks[triples]],
            obs_vertices=self.obs_vertices[triples],
            obs_counts=self.obs_counts[triples],
        )
        self._version += 1

    def _with_observations(
        self, rows: np.ndarray, vertex_rows: np.ndarray, counts: np.ndarray, n_vertices: int
    ) -> dict[str, np.ndarray]:
        """Triple columns with the given triples merged in, still sorted.

        The count of a (row, vertex row) pair already stored is added to it;
        the other triples are inserted where they belong.  n_vertices is the
        vertex count after the update.  MapValidationError, before anything
        is built, when a count is not positive or a given pair repeats.
        """
        if np.any(counts <= 0):
            raise MapValidationError("observation counts must be positive")
        key = rows * n_vertices + vertex_rows
        order = np.argsort(key)
        key, rows, vertex_rows, counts = key[order], rows[order], vertex_rows[order], counts[order]
        if np.any(key[1:] == key[:-1]):
            raise MapValidationError("an update names one (landmark, vertex) pair twice")
        stored = self.obs_landmarks * n_vertices + self.obs_vertices
        at = np.searchsorted(stored, key)
        hit = np.append(stored, -1)[at] == key  # keys are >= 0; at may be len(stored)
        summed = self.obs_counts.copy()
        summed[at[hit]] += counts[hit]
        new = ~hit
        return {
            "obs_landmarks": np.insert(self.obs_landmarks, at[new], rows[new]),
            "obs_vertices": np.insert(self.obs_vertices, at[new], vertex_rows[new]),
            "obs_counts": np.insert(summed, at[new], counts[new]),
        }

    def _assign(self, **columns: np.ndarray) -> None:
        """Install new columns read-only; the class index is rebuilt on next use."""
        for name, column in columns.items():
            column.flags.writeable = False
            setattr(self, name, column)
        self._index: EquivalenceClassIndex | None = None

    # -- Copy and validation --

    def copy(self) -> "MultiSessionMap":
        """The same map state, version and class index; the read-only columns
        are shared, not copied."""
        m = shallow_copy(self)
        m.sessions = list(self.sessions)
        return m

    def without_observation_sessions(self) -> "MultiSessionMap":
        """A copy with only the rich sessions and their pairs; every other column is shared.

        The observation triples keep what observation sessions added, since
        counts are stored per vertex, not per session.  Nothing that reads
        the class index reads them, so the view is for localization only.
        """
        m = self.copy()
        m.sessions = [s for s in self.sessions if s.kind is SessionKind.RICH]
        rich = np.isin(self.pair_sessions, [s.id for s in m.sessions])
        m._assign(pair_landmarks=self.pair_landmarks[rich], pair_sessions=self.pair_sessions[rich])
        return m

    def validate(self) -> None:
        """Check every structural invariant; raise MapValidationError on the first hit."""
        session_ids = [s.id for s in self.sessions]
        if session_ids != sorted(set(session_ids)):
            raise MapValidationError("session ids must be unique and increasing")
        timestamps = [s.timestamp for s in self.sessions]
        if any(b <= a for a, b in zip(timestamps, timestamps[1:])):
            raise MapValidationError("session timestamps must be strictly increasing")
        n = len(self.landmark_ids)
        if np.any(np.diff(self.vertex_ids) <= 0) or np.any(np.diff(self.landmark_ids) <= 0):
            raise MapValidationError("vertex and landmark ids must be unique and ascending")
        rich = [s.id for s in self.sessions if s.kind is SessionKind.RICH]
        owned = np.isin(self.vertex_sessions, rich)
        if not owned.all():
            vid = int(self.vertex_ids[np.argmin(owned)])
            raise MapValidationError(f"vertex {vid} must belong to a rich session")

        def require(ok: np.ndarray, rows: np.ndarray | None, problem: str) -> None:
            """ok holds per landmark row, or per entry of rows; name the first failure."""
            if not ok.all():
                row = np.argmin(ok) if rows is None else rows[np.argmin(ok)]
                raise MapValidationError(f"landmark {self.landmark_ids[row]} {problem}")

        pairs, sessions, triples = self.pair_landmarks, self.pair_sessions, self.obs_landmarks
        require(np.bincount(pairs, minlength=n) > 0, None, "has no observing sessions")
        require(np.isin(sessions, session_ids), pairs, "references an unknown session")
        # Keys that ascend exactly when each landmark's sessions, and each
        # landmark's observing vertices, ascend.
        pair_key = pairs * len(session_ids) + np.searchsorted(session_ids, sessions)
        order = np.argsort(pairs, kind="stable")
        ascending = np.diff(pair_key[order], prepend=-1) > 0
        require(ascending, pairs[order], "sessions must be increasing")
        is_origin = sessions == self.landmark_origins[pairs]
        require(np.bincount(pairs[is_origin], minlength=n) > 0, None, "origin session missing")
        require(np.bincount(triples, minlength=n) > 0, None, "has no observations")
        triple_key = triples * len(self.vertex_ids) + self.obs_vertices
        require(np.diff(triple_key, prepend=-1) > 0, triples, "observations must ascend by vertex")
        require(self.obs_counts > 0, triples, "counts must be positive ints")
        if n > self.landmark_cap:
            # The cap is enforced by the sortie pipeline, not by raw ingestion,
            # but a persisted map must never violate it.
            raise MapValidationError("landmark count exceeds the map's cap")
