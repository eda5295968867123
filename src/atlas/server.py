"""Networked map backend: sessions, ranked landmark queries, sortie uploads.

The backend owns one published map snapshot at a time.  Queries rank
candidate landmarks against the snapshot with the per-vehicle rolling
window and never block behind uploads; the frames of one session token
run one at a time under its lock.  Uploads run the full sortie
pipeline under a single writer lock and publish a fresh snapshot
atomically, so a query sees either the old map or the new one, never a
half-updated hybrid.  What is derived from a map version is published
with it in the same swap: the kernel registry the pipeline returned, and a
reply table holding the JSON text of each landmark's id and position and
of each class id.  ``landmarks`` replies are joined from those texts and
are byte-identical to what the canonical encoder ``encode_frame`` writes
for the same reply.  An upload in the layout the vehicle writes is read
straight from its frame into columns; any other frame is decoded as JSON.

Bandwidth accounting is byte-exact: every request and reply is counted
at the frame level (4-byte length prefix plus JSON body) by the same
code that produces the frames, both in total and attributed to the
session token that caused the traffic.  ``landmarks_sent`` counts the
landmarks inside ``landmarks`` replies, i.e. exactly the selections a
vehicle received instead of the whole map.
"""

from __future__ import annotations

import dataclasses
import json
import math
import socket
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .locsim import DEFAULT_THRESHOLD_M, process_sortie
from .mapcore import EquivalenceClassIndex, MultiSessionMap
from .protocol import (
    ERR_BAD_REPORT,
    ERR_BAD_REQUEST,
    ERR_NO_SESSION,
    REQUEST_KINDS,
    LandmarksReply,
    Message,
    MessageKind,
    ProtocolError,
    decode_body,
    encode_frame,
    encode_landmarks_frame,
    position_fragments,
    read_frame,
    upload_sortie_text,
)
from .ranking import (
    RollingSelectionStats,
    SelectionPolicy,
    parse_policy,
    select_from_arrays,
    update_window,
)
from .worldgen import KernelRegistry, SortieDataset, sortie_from_doc, sortie_from_json

DEFAULT_SENSOR_RANGE = 25.0


@dataclass
class BandwidthLedger:
    """Traffic counters for one session or for the whole backend."""

    queries: int = 0
    landmarks_sent: int = 0
    bytes_down: int = 0
    bytes_up: int = 0

    def to_doc(self) -> dict:
        return {
            "queries": self.queries,
            "landmarks_sent": self.landmarks_sent,
            "bytes_down": self.bytes_down,
            "bytes_up": self.bytes_up,
        }


@dataclass(frozen=True)
class _Published:
    """One map version and what is derived from it, swapped in as a unit.

    Row r of the reply table holds the JSON texts of the id and the position
    of landmark map.landmark_ids[r]; class_texts[c] is the text of class id c.
    """

    map: MultiSessionMap
    kernels: KernelRegistry
    id_texts: np.ndarray
    positions: np.ndarray
    class_texts: np.ndarray

    @classmethod
    def of(cls, m: MultiSessionMap, kernels: KernelRegistry,
           previous: "_Published | None" = None) -> "_Published":
        """The reply table of m, reusing the texts of previous for the
        landmarks that survive from it: a landmark never moves, so only the
        new ones are written."""
        ids = m.landmark_ids
        id_texts = np.empty(len(ids), dtype=object)
        positions = np.empty(len(ids), dtype=object)
        fresh = np.ones(len(ids), dtype=bool)
        if previous is not None and len(previous.map.landmark_ids):
            old = previous.map.landmark_ids
            rows = np.minimum(np.searchsorted(old, ids), len(old) - 1)
            fresh = old[rows] != ids
            id_texts[~fresh] = previous.id_texts[rows[~fresh]]
            positions[~fresh] = previous.positions[rows[~fresh]]
        id_texts[fresh] = list(map(str, ids[fresh].tolist()))
        positions[fresh] = position_fragments(m.landmark_positions[fresh])
        # The index is built here, under the write lock, rather than by the first query.
        class_texts = np.array(list(map(str, range(len(m.index)))), dtype=object)
        return cls(m, kernels, id_texts, positions, class_texts)


@dataclass
class _Pending:
    """A selection sent to the vehicle and not yet reported back."""

    selected: np.ndarray
    class_ids: np.ndarray
    index: EquivalenceClassIndex  # of the map the selection was ranked against


@dataclass
class _Session:
    token: int
    policy: SelectionPolicy
    sensor_range: float
    window: RollingSelectionStats  # over the class index of map seen_version
    seen_version: int
    pending: _Pending | None = None
    n_queries: int = 0
    closed: bool = False
    ledger: BandwidthLedger = field(default_factory=BandwidthLedger)
    lock: threading.Lock = field(default_factory=threading.Lock)


def _finite_number(v: Any) -> bool:
    """Whether v is an int or a float, not a bool, and finite as a float."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an int beyond the float range
        return False


def read_upload(raw: bytes) -> Message | None:
    """The upload_sortie request of a frame body in the layout the vehicle
    writes, its sortie read straight into a SortieDataset; None for any
    other frame body, which decode_body and sortie_from_doc then read."""
    upload = upload_sortie_text(raw)
    if upload is None:
        return None
    cid, token, text = upload
    dataset = sortie_from_json(text)
    if dataset is None:
        return None
    return Message(MessageKind.UPLOAD_SORTIE, cid=cid, token=token, body={"sortie": dataset})


class MapBackend:
    """Session book-keeping and message handling, transport-agnostic.

    ``handle_frame`` is the single entry point: raw request bytes in, raw
    reply bytes out, with every ledger update applied inside.  A TCP
    server, an in-process test, and the CLI all drive the same code path,
    so the byte counts they observe are identical by construction.
    """

    def __init__(
        self,
        m: MultiSessionMap,
        kernels: KernelRegistry | None = None,
        *,
        threshold_m: float = DEFAULT_THRESHOLD_M,
        default_sensor_range: float = DEFAULT_SENSOR_RANGE,
        on_session_close: Callable[[dict], None] | None = None,
    ):
        m.validate()
        self._published = _Published.of(m, dict(kernels) if kernels else {})
        self.threshold_m = threshold_m
        self.default_sensor_range = default_sensor_range
        self.on_session_close = on_session_close
        self.ledger = BandwidthLedger()
        self.sessions: dict[int, _Session] = {}
        self._next_token = 1
        self._session_lock = threading.Lock()
        self._ledger_lock = threading.Lock()
        self._write_lock = threading.Lock()

    # -- Snapshot access --

    @property
    def snapshot(self) -> MultiSessionMap:
        return self._published.map

    @property
    def kernels(self) -> KernelRegistry:
        return self._published.kernels

    @property
    def map_version(self) -> int:
        return self._published.map.version

    # -- Transport entry point --

    def handle_frame(self, raw: bytes) -> bytes:
        """Process one request frame body and return the reply frame.

        Both directions are charged to the ledgers here: the request at
        its on-wire size (prefix + body) and the reply likewise, so a
        transport that ships these exact bytes needs no accounting of
        its own.
        """
        bytes_up = 4 + len(raw)
        msg = read_upload(raw)
        if msg is None:
            try:
                msg = decode_body(raw)
            except ProtocolError as exc:
                reply = Message(MessageKind.ERROR, cid=0, token=None,
                                body={"code": ERR_BAD_REQUEST, "detail": str(exc)})
                return self._account(None, bytes_up, reply)
        session = self._resolve(msg.token)
        reply = self.handle_message(msg, session)
        if msg.kind is MessageKind.OPEN_SESSION:
            # Charged to the session its reply creates; a refused open to the total only.
            session = self._resolve(reply.token) if reply.kind is MessageKind.UPDATE_ACK else None
        elif reply.kind is MessageKind.ERROR and reply.body["code"] == ERR_NO_SESSION:
            session = None  # the token was not live, so only the total is charged
        return self._account(session, bytes_up, reply, msg.kind is MessageKind.QUERY)

    def handle_message(self, msg: Message, session: _Session | None) -> Message | LandmarksReply:
        """Dispatch one decoded request of the resolved session; always returns one reply.

        A session's query, report and close frames run one at a time under its lock."""
        kind = msg.kind
        if kind is MessageKind.OPEN_SESSION:
            return self._open_session(msg)
        if kind not in REQUEST_KINDS:
            return msg.error(ERR_BAD_REQUEST, f"{kind.value} is not a request kind")
        if session is None:
            return msg.error(ERR_NO_SESSION, "unknown or closed session token")
        if kind is MessageKind.UPLOAD_SORTIE:  # it changes no session state
            return self._upload(msg, session)
        with session.lock:
            if session.closed:  # by a close that ran after this frame resolved its token
                return msg.error(ERR_NO_SESSION, "unknown or closed session token")
            if kind is MessageKind.QUERY:
                return self._query(msg, session)
            if kind is MessageKind.REPORT:
                return self._report(msg, session)
            return self._close(msg, session)

    # -- Accounting --

    def _resolve(self, token: int | None) -> _Session | None:
        if token is None:
            return None
        with self._session_lock:
            session = self.sessions.get(token)
        if session is None or session.closed:
            return None
        return session

    def _account(
        self,
        session: _Session | None,
        bytes_up: int,
        reply: Message | LandmarksReply,
        query: bool = False,
    ) -> bytes:
        """Encode one reply and charge the exchange to the totals and to its session.

        Every ledger update happens here, under one lock, because each
        connection runs on its own thread.  A query counts even when it was
        rejected; its session ledger counts it only if the token was live.
        """
        if isinstance(reply, LandmarksReply):
            frame, n_landmarks = encode_landmarks_frame(reply), len(reply.landmark_ids)
        else:
            frame, n_landmarks = encode_frame(reply), 0
        with self._ledger_lock:
            for ledger in (self.ledger,) + ((session.ledger,) if session else ()):
                ledger.queries += query
                ledger.bytes_up += bytes_up
                ledger.bytes_down += len(frame)
                ledger.landmarks_sent += n_landmarks
        return frame

    # -- Request handlers --

    def _open_session(self, msg: Message) -> Message:
        body = msg.body
        try:
            policy = parse_policy(str(body.get("policy", "all@1")),
                                  seed=int(body.get("seed", 0)),
                                  window_len=int(body.get("window_len", 10)))
            if "max_selected" in body:
                policy = dataclasses.replace(policy, max_selected=int(body["max_selected"]))
            sensor_range = float(body.get("sensor_range", self.default_sensor_range))
            if not (sensor_range > 0 and np.isfinite(sensor_range)):
                raise ValueError("sensor_range must be finite and positive")
        except (OverflowError, TypeError, ValueError) as exc:
            return msg.error(ERR_BAD_REQUEST, f"bad session parameters: {exc}")
        snap = self.snapshot
        with self._session_lock:
            token = self._next_token
            self._next_token += 1
            self.sessions[token] = _Session(
                token=token,
                policy=policy,
                sensor_range=sensor_range,
                window=RollingSelectionStats([(policy, snap.index)]),
                seen_version=snap.version,
            )
        return Message(
            MessageKind.UPDATE_ACK,
            cid=msg.cid,
            token=token,
            body={
                "policy": policy.name,
                "map_version": snap.version,
                "n_landmarks": len(snap.landmarks),
            },
        )

    def _query(self, msg: Message, session: _Session) -> Message | LandmarksReply:
        pose = msg.body.get("pose")
        if (
            not isinstance(pose, (list, tuple))
            or len(pose) not in (2, 3)
            or not all(map(_finite_number, pose))
        ):
            return msg.error(ERR_BAD_REQUEST, "pose must be [x, y] or [x, y, heading]")
        if session.pending is not None:
            return msg.error(ERR_BAD_REQUEST, "previous selection still awaits its report")

        pub = self._published
        snap = pub.map
        if session.seen_version != snap.version:
            # Class numbering moved with the map, so the window restarts.
            session.window = RollingSelectionStats([(session.policy, snap.index)])
            session.seen_version = snap.version
        candidates = snap.candidate_set((float(pose[0]), float(pose[1])), session.sensor_range)
        # Ids are ascending in the map and among the candidates, so
        # searchsorted finds the map row of each candidate and each selection.
        rows = np.searchsorted(snap.landmark_ids, candidates)
        index = snap.index
        scores = (session.window.scores()[0][index.class_ids[rows]]
                  if session.policy.ranking.windowed else np.zeros(len(candidates)))
        salt = session.n_queries
        session.n_queries += 1
        selected = select_from_arrays(session.policy, candidates, scores, salt=salt)
        selected_rows = rows[np.searchsorted(candidates, selected)]
        class_ids = index.class_ids[selected_rows]
        session.pending = _Pending(selected, class_ids, index)
        return LandmarksReply(
            cid=msg.cid,
            token=session.token,
            landmark_ids=pub.id_texts[selected_rows].tolist(),
            class_ids=pub.class_texts[class_ids].tolist(),
            positions=pub.positions[selected_rows].tolist(),
            n_candidates=len(candidates),
            map_version=snap.version,
        )

    def _report(self, msg: Message, session: _Session) -> Message:
        if session.pending is None:
            return msg.error(ERR_BAD_REPORT, "no selection awaits a report")
        observed = msg.body.get("observed")
        # A decoded frame's integers are exactly int, so this also refuses bools.
        if not isinstance(observed, list) or not set(map(type, observed)) <= {int}:
            return msg.error(ERR_BAD_REQUEST, "observed must be a list of landmark ids")
        pending = session.pending
        distinct = set(observed)
        # The mask credits each distinct observed id once, however often it is named.
        observed_mask = np.fromiter(map(distinct.__contains__, pending.selected.tolist()),
                                    dtype=bool, count=len(pending.selected))
        if int(observed_mask.sum()) != len(distinct):
            # A selection holds distinct ids, so some observed id was not selected.
            # Reject without touching the window; the selection stays pending.
            return msg.error(ERR_BAD_REPORT, "observed ids are not a subset of the selection")
        update_window(session.window, pending.class_ids, observed_mask, pending.index)
        session.pending = None
        return Message(
            MessageKind.UPDATE_ACK,
            cid=msg.cid,
            token=session.token,
            body={"n_recorded": len(distinct), "window_fill": len(session.window)},
        )

    def _upload(self, msg: Message, session: _Session) -> Message:
        # Taken out of the request, the document is freed once parsed, before the update.
        doc = msg.body.pop("sortie", None)
        if isinstance(doc, SortieDataset):  # read from the frame by read_upload
            dataset = doc
        elif not isinstance(doc, dict):
            return msg.error(ERR_BAD_REQUEST, "upload body must carry a sortie object")
        else:
            try:
                dataset = sortie_from_doc(doc)
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                return msg.error(ERR_BAD_REQUEST, f"malformed sortie: {exc}")
        del doc
        with self._write_lock:
            try:
                new_map, kernels, report = process_sortie(
                    self.snapshot, dataset, self.kernels, threshold_m=self.threshold_m
                )
            except (TypeError, ValueError) as exc:
                return msg.error(ERR_BAD_REQUEST, f"sortie rejected: {exc}")
            # Atomic publish of the map, its registry and its reply table;
            # readers hold old refs.
            self._published = _Published.of(new_map, kernels, self._published)
        return Message(
            MessageKind.UPDATE_ACK,
            cid=msg.cid,
            token=session.token,
            body={
                "session_kind": report.session_kind.value,
                "map_version": new_map.version,
                "n_landmarks": len(new_map.landmarks),
                "new_landmark_ids": report.new_landmark_ids,
                "new_landmark_rows": report.new_landmark_rows,
                "rms_m": report.rms_m,
                "summarized": report.summarized,
            },
        )

    def _close(self, msg: Message, session: _Session) -> Message:
        session.closed = True
        session.pending = None
        doc = {"token": session.token, "ledger": session.ledger.to_doc()}
        if self.on_session_close is not None:
            self.on_session_close(doc)
        return Message(MessageKind.UPDATE_ACK, cid=msg.cid, token=session.token, body=doc)

    def ledger_doc(self) -> dict:
        """Total and per-session traffic, for logs and the serve verb."""
        with self._session_lock, self._ledger_lock:
            sessions = {str(t): s.ledger.to_doc() for t, s in sorted(self.sessions.items())}
            return {"total": self.ledger.to_doc(), "sessions": sessions}


class MapServer:
    """Threaded TCP front end for a MapBackend.

    One thread per connection; each connection carries any number of
    length-prefixed frames and may serve several session tokens.  Closing
    a connection does not close its sessions (tokens outlive transports).
    """

    def __init__(self, backend: MapBackend, host: str = "127.0.0.1", port: int = 0,
                 log: Callable[[str], None] | None = None):
        self.backend = backend
        self.log = log or (lambda line: None)
        if backend.on_session_close is None:
            backend.on_session_close = self._log_session_close
        self._listener = socket.create_server((host, port))
        self._threads: list[threading.Thread] = []
        self._stopping = threading.Event()
        self._accept_thread: threading.Thread | None = None

    def _log_session_close(self, doc: dict) -> None:
        self.log(json.dumps({"event": "session_closed", **doc}, sort_keys=True))

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()[:2]

    def start(self) -> "MapServer":
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        self.log(json.dumps({"event": "listening", "host": self.address[0],
                             "port": self.address[1]}, sort_keys=True))
        return self

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            t = threading.Thread(target=self._serve_connection, args=(conn,), daemon=True)
            t.start()
            self._threads = [u for u in self._threads if u.is_alive()] + [t]

    def _serve_connection(self, conn: socket.socket) -> None:
        stream = conn.makefile("rb")
        try:
            # Replies go out whole, one sendall each; without this a client
            # pipelining requests waits on Nagle plus its delayed ACK.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while True:
                try:
                    raw = read_frame(stream)
                except ProtocolError:
                    return  # unframeable stream: drop the connection
                if raw is None:
                    return
                conn.sendall(self.backend.handle_frame(raw))
        except OSError:
            return
        finally:
            stream.close()
            conn.close()

    def serve_forever(self) -> None:
        try:
            self.start()
            assert self._accept_thread is not None
            while self._accept_thread.is_alive():
                self._accept_thread.join(timeout=0.5)
        except KeyboardInterrupt:
            pass
        finally:
            self.shutdown()

    def shutdown(self) -> None:
        self._stopping.set()
        try:
            self._listener.close()
        except OSError:
            pass
        self.log(json.dumps({"event": "stopped", "ledger": self.backend.ledger_doc()},
                            sort_keys=True))

    def __enter__(self) -> "MapServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
