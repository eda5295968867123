"""Vehicle-side client for the map backend, plus a sortie driving loop.

The client keeps the vehicle's view of the world: a socket, its session
token, and a kernel sidecar describing how its own sensor responds to
each landmark it knows about.  The backend sends ranked selections; the
vehicle attempts to match them, reports what it actually observed, and
finally uploads the sortie so the backend can grow or annotate the map.
Requests are written from the vehicle's arrays as canonical JSON text
(``EncodedBody``), the upload by ``sortie_json`` from the sortie's columns;
``landmarks`` replies are read into id arrays (``protocol.landmarks_reply``).
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any

import numpy as np

from .locsim import n_failed, pose_errors
from .protocol import (
    EncodedBody,
    Message,
    MessageKind,
    ProtocolError,
    canonical_json,
    encode_frame,
    float_texts,
    position_fragments,
    read_message,
)
from .rng import normal_pair_stream, uniform01
from .worldgen import (
    KernelRegistry,
    KernelTable,
    SortieDataset,
    add_kernels,
    detection_probabilities,
    sortie_to_doc,  # noqa: F401  (the document sortie_json writes; perfbench wraps this name)
)


def sortie_json(ds: SortieDataset) -> str:
    """canonical_json(sortie_to_doc(ds)), written from the columns.

    Keys go in sorted order at every level, so a proposal's observations go
    by pose index as a string ("10" before "9"); numbers are written as
    json.dumps writes them and a non-finite one raises ProtocolError.  The
    observation rows hold each (proposal, pose) once, as Proposals says.
    """
    props = ds.proposals
    rows, poses, counts = props.observations.T
    # Rank the distinct pose indices in the order of their strings.
    distinct, which = np.unique(poses, return_inverse=True)
    names = list(map(str, distinct.tolist()))
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = np.lexsort((rank[which], rows))
    which, counts = which[order], counts[order]
    # Nearly every count is 1: take '"pose":1' whole and write the rest.
    entries = np.array([f'"{name}":1' for name in names], dtype=object)[which]
    other = np.flatnonzero(counts != 1)
    entries[other] = [f'"{names[k]}":{c}' for k, c in zip(which[other].tolist(), counts[other].tolist())]
    entries = entries.tolist()
    bounds = np.searchsorted(rows[order], np.arange(len(props) + 1)).tolist()
    kernel = iter(float_texts(props.kernels))  # center, width, peak
    proposals = ",".join([
        f'{{"kernel":{{"center":{center},"peak":{peak},"width":{width}}},'
        f'"observations":{{{",".join(entries[lo:hi])}}},"position":{position}}}'
        for (center, width, peak), position, lo, hi in zip(
            zip(kernel, kernel, kernel), position_fragments(props.positions), bounds, bounds[1:])
    ])
    return "".join((
        '{"condition":', canonical_json(ds.condition),
        ',"error_seed":', canonical_json(ds.error_seed),
        ',"label":', canonical_json(ds.label),
        ',"observation_seed":', canonical_json(ds.observation_seed),
        ',"poses":[', ",".join(position_fragments(np.asarray(ds.poses, dtype=np.float64))),
        '],"proposals":[', proposals,
        '],"sensor_range":', canonical_json(ds.sensor_range), "}",
    ))


class BackendError(RuntimeError):
    """An error reply from the backend, carrying its code and detail."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


@dataclass
class QueryResult:
    landmark_ids: np.ndarray  # int64, in the order of the reply
    class_ids: np.ndarray  # int64
    n_candidates: int
    map_version: int

    @classmethod
    def of_reply(cls, body: dict) -> "QueryResult":
        """The result a landmarks reply's body gives, read by landmarks_reply
        or by decode_body; ProtocolError unless every id is an int within
        int64 and both scalars are ints."""
        n_candidates, map_version = body.get("n_candidates"), body.get("map_version")
        if type(n_candidates) is not int or type(map_version) is not int:
            raise ProtocolError("reply n_candidates and map_version must be integers")
        return cls(_int64s(body, "landmark_ids"), _int64s(body, "class_ids"), n_candidates, map_version)


def _int64s(body: dict, key: str) -> np.ndarray:
    values = body.get(key)
    if isinstance(values, np.ndarray):  # read by landmarks_reply
        return values
    # A decoded frame's integers are exactly int, so this also refuses bools.
    if isinstance(values, list) and set(map(type, values)) <= {int}:
        try:
            return np.array(values, dtype=np.int64)
        except OverflowError:
            pass
    raise ProtocolError(f"reply {key} must be a list of 64-bit integers")


class VehicleClient:
    """One vehicle's connection to a map backend.

    Wraps the frame protocol in blocking request/reply calls, checks that
    every reply echoes the request's correlation id, and turns ``error``
    replies into BackendError exceptions.
    """

    def __init__(self, host: str, port: int, timeout: float | None = 30.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # Each request goes out whole in one sendall: send it at once.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._sock.makefile("rb")
        self._next_cid = 1
        self.token: int | None = None

    def close_transport(self) -> None:
        try:
            self._stream.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "VehicleClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        if self.token is not None:
            try:
                self.close_session()
            except (OSError, BackendError):
                pass
        self.close_transport()

    def call(self, kind: MessageKind, body: dict | EncodedBody, token: int | None = None) -> Message:
        """Send one request and wait for its reply.

        The request names token, or else the held one; an open names none
        by default, since its reply creates the session.
        """
        cid = self._next_cid
        self._next_cid += 1
        if token is None and kind is not MessageKind.OPEN_SESSION:
            token = self.token
        request = Message(kind, cid=cid, token=token, body=body)
        self._sock.sendall(encode_frame(request))
        reply = read_message(self._stream)
        if reply is None:
            raise ConnectionError("backend closed the connection mid-call")
        if reply.cid != cid:
            raise ConnectionError(f"reply correlation id {reply.cid} != request {cid}")
        if reply.kind is MessageKind.ERROR:
            raise BackendError(reply.body.get("code", "?"), reply.body.get("detail", ""))
        return reply

    # -- Session verbs --

    def open_session(self, policy: str = "all@1", **params) -> int:
        """Open a ranked-query session; params mirror the open_session body."""
        reply = self.call(MessageKind.OPEN_SESSION, {"policy": policy, **params})
        assert reply.token is not None
        self.token = reply.token
        return reply.token

    def query(self, pose) -> QueryResult:
        pose = float_texts(np.asarray(pose, dtype=np.float64))
        reply = self.call(MessageKind.QUERY, EncodedBody(f'{{"pose":[{",".join(pose)}]}}'))
        return QueryResult.of_reply(reply.body)

    def report(self, observed_ids) -> dict:
        ids = map(int, observed_ids.tolist() if isinstance(observed_ids, np.ndarray) else observed_ids)
        reply = self.call(MessageKind.REPORT, EncodedBody(f'{{"observed":[{",".join(map(str, ids))}]}}'))
        return reply.body

    def upload_sortie(self, dataset: SortieDataset) -> dict:
        reply = self.call(MessageKind.UPLOAD_SORTIE, EncodedBody(f'{{"sortie":{sortie_json(dataset)}}}'))
        return reply.body

    def close_session(self) -> dict:
        reply = self.call(MessageKind.CLOSE, {})
        self.token = None
        return reply.body


@dataclass
class DriveResult:
    """What one driven sortie looked like from the vehicle's seat."""

    label: str
    selected_counts: np.ndarray
    observed_counts: np.ndarray
    errors_m: np.ndarray
    n_failures: int
    upload_ack: dict

    @property
    def rms_translation_m(self) -> float:
        return float(np.sqrt(np.mean(self.errors_m**2))) if len(self.errors_m) else 0.0

    @property
    def mean_selected(self) -> float:
        return float(self.selected_counts.mean()) if len(self.selected_counts) else 0.0


def drive_sortie(
    client: VehicleClient,
    dataset: SortieDataset,
    kernels: KernelRegistry,
    *,
    upload: bool = True,
) -> DriveResult:
    """Fly one sortie against a served map: query, match, report, upload.

    Detection draws are keyed on (observation seed, pose index, landmark
    id), the same stream the in-process localization loop uses, so a
    served vehicle and a local simulation observe identical outcomes for
    identical selections.  The kernel sidecar is extended in place with
    the kernels of proposals the upload turned into new landmarks; the ack
    names the proposal row of each, since summarization may drop some.
    """
    n = dataset.n_iterations
    selected_counts = np.zeros(n, dtype=np.int64)
    observed_counts = np.zeros(n, dtype=np.int64)
    table = KernelTable(kernels)  # the sidecar grows only after the upload
    # One detection probability per kernel column, the sortie's condition being fixed.
    p_det = detection_probabilities(*table.params, dataset.condition)
    for k in range(n):
        ids = client.query(dataset.poses[k]).landmark_ids
        selected_counts[k] = len(ids)
        hit = uniform01(dataset.observation_seed, k, ids) < p_det[table.columns(ids)]
        observed = ids[hit]
        observed_counts[k] = len(observed)
        client.report(observed)
    errors = pose_errors(observed_counts, normal_pair_stream(dataset.error_seed, np.arange(n)))
    ack: dict = {}
    if upload:
        ack = client.upload_sortie(dataset)
        ids, rows = ack.get("new_landmark_ids", []), ack.get("new_landmark_rows", [])
        add_kernels(kernels, ids, rows, dataset.proposals)
    return DriveResult(
        label=dataset.label,
        selected_counts=selected_counts,
        observed_counts=observed_counts,
        errors_m=errors,
        n_failures=n_failed(observed_counts),
        upload_ack=ack,
    )
