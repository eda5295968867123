"""Vehicle-side client for the map backend, plus a sortie driving loop.

The client keeps the vehicle's view of the world: a socket, its session
token, and a kernel sidecar describing how its own sensor responds to
each landmark it knows about.  The backend sends ranked selections; the
vehicle attempts to match them, reports what it actually observed, and
finally uploads the sortie so the backend can grow or annotate the map.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Any

import numpy as np

from .locsim import n_failed, pose_errors
from .protocol import (
    Message,
    MessageKind,
    encode_frame,
    read_message,
)
from .rng import normal_pair_stream, uniform01
from .worldgen import (
    KernelRegistry,
    KernelTable,
    SortieDataset,
    add_kernels,
    detection_probabilities,
    sortie_to_doc,
)


class BackendError(RuntimeError):
    """An error reply from the backend, carrying its code and detail."""

    def __init__(self, code: str, detail: str = ""):
        super().__init__(f"{code}: {detail}" if detail else code)
        self.code = code
        self.detail = detail


@dataclass
class QueryResult:
    landmark_ids: list[int]
    class_ids: list[int]
    n_candidates: int
    map_version: int


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

    def call(self, kind: MessageKind, body: dict, token: int | None = None) -> Message:
        """Send one request and wait for its reply."""
        cid = self._next_cid
        self._next_cid += 1
        request = Message(kind, cid=cid, token=self.token if token is None else token, body=body)
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
        reply = self.call(MessageKind.OPEN_SESSION, {"policy": policy, **params}, token=None)
        assert reply.token is not None
        self.token = reply.token
        return reply.token

    def query(self, pose) -> QueryResult:
        reply = self.call(MessageKind.QUERY, {"pose": [float(v) for v in pose]})
        b = reply.body
        return QueryResult(
            landmark_ids=[int(i) for i in b["landmark_ids"]],
            class_ids=[int(c) for c in b["class_ids"]],
            n_candidates=int(b["n_candidates"]),
            map_version=int(b["map_version"]),
        )

    def report(self, observed_ids) -> dict:
        reply = self.call(MessageKind.REPORT, {"observed": [int(i) for i in observed_ids]})
        return reply.body

    def upload_sortie(self, dataset: SortieDataset) -> dict:
        reply = self.call(MessageKind.UPLOAD_SORTIE, {"sortie": sortie_to_doc(dataset)})
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
    the kernels of proposals the upload turned into new landmarks.
    """
    n = dataset.n_iterations
    selected_counts = np.zeros(n, dtype=np.int64)
    observed_counts = np.zeros(n, dtype=np.int64)
    table = KernelTable(kernels)  # the sidecar grows only after the upload
    for k in range(n):
        result = client.query(dataset.poses[k])
        ids = np.asarray(result.landmark_ids, dtype=np.int64)
        selected_counts[k] = len(ids)
        if len(ids):
            p_det = detection_probabilities(*table.lookup(ids), dataset.condition)
            hit = uniform01(dataset.observation_seed, k, ids) < p_det
            observed = ids[hit]
        else:
            observed = np.empty(0, dtype=np.int64)
        observed_counts[k] = len(observed)
        client.report(int(i) for i in observed)
    errors = pose_errors(observed_counts, normal_pair_stream(dataset.error_seed, np.arange(n)))
    ack: dict = {}
    if upload:
        ack = client.upload_sortie(dataset)
        add_kernels(kernels, ack.get("new_landmark_ids", []), dataset.proposals)
    return DriveResult(
        label=dataset.label,
        selected_counts=selected_counts,
        observed_counts=observed_counts,
        errors_m=errors,
        n_failures=n_failed(observed_counts),
        upload_ack=ack,
    )
