"""A stateful model of the map backend: random frame sequences over a few session
tokens, checked after every frame against a shadow of each session."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from atlas.protocol import Message, MessageKind, ProtocolError, decode_body, encode_body
from atlas.ranking import MAX_WINDOW_LEN, SelectionPolicy, parse_policy, select_from_arrays
from atlas.server import MapBackend

from helpers import DequeWindow, class_scores, two_session_map

MAX_TOKENS = 3
POLICIES = ["class_ratio@0.5", "session_weight@0.4", "all@1", "random@0.6", "class_ratio@0.2"]
POSES = [[float(x), y] for x in range(-1, 6) for y in (0.0, 1.0)] + [[50.0, 50.0]]


@dataclass
class Shadow:
    """What the model expects of one session."""

    policy: SelectionPolicy
    sensor_range: float
    window: DequeWindow
    n_queries: int = 0
    pending: np.ndarray | None = None  # the selected ids awaiting a report
    pending_classes: np.ndarray | None = None
    closed: bool = False
    ledger: list[int] = field(default_factory=lambda: [0, 0, 0, 0])


def opened(self) -> bool:
    return bool(self.shadows)


class BackendModel(RuleBasedStateMachine):
    """One backend on a fixed map, and the model's shadow of each of its sessions."""

    def __init__(self):
        super().__init__()
        self.backend = MapBackend(two_session_map())
        self.index = self.backend.snapshot.index
        self.shadows: dict[int, Shadow] = {}
        self.ledger = [0, 0, 0, 0]  # queries, landmarks_sent, bytes_down, bytes_up
        self.cid = 0
        self.n_recorded = 0  # reports the backend acked
        self.n_closed = 0

    def exchange(self, raw: bytes, charged: Shadow | None = None) -> Message:
        """Send one frame body; check that exactly one reply frame comes back and
        charge the exchange to the model's ledgers."""
        try:
            query = decode_body(raw).kind is MessageKind.QUERY
        except ProtocolError:
            query = False
        frame = self.backend.handle_frame(raw)
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4
        reply = decode_body(frame[4:])
        if reply.kind is MessageKind.UPDATE_ACK and charged is None and reply.token is not None:
            charged = self.shadows.get(reply.token)  # open_session names its new token
        n = len(reply.body["landmark_ids"]) if reply.kind is MessageKind.LANDMARKS else 0
        for ledger in [self.ledger] + ([charged.ledger] if charged else []):
            for i, v in enumerate((query, n, len(frame), 4 + len(raw))):
                ledger[i] += v
        return reply

    def pick(self, data, awaiting_report: bool) -> int:
        """An issued token, live ones with (or without) a pending selection twice as often."""
        preferred = [
            t for t, s in self.shadows.items() if not s.closed and (s.pending is None) != awaiting_report
        ]
        return data.draw(st.sampled_from(preferred + sorted(self.shadows)))

    def send(self, kind: MessageKind, body: dict, token: int | None) -> tuple[Message, Shadow | None]:
        self.cid += 1
        live = self.shadows.get(token)
        live = live if live is not None and not live.closed else None
        raw = encode_body(Message(kind, cid=self.cid, token=token, body=body))
        return self.exchange(raw, live), live

    @precondition(lambda self: len(self.shadows) < MAX_TOKENS)
    @rule(
        spec=st.sampled_from(POLICIES),
        seed=st.integers(0, 3),
        window_len=st.sampled_from([1, 2, 3, MAX_WINDOW_LEN, MAX_WINDOW_LEN + 1, 10**30]),
        sensor_range=st.sampled_from([1.5, 3.0, 25.0]),
    )
    def open_session(self, spec, seed, window_len, sensor_range):
        body = {"policy": spec, "seed": seed, "window_len": window_len, "sensor_range": sensor_range}
        if window_len > MAX_WINDOW_LEN:  # refused, and no token is used up
            reply, _ = self.send(MessageKind.OPEN_SESSION, body, None)
            assert reply.kind is MessageKind.ERROR and reply.body["code"] == "bad_request"
            return
        token = len(self.shadows) + 1
        policy = parse_policy(spec, seed=seed, window_len=window_len)
        self.shadows[token] = Shadow(policy, sensor_range, DequeWindow(window_len, len(self.index)))
        reply, _ = self.send(MessageKind.OPEN_SESSION, body, None)
        assert reply.kind is MessageKind.UPDATE_ACK and reply.token == token

    @precondition(opened)
    @rule(pose=st.sampled_from(POSES), data=st.data())
    def query(self, pose, data):
        token = self.pick(data, awaiting_report=False)
        reply, s = self.send(MessageKind.QUERY, {"pose": pose}, token)
        if s is None:
            assert reply.body["code"] == "no_session"
            return
        if s.pending is not None:
            assert reply.body["code"] == "bad_request"
            return
        snap = self.backend.snapshot
        candidates = snap.candidate_set(tuple(pose), s.sensor_range)
        classes = self.index.classes_of(candidates)
        scores = class_scores(s.policy, s.window, self.index, classes)
        want = select_from_arrays(s.policy, candidates, scores, salt=s.n_queries)
        s.n_queries += 1
        assert reply.kind is MessageKind.LANDMARKS
        assert reply.body["landmark_ids"] == want.tolist()
        s.pending = want
        s.pending_classes = self.index.classes_of(want)
        assert reply.body["class_ids"] == s.pending_classes.tolist()

    @precondition(opened)
    @rule(kind=st.sampled_from(["valid", "duplicated", "not_a_subset", "bools"]), data=st.data())
    def report(self, kind, data):
        token = self.pick(data, awaiting_report=True)
        s = self.shadows.get(token)
        selected = [] if s is None or s.pending is None else s.pending.tolist()
        observed = data.draw(st.lists(st.sampled_from(selected), unique=True)) if selected else []
        if kind == "duplicated":
            observed = observed + observed[:2]
        elif kind == "not_a_subset":
            observed = observed + [999]
        elif kind == "bools":
            observed = observed + [True]
        reply, s = self.send(MessageKind.REPORT, {"observed": observed}, token)
        if s is None:
            assert reply.body["code"] == "no_session"
        elif s.pending is None:
            assert reply.body["code"] == "bad_report"
        elif kind == "bools":
            assert reply.body["code"] == "bad_request"
        elif kind == "not_a_subset":
            assert reply.body["code"] == "bad_report"
        else:
            s.window.push(s.pending_classes, np.isin(s.pending, observed))
            s.pending = s.pending_classes = None
            self.n_recorded += 1
            assert reply.kind is MessageKind.UPDATE_ACK
            assert reply.body == {"n_recorded": len(set(observed)), "window_fill": len(s.window)}

    # Closing ends a session for good, so it waits until the sessions have done some work.
    @precondition(lambda self: self.n_recorded >= 4 * (self.n_closed + 1))
    @rule(data=st.data())
    def close(self, data):
        token = data.draw(st.sampled_from(sorted(self.shadows)))
        reply, s = self.send(MessageKind.CLOSE, {}, token)
        if s is None:
            assert reply.body["code"] == "no_session"
            return
        assert reply.kind is MessageKind.UPDATE_ACK
        s.closed = True
        self.n_closed += 1

    @rule(junk=st.one_of(
        st.binary(max_size=40).map(lambda b: b"\xff" + b),
        st.sampled_from([b"{}", b"[]", b"null", b'{"kind": "query"}']),
        st.sampled_from([k for k in MessageKind if k is not MessageKind.OPEN_SESSION]).map(
            lambda k: encode_body(Message(k, cid=1, token=0, body={"pose": [0.0, 1.0]}))
        ),
    ))
    def junk_frame(self, junk):
        """Undecodable frames, replies sent as requests, and requests naming a
        token that was never issued."""
        reply = self.exchange(junk)
        assert reply.kind is MessageKind.ERROR
        assert reply.body["code"] in ("bad_request", "no_session")

    @invariant()
    def ledgers_equal_the_bytes_exchanged(self):
        assert list(self.backend.ledger.to_doc().values()) == self.ledger
        for token, s in self.shadows.items():
            assert list(self.backend.sessions[token].ledger.to_doc().values()) == s.ledger


BackendModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None, derandomize=True, database=None
)
test_backend_model = BackendModel.TestCase
