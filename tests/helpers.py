"""Shared builders for small hand-checkable maps, scenarios, and messages."""

from __future__ import annotations

import random
import string

import numpy as np

from atlas.mapcore import MultiSessionMap
from atlas.protocol import ERR_BAD_REPORT, ERR_BAD_REQUEST, ERR_NO_SESSION, Message, MessageKind
from atlas.summarize import SummarizationProblem
from atlas.worldgen import Scenario, SortieSpec

LINE_POSES = np.array([[float(x), 0.0, 0.0] for x in range(5)])


def two_session_map() -> MultiSessionMap:
    """Two rich sessions, landmarks 1-3 from the first, 4-5 from the second.

    Landmark 3 is re-observed by session 2, so the class partition is
    {1,2} (session {1}), {3} (sessions {1,2}), {4,5} (session {2}).
    """
    m = MultiSessionMap()
    m.add_rich_session(
        LINE_POSES,
        [[0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [2.0, 1.0, 0.0]],
        [[0, 0, 1], [0, 1, 1], [1, 1, 1], [1, 2, 1], [2, 2, 1], [2, 3, 2]],
        label="first",
    )
    m.add_rich_session(
        LINE_POSES + np.array([0.0, 0.1, 0.0]),
        [[3.0, 1.0, 0.0], [4.0, 1.0, 0.0]],
        [[0, 0, 1], [0, 4, 1], [1, 3, 1], [1, 4, 1]],
        seen=[[3, 2, 1], [3, 3, 1]],
        label="second",
    )
    return m


def random_summarization_problem(rng: np.random.Generator) -> SummarizationProblem:
    """A small random instance sized so exhaustive enumeration stays cheap."""
    n = int(rng.integers(1, 16))
    n_vertices = int(rng.integers(1, 9))
    costs = rng.uniform(0.05, 1.0, size=n)
    cols = [
        rng.choice(n_vertices, size=int(rng.integers(1, n_vertices + 1)), replace=False)
        for _ in range(n)
    ]
    return SummarizationProblem(
        costs=costs,
        landmark_vertices=cols,
        n_vertices=n_vertices,
        keep_count=int(rng.integers(1, n + 1)),
        min_per_vertex=int(rng.integers(1, 4)),
        slack_penalty=float(rng.uniform(0.1, 3.0)),
    )


def random_json_value(rnd: random.Random, depth: int = 0):
    pick = rnd.random()
    if depth >= 3 or pick < 0.25:
        return rnd.choice(
            [
                rnd.randint(-(2**40), 2**40),
                rnd.uniform(-1e6, 1e6),
                "".join(rnd.choices(string.printable, k=rnd.randint(0, 12))),
                rnd.random() < 0.5,
                None,
                "é世界",  # non-ASCII survives the round trip
            ]
        )
    if pick < 0.6:
        return [random_json_value(rnd, depth + 1) for _ in range(rnd.randint(0, 4))]
    return {
        "".join(rnd.choices(string.ascii_letters, k=rnd.randint(1, 8))): random_json_value(
            rnd, depth + 1
        )
        for _ in range(rnd.randint(0, 4))
    }


def random_message(rnd: random.Random) -> Message:
    kind = rnd.choice(list(MessageKind))
    body = {
        "".join(rnd.choices(string.ascii_lowercase, k=rnd.randint(1, 10))): random_json_value(rnd)
        for _ in range(rnd.randint(0, 5))
    }
    if kind is MessageKind.ERROR:
        body["code"] = rnd.choice([ERR_NO_SESSION, ERR_BAD_REQUEST, ERR_BAD_REPORT])
    return Message(
        kind=kind,
        cid=rnd.randint(0, 2**31),
        token=None if rnd.random() < 0.3 else rnd.randint(0, 2**31),
        body=body,
    )


def tiny_scenario(**overrides) -> Scenario:
    """A fast synthetic world: short loop, few landmarks, short schedule."""
    fields = dict(
        name="tiny",
        waypoints=[(0.0, 0.0), (30.0, 0.0), (30.0, 20.0), (0.0, 20.0)],
        n_iterations=60,
        landmark_density=1.2,
        corridor_width=6.0,
        kernel_width_range=(0.05, 0.12),
        kernel_peak_range=(0.7, 0.95),
        sensor_range=12.0,
        schedule=[
            SortieSpec("one", 0.10),
            SortieSpec("two", 0.12),
            SortieSpec("three", 0.11),
            SortieSpec("four", 0.13),
        ],
        landmark_cap=5000,
        threshold_m=0.10,
    )
    fields.update(overrides)
    return Scenario(**fields)
