"""Shared builders for small hand-checkable maps, scenarios, and messages."""

from __future__ import annotations

import math
import random
import string
from collections import deque
from dataclasses import dataclass

import numpy as np

from atlas.experiment import GapStudy, build_dataset, build_world
from atlas.locsim import (
    POSE_ERROR,
    decide_update,
    localize_dataset,
    observation_ratio,
    process_sortie,
)
from atlas.mapcore import UNBOUNDED_CAP, MultiSessionMap, SessionKind
from atlas.protocol import ERR_BAD_REPORT, ERR_BAD_REQUEST, ERR_NO_SESSION, Message, MessageKind
from atlas.ranking import (
    RankingKind,
    SelectionPolicy,
    class_ratio_scores,
    reference_policy,
    selection_order,
    selection_size,
)
from atlas.rng import derive_seed, hash_stream
from atlas.summarize import SummarizationProblem
from atlas.worldgen import GroundSite, Scenario, SortieSpec, World, generate_sortie, with_overrides

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


MAP_COLUMNS = (
    "vertex_ids", "vertex_poses", "vertex_sessions",
    "landmark_ids", "landmark_positions", "landmark_origins",
    "pair_landmarks", "pair_sessions",
    "obs_landmarks", "obs_vertices", "obs_counts",
)


def assert_same_columns(a: MultiSessionMap, b: MultiSessionMap) -> None:
    """a and b hold the same cap, sessions and stored columns, dtypes included."""
    assert a.landmark_cap == b.landmark_cap and a.sessions == b.sessions
    for name in MAP_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def compressed_columns(cols) -> tuple[np.ndarray, np.ndarray]:
    """(vertices, ptr) of per-landmark vertex lists: column j is vertices[ptr[j]:ptr[j + 1]].

    Entries keep their given order and dtype, so a problem built from them
    still sees unsorted, repeated or empty columns.
    """
    vertices = np.concatenate([np.zeros(0, dtype=np.int64), *map(np.asarray, cols)])
    return vertices, np.concatenate(([0], np.cumsum([len(c) for c in cols], dtype=np.int64)))


def random_summarization_problem(rng: np.random.Generator) -> SummarizationProblem:
    """A small random instance sized so exhaustive enumeration stays cheap."""
    n = int(rng.integers(1, 16))
    n_vertices = int(rng.integers(1, 9))
    costs = rng.uniform(0.05, 1.0, size=n)
    vertices, ptr = compressed_columns([
        rng.choice(n_vertices, size=int(rng.integers(1, n_vertices + 1)), replace=False)
        for _ in range(n)
    ])
    return SummarizationProblem(
        costs=costs,
        vertices=vertices,
        ptr=ptr,
        n_vertices=n_vertices,
        keep_count=int(rng.integers(1, n + 1)),
        min_per_vertex=int(rng.integers(1, 4)),
        slack_penalty=float(rng.uniform(0.1, 3.0)),
    )


def milp_objective(problem: SummarizationProblem) -> float:
    """Optimal objective of a summarization instance, solved as a MILP by HiGHS.

    One binary keep flag per landmark and one continuous slack per vertex:
    minimise costs . keep + slack_penalty * sum(slack) subject to exactly
    keep_count kept and A keep + slack >= min_per_vertex, with A read from
    the problem's compressed columns.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csc_matrix, hstack, identity

    n, m = problem.n_landmarks, problem.n_vertices
    cover = csc_matrix((np.ones(len(problem.vertices)), problem.vertices, problem.ptr), shape=(m, n))
    is_keep = np.concatenate([np.ones(n), np.zeros(m)])
    res = milp(
        np.concatenate([problem.costs, np.full(m, problem.slack_penalty)]),
        constraints=[
            LinearConstraint(hstack([cover, identity(m)]).tocsr(), lb=problem.min_per_vertex),
            LinearConstraint(is_keep[None, :], lb=problem.keep_count, ub=problem.keep_count),
        ],
        integrality=is_keep,
        bounds=Bounds(0, np.concatenate([np.ones(n), np.full(m, np.inf)])),
        options={"mip_rel_gap": 1e-9},
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not reach optimality: {res.message}")
    return float(res.fun)


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


def point_on_loop(waypoints, s: float) -> tuple[np.ndarray, np.ndarray, float]:
    """The point at arc length s along the closed waypoint loop, with the unit
    normal and the heading of its segment, each segment table built afresh."""
    pts = np.asarray(waypoints, dtype=np.float64)
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
    frac = (s - cum[i]) / seg_len[i]
    point = closed[i] + seg[i] * frac
    normal = np.array([-seg[i, 1], seg[i, 0]]) / seg_len[i]
    return point, normal, float(np.arctan2(seg[i, 1], seg[i, 0]))


def site_by_site_world(scenario: Scenario, seed: int) -> World:
    """generate_world one pose and one site at a time, each site drawing its
    scalars from the stream in turn: the oracle for the vectorized world."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = np.asarray(scenario.waypoints, dtype=np.float64)
    seg = np.diff(np.vstack([pts, pts[:1]]), axis=0)
    length = float(np.hypot(seg[:, 0], seg[:, 1]).sum())
    trajectory = []
    for s in np.linspace(0.0, length, scenario.n_iterations, endpoint=False):
        point, _, heading = point_on_loop(scenario.waypoints, s)
        trajectory.append([point[0], point[1], heading])
    n_sites = int(rng.poisson(scenario.landmark_density * length))
    w_lo, w_hi = scenario.kernel_width_range
    p_lo, p_hi = scenario.kernel_peak_range
    sites = []
    for _ in range(n_sites):
        s = float(rng.uniform(0.0, length))
        point, normal, _ = point_on_loop(scenario.waypoints, s)
        offset = float(rng.uniform(-scenario.corridor_width / 2, scenario.corridor_width / 2))
        z = float(rng.uniform(0.0, 4.0))
        position = np.array([point[0] + normal[0] * offset, point[1] + normal[1] * offset, z])
        width = float(np.exp(rng.uniform(np.log(w_lo), np.log(w_hi))))
        peak = float(rng.uniform(p_lo, p_hi))
        base_center = float(rng.uniform(0.0, 1.0))
        sites.append(GroundSite(position, base_center, width, peak))
    return World(scenario, np.array(trajectory), sites, length)


class DequeWindow:
    """One policy's rolling window kept the plain way: a deque of per-class
    (selected, observed) count rows, summed again whenever it is read.

    The oracle for ranking.RollingSelectionStats, one lane at a time.
    """

    def __init__(self, window_len: int, n_classes: int):
        self.window_len = window_len
        self.n_classes = n_classes
        self.rows: deque[tuple[np.ndarray, np.ndarray]] = deque()

    def __len__(self) -> int:
        return len(self.rows)

    def push_record(self, selected: np.ndarray, observed: np.ndarray) -> None:
        self.rows.append((selected, observed))
        while len(self.rows) > self.window_len:
            self.rows.popleft()

    def push(self, class_ids: np.ndarray, observed_mask: np.ndarray) -> None:
        """One iteration: the class ids of its distinct selected landmarks and an observed mask."""
        n = self.n_classes
        self.push_record(
            np.bincount(class_ids, minlength=n), np.bincount(class_ids[observed_mask], minlength=n)
        )

    def recount(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-class (selected, observed) sums of the stored rows."""
        selected = np.zeros(self.n_classes, dtype=np.int64)
        observed = np.zeros(self.n_classes, dtype=np.int64)
        for sel, obs in self.rows:
            selected += sel
            observed += obs
        return selected, observed


def session_totals(index, selected, observed) -> np.ndarray:
    """(selected, observed) sums per session id of per-class counts, one class at a time.

    A class's counts go to every session of its key.
    """
    n = max((s for key in index.keys for s in key), default=-1) + 1
    totals = np.zeros((2, n), dtype=np.int64)
    for c, key in enumerate(index.keys):
        for s in key:
            totals[0, s] += int(selected[c])
            totals[1, s] += int(observed[c])
    return totals


def session_weight_oracle(index, selected, observed) -> np.ndarray:
    """Per class of index, the best observed/selected ratio among the sessions of
    its key, a session never selected weighing 0; one class at a time.

    The oracle for ranking.session_weight_scores on one lane.
    """
    sel, obs = session_totals(index, selected, observed).tolist()
    return np.array(
        [max(obs[s] / max(sel[s], 1) for s in key) for key in index.keys], dtype=np.float64
    )


def class_scores(policy, window: DequeWindow, index, class_ids: np.ndarray) -> np.ndarray:
    """Rank score of each entry of class_ids from a DequeWindow.

    class_ratio scores a class by its observed/selected ratio and
    session_weight by the best weight among the sessions that define it;
    the unranked and random policies score everything 0.
    """
    if policy.ranking is RankingKind.CLASS_RATIO:
        return class_ratio_scores(*window.recount())[class_ids]
    if policy.ranking is RankingKind.SESSION_WEIGHT:
        return session_weight_oracle(index, *window.recount())[class_ids]
    return np.zeros(len(class_ids))


@dataclass
class ReferenceRun:
    """Per-pose arrays of one policy's run, as the per-policy loop makes them."""

    selected: list[np.ndarray]  # ids, rank order
    observed: list[np.ndarray]  # ids, ascending
    observed_counts: np.ndarray
    errors_m: np.ndarray


def reference_localize(draws, index, policy, *, bootstrap_full_first=True) -> ReferenceRun:
    """One policy's selection/observation loop over a sortie, one pose at a time,
    on the map of class index `index`.

    The oracle for locsim.localize_policies: a DequeWindow, class_scores
    and selection_order per pose, and the scalar error formula.
    """
    split = np.cumsum(np.diff(draws.ptr))[:-1]
    candidates, classes, detected = (
        np.split(col, split) for col in (draws.ids, index.class_ids[draws.rows], draws.detected)
    )
    n_poses = draws.n_poses
    window = DequeWindow(policy.window_len, len(index))
    selected, observed = [], []
    observed_counts = np.zeros(n_poses, dtype=np.int64)
    errors = np.zeros(n_poses)
    p = POSE_ERROR

    for k, (ids_c, classes_c) in enumerate(zip(candidates, classes)):
        scores = class_scores(policy, window, index, classes_c)
        if k == 0 and bootstrap_full_first:
            top = np.arange(len(ids_c))  # warm-up: select the whole candidate set
        else:
            ksel = selection_size(policy.selection_ratio, len(ids_c), policy.max_selected)
            tiebreak = None
            if policy.ranking is not RankingKind.ALL:
                tiebreak = hash_stream(policy.seed, k, ids_c)
            top = selection_order(policy, ids_c, scores, tiebreak)[:ksel]
        sel_ids = ids_c[top]
        obs_mask = detected[k][top]
        obs_ids = np.sort(sel_ids[obs_mask])
        n = len(obs_ids)
        observed_counts[k] = n
        z = draws.error_z[k]
        errors[k] = p.failure_error_m if n < p.min_landmarks else abs(z) * (
            p.floor + p.sigma0 / math.sqrt(n)
        )
        window.push(classes_c[top], obs_mask)
        selected.append(sel_ids)
        observed.append(obs_ids)
    return ReferenceRun(selected, observed, observed_counts, errors)


def by_pose(flat: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """A flat column split into its per-pose pieces of the given lengths."""
    return np.split(flat, np.cumsum(counts)[:-1])


def reference_gap_study(
    scenario: Scenario,
    seed: int,
    policy: SelectionPolicy,
    converged_policies: tuple[SelectionPolicy, ...] = (),
) -> GapStudy:
    """The gap study on twin maps, every run made on its own twin, one policy at a time.

    The oracle for experiment.observation_session_gap: one twin ingests
    every sortie, the other only the sorties its reference run decides are
    rich.  Each twin keeps its own kernel registry and localizes the
    reference and the probed policy itself; each converged policy is
    localized on its own.
    """
    sc = with_overrides(scenario, landmark_cap=UNBOUNDED_CAP)
    world = build_world(sc, seed)
    twins = {True: MultiSessionMap(), False: MultiSessionMap()}
    registries = {w: {} for w in twins}
    ref = reference_policy()
    gaps: dict[int, list[float]] = {}
    with_r: dict[int, list[float]] = {}
    without_r: dict[int, list[float]] = {}
    for i in range(len(sc.schedule)):
        ds = build_dataset(world, i, seed)
        stage = twins[True].n_rich_sessions
        n_obs = twins[True].n_observation_sessions
        r: dict[bool, float] = {}
        for w, m in twins.items():
            ref_run = localize_dataset(m, ds, ref, registries[w])
            revisit = decide_update(ref_run, sc.threshold_m) is SessionKind.OBSERVATION
            if stage >= 1 and n_obs >= 1 and revisit:
                run = localize_dataset(m, ds, policy, registries[w])
                r[w] = observation_ratio(run, ref_run).mean_of_ratios
            if w or not revisit:  # the twin without observation sessions takes rich ones only
                twins[w], registries[w], _ = process_sortie(
                    m, ds, registries[w], run=ref_run, threshold_m=sc.threshold_m
                )
        assert np.array_equal(twins[True].landmark_ids, twins[False].landmark_ids)
        if len(r) == 2:
            gaps.setdefault(stage, []).append(r[True] - r[False])
            with_r.setdefault(stage, []).append(r[True])
            without_r.setdefault(stage, []).append(r[False])
    converged: dict[str, float] = {}
    if converged_policies:
        m, kernels = twins[True], registries[True]
        probe = generate_sortie(
            world, sc.schedule[-1].condition, derive_seed(seed, "probe"), label="probe"
        )
        ref_run = localize_dataset(m, probe, ref, kernels)
        for p in converged_policies:
            run = localize_dataset(m, probe, p, kernels)
            converged[p.name] = observation_ratio(run, ref_run).mean_of_ratios
    return GapStudy(seed, gaps, with_r, without_r, converged)
