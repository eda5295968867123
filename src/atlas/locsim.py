"""Localization simulation against a multi-session map.

A localization run walks a sortie's poses, builds the candidate set within
sensor range, selects a subset under the active policy, and simulates which
selected landmarks are actually matched.  Detection draws are keyed by
(sortie observation seed, pose index, landmark id) so that every policy
evaluated on the same sortie sees the same outcome for the same landmark:
observation ratios between policies then measure selection quality alone.
Everything a run draws that no policy changes (candidate sets, detection
outcomes, error draws, tie-break orders) is held in one SortieDraws per
(map, sortie), in flat per-candidate columns.  The draws hold no class
index: each run reads its classes from the map it localizes on, so maps
that hold the same landmark columns under different class indexes (a map
and its rich-sessions view, in a gap study) share one SortieDraws.

`localize_policies` runs any number of policies over one sortie in one
pass.  Policies that never read the rolling window (`all`, `random`)
select for every pose at once.  The ranked policies step through the
poses together: one `RollingSelectionStats` with a lane per policy, one
stable sort of the class scores per pose over each seed's tie-break
order, and one bincount for the window row of every lane.  A run hands
its observations to the map as int64 rows of (landmark id, pose index,
count), the form every map ingestion takes.

Translation error is a proxy, not an integrated estimator: the per-pose
error is |N(0, sigma)| with sigma shrinking in the number of observed
landmarks, and a fixed failure magnitude when too few are observed.  The
calibration makes a condition-matched full-selection run land around 0.05 m
RMS and a condition-mismatched one fail well above the 0.10 m update
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from atlas.mapcore import (
    EquivalenceClassIndex,
    MultiSessionMap,
    SessionKind,
    UNBOUNDED_CAP,
    within_radius,
)
from atlas.ranking import (
    RankingKind,
    RollingSelectionStats,
    SelectionPolicy,
    reference_policy,
    selection_order,  # noqa: F401 -- the order the lockstep reproduces; perfbench wraps this name
    selection_size,
)
from atlas.rng import hash_stream, normal_pair_stream, uniform01
from atlas.summarize import build_problem, apply_summarization, solve
from atlas.worldgen import (
    KernelRegistry,
    KernelTable,
    ObservabilityKernel,
    SortieDataset,
    add_kernels,
    detection_probabilities,
)

DEFAULT_THRESHOLD_M = 0.10

# Per-vertex coverage floor handed to the summarizer.  A pose observing
# fewer than PoseErrorParams.min_landmarks (4) fails outright and kernel
# peaks run as low as 0.35, so a vertex thinned to the floor needs its
# expected observation count to clear the failure threshold by at least
# one binomial standard deviation: the smallest n with
# 0.35*n - sqrt(n*0.35*0.65) >= 4 is 18.
COVERAGE_FLOOR_PER_VERTEX = 18

# Poses per candidate block in sortie_draws: bounds its dense (poses x
# landmarks) temporaries.  One pose per call costs CPU.
CANDIDATE_BLOCK_POSES = 32


@dataclass(frozen=True)
class PoseErrorParams:
    """Calibration of the translation-error proxy."""

    sigma0: float = 0.15  # error scale that shrinks with sqrt(n)
    floor: float = 0.035  # error floor no amount of landmarks removes
    min_landmarks: int = 4  # below this the solve is declared failed
    failure_error_m: float = 1.0  # error assigned to a failed pose


POSE_ERROR = PoseErrorParams()


def pose_errors(n_observed: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Translation error of each pose given how many landmarks it matched.

    A pose with fewer than min_landmarks fails at the fixed failure
    magnitude; otherwise its error is |z| * (floor + sigma0 / sqrt(n)) for
    its standard normal z.
    """
    p = POSE_ERROR
    n = np.asarray(n_observed)
    # np.where evaluates both branches, so sqrt never sees a zero count
    sigma = p.floor + p.sigma0 / np.sqrt(np.maximum(n, 1))
    return np.where(n < p.min_landmarks, p.failure_error_m, np.abs(z) * sigma)


def n_failed(observed_counts: np.ndarray) -> int:
    """How many poses matched too few landmarks to localize."""
    return int(np.count_nonzero(observed_counts < POSE_ERROR.min_landmarks))


@dataclass
class LocalizationRun:
    """One policy's run over a sortie: per-pose counts and errors, and the
    selected (rank order) and observed (ascending) ids of every pose, pose
    after pose."""

    policy: SelectionPolicy
    label: str
    condition: float
    dataset_fingerprint: tuple
    selected_counts: np.ndarray
    selected_ids: np.ndarray
    observed_counts: np.ndarray
    observed_ids: np.ndarray
    errors_m: np.ndarray

    @property
    def n_iterations(self) -> int:
        return len(self.observed_counts)

    @property
    def n_failures(self) -> int:
        return n_failed(self.observed_counts)

    @property
    def rms_translation_m(self) -> float:
        return float(np.sqrt(np.mean(self.errors_m**2))) if len(self.errors_m) else 0.0

    @property
    def total_selected(self) -> int:
        return int(self.selected_counts.sum())

    @property
    def total_observed(self) -> int:
        return int(self.observed_counts.sum())

    @property
    def observations(self) -> np.ndarray:
        """(landmark id, pose index, 1) rows, one per observation, in pose order.

        Each pose observes a landmark at most once, so every count is 1.
        """
        poses = np.repeat(np.arange(len(self.observed_counts)), self.observed_counts)
        return np.column_stack((self.observed_ids, poses, np.ones_like(poses)))


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integer runs [starts[i], starts[i] + lengths[i]), concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


@dataclass
class SortieDraws:
    """What localizing one sortie against one map state draws, whatever the policy.

    Flat columns over the candidates of every pose: pose k's candidates are
    rows ptr[k]:ptr[k + 1], with their rows in the map, their ids
    (ascending within the pose), and whether each is detected if selected.
    error_z holds each pose's standard normal error draw.  landmark_ids is
    the landmark id column of the map the draws were made on: a map's
    columns are read-only and every mutation that changes its landmarks
    assigns new ones, so a map holding that same column object holds the
    same landmarks.
    """

    fingerprint: tuple
    landmark_ids: np.ndarray
    ptr: np.ndarray
    rows: np.ndarray
    ids: np.ndarray
    detected: np.ndarray
    error_z: np.ndarray
    _orders: dict[int, np.ndarray] = field(default_factory=dict, init=False)

    @property
    def n_poses(self) -> int:
        return len(self.ptr) - 1

    def tiebreak_order(self, seed: int) -> np.ndarray:
        """Rows pose by pose, each pose's candidates by (hash_stream(seed, k, id), id).

        One sort of packed uint64 keys: a candidate's pose in the top b bits,
        b the bit length of the pose count, above the top 64 - b bits of its
        word.  Runs of equal keys are then put in (word, id) order by one
        lexsort over their members.  Computed on the first use of a seed and
        kept.
        """
        order = self._orders.get(seed)
        if order is None:
            poses = np.repeat(np.arange(self.n_poses), np.diff(self.ptr))
            words = hash_stream(seed, poses, self.ids).astype(np.uint64, copy=False)
            b = np.uint64(self.n_poses.bit_length())
            keys = (poses.astype(np.uint64) << (np.uint64(64) - b)) | (words >> b)
            order = np.argsort(keys)
            keys = keys[order]
            tie = keys[1:] == keys[:-1]  # row i + 1 of the order ties with row i
            if tie.any():
                tied = np.flatnonzero(np.concatenate(([False], tie)) | np.append(tie, False))
                run = np.cumsum(np.concatenate(([True], ~tie)))[tied]
                members = order[tied]
                order[tied] = members[np.lexsort((self.ids[members], words[members], run))]
            self._orders[seed] = order
        return order


def _box_rows(xy: np.ndarray, poses: np.ndarray, pad: float) -> np.ndarray:
    """Rows of xy inside the x/y bounding box of poses padded by pad, ascending.

    NaN pose coordinates are passed over (the candidate test accepts
    nothing at them), and an infinite pad keeps every row.
    """
    if pad == np.inf:
        return np.arange(len(xy))
    lo = np.fmin.reduce(poses[:, :2], axis=0) - pad
    hi = np.fmax.reduce(poses[:, :2], axis=0) + pad
    inside = (xy >= lo) & (xy <= hi)
    return np.flatnonzero(inside[:, 0] & inside[:, 1])


def sortie_draws(
    m: MultiSessionMap, dataset: SortieDataset, kernels: Mapping[int, ObservabilityKernel]
) -> SortieDraws:
    """Candidates, detection outcomes and error draws of every pose of the dataset on m.

    Candidates are searched per block of CANDIDATE_BLOCK_POSES poses, and
    the candidate test runs only on the landmarks in the block's x/y
    bounding box.  The box is padded by the sensor range r (at least
    2**-511, below which squares underflow) and a relative slack, so that
    rounding never leaves out a landmark the test accepts; where r * r
    overflows, the test accepts every finite distance and the box every
    landmark.  Detections are drawn per block, salted with each
    candidate's pose index, so each pose sees the draws
    uniform01(observation_seed, k, candidates of k) that a per-pose call
    gives.
    """
    ids, pos = m.landmark_ids, m.landmark_positions
    p_det = detection_probabilities(*KernelTable(kernels).lookup(ids), dataset.condition)
    n_poses, r = len(dataset.poses), float(dataset.sensor_range)
    pad = max(r, 2.0**-511) * (1.0 + 1e-9) if r * r < np.inf else np.inf
    counts, rows, hits = [], [], []
    for start in range(0, n_poses, CANDIDATE_BLOCK_POSES):
        block = dataset.poses[start : start + CANDIDATE_BLOCK_POSES]
        near = _box_rows(pos[:, :2], block, pad)
        mask = within_radius(block, pos[near], r)
        poses, block_rows = np.nonzero(mask)  # pose-major, ascending within a pose
        block_rows = near[block_rows]
        counts.append(mask.sum(axis=1))
        rows.append(block_rows)
        draw = uniform01(dataset.observation_seed, poses + start, ids[block_rows])
        hits.append(draw < p_det[block_rows])
    ptr = np.zeros(n_poses + 1, dtype=np.int64)
    np.cumsum(np.concatenate(counts + [np.empty(0, np.int64)]), out=ptr[1:])
    rows = np.concatenate(rows + [np.empty(0, np.int64)])
    return SortieDraws(
        dataset.fingerprint(),
        ids,
        ptr,
        rows,
        ids[rows],
        np.concatenate(hits + [np.empty(0, bool)]),
        normal_pair_stream(dataset.error_seed, np.arange(n_poses)),
    )


def _lockstep_picks(
    draws: SortieDraws,
    lanes: Sequence[tuple[SelectionPolicy, EquivalenceClassIndex]],
    sizes: np.ndarray,
    bootstrap: bool,
) -> list[np.ndarray]:
    """Ranked selections stepped through the poses together, one lane per
    (policy, class index) pair: the policy ranking on the map of that index.

    Returns, per lane, the positions of its selections in its tie-break
    order, pose after pose and in rank order within a pose; sizes holds
    each lane's selection size per pose.  The lanes share one
    RollingSelectionStats, and every pose pushes one row.  A pose's rank
    order is a stable sort of the negated class scores over the tie-break
    order, which is selection_order's (score descending, tie-break word,
    id) order.
    """
    window = RollingSelectionStats(lanes)
    n_lanes, n_classes = window.sums.shape[:2]
    n_poses, n_candidates = draws.n_poses, np.diff(draws.ptr)
    # Each candidate's row key, 2 * (lane * n_classes + class) + detected, in its
    # lane's tie-break order; and whether its rank in the pose is within the lane's size.
    dtype = np.min_scalar_type(2 * n_classes * n_lanes)
    key = {id(ix): (2 * ix.class_ids[draws.rows] + draws.detected).astype(dtype) for _, ix in lanes}
    ordered = {(id(ix), p.seed): key[id(ix)][draws.tiebreak_order(p.seed)] for p, ix in lanes}
    keys = np.stack([ordered[id(ix), p.seed] for p, ix in lanes])
    keys += (2 * n_classes * np.arange(n_lanes, dtype=dtype))[:, None]
    local_rank = np.arange(keys.shape[1]) - np.repeat(draws.ptr[:-1], n_candidates)
    takes = np.empty(keys.shape, dtype=bool)
    for size, take in zip(sizes, takes):
        np.less(local_rank, np.repeat(size, n_candidates), out=take)
    empty = np.zeros(window.sums.shape, dtype=np.int64)
    lane_col = np.arange(n_lanes)[:, None]
    picks = []
    ptr = draws.ptr.tolist()
    for k, (a, b) in enumerate(zip(ptr, ptr[1:])):
        row = empty  # a pose without candidates pushes an empty row
        if a < b:
            pose_keys, take = keys[:, a:b], takes[:, a:b]
            if k == 0 and bootstrap:  # every candidate is selected: the order is set later
                by_score, ranked_keys = np.broadcast_to(local_rank[a:b], take.shape), pose_keys
            else:
                scores = -window.scores()
                by_score = np.argsort(scores.ravel()[pose_keys >> 1], axis=1, kind="stable")
                ranked_keys = pose_keys[lane_col, by_score]
            picks.append(by_score[take])
            row = np.bincount(ranked_keys[take], minlength=empty.size).reshape(empty.shape)
        window.push_record(row)
    # picks hold each pose's selections lane after lane; gather each lane's.
    flat = np.concatenate(picks + [np.empty(0, np.int64)])
    del picks
    by_pose = sizes.T.ravel()
    starts = (np.cumsum(by_pose) - by_pose).reshape(n_poses, n_lanes).T
    return [
        flat[_runs(start, size)] + np.repeat(draws.ptr[:-1], size)
        for start, size in zip(starts, sizes)
    ]


def localize_policies(
    m: MultiSessionMap,
    dataset: SortieDataset,
    policies: Sequence[SelectionPolicy],
    kernels: Mapping[int, ObservabilityKernel],
    *,
    maps: Sequence[MultiSessionMap] | None = None,
    draws: SortieDraws | None = None,
    bootstrap_full_first: bool = True,
) -> list[LocalizationRun]:
    """Run every policy's selection/observation loop over one sortie, one run per policy.

    Each run equals what the policy's own loop gives: per pose, score the
    candidates from the policy's rolling window, take the first
    selection_size of selection_order, observe the detected ones, and push
    the pose's class tallies to the window.  Each policy localizes on its
    entry of maps, m for every policy when None: maps that hold m's
    landmark id column (a map and its rich-sessions view do) share one
    `sortie_draws(m, dataset, kernels)`, each run reading the classes of
    its own map.  Draws may be passed in; without them they are built here.
    ValueError for draws made on a map with another landmark column or for
    another dataset; equal kernels are the caller's to ensure.  With
    bootstrap_full_first the first pose selects every candidate, to warm
    the rolling window up.

    The unranked policy takes each pose's lowest ids and the random one the
    head of each pose's tie-break order, for every pose at once.  A ranked
    policy on a map of at most one class ranks nothing, so it takes the
    random policy's path; the other ranked runs step through the poses
    together (_lockstep_picks).
    """
    maps = (m,) * len(policies) if maps is None else tuple(maps)
    if len(maps) != len(policies):
        raise ValueError("one map per policy")
    if draws is None:
        draws = sortie_draws(m, dataset, kernels)
    elif draws.fingerprint != dataset.fingerprint():
        raise ValueError("draws were made for another dataset")
    if any(on.landmark_ids is not draws.landmark_ids for on in (m, *maps)):
        raise ValueError("draws were made for another map state")
    n_candidates = np.diff(draws.ptr)
    bootstrap = bootstrap_full_first and draws.n_poses > 0
    sizes = np.array(
        [selection_size(p.selection_ratio, n_candidates, p.max_selected) for p in policies],
        dtype=np.int64,
    ).reshape(len(policies), draws.n_poses)
    if bootstrap:
        sizes[:, 0] = n_candidates[0]
    # Each policy's selections as positions in its order: rows for the
    # unranked policy, the seed's tie-break order for the others.
    ranked = [
        i for i, (p, on) in enumerate(zip(policies, maps)) if p.ranking.windowed and len(on.index) > 1
    ]
    picks = {}
    if ranked:
        lanes = [(policies[i], maps[i].index) for i in ranked]
        picks = dict(zip(ranked, _lockstep_picks(draws, lanes, sizes[ranked], bootstrap)))
    runs = []
    for i, (p, size) in enumerate(zip(policies, sizes)):
        pos = picks.pop(i) if i in picks else _runs(draws.ptr[:-1], size)
        rows = pos if p.ranking is RankingKind.ALL else draws.tiebreak_order(p.seed)[pos]
        if bootstrap:
            rows[: size[0]] = np.arange(size[0])  # the whole first candidate set, by id
        detected = draws.detected[rows]
        observed = np.zeros(len(draws.ids), dtype=bool)
        observed[rows[detected]] = True
        observed_counts = np.bincount(
            np.repeat(np.arange(draws.n_poses), size)[detected], minlength=draws.n_poses
        )
        runs.append(
            LocalizationRun(
                policy=p,
                label=dataset.label,
                condition=dataset.condition,
                dataset_fingerprint=draws.fingerprint,
                selected_counts=size,
                selected_ids=draws.ids[rows],
                # rows ascend pose by pose and by id within a pose
                observed_ids=draws.ids[observed],
                observed_counts=observed_counts,
                errors_m=pose_errors(observed_counts, draws.error_z),
            )
        )
    return runs


def localize_dataset(
    m: MultiSessionMap,
    dataset: SortieDataset,
    policy: SelectionPolicy,
    kernels: Mapping[int, ObservabilityKernel],
    *,
    draws: SortieDraws | None = None,
    bootstrap_full_first: bool = True,
) -> LocalizationRun:
    """One policy's run over one sortie: localize_policies with a single policy."""
    (run,) = localize_policies(
        m, dataset, (policy,), kernels, draws=draws, bootstrap_full_first=bootstrap_full_first
    )
    return run


@dataclass
class ObservationRatio:
    """Per-sortie observation ratio of a run against the full-selection reference."""

    per_iteration: np.ndarray  # nan where the reference observed nothing
    mean_of_ratios: float  # nan when no iteration was valid
    ratio_of_totals: float
    skipped: tuple[int, ...]

    @property
    def n_valid(self) -> int:
        return int(np.sum(~np.isnan(self.per_iteration)))


def observation_ratio(run: LocalizationRun, reference: LocalizationRun) -> ObservationRatio:
    """Observed-landmark ratio per iteration, run vs reference.

    The reference must be the unranked full-selection policy on the same
    dataset (same observation seed), which makes each ratio at most 1.
    Iterations where the reference observed nothing are skipped and listed;
    with no valid iteration at all the aggregates are nan, because a sortie
    where even full selection matches nothing says nothing about policies.
    """
    if reference.policy.ranking is not RankingKind.ALL or reference.policy.selection_ratio != 1.0:
        raise ValueError("reference run must use the unranked full-selection policy")
    if run.dataset_fingerprint != reference.dataset_fingerprint:
        raise ValueError("runs localized different datasets")
    ref = reference.observed_counts.astype(np.float64)
    got = run.observed_counts.astype(np.float64)
    per = np.full(len(ref), np.nan)
    valid = ref >= 1
    per[valid] = got[valid] / ref[valid]
    skipped = tuple(int(k) for k in np.flatnonzero(~valid))
    mean = float(np.nanmean(per)) if valid.any() else float("nan")
    totals = float(got.sum() / ref.sum()) if ref.sum() > 0 else float("nan")
    return ObservationRatio(per, mean, totals, skipped)


def decide_update(run: LocalizationRun, threshold_m: float = DEFAULT_THRESHOLD_M) -> SessionKind:
    """Rich when localization was too poor, observation otherwise (ties stay light)."""
    return SessionKind.RICH if run.rms_translation_m > threshold_m else SessionKind.OBSERVATION


@dataclass
class SortieReport:
    label: str
    session_kind: SessionKind
    session_id: int
    rms_m: float
    n_landmarks_before: int
    n_landmarks_after: int
    n_rich_sessions: int
    n_observation_sessions: int
    summarized: bool
    objective: float | None
    n_proposals: int
    # the new landmarks that survive summarization and the proposal row of each
    new_landmark_ids: list[int]
    new_landmark_rows: list[int]


def pair_tallies(ids: np.ndarray, vertex: np.ndarray) -> np.ndarray:
    """(id, vertex, count) rows of the distinct (ids[i], vertex[i]) pairs, ascending.

    Poses that share a nearest vertex merge their observations of a
    landmark into one row.  With base = the largest vertex + 1, each pair
    is tallied as the one int64 key id * base + vertex, which sorts as the
    pair does, when both ids are non-negative and every key fits in int64;
    otherwise as a row pair.
    """
    base = int(vertex.max(initial=0)) + 1
    fits = (int(ids.max(initial=0)) + 1) * base < 2**63
    if fits and min(ids.min(initial=0), vertex.min(initial=0)) >= 0:
        keys, counts = np.unique(ids * base + vertex, return_counts=True)
        return np.column_stack((keys // base, keys % base, counts))
    pairs, counts = np.unique(np.column_stack((ids, vertex)), axis=0, return_counts=True)
    return np.column_stack((pairs, counts))


def process_sortie(
    m: MultiSessionMap,
    dataset: SortieDataset,
    kernels: KernelRegistry,
    run: LocalizationRun | None = None,
    *,
    threshold_m: float = DEFAULT_THRESHOLD_M,
) -> tuple[MultiSessionMap, KernelRegistry, SortieReport]:
    """Localize, decide rich vs observation, ingest, and re-summarize.

    Map updates are decided from an unranked full-selection run, so the
    rich/observation choice never depends on which vehicle uploaded.  That
    `reference_policy()` run may be passed in to avoid localizing twice;
    ValueError if it is another policy's.  Nothing passed in is mutated, so
    a failure leaves the caller's state untouched.  Returns the new map, its
    registry (less the kernels of landmarks summarization dropped, plus those
    of new landmarks that survive; `kernels` itself after an observation
    update) and the report.
    """
    ref = reference_policy()
    if run is None:
        run = localize_dataset(m, dataset, ref, kernels)
    elif run.policy != ref:
        raise ValueError("map updates are decided from the reference policy's run")
    kind = decide_update(run, threshold_m)
    work = m.copy()
    solution = None
    new_ids, new_rows = [], []

    if kind is SessionKind.RICH:
        proposals = dataset.proposals
        first_id = work.next_landmark_id
        session_id = work.add_rich_session(
            dataset.poses,
            proposals.positions,
            proposals.observations,
            run.observations,
            label=dataset.label,
        )
        if work.landmark_cap != UNBOUNDED_CAP and len(work.landmarks) > work.landmark_cap:
            solution = solve(build_problem(
                work, keep_count=work.landmark_cap, min_per_vertex=COVERAGE_FLOOR_PER_VERTEX
            ))
            work = apply_summarization(work, solution)
        new_ids = work.landmarks_created_by(session_id)
        new_rows = [lid - first_id for lid in new_ids]  # ids are numbered in proposal order
        dropped = set(np.setdiff1d(m.landmark_ids, work.landmark_ids).tolist())
        kernels = {lid: k for lid, k in kernels.items() if lid not in dropped}
        add_kernels(kernels, new_ids, new_rows, proposals)
    else:
        seen = run.observations
        vertex = work.nearest_vertices(dataset.poses)[seen[:, 1]]
        observed = pair_tallies(seen[:, 0], vertex)
        session_id = work.add_observation_session(observed, label=dataset.label)

    report = SortieReport(
        label=dataset.label,
        session_kind=kind,
        session_id=session_id,
        rms_m=run.rms_translation_m,
        n_landmarks_before=len(m.landmarks),
        n_landmarks_after=len(work.landmarks),
        n_rich_sessions=work.n_rich_sessions,
        n_observation_sessions=work.n_observation_sessions,
        summarized=solution is not None,
        objective=None if solution is None else solution.objective,
        n_proposals=len(dataset.proposals),
        new_landmark_ids=new_ids,
        new_landmark_rows=new_rows,
    )
    return work, kernels, report
