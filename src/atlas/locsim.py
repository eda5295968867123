"""Localization simulation against a multi-session map.

A localization run walks a sortie's poses, builds the candidate set within
sensor range, selects a subset under the active policy, and simulates which
selected landmarks are actually matched.  Detection draws are keyed by
(sortie observation seed, iteration, landmark id) so that every policy
evaluated on the same sortie sees the same outcome for the same landmark:
observation ratios between policies then measure selection quality alone.
Everything a run draws that no policy changes (candidate sets, detection
outcomes, error draws, tie-break words) is held in one SortieDraws per
(map, sortie), which the reference run and every probe policy share.
A run hands its observations to the map as int64 rows of (landmark id,
pose index, count), the form every map ingestion takes.

Translation error is a proxy, not an integrated estimator: the per-iteration
error is |N(0, sigma)| with sigma shrinking in the number of observed
landmarks, and a fixed failure magnitude when too few are observed.  The
calibration makes a condition-matched full-selection run land around 0.05 m
RMS and a condition-mismatched one fail well above the 0.10 m update
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from atlas.mapcore import EquivalenceClassIndex, MultiSessionMap, SessionKind, UNBOUNDED_CAP
from atlas.ranking import (
    RankingKind,
    RollingSelectionStats,
    SelectionPolicy,
    class_scores,
    selection_order,
    selection_size,
    update_window,
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

# Poses per candidate_mask call in sortie_draws: bounds its dense
# (poses x landmarks) temporaries.  One pose per call costs CPU.
CANDIDATE_BLOCK_POSES = 32


@dataclass(frozen=True)
class PoseErrorParams:
    """Calibration of the translation-error proxy."""

    sigma0: float = 0.15  # error scale that shrinks with sqrt(n)
    floor: float = 0.035  # error floor no amount of landmarks removes
    min_landmarks: int = 4  # below this the solve is declared failed
    failure_error_m: float = 1.0  # error assigned to a failed iteration


POSE_ERROR = PoseErrorParams()


def pose_error_sigma(n_observed: int, params: PoseErrorParams) -> float:
    return params.floor + params.sigma0 / math.sqrt(n_observed)


def pose_error_proxy(n_observed: int, params: PoseErrorParams, z: float) -> float:
    """Translation error for one iteration given how many landmarks matched.

    With fewer than min_landmarks the iteration fails at the fixed failure
    magnitude; otherwise the error is |z| * sigma(n) for a standard normal z.
    """
    if n_observed < params.min_landmarks:
        return params.failure_error_m
    return abs(z) * pose_error_sigma(n_observed, params)


@dataclass
class IterationRecord:
    candidates: np.ndarray  # ids, ascending
    selected: np.ndarray  # ids, rank order
    observed: np.ndarray  # ids, ascending
    error_m: float


@dataclass
class LocalizationRun:
    policy: SelectionPolicy
    label: str
    condition: float
    dataset_fingerprint: tuple
    iterations: list[IterationRecord]
    observed_counts: np.ndarray
    errors_m: np.ndarray
    n_failures: int

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    @property
    def rms_translation_m(self) -> float:
        return float(np.sqrt(np.mean(self.errors_m**2))) if len(self.errors_m) else 0.0

    @property
    def total_selected(self) -> int:
        return int(sum(len(it.selected) for it in self.iterations))

    @property
    def total_observed(self) -> int:
        return int(self.observed_counts.sum())

    @property
    def observations(self) -> np.ndarray:
        """(landmark id, pose index, 1) rows, one per observation, in pose order.

        Each iteration observes a landmark at most once, so every count is 1.
        """
        ids = np.concatenate([it.observed for it in self.iterations] + [np.empty(0, np.int64)])
        poses = np.repeat(np.arange(len(self.observed_counts)), self.observed_counts)
        return np.column_stack((ids, poses, np.ones_like(ids)))


@dataclass
class SortieDraws:
    """What localizing one sortie against one map state draws, whatever the policy.

    Per pose k: the candidate ids within sensor range (ascending) and their
    class ids in `index`, whether each candidate is detected if selected,
    and the standard normal of the error draw.  Tie-break words are hashed
    per policy seed: the first use of a seed hashes every pose's candidates
    in one call and keeps the words split by pose.
    """

    fingerprint: tuple
    index: EquivalenceClassIndex
    candidates: list[np.ndarray]
    classes: list[np.ndarray]
    detected: list[np.ndarray]
    error_z: np.ndarray
    _tiebreaks: dict[int, list[np.ndarray]] = field(default_factory=dict, init=False)

    def tiebreak(self, policy: SelectionPolicy, k: int) -> np.ndarray | None:
        """hash_stream(policy.seed, k, candidates[k]); None for the unranked policy."""
        if policy.ranking is RankingKind.ALL:
            return None
        words = self._tiebreaks.get(policy.seed)
        if words is None:
            sizes = [len(c) for c in self.candidates]
            poses = np.repeat(np.arange(len(sizes)), sizes)
            flat = hash_stream(policy.seed, poses, np.concatenate(self.candidates))
            words = self._tiebreaks[policy.seed] = np.split(flat, np.cumsum(sizes)[:-1])
        return words[k]


def sortie_draws(
    m: MultiSessionMap, dataset: SortieDataset, kernels: Mapping[int, ObservabilityKernel]
) -> SortieDraws:
    """Candidates, detection outcomes and error draws of every pose of the dataset on m.

    Detections are drawn per block of CANDIDATE_BLOCK_POSES poses, salted
    with each candidate's pose index, so each pose sees the draws
    uniform01(observation_seed, k, candidates[k]) that a per-pose call gives.
    """
    index = m.index
    ids = m.landmark_ids
    p_det = detection_probabilities(*KernelTable(kernels).lookup(ids), dataset.condition)
    n_poses = len(dataset.poses)
    candidates, classes, detected = [], [], []
    for start in range(0, n_poses, CANDIDATE_BLOCK_POSES):
        block = dataset.poses[start : start + CANDIDATE_BLOCK_POSES]
        mask = m.candidate_mask(block, dataset.sensor_range)
        poses, rows = np.nonzero(mask)  # pose-major, rows ascending within a pose
        ends = np.cumsum(mask.sum(axis=1))[:-1]
        block_ids = ids[rows]
        hit = uniform01(dataset.observation_seed, poses + start, block_ids) < p_det[rows]
        candidates += np.split(block_ids, ends)
        classes += np.split(index.class_ids[rows], ends)
        detected += np.split(hit, ends)
    error_z = normal_pair_stream(dataset.error_seed, np.arange(n_poses))
    return SortieDraws(dataset.fingerprint(), index, candidates, classes, detected, error_z)


def localize_dataset(
    m: MultiSessionMap,
    dataset: SortieDataset,
    policy: SelectionPolicy,
    kernels: Mapping[int, ObservabilityKernel],
    *,
    draws: SortieDraws | None = None,
    bootstrap_full_first: bool = True,
) -> LocalizationRun:
    """Run the full selection/observation/error loop over one sortie.

    Runs of several policies over the same map state and dataset may share
    one `sortie_draws(m, dataset, kernels)`; without one it is built here.
    With bootstrap_full_first the first iteration selects every candidate,
    to warm the rolling window up.
    """
    if draws is None:
        draws = sortie_draws(m, dataset, kernels)
    elif draws.index is not m.index or draws.fingerprint != dataset.fingerprint():
        raise ValueError("draws were made for another map state or dataset")
    index = draws.index
    n_poses = len(draws.candidates)
    stats = RollingSelectionStats(policy.window_len)
    iterations: list[IterationRecord] = []
    observed_counts = np.zeros(n_poses, dtype=np.int64)
    errors = np.zeros(n_poses)

    for k, (ids_c, classes_c) in enumerate(zip(draws.candidates, draws.classes)):
        scores = class_scores(policy, stats, index, classes_c)
        if k == 0 and bootstrap_full_first:
            top = np.arange(len(ids_c))  # warm-up: select the whole candidate set
        else:
            ksel = selection_size(policy.selection_ratio, len(ids_c), policy.max_selected)
            top = selection_order(policy, ids_c, scores, draws.tiebreak(policy, k))[:ksel]
        sel_ids = ids_c[top]
        obs_mask = draws.detected[k][top]
        obs_ids = np.sort(sel_ids[obs_mask])
        observed_counts[k] = len(obs_ids)
        errors[k] = pose_error_proxy(len(obs_ids), POSE_ERROR, z=draws.error_z[k])
        update_window(stats, classes_c[top], obs_mask, index)
        iterations.append(IterationRecord(ids_c, sel_ids, obs_ids, float(errors[k])))

    return LocalizationRun(
        policy=policy,
        label=dataset.label,
        condition=dataset.condition,
        dataset_fingerprint=dataset.fingerprint(),
        iterations=iterations,
        observed_counts=observed_counts,
        errors_m=errors,
        n_failures=int(np.sum(observed_counts < POSE_ERROR.min_landmarks)),
    )


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
class PipelineConfig:
    """Everything process_sortie needs besides the map and the dataset."""

    kernels: KernelRegistry = field(default_factory=dict)
    threshold_m: float = DEFAULT_THRESHOLD_M
    use_observation_sessions: bool = True


@dataclass
class SortieReport:
    label: str
    condition: float
    session_kind: SessionKind
    session_id: int | None
    rms_m: float
    n_landmarks_before: int
    n_landmarks_after: int
    n_rich_sessions: int
    n_observation_sessions: int
    summarized: bool
    objective: float | None
    n_proposals: int


def process_sortie(
    m: MultiSessionMap,
    dataset: SortieDataset,
    policy: SelectionPolicy,
    cfg: PipelineConfig,
    run: LocalizationRun | None = None,
) -> tuple[MultiSessionMap, SortieReport]:
    """Localize, decide rich vs observation, ingest, and re-summarize.

    The input map is never mutated, so a failure at any point leaves the
    caller's state untouched.  Ingestion works on a copy that is returned;
    an observation sortie with observation sessions disabled ingests
    nothing and returns the input map itself.  A pre-computed run for this
    (map, dataset, policy) may be passed to avoid localizing twice.
    """
    if run is None:
        run = localize_dataset(m, dataset, policy, cfg.kernels)
    kind = decide_update(run, cfg.threshold_m)
    n_before = len(m.landmarks)
    work = m  # replaced by a copy only when there is something to ingest
    summarized = False
    objective = None
    session_id: int | None = None

    if kind is SessionKind.RICH:
        work = m.copy()
        proposals = dataset.proposals
        session_id = work.add_rich_session(
            dataset.poses,
            proposals.positions,
            proposals.observations,
            run.observations,
            label=dataset.label,
        )
        add_kernels(cfg.kernels, work.landmarks_created_by(session_id), proposals)
        if work.landmark_cap != UNBOUNDED_CAP and len(work.landmarks) > work.landmark_cap:
            problem = build_problem(
                work, keep_count=work.landmark_cap, min_per_vertex=COVERAGE_FLOOR_PER_VERTEX
            )
            solution = solve(problem)
            kept = apply_summarization(work, solution)
            for lid in np.setdiff1d(work.landmark_ids, kept.landmark_ids).tolist():
                cfg.kernels.pop(lid, None)  # landmark ids are never reused
            work = kept
            summarized = True
            objective = solution.objective
    elif cfg.use_observation_sessions:
        work = m.copy()
        seen = run.observations
        vertex = work.nearest_vertices(dataset.poses)[seen[:, 1]]
        # Poses that share a nearest vertex merge their tallies; every count is 1.
        pairs, counts = np.unique(np.column_stack((seen[:, 0], vertex)), axis=0, return_counts=True)
        observed = np.column_stack((pairs, counts))
        session_id = work.add_observation_session(observed, label=dataset.label)

    report = SortieReport(
        label=dataset.label,
        condition=dataset.condition,
        session_kind=kind,
        session_id=session_id,
        rms_m=run.rms_translation_m,
        n_landmarks_before=n_before,
        n_landmarks_after=len(work.landmarks),
        n_rich_sessions=work.n_rich_sessions,
        n_observation_sessions=work.n_observation_sessions,
        summarized=summarized,
        objective=objective,
        n_proposals=len(dataset.proposals),
    )
    return work, report
