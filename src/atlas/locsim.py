"""Localization simulation against a multi-session map.

A localization run walks a sortie's poses, builds the candidate set within
sensor range, selects a subset under the active policy, and simulates which
selected landmarks are actually matched.  Detection draws are keyed by
(sortie observation seed, iteration, landmark id) so that every policy
evaluated on the same sortie sees the same outcome for the same landmark:
observation ratios between policies then measure selection quality alone.

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

from atlas.mapcore import (
    MultiSessionMap,
    NewLandmark,
    SessionKind,
    UNBOUNDED_CAP,
)
from atlas.ranking import (
    RankingKind,
    RollingSelectionStats,
    SelectionPolicy,
    class_scores,
    selection_order,
    selection_size,
    update_window,
)
from atlas.rng import normal_pair_stream, uniform01
from atlas.summarize import (
    DEFAULT_OBS_WEIGHT,
    DEFAULT_SLACK_PENALTY,
    EXACT_SIZE_LIMIT,
    build_problem,
    apply_summarization,
    solve,
)
from atlas.worldgen import (
    KernelRegistry,
    ObservabilityKernel,
    SortieDataset,
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


@dataclass(frozen=True)
class PoseErrorParams:
    """Calibration of the translation-error proxy."""

    sigma0: float = 0.15  # error scale that shrinks with sqrt(n)
    floor: float = 0.035  # error floor no amount of landmarks removes
    min_landmarks: int = 4  # below this the solve is declared failed
    failure_error_m: float = 1.0  # error assigned to a failed iteration


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


@dataclass(frozen=True)
class LocalizeConfig:
    proxy: PoseErrorParams = PoseErrorParams()
    # First iteration selects everything to warm the rolling window up.
    bootstrap_full_first: bool = True


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
    tallies_by_pose: dict[int, dict[int, int]]  # landmark -> pose index -> count
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


def _kernel_arrays(
    ids: np.ndarray, kernels: Mapping[int, ObservabilityKernel]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    centers = np.zeros(len(ids))
    widths = np.ones(len(ids))
    peaks = np.zeros(len(ids))  # unknown kernel -> never matches
    for row, lid in enumerate(ids.tolist()):
        k = kernels.get(lid)
        if k is not None:
            centers[row] = k.center
            widths[row] = k.width
            peaks[row] = k.peak
    return centers, widths, peaks


def localize_dataset(
    m: MultiSessionMap,
    dataset: SortieDataset,
    policy: SelectionPolicy,
    kernels: Mapping[int, ObservabilityKernel],
    cfg: LocalizeConfig | None = None,
) -> LocalizationRun:
    """Run the full selection/observation/error loop over one sortie."""
    cfg = cfg or LocalizeConfig()
    index = m.index
    ids, _ = m.landmark_array()
    poses = dataset.poses
    class_of_row = index.classes_of(ids)
    within = m.candidate_mask(poses, dataset.sensor_range)  # all iterations at once
    centers, widths, peaks = _kernel_arrays(ids, kernels)
    p_det = detection_probabilities(centers, widths, peaks, dataset.condition)

    stats = RollingSelectionStats(policy.window_len)
    iterations: list[IterationRecord] = []
    observed_counts = np.zeros(len(poses), dtype=np.int64)
    errors = np.zeros(len(poses))
    tallies: dict[int, dict[int, int]] = {}
    n_failures = 0

    for k in range(len(poses)):
        cand_rows = np.flatnonzero(within[k])
        ids_c = ids[cand_rows]
        scores = class_scores(policy, stats, index, class_of_row[cand_rows])

        if k == 0 and cfg.bootstrap_full_first:
            sel_rows = cand_rows  # warm-up: select the whole candidate set
        else:
            ksel = selection_size(policy.selection_ratio, len(cand_rows), policy.max_selected)
            order = selection_order(policy, ids_c, scores, salt=k)
            sel_rows = cand_rows[order[:ksel]]
        sel_ids = ids[sel_rows]

        if len(sel_rows):
            u = uniform01(dataset.observation_seed, k, sel_ids)
            obs_mask = u < p_det[sel_rows]
        else:
            obs_mask = np.zeros(0, dtype=bool)
        obs_ids = np.sort(sel_ids[obs_mask])
        n_obs = len(obs_ids)
        observed_counts[k] = n_obs
        if n_obs < cfg.proxy.min_landmarks:
            errors[k] = cfg.proxy.failure_error_m
            n_failures += 1
        else:
            z = normal_pair_stream(dataset.error_seed, k)
            errors[k] = pose_error_proxy(n_obs, cfg.proxy, z=z)

        update_window(stats, class_of_row[sel_rows], obs_mask, index)
        for lid in obs_ids.tolist():
            tallies.setdefault(int(lid), {})[k] = tallies.get(int(lid), {}).get(k, 0) + 1
        iterations.append(IterationRecord(ids_c, sel_ids, obs_ids, float(errors[k])))

    return LocalizationRun(
        policy=policy,
        label=dataset.label,
        condition=dataset.condition,
        dataset_fingerprint=dataset.fingerprint(),
        iterations=iterations,
        observed_counts=observed_counts,
        errors_m=errors,
        tallies_by_pose=tallies,
        n_failures=n_failures,
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
    localize: LocalizeConfig = field(default_factory=LocalizeConfig)
    min_per_vertex: int = COVERAGE_FLOOR_PER_VERTEX
    slack_penalty: float = DEFAULT_SLACK_PENALTY
    obs_weight: float = DEFAULT_OBS_WEIGHT
    exact_limit: int = EXACT_SIZE_LIMIT
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

    Returns a new map; the input map is never mutated, so a failure at any
    point leaves the caller's state untouched.  A pre-computed run for this
    (map, dataset, policy) may be passed to avoid localizing twice.
    """
    if run is None:
        run = localize_dataset(m, dataset, policy, cfg.kernels, cfg.localize)
    kind = decide_update(run, cfg.threshold_m)
    n_before = len(m.landmarks)
    work = m.copy()
    summarized = False
    objective = None
    session_id: int | None = None

    if kind is SessionKind.RICH:
        proposals = dataset.proposals
        new_landmarks = [NewLandmark(p.position, p.observations) for p in proposals]
        session_id = work.add_rich_session(
            dataset.poses, new_landmarks, run.tallies_by_pose, label=dataset.label
        )
        for lid, prop in zip(work.landmarks_created_by(session_id), proposals):
            cfg.kernels[lid] = prop.kernel
        if work.landmark_cap != UNBOUNDED_CAP and len(work.landmarks) > work.landmark_cap:
            problem = build_problem(
                work,
                keep_count=work.landmark_cap,
                min_per_vertex=cfg.min_per_vertex,
                slack_penalty=cfg.slack_penalty,
                obs_weight=cfg.obs_weight,
            )
            solution = solve(problem, exact_limit=cfg.exact_limit)
            kept = apply_summarization(work, solution)
            for lid in work.landmarks.keys() - kept.landmarks.keys():
                cfg.kernels.pop(lid, None)  # landmark ids are never reused
            work = kept
            summarized = True
            objective = solution.objective
    elif cfg.use_observation_sessions:
        pose_indices = sorted({k for per in run.tallies_by_pose.values() for k in per})
        nearest = {k: work.nearest_vertex(dataset.poses[k]) for k in pose_indices}
        observed: dict[int, dict[int, int]] = {}
        for lid, per_pose in run.tallies_by_pose.items():
            per_vertex: dict[int, int] = {}
            for k, c in per_pose.items():
                vid = nearest[k]
                per_vertex[vid] = per_vertex.get(vid, 0) + c
            observed[lid] = per_vertex
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
