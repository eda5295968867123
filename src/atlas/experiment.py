"""Experiment harness: chronological runs, regression, policy studies, CSV output.

Everything here is deterministic in (scenario, seed): worlds, sorties,
observation outcomes, and tie-breaks are all derived from named sub-seeds,
so rerunning an experiment writes byte-identical files.  Output files never
contain wall-clock time for the same reason.

The map-building decisions of a run are always taken from the unranked
full-selection reference run, never from a policy under evaluation; policy
runs are probes on the side.  That keeps the map trajectory identical across
whatever policy grid is being compared.
"""

from __future__ import annotations

import csv
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from atlas.locsim import (
    LocalizationRun,
    PipelineConfig,
    SortieReport,
    decide_update,
    localize_dataset,
    observation_ratio,
    process_sortie,
    sortie_draws,
)
from atlas.mapcore import MultiSessionMap, SessionKind, UNBOUNDED_CAP
from atlas.ranking import SelectionPolicy, parse_policy, reference_policy
from atlas.rng import derive_seed
from atlas.worldgen import (
    Scenario,
    SortieDataset,
    World,
    generate_sortie,
    generate_world,
    with_overrides,
)

SCHEMA_VERSION = 1

METRICS_COLUMNS = [
    "scenario",
    "seed",
    "cap",
    "sortie_index",
    "label",
    "condition",
    "mode",
    "policy",
    "ranking",
    "selection_ratio",
    "max_selected",
    "window_len",
    "session_kind",
    "self_localization",
    "rms_m",
    "mean_r_obs",
    "total_r_obs",
    "n_valid_iterations",
    "n_selected_total",
    "n_observed_total",
    "n_failed_iterations",
    "n_landmarks_before",
    "n_landmarks_after",
    "n_rich_sessions",
    "n_observation_sessions",
    "summarized",
]

COMPOSITION_COLUMNS = [
    "scenario",
    "seed",
    "cap",
    "sortie_index",
    "origin_session",
    "n_landmarks",
]


def sortie_seed(seed: int, index: int) -> int:
    return derive_seed(seed, f"sortie/{index}")


def build_world(scenario: Scenario, seed: int) -> World:
    return generate_world(scenario, derive_seed(seed, "world"))


def build_dataset(world: World, index: int, seed: int) -> SortieDataset:
    spec = world.scenario.schedule[index]
    return generate_sortie(world, spec.condition, sortie_seed(seed, index), label=spec.label)


def _cap_str(cap: int) -> str:
    return "inf" if cap == UNBOUNDED_CAP else str(cap)


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return "nan" if np.isnan(v) else repr(v)
    return str(v)


@dataclass
class ChronologicalResult:
    scenario: Scenario
    seed: int
    cap: int
    final_map: MultiSessionMap
    kernels: dict
    reports: list[SortieReport]
    reference_rms: list[float]
    metrics_rows: list[dict]
    composition_rows: list[dict]
    cap_violations: int


def _policy_fields(p: SelectionPolicy) -> dict:
    return {
        "policy": p.name,
        "ranking": p.ranking.value,
        "selection_ratio": p.selection_ratio,
        "max_selected": p.max_selected,
        "window_len": p.window_len,
    }


def _run_fields(run: LocalizationRun) -> dict:
    return {
        "rms_m": run.rms_translation_m,
        "n_selected_total": run.total_selected,
        "n_observed_total": run.total_observed,
        "n_failed_iterations": run.n_failures,
    }


def run_chronological(
    scenario: Scenario,
    seed: int,
    cap: int | None = None,
    policies: tuple[SelectionPolicy, ...] = (),
    use_observation_sessions: bool = True,
) -> ChronologicalResult:
    """Process the scenario's schedule in order, probing policies on the side.

    Each sortie is localized with the reference policy; that run decides rich
    vs observation and provides the observation-ratio denominator for every
    probed policy.  Policies are probed against the pre-ingestion map, so a
    probe can never perturb what the map becomes.
    """
    cap = scenario.landmark_cap if cap is None else cap
    world = build_world(scenario, seed)
    m = MultiSessionMap(landmark_cap=cap)
    cfg = PipelineConfig(
        threshold_m=scenario.threshold_m, use_observation_sessions=use_observation_sessions
    )
    ref = reference_policy()
    base = {"scenario": scenario.name, "seed": seed, "cap": _cap_str(cap)}
    reports: list[SortieReport] = []
    reference_rms: list[float] = []
    metrics: list[dict] = []
    composition: list[dict] = []
    violations = 0

    for i in range(len(scenario.schedule)):
        ds = build_dataset(world, i, seed)
        draws = sortie_draws(m, ds, cfg.kernels)
        ref_run = localize_dataset(m, ds, ref, cfg.kernels, cfg.localize, draws)
        probe_runs = []
        if len(m.landmarks):
            for p in policies:
                run = localize_dataset(m, ds, p, cfg.kernels, cfg.localize, draws)
                probe_runs.append((p, run, observation_ratio(run, ref_run)))
        del draws  # released before ingest and summarization raise the peak
        m, report = process_sortie(m, ds, ref, cfg, run=ref_run)
        if cap != UNBOUNDED_CAP and len(m.landmarks) > cap:
            violations += 1
        reports.append(report)
        reference_rms.append(report.rms_m)
        sortie_base = base | {
            "sortie_index": i,
            "label": ds.label,
            "condition": ds.condition,
            "mode": "chronological",
            "session_kind": report.session_kind.value,
            "self_localization": False,
            "n_landmarks_before": report.n_landmarks_before,
            "n_landmarks_after": report.n_landmarks_after,
            "n_rich_sessions": report.n_rich_sessions,
            "n_observation_sessions": report.n_observation_sessions,
            "summarized": report.summarized,
        }
        ref_ratio = observation_ratio(ref_run, ref_run)
        metrics.append(
            sortie_base
            | _policy_fields(ref)
            | _run_fields(ref_run)
            | {
                "mean_r_obs": ref_ratio.mean_of_ratios,
                "total_r_obs": ref_ratio.ratio_of_totals,
                "n_valid_iterations": ref_ratio.n_valid,
            }
        )
        for p, run, ratio in probe_runs:
            metrics.append(
                sortie_base
                | _policy_fields(p)
                | _run_fields(run)
                | {
                    "mean_r_obs": ratio.mean_of_ratios,
                    "total_r_obs": ratio.ratio_of_totals,
                    "n_valid_iterations": ratio.n_valid,
                }
            )
        counts = Counter(lm.origin_session for lm in m.landmarks.values())
        for origin in sorted(counts):
            composition.append(
                base | {"sortie_index": i, "origin_session": origin, "n_landmarks": counts[origin]}
            )

    return ChronologicalResult(
        scenario, seed, cap, m, cfg.kernels, reports, reference_rms,
        metrics, composition, violations,
    )


def run_regression(chrono: ChronologicalResult) -> list[dict]:
    """Re-localize every dataset of the run against the final map.

    Uses the same per-sortie seeds, so error draws and observation outcomes
    are paired with the chronological run and the RMS comparison isolates
    what the final map changed.  Datasets whose label matches a rich session
    of the final map are flagged as self-localization: their surviving
    landmarks are part of the map being localized against.
    """
    scenario, seed = chrono.scenario, chrono.seed
    world = build_world(scenario, seed)
    m = chrono.final_map
    rich_labels = {
        s.label for s in m.sessions if s.kind is SessionKind.RICH
    }
    ref = reference_policy()
    base = {"scenario": scenario.name, "seed": seed, "cap": _cap_str(chrono.cap)}
    rows = []
    for i in range(len(scenario.schedule)):
        ds = build_dataset(world, i, seed)
        run = localize_dataset(m, ds, ref, chrono.kernels)
        ratio = observation_ratio(run, run)
        rows.append(
            base
            | {
                "sortie_index": i,
                "label": ds.label,
                "condition": ds.condition,
                "mode": "regression",
                "session_kind": chrono.reports[i].session_kind.value,
                "self_localization": ds.label in rich_labels,
                "n_landmarks_before": len(m.landmarks),
                "n_landmarks_after": len(m.landmarks),
                "n_rich_sessions": m.n_rich_sessions,
                "n_observation_sessions": m.n_observation_sessions,
                "summarized": False,
            }
            | _policy_fields(ref)
            | _run_fields(run)
            | {
                "mean_r_obs": ratio.mean_of_ratios,
                "total_r_obs": ratio.ratio_of_totals,
                "n_valid_iterations": ratio.n_valid,
            }
        )
    return rows


@dataclass
class GapStudy:
    """With- vs without-observation-session twin comparison, one seed."""

    seed: int
    # stage (= rich sessions in the map at probe time) -> probe gaps
    gaps_by_stage: dict[int, list[float]]
    with_by_stage: dict[int, list[float]]
    without_by_stage: dict[int, list[float]]

    def stage_means(self) -> dict[int, float]:
        return {st: float(np.mean(g)) for st, g in sorted(self.gaps_by_stage.items())}


def observation_session_gap(
    scenario: Scenario,
    seed: int,
    policy: SelectionPolicy,
) -> GapStudy:
    """Measure what ingesting observation sessions buys the given policy.

    Builds twin maps over the same schedule, one ingesting observation
    sessions and one dropping them, with rich ingestion identical (the twins
    stay in lockstep: observation sessions add no landmarks or vertices, so
    both maps always hold the same landmark ids).  At every sortie the
    policy's observation ratio is measured on both twins against their
    shared full-selection reference; the probe counts when the map already
    has a rich and an observation session and the sortie itself localizes
    well enough to be an observation session, i.e. a genuine revisit.

    Runs without a landmark cap: summarization depends on the session lists
    and would let the twins drift apart.
    """
    sc = with_overrides(scenario, landmark_cap=UNBOUNDED_CAP)
    world = build_world(sc, seed)
    twins = {True: MultiSessionMap(), False: MultiSessionMap()}
    cfgs = {
        w: PipelineConfig(threshold_m=sc.threshold_m, use_observation_sessions=w) for w in twins
    }
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
            draws = sortie_draws(m, ds, cfgs[w].kernels)
            ref_run = localize_dataset(m, ds, ref, cfgs[w].kernels, draws=draws)
            is_probe = (
                stage >= 1
                and n_obs >= 1
                and decide_update(ref_run, sc.threshold_m) is SessionKind.OBSERVATION
            )
            if is_probe:
                run = localize_dataset(m, ds, policy, cfgs[w].kernels, draws=draws)
                r[w] = observation_ratio(run, ref_run).mean_of_ratios
            del draws
            twins[w], _ = process_sortie(m, ds, ref, cfgs[w], run=ref_run)
        if sorted(twins[True].landmarks) != sorted(twins[False].landmarks):
            raise RuntimeError("twin maps diverged; observation sessions must not add landmarks")
        if len(r) == 2:
            gaps.setdefault(stage, []).append(r[True] - r[False])
            with_r.setdefault(stage, []).append(r[True])
            without_r.setdefault(stage, []).append(r[False])
    return GapStudy(seed, gaps, with_r, without_r)


def converged_policy_probe(
    scenario: Scenario,
    seed: int,
    policies: tuple[SelectionPolicy, ...],
) -> dict[str, float]:
    """Mean observation ratio of each policy on the fully built map.

    The map is built uncapped over the whole schedule (observation sessions
    included), then probed with one fresh sortie at the final condition.
    """
    sc = with_overrides(scenario, landmark_cap=UNBOUNDED_CAP)
    world = build_world(sc, seed)
    m = MultiSessionMap()
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    ref = reference_policy()
    for i in range(len(sc.schedule)):
        ds = build_dataset(world, i, seed)
        m, _ = process_sortie(m, ds, ref, cfg)
    probe = generate_sortie(
        world, sc.schedule[-1].condition, derive_seed(seed, "probe"), label="probe"
    )
    draws = sortie_draws(m, probe, cfg.kernels)
    ref_run = localize_dataset(m, probe, ref, cfg.kernels, draws=draws)
    out = {}
    for p in policies:
        run = localize_dataset(m, probe, p, cfg.kernels, draws=draws)
        out[p.name] = observation_ratio(run, ref_run).mean_of_ratios
    return out


def write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(row[c]) for c in columns])


@dataclass
class ExperimentSpec:
    scenario: Scenario
    seeds: tuple[int, ...]
    caps: tuple[int, ...] = ()  # empty -> the scenario's own cap
    policy_names: tuple[str, ...] = ()  # empty -> the scenario's policy grid
    regression: bool = True

    def policies(self) -> tuple[SelectionPolicy, ...]:
        names = self.policy_names or tuple(self.scenario.policy_grid)
        return tuple(parse_policy(n) for n in names)


def run_experiment(spec: ExperimentSpec, out_dir: str | Path) -> dict:
    """Run the full grid and write metrics.csv, composition.csv, run_meta.json,
    and summary.json under out_dir.  Returns the summary document."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    caps = spec.caps or (spec.scenario.landmark_cap,)
    policies = spec.policies()
    metrics: list[dict] = []
    composition: list[dict] = []
    cells = []
    for cap in caps:
        for seed in spec.seeds:
            chrono = run_chronological(spec.scenario, seed, cap, policies)
            metrics.extend(chrono.metrics_rows)
            composition.extend(chrono.composition_rows)
            regression_rows: list[dict] = []
            if spec.regression:
                regression_rows = run_regression(chrono)
                metrics.extend(regression_rows)
            deltas = [
                r["rms_m"] - chrono.reference_rms[r["sortie_index"]] for r in regression_rows
            ]
            cells.append(
                {
                    "scenario": spec.scenario.name,
                    "seed": seed,
                    "cap": _cap_str(cap),
                    "n_sorties": len(chrono.reports),
                    "n_rich_sessions": chrono.final_map.n_rich_sessions,
                    "n_observation_sessions": chrono.final_map.n_observation_sessions,
                    "final_landmarks": len(chrono.final_map.landmarks),
                    "cap_violations": chrono.cap_violations,
                    "max_regression_rms_delta_m": max(deltas) if deltas else None,
                    "reference_rms_m": chrono.reference_rms,
                }
            )
    summary = {
        "schema_version": SCHEMA_VERSION,
        "scenario": spec.scenario.name,
        "seeds": list(spec.seeds),
        "caps": [_cap_str(c) for c in caps],
        "policies": [p.name for p in policies],
        "cells": cells,
    }
    meta = {
        "schema_version": SCHEMA_VERSION,
        "scenario": spec.scenario.to_doc(),
        "seeds": list(spec.seeds),
        "caps": [_cap_str(c) for c in caps],
        "policies": [p.name for p in policies],
        "metrics_columns": METRICS_COLUMNS,
        "composition_columns": COMPOSITION_COLUMNS,
    }
    write_csv(out / "metrics.csv", METRICS_COLUMNS, metrics)
    write_csv(out / "composition.csv", COMPOSITION_COLUMNS, composition)
    (out / "run_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary
