"""Experiment harness: chronological runs, regression, policy studies, CSV output.

Everything here is deterministic in (scenario, seed): worlds, sorties,
observation outcomes, and tie-breaks are all derived from named sub-seeds,
so rerunning an experiment writes byte-identical files.  Output files never
contain wall-clock time for the same reason.

The map-building decisions of a run are always taken from the unranked
full-selection reference run, never from a policy under evaluation; policy
runs are probes on the side.  That keeps the map trajectory identical across
whatever policy grid is being compared.  Each (scenario, seed) schedule is
walked once: regression re-localizes the sorties the chronological run kept,
and the converged probe reads the map the gap study already built.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from atlas.locsim import (
    LocalizationRun,
    ObservationRatio,
    SortieReport,
    decide_update,
    localize_dataset,
    localize_policies,
    observation_ratio,
    process_sortie,
    sortie_draws,
)
from atlas.mapcore import MultiSessionMap, SessionKind, UNBOUNDED_CAP
from atlas.ranking import SelectionPolicy, parse_policy, reference_policy
from atlas.rng import derive_seed
from atlas.worldgen import (
    NO_PROPOSALS,
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
    kernels: dict  # the kernel registry of final_map
    reports: list[SortieReport]
    # the schedule's sorties in order, proposals dropped: what regression re-localizes
    datasets: list[SortieDataset]
    metrics_rows: list[dict]
    composition_rows: list[dict]
    cap_violations: int

    @property
    def reference_rms(self) -> list[float]:
        return [r.rms_m for r in self.reports]


def _measured(p: SelectionPolicy, run: LocalizationRun, ratio: ObservationRatio) -> dict:
    """The fields of a metrics row that one policy's run measured."""
    return {
        "policy": p.name,
        "ranking": p.ranking.value,
        "selection_ratio": p.selection_ratio,
        "max_selected": p.max_selected,
        "window_len": p.window_len,
        "rms_m": run.rms_translation_m,
        "n_selected_total": run.total_selected,
        "n_observed_total": run.total_observed,
        "n_failed_iterations": run.n_failures,
        "mean_r_obs": ratio.mean_of_ratios,
        "total_r_obs": ratio.ratio_of_totals,
        "n_valid_iterations": ratio.n_valid,
    }


def run_chronological(
    scenario: Scenario,
    seed: int,
    cap: int | None = None,
    policies: tuple[SelectionPolicy, ...] = (),
) -> ChronologicalResult:
    """Process the scenario's schedule in order, probing policies on the side.

    Each sortie is localized with the reference policy; that run decides rich
    vs observation and provides the observation-ratio denominator for every
    probed policy.  Policies are probed against the pre-ingestion map, so a
    probe can never perturb what the map becomes.
    """
    cap = scenario.landmark_cap if cap is None else cap
    world = build_world(scenario, seed)
    m, kernels = MultiSessionMap(landmark_cap=cap), {}
    ref = reference_policy()
    base = {"scenario": scenario.name, "seed": seed, "cap": _cap_str(cap)}
    reports: list[SortieReport] = []
    datasets: list[SortieDataset] = []
    metrics: list[dict] = []
    composition: list[dict] = []
    violations = 0

    for i in range(len(scenario.schedule)):
        ds = build_dataset(world, i, seed)
        probed = (ref, *policies) if len(m.landmarks) else (ref,)
        ref_run, *probe_runs = localize_policies(m, ds, probed, kernels)
        measured = [
            _measured(p, run, observation_ratio(run, ref_run))
            for p, run in zip(probed, (ref_run, *probe_runs))
        ]
        del probe_runs  # released before ingest and summarization raise the peak
        m, kernels, report = process_sortie(
            m, ds, kernels, run=ref_run, threshold_m=scenario.threshold_m
        )
        if cap != UNBOUNDED_CAP and len(m.landmarks) > cap:
            violations += 1
        reports.append(report)
        datasets.append(replace(ds, proposals=NO_PROPOSALS))  # regression ingests nothing
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
        metrics.extend(sortie_base | fields for fields in measured)
        origins, counts = np.unique(m.landmark_origins, return_counts=True)
        for origin, count in zip(origins.tolist(), counts.tolist()):
            composition.append(
                base | {"sortie_index": i, "origin_session": origin, "n_landmarks": count}
            )

    return ChronologicalResult(
        scenario, seed, cap, m, kernels, reports, datasets,
        metrics, composition, violations,
    )


def run_regression(chrono: ChronologicalResult) -> list[dict]:
    """Re-localize every dataset of the run against the final map.

    Reads the sorties the chronological run kept, so error draws and
    observation outcomes are paired with it and the RMS comparison isolates
    what the final map changed.  Datasets whose label matches a rich session
    of the final map are flagged as self-localization: their surviving
    landmarks are part of the map being localized against.
    """
    m = chrono.final_map
    rich_labels = {
        s.label for s in m.sessions if s.kind is SessionKind.RICH
    }
    ref = reference_policy()
    base = {"scenario": chrono.scenario.name, "seed": chrono.seed, "cap": _cap_str(chrono.cap)}
    rows = []
    for i, ds in enumerate(chrono.datasets):
        run = localize_dataset(m, ds, ref, chrono.kernels)
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
            | _measured(ref, run, observation_ratio(run, run))
        )
    return rows


@dataclass
class GapStudy:
    """A policy probed with and without observation sessions (the map and its view), one seed."""

    seed: int
    # stage (= rich sessions in the map at probe time) -> probe gaps
    gaps_by_stage: dict[int, list[float]]
    with_by_stage: dict[int, list[float]]
    without_by_stage: dict[int, list[float]]
    # policy name -> mean observation ratio on the fully built map
    converged: dict[str, float]

    def stage_means(self) -> dict[int, float]:
        return {st: float(np.mean(g)) for st, g in sorted(self.gaps_by_stage.items())}


def observation_session_gap(
    scenario: Scenario,
    seed: int,
    policy: SelectionPolicy,
    converged_policies: tuple[SelectionPolicy, ...] = (),
) -> GapStudy:
    """Measure what ingesting observation sessions buys the given policy.

    Builds one map over the schedule.  Observation sessions add no
    landmarks or vertices, so the map without them is its view
    `m.without_observation_sessions()`, and all that does not read the
    class index is the same on both: each sortie's draws and its
    full-selection reference run (which selects by id) are made once, on
    the map.  The probe counts when the map already has a rich and an
    observation session and the sortie itself localizes well enough to be
    an observation session, i.e. a genuine revisit; the policy's
    observation ratio is then measured on the map and on its view, each
    reading the shared draws under its own classes.

    Each converged policy is then probed on the fully built map, with one
    fresh sortie at the final condition; its mean observation ratio lands in
    `converged`.

    Runs without a landmark cap: summarization reads the counts that
    observation sessions add, so a capped map would keep other landmarks
    than a map without them.
    """
    sc = with_overrides(scenario, landmark_cap=UNBOUNDED_CAP)
    world = build_world(sc, seed)
    m, kernels = MultiSessionMap(), {}
    ref = reference_policy()
    gaps: dict[int, list[float]] = {}
    with_r: dict[int, list[float]] = {}
    without_r: dict[int, list[float]] = {}
    for i in range(len(sc.schedule)):
        ds = build_dataset(world, i, seed)
        stage = m.n_rich_sessions
        draws = sortie_draws(m, ds, kernels)
        ref_run = localize_dataset(m, ds, ref, kernels, draws=draws)
        revisit = decide_update(ref_run, sc.threshold_m) is SessionKind.OBSERVATION
        if stage >= 1 and m.n_observation_sessions >= 1 and revisit:
            maps = (m, m.without_observation_sessions())
            r_with, r_without = (
                observation_ratio(run, ref_run).mean_of_ratios
                for run in localize_policies(
                    m, ds, (policy, policy), kernels, maps=maps, draws=draws
                )
            )
            gaps.setdefault(stage, []).append(r_with - r_without)
            with_r.setdefault(stage, []).append(r_with)
            without_r.setdefault(stage, []).append(r_without)
        del draws  # released before ingestion raises the peak
        m, kernels, _ = process_sortie(m, ds, kernels, run=ref_run, threshold_m=sc.threshold_m)

    converged: dict[str, float] = {}
    if converged_policies:
        probe = generate_sortie(
            world, sc.schedule[-1].condition, derive_seed(seed, "probe"), label="probe"
        )
        ref_run, *runs = localize_policies(m, probe, (ref, *converged_policies), kernels)
        for p, run in zip(converged_policies, runs):
            converged[p.name] = observation_ratio(run, ref_run).mean_of_ratios
    return GapStudy(seed, gaps, with_r, without_r, converged)


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
