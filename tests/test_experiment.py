"""Experiment harness: chronological runs, twin studies, reproducible files."""

import csv
import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from atlas.experiment import (
    COMPOSITION_COLUMNS,
    METRICS_COLUMNS,
    ExperimentSpec,
    build_dataset,
    build_world,
    observation_session_gap,
    run_chronological,
    run_experiment,
    run_regression,
    sortie_seed,
)
from atlas.locsim import PipelineConfig, localize_dataset, observation_ratio, process_sortie
from atlas.mapcore import MultiSessionMap, UNBOUNDED_CAP
from atlas.mapio import dumps_map
from atlas.ranking import parse_policy, reference_policy
from atlas.rng import derive_seed
from atlas.worldgen import SortieSpec, generate_sortie, get_scenario, with_overrides

from helpers import tiny_scenario

POLICIES = ("class_ratio@0.5", "random@0.5")


@pytest.fixture(scope="module")
def chrono():
    sc = tiny_scenario()
    return run_chronological(sc, seed=42, policies=tuple(parse_policy(p) for p in POLICIES))


def test_schedule_processed_in_order(chrono):
    sc = tiny_scenario()
    assert [r.label for r in chrono.reports] == [s.label for s in sc.schedule]
    assert chrono.reports[0].session_kind.value == "rich"
    assert chrono.cap_violations == 0
    assert len(chrono.final_map.landmarks) > 0
    assert chrono.final_map.landmark_cap == sc.landmark_cap
    # reference rms recorded per sortie, first one the bootstrap failure
    assert len(chrono.reference_rms) == 4
    assert chrono.reference_rms[0] > sc.threshold_m


def test_metrics_rows_structure(chrono):
    rows = chrono.metrics_rows
    assert all(set(r) == set(METRICS_COLUMNS) for r in rows)
    ref_rows = [r for r in rows if r["policy"] == reference_policy().name]
    probe_rows = [r for r in rows if r["policy"] != reference_policy().name]
    assert len(ref_rows) == 4
    # probes skip the first sortie: there was no map to rank against
    assert len(probe_rows) == 3 * len(POLICIES)
    assert {r["sortie_index"] for r in probe_rows} == {1, 2, 3}
    for r in ref_rows:
        if not math.isnan(r["mean_r_obs"]):
            assert r["mean_r_obs"] == 1.0
            assert r["total_r_obs"] == 1.0
    for r in probe_rows:
        if not math.isnan(r["mean_r_obs"]):
            assert 0.0 <= r["mean_r_obs"] <= 1.0
        assert r["n_observed_total"] <= r["n_selected_total"]


def test_composition_rows_account_for_every_landmark(chrono):
    rows = chrono.composition_rows
    assert all(set(r) == set(COMPOSITION_COLUMNS) for r in rows)
    last = [r for r in rows if r["sortie_index"] == 3]
    assert sum(r["n_landmarks"] for r in last) == len(chrono.final_map.landmarks)
    origins = {lm.origin_session for lm in chrono.final_map.landmarks.values()}
    assert {r["origin_session"] for r in last} == origins


def test_regression_pairs_with_chronological(chrono):
    rows = run_regression(chrono)
    assert len(rows) == 4
    final_n = len(chrono.final_map.landmarks)
    rich_labels = {"one"}  # only the bootstrap sortie went rich
    for r in rows:
        assert r["mode"] == "regression"
        assert r["n_landmarks_before"] == r["n_landmarks_after"] == final_n
        assert r["self_localization"] == (r["label"] in rich_labels)
        assert r["policy"] == reference_policy().name
    # localizing against the final map is no worse than the live pass
    for r in rows:
        live = chrono.reference_rms[r["sortie_index"]]
        assert r["rms_m"] <= live + 1e-9


def test_regression_relocalizes_rebuilt_sorties_against_the_final_map(chrono):
    """Oracle: rebuild every sortie from its seed and localize it afresh."""
    sc = tiny_scenario()
    world = build_world(sc, seed=42)
    fresh = [build_dataset(world, i, seed=42) for i in range(len(sc.schedule))]
    assert all(ds.proposals == [] for ds in chrono.datasets)
    assert [ds.fingerprint() for ds in chrono.datasets] == [ds.fingerprint() for ds in fresh]
    rows = run_regression(chrono)
    expected = run_regression(replace(chrono, datasets=fresh))
    assert [r.keys() for r in rows] == [r.keys() for r in expected]
    for row, want, ds in zip(rows, expected, fresh):
        for key in row:
            assert row[key] == want[key] or (
                isinstance(want[key], float) and math.isnan(want[key]) and math.isnan(row[key])
            ), key
        run = localize_dataset(chrono.final_map, ds, reference_policy(), chrono.kernels)
        assert row["label"] == ds.label and row["condition"] == ds.condition
        assert row["rms_m"] == run.rms_translation_m
        assert row["n_selected_total"] == run.total_selected
        assert row["n_observed_total"] == run.total_observed
        assert row["n_failed_iterations"] == run.n_failures


def test_world_and_sortie_seeds_are_deterministic():
    sc = tiny_scenario()
    a = build_world(sc, seed=7)
    b = build_world(sc, seed=7)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert len(a.sites) == len(b.sites)
    da = build_dataset(a, 2, seed=7)
    db = build_dataset(b, 2, seed=7)
    assert np.array_equal(da.poses, db.poses)
    assert da.fingerprint() == db.fingerprint()
    assert da.label == sc.schedule[2].label
    seeds = {sortie_seed(7, i) for i in range(10)}
    assert len(seeds) == 10
    assert sortie_seed(8, 0) != sortie_seed(7, 0)


def test_observation_session_gap_structure():
    study = observation_session_gap(tiny_scenario(), seed=42, policy=parse_policy("class_ratio@0.3"))
    assert study.seed == 42
    assert study.gaps_by_stage  # at least one genuine revisit probe fired
    for stage, gaps in study.gaps_by_stage.items():
        assert stage >= 1
        assert len(gaps) == len(study.with_by_stage[stage]) == len(study.without_by_stage[stage])
        for w, wo, g in zip(study.with_by_stage[stage], study.without_by_stage[stage], gaps):
            assert 0.0 <= w <= 1.0 and 0.0 <= wo <= 1.0
            assert g == pytest.approx(w - wo)
    means = study.stage_means()
    assert set(means) == set(study.gaps_by_stage)
    assert all(math.isfinite(v) for v in means.values())
    assert study.converged == {}  # no converged policies asked for


def test_converged_probe_reference_is_exact():
    policies = tuple(parse_policy(p) for p in ("all@1", "class_ratio@0.3", "random@0.3"))
    # The second schedule alternates conditions, so observation sessions change
    # the ranked ratio: a probe of the twin without them reads 0.427, not 0.532.
    conditions = (("one", 0.10), ("two", 0.30), ("three", 0.11), ("four", 0.29), ("five", 0.20))
    alternating = [SortieSpec(label, c) for label, c in conditions]
    for sc in (tiny_scenario(), tiny_scenario(schedule=alternating)):
        out = observation_session_gap(sc, 42, policies[1], converged_policies=policies).converged
        # Oracle: build the uncapped map sortie by sortie on its own, then probe it.
        uncapped = with_overrides(sc, landmark_cap=UNBOUNDED_CAP)
        world = build_world(uncapped, seed=42)
        cfg = PipelineConfig(threshold_m=uncapped.threshold_m)
        m = MultiSessionMap()
        for i in range(len(uncapped.schedule)):
            m, _ = process_sortie(m, build_dataset(world, i, seed=42), reference_policy(), cfg)
        probe = generate_sortie(
            world, uncapped.schedule[-1].condition, derive_seed(42, "probe"), label="probe"
        )
        ref_run = localize_dataset(m, probe, reference_policy(), cfg.kernels)
        runs = {p.name: localize_dataset(m, probe, p, cfg.kernels) for p in policies}
        expected = {name: observation_ratio(r, ref_run).mean_of_ratios for name, r in runs.items()}
        assert out == expected
        assert set(out) == {"all@1", "class_ratio@0.3", "random@0.3"}
        assert out["all@1"] == pytest.approx(1.0)
        for v in out.values():
            assert 0.0 <= v <= 1.0 + 1e-12
    # The loop ends on the alternating schedule, where ranking has to pay off:
    # class-ratio selection keeps 0.532 of the reference's observations there,
    # random selection 0.307.
    assert out["class_ratio@0.3"] >= out["random@0.3"] + 0.15


def test_experiment_spec_policy_parsing():
    sc = tiny_scenario()
    spec = ExperimentSpec(sc, seeds=(1,))
    assert [p.name for p in spec.policies()] == sc.policy_grid
    spec2 = ExperimentSpec(sc, seeds=(1,), policy_names=("f_rank@0.2", "all@1.0"))
    names = [p.name for p in spec2.policies()]
    # aliases and ratios normalize to canonical names
    assert names == ["class_ratio@0.2", "all@1"]
    assert spec2.policies()[0].ranking.value == "class_ratio"


def test_run_experiment_outputs_are_byte_identical(tmp_path):
    sc = tiny_scenario()
    spec = ExperimentSpec(sc, seeds=(42,), policy_names=POLICIES)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    summary_a = run_experiment(spec, dir_a)
    summary_b = run_experiment(spec, dir_b)
    assert summary_a == summary_b
    for name in ("metrics.csv", "composition.csv", "run_meta.json", "summary.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    cell = summary_a["cells"][0]
    assert cell["cap_violations"] == 0
    assert cell["n_sorties"] == 4
    assert cell["final_landmarks"] > 0
    assert cell["max_regression_rms_delta_m"] <= 0.01

    with (dir_a / "metrics.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows and list(rows[0]) == METRICS_COLUMNS
    modes = {r["mode"] for r in rows}
    assert modes == {"chronological", "regression"}
    meta = json.loads((dir_a / "run_meta.json").read_text())
    assert meta["scenario"]["name"] == "tiny"
    assert meta["metrics_columns"] == METRICS_COLUMNS


def test_run_experiment_respects_uncapped_cap(tmp_path):
    sc = tiny_scenario()
    spec = ExperimentSpec(
        sc, seeds=(42,), caps=(UNBOUNDED_CAP,), policy_names=("all@1",), regression=False
    )
    summary = run_experiment(spec, tmp_path / "u")
    assert summary["caps"] == ["inf"]
    cell = summary["cells"][0]
    assert cell["cap_violations"] == 0
    assert cell["max_regression_rms_delta_m"] is None
    metrics = Path(tmp_path / "u" / "metrics.csv").read_text()
    assert "chronological" in metrics and "regression" not in metrics


# sha256 of the canonical final map of a seed-42 chronological run.  The map
# layout may change; these bytes may not.  city_dusk summarizes once and
# ingests 6 observation sessions, parking_year ingests 20.
FINAL_MAP_SHA256 = {
    "city_dusk": "c3710257548f2a23dbb14bb1e5ac2ca84845d15b978530ab342e3a488b10f64e",
    "parking_year": "af22d05c0c531344f54beb6743369ca721a0b3822d9b2d3efb3bb2162de0abfd",
}


@pytest.mark.parametrize("name", sorted(FINAL_MAP_SHA256))
def test_final_map_bytes_are_pinned(name):
    final = run_chronological(get_scenario(name), 42).final_map
    assert hashlib.sha256(dumps_map(final)).hexdigest() == FINAL_MAP_SHA256[name]
