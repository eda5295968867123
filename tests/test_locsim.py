"""Localization proxy, selection/observation loop, and sortie ingestion."""

import math

import numpy as np
import pytest

from atlas.mapcore import MultiSessionMap, SessionKind, UNBOUNDED_CAP
from atlas.locsim import (
    IterationRecord,
    LocalizationRun,
    PipelineConfig,
    PoseErrorParams,
    decide_update,
    localize_dataset,
    observation_ratio,
    pose_error_proxy,
    pose_error_sigma,
    process_sortie,
    sortie_draws,
)
from atlas.ranking import parse_policy, reference_policy
from atlas.rng import normal_pair_stream, uniform01
from atlas.worldgen import detection_probabilities, generate_sortie, generate_world

from helpers import tiny_scenario


PARAMS = PoseErrorParams()


def test_error_sigma_formula():
    assert pose_error_sigma(4, PARAMS) == pytest.approx(0.035 + 0.15 / 2.0)
    assert pose_error_sigma(100, PARAMS) == pytest.approx(0.035 + 0.015)
    assert pose_error_sigma(9, PARAMS) == pytest.approx(0.035 + 0.05)


def test_error_proxy_failure_and_scale():
    assert pose_error_proxy(0, PARAMS, z=0.5) == 1.0
    assert pose_error_proxy(3, PARAMS, z=0.5) == 1.0  # below min_landmarks
    assert pose_error_proxy(4, PARAMS, z=-2.0) == pytest.approx(2.0 * (0.035 + 0.075))
    assert pose_error_proxy(16, PARAMS, z=1.0) == pytest.approx(0.035 + 0.0375)


def make_run(errors, n_failures=0):
    errs = np.asarray(errors, dtype=np.float64)
    return LocalizationRun(
        policy=reference_policy(),
        label="t",
        condition=0.1,
        dataset_fingerprint=("t", len(errs), 1, 2),
        iterations=[IterationRecord(np.empty(0), np.empty(0), np.empty(0), e) for e in errs],
        observed_counts=np.zeros(len(errs), dtype=np.int64),
        errors_m=errs,
        n_failures=n_failures,
    )


def test_decide_update_threshold():
    assert decide_update(make_run([0.2, 0.2]), 0.10) is SessionKind.RICH
    assert decide_update(make_run([0.05, 0.05]), 0.10) is SessionKind.OBSERVATION
    # exactly at the threshold stays an observation session
    assert decide_update(make_run([0.1, 0.1]), 0.10) is SessionKind.OBSERVATION


def test_rms_formula():
    run = make_run([0.3, 0.4])
    assert run.rms_translation_m == pytest.approx(math.sqrt((0.09 + 0.16) / 2))


@pytest.fixture(scope="module")
def built():
    """A map grown from one rich sortie, plus a revisit dataset."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    first = generate_sortie(world, 0.10, seed=101, label="first")
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    m, report = process_sortie(MultiSessionMap(), first, reference_policy(), cfg)
    assert report.session_kind is SessionKind.RICH
    revisit = generate_sortie(world, 0.11, seed=102, label="revisit")
    return m, cfg, revisit


def test_localize_invariants(built):
    m, cfg, dataset = built
    run = localize_dataset(m, dataset, parse_policy("class_ratio@0.3"), cfg.kernels)
    assert run.n_iterations == dataset.n_iterations
    for k, it in enumerate(run.iterations):
        cand = set(it.candidates.tolist())
        sel = set(it.selected.tolist())
        obs = set(it.observed.tolist())
        assert obs <= sel <= cand
        assert list(it.candidates) == sorted(cand)
        assert list(it.observed) == sorted(obs)
        assert run.observed_counts[k] == len(obs)
    # every error is reproducible from the count and the keyed error stream
    proxy = PoseErrorParams()
    for k, it in enumerate(run.iterations):
        n = int(run.observed_counts[k])
        if n < proxy.min_landmarks:
            assert run.errors_m[k] == proxy.failure_error_m
        else:
            z = normal_pair_stream(dataset.error_seed, k)
            assert run.errors_m[k] == pytest.approx(abs(z) * pose_error_sigma(n, proxy))
    assert run.n_failures == int(np.sum(run.errors_m == proxy.failure_error_m))


def test_shared_draws_give_the_runs_built_alone(built):
    m, cfg, dataset = built
    policies = [reference_policy()] + [
        parse_policy(f"{name}@{ratio}")
        for name in ("class_ratio", "session_weight", "random")
        for ratio in (0.2, 0.4)
    ] + [parse_policy("random@0.4", seed=7)]  # tie-break words are kept per seed
    draws = sortie_draws(m, dataset, cfg.kernels)
    shared = [localize_dataset(m, dataset, p, cfg.kernels, draws=draws) for p in policies]
    for policy, run in zip(policies, shared):
        alone = localize_dataset(m, dataset, policy, cfg.kernels)
        assert np.array_equal(run.errors_m, alone.errors_m)
        for a, b in zip(run.iterations, alone.iterations):
            assert np.array_equal(a.candidates, b.candidates)
            assert np.array_equal(a.selected, b.selected)
            assert np.array_equal(a.observed, b.observed)
    other = generate_sortie(generate_world(tiny_scenario(), seed=11), 0.11, seed=999)
    with pytest.raises(ValueError):
        localize_dataset(m, other, policies[1], cfg.kernels, draws=draws)
    with pytest.raises(ValueError):
        localize_dataset(m.copy(), dataset, policies[1], cfg.kernels, draws=draws)


def test_detection_matches_keyed_uniform_oracle(built):
    m, cfg, dataset = built
    for spec in ("all", "class_ratio@0.2", "random@0.4"):
        run = localize_dataset(m, dataset, parse_policy(spec), cfg.kernels)
        for k, it in enumerate(run.iterations):
            kern = [cfg.kernels[int(i)] for i in it.selected]
            p_det = detection_probabilities(
                np.array([q.center for q in kern]),
                np.array([q.width for q in kern]),
                np.array([q.peak for q in kern]),
                dataset.condition,
            )
            hit = uniform01(dataset.observation_seed, k, it.selected) < p_det
            assert it.observed.tolist() == sorted(it.selected[hit].tolist())


def test_run_observations_match_per_iteration_recount(built):
    m, cfg, dataset = built
    for policy in (reference_policy(), parse_policy("class_ratio@0.3")):
        run = localize_dataset(m, dataset, policy, cfg.kernels)
        recount = [
            (lid, k, 1) for k, it in enumerate(run.iterations) for lid in it.observed.tolist()
        ]
        assert run.observations.dtype == np.int64
        assert [tuple(row) for row in run.observations.tolist()] == recount
        assert len(recount) == run.total_observed > 0


def test_bootstrap_selects_everything_first(built):
    m, cfg, dataset = built
    policy = parse_policy("random@0.2")
    run = localize_dataset(m, dataset, policy, cfg.kernels)
    first = run.iterations[0]
    assert set(first.selected.tolist()) == set(first.candidates.tolist())
    later = run.iterations[1]
    assert len(later.selected) < len(later.candidates)
    no_boot = localize_dataset(m, dataset, policy, cfg.kernels, bootstrap_full_first=False)
    first_nb = no_boot.iterations[0]
    assert len(first_nb.selected) == max(1, math.ceil(0.2 * len(first_nb.candidates) - 1e-9))


def test_policy_observations_subset_of_reference(built):
    m, cfg, dataset = built
    ref = localize_dataset(m, dataset, reference_policy(), cfg.kernels)
    for spec in ("class_ratio@0.2", "session_weight@0.3", "random@0.4"):
        run = localize_dataset(m, dataset, parse_policy(spec), cfg.kernels)
        for it_run, it_ref in zip(run.iterations, ref.iterations):
            assert set(it_run.observed.tolist()) <= set(it_ref.observed.tolist())
        ratio = observation_ratio(run, ref)
        per = ratio.per_iteration
        assert np.all((per[~np.isnan(per)] >= 0) & (per[~np.isnan(per)] <= 1))
        assert 0.0 <= ratio.mean_of_ratios <= 1.0
        assert 0.0 <= ratio.ratio_of_totals <= 1.0


def test_full_ratio_ranked_policy_matches_reference_exactly(built):
    m, cfg, dataset = built
    ref = localize_dataset(m, dataset, reference_policy(), cfg.kernels)
    ranked_full = localize_dataset(m, dataset, parse_policy("class_ratio@1.0"), cfg.kernels)
    for it_run, it_ref in zip(ranked_full.iterations, ref.iterations):
        assert it_run.observed.tolist() == it_ref.observed.tolist()
    assert observation_ratio(ranked_full, ref).mean_of_ratios == pytest.approx(1.0)


def test_observation_ratio_validations(built):
    m, cfg, dataset = built
    ref = localize_dataset(m, dataset, reference_policy(), cfg.kernels)
    run = localize_dataset(m, dataset, parse_policy("random@0.5"), cfg.kernels)
    with pytest.raises(ValueError):
        observation_ratio(run, run)  # reference must be full selection
    other = generate_sortie(generate_world(tiny_scenario(), seed=11), 0.11, seed=999)
    ref_other = localize_dataset(m, other, reference_policy(), cfg.kernels)
    with pytest.raises(ValueError):
        observation_ratio(run, ref_other)  # different dataset


def test_observation_ratio_degenerate_is_nan():
    sc = tiny_scenario()
    world = generate_world(sc, seed=3)
    dataset = generate_sortie(world, 0.5, seed=4)
    empty = MultiSessionMap()
    ref = localize_dataset(empty, dataset, reference_policy(), {})
    run = localize_dataset(empty, dataset, parse_policy("random@0.2"), {})
    ratio = observation_ratio(run, ref)
    assert math.isnan(ratio.mean_of_ratios)
    assert math.isnan(ratio.ratio_of_totals)
    assert ratio.n_valid == 0
    assert len(ratio.skipped) == dataset.n_iterations


def test_process_sortie_rich_then_observation():
    sc = tiny_scenario()
    world = generate_world(sc, seed=21)
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    first = generate_sortie(world, 0.10, seed=201, label="first")
    empty = MultiSessionMap()
    m1, rep1 = process_sortie(empty, first, reference_policy(), cfg)
    assert rep1.session_kind is SessionKind.RICH
    assert rep1.rms_m > sc.threshold_m
    assert rep1.n_landmarks_before == 0
    assert rep1.n_landmarks_after == len(first.proposals) == rep1.n_proposals
    assert m1.n_rich_sessions == 1 and m1.n_observation_sessions == 0
    assert len(m1.vertices) == first.n_iterations
    assert all(lid in cfg.kernels for lid in m1.landmarks)
    # the input map is a different object and stayed empty
    assert len(empty.landmarks) == 0 and len(empty.sessions) == 0

    second = generate_sortie(world, 0.11, seed=202, label="second")
    m2, rep2 = process_sortie(m1, second, reference_policy(), cfg)
    assert rep2.session_kind is SessionKind.OBSERVATION
    assert rep2.rms_m <= sc.threshold_m
    assert rep2.n_landmarks_after == rep2.n_landmarks_before
    assert m2.n_observation_sessions == 1
    assert len(m2.vertices) == len(m1.vertices)  # no new geometry
    assert len(m1.sessions) == 1  # prior map untouched
    # observation tallies landed on existing vertices of the prior sessions
    obs_session = max(s.id for s in m2.sessions)
    touched = [
        lid for lid, lm in m2.landmarks.items() if obs_session in lm.sessions
    ]
    assert touched
    for lid in touched:
        assert set(m2.landmarks[lid].sessions) >= {1, obs_session}


def test_process_sortie_observation_sessions_can_be_disabled():
    sc = tiny_scenario()
    world = generate_world(sc, seed=21)
    cfg = PipelineConfig(threshold_m=sc.threshold_m, use_observation_sessions=False)
    m1, _ = process_sortie(
        MultiSessionMap(), generate_sortie(world, 0.10, seed=201), reference_policy(), cfg
    )
    m2, rep = process_sortie(
        m1, generate_sortie(world, 0.11, seed=202), reference_policy(), cfg
    )
    assert rep.session_kind is SessionKind.OBSERVATION
    assert rep.session_id is None
    assert len(m2.sessions) == len(m1.sessions)
    assert m2 is m1  # nothing ingested, nothing copied


def test_process_sortie_enforces_cap_by_summarizing():
    sc = tiny_scenario(landmark_cap=40)
    world = generate_world(sc, seed=31)
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    dataset = generate_sortie(world, 0.10, seed=301, label="big")
    assert len(dataset.proposals) > 40
    m, rep = process_sortie(MultiSessionMap(landmark_cap=40), dataset, reference_policy(), cfg)
    assert rep.session_kind is SessionKind.RICH
    assert rep.summarized
    assert rep.objective is not None
    assert len(m.landmarks) == 40
    assert rep.n_landmarks_after == 40
    m.validate()


def test_summarization_prunes_kernels_of_dropped_landmarks():
    sc = tiny_scenario(landmark_cap=40)
    world = generate_world(sc, seed=31)
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    m = MultiSessionMap(landmark_cap=40)
    for condition, seed in ((0.10, 301), (0.50, 302)):
        dataset = generate_sortie(world, condition, seed=seed)
        m, rep = process_sortie(m, dataset, reference_policy(), cfg)
        assert rep.summarized
        assert set(cfg.kernels) == set(m.landmarks)


def test_uncapped_map_never_summarizes():
    sc = tiny_scenario(landmark_cap=UNBOUNDED_CAP)
    world = generate_world(sc, seed=31)
    cfg = PipelineConfig(threshold_m=sc.threshold_m)
    m, rep = process_sortie(
        MultiSessionMap(), generate_sortie(world, 0.10, seed=301), reference_policy(), cfg
    )
    assert not rep.summarized and rep.objective is None
    assert len(m.landmarks) == rep.n_proposals
