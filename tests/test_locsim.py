"""Localization proxy, selection/observation loop, and sortie ingestion."""

import copy
import math
from dataclasses import astuple, replace

import numpy as np
import pytest

import atlas.locsim
from atlas.experiment import build_dataset, build_world
from atlas.mapcore import MultiSessionMap, SessionKind, UNBOUNDED_CAP, within_radius
from atlas.locsim import (
    LocalizationRun,
    PoseErrorParams,
    decide_update,
    localize_dataset,
    localize_policies,
    observation_ratio,
    pair_tallies,
    pose_errors,
    process_sortie,
    sortie_draws,
)
from atlas.ranking import RankingKind, SelectionPolicy, parse_policy, reference_policy
from atlas.rng import hash_stream, normal_pair_stream, uniform01
from atlas.worldgen import (
    KernelTable,
    ObservabilityKernel,
    Proposals,
    SortieDataset,
    SortieSpec,
    detection_probabilities,
    generate_sortie,
    generate_world,
)

from helpers import LINE_POSES, by_pose, reference_localize, tiny_scenario


PARAMS = PoseErrorParams()


def test_error_sigma_formula():
    for n, sigma in ((4, 0.035 + 0.15 / 2.0), (100, 0.035 + 0.015), (9, 0.035 + 0.05)):
        assert pose_errors(np.array([n]), np.array([1.0]))[0] == pytest.approx(sigma)


def test_error_proxy_failure_and_scale():
    got = pose_errors(np.array([0, 3, 4, 16]), np.array([0.5, 0.5, -2.0, 1.0]))
    assert got[0] == 1.0
    assert got[1] == 1.0  # below min_landmarks
    assert got[2] == pytest.approx(2.0 * (0.035 + 0.075))
    assert got[3] == pytest.approx(0.035 + 0.0375)


def test_pose_errors_equal_the_scalar_formula_bit_for_bit():
    n = np.repeat(np.arange(65), 3)
    z = np.tile([-1.7, 0.0, 0.9], 65)
    want = [
        PARAMS.failure_error_m if k < PARAMS.min_landmarks
        else abs(zk) * (PARAMS.floor + PARAMS.sigma0 / math.sqrt(k))
        for k, zk in zip(n.tolist(), z.tolist())
    ]
    assert pose_errors(n, z).tolist() == want


def make_run(errors):
    errs = np.asarray(errors, dtype=np.float64)
    counts = np.zeros(len(errs), dtype=np.int64)
    return LocalizationRun(
        policy=reference_policy(),
        label="t",
        condition=0.1,
        dataset_fingerprint=("t", len(errs), 1, 2),
        selected_counts=counts,
        selected_ids=np.empty(0, dtype=np.int64),
        observed_counts=counts,
        observed_ids=np.empty(0, dtype=np.int64),
        errors_m=errs,
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
    m, kernels, report = process_sortie(MultiSessionMap(), first, {}, threshold_m=sc.threshold_m)
    assert report.session_kind is SessionKind.RICH
    revisit = generate_sortie(world, 0.11, seed=102, label="revisit")
    return m, kernels, revisit


def test_localize_invariants(built):
    m, kernels, dataset = built
    run = localize_dataset(m, dataset, parse_policy("class_ratio@0.3"), kernels)
    draws = sortie_draws(m, dataset, kernels)
    candidates = by_pose(draws.ids, np.diff(draws.ptr))
    assert run.n_iterations == dataset.n_iterations == draws.n_poses
    selected = by_pose(run.selected_ids, run.selected_counts)
    observed = by_pose(run.observed_ids, run.observed_counts)
    for cand_k, sel_k, obs_k in zip(candidates, selected, observed):
        cand, sel, obs = (set(a.tolist()) for a in (cand_k, sel_k, obs_k))
        assert obs <= sel <= cand
        assert len(sel) == len(sel_k)
        assert list(cand_k) == sorted(cand)
        assert list(obs_k) == sorted(obs)
    # every error is reproducible from the count and the keyed error stream
    proxy = PoseErrorParams()
    for k, n in enumerate(run.observed_counts.tolist()):
        if n < proxy.min_landmarks:
            assert run.errors_m[k] == proxy.failure_error_m
        else:
            z = normal_pair_stream(dataset.error_seed, k)
            sigma = proxy.floor + proxy.sigma0 / math.sqrt(n)
            assert run.errors_m[k] == pytest.approx(abs(z) * sigma)
    assert run.n_failures == int(np.sum(run.errors_m == proxy.failure_error_m))


def assert_same_run(run, ref):
    """A LocalizationRun equals a per-pose reference run array for array, errors bit for bit."""
    assert [a.tolist() for a in by_pose(run.selected_ids, run.selected_counts)] == [
        a.tolist() for a in ref.selected
    ]
    assert [a.tolist() for a in by_pose(run.observed_ids, run.observed_counts)] == [
        a.tolist() for a in ref.observed
    ]
    assert run.selected_counts.tolist() == [len(a) for a in ref.selected]
    assert np.array_equal(run.observed_counts, ref.observed_counts)
    assert run.errors_m.tolist() == ref.errors_m.tolist()


def assert_same_runs(a, b):
    for field in ("selected_counts", "selected_ids", "observed_counts", "observed_ids", "errors_m"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.fixture(scope="module")
def many_classes():
    """A map grown by seven sorties under varying conditions, with a revisit."""
    sc = tiny_scenario()
    world = generate_world(sc, seed=11)
    m, kernels = MultiSessionMap(), {}
    for i, condition in enumerate((0.10, 0.12, 0.45, 0.5, 0.11, 0.3, 0.13)):
        sortie = generate_sortie(world, condition, seed=700 + i, label=f"s{i}")
        m, kernels, _ = process_sortie(m, sortie, kernels, threshold_m=sc.threshold_m)
    revisit = generate_sortie(world, 0.12, seed=799, label="revisit")
    # Pose 7 is moved out of sensor range of every landmark.
    poses = revisit.poses.copy()
    poses[7, :2] = 1e4
    return m, kernels, replace(revisit, poses=poses)


ORACLE_POLICIES = [reference_policy()] + [
    SelectionPolicy(kind, ratio, seed=seed, window_len=window)
    for kind in RankingKind
    for ratio in (0.2, 0.5)
    for seed in (0, 5)
    for window in (3, 10, 13)
] + [
    SelectionPolicy(RankingKind.CLASS_RATIO, 0.5, max_selected=7, window_len=3),
    SelectionPolicy(RankingKind.SESSION_WEIGHT, 0.5, max_selected=7, seed=5),
    SelectionPolicy(RankingKind.RANDOM, 0.5, max_selected=7),
    SelectionPolicy(RankingKind.ALL, 0.5, max_selected=7),
]


@pytest.mark.parametrize("bootstrap", [True, False])
def test_localize_policies_matches_the_per_policy_loop(many_classes, bootstrap):
    m, kernels, dataset = many_classes
    assert len(m.index) >= 5
    draws = sortie_draws(m, dataset, kernels)
    assert draws.ptr[7] == draws.ptr[8]  # a pose without candidates
    runs = localize_policies(
        m, dataset, ORACLE_POLICIES, kernels, draws=draws, bootstrap_full_first=bootstrap
    )
    assert [run.policy for run in runs] == ORACLE_POLICIES
    for policy, run in zip(ORACLE_POLICIES, runs):
        oracle = reference_localize(draws, m.index, policy, bootstrap_full_first=bootstrap)
        assert_same_run(run, oracle)
        alone = localize_dataset(m, dataset, policy, kernels, bootstrap_full_first=bootstrap)
        assert_same_runs(run, alone)


def test_localize_policies_on_an_empty_map(many_classes):
    _, _, dataset = many_classes
    empty = MultiSessionMap()
    draws = sortie_draws(empty, dataset, {})
    runs = localize_policies(empty, dataset, ORACLE_POLICIES, {}, draws=draws)
    for policy, run in zip(ORACLE_POLICIES, runs):
        assert_same_run(run, reference_localize(draws, empty.index, policy))
        assert run.total_selected == 0 and run.n_failures == dataset.n_iterations


def edge_landmarks(rng, poses: np.ndarray, r: float) -> list[list[float]]:
    """Landmarks where a bounding-box prefilter could go wrong around poses
    at sensor range r.

    Random points with z != 0 around the poses; for some poses, points at
    exactly r along x or y, on the floats around x +- r (where the exact
    test may accept what lies a rounding step past x - r), and around
    x +- r (1 + 1e-9), the padded box edge.  Points 1e-170 past a pose lie
    at a distance whose square underflows.
    """
    lo, hi = poses[:, :2].min(axis=0) - 2 * r - 1, poses[:, :2].max(axis=0) + 2 * r + 1
    points = [[*rng.uniform(lo, hi), rng.uniform(-r, r)] for _ in range(60)]
    for x, y, _ in poses[rng.permutation(len(poses))[:12]]:
        points += [[x + r, y, 0.0], [x, y - r, 0.0], [x + 0.6 * r, y, 0.8 * r]]
        points += [[x + 1e-170, y, 0.0], [x, y - 1e-170, 0.0]]
        for edge in (x - r, x + r, x - r * (1 + 1e-9), x + r * (1 + 1e-9)):
            for step in range(-3, 4):
                points.append([edge + step * math.ulp(edge), y, 0.0])
    return points


def edge_dataset(rng, n_poses: int, r: float) -> SortieDataset:
    """A random trajectory at small coordinates (where rounding is coarse
    against r), one pose within 1e-160 of the origin."""
    poses = np.column_stack((np.cumsum(rng.uniform(-r, r, (n_poses, 2)), axis=0), np.zeros(n_poses)))
    poses[rng.integers(n_poses), :2] = 1e-160
    none = Proposals(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), np.empty((0, 3)))
    return SortieDataset("edges", 0.4, poses, none, r, int(rng.integers(2**31)), 1)


def unfiltered_draws(m, dataset, kernels):
    """ptr, rows and detected of sortie_draws from the candidate test over all landmarks."""
    mask = within_radius(dataset.poses, m.landmark_positions, dataset.sensor_range)
    poses, rows = np.nonzero(mask)
    ids = m.landmark_ids
    p_det = detection_probabilities(*KernelTable(kernels).lookup(ids), dataset.condition)
    detected = uniform01(dataset.observation_seed, poses, ids[rows]) < p_det[rows]
    return np.concatenate(([0], np.cumsum(mask.sum(axis=1)))), rows, detected


@pytest.mark.parametrize("block", [1, 32])
@pytest.mark.parametrize("seed", range(6))
def test_prefiltered_candidates_equal_the_unfiltered_search(seed, block, monkeypatch):
    monkeypatch.setattr(atlas.locsim, "CANDIDATE_BLOCK_POSES", block)
    rng = np.random.default_rng(seed)
    r = [1.0, 0.3, 25.0, 0.0, 1 / 3, 7.1][seed]
    dataset = edge_dataset(rng, int(rng.integers(1, 80)), r)
    points = edge_landmarks(rng, dataset.poses, r)
    if len(dataset.poses) > 1:  # a NaN coordinate: no candidates for that pose alone
        dataset.poses[rng.integers(len(dataset.poses)), rng.integers(2)] = np.nan
    assert_draws_equal_the_unfiltered_search(rng, dataset, points)


def test_prefiltered_candidates_where_the_range_squared_overflows(monkeypatch):
    """At r = 1e160, r * r is inf, so the test accepts every finite distance."""
    monkeypatch.setattr(atlas.locsim, "CANDIDATE_BLOCK_POSES", 8)
    rng = np.random.default_rng(11)
    dataset = edge_dataset(rng, 40, 1e160)
    points = edge_landmarks(rng, dataset.poses, 1e160) + [[1e300, -1e300, 0.0], [-1e307, 0.0, 5.0]]
    with np.errstate(over="ignore"):
        assert_draws_equal_the_unfiltered_search(rng, dataset, points)


def assert_draws_equal_the_unfiltered_search(rng, dataset, points):
    """sortie_draws on a map of the points, and on an empty map, against unfiltered_draws."""
    m = MultiSessionMap()
    m.add_rich_session(
        LINE_POSES[:2], points, [(i, k, 1) for i in range(len(points)) for k in (0, 1)]
    )
    kernels = {
        int(lid): ObservabilityKernel(float(rng.uniform(0, 1)), 0.3, 0.9) for lid in m.landmark_ids
    }
    for on in (m, MultiSessionMap()):
        draws = sortie_draws(on, dataset, kernels)
        want = unfiltered_draws(on, dataset, kernels)
        for name, column in zip(("ptr", "rows", "detected"), want):
            assert np.array_equal(getattr(draws, name), column), name
        assert draws.ptr[-1] > 0 or on is not m


def test_tiebreak_order_breaks_equal_words_by_id(built, monkeypatch):
    m, kernels, dataset = built
    draws = sortie_draws(m, dataset, kernels)
    poses = np.repeat(np.arange(draws.n_poses), np.diff(draws.ptr))
    words = hash_stream(3, poses, draws.ids)
    assert np.array_equal(draws.tiebreak_order(3), np.lexsort((draws.ids, words, poses)))
    # Four distinct words per pose: most candidates tie with others of their pose.
    monkeypatch.setattr(atlas.locsim, "hash_stream", lambda seed, salt, ids: (ids * 7) % 4)
    coarse = (draws.ids * 7) % 4
    assert np.array_equal(draws.tiebreak_order(4), np.lexsort((draws.ids, coarse, poses)))


def test_shared_draws_give_the_runs_built_alone(built):
    m, kernels, dataset = built
    policies = [reference_policy()] + [
        parse_policy(f"{name}@{ratio}")
        for name in ("class_ratio", "session_weight", "random")
        for ratio in (0.2, 0.4)
    ] + [parse_policy("random@0.4", seed=7)]  # tie-break orders are kept per seed
    draws = sortie_draws(m, dataset, kernels)
    shared = localize_policies(m, dataset, policies, kernels, draws=draws)
    for policy, run in zip(policies, shared):
        assert_same_runs(run, localize_dataset(m, dataset, policy, kernels))
    other = generate_sortie(generate_world(tiny_scenario(), seed=11), 0.11, seed=999)
    with pytest.raises(ValueError):
        localize_dataset(m, other, policies[1], kernels, draws=draws)
    for twin in (m.copy(), m.without_observation_sessions()):  # the same landmark column
        for a, b in zip(
            localize_policies(twin, dataset, policies, kernels, draws=draws),
            localize_policies(twin, dataset, policies, kernels),
        ):
            assert_same_runs(a, b)
    fewer = m.copy()
    fewer.drop_landmarks([int(m.landmark_ids[-1])])
    with pytest.raises(ValueError):
        localize_policies(fewer, dataset, policies, kernels, draws=draws)


def test_draws_on_a_twin_equal_draws_made_on_it(many_classes):
    m, kernels, dataset = many_classes
    # The twin holds the same landmarks; an observation session splits classes.
    twin = m.copy()
    some = m.landmark_ids[::3]
    twin.add_observation_session(
        np.column_stack((some, np.full(len(some), m.vertex_ids[0]), np.ones_like(some)))
    )
    assert len(twin.index) > len(m.index)
    view = twin.without_observation_sessions()
    assert not np.array_equal(view.index.class_ids, twin.index.class_ids)
    draws = sortie_draws(m, dataset, kernels)
    policies = [p for p in ORACLE_POLICIES if p.ranking is not RankingKind.ALL]
    on_m = localize_policies(m, dataset, policies, kernels, draws=draws)  # fills the tie-break cache
    for other in (twin, view):
        fresh = sortie_draws(other, dataset, kernels)
        assert draws.landmark_ids is other.landmark_ids and draws.fingerprint == fresh.fingerprint
        for column in ("ptr", "rows", "ids", "detected", "error_z"):
            assert np.array_equal(getattr(draws, column), getattr(fresh, column)), column
        shared = localize_policies(other, dataset, policies, kernels, draws=draws)
        for a, b in zip(shared, localize_policies(other, dataset, policies, kernels, draws=fresh)):
            assert_same_runs(a, b)
        # The runs read the classes of the map they localize on, not of m.
        assert any(not np.array_equal(a.selected_ids, b.selected_ids) for a, b in zip(shared, on_m))
    fewer = m.copy()
    fewer.drop_landmarks([int(m.landmark_ids[0])])
    records = list(m.landmarks.values())
    records[0] = replace(records[0], position=records[0].position + 0.5)
    moved = MultiSessionMap.from_records(m.landmark_cap, m.sessions, m.vertices.values(), records)
    assert np.array_equal(moved.landmark_ids, m.landmark_ids)
    for other in (fewer, moved):
        with pytest.raises(ValueError):
            localize_policies(other, dataset, policies, kernels, draws=draws)


def test_detection_matches_keyed_uniform_oracle(built):
    m, kernels, dataset = built
    for spec in ("all", "class_ratio@0.2", "random@0.4"):
        run = localize_dataset(m, dataset, parse_policy(spec), kernels)
        observed = by_pose(run.observed_ids, run.observed_counts)
        for k, selected in enumerate(by_pose(run.selected_ids, run.selected_counts)):
            kern = [kernels[int(i)] for i in selected]
            p_det = detection_probabilities(
                np.array([q.center for q in kern]),
                np.array([q.width for q in kern]),
                np.array([q.peak for q in kern]),
                dataset.condition,
            )
            hit = uniform01(dataset.observation_seed, k, selected) < p_det
            assert observed[k].tolist() == sorted(selected[hit].tolist())


def test_run_observations_match_per_iteration_recount(built):
    m, kernels, dataset = built
    for policy in (reference_policy(), parse_policy("class_ratio@0.3")):
        run = localize_dataset(m, dataset, policy, kernels)
        recount = [
            (lid, k, 1)
            for k, observed in enumerate(by_pose(run.observed_ids, run.observed_counts))
            for lid in observed.tolist()
        ]
        assert run.observations.dtype == np.int64
        assert [tuple(row) for row in run.observations.tolist()] == recount
        assert len(recount) == run.total_observed > 0


def test_bootstrap_selects_everything_first(built):
    m, kernels, dataset = built
    policy = parse_policy("random@0.2")
    n_candidates = np.diff(sortie_draws(m, dataset, kernels).ptr)
    run = localize_dataset(m, dataset, policy, kernels)
    first = by_pose(run.selected_ids, run.selected_counts)[0]
    assert len(first) == n_candidates[0] > 0
    assert first.tolist() == sorted(first.tolist())  # the whole first set, by id
    assert run.selected_counts[1] < n_candidates[1]
    no_boot = localize_dataset(m, dataset, policy, kernels, bootstrap_full_first=False)
    assert no_boot.selected_counts[0] == max(1, math.ceil(0.2 * n_candidates[0] - 1e-9))


def test_policy_observations_subset_of_reference(built):
    m, kernels, dataset = built
    ref = localize_dataset(m, dataset, reference_policy(), kernels)
    ref_observed = by_pose(ref.observed_ids, ref.observed_counts)
    for spec in ("class_ratio@0.2", "session_weight@0.3", "random@0.4"):
        run = localize_dataset(m, dataset, parse_policy(spec), kernels)
        for got, full in zip(by_pose(run.observed_ids, run.observed_counts), ref_observed):
            assert set(got.tolist()) <= set(full.tolist())
        ratio = observation_ratio(run, ref)
        per = ratio.per_iteration
        assert np.all((per[~np.isnan(per)] >= 0) & (per[~np.isnan(per)] <= 1))
        assert 0.0 <= ratio.mean_of_ratios <= 1.0
        assert 0.0 <= ratio.ratio_of_totals <= 1.0


def test_full_ratio_ranked_policy_matches_reference_exactly(built):
    m, kernels, dataset = built
    ref = localize_dataset(m, dataset, reference_policy(), kernels)
    ranked_full = localize_dataset(m, dataset, parse_policy("class_ratio@1.0"), kernels)
    assert np.array_equal(ranked_full.observed_counts, ref.observed_counts)
    assert np.array_equal(ranked_full.observed_ids, ref.observed_ids)
    assert observation_ratio(ranked_full, ref).mean_of_ratios == pytest.approx(1.0)


def test_observation_ratio_validations(built):
    m, kernels, dataset = built
    ref = localize_dataset(m, dataset, reference_policy(), kernels)
    run = localize_dataset(m, dataset, parse_policy("random@0.5"), kernels)
    with pytest.raises(ValueError):
        observation_ratio(run, run)  # reference must be full selection
    other = generate_sortie(generate_world(tiny_scenario(), seed=11), 0.11, seed=999)
    ref_other = localize_dataset(m, other, reference_policy(), kernels)
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
    first = generate_sortie(world, 0.10, seed=201, label="first")
    empty = MultiSessionMap()
    m1, k1, rep1 = process_sortie(empty, first, {}, threshold_m=sc.threshold_m)
    assert rep1.session_kind is SessionKind.RICH
    assert rep1.rms_m > sc.threshold_m
    assert rep1.n_landmarks_before == 0
    assert rep1.n_landmarks_after == len(first.proposals) == rep1.n_proposals
    assert m1.n_rich_sessions == 1 and m1.n_observation_sessions == 0
    assert len(m1.vertices) == first.n_iterations
    assert all(lid in k1 for lid in m1.landmarks)
    assert rep1.new_landmark_ids == m1.landmark_ids.tolist()
    assert rep1.new_landmark_rows == list(range(len(first.proposals)))
    # the input map is a different object and stayed empty
    assert len(empty.landmarks) == 0 and len(empty.sessions) == 0

    second = generate_sortie(world, 0.11, seed=202, label="second")
    m2, k2, rep2 = process_sortie(m1, second, k1, threshold_m=sc.threshold_m)
    assert rep2.session_kind is SessionKind.OBSERVATION
    assert rep2.rms_m <= sc.threshold_m
    assert rep2.n_landmarks_after == rep2.n_landmarks_before
    assert k2 is k1 and rep2.new_landmark_ids == rep2.new_landmark_rows == []
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


def old_pair_tallies(ids, vertex):
    """The row-pair form of pair_tallies: np.unique over (id, vertex) rows."""
    pairs, counts = np.unique(np.column_stack((ids, vertex)), axis=0, return_counts=True)
    return np.column_stack((pairs, counts))


def test_observation_update_hands_the_map_the_row_pair_tallies(monkeypatch):
    sc = tiny_scenario()
    world = generate_world(sc, seed=21)
    first = generate_sortie(world, 0.10, seed=201, label="first")
    m1, kernels, _ = process_sortie(MultiSessionMap(), first, {}, threshold_m=sc.threshold_m)
    second = generate_sortie(world, 0.11, seed=202, label="second")
    handed = []
    add = MultiSessionMap.add_observation_session

    def spy(self, observations, label=""):
        handed.append(np.array(observations))
        return add(self, observations, label=label)

    monkeypatch.setattr(MultiSessionMap, "add_observation_session", spy)
    _, _, report = process_sortie(m1, second, kernels, threshold_m=sc.threshold_m)
    assert report.session_kind is SessionKind.OBSERVATION
    seen = localize_dataset(m1, second, reference_policy(), kernels).observations
    want = old_pair_tallies(seen[:, 0], m1.nearest_vertices(second.poses)[seen[:, 1]])
    (got,) = handed
    assert got.dtype == np.int64 and got.tolist() == want.tolist()
    # poses sharing a nearest vertex merged, and ids beyond the key base
    assert want[:, 2].max() > 1 and want[:, 0].max() > m1.vertex_ids[-1] + 1


@pytest.mark.parametrize("ids, vertex", [
    ([], []),
    ([5, 3, 5, 5, 3], [2, 9, 2, 0, 9]),
    ([2**62, 2**62, 1], [3, 3, 3]),  # keys past int64: row pairs
    ([0, 0], [2**63 - 1, 2**63 - 1]),  # a base past int64: row pairs
    ([-4, 7, -4], [1, 1, 1]),  # a negative id: row pairs
    ([4, 4], [-1, -1]),
])
def test_pair_tallies_equal_the_row_pair_form(ids, vertex):
    ids, vertex = np.array(ids, dtype=np.int64), np.array(vertex, dtype=np.int64)
    got = pair_tallies(ids, vertex)
    assert got.dtype == np.int64
    assert got.reshape(-1, 3).tolist() == old_pair_tallies(ids, vertex).reshape(-1, 3).tolist()


def test_process_sortie_decides_from_the_reference_run_only():
    sc = tiny_scenario()
    world = generate_world(sc, seed=21)
    m1, kernels, _ = process_sortie(
        MultiSessionMap(), generate_sortie(world, 0.10, seed=201), {}, threshold_m=sc.threshold_m
    )
    second = generate_sortie(world, 0.11, seed=202)
    ranked = localize_dataset(m1, second, parse_policy("class_ratio@0.2"), kernels)
    with pytest.raises(ValueError, match="reference policy"):
        process_sortie(m1, second, kernels, run=ranked, threshold_m=sc.threshold_m)
    assert len(m1.sessions) == 1 and m1.n_rich_sessions == 1
    ref_run = localize_dataset(m1, second, reference_policy(), kernels)
    m2, _, rep = process_sortie(m1, second, kernels, run=ref_run, threshold_m=sc.threshold_m)
    assert rep.session_kind is SessionKind.OBSERVATION and m2.n_observation_sessions == 1


def test_without_observation_sessions_is_the_map_that_never_ingested_them():
    # Alternating conditions: the observation sessions split classes.
    conditions = (("one", 0.10), ("two", 0.30), ("three", 0.11), ("four", 0.29), ("five", 0.20))
    sc = tiny_scenario(schedule=[SortieSpec(label, c) for label, c in conditions])
    world = build_world(sc, seed=42)
    m, rich_only = MultiSessionMap(), MultiSessionMap()
    kernels, rich_kernels = {}, {}
    shared = ("landmark_ids", "landmark_positions", "landmark_origins", "vertex_ids",
              "vertex_poses", "vertex_sessions", "obs_landmarks", "obs_vertices", "obs_counts")
    split = False
    for i in range(len(sc.schedule)):
        ds = build_dataset(world, i, seed=42)
        m, kernels, report = process_sortie(m, ds, kernels, threshold_m=sc.threshold_m)
        if report.session_kind is SessionKind.RICH:
            rich_only, rich_kernels, _ = process_sortie(
                rich_only, ds, rich_kernels, threshold_m=sc.threshold_m
            )
        index, sessions, pairs = m.index, list(m.sessions), m.pair_sessions
        view = m.without_observation_sessions()
        view.validate()
        assert np.array_equal(view.index.class_ids, rich_only.index.class_ids)
        assert [s.label for s in view.sessions] == [s.label for s in rich_only.sessions]
        assert all(getattr(view, name) is getattr(m, name) for name in shared)
        # the source map is unchanged
        assert m.index is index and m.sessions == sessions and m.pair_sessions is pairs
        split |= len(view.index) < len(m.index)
    assert m.n_observation_sessions >= 1 and split


def test_process_sortie_enforces_cap_by_summarizing():
    sc = tiny_scenario(landmark_cap=40)
    world = generate_world(sc, seed=31)
    dataset = generate_sortie(world, 0.10, seed=301, label="big")
    assert len(dataset.proposals) > 40
    m, _, rep = process_sortie(
        MultiSessionMap(landmark_cap=40), dataset, {}, threshold_m=sc.threshold_m
    )
    assert rep.session_kind is SessionKind.RICH
    assert rep.summarized
    assert rep.objective is not None
    assert len(m.landmarks) == 40
    assert rep.n_landmarks_after == 40
    m.validate()


def test_summarization_prunes_kernels_of_dropped_landmarks():
    sc = tiny_scenario(landmark_cap=40)
    world = generate_world(sc, seed=31)
    m, kernels = MultiSessionMap(landmark_cap=40), {}
    for condition, seed in ((0.10, 301), (0.50, 302)):
        dataset = generate_sortie(world, condition, seed=seed)
        m, kernels, rep = process_sortie(m, dataset, kernels, threshold_m=sc.threshold_m)
        assert rep.summarized
        assert set(kernels) == set(m.landmarks)


def test_summarizing_sortie_leaves_its_input_registry_unchanged():
    sc = tiny_scenario(landmark_cap=40)
    world = generate_world(sc, seed=31)
    m1, k1, _ = process_sortie(
        MultiSessionMap(landmark_cap=40), generate_sortie(world, 0.10, seed=301), {},
        threshold_m=sc.threshold_m,
    )
    dataset = generate_sortie(world, 0.50, seed=302)
    before = copy.deepcopy(k1)
    m2, k2, rep = process_sortie(m1, dataset, k1, threshold_m=sc.threshold_m)
    assert rep.session_kind is SessionKind.RICH and rep.summarized
    assert k1 == before
    assert set(k2) == set(m2.landmarks)
    # the surviving new landmarks, each with the kernel of its proposal row
    first_id = m1.next_landmark_id
    assert rep.new_landmark_ids == m2.landmarks_created_by(rep.session_id)
    assert rep.new_landmark_rows == [lid - first_id for lid in rep.new_landmark_ids]
    assert 0 < len(rep.new_landmark_ids) < len(dataset.proposals)
    for lid, row in zip(rep.new_landmark_ids, rep.new_landmark_rows):
        assert astuple(k2[lid]) == tuple(dataset.proposals.kernels[row])


def test_uncapped_map_never_summarizes():
    sc = tiny_scenario(landmark_cap=UNBOUNDED_CAP)
    world = generate_world(sc, seed=31)
    m, _, rep = process_sortie(
        MultiSessionMap(), generate_sortie(world, 0.10, seed=301), {}, threshold_m=sc.threshold_m
    )
    assert not rep.summarized and rep.objective is None
    assert len(m.landmarks) == rep.n_proposals
