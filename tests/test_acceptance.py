"""End-to-end acceptance gate.

Each test covers one numbered release criterion and prints a single
``ACCEPTANCE NN PASS/FAIL`` line (shown with ``-s``, or in the failure
report) before asserting, so a scan of the output gives the verdict per
criterion.  Tolerances are part of the contract and are asserted exactly
as stated; nothing here may be loosened to make a run pass.
"""

import io
import itertools
import random
import time

import numpy as np
import pytest
from scipy import stats as sps

from atlas.experiment import (
    ExperimentSpec,
    build_dataset,
    build_world,
    observation_session_gap,
    run_chronological,
    run_experiment,
    run_regression,
)
from atlas.locsim import localize_dataset, process_sortie
from atlas.mapcore import MultiSessionMap, SessionKind, UNBOUNDED_CAP
from atlas.protocol import Message, MessageKind, decode_body, encode_frame, read_frame
from atlas.ranking import (
    RollingSelectionStats,
    parse_policy,
    reference_policy,
    update_window,
)
from atlas.server import MapBackend
from atlas.summarize import solve_exact, solve_greedy
from atlas.worldgen import get_scenario

from helpers import (
    random_message,
    random_summarization_problem,
    tiny_scenario,
    two_session_map,
)

TOL = 1e-9


def criterion(num: int, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


# -- Shared expensive fixtures --

@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(424242)
    return [random_summarization_problem(rng) for _ in range(500)]


@pytest.fixture(scope="module")
def exact_solutions(corpus):
    start = time.perf_counter()
    solutions = [solve_exact(p) for p in corpus]
    return solutions, time.perf_counter() - start


@pytest.fixture(scope="module")
def city_runs():
    """Chronological + regression city runs; the timing covers the
    chronological pass only, which is what the performance bound is about."""
    runs = {}
    for seed in (42, 7, 2026):
        scenario = get_scenario("city_dusk")
        start = time.perf_counter()
        chrono = run_chronological(scenario, seed)
        elapsed = time.perf_counter() - start
        runs[seed] = (chrono, run_regression(chrono), elapsed)
    return runs


@pytest.fixture(scope="module")
def parking_run():
    chrono = run_chronological(get_scenario("parking_year"), 42)
    return chrono, run_regression(chrono)


@pytest.fixture(scope="module")
def gap_studies():
    """Twin studies with the converged probe on each finished map, one walk per seed."""
    scenario = get_scenario("parking_year")
    policy = parse_policy("class_ratio@0.2")
    converged = (policy, parse_policy("random@0.2"))
    return [observation_session_gap(scenario, seed, policy, converged) for seed in range(20)]


# -- 1: exact solver vs exhaustive enumeration --

def enumeration_objective(problem) -> float:
    """Independent oracle: brute-force every keep set of the right size."""
    costs = np.asarray(problem.costs, dtype=np.float64)
    cols = [np.asarray(c, dtype=np.intp) for c in problem.landmark_vertices]
    best = np.inf
    for keep in itertools.combinations(range(len(costs)), problem.keep_count):
        cover = np.zeros(problem.n_vertices)
        for i in keep:
            cover[cols[i]] += 1
        slack = np.maximum(0.0, problem.min_per_vertex - cover).sum()
        obj = costs[list(keep)].sum() + problem.slack_penalty * slack
        if obj < best:
            best = obj
    return float(best)


def test_01_exact_solver_matches_enumeration(corpus, exact_solutions):
    solutions, elapsed = exact_solutions
    worst = max(
        abs(sol.objective - enumeration_objective(p))
        for p, sol in zip(corpus, solutions)
    )
    criterion(
        1,
        worst <= TOL and elapsed < 30.0,
        f"500 instances, max objective gap {worst:.2e}, exact solves took {elapsed:.2f}s",
    )


# -- 2: greedy feasibility and quality --

def test_02_greedy_feasible_and_near_optimal(corpus, exact_solutions):
    solutions, _ = exact_solutions
    feasible = 0
    within = 0
    never_better = True
    for problem, exact in zip(corpus, solutions):
        greedy = solve_greedy(problem)
        keep = [int(i) for i in greedy.keep]
        if (
            len(keep) == problem.keep_count
            and len(set(keep)) == len(keep)
            and all(0 <= i < len(problem.costs) for i in keep)
        ):
            feasible += 1
        if greedy.objective <= 1.2 * exact.objective + TOL:
            within += 1
        never_better &= greedy.objective >= exact.objective - TOL
    criterion(
        2,
        feasible == 500 and within >= 450 and never_better,
        f"{feasible}/500 feasible, {within}/500 within 20% of exact",
    )


# -- 3: finite landmark caps are never exceeded --

def test_03_finite_caps_never_exceeded(city_runs, parking_run):
    chronos = [run[0] for run in city_runs.values()] + [parking_run[0]]
    violations = sum(c.cap_violations for c in chronos)
    sorties = 0
    over = 0
    for chrono in chronos:
        assert chrono.cap != UNBOUNDED_CAP
        for row in chrono.metrics_rows:
            sorties += 1
            if row["n_landmarks_after"] > chrono.cap:
                over += 1
    criterion(
        3,
        violations == 0 and over == 0,
        f"{len(chronos)} capped runs, {sorties} sortie rows, {violations + over} violations",
    )


# -- 4: ranking arithmetic and full-selection equivalence --

def test_04_ranking_arithmetic_and_full_selection_equivalence():
    m = two_session_map()
    index = m.index
    stats = RollingSelectionStats([(parse_policy("class_ratio", window_len=10), index)])
    selected = np.array([1, 2])
    for _ in range(2):
        update_window(stats, index.classes_of(selected), selected == 1, index)
    cid = index.classes_of([1])[0]
    ratio_exact = stats.class_ratio(cid) == 0.5  # 2 observed over 4 selected
    constancy = stats.class_ratio(index.classes_of([1])[0]) == stats.class_ratio(
        index.classes_of([2])[0]
    )
    unselected_zero = stats.class_ratio(index.classes_of([4])[0]) == 0.0

    scenario = tiny_scenario()
    world = build_world(scenario, 5)
    built, kernels = MultiSessionMap(), {}
    for i in range(2):
        built, kernels, _ = process_sortie(
            built, build_dataset(world, i, 5), kernels, threshold_m=scenario.threshold_m
        )
    probe = build_dataset(world, 2, 5)
    ranked_run = localize_dataset(built, probe, parse_policy("class_ratio@1.0"), kernels)
    full_run = localize_dataset(built, probe, reference_policy(), kernels)
    # the same ids at every pose: equal per-pose counts and equal ids, pose after pose
    same_observed = np.array_equal(
        ranked_run.observed_counts, full_run.observed_counts
    ) and np.array_equal(ranked_run.observed_ids, full_run.observed_ids)
    criterion(
        4,
        ratio_exact and constancy and unselected_zero and same_observed,
        "window arithmetic exact; ranked policy at full ratio observes the "
        f"reference set on all {full_run.n_iterations} iterations",
    )


# -- 5: observation sessions help young maps, and the benefit fades --

def test_05_observation_session_gap(gap_studies):
    have_stage1 = all(1 in s.with_by_stage for s in gap_studies)
    with_means = [float(np.mean(s.with_by_stage[1])) for s in gap_studies if 1 in s.with_by_stage]
    without_means = [
        float(np.mean(s.without_by_stage[1])) for s in gap_studies if 1 in s.without_by_stage
    ]
    gaps = np.asarray(with_means) - np.asarray(without_means)
    mean_gap = float(gaps.mean())
    p_value = float(sps.ttest_rel(with_means, without_means, alternative="greater").pvalue)
    stages = sorted({st for s in gap_studies for st in s.gaps_by_stage})
    stage_means = [
        float(np.mean([g for s in gap_studies for g in s.gaps_by_stage.get(st, [])]))
        for st in stages
    ]
    rho = float(sps.spearmanr(stages, stage_means).statistic)
    criterion(
        5,
        have_stage1 and len(gaps) >= 20 and mean_gap >= 0.05 and p_value < 0.05 and rho < 0,
        f"stage-1 gap {mean_gap:+.4f} over {len(gaps)} seeds (paired p={p_value:.2e}), "
        f"stage-trend spearman rho {rho:+.3f} over stages {stages}",
    )


# -- 6: converged-map selection quality --

def test_06_converged_ranked_selection_near_full(gap_studies):
    converged_probes = [study.converged for study in gap_studies]
    ranked = float(np.mean([p["class_ratio@0.2"] for p in converged_probes]))
    rand = float(np.mean([p["random@0.2"] for p in converged_probes]))
    criterion(
        6,
        ranked >= 0.8 and rand <= ranked - 0.15,
        f"ranked mean ratio {ranked:.3f}, random {rand:.3f} over {len(converged_probes)} seeds",
    )


# -- 7: regression localization never worse than chronological --

def test_07_regression_at_least_as_precise(city_runs, parking_run):
    runs = [(c, rows) for c, rows, _ in city_runs.values()] + [parking_run]
    worst = -np.inf
    flags_ok = True
    n_datasets = 0
    for chrono, rows in runs:
        for i, row in enumerate(rows):
            n_datasets += 1
            worst = max(worst, row["rms_m"] - chrono.reference_rms[i])
            is_rich = chrono.reports[i].session_kind is SessionKind.RICH
            flags_ok &= row["self_localization"] == is_rich
    criterion(
        7,
        worst <= 0.01 + TOL and flags_ok,
        f"{n_datasets} datasets, worst regression-minus-chronological rms {worst:+.4f} m, "
        "self-localization flags consistent",
    )


# -- 8: city dusk produces the expected update regimes --

def test_08_city_dusk_update_regimes(city_runs):
    sweep = {5, 6, 7}  # sorties whose condition jumps from the one before
    stable = {1, 2, 3, 4}
    ok = True
    details = []
    for seed, (chrono, _, _) in sorted(city_runs.items()):
        kinds = [r.session_kind for r in chrono.reports]
        rich = {i for i, k in enumerate(kinds) if k is SessionKind.RICH}
        obs_in_stable = sum(1 for i in stable if kinds[i] is SessionKind.OBSERVATION)
        post_sweep_rms = chrono.reference_rms[-1]
        ok &= (
            len(rich & sweep) >= 3
            and rich <= sweep | {0}
            and obs_in_stable >= 1
            and post_sweep_rms < 0.10
        )
        details.append(f"seed {seed}: rich at {sorted(rich)}, final rms {post_sweep_rms:.3f} m")
    criterion(8, ok, "; ".join(details))


# -- 9: protocol round trips and exact traffic accounting --

def test_09_protocol_conformance_and_ledger_exactness():
    rnd = random.Random(99)
    fuzz_ok = True
    for _ in range(1000):
        msg = random_message(rnd)
        frame = encode_frame(msg)
        decoded = decode_body(read_frame(io.BytesIO(frame)))
        fuzz_ok &= decoded == msg and encode_frame(decoded) == frame

    backend = MapBackend(two_session_map(), {})
    reply_bytes = 0
    landmarks_sent = 0

    def call(kind, body, token=None, cid=0):
        nonlocal reply_bytes, landmarks_sent
        request = encode_frame(Message(kind, cid=cid, token=token, body=body))
        reply_frame = backend.handle_frame(request[4:])
        reply_bytes += len(reply_frame)
        reply = decode_body(read_frame(io.BytesIO(reply_frame)))
        if reply.kind is MessageKind.LANDMARKS:
            landmarks_sent += len(reply.body["landmark_ids"])
        return reply

    token = call(MessageKind.OPEN_SESSION, {"policy": "all@1", "sensor_range": 100.0}).token
    for k, pose in enumerate([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5], [3.0, 1.0], [4.0, 0.0]]):
        selected = call(MessageKind.QUERY, {"pose": pose}, token=token, cid=k + 1)
        observed = selected.body["landmark_ids"][::2]  # report every other id
        call(MessageKind.REPORT, {"observed": observed}, token=token, cid=100 + k)
    call(MessageKind.CLOSE, {}, token=token)

    ledger = backend.ledger.to_doc()
    criterion(
        9,
        fuzz_ok
        and ledger["bytes_down"] == reply_bytes
        and ledger["landmarks_sent"] == landmarks_sent,
        f"1000-message fuzz byte-identical; bytes_down {ledger['bytes_down']} == "
        f"{reply_bytes} counted, landmarks_sent {ledger['landmarks_sent']} == "
        f"{landmarks_sent} counted",
    )


# -- 10: performance envelope and bytewise determinism --

def test_10_city_performance_and_determinism(city_runs, tmp_path_factory):
    elapsed = city_runs[42][2]
    spec = ExperimentSpec(get_scenario("city_dusk"), (42,), policy_names=("class_ratio@0.2",))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"city_{tag}")
        run_experiment(spec, out)
        outs.append(out)
    files = ["metrics.csv", "composition.csv", "run_meta.json", "summary.json"]
    identical = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files)
    criterion(
        10,
        elapsed < 60.0 and identical,
        f"city chronological run took {elapsed:.2f}s; "
        f"{len(files)} output files byte-identical across reruns",
    )
