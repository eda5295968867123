"""Summarization: exact solver vs. brute force, greedy quality, map binding."""

import itertools

import numpy as np
import pytest

from atlas.experiment import build_dataset, build_world
from atlas.locsim import COVERAGE_FLOOR_PER_VERTEX, process_sortie
from atlas.mapcore import MapValidationError, MultiSessionMap
from atlas.summarize import (
    EXACT_SIZE_LIMIT,
    StaleSolutionError,
    SummarizationProblem,
    apply_summarization,
    build_problem,
    solve,
    solve_exact,
    solve_greedy,
)
from atlas.worldgen import get_scenario

from helpers import compressed_columns, milp_objective, random_summarization_problem, two_session_map


def enumerate_optimum(problem: SummarizationProblem) -> tuple[float, tuple[int, ...]]:
    """Independent brute force: scan every keep set of the right size.

    Objective is recomputed from scratch in pure Python, and strict
    improvement keeps the first (lexicographically smallest) optimum.
    """
    cols = problem.landmark_vertices
    best = None
    best_keep = None
    for kept in itertools.combinations(range(problem.n_landmarks), problem.keep_count):
        cov = [0] * problem.n_vertices
        cost = 0.0
        for j in kept:
            cost += float(problem.costs[j])
            for v in cols[j]:
                cov[int(v)] += 1
        slack = sum(max(0, problem.min_per_vertex - c) for c in cov)
        obj = cost + problem.slack_penalty * slack
        if best is None or obj < best:
            best = obj
            best_keep = kept
    return best, best_keep


def small_problem(costs, cols, n_vertices, keep, b=1, lam=10.0):
    vertices, ptr = compressed_columns(cols)
    return SummarizationProblem(
        costs=np.asarray(costs, dtype=np.float64),
        vertices=vertices,
        ptr=ptr,
        n_vertices=n_vertices,
        keep_count=keep,
        min_per_vertex=b,
        slack_penalty=lam,
    )


def test_ascending_columns_are_kept_and_any_other_input_normalized():
    m = two_session_map()
    problem = build_problem(m, keep_count=2)
    assert problem.vertices is m.obs_vertices  # the map's column, shared
    assert [c.tolist() for c in problem.landmark_vertices] == [[0, 1], [1, 2], [2, 3, 7, 8], [5, 9], [8, 9]]
    assert all(np.shares_memory(c, m.obs_vertices) for c in problem.landmark_vertices)
    # descending, repeated, or given as lists: sorted and de-duplicated
    for given in ([np.array([2, 0]), np.array([1])], [np.array([0, 0, 1]), np.array([1])],
                  [[2, 0], [1]], [np.array([0, 2], dtype=np.int32), np.array([1])]):
        normalized = small_problem([1.0, 1.0], given, 3, keep=1)
        assert [c.tolist() for c in normalized.landmark_vertices] == [sorted(set(np.asarray(given[0]).tolist())), [1]]
        assert all(c.dtype == np.int64 for c in normalized.landmark_vertices)
    for bad in ([np.array([0, 3]), np.array([1])], [np.array([-1, 0]), np.array([1])],
                [np.array([0, 1]), np.array([], dtype=np.int64)]):
        with pytest.raises(ValueError):
            small_problem([1.0, 1.0], bad, 3, keep=1)


def test_exact_solver_worked_example():
    # Two vertices, two landmarks each; keeping one per vertex is forced
    # because uncovered vertices cost lam=10 apiece.
    problem = small_problem([1.0, 2.0, 3.0, 4.0], [[0], [0], [1], [1]], 2, keep=2)
    sol = solve_exact(problem)
    assert sol.keep.tolist() == [0, 2]
    assert sol.objective == pytest.approx(4.0, abs=1e-12)
    assert sol.slack.tolist() == [0, 0]
    assert sol.exact


def test_slack_closed_form():
    problem = small_problem([1.0, 1.0], [[0], [0, 1]], 3, keep=1, b=3)
    assert problem.slack([0]).tolist() == [2, 3, 3]
    assert problem.slack([1]).tolist() == [2, 2, 3]
    assert problem.objective([1]) == pytest.approx(1.0 + 10.0 * 7)
    assert problem.coverage([0, 1]).tolist() == [2, 1, 0]


def test_exact_matches_enumeration_on_random_corpus():
    rng = np.random.default_rng(20260819)
    for _ in range(500):
        problem = random_summarization_problem(rng)
        want_obj, _ = enumerate_optimum(problem)
        sol = solve_exact(problem)
        assert abs(sol.objective - want_obj) <= 1e-9
        assert len(sol.keep) == problem.keep_count
        assert problem.objective(sol.keep) == pytest.approx(sol.objective, abs=1e-12)


def test_greedy_feasible_and_close_on_random_corpus():
    rng = np.random.default_rng(7)
    within = 0
    total = 300
    for _ in range(total):
        problem = random_summarization_problem(rng)
        greedy = solve_greedy(problem)
        keep = greedy.keep
        assert len(keep) == problem.keep_count
        assert len(set(keep.tolist())) == problem.keep_count
        assert keep[0] >= 0 and keep[-1] < problem.n_landmarks
        assert not greedy.exact
        exact = solve_exact(problem)
        assert greedy.objective >= exact.objective - 1e-12
        if greedy.objective <= 1.2 * exact.objective + 1e-12:
            within += 1
    assert within / total >= 0.9


def test_coverage_slack_and_objective_equal_a_recount_on_random_corpus():
    rng = np.random.default_rng(31)
    for _ in range(300):
        problem = random_summarization_problem(rng)
        cols = problem.landmark_vertices
        kept = rng.choice(problem.n_landmarks, size=problem.keep_count, replace=False)
        cov = [0] * problem.n_vertices
        for j in kept.tolist():
            for v in cols[j].tolist():
                cov[v] += 1
        slack = [max(0, problem.min_per_vertex - c) for c in cov]
        cost = sum(float(problem.costs[j]) for j in kept.tolist())
        assert problem.coverage(kept).tolist() == cov
        assert problem.slack(kept).tolist() == slack
        assert problem.objective(kept) == pytest.approx(cost + problem.slack_penalty * sum(slack), abs=1e-12)


@pytest.fixture(scope="module")
def city_dusk_maps():
    """The uncapped city_dusk seed-42 walk: the first map over the scenario's
    cap (the instance a capped run summarizes) and the final map."""
    scenario = get_scenario("city_dusk")
    world = build_world(scenario, 42)
    m, kernels, first_over = MultiSessionMap(), {}, None
    for i in range(len(scenario.schedule)):
        m, kernels, _ = process_sortie(
            m, build_dataset(world, i, 42), kernels, threshold_m=scenario.threshold_m
        )
        if first_over is None and len(m.landmarks) > scenario.landmark_cap:
            first_over = m
    return scenario, first_over, m


def test_greedy_is_optimal_on_the_city_dusk_summarization(city_dusk_maps):
    scenario, first_over, _ = city_dusk_maps
    problem = build_problem(first_over, keep_count=scenario.landmark_cap,
                            min_per_vertex=COVERAGE_FLOOR_PER_VERTEX)
    assert problem.n_landmarks == 3699
    greedy = solve_greedy(problem)
    assert round(greedy.objective, 4) == 455.3993
    assert greedy.objective == pytest.approx(milp_objective(problem), rel=1e-9)


def test_greedy_stays_near_optimal_at_a_tight_budget(city_dusk_maps):
    # 30% kept on the uncapped final map; the gap measured when this bound
    # was set is 3.17% (88.698 against 85.969).
    _, _, final = city_dusk_maps
    problem = build_problem(final, keep_count=int(0.3 * len(final.landmarks)),
                            min_per_vertex=COVERAGE_FLOOR_PER_VERTEX)
    assert problem.keep_count == 1109
    optimum = milp_objective(problem)
    greedy = solve_greedy(problem).objective
    assert optimum * (1 - 1e-9) <= greedy <= 1.05 * optimum


def test_exact_breaks_ties_lexicographically():
    problem = small_problem([0.5, 0.5, 0.5, 0.5], [[0], [0], [0], [0]], 1, keep=2)
    a = solve_exact(problem)
    b = solve_exact(problem)
    assert a.keep.tolist() == [0, 1]
    assert b.keep.tolist() == a.keep.tolist()


def test_solve_dispatches_on_size():
    problem = small_problem([1.0, 2.0], [[0], [0]], 1, keep=1)
    assert solve(problem).exact
    assert problem.n_landmarks <= EXACT_SIZE_LIMIT
    assert not solve(problem, exact_limit=1).exact


def test_problem_validation():
    with pytest.raises(ValueError):
        small_problem([], [], 1, keep=1)
    with pytest.raises(ValueError):
        small_problem([0.0], [[0]], 1, keep=1)  # non-positive cost
    with pytest.raises(ValueError):
        small_problem([1.0], [[]], 1, keep=1)  # covers nothing
    with pytest.raises(ValueError):
        small_problem([1.0], [[1]], 1, keep=1)  # vertex out of range
    with pytest.raises(ValueError):
        small_problem([1.0], [[0]], 1, keep=2)  # keep_count > n
    with pytest.raises(ValueError):
        small_problem([1.0, 1.0], [[0]], 1, keep=1)  # column count mismatch
    normalized = small_problem([1.0, 1.0], [[1, 0, 1], [0]], 2, keep=1)
    assert [c.tolist() for c in normalized.landmark_vertices] == [[0, 1], [0]]
    assert normalized.coverage([0, 1]).tolist() == [2, 1]  # a repeated vertex counts once


def test_build_problem_costs_hand_values():
    problem = build_problem(two_session_map(), keep_count=5)
    assert problem.landmark_ids == (1, 2, 3, 4, 5)
    want = [1 / 2.2, 1 / 2.2, 1 / 3.5, 1 / 2.2, 1 / 2.2]
    assert problem.costs == pytest.approx(want, abs=1e-12)


def test_build_problem_coverage_hand_values():
    m = two_session_map()
    problem = build_problem(m, keep_count=5)
    assert problem.n_vertices == 10 and problem.n_landmarks == 5
    assert problem.vertices.tolist() == [0, 1, 1, 2, 2, 3, 7, 8, 5, 9, 8, 9]
    assert np.shares_memory(problem.vertices, m.obs_vertices)
    assert problem.ptr.tolist() == [0, 2, 4, 8, 10, 12]


def test_apply_summarization_round_trip():
    m = two_session_map()
    problem = build_problem(m, keep_count=3)
    sol = solve_exact(problem)
    out = apply_summarization(m, sol)
    assert tuple(sorted(out.landmarks)) == sol.keep_ids
    assert len(out.vertices) == len(m.vertices)  # geometry retained
    assert len(out.sessions) == len(m.sessions)
    assert len(m.landmarks) == 5  # input untouched
    out.validate()


def test_apply_summarization_rejects_stale_solution():
    m = two_session_map()
    sol = solve_exact(build_problem(m, keep_count=3))
    m.add_observation_session([[1, 1, 1]], label="later")
    with pytest.raises(StaleSolutionError):
        apply_summarization(m, sol)
    # a copy is a different map object even with identical content
    fresh = two_session_map()
    sol2 = solve_exact(build_problem(fresh, keep_count=3))
    with pytest.raises(StaleSolutionError):
        apply_summarization(fresh.copy(), sol2)


def test_apply_summarization_requires_map_binding():
    problem = small_problem([1.0, 2.0], [[0], [0]], 1, keep=1)
    sol = solve_exact(problem)
    with pytest.raises(StaleSolutionError):
        apply_summarization(two_session_map(), sol)


def test_summarized_map_still_validates_under_cap():
    m = two_session_map()
    m.landmark_cap = 3
    with pytest.raises(MapValidationError):
        m.validate()
    out = apply_summarization(m, solve_exact(build_problem(m, keep_count=3)))
    out.validate()
