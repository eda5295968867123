"""Summarization: exact solver vs. brute force, greedy quality, map binding."""

import itertools

import numpy as np
import pytest

from atlas.mapcore import MapValidationError
from atlas.summarize import (
    EXACT_SIZE_LIMIT,
    StaleSolutionError,
    SummarizationProblem,
    apply_summarization,
    build_coobservability,
    build_cost_vector,
    build_problem,
    solve,
    solve_exact,
    solve_greedy,
)

from helpers import random_summarization_problem, two_session_map


def enumerate_optimum(problem: SummarizationProblem) -> tuple[float, tuple[int, ...]]:
    """Independent brute force: scan every keep set of the right size.

    Objective is recomputed from scratch in pure Python, and strict
    improvement keeps the first (lexicographically smallest) optimum.
    """
    best = None
    best_keep = None
    for kept in itertools.combinations(range(problem.n_landmarks), problem.keep_count):
        cov = [0] * problem.n_vertices
        cost = 0.0
        for j in kept:
            cost += float(problem.costs[j])
            for v in problem.landmark_vertices[j]:
                cov[int(v)] += 1
        slack = sum(max(0, problem.min_per_vertex - c) for c in cov)
        obj = cost + problem.slack_penalty * slack
        if best is None or obj < best:
            best = obj
            best_keep = kept
    return best, best_keep


def small_problem(costs, cols, n_vertices, keep, b=1, lam=10.0):
    return SummarizationProblem(
        costs=np.asarray(costs, dtype=np.float64),
        landmark_vertices=[np.asarray(c, dtype=np.int64) for c in cols],
        n_vertices=n_vertices,
        keep_count=keep,
        min_per_vertex=b,
        slack_penalty=lam,
    )


def test_ascending_columns_are_kept_and_any_other_input_normalized():
    m = two_session_map()
    vertex_ids, _, cols = build_coobservability(m)
    _, costs = build_cost_vector(m)
    problem = SummarizationProblem(costs, cols, len(vertex_ids), keep_count=2)
    assert all(kept is col for kept, col in zip(problem.landmark_vertices, cols))
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


def test_build_cost_vector_hand_values():
    m = two_session_map()
    ids, costs = build_cost_vector(m, obs_weight=0.1)
    assert ids == (1, 2, 3, 4, 5)
    want = [1 / 2.2, 1 / 2.2, 1 / 3.5, 1 / 2.2, 1 / 2.2]
    assert costs == pytest.approx(want, abs=1e-12)


def test_build_coobservability_hand_values():
    m = two_session_map()
    vertex_ids, landmark_ids, cols = build_coobservability(m)
    assert vertex_ids == tuple(range(1, 11))
    assert landmark_ids == (1, 2, 3, 4, 5)
    got = [c.tolist() for c in cols]
    assert got == [[0, 1], [1, 2], [2, 3, 7, 8], [5, 9], [8, 9]]


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
