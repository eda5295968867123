"""Offline map summarization.

Selecting which landmarks to keep is a 0/1 program: keep exactly
`keep_count` landmarks, minimizing total landmark cost plus a penalty for
every missing observation below `min_per_vertex` at any vertex:

    minimize    cost . x  +  slack_penalty * sum(z)
    subject to  sum(x) == keep_count
                A x + z >= min_per_vertex   (per vertex)
                x in {0,1},  z >= 0 integer

where A is the binary vertex-by-landmark co-observability matrix.  Because
the slack z has a closed form once x is fixed (z_v = max(0, b - (Ax)_v)),
the problem reduces to choosing a fixed-size subset, which a small
branch-and-bound solves exactly and a two-phase greedy approximates at map
scale.  Landmark cost rewards having been observed in many sessions and
often: cost_i = 1 / (1 + n_sessions_i + obs_weight * n_observations_i).

Costs and coverage are read from the map's columns: the session counts
and observation totals are bincounts over its (landmark, session) pairs
and (landmark, vertex, count) triples.  The triples are sorted by
landmark, then vertex, so the map's vertex column is A in compressed
columns, shared and never copied; one searchsorted over the landmark
column bounds each landmark's run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from atlas.mapcore import MultiSessionMap

DEFAULT_MIN_PER_VERTEX = 3
DEFAULT_SLACK_PENALTY = 1.0
DEFAULT_OBS_WEIGHT = 0.1
# Largest instance handed to the exact solver by the sortie pipeline.
EXACT_SIZE_LIMIT = 30

_TIE_EPS = 1e-12


class StaleSolutionError(ValueError):
    """The map changed between building the problem and applying the solution."""


def _map_stamp(m: MultiSessionMap) -> tuple:
    return (id(m), m.version, len(m.landmarks), len(m.vertices), len(m.sessions))


@dataclass
class SummarizationProblem:
    """One summarization instance over N landmarks and M vertices."""

    costs: np.ndarray  # (N,) positive
    # A in compressed columns: landmark j covers vertex rows vertices[ptr[j]:ptr[j + 1]].
    vertices: np.ndarray
    ptr: np.ndarray  # (N + 1,)
    n_vertices: int
    keep_count: int
    min_per_vertex: int = DEFAULT_MIN_PER_VERTEX
    slack_penalty: float = DEFAULT_SLACK_PENALTY
    landmark_ids: tuple[int, ...] | None = None  # map binding, optional
    map_stamp: tuple | None = None

    def __post_init__(self) -> None:
        self.costs = np.asarray(self.costs, dtype=np.float64)
        n = len(self.costs)
        if n == 0:
            raise ValueError("problem needs at least one landmark")
        if not np.all(np.isfinite(self.costs)) or np.any(self.costs <= 0):
            raise ValueError("costs must be positive and finite")
        self.vertices = np.asarray(self.vertices, dtype=np.int64)
        self.ptr = np.asarray(self.ptr, dtype=np.int64)
        if self.ptr.shape != (n + 1,) or self.ptr[0] != 0 or self.ptr[-1] != len(self.vertices):
            raise ValueError("one coverage column per landmark required")
        sizes = np.diff(self.ptr)
        if not (sizes > 0).all():
            raise ValueError(f"landmark {np.argmin(sizes > 0)} covers no vertex")
        outside = (self.vertices < 0) | (self.vertices >= self.n_vertices)
        if outside.any():
            owner = np.searchsorted(self.ptr, np.argmax(outside), side="right") - 1
            raise ValueError(f"landmark {owner} references a vertex out of range")
        ascending = np.diff(self.vertices) > 0
        ascending[self.ptr[1:-1] - 1] = True  # a column may start below the last one's end
        if not ascending.all():  # sort and de-duplicate each column
            key = np.unique(np.repeat(np.arange(n), sizes) * self.n_vertices + self.vertices)
            self.vertices = key % self.n_vertices
            self.ptr = np.searchsorted(key, np.arange(n + 1) * self.n_vertices)
        if not 1 <= self.keep_count <= n:
            raise ValueError("keep_count must satisfy 1 <= keep_count <= n_landmarks")
        if self.min_per_vertex < 1:
            raise ValueError("min_per_vertex must be >= 1")
        if self.slack_penalty < 0:
            raise ValueError("slack_penalty must be >= 0")

    @property
    def n_landmarks(self) -> int:
        return len(self.costs)

    @property
    def landmark_vertices(self) -> list[np.ndarray]:
        """Per landmark, a view of the vertex rows it covers."""
        return np.split(self.vertices, self.ptr[1:-1])

    def coverage(self, kept: Sequence[int]) -> np.ndarray:
        """Per vertex, how many kept landmarks cover it (a repeated index counts again)."""
        times = np.bincount(np.asarray(kept, dtype=np.int64), minlength=self.n_landmarks)
        kept_rows = np.repeat(self.vertices, np.repeat(times, np.diff(self.ptr)))
        return np.bincount(kept_rows, minlength=self.n_vertices)

    def slack(self, kept: Sequence[int]) -> np.ndarray:
        """Closed-form optimal slack for a fixed keep set."""
        return np.maximum(0, self.min_per_vertex - self.coverage(kept))

    def objective(self, kept: Sequence[int]) -> float:
        return self._objective(np.asarray(kept, dtype=np.int64), self.slack(kept))

    def _objective(self, kept: np.ndarray, slack: np.ndarray) -> float:
        return float(self.costs[kept].sum() + self.slack_penalty * slack.sum())


@dataclass
class SummarizationSolution:
    keep: np.ndarray  # ascending landmark indices, len == keep_count
    slack: np.ndarray  # (M,)
    objective: float
    exact: bool
    keep_ids: tuple[int, ...] | None = None  # map-bound ids, when available
    map_stamp: tuple | None = None


def _finish(problem: SummarizationProblem, kept: np.ndarray, exact: bool) -> SummarizationSolution:
    kept = np.sort(np.asarray(kept, dtype=np.int64))
    keep_ids = None
    if problem.landmark_ids is not None:
        keep_ids = tuple(problem.landmark_ids[int(j)] for j in kept)
    slack = problem.slack(kept)
    return SummarizationSolution(
        keep=kept,
        slack=slack,
        objective=problem._objective(kept, slack),
        exact=exact,
        keep_ids=keep_ids,
        map_stamp=problem.map_stamp,
    )


# -- Cost and coverage from a map --


def build_problem(
    m: MultiSessionMap,
    keep_count: int,
    min_per_vertex: int = DEFAULT_MIN_PER_VERTEX,
    slack_penalty: float = DEFAULT_SLACK_PENALTY,
    obs_weight: float = DEFAULT_OBS_WEIGHT,
) -> SummarizationProblem:
    """The instance over m's landmarks, ascending by id, bound to the map.

    Lower cost is more worth keeping.  Coverage is the map's own
    obs_vertices column: landmark j covers vertex rows vertices[ptr[j]:ptr[j + 1]].
    """
    n = len(m.landmark_ids)
    n_sessions = np.bincount(m.pair_landmarks, minlength=n)
    n_observations = np.bincount(m.obs_landmarks, weights=m.obs_counts, minlength=n)
    # The triples are sorted by (landmark row, vertex row): each landmark's
    # vertex rows are one ascending run.
    ptr = np.searchsorted(m.obs_landmarks, np.arange(n + 1))
    return SummarizationProblem(
        costs=1.0 / (1.0 + n_sessions + obs_weight * n_observations),
        vertices=m.obs_vertices,
        ptr=ptr,
        n_vertices=len(m.vertex_ids),
        keep_count=keep_count,
        min_per_vertex=min_per_vertex,
        slack_penalty=slack_penalty,
        landmark_ids=tuple(m.landmark_ids.tolist()),
        map_stamp=_map_stamp(m),
    )


# -- Solvers --


def solve_exact(problem: SummarizationProblem) -> SummarizationSolution:
    """Branch and bound over the keep set.  Deterministic: among optima it
    returns the lexicographically smallest keep vector.

    Nodes branch in landmark order with the include branch first, so keep
    sets are reached in ascending lexicographic order and only strict
    improvements replace the incumbent.  The bound combines the
    cheapest possible completion of the budget with a per-vertex coverage
    bound (a vertex cannot gain more coverage than the smaller of the
    remaining budget and its remaining covering landmarks).
    """
    n, m = problem.n_landmarks, problem.n_vertices
    q = problem.costs
    b = problem.min_per_vertex
    lam = problem.slack_penalty
    vertices, ptr = problem.vertices, problem.ptr.tolist()
    # fill_cost[i][r]: cheapest cost of r more picks from suffix i.
    fill_cost = []
    for i in range(n + 1):
        sq = np.sort(q[i:])
        fill_cost.append(np.concatenate(([0.0], np.cumsum(sq))))
    # free_deg[i]: per vertex, how many landmarks with index >= i cover it.
    free_deg = np.zeros((n + 1, m), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        free_deg[i] = free_deg[i + 1]
        free_deg[i][vertices[ptr[i]:ptr[i + 1]]] += 1

    best_obj = np.inf
    best_keep: np.ndarray | None = None
    cov = np.zeros(m, dtype=np.int64)
    prefix: list[int] = []

    def visit(i: int, in_cost: float) -> None:
        nonlocal best_obj, best_keep
        need = problem.keep_count - len(prefix)
        if need == 0:
            # Only the all-zero suffix is feasible from here.
            obj = in_cost + lam * float(np.maximum(0, b - cov).sum())
            if obj < best_obj - _TIE_EPS:
                best_obj = obj
                best_keep = np.array(prefix, dtype=np.int64)
            return
        if n - i < need:
            return
        bound = in_cost + float(fill_cost[i][need])
        if lam > 0:
            reachable = cov + np.minimum(need, free_deg[i])
            bound += lam * float(np.maximum(0, b - reachable).sum())
        if bound >= best_obj - _TIE_EPS:
            return
        prefix.append(i)  # include first: keep sets arrive in lex order
        col = vertices[ptr[i]:ptr[i + 1]]
        cov[col] += 1
        visit(i + 1, in_cost + float(q[i]))
        cov[col] -= 1
        prefix.pop()
        visit(i + 1, in_cost)

    visit(0, 0.0)
    assert best_keep is not None  # keep_count <= n guarantees feasibility
    return _finish(problem, best_keep, exact=True)


def solve_greedy(problem: SummarizationProblem) -> SummarizationSolution:
    """Two-phase greedy: cover each vertex with its cheapest landmarks, then
    fill (or trim) to the exact budget.  Always feasible, never better than
    the exact optimum."""
    n = problem.n_landmarks
    q = problem.costs
    b = problem.min_per_vertex
    lam = problem.slack_penalty
    vertices, ptr = problem.vertices, problem.ptr.tolist()

    def col(j: int) -> np.ndarray:
        return vertices[ptr[j]:ptr[j + 1]]

    # The covering landmarks of each vertex: entries regrouped by vertex with
    # a stable sort, so each vertex lists its landmarks in ascending order.
    by_vertex = np.repeat(np.arange(n), np.diff(problem.ptr))[np.argsort(vertices, kind="stable")]
    at = np.concatenate(([0], np.cumsum(np.bincount(vertices, minlength=problem.n_vertices)))).tolist()
    kept = np.zeros(n, dtype=bool)
    cov = np.zeros(problem.n_vertices, dtype=np.int64)
    for v in range(problem.n_vertices):
        if cov[v] >= b:
            continue
        row = by_vertex[at[v]:at[v + 1]]
        for j in row[np.argsort(q[row], kind="stable")]:
            if cov[v] >= b:
                break
            if not kept[j]:
                kept[j] = True
                cov[col(j)] += 1
    n_kept = int(kept.sum())
    if n_kept < problem.keep_count:
        order = np.lexsort((np.arange(n), q))
        for j in order:
            if n_kept == problem.keep_count:
                break
            if not kept[j]:
                kept[j] = True
                cov[col(j)] += 1
                n_kept += 1
    elif n_kept > problem.keep_count:
        # Evict the landmark whose removal improves the objective most
        # (its cost minus the slack penalty it would newly incur).
        def gain(j: int) -> float:
            return float(q[j]) - lam * int(np.count_nonzero(cov[col(j)] <= b))

        heap = [(-gain(int(j)), int(j)) for j in np.flatnonzero(kept)]
        heapq.heapify(heap)
        while n_kept > problem.keep_count:
            neg, j = heapq.heappop(heap)
            if not kept[j]:
                continue
            g = gain(j)
            if -neg > g + 1e-15:  # stale entry, re-rank
                heapq.heappush(heap, (-g, j))
                continue
            kept[j] = False
            cov[col(j)] -= 1
            n_kept -= 1
    return _finish(problem, np.flatnonzero(kept), exact=False)


def solve(problem: SummarizationProblem, exact_limit: int = EXACT_SIZE_LIMIT) -> SummarizationSolution:
    if problem.n_landmarks <= exact_limit:
        return solve_exact(problem)
    return solve_greedy(problem)


def apply_summarization(m: MultiSessionMap, solution: SummarizationSolution) -> MultiSessionMap:
    """Return a copy of the map keeping only the solution's landmarks.

    The solution must have been built from this map in its current state;
    anything else raises StaleSolutionError.  Vertices and sessions are
    retained even when they end up with no landmarks.
    """
    if solution.keep_ids is None or solution.map_stamp is None:
        raise StaleSolutionError("solution is not bound to a map")
    if solution.map_stamp != _map_stamp(m):
        raise StaleSolutionError("map changed since the problem was built")
    out = m.copy()
    out.drop_landmarks(out.landmark_ids[~np.isin(out.landmark_ids, solution.keep_ids)])
    return out
