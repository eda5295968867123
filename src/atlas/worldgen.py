"""Synthetic worlds, appearance conditions, and sortie datasets.

Appearance conditions live on a circle: a condition is a float in [0, 1)
and the distance between two conditions wraps around, so 0.95 and 0.05 are
close.  Every ground-truth landmark has an observability kernel over that
circle, a truncated Gaussian bump giving the probability that a single
localization attempt under a given condition actually matches the landmark.
The hard cutoff models the matcher's minimum-similarity threshold: far
enough from the condition a landmark was mapped under, it does not match at
all, no matter how many times it is attempted.  Without the cutoff, tiny
tail probabilities compound over a whole traversal and every landmark ends
up marked by every session, which would erase the class structure that
selection policies feed on.

A world is a closed trajectory loop plus a field of landmark sites scattered
along a corridor around it.  A sortie traverses the loop under one latent
condition with odometry noise and proposes new landmarks for rich-session
ingestion, each with its observing poses as int64 (pose index, count) rows:
a proposal reuses the site's position, width, and peak, but its kernel is
re-centered near the sortie's condition, modeling that a feature tracked
and triangulated today is matchable under conditions similar to today's.
The same site can therefore be mapped several times under different
conditions as distinct landmarks, which is how real feature maps grow
until summarization prunes them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from typing import Mapping

import numpy as np

from atlas.mapcore import UNBOUNDED_CAP
from atlas.rng import derive_seed


def circular_distance(a, b):
    """Distance on the unit appearance circle; scalar or ndarray."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % 1.0
    return np.minimum(d, 1.0 - d)


def wrap_condition(c: float) -> float:
    return float(c % 1.0)


# Matchability horizon in units of kernel width; beyond it p_detect is 0.
KERNEL_CUTOFF_WIDTHS = 2.2


def detection_probabilities(
    centers: np.ndarray, widths: np.ndarray, peaks: np.ndarray, condition: float
) -> np.ndarray:
    """Vectorized truncated-Gaussian detection probability, one per kernel."""
    d = circular_distance(centers, condition)
    p = peaks * np.exp(-(d * d) / (2.0 * np.asarray(widths) ** 2))
    return np.where(d <= KERNEL_CUTOFF_WIDTHS * np.asarray(widths), p, 0.0)


@dataclass(frozen=True)
class ObservabilityKernel:
    """Truncated Gaussian detection-probability bump on the appearance circle."""

    center: float
    width: float
    peak: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.center < 1.0:
            raise ValueError("kernel center must be in [0, 1)")
        if self.width <= 0:
            raise ValueError("kernel width must be positive")
        if not 0.0 < self.peak <= 1.0:
            raise ValueError("kernel peak must be in (0, 1]")

    def p_detect(self, condition) -> float | np.ndarray:
        p = detection_probabilities(
            np.asarray(self.center), np.asarray(self.width), np.asarray(self.peak), condition
        )
        return float(p) if np.ndim(condition) == 0 else p


KernelRegistry = dict[int, ObservabilityKernel]


class KernelTable:
    """A kernel registry frozen for vectorized lookup by landmark id.

    `ids` is ascending; column j of `params` holds (center, width, peak) of
    ids[j], and the extra last column (0, 1, 0) stands for every id without
    a kernel: a zero peak never detects.
    """

    def __init__(self, kernels: Mapping[int, ObservabilityKernel]):
        n = len(kernels)
        ids = np.fromiter(kernels, dtype=np.int64, count=n)
        order = np.argsort(ids)
        self.ids = ids[order]
        values = list(kernels.values())
        self.params = np.empty((3, n + 1))
        for row, name in enumerate(("center", "width", "peak")):
            self.params[row, :n] = np.fromiter(map(attrgetter(name), values), np.float64, n)[order]
        self.params[:, n] = (0.0, 1.0, 0.0)

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers, widths, peaks) of the given landmark ids, in input order."""
        ids = np.asarray(ids, dtype=np.int64)
        cols = np.searchsorted(self.ids, ids)
        known = cols < len(self.ids)
        known[known] = self.ids[cols[known]] == ids[known]
        cols[~known] = len(self.ids)
        centers, widths, peaks = self.params[:, cols]
        return centers, widths, peaks


def kernels_to_doc(kernels: Mapping[int, ObservabilityKernel]) -> dict:
    return {
        str(lid): {"center": k.center, "width": k.width, "peak": k.peak}
        for lid, k in sorted(kernels.items())
    }


def kernels_from_doc(doc: Mapping) -> KernelRegistry:
    return {
        int(lid): ObservabilityKernel(float(k["center"]), float(k["width"]), float(k["peak"]))
        for lid, k in doc.items()
    }


def save_kernels(kernels: Mapping[int, ObservabilityKernel], path: str | Path) -> None:
    Path(path).write_text(json.dumps(kernels_to_doc(kernels), sort_keys=True, indent=0))


def load_kernels(path: str | Path) -> KernelRegistry:
    return kernels_from_doc(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class SortieSpec:
    label: str
    condition: float


@dataclass
class Scenario:
    """Everything needed to regenerate a world and its sortie schedule."""

    name: str
    waypoints: list[tuple[float, float]]
    n_iterations: int
    landmark_density: float  # sites per meter of trajectory
    corridor_width: float
    kernel_width_range: tuple[float, float]  # log-uniform draw
    kernel_peak_range: tuple[float, float]
    sensor_range: float
    schedule: list[SortieSpec]
    landmark_cap: int = UNBOUNDED_CAP
    threshold_m: float = 0.10
    rich_yield: float = 0.9  # probability a site proposes a landmark per rich sortie
    recenter_sigma: float = 0.5  # kernel recenter spread, as a fraction of width
    odom_noise_xy: float = 0.3
    odom_noise_heading: float = 0.01
    min_triangulation: int = 2
    # Policy specs probed by experiment runs, as "ranking@ratio" strings.
    policy_grid: list[str] = field(
        default_factory=lambda: [
            f"{kind}@{sr}"
            for kind in ("class_ratio", "session_weight", "random")
            for sr in (0.2, 0.3, 0.4)
        ]
    )

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "waypoints": [[float(x), float(y)] for x, y in self.waypoints],
            "n_iterations": self.n_iterations,
            "landmark_density": self.landmark_density,
            "corridor_width": self.corridor_width,
            "kernel_width_range": list(self.kernel_width_range),
            "kernel_peak_range": list(self.kernel_peak_range),
            "sensor_range": self.sensor_range,
            "schedule": [{"label": s.label, "condition": s.condition} for s in self.schedule],
            "landmark_cap": self.landmark_cap,
            "threshold_m": self.threshold_m,
            "rich_yield": self.rich_yield,
            "recenter_sigma": self.recenter_sigma,
            "odom_noise_xy": self.odom_noise_xy,
            "odom_noise_heading": self.odom_noise_heading,
            "min_triangulation": self.min_triangulation,
            "policy_grid": self.policy_grid,
        }

    @classmethod
    def from_doc(cls, doc: Mapping) -> "Scenario":
        return cls(
            name=doc["name"],
            waypoints=[(float(x), float(y)) for x, y in doc["waypoints"]],
            n_iterations=int(doc["n_iterations"]),
            landmark_density=float(doc["landmark_density"]),
            corridor_width=float(doc["corridor_width"]),
            kernel_width_range=tuple(doc["kernel_width_range"]),
            kernel_peak_range=tuple(doc["kernel_peak_range"]),
            sensor_range=float(doc["sensor_range"]),
            schedule=[SortieSpec(s["label"], float(s["condition"])) for s in doc["schedule"]],
            landmark_cap=int(doc.get("landmark_cap", UNBOUNDED_CAP)),
            threshold_m=float(doc.get("threshold_m", 0.10)),
            rich_yield=float(doc.get("rich_yield", 0.9)),
            recenter_sigma=float(doc.get("recenter_sigma", 0.5)),
            odom_noise_xy=float(doc.get("odom_noise_xy", 0.3)),
            odom_noise_heading=float(doc.get("odom_noise_heading", 0.01)),
            min_triangulation=int(doc.get("min_triangulation", 2)),
            policy_grid=list(doc.get("policy_grid", [])),
        )


def load_scenario(path: str | Path) -> Scenario:
    return Scenario.from_doc(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class GroundSite:
    """A physical landmark site: position plus per-site kernel shape.

    The base kernel center is where the site's appearance happens to sit on
    the circle; triangulation re-centers near the encountering condition.
    """

    position: np.ndarray
    base_center: float
    width: float
    peak: float


@dataclass
class World:
    scenario: Scenario
    trajectory: np.ndarray  # (n_iterations, 3) poses along the loop
    sites: list[GroundSite]
    path_length: float


@dataclass(frozen=True)
class LandmarkProposal:
    position: np.ndarray
    observations: np.ndarray  # (k, 2) int64 rows of (pose index, count), poses ascending
    kernel: ObservabilityKernel


@dataclass
class SortieDataset:
    """One traversal of the loop under a latent condition."""

    label: str
    condition: float
    poses: np.ndarray  # (n, 3) noisy trajectory
    proposals: list[LandmarkProposal]
    sensor_range: float
    observation_seed: int
    error_seed: int

    @property
    def n_iterations(self) -> int:
        return len(self.poses)

    def fingerprint(self) -> tuple:
        """Identity used to check that two runs localized the same dataset."""
        return (self.label, self.n_iterations, self.observation_seed, self.error_seed)


def _resample_loop(waypoints: list[tuple[float, float]], n: int) -> tuple[np.ndarray, float]:
    pts = np.asarray(waypoints, dtype=np.float64)
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    length = float(seg_len.sum())
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    s = np.linspace(0.0, length, n, endpoint=False)
    idx = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
    frac = (s - cum[idx]) / seg_len[idx]
    xy = closed[idx] + seg[idx] * frac[:, None]
    heading = np.arctan2(seg[idx, 1], seg[idx, 0])
    return np.column_stack([xy, heading]), length


def _point_on_loop(waypoints: list[tuple[float, float]], s: float) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(waypoints, dtype=np.float64)
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    i = min(int(np.searchsorted(cum, s, side="right")) - 1, len(seg) - 1)
    frac = (s - cum[i]) / seg_len[i]
    point = closed[i] + seg[i] * frac
    normal = np.array([-seg[i, 1], seg[i, 0]]) / seg_len[i]
    return point, normal


def generate_world(scenario: Scenario, seed: int) -> World:
    """Sample the landmark site field along the trajectory corridor.

    The number of sites is Poisson with mean density * path length; widths
    are log-uniform over the scenario's range, peaks uniform.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    trajectory, length = _resample_loop(scenario.waypoints, scenario.n_iterations)
    n_sites = int(rng.poisson(scenario.landmark_density * length))
    w_lo, w_hi = scenario.kernel_width_range
    p_lo, p_hi = scenario.kernel_peak_range
    sites = []
    for _ in range(n_sites):
        s = float(rng.uniform(0.0, length))
        point, normal = _point_on_loop(scenario.waypoints, s)
        offset = float(rng.uniform(-scenario.corridor_width / 2, scenario.corridor_width / 2))
        z = float(rng.uniform(0.0, 4.0))
        position = np.array([point[0] + normal[0] * offset, point[1] + normal[1] * offset, z])
        width = float(np.exp(rng.uniform(np.log(w_lo), np.log(w_hi))))
        peak = float(rng.uniform(p_lo, p_hi))
        base_center = float(rng.uniform(0.0, 1.0))
        sites.append(GroundSite(position, base_center, width, peak))
    return World(scenario, trajectory, sites, length)


def generate_sortie(world: World, condition: float, seed: int, label: str = "") -> SortieDataset:
    """One noisy traversal plus the landmark proposals a rich ingestion would add.

    Proposal kernels keep the site's width and peak but re-center near the
    sortie condition (normal spread recenter_sigma * width, so nearly all
    centers land within two widths of the condition).  A proposal's
    observations are a count of 1 for each trajectory pose within sensor
    range, as (pose index, 1) rows; a site seen from fewer than
    min_triangulation poses proposes nothing.
    """
    sc = world.scenario
    condition = wrap_condition(condition)
    rng = np.random.Generator(np.random.PCG64(seed))
    poses = world.trajectory.copy()
    poses[:, 0] += rng.normal(0.0, sc.odom_noise_xy, len(poses))
    poses[:, 1] += rng.normal(0.0, sc.odom_noise_xy, len(poses))
    poses[:, 2] = np.arctan2(
        np.sin(poses[:, 2] + rng.normal(0.0, sc.odom_noise_heading, len(poses))),
        np.cos(poses[:, 2] + rng.normal(0.0, sc.odom_noise_heading, len(poses))),
    )
    proposals: list[LandmarkProposal] = []
    if world.sites:
        site_pos = np.stack([s.position for s in world.sites])
        traj_xy0 = np.column_stack(
            [world.trajectory[:, 0], world.trajectory[:, 1], np.zeros(len(world.trajectory))]
        )
        d2 = ((site_pos[:, None, :] - traj_xy0[None, :, :]) ** 2).sum(axis=2)
        within = d2 <= sc.sensor_range * sc.sensor_range
        for i, site in enumerate(world.sites):
            yielded = rng.random() < sc.rich_yield
            center_offset = rng.normal(0.0, sc.recenter_sigma * site.width)
            if not yielded:
                continue
            pose_ids = np.flatnonzero(within[i])
            if len(pose_ids) < sc.min_triangulation:
                continue
            kernel = ObservabilityKernel(
                center=wrap_condition(condition + center_offset),
                width=site.width,
                peak=site.peak,
            )
            proposals.append(
                LandmarkProposal(
                    position=site.position.copy(),
                    observations=np.column_stack((pose_ids, np.ones_like(pose_ids))),
                    kernel=kernel,
                )
            )
    return SortieDataset(
        label=label,
        condition=condition,
        poses=poses,
        proposals=proposals,
        sensor_range=sc.sensor_range,
        observation_seed=derive_seed(seed, "observation"),
        error_seed=derive_seed(seed, "error"),
    )


def sortie_to_doc(ds: SortieDataset) -> dict:
    """JSON form of a sortie, the payload a vehicle uploads to the backend."""
    return {
        "label": ds.label,
        "condition": ds.condition,
        "poses": [[float(x) for x in p] for p in ds.poses],
        "sensor_range": ds.sensor_range,
        "observation_seed": ds.observation_seed,
        "error_seed": ds.error_seed,
        "proposals": [
            {
                "position": [float(x) for x in p.position],
                "observations": {str(k): c for k, c in p.observations.tolist()},
                "kernel": {
                    "center": p.kernel.center,
                    "width": p.kernel.width,
                    "peak": p.kernel.peak,
                },
            }
            for p in ds.proposals
        ],
    }


def _pose_counts(observations: list[Mapping]) -> list[np.ndarray]:
    """Each proposal's observations as (pose index, count) rows, poses ascending.

    All proposals are converted at once.  ValueError when a proposal names
    one pose twice ("1" and "01", say).
    """
    sizes = [len(obs) for obs in observations]
    poses = np.array([int(k) for obs in observations for k in obs], dtype=np.int64)
    counts = np.array([int(c) for obs in observations for c in obs.values()], dtype=np.int64)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((poses, owner))
    rows = np.column_stack((poses[order], counts[order]))
    if np.any((np.diff(rows[:, 0]) == 0) & (np.diff(owner) == 0)):
        raise ValueError("a proposal names one pose twice")
    ends = np.cumsum(sizes).tolist()
    return [rows[end - size : end] for size, end in zip(sizes, ends)]


def sortie_from_doc(doc: Mapping) -> SortieDataset:
    """Parse a sortie document; ValueError unless `poses` is a non-empty (n, 3)
    array and `condition` is finite."""
    poses = np.asarray(doc["poses"], dtype=np.float64)  # an empty list parses to shape (0,)
    if poses.ndim != 2 or poses.shape[1] != 3:
        raise ValueError(f"poses must be a non-empty (n, 3) array, got shape {poses.shape}")
    condition = float(doc["condition"])
    if not math.isfinite(condition):
        raise ValueError(f"condition must be finite, got {condition}")
    observations = _pose_counts([p["observations"] for p in doc["proposals"]])
    return SortieDataset(
        label=str(doc["label"]),
        condition=condition,
        poses=poses,
        proposals=[
            LandmarkProposal(
                position=np.asarray(p["position"], dtype=np.float64),
                observations=rows,
                kernel=ObservabilityKernel(
                    float(p["kernel"]["center"]),
                    float(p["kernel"]["width"]),
                    float(p["kernel"]["peak"]),
                ),
            )
            for p, rows in zip(doc["proposals"], observations)
        ],
        sensor_range=float(doc["sensor_range"]),
        observation_seed=int(doc["observation_seed"]),
        error_seed=int(doc["error_seed"]),
    )


# -- Built-in scenarios --


def _city_dusk() -> Scenario:
    jitter = [0.0, 0.003, -0.002, 0.004, -0.003]
    schedule = [
        SortieSpec(f"{13 + i}:00", wrap_condition(0.10 + jitter[i])) for i in range(5)
    ]
    schedule += [
        SortieSpec("17:15", 0.24),
        SortieSpec("17:30", 0.39),
        SortieSpec("17:43", 0.545),
        SortieSpec("18:00", 0.555),
        SortieSpec("18:30", 0.565),
    ]
    return Scenario(
        name="city_dusk",
        waypoints=[(0.0, 0.0), (120.0, 0.0), (120.0, 60.0), (0.0, 60.0)],
        n_iterations=200,
        landmark_density=2.8,
        corridor_width=8.0,
        kernel_width_range=(0.015, 0.09),
        kernel_peak_range=(0.35, 0.95),
        sensor_range=25.0,
        schedule=schedule,
        landmark_cap=3000,
    )


def _parking_year() -> Scenario:
    # First visit to a base sits at the high edge of its condition spread
    # (it becomes the rich session); revisits land on the far side, 0.05 to
    # 0.09 away, so their visible subsets genuinely differ.  Bases are at
    # least 0.18 apart, beyond any kernel's matchability horizon.
    rnd = random.Random(20250301)
    bases = [(0.05, 6), (0.32, 5), (0.50, 5), (0.68, 5), (0.86, 4)]
    schedule = []
    visit = 0
    for base, count in bases:
        for j in range(count):
            visit += 1
            offset = 0.045 if j == 0 else -rnd.uniform(0.005, 0.045)
            schedule.append(SortieSpec(f"visit {visit:02d}", wrap_condition(base + offset)))
    return Scenario(
        name="parking_year",
        waypoints=[(0.0, 0.0), (80.0, 0.0), (80.0, 70.0), (0.0, 70.0)],
        n_iterations=150,
        landmark_density=2.85,
        corridor_width=10.0,
        kernel_width_range=(0.015, 0.065),
        kernel_peak_range=(0.55, 0.95),
        sensor_range=25.0,
        schedule=schedule,
        landmark_cap=6000,
    )


def builtin_scenarios() -> dict[str, Scenario]:
    return {"city_dusk": _city_dusk(), "parking_year": _parking_year()}


def get_scenario(name_or_path: str) -> Scenario:
    scenarios = builtin_scenarios()
    if name_or_path in scenarios:
        return scenarios[name_or_path]
    if Path(name_or_path).exists():
        return load_scenario(name_or_path)
    raise ValueError(
        f"unknown scenario {name_or_path!r}; built-ins: {', '.join(sorted(scenarios))}"
    )


def with_overrides(sc: Scenario, **kw) -> Scenario:
    """A copy of the scenario with some fields replaced (cap, iterations, ...)."""
    return replace(sc, **kw)
