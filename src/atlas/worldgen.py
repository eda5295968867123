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
ingestion, as one block of columns (`Proposals`): a proposal reuses the
site's position, width, and peak, but its kernel is re-centered near the
sortie's condition, modeling that a feature tracked and triangulated
today is matchable under conditions similar to today's.
The same site can therefore be mapped several times under different
conditions as distinct landmarks, which is how real feature maps grow
until summarization prunes them.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from itertools import chain
from operator import attrgetter, itemgetter, methodcaller
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from atlas.mapcore import UNBOUNDED_CAP, check_new_landmarks
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


def _kernel_bounds_error(lo, hi) -> str | None:
    """The bound broken by kernels whose smallest (center, width, peak) is lo
    and largest is hi, or None.

    Each kernel needs its center in [0, 1), a finite positive width and its
    peak in (0, 1].  A NaN breaks every bound, since no comparison with it
    holds.
    """
    if not (0.0 <= lo[0] and hi[0] < 1.0):
        return "kernel center must be in [0, 1)"
    if not (0.0 < lo[1] and hi[1] < math.inf):
        return "kernel width must be finite and positive"
    if not (0.0 < lo[2] and hi[2] <= 1.0):
        return "kernel peak must be in (0, 1]"
    return None


def check_kernels(params) -> np.ndarray:
    """The (center, width, peak) rows as an (n, 3) float64 array; ValueError
    unless each has its center in [0, 1), a finite positive width and its
    peak in (0, 1].  A NaN fails: it propagates into the column extremes."""
    rows = np.asarray(params, dtype=np.float64).reshape(-1, 3)
    error = _kernel_bounds_error(
        rows.min(axis=0, initial=math.inf).tolist(), rows.max(axis=0, initial=-math.inf).tolist()
    )
    if error:
        raise ValueError(error)
    return rows


@dataclass(frozen=True)
class ObservabilityKernel:
    """Truncated Gaussian detection-probability bump on the appearance circle."""

    center: float
    width: float
    peak: float

    def __post_init__(self) -> None:
        row = (float(self.center), float(self.width), float(self.peak))
        error = _kernel_bounds_error(row, row)
        if error:
            raise ValueError(error)

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

    def columns(self, ids: np.ndarray) -> np.ndarray:
        """The column of params of each given landmark id, in input order."""
        ids = np.asarray(ids, dtype=np.int64)
        cols = np.searchsorted(self.ids, ids)
        known = cols < len(self.ids)
        known[known] = self.ids[cols[known]] == ids[known]
        cols[~known] = len(self.ids)
        return cols

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers, widths, peaks) of the given landmark ids, in input order."""
        centers, widths, peaks = self.params[:, self.columns(ids)]
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
        """Every field, in field order, as JSON-ready values."""
        return asdict(self) | {"waypoints": [[float(x), float(y)] for x, y in self.waypoints]}

    @classmethod
    def from_doc(cls, doc: Mapping) -> "Scenario":
        """Parse a scenario document; an optional field it omits keeps the dataclass default."""
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
            **{key: parse(doc[key]) for key, parse in _OPTIONAL_FIELDS.items() if key in doc},
        )


# How Scenario.from_doc parses the optional fields a document gives.
_OPTIONAL_FIELDS = {
    "landmark_cap": int,
    "threshold_m": float,
    "rich_yield": float,
    "recenter_sigma": float,
    "odom_noise_xy": float,
    "odom_noise_heading": float,
    "min_triangulation": int,
    "policy_grid": list,
}


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

    @cached_property
    def site_positions(self) -> np.ndarray:
        """(n_sites, 3) site positions, in site order; computed once, read-only."""
        positions = np.array([s.position for s in self.sites]).reshape(-1, 3)
        positions.flags.writeable = False
        return positions

    @cached_property
    def visibility(self) -> np.ndarray:
        """(site, trajectory pose) table: whether the site lies within sensor
        range (inclusive) of the noise-free pose lifted to z = 0.

        Depends on the world alone, so it is computed once and read-only.
        """
        poses = np.column_stack([self.trajectory[:, :2], np.zeros(len(self.trajectory))])
        d2 = ((self.site_positions[:, None, :] - poses[None, :, :]) ** 2).sum(axis=2)
        within = d2 <= self.scenario.sensor_range * self.scenario.sensor_range
        within.flags.writeable = False
        return within


@dataclass(frozen=True)
class Proposals:
    """The landmarks a sortie proposes for rich ingestion, as one block of columns.

    Row j of `positions` (n, 3) and of `kernels` (n, 3: center, width, peak)
    is proposal j.  `observations` holds int64 (proposal row, pose index,
    count) rows sorted by row, then pose: the new_observations that
    `MultiSessionMap.add_rich_session` takes.
    """

    positions: np.ndarray
    observations: np.ndarray
    kernels: np.ndarray

    def __len__(self) -> int:
        return len(self.positions)


NO_PROPOSALS = Proposals(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64), np.empty((0, 3)))


def add_kernels(
    kernels: KernelRegistry, landmark_ids: Iterable[int], rows: Iterable[int], proposals: Proposals
) -> None:
    """Register for landmark_ids[j] the kernel of proposal rows[j], the proposal it was made from."""
    params = proposals.kernels[np.fromiter(rows, dtype=np.int64)].tolist()
    for lid, (center, width, peak) in zip(landmark_ids, params, strict=True):
        kernels[int(lid)] = ObservabilityKernel(center, width, peak)


@dataclass
class SortieDataset:
    """One traversal of the loop under a latent condition."""

    label: str
    condition: float
    poses: np.ndarray  # (n, 3) noisy trajectory
    proposals: Proposals
    sensor_range: float
    observation_seed: int
    error_seed: int

    @property
    def n_iterations(self) -> int:
        return len(self.poses)

    def fingerprint(self) -> tuple:
        """Identity used to check that two runs localized the same dataset."""
        return (self.label, self.n_iterations, self.observation_seed, self.error_seed)


def _loop_segments(waypoints: list[tuple[float, float]]) -> tuple[np.ndarray, ...]:
    """The closed loop through the waypoints: each segment's start point,
    vector and length, and the arc length at each start (then the total)."""
    pts = np.asarray(waypoints, dtype=np.float64)
    closed = np.vstack([pts, pts[:1]])
    seg = np.diff(closed, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    return closed[:-1], seg, seg_len, np.concatenate(([0.0], np.cumsum(seg_len)))


def _on_loop(loop: tuple[np.ndarray, ...], s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, 2) points at arc lengths s along the loop, with the vector and
    length of the segment each one lies on."""
    start, seg, seg_len, cum = loop
    idx = np.minimum(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
    frac = (s - cum[idx]) / seg_len[idx]
    return start[idx] + seg[idx] * frac[:, None], seg[idx], seg_len[idx]


def generate_world(scenario: Scenario, seed: int) -> World:
    """Sample the landmark site field along the trajectory corridor.

    The number of sites is Poisson with mean density * path length; widths
    are log-uniform over the scenario's range, peaks uniform.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    loop = _loop_segments(scenario.waypoints)
    length = float(loop[2].sum())
    xy, seg, _ = _on_loop(loop, np.linspace(0.0, length, scenario.n_iterations, endpoint=False))
    trajectory = np.column_stack([xy, np.arctan2(seg[:, 1], seg[:, 0])])
    n_sites = int(rng.poisson(scenario.landmark_density * length))
    w_lo, w_hi = scenario.kernel_width_range
    p_lo, p_hi = scenario.kernel_peak_range
    half = scenario.corridor_width / 2
    # Per site, in site order: arc length, corridor offset, height, log width,
    # peak, base center; one array draw takes them from the stream in that order.
    low = [0.0, -half, 0.0, np.log(w_lo), p_lo, 0.0]
    high = [length, half, 4.0, np.log(w_hi), p_hi, 1.0]
    s, offset, z, log_width, peaks, centers = rng.uniform(low, high, size=(n_sites, 6)).T
    point, seg, seg_len = _on_loop(loop, s)
    normal = np.column_stack([-seg[:, 1], seg[:, 0]]) / seg_len[:, None]
    positions = np.column_stack([point + normal * offset[:, None], z])
    sites = [
        GroundSite(position, center, width, peak)
        for position, center, width, peak in zip(
            positions, centers.tolist(), np.exp(log_width).tolist(), peaks.tolist())
    ]
    return World(scenario, trajectory, sites, length)


def generate_sortie(world: World, condition: float, seed: int, label: str = "") -> SortieDataset:
    """One noisy traversal plus the landmark proposals a rich ingestion would add.

    Proposal kernels keep the site's width and peak but re-center near the
    sortie condition (normal spread recenter_sigma * width, so nearly all
    centers land within two widths of the condition).  A proposal's
    observations are a count of 1 for each trajectory pose within sensor
    range; a site seen from fewer than min_triangulation poses proposes
    nothing.
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
    within = world.visibility
    n_seen = within.sum(axis=1)
    chosen, kernels = [], []
    for i, site in enumerate(world.sites):
        yielded = rng.random() < sc.rich_yield
        center_offset = rng.normal(0.0, sc.recenter_sigma * site.width)
        if yielded and n_seen[i] >= sc.min_triangulation:
            chosen.append(i)
            kernels.append((wrap_condition(condition + center_offset), site.width, site.peak))
    rows, pose_ids = np.nonzero(within[chosen])  # row-major: by row, then pose
    return SortieDataset(
        label=label,
        condition=condition,
        poses=poses,
        proposals=Proposals(
            world.site_positions[chosen],
            np.column_stack((rows, pose_ids, np.ones_like(pose_ids))),
            np.array(kernels, dtype=np.float64).reshape(-1, 3),
        ),
        sensor_range=sc.sensor_range,
        observation_seed=derive_seed(seed, "observation"),
        error_seed=derive_seed(seed, "error"),
    )


def sortie_to_doc(ds: SortieDataset) -> dict:
    """JSON form of a sortie, the payload a vehicle uploads to the backend."""
    obs = ds.proposals.observations
    bounds = np.searchsorted(obs[:, 0], np.arange(len(ds.proposals) + 1)).tolist()
    poses, counts = obs[:, 1].tolist(), obs[:, 2].tolist()
    return {
        "label": ds.label,
        "condition": ds.condition,
        "poses": [[float(x) for x in p] for p in ds.poses],
        "sensor_range": ds.sensor_range,
        "observation_seed": ds.observation_seed,
        "error_seed": ds.error_seed,
        "proposals": [
            {
                "position": position,
                "observations": {str(k): c for k, c in zip(poses[lo:hi], counts[lo:hi])},
                "kernel": {"center": center, "width": width, "peak": peak},
            }
            for position, (center, width, peak), lo, hi in zip(
                ds.proposals.positions.tolist(), ds.proposals.kernels.tolist(), bounds, bounds[1:]
            )
        ],
    }


# What a JSON list of integer literals holds inside its brackets.
_INTEGER_LIST_BYTES = b"0123456789-, \t\n\r"


def _int64s(values: list) -> np.ndarray:
    """np.array([int(v) for v in values], dtype=np.int64), read in C where
    that gives the same: ints (or bools) as they are, and strings (the keys
    of a decoded document) that are one JSON integer literal each, read as
    one JSON array.  Anything else goes through int() itself.
    """
    column = None
    try:
        text = ",".join(values)
    except TypeError:  # not all str
        try:
            column = np.array(values)
        except ValueError:  # ragged
            pass
    else:
        if text.isascii() and not text.encode().translate(None, _INTEGER_LIST_BYTES):
            try:
                column = np.array(json.loads(f"[{text}]"))
            except ValueError:  # not JSON
                pass
    # An int64 column of len(values) holds one int (or bool) per value.  Read
    # from strings, each string held one literal: a comma in one would make
    # the column longer, and an empty one is not JSON.
    if column is not None and column.dtype == np.int64 and column.shape == (len(values),):
        return column
    return np.array(list(map(int, values)), dtype=np.int64)


def _pose_counts(observations: list[Mapping]) -> np.ndarray:
    """The proposals' observations as int64 (proposal row, pose index, count)
    rows sorted by row, then pose; each key and count is read as by int().

    ValueError when a proposal names one pose twice ("1" and "01", say).
    """
    sizes = np.fromiter(map(len, observations), dtype=np.int64, count=len(observations))
    poses = _int64s(list(chain.from_iterable(observations)))
    counts = _int64s(list(chain.from_iterable(map(methodcaller("values"), observations))))
    rows = np.repeat(np.arange(len(observations)), sizes)
    order = np.lexsort((poses, rows))
    triples = np.column_stack((rows, poses[order], counts[order]))  # rows already ascend
    if np.any((np.diff(triples[:, 1]) == 0) & (np.diff(rows) == 0)):
        raise ValueError("a proposal names one pose twice")
    return triples


def sortie_from_doc(doc: Mapping) -> SortieDataset:
    """Parse a sortie document; ValueError unless `poses` is a non-empty, finite
    (n, 3) array, `condition` is finite, `sensor_range` is finite and not
    negative, and every proposal passes check_new_landmarks and check_kernels,
    whatever update the sortie later becomes.

    `proposals` is a list of proposal objects, or a Proposals block that
    sortie_from_json read as columns."""
    poses = np.asarray(doc["poses"], dtype=np.float64)  # an empty list parses to shape (0,)
    if poses.ndim != 2 or poses.shape[1] != 3 or not np.isfinite(poses).all():
        raise ValueError(f"poses must be a non-empty, finite (n, 3) array, got shape {poses.shape}")
    condition = float(doc["condition"])
    if not math.isfinite(condition):
        raise ValueError(f"condition must be finite, got {condition}")
    sensor_range = float(doc["sensor_range"])
    if not (math.isfinite(sensor_range) and sensor_range >= 0):
        raise ValueError(f"sensor_range must be finite and non-negative, got {sensor_range}")
    proposals = doc["proposals"]
    if isinstance(proposals, Proposals):
        positions, observations = check_new_landmarks(
            len(poses), proposals.positions, proposals.observations)
        kernels = check_kernels(proposals.kernels)
    else:
        positions, observations = check_new_landmarks(
            len(poses),
            list(map(itemgetter("position"), proposals)),
            _pose_counts(list(map(itemgetter("observations"), proposals))),
        )
        kernels = check_kernels(
            list(map(itemgetter("center", "width", "peak"), map(itemgetter("kernel"), proposals)))
        )
    return SortieDataset(
        label=str(doc["label"]),
        condition=condition,
        poses=poses,
        proposals=Proposals(positions, observations, kernels),
        sensor_range=sensor_range,
        observation_seed=int(doc["observation_seed"]),
        error_seed=int(doc["error_seed"]),
    )


# The layout client.sortie_json writes.  A number or a seed is any run of
# the bytes a JSON number is made of, which json.loads then reads or
# refuses; pose keys and counts are JSON integers of at most 18 digits, so
# each fits an int64.
_LAYOUT_TERMS = {
    b"number": rb"[-+.eE0-9]+",
    b"integer": rb"-?[0-9]+",
    b"small": rb"(?:0|[1-9][0-9]{0,17})",
}
_LAYOUT_TERMS[b"xyz"] = b",".join([_LAYOUT_TERMS[b"number"]] * 3)
# Groups: condition, error_seed, label, observation_seed, poses, proposals, sensor_range.
_SORTIE = re.compile(
    rb'\{"condition":(%(number)b),"error_seed":(%(integer)b),"label":"([^"\\\x00-\x1f]*)",'
    rb'"observation_seed":(%(integer)b),"poses":\[(\[%(xyz)b\](?:,\[%(xyz)b\])*)\],'
    rb'"proposals":\[(.*)\],"sensor_range":(%(number)b)\}' % _LAYOUT_TERMS,
    re.DOTALL,
)
# One proposal, with the comma that follows it unless it is the last.
# Groups: center, peak, width, observations, position.
_PROPOSAL = re.compile(
    rb'\{"kernel":\{"center":(%(number)b),"peak":(%(number)b),"width":(%(number)b)\},'
    rb'"observations":\{((?:"%(small)b":%(small)b,)*"%(small)b":%(small)b)\},'
    rb'"position":\[(%(xyz)b)\]\}(?:,(?=\{)|\Z)' % _LAYOUT_TERMS
)
# The bytes of a proposal outside its groups and its comma.
_PROPOSAL_FRAME = len(b'{"kernel":{"center":,"peak":,"width":},"observations":{},"position":[]}')
_KEYS_AND_COUNTS = bytes.maketrans(b":", b",")


def sortie_from_json(text: bytes | memoryview) -> SortieDataset | None:
    """The sortie of a text in the layout client.sortie_json writes, read
    straight into columns: what sortie_from_doc(json.loads(text)) returns.

    Every number and seed is read by json.loads from its own text, and pose
    keys and counts as int64.  None for any other text (an escape in the
    label, a key or count with a leading zero or over 18 digits, a pose named
    twice in one proposal, a NaN, spacing, another key order, ...) and for
    a sortie that sortie_from_doc refuses: the caller then reads the text
    as JSON and hands the document to sortie_from_doc, which gives the verdict.
    """
    head = _SORTIE.fullmatch(text)
    if head is None:
        return None
    start, end = head.span(6)
    found = _PROPOSAL.findall(text, start, end)
    # The matches tile the proposals' text: their bytes, one comma between
    # each two included, add up to all of it.
    matched = sum(map(len, chain.from_iterable(found))) + (_PROPOSAL_FRAME + 1) * len(found)
    if matched != end - start + (end > start):
        return None
    centers, peaks, widths, observations, positions = zip(*found) if found else ((),) * 5
    try:
        label = head[3].decode("utf-8")
        # Not UTF-8, not a JSON number, or an integer of over 4300 digits: ValueError.
        condition, sensor_range, observation_seed, error_seed, poses, kernels, xyz = json.loads(
            b"[%b,%b,%b,%b,[%b],[%b],[%b]]" % (
                head[1], head[7], head[4], head[2], head[5],
                b",".join(chain.from_iterable(zip(centers, widths, peaks))), b",".join(positions),
            )
        )
        kernels = np.array(kernels, dtype=np.float64).reshape(-1, 3)
        xyz = np.array(xyz, dtype=np.float64).reshape(-1, 3)
    except (OverflowError, ValueError):
        return None
    keys, counts = np.fromstring(
        b",".join(observations).translate(_KEYS_AND_COUNTS, b'"'), dtype=np.int64, sep=","
    ).reshape(-1, 2).T
    sizes = np.fromiter(map(methodcaller("count", b":"), observations), dtype=np.int64, count=len(found))
    if keys.max(initial=0) >= len(poses):
        return None  # a pose out of range, which sortie_from_doc refuses
    rows = np.repeat(np.arange(len(found)), sizes)
    order = np.argsort(rows * len(poses) + keys, kind="stable")
    triples = np.column_stack((rows, keys[order], counts[order]))  # rows already ascend
    if np.any((np.diff(triples[:, 1]) == 0) & (np.diff(rows) == 0)):
        return None  # json.loads keeps the last count of a pose a proposal names twice
    doc = {"label": label, "condition": condition, "poses": poses, "sensor_range": sensor_range,
           "observation_seed": observation_seed, "error_seed": error_seed,
           "proposals": Proposals(xyz, triples, kernels)}
    try:
        return sortie_from_doc(doc)
    except (OverflowError, ValueError):
        return None


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
