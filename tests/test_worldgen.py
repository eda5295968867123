"""Synthetic world generation: kernel math, determinism, serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atlas.rng import derive_seed
from atlas.worldgen import (
    _int64s,
    KERNEL_CUTOFF_WIDTHS,
    KernelTable,
    ObservabilityKernel,
    Scenario,
    SortieSpec,
    builtin_scenarios,
    circular_distance,
    detection_probabilities,
    generate_sortie,
    generate_world,
    get_scenario,
    kernels_from_doc,
    kernels_to_doc,
    load_kernels,
    load_scenario,
    save_kernels,
    sortie_from_doc,
    sortie_to_doc,
    with_overrides,
    wrap_condition,
)

from helpers import site_by_site_world, tiny_scenario


# -- circle geometry --


@pytest.mark.parametrize(
    "a,b,want",
    [
        (0.0, 0.0, 0.0),
        (0.1, 0.9, 0.2),  # wraps around the seam
        (0.0, 0.5, 0.5),
        (0.25, 0.75, 0.5),
        (0.9, 0.05, 0.15),
        (1.4, 0.1, 0.3),  # inputs beyond one turn still measure correctly
    ],
)
def test_circular_distance_cases(a, b, want):
    assert circular_distance(a, b) == pytest.approx(want, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5))
def test_circular_distance_symmetric_and_bounded(a, b):
    d = float(circular_distance(a, b))
    assert 0.0 <= d <= 0.5
    assert d == pytest.approx(float(circular_distance(b, a)), abs=1e-12)


def test_wrap_condition():
    assert wrap_condition(0.3) == 0.3
    assert wrap_condition(1.3) == pytest.approx(0.3)
    assert wrap_condition(-0.25) == pytest.approx(0.75)
    assert wrap_condition(2.0) == 0.0


# -- detection kernels --


def test_detection_probability_formula_and_truncation():
    k = ObservabilityKernel(center=0.5, width=0.1, peak=0.8)
    # at the center: exactly the peak
    assert k.p_detect(0.5) == pytest.approx(0.8)
    # one width away: peak * exp(-1/2)
    assert k.p_detect(0.6) == pytest.approx(0.8 * math.exp(-0.5), rel=1e-12)
    horizon = KERNEL_CUTOFF_WIDTHS * 0.1
    # just inside the horizon: still the Gaussian value
    inside = 0.5 + horizon - 1e-6
    want = 0.8 * math.exp(-((horizon - 1e-6) ** 2) / (2 * 0.1 ** 2))
    assert k.p_detect(inside) == pytest.approx(want, rel=1e-9)
    # just outside: hard zero, not a tiny tail
    assert k.p_detect(0.5 + horizon + 1e-6) == 0.0
    assert k.p_detect(0.5 - horizon - 1e-6) == 0.0


def test_detection_probabilities_vectorized_matches_scalar():
    kernels = [
        ObservabilityKernel(0.1, 0.05, 0.9),
        ObservabilityKernel(0.6, 0.2, 0.5),
        ObservabilityKernel(0.95, 0.03, 1.0),
    ]
    centers = np.array([k.center for k in kernels])
    widths = np.array([k.width for k in kernels])
    peaks = np.array([k.peak for k in kernels])
    for condition in (0.0, 0.12, 0.5, 0.93):
        vec = detection_probabilities(centers, widths, peaks, condition)
        assert vec == pytest.approx([k.p_detect(condition) for k in kernels], abs=1e-15)


def test_kernel_validation():
    with pytest.raises(ValueError):
        ObservabilityKernel(center=1.0, width=0.1, peak=0.5)
    with pytest.raises(ValueError):
        ObservabilityKernel(center=-0.1, width=0.1, peak=0.5)
    with pytest.raises(ValueError):
        ObservabilityKernel(center=0.5, width=0.0, peak=0.5)
    with pytest.raises(ValueError):
        ObservabilityKernel(center=0.5, width=0.1, peak=0.0)
    with pytest.raises(ValueError):
        ObservabilityKernel(center=0.5, width=0.1, peak=1.5)


def _kernel_arrays_by_loop(ids, kernels):
    """The per-id loop the table replaces: (0, 1, 0) for an id without a kernel."""
    centers, widths, peaks = np.zeros(len(ids)), np.ones(len(ids)), np.zeros(len(ids))
    for row, lid in enumerate(ids.tolist()):
        k = kernels.get(lid)
        if k is not None:
            centers[row], widths[row], peaks[row] = k.center, k.width, k.peak
    return centers, widths, peaks


def test_kernel_table_lookup_matches_per_id_loop():
    rng = np.random.default_rng(5)
    for n_kernels in (0, 1, 2, 40):
        known = rng.choice(np.arange(1, 200), size=n_kernels, replace=False)
        kernels = {
            int(lid): ObservabilityKernel(float(rng.uniform(0, 1)), float(rng.uniform(0.01, 0.2)),
                                          float(rng.uniform(0.1, 1.0)))
            for lid in rng.permutation(known)  # insertion order is not id order
        }
        table = KernelTable(kernels)
        for ids in (
            np.empty(0, dtype=np.int64),
            np.arange(0, 220, dtype=np.int64),  # below, among, between and above the known ids
            rng.integers(0, 220, size=50),  # unsorted, with repeats
            np.array([2**40, -1, 0], dtype=np.int64),
        ):
            got = table.lookup(ids)
            want = _kernel_arrays_by_loop(ids, kernels)
            for g, w in zip(got, want):
                assert g.dtype == np.float64 and g.tobytes() == w.tobytes()
            for condition in (0.0, 0.37, 0.9):
                assert np.array_equal(detection_probabilities(*got, condition),
                                      detection_probabilities(*want, condition))


@pytest.mark.parametrize("width", ["Infinity", "NaN"])
def test_non_finite_kernel_widths_are_refused(width):
    with pytest.raises(ValueError, match="width"):
        ObservabilityKernel(0.5, float(width), 0.5)
    doc = json.loads('{"1": {"center": 0.5, "width": %s, "peak": 0.5}}' % width)
    with pytest.raises(ValueError, match="width"):
        kernels_from_doc(doc)


def test_kernel_registry_round_trip(tmp_path):
    kernels = {
        7: ObservabilityKernel(0.25, 0.04, 0.9),
        2: ObservabilityKernel(0.8, 0.11, 0.45),
    }
    doc = kernels_to_doc(kernels)
    assert list(doc) == ["2", "7"]  # sorted, string keys for JSON
    assert kernels_from_doc(doc) == kernels
    path = tmp_path / "kernels.json"
    save_kernels(kernels, path)
    assert load_kernels(path) == kernels


# -- world generation --


def test_generate_world_deterministic():
    sc = tiny_scenario()
    a = generate_world(sc, seed=42)
    b = generate_world(sc, seed=42)
    assert np.array_equal(a.trajectory, b.trajectory)
    assert len(a.sites) == len(b.sites)
    for sa, sb in zip(a.sites, b.sites):
        assert np.array_equal(sa.position, sb.position)
        assert (sa.base_center, sa.width, sa.peak) == (sb.base_center, sb.width, sb.peak)
    c = generate_world(sc, seed=43)
    assert len(c.sites) != len(a.sites) or not np.array_equal(
        np.stack([s.position for s in c.sites]), np.stack([s.position for s in a.sites])
    )


@pytest.mark.parametrize("scenario", [
    # slanted segments, on some of which atan2 of the normalized vector is one ulp off
    tiny_scenario(waypoints=[(0.0, 0.0), (18.6, 15.0), (41.6, -17.4), (51.0, -33.6)]),
    tiny_scenario(),
    get_scenario("city_dusk"),
], ids=["slanted", "tiny", "city_dusk"])
def test_generate_world_equals_the_site_by_site_oracle_bit_for_bit(scenario):
    for seed in range(5):
        got, want = generate_world(scenario, seed), site_by_site_world(scenario, seed)
        assert got.path_length == want.path_length
        assert got.trajectory.tobytes() == want.trajectory.tobytes()
        assert len(got.sites) == len(want.sites)
        assert got.site_positions.tobytes() == want.site_positions.tobytes()
        assert [(a.base_center, a.width, a.peak) for a in got.sites] == \
            [(b.base_center, b.width, b.peak) for b in want.sites]


def test_generate_world_shapes_and_ranges():
    sc = tiny_scenario()
    world = generate_world(sc, seed=1)
    assert world.trajectory.shape == (sc.n_iterations, 3)
    assert world.path_length == pytest.approx(2 * (30.0 + 20.0))
    mean_sites = sc.landmark_density * world.path_length
    assert 0.5 * mean_sites <= len(world.sites) <= 1.5 * mean_sites
    w_lo, w_hi = sc.kernel_width_range
    p_lo, p_hi = sc.kernel_peak_range
    for site in world.sites:
        assert 0.0 <= site.base_center < 1.0
        assert w_lo <= site.width <= w_hi
        assert p_lo <= site.peak <= p_hi
        assert 0.0 <= site.position[2] <= 4.0
    assert np.all(np.abs(world.trajectory[:, 2]) <= math.pi)


def test_generate_sortie_deterministic_and_well_formed():
    sc = tiny_scenario()
    world = generate_world(sc, seed=5)
    a = generate_sortie(world, 0.3, seed=9, label="x")
    b = generate_sortie(world, 0.3, seed=9, label="x")
    assert np.array_equal(a.poses, b.poses)
    assert len(a.proposals) == len(b.proposals)
    assert a.observation_seed == b.observation_seed == derive_seed(9, "observation")
    assert a.error_seed == derive_seed(9, "error")
    assert a.observation_seed != a.error_seed
    assert a.condition == 0.3
    assert a.poses.shape == world.trajectory.shape
    props = a.proposals
    assert props.positions.shape == props.kernels.shape == (len(props), 3)
    assert props.observations.dtype == np.int64
    rows, poses, counts = props.observations.T
    assert np.all(np.bincount(rows, minlength=len(props)) >= sc.min_triangulation)
    same_row = np.diff(rows) == 0
    assert np.all(np.diff(rows) >= 0) and np.all(np.diff(poses)[same_row] > 0)  # sorted, distinct
    assert np.all((0 <= poses) & (poses < sc.n_iterations))
    assert np.all(counts == 1)
    # triangulated near the encountering condition
    centers, widths, _ = props.kernels.T
    assert np.all(circular_distance(centers, 0.3) <= 4 * widths + 1e-9)
    # different sortie seed shifts the odometry noise
    c = generate_sortie(world, 0.3, seed=10, label="x")
    assert not np.array_equal(a.poses, c.poses)


def test_world_visibility_is_computed_once_and_read_by_every_sortie():
    sc = tiny_scenario()
    world = generate_world(sc, seed=5)
    table = world.visibility
    sites = np.stack([s.position for s in world.sites])
    lifted = np.column_stack([world.trajectory[:, :2], np.zeros(len(world.trajectory))])
    d2 = ((sites[:, None, :] - lifted[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(table, d2 <= sc.sensor_range * sc.sensor_range)
    assert np.array_equal(world.site_positions, sites)
    for seed in (9, 10):
        ds = generate_sortie(world, 0.3, seed=seed)
        assert world.visibility is table
        # each proposal's site, then the poses that see it
        site = (sites[:, None] == ds.proposals.positions[None]).all(axis=2).argmax(axis=0)
        assert np.array_equal(ds.proposals.observations[:, :2].T, np.nonzero(table[site]))
    # A sortie reads the cached table: with every site hidden it proposes nothing.
    world.__dict__["visibility"] = np.zeros_like(table)
    assert len(generate_sortie(world, 0.3, seed=9).proposals) == 0


def test_generate_sortie_wraps_condition():
    world = generate_world(tiny_scenario(), seed=5)
    ds = generate_sortie(world, 1.3, seed=1)
    assert ds.condition == pytest.approx(0.3)


def test_sortie_doc_round_trip():
    world = generate_world(tiny_scenario(), seed=5)
    ds = generate_sortie(world, 0.42, seed=8, label="upload me")
    doc = sortie_to_doc(ds)
    again = sortie_from_doc(doc)
    assert again.fingerprint() == ds.fingerprint()
    assert np.array_equal(again.poses, ds.poses)
    assert again.condition == ds.condition
    assert again.sensor_range == ds.sensor_range
    assert len(again.proposals) == len(ds.proposals)
    for column in ("positions", "observations", "kernels"):
        a, b = getattr(again.proposals, column), getattr(ds.proposals, column)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    # the doc is JSON-serializable as-is
    json.dumps(doc)


def int_reference(values: list):
    """np.array([int(v) for v in values], dtype=np.int64), or the exception type it raises."""
    try:
        return np.array([int(v) for v in values], dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        return type(exc)


key_texts = st.text(alphabet="0123456789-+ \t\n_.,e[]\u0663\u00a0x", max_size=6) | st.sampled_from(
    ["9223372036854775807", "9223372036854775808", "-9223372036854775808", "1" * 30, "00", "-0",
     "true", "false", "null", "1.0", "NaN"]
)
document_values = st.lists(
    st.one_of(key_texts, st.integers(-(2**64), 2**64), st.booleans(), st.floats(-1e20, 1e20),
              st.none(), st.lists(st.integers(0, 3), max_size=2)),
    max_size=6,
)


@settings(max_examples=400, deadline=None)
@given(st.lists(key_texts, max_size=8) | st.lists(st.integers(-(2**64), 2**64), max_size=8)
       | document_values)
def test_int64s_reads_values_as_int_does(values):
    want = int_reference(values)
    if isinstance(want, type):
        with pytest.raises(want):
            _int64s(values)
    else:
        got = _int64s(values)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


# -- scenarios --


def test_scenario_doc_round_trip(tmp_path):
    sc = tiny_scenario()
    doc = sc.to_doc()
    again = Scenario.from_doc(doc)
    assert again == sc
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert load_scenario(path) == sc
    assert get_scenario(str(path)) == sc


def test_builtin_scenarios_structure():
    scenarios = builtin_scenarios()
    assert set(scenarios) == {"city_dusk", "parking_year"}
    city = scenarios["city_dusk"]
    assert len(city.schedule) == 10
    conditions = [s.condition for s in city.schedule]
    # five near-identical daytime passes, a fast sweep, then a stable tail
    assert all(circular_distance(c, 0.10) < 0.01 for c in conditions[:5])
    sweep_steps = np.diff(conditions[4:8])
    assert np.all(sweep_steps > 0.1)
    assert abs(conditions[9] - conditions[8]) < 0.02
    parking = scenarios["parking_year"]
    assert len(parking.schedule) == 25
    assert city.landmark_cap < 2 ** 62 and parking.landmark_cap < 2 ** 62


def test_get_scenario_names_and_errors():
    assert get_scenario("city_dusk").name == "city_dusk"
    assert get_scenario("parking_year").name == "parking_year"
    with pytest.raises(ValueError):
        get_scenario("no_such_place")


def test_with_overrides():
    sc = tiny_scenario()
    out = with_overrides(sc, landmark_cap=7, threshold_m=0.2)
    assert out.landmark_cap == 7 and out.threshold_m == 0.2
    assert sc.landmark_cap == 5000  # original untouched
    assert out.schedule == sc.schedule


def test_default_policy_grid_covers_rankings_and_ratios():
    sc = Scenario(
        name="d",
        waypoints=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
        n_iterations=10,
        landmark_density=0.1,
        corridor_width=1.0,
        kernel_width_range=(0.05, 0.1),
        kernel_peak_range=(0.5, 0.9),
        sensor_range=5.0,
        schedule=[SortieSpec("a", 0.1)],
    )
    assert len(sc.policy_grid) == 9
    assert "class_ratio@0.2" in sc.policy_grid
    assert "random@0.4" in sc.policy_grid


def test_scenario_doc_with_only_required_fields_takes_the_defaults():
    sc = Scenario(
        name="d",
        waypoints=[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0)],
        n_iterations=10,
        landmark_density=0.1,
        corridor_width=1.0,
        kernel_width_range=(0.05, 0.1),
        kernel_peak_range=(0.5, 0.9),
        sensor_range=5.0,
        schedule=[SortieSpec("a", 0.1)],
    )
    required = {
        "name", "waypoints", "n_iterations", "landmark_density", "corridor_width",
        "kernel_width_range", "kernel_peak_range", "sensor_range", "schedule",
    }
    doc = json.loads(json.dumps({k: v for k, v in sc.to_doc().items() if k in required}))
    assert Scenario.from_doc(doc) == sc
