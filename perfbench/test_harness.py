"""Self-tests of the benchmark harness.

Run from the root of a checkout with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from measure import beyond, digest, nearest_rank, tail_percentile  # noqa: E402
from tracer import Tracer, aggregate, merge  # noqa: E402


def test_self_time_of_nested_spans():
    # pass [0, 10] > a [1, 6] > b [2, 3], b [4, 5.5]; pass > c [7, 9]
    names = ["pass", "a", "b", "c"]
    spans = [
        [0, 0.0, 10.0, -1, 1],
        [1, 1.0, 6.0, 0, 2],
        [2, 2.0, 3.0, 1, 2],
        [2, 4.0, 5.5, 1, 2],
        [3, 7.0, 9.0, 0, 3],
    ]
    agg = aggregate(names, spans)
    assert agg["pass"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert agg["a"] == {"calls": 1, "s": 5.0, "self_s": 2.5}
    assert agg["b"] == {"calls": 2, "s": 2.5, "self_s": 2.5}
    assert agg["c"] == {"calls": 1, "s": 2.0, "self_s": 2.0}
    assert sum(r["self_s"] for r in agg.values()) == pytest.approx(10.0)
    doubled = merge(agg, agg)
    assert doubled["b"] == {"calls": 4, "s": 5.0, "self_s": 5.0}


def test_tracer_nests_spans_and_shares_request_ids():
    t = Tracer()
    root = t.open("pass", harness=True)
    a = t.open("a")
    b = t.open("b")
    t.close(b)
    t.close(a)
    c = t.open("c")
    t.close(c)
    t.close(root)
    (_, _, _, p_root, r_root), (_, _, _, p_a, r_a), (_, _, _, p_b, r_b), (_, _, _, p_c, r_c) = t.spans
    assert (p_root, p_a, p_b, p_c) == (-1, root, a, root)
    assert r_a == r_b != r_c  # b belongs to a's request, c starts its own
    agg = aggregate(t.names, t.spans)
    assert sum(r["self_s"] for r in agg.values()) == pytest.approx(agg["pass"]["s"], abs=1e-9)
    with pytest.raises(RuntimeError):
        t.close(t.open("x") - 1)


def test_percentile_rule_keeps_ten_samples_beyond():
    assert beyond(2000, 99.0) == 20
    assert tail_percentile(list(range(2000)))[:1] == (99.0,)
    assert tail_percentile(list(range(999)))[0] == 90.0  # p99 would leave only 9
    assert tail_percentile(list(range(1000)))[0] == 99.0
    assert tail_percentile(list(range(20)))[0] == 50.0
    p, value, n = tail_percentile(list(range(19)))
    assert p is None and n == 19
    samples = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert nearest_rank(samples, 50) == 3.0
    assert nearest_rank(samples, 100) == 5.0


def test_wrappers_are_removed_and_originals_restored():
    from atlas import experiment, locsim, mapcore, server

    before = (experiment.localize_dataset, locsim.uniform01,
              vars(mapcore.MultiSessionMap)["copy"], vars(server.MapBackend)["_query"])
    t = Tracer()
    layers.install(t)
    assert experiment.localize_dataset is not before[0]
    assert t.restore() == []
    after = (experiment.localize_dataset, locsim.uniform01,
             vars(mapcore.MultiSessionMap)["copy"], vars(server.MapBackend)["_query"])
    assert all(x is y for x, y in zip(before, after))


def _tiny_run(out: Path, tracer: Tracer | None = None) -> dict[str, str]:
    """``atlas run`` on a three-sortie, 20-pose city scenario; digests of its CSVs."""
    import contextlib
    import io

    from atlas import cli
    from atlas.worldgen import get_scenario, with_overrides

    base = get_scenario("city_dusk")
    sc = with_overrides(base, n_iterations=20, schedule=base.schedule[:3],
                        policy_grid=["class_ratio@0.2"])
    out.mkdir()
    path = out / "tiny.json"
    path.write_text(json.dumps(sc.to_doc()))
    with contextlib.redirect_stdout(io.StringIO()):
        span = tracer.open("pass", harness=True) if tracer else None
        code = cli.main(["run", "--scenario", str(path), "--out", str(out / "run")])
        if tracer:
            tracer.close(span)
    assert code == 0
    return {n: digest((out / "run" / n).read_bytes()) for n in ("metrics.csv", "composition.csv")}


def test_digests_stable_across_in_process_runs_and_under_tracing(tmp_path):
    first = _tiny_run(tmp_path / "a")
    second = _tiny_run(tmp_path / "b")
    assert first == second
    t = Tracer()
    layers.install(t)
    try:
        traced = _tiny_run(tmp_path / "c", t)
    finally:
        assert t.restore() == []
    assert traced == first
    agg = aggregate(t.names, t.spans)
    assert agg["locsim.localize"]["calls"] > 0
    assert sum(r["self_s"] for r in agg.values()) == pytest.approx(agg["pass"]["s"], abs=1e-6)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == ["city_grid", "parking_gap", "fleet_loopback"]
    assert {m["name"] for m in doc["end_to_end"]} == {"setup_s", "cpu_s_per_sortie", "peak_rss_mb"}
    assert doc["paths"] == ["perfbench"]
