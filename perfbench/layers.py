"""Which atlas names the traced run wraps, and the per-layer metrics it reports.

Each wrapper sits on the name its caller looks up: ``experiment`` calls
``localize_dataset`` through its own module global, the server calls
``process_sortie`` through ``atlas.server``, and so on, so every call on a
workload's path passes through exactly one wrapper.  The same table is
installed in the benchmark process and in the traced server process; a
name a process never calls costs nothing.
"""

from __future__ import annotations

from tracer import Tracer

# (name, unit) in the order BENCHMARK.json lists them.  A layer a workload
# never enters reports 0 calls and 0 s; diagnostics not taken report 0 with
# a sample count of 0 in the provenance record.
PER_LAYER: list[tuple[str, str]] = [
    ("locsim.localize.calls", "count"),
    ("locsim.localize.iterations", "count"),
    ("locsim.localize.self_s", "s"),
    ("locsim.process_sortie.calls", "count"),
    ("locsim.process_sortie.self_s", "s"),
    ("rng.uniform01.calls", "count"),
    ("rng.uniform01.s", "s"),
    ("rng.hash_stream.calls", "count"),
    ("rng.hash_stream.s", "s"),
    ("rng.normal_pair_stream.calls", "count"),
    ("rng.normal_pair_stream.s", "s"),
    ("ranking.selection_order.calls", "count"),
    ("ranking.selection_order.s", "s"),
    ("ranking.push_record.calls", "count"),
    ("ranking.push_record.s", "s"),
    ("ranking.update_window.calls", "count"),
    ("ranking.update_window.s", "s"),
    ("ranking.select_from_arrays.calls", "count"),
    ("ranking.select_from_arrays.s", "s"),
    ("mapcore.copy.calls", "count"),
    ("mapcore.copy.s", "s"),
    ("mapcore.copy.landmarks", "count"),
    ("mapcore.index_build.calls", "count"),
    ("mapcore.index_build.s", "s"),
    ("mapcore.ingest.s", "s"),
    ("mapcore.ingest.rich.s", "s"),
    ("mapcore.ingest.observation.s", "s"),
    ("mapcore.ingest.drop.s", "s"),
    ("mapcore.candidate_set.calls", "count"),
    ("mapcore.candidate_set.s", "s"),
    ("mapcore.landmarks_final", "count"),
    ("summarize.calls", "count"),
    ("summarize.landmarks", "count"),
    ("summarize.build_s", "s"),
    ("summarize.solve_s", "s"),
    ("summarize.apply_s", "s"),
    ("summarize.objective", "objective"),
    ("summarize.milp_objective", "objective"),
    ("summarize.greedy_gap", "ratio"),
    ("summarize.milp_s", "s"),
    ("worldgen.generate_world.s", "s"),
    ("worldgen.generate_sortie.calls", "count"),
    ("worldgen.generate_sortie.s", "s"),
    ("worldgen.sortie_doc.s", "s"),
    ("protocol.encode.calls", "count"),
    ("protocol.encode.s", "s"),
    ("protocol.encode.bytes", "B"),
    ("protocol.decode.calls", "count"),
    ("protocol.decode.s", "s"),
    ("protocol.decode.bytes", "B"),
    ("server.query.calls", "count"),
    ("server.query.self_s", "s"),
    ("server.query.class_ratio.calls", "count"),
    ("server.query.class_ratio.self_s", "s"),
    ("server.query.session_weight.calls", "count"),
    ("server.query.session_weight.self_s", "s"),
    ("server.query.all.calls", "count"),
    ("server.query.all.self_s", "s"),
    ("server.report.self_s", "s"),
    ("server.upload.self_s", "s"),
    ("server.busy_share", "ratio"),
    ("server.error_replies", "count"),
    ("server.landmarks_sent", "count"),
    ("server.bytes_down", "B"),
    ("server.bytes_up", "B"),
    ("server.kernels_registered", "count"),
    ("server.sessions_held", "count"),
    ("client.local_s", "s"),
    ("client.transport_s", "s"),
    ("vehicle.query_rtt_p50_ms", "ms"),
    ("vehicle.query_rtt_p99_ms", "ms"),
    ("vehicle.report_rtt_p50_ms", "ms"),
    ("vehicle.query_pairs_per_s", "1/s"),
    ("vehicle.upload_total_s", "s"),
    ("vehicle.bytes_down_per_query", "B"),
    ("run.sorties_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.covered_share", "ratio"),
]
UNITS = dict(PER_LAYER)

# Values that are not span or counter totals of the traced pass: end-of-run
# state, diagnostics and figures from the untraced passes.  When a workload
# does not supply one, it reports 0 with a sample count of 0.
SUPPLIED = {
    "mapcore.landmarks_final", "summarize.milp_objective", "summarize.greedy_gap",
    "summarize.milp_s", "server.busy_share", "server.landmarks_sent", "server.bytes_down",
    "server.bytes_up", "server.kernels_registered", "server.sessions_held", "client.local_s",
    "client.transport_s", "vehicle.query_rtt_p50_ms", "vehicle.query_rtt_p99_ms",
    "vehicle.report_rtt_p50_ms", "vehicle.query_pairs_per_s", "vehicle.upload_total_s",
    "vehicle.bytes_down_per_query", "run.sorties_per_s", "trace.overhead_ratio",
    "trace.covered_share",
}

QUERY_KINDS = ("class_ratio", "session_weight", "all")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the workloads cross."""
    from atlas import client, experiment, locsim, mapcore, protocol, ranking, rng, server

    w = tracer.wrap
    Map = mapcore.MultiSessionMap
    Backend = server.MapBackend

    def iterations(t, args, kwargs, run):
        t.add("locsim.localize.iterations", run.n_iterations)

    def final_map(t, args, kwargs, result):
        t.last["landmarks_final"] = len(result[0].landmarks)

    def copied(t, args, kwargs, result):
        t.add("mapcore.copy.landmarks", len(args[0].landmarks))

    def problem(t, args, kwargs, result):
        t.add("summarize.landmarks", result.n_landmarks)
        t.last["problem"] = result

    def solution(t, args, kwargs, result):
        t.add("summarize.objective", result.objective)
        t.last["solution"] = result

    def encoded(t, args, kwargs, frame):
        t.add("protocol.encode.bytes", len(frame))

    def decoded(t, args, kwargs, message):
        t.add("protocol.decode.bytes", len(args[0]))

    def backend(t, args, kwargs, result):
        t.last["backend"] = args[0]

    def reply(t, args, kwargs, frame):
        if args[3].kind is protocol.MessageKind.ERROR:
            t.add("server.error_replies", 1)

    def query_kind(args) -> str:
        session = args[2]
        return f"server.query.{session.policy.ranking.value if session else 'no_session'}"

    for owner in (experiment, locsim):
        w(owner, "localize_dataset", "locsim.localize", iterations)
    for owner in (experiment, server):
        w(owner, "process_sortie", "locsim.process_sortie", final_map)
    for owner in (locsim, client, rng):
        w(owner, "uniform01", "rng.uniform01")
    for owner in (ranking, rng):
        w(owner, "hash_stream", "rng.hash_stream")
    for owner in (locsim, client):
        w(owner, "normal_pair_stream", "rng.normal_pair_stream")
    for owner in (locsim, ranking):
        w(owner, "selection_order", "ranking.selection_order")
    w(ranking.RollingSelectionStats, "push_record", "ranking.push_record")
    w(server, "update_window", "ranking.update_window")
    w(server, "select_from_arrays", "ranking.select_from_arrays")
    w(Map, "copy", "mapcore.copy", copied)
    w(mapcore.EquivalenceClassIndex, "__init__", "mapcore.index_build")
    w(Map, "add_rich_session", "mapcore.ingest.rich")
    w(Map, "add_observation_session", "mapcore.ingest.observation")
    w(Map, "drop_landmarks", "mapcore.ingest.drop")
    w(Map, "candidate_set", "mapcore.candidate_set")
    w(locsim, "build_problem", "summarize.build", problem)
    w(locsim, "solve", "summarize.solve", solution)
    w(locsim, "apply_summarization", "summarize.apply")
    w(experiment, "generate_world", "worldgen.generate_world")
    w(experiment, "generate_sortie", "worldgen.generate_sortie")
    w(client, "sortie_to_doc", "worldgen.sortie_doc")
    w(server, "sortie_from_doc", "worldgen.sortie_doc")
    for owner in (client, server):
        w(owner, "encode_frame", "protocol.encode", encoded)
    for owner in (protocol, server):
        w(owner, "decode_body", "protocol.decode", decoded)
    w(Backend, "__init__", "server.init", backend)
    w(Backend, "handle_frame", "server.handle_frame")
    w(Backend, "_query", query_kind)
    w(Backend, "_report", "server.report")
    w(Backend, "_upload", "server.upload")
    w(Backend, "_account", "server.account", reply)


def server_extras(tracer: Tracer) -> dict:
    """Backend state at the end of a traced serve, read from the captured backend."""
    b = tracer.last.get("backend")
    if b is None:
        return {}
    ledger = b.ledger
    return {
        "server.landmarks_sent": ledger.landmarks_sent,
        "server.bytes_down": ledger.bytes_down,
        "server.bytes_up": ledger.bytes_up,
        "server.kernels_registered": len(b.kernels),
        "server.sessions_held": len(b.sessions),
        "mapcore.landmarks_final": len(b.snapshot.landmarks),
    }


def layer_metrics(agg: dict, counters: dict, extra: dict) -> dict[str, float]:
    """Per-layer values from aggregated spans, boundary counts and end-state extras.

    ``extra`` carries what is not a span: end-of-run server state, the MILP
    diagnostic, the vehicle's untraced figures and the harness ratios.
    """

    def row(name: str) -> dict:
        return agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    out = {name: 0.0 for name, _ in PER_LAYER}
    for span in ("locsim.localize", "locsim.process_sortie"):
        out[f"{span}.calls"] = row(span)["calls"]
        out[f"{span}.self_s"] = row(span)["self_s"]
    for span in (
        "rng.uniform01", "rng.hash_stream", "rng.normal_pair_stream",
        "ranking.selection_order", "ranking.push_record", "ranking.update_window",
        "ranking.select_from_arrays", "mapcore.copy", "mapcore.index_build",
        "mapcore.candidate_set", "worldgen.generate_sortie", "protocol.encode",
        "protocol.decode",
    ):
        out[f"{span}.calls"] = row(span)["calls"]
        out[f"{span}.s"] = row(span)["s"]
    for kind in ("rich", "observation", "drop"):
        out[f"mapcore.ingest.{kind}.s"] = row(f"mapcore.ingest.{kind}")["s"]
    out["mapcore.ingest.s"] = sum(out[f"mapcore.ingest.{k}.s"] for k in ("rich", "observation", "drop"))
    out["summarize.calls"] = row("summarize.build")["calls"]
    out["summarize.build_s"] = row("summarize.build")["s"]
    out["summarize.solve_s"] = row("summarize.solve")["s"]
    out["summarize.apply_s"] = row("summarize.apply")["s"]
    out["worldgen.generate_world.s"] = row("worldgen.generate_world")["s"]
    out["worldgen.sortie_doc.s"] = row("worldgen.sortie_doc")["s"]
    for kind in QUERY_KINDS:
        out[f"server.query.{kind}.calls"] = row(f"server.query.{kind}")["calls"]
        out[f"server.query.{kind}.self_s"] = row(f"server.query.{kind}")["self_s"]
    query_rows = [r for name, r in agg.items() if name.startswith("server.query.")]
    out["server.query.calls"] = sum(r["calls"] for r in query_rows)
    out["server.query.self_s"] = sum(r["self_s"] for r in query_rows)
    out["server.report.self_s"] = row("server.report")["self_s"]
    out["server.upload.self_s"] = row("server.upload")["self_s"]
    for key in (
        "locsim.localize.iterations", "mapcore.copy.landmarks", "summarize.landmarks",
        "summarize.objective", "protocol.encode.bytes", "protocol.decode.bytes",
        "server.error_replies",
    ):
        out[key] = counters.get(key, 0)
    for key, value in extra.items():
        if key in out:
            out[key] = value
    return out
