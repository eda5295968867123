"""The three benchmark workloads: set-up, one timed pass, and output checks.

* ``city_grid``: ``atlas run`` on ``city_dusk`` in process (10 sorties, the
  9-policy grid, regression on, 3000-landmark cap).  Localization dominates;
  the server and the protocol are bypassed.
* ``parking_gap``: ``experiment.observation_session_gap`` on
  ``parking_year`` with ``class_ratio@0.2`` (25 sorties x 2 uncapped twins).
  Map copy and ingest weigh more, summarization never runs.
* ``fleet_loopback``: ``atlas serve --cap 3000`` as its own process and one
  vehicle driving the ``city_dusk`` schedule over one loopback connection,
  closed loop, rotating three query policies.  The only workload through
  ``server``, ``protocol`` and ``client``.

A pass is one complete run of the workload on fresh state, so every pass
of one invocation must produce the same output digests.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from measure import digest, median, tail_percentile
from tracer import Tracer, aggregate, read_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 5
FLEET_CAP = 3000
FLEET_ROTATION = ("class_ratio@0.2", "session_weight@0.2", "all@1")
ACK_FIELDS = ("session_kind", "n_landmarks", "rms_m", "summarized", "map_version")
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0

Check = tuple[str, bool, str]


@dataclass
class Pass:
    """One timed pass: wall and CPU time, work done, failures and output digests."""

    wall_s: float
    cpu_s: float
    sorties: int
    attempted: int
    failed: int
    digests: dict[str, str]
    detail: dict = field(default_factory=dict)


def process_cpu_s(pid: int) -> float:
    """User plus system CPU seconds of another process so far (Linux ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class TimedPhase:
    """Wall clock and CPU time of a pass; under a tracer it is also the root span.

    CPU time counts this process and, when given, the server doing the
    pass's other half.  Time the hypervisor steals from the machine's
    cores lands in wall time but not in CPU time.
    """

    def __init__(self, tracer: Tracer | None, server_pid: int | None = None):
        self.tracer = tracer
        self.server_pid = server_pid
        self.wall_s = self.cpu_s = math.nan

    def _cpu(self) -> float:
        own = time.process_time()
        return own + process_cpu_s(self.server_pid) if self.server_pid else own

    def __enter__(self) -> "TimedPhase":
        self._span = self.tracer.open("pass", harness=True) if self.tracer else None
        self._c0 = self._cpu()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._t0
        self.cpu_s = self._cpu() - self._c0
        if self.tracer:
            self.tracer.close(self._span)


def child_env() -> dict:
    return os.environ | {"PYTHONPATH": str(SRC)}


def setup_samples(workload: str, seed: int, k: int = SETUP_SAMPLES) -> list[float]:
    """Seconds from spawning a fresh process until it reports the workload set up."""
    samples = []
    for _ in range(k):
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, bufsize=0,
        )
        try:
            line = read_line(proc, SERVER_START_TIMEOUT_S)
            samples.append(perf_counter() - t0)
            if line.strip() != b"ready":
                raise RuntimeError(f"set-up probe said {line!r}")
        finally:
            try:
                proc.communicate(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return samples


def read_line(proc: subprocess.Popen, timeout: float) -> bytes:
    """One line from an unbuffered child stdout, or RuntimeError on timeout/EOF."""
    buf = b""
    deadline = perf_counter() + timeout
    fd = proc.stdout.fileno()
    while not buf.endswith(b"\n"):
        left = deadline - perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise RuntimeError("child printed no line in time")
        chunk = os.read(fd, 1)
        if not chunk:
            raise RuntimeError(f"child closed stdout after {buf!r}")
        buf += chunk
    return buf


def reference_run(seed: int):
    """``run_chronological(city_dusk, seed)``: the map trajectory both city workloads must reproduce."""
    from atlas.experiment import run_chronological
    from atlas.worldgen import get_scenario

    return run_chronological(get_scenario("city_dusk"), seed)


def same_digests(passes: list[Pass]) -> Check:
    keys = sorted({k for p in passes for k in p.digests})
    differing = [k for k in keys if len({p.digests.get(k) for p in passes}) != 1]
    return ("digests_agree_across_passes", not differing,
            f"{len(passes)} passes, {len(keys)} digests" + (f", differ: {differing}" if differing else ""))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.digests: dict[str, str] = {}  # digests made by the checks, for the record

    def prepare(self) -> None:
        """In-process set-up before the first pass."""

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        raise NotImplementedError

    def checks(self, passes: list[Pass]) -> list[Check]:
        return [same_digests(passes)]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def report_metrics(self, passes: list[Pass]) -> dict[str, tuple[float, str, int]]:
        """Figures printed beside the end-to-end metrics: (value, unit, samples)."""
        return {}

    def trace_extras(self, traced: Pass, tracer: Tracer) -> tuple[dict, dict]:
        """Per-layer values that are not span sums, and the span aggregates
        and counters of another traced process."""
        return {}, {}

    def close(self) -> None:
        """Stop whatever the workload started."""


class CityGrid(Workload):
    name = "city_grid"

    def prepare(self) -> None:
        from atlas import cli
        from atlas.worldgen import get_scenario

        self.cli = cli
        self.n_sorties = len(get_scenario("city_dusk").schedule)
        self.out = OUT / f"city_grid-seed{self.seed}"

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        argv = ["run", "--scenario", "city_dusk", "--seeds", str(self.seed), "--out", str(self.out)]
        printed = io.StringIO()
        with TimedPhase(tracer) as phase, contextlib.redirect_stdout(printed):
            code = self.cli.main(argv)
        lines = [ln for ln in printed.getvalue().splitlines() if ln.startswith("check ")]
        passed = [ln for ln in lines if ": PASS (" in ln]
        ok = code == 0 and len(lines) == 5 and len(passed) == 5
        summary = json.loads((self.out / "summary.json").read_text())
        return Pass(
            phase.wall_s, phase.cpu_s, self.n_sorties, self.n_sorties, 0 if ok else self.n_sorties,
            {name: digest((self.out / name).read_bytes())
             for name in ("metrics.csv", "composition.csv")},
            {"exit_code": code, "check_lines": lines, "cell": summary["cells"][0]},
        )

    def checks(self, passes: list[Pass]) -> list[Check]:
        from atlas.mapio import dumps_map

        out = [same_digests(passes)]
        bad = [p.detail["check_lines"] for p in passes if p.failed]
        out.append(("atlas_run_checks_pass", not bad,
                    f"5 checks x {len(passes)} passes" + (f"; failing: {bad[0]}" if bad else "")))
        ref = reference_run(self.seed)
        self.digests["final_map"] = digest(dumps_map(ref.final_map))
        cell = passes[0].detail["cell"]
        want = (len(ref.final_map.landmarks), ref.final_map.n_rich_sessions,
                ref.final_map.n_observation_sessions)
        got = (cell["final_landmarks"], cell["n_rich_sessions"], cell["n_observation_sessions"])
        out.append(("final_map_matches_reference", got == want,
                    f"landmarks/rich/observation {got} vs reference {want}"))
        return out

    def trace_extras(self, traced: Pass, tracer: Tracer) -> tuple[dict, dict]:
        problem = tracer.last.get("problem")
        solution = tracer.last.get("solution")
        if problem is None or solution is None:
            return {}, {}
        objective, seconds = solve_milp(problem)
        return {
            "summarize.milp_objective": objective,
            "summarize.greedy_gap": (solution.objective - objective) / objective,
            "summarize.milp_s": seconds,
        }, {}


def solve_milp(problem) -> tuple[float, float]:
    """Optimal objective of a summarization instance with HiGHS, and its solve time.

    Variables are one binary keep flag per landmark and one continuous
    slack per vertex: minimise costs . keep + lambda * sum(slack) subject to
    exactly keep_count kept and coverage + slack >= b at every vertex.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix, hstack, identity

    n, m = problem.n_landmarks, problem.n_vertices
    rows = np.concatenate(problem.landmark_vertices)
    cols = np.repeat(np.arange(n), [len(c) for c in problem.landmark_vertices])
    cover = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, n))
    cover = hstack([cover, identity(m)]).tocsr()
    budget = np.concatenate([np.ones(n), np.zeros(m)])[None, :]
    t0 = perf_counter()
    res = milp(
        np.concatenate([problem.costs, np.full(m, problem.slack_penalty)]),
        constraints=[
            LinearConstraint(cover, lb=problem.min_per_vertex, ub=np.inf),
            LinearConstraint(budget, lb=problem.keep_count, ub=problem.keep_count),
        ],
        integrality=np.concatenate([np.ones(n), np.zeros(m)]),
        bounds=Bounds(np.zeros(n + m), np.concatenate([np.ones(n), np.full(m, np.inf)])),
        options={"time_limit": 60.0},
    )
    seconds = perf_counter() - t0
    if res.status != 0:
        raise RuntimeError(f"MILP did not reach optimality: {res.message}")
    return float(res.fun), seconds


class ParkingGap(Workload):
    name = "parking_gap"

    def prepare(self) -> None:
        from atlas import experiment
        from atlas.ranking import parse_policy
        from atlas.worldgen import get_scenario

        self.experiment = experiment
        self.scenario = get_scenario("parking_year")
        self.policy = parse_policy("class_ratio@0.2")

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        with TimedPhase(tracer) as phase:
            study = self.experiment.observation_session_gap(self.scenario, self.seed, self.policy)
        gaps = {str(st): [repr(g) for g in v] for st, v in sorted(study.gaps_by_stage.items())}
        n_probes = sum(len(v) for v in study.gaps_by_stage.values())
        finite = all(math.isfinite(g) for v in study.gaps_by_stage.values() for g in v)
        n = len(self.scenario.schedule)
        return Pass(phase.wall_s, phase.cpu_s, n, n, 0 if finite else n,
                    {"gaps": digest(json.dumps(gaps, sort_keys=True))},
                    {"n_probes": n_probes, "finite": finite})

    def checks(self, passes: list[Pass]) -> list[Check]:
        bad = sum(1 for p in passes if not p.detail["finite"])
        return [same_digests(passes),
                ("gaps_finite", bad == 0,
                 f"{passes[0].detail['n_probes']} probes per pass, {bad} passes with non-finite gaps")]


# -- fleet --


class _CountingSocket:
    def __init__(self, sock):
        self._sock = sock
        self.bytes = 0

    def sendall(self, data: bytes) -> None:
        self._sock.sendall(data)
        self.bytes += len(data)

    def close(self) -> None:
        self._sock.close()


class _CountingReader:
    def __init__(self, stream):
        self._stream = stream
        self.bytes = 0

    def read(self, n: int) -> bytes:
        data = self._stream.read(n)
        self.bytes += len(data)
        return data

    def close(self) -> None:
        self._stream.close()


def _timed_client_class():
    from atlas.client import VehicleClient
    from atlas.protocol import MessageKind

    class TimedClient(VehicleClient):
        """A vehicle that times each call and counts the bytes it puts on the wire.

        The per-session tally runs from ``open_session`` up to, not
        including, ``close``: exactly what the close reply's ledger covers.
        """

        def __init__(self, host: str, port: int, tracer: Tracer | None = None):
            super().__init__(host, port, timeout=60.0)
            self._sock = _CountingSocket(self._sock)
            self._stream = _CountingReader(self._stream)
            self.tracer = tracer
            self.rtts: dict[str, list[float]] = {}
            self.requests = 0
            self.tally: dict[str, int] = {}

        def call(self, kind, body, token=None):
            if kind is MessageKind.OPEN_SESSION:
                self.tally = {"queries": 0, "landmarks_sent": 0, "bytes_down": 0, "bytes_up": 0}
            up0, down0 = self._sock.bytes, self._stream.bytes
            self.requests += 1
            span = self.tracer.open("client.call") if self.tracer else None
            t0 = perf_counter()
            try:
                reply = super().call(kind, body, token)
            finally:
                self.rtts.setdefault(kind.value, []).append(perf_counter() - t0)
                if self.tracer:
                    self.tracer.close(span)
                if kind is not MessageKind.CLOSE:
                    self.tally["bytes_up"] += self._sock.bytes - up0
                    self.tally["bytes_down"] += self._stream.bytes - down0
                    self.tally["queries"] += kind is MessageKind.QUERY
            if reply.kind is MessageKind.LANDMARKS:
                self.tally["landmarks_sent"] += len(reply.body["landmark_ids"])
            return reply

    return TimedClient


class Server:
    """``atlas serve`` in its own process; traced through the benchmark's launcher."""

    def __init__(self, cap: int, trace_out: Path | None = None):
        serve = ["serve", "--listen", "127.0.0.1:0", "--cap", str(cap)]
        if trace_out is None:
            cmd = [sys.executable, "-m", "atlas.cli", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out), *serve]
        self.total_ledger: dict | None = None
        t0 = perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                     stdout=subprocess.PIPE, bufsize=0)
        try:
            listening = json.loads(read_line(self.proc, SERVER_START_TIMEOUT_S))
        except BaseException:
            self.stop()
            raise
        self.start_s = perf_counter() - t0
        if listening.get("event") != "listening":
            self.stop()
            raise RuntimeError(f"server said {listening!r} before listening")
        self.port = int(listening["port"])

    def peak_rss_mb(self) -> float:
        """The server's high-water resident set so far (Linux ``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """Interrupt the server as an operator would, wait for it, return its exit code.

        Keeps the backend-wide ledger from the server's ``stopped`` event.
        """
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            printed, _ = self.proc.communicate(timeout=SERVER_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            printed, _ = self.proc.communicate()
        for line in (printed or b"").decode().splitlines():
            event = json.loads(line)
            if event.get("event") == "stopped":
                self.total_ledger = event["ledger"]["total"]
        return self.proc.returncode


class FleetLoopback(Workload):
    name = "fleet_loopback"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rss_mb: list[float] = []
        self.servers: list[Server] = []

    def prepare(self) -> None:
        from atlas.client import BackendError, drive_sortie
        from atlas.experiment import build_dataset, build_world
        from atlas.worldgen import get_scenario

        self.scenario = get_scenario("city_dusk")
        world = build_world(self.scenario, self.seed)
        self.datasets = [build_dataset(world, i, self.seed) for i in range(len(self.scenario.schedule))]
        self.drive_sortie = drive_sortie
        self.errors = (BackendError, ConnectionError, OSError)
        self.client_class = _timed_client_class()

    def run_pass(self, tracer: Tracer | None = None) -> Pass:
        trace_out = OUT / f"trace-fleet_loopback-server-seed{self.seed}.json.gz" if tracer else None
        server = Server(FLEET_CAP, trace_out)
        self.servers.append(server)
        phase = TimedPhase(tracer, server.proc.pid)
        acks, sessions, failed = [], [], 0
        client = None
        try:
            client = self.client_class("127.0.0.1", server.port, tracer)
            kernels: dict = {}
            with phase:
                for i, ds in enumerate(self.datasets):
                    client.open_session(FLEET_ROTATION[i % len(FLEET_ROTATION)], seed=self.seed,
                                        sensor_range=self.scenario.sensor_range)
                    result = self.drive_sortie(client, ds, kernels, upload=True)
                    ledger = client.close_session()["ledger"]
                    acks.append({k: result.upload_ack[k] for k in ACK_FIELDS})
                    sessions.append((dict(client.tally), ledger))
        except self.errors as exc:
            print(f"perfbench fleet_loopback: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
        finally:
            if client is not None:
                client.close_transport()
            if trace_out is None:
                self.rss_mb.append(server.peak_rss_mb())
            exit_code = server.stop()
        failed += exit_code != 0
        total = server.total_ledger or {}
        return Pass(
            phase.wall_s, phase.cpu_s, len(acks), client.requests if client else 1, failed,
            {"acks": digest(json.dumps(acks, sort_keys=True)),
             "ledgers": digest(json.dumps([ledger for _, ledger in sessions], sort_keys=True))},
            {"acks": acks, "sessions": sessions, "rtts": client.rtts if client else {},
             "server_exit": exit_code, "server_start_s": server.start_s,
             "total_ledger": total,
             "client_totals": {"bytes_up": client._sock.bytes, "bytes_down": client._stream.bytes}
             if client else {},
             "bytes_down_per_query": total["bytes_down"] / total["queries"] if total else math.nan,
             "trace_out": trace_out},
        )

    def peak_rss_mb(self) -> float:
        return max(self.rss_mb)

    def checks(self, passes: list[Pass]) -> list[Check]:
        ref = reference_run(self.seed)
        version, expected = 0, []
        for report in ref.reports:
            # Every upload adds one session; a summarization bumps the version once more.
            version += 1 + report.summarized
            expected.append({
                "session_kind": report.session_kind.value,
                "n_landmarks": report.n_landmarks_after,
                "rms_m": report.rms_m,
                "summarized": report.summarized,
                "map_version": version,
            })
        mismatched = [i for i, p in enumerate(passes) if p.detail["acks"] != expected]
        ledger_bad = [
            (i, j) for i, p in enumerate(passes)
            for j, (tally, ledger) in enumerate(p.detail["sessions"]) if tally != ledger
        ]
        return [
            same_digests(passes),
            ("reference_version_chain", version == ref.final_map.version,
             f"derived map_version {version}, reference final map version {ref.final_map.version}"),
            ("upload_acks_match_reference", not mismatched,
             f"{len(expected)} acks x {len(passes)} passes" + (f"; passes {mismatched} differ" if mismatched else "")),
            ("session_ledgers_byte_exact", not ledger_bad,
             f"{sum(len(p.detail['sessions']) for p in passes)} sessions"
             + (f"; (pass, session) {ledger_bad[:3]} differ" if ledger_bad else "")),
            ("backend_ledger_byte_exact",
             all(p.detail["total_ledger"].get(k) == p.detail["client_totals"].get(k)
                 for p in passes for k in ("bytes_up", "bytes_down")),
             "backend-wide bytes up/down vs every frame the vehicle sent and received: "
             + ", ".join(f"{p.detail['total_ledger'].get('bytes_down')}/{p.detail['client_totals'].get('bytes_down')}"
                         for p in passes)),
            ("server_exit_clean", all(p.detail["server_exit"] == 0 for p in passes),
             f"exit codes {[p.detail['server_exit'] for p in passes]}"),
        ]

    def report_metrics(self, passes: list[Pass]) -> dict[str, tuple[float, str, int]]:
        def pooled(kind: str) -> list[float]:
            return [s for p in passes for s in p.detail["rtts"].get(kind, [])]

        queries, reports = pooled("query"), pooled("report")
        uploads = [sum(p.detail["rtts"].get("upload_sortie", [])) for p in passes]
        out = {"server.start_s": (median([p.detail["server_start_s"] for p in passes]), "s", len(passes))}
        if not (queries and reports):
            return out  # a failed pass; the checks report it
        p, tail, n = tail_percentile(queries)
        out |= {
            "vehicle.query_rtt_p50_ms": (median(queries) * 1e3, "ms", len(queries)),
            "vehicle.report_rtt_p50_ms": (median(reports) * 1e3, "ms", len(reports)),
            "vehicle.query_pairs_per_s": (min(len(queries), len(reports)) / (sum(queries) + sum(reports)),
                                          "1/s", len(queries)),
            "vehicle.upload_total_s": (median(uploads), "s", len(uploads)),
            "vehicle.bytes_down_per_query": (passes[0].detail["bytes_down_per_query"], "B",
                                             sum(len(p.detail["sessions"]) for p in passes)),
        }
        if p is not None:
            out[f"vehicle.query_rtt_p{p:g}_ms"] = (tail * 1e3, "ms", n)
        return out

    def trace_extras(self, traced: Pass, tracer: Tracer) -> tuple[dict, dict]:
        doc = read_trace(traced.detail["trace_out"])
        server_agg = aggregate(doc["names"], doc["spans"])
        busy = server_agg.get("server.handle_frame", {"s": 0.0})["s"]
        rtt_sum = sum(s for v in traced.detail["rtts"].values() for s in v)
        extras = doc["extra"] | {
            "server.busy_share": busy / traced.wall_s,
            "client.local_s": traced.wall_s - rtt_sum,
            "client.transport_s": rtt_sum - busy,
        }
        return extras, {"agg": server_agg, "counters": doc["counters"]}

    def close(self) -> None:
        for server in self.servers:
            server.stop()


WORKLOADS = {w.name: w for w in (CityGrid, ParkingGap, FleetLoopback)}
