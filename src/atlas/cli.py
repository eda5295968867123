"""Command-line front end.

Verbs:

* ``atlas run``      -- chronological experiment grid with side-by-side
                        policy probes, regression re-localization, and
                        map-composition tracking; writes CSV/JSON outputs.
* ``atlas regress``  -- with/without-observation-session gap study and
                        converged-map policy probes.
* ``atlas compare``  -- aggregate metrics files from earlier runs into a
                        policy comparison summary.
* ``atlas serve``    -- host a map over TCP.
* ``atlas drive``    -- act as a simulated vehicle against a server.

Options may come from a JSON config file (``--config``); explicit flags
win over the file, which wins over built-in defaults.  Experiment verbs
exit 0 only when every built-in consistency check passes, so scripted
pipelines can gate on the exit code.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .client import BackendError, VehicleClient, drive_sortie
from .experiment import (
    ExperimentSpec,
    build_dataset,
    build_world,
    observation_session_gap,
    run_experiment,
    write_csv,
)
from .locsim import DEFAULT_THRESHOLD_M
from .mapcore import MultiSessionMap, UNBOUNDED_CAP
from .mapio import load_map
from .ranking import parse_policy
from .server import DEFAULT_SENSOR_RANGE, MapBackend, MapServer
from .worldgen import get_scenario, load_kernels, with_overrides

PASS_TOL = 1e-9


def _parse_cap(text: str) -> int:
    if text.strip().lower() in ("inf", "infinity", "none"):
        return UNBOUNDED_CAP
    cap = int(text)
    if cap < 1:
        raise ValueError("cap must be >= 1 (or 'inf')")
    return cap


def _parse_listen(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host:
        raise ValueError("expected HOST:PORT")
    return host, int(port)


def _split_csv(text: str) -> list[str]:
    return [t for t in (s.strip() for s in text.split(",")) if t]


def _config_value(action: argparse.Action, value):
    """value as action's flag sets it, or None if the flag cannot take it: a switch
    takes a bool, --runs a non-empty list of scalars, any other flag one scalar."""
    if action.nargs == 0:
        return value if type(value) is bool else None
    many = action.nargs == "+"
    if many != (type(value) is list):
        return None
    values = value if many else [value]
    if not values or any(type(v) not in (str, int, float) for v in values):
        return None
    return [str(v) for v in values] if many else str(value)


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset args from the JSON config file, keyed by the verb's own flags."""
    if not args.config:
        return
    doc = json.loads(Path(args.config).read_text())
    if not isinstance(doc, dict):
        raise SystemExit(f"config {args.config} must hold a JSON object")
    (verbs,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in verbs.choices[args.verb]._actions
             if a.option_strings and a.dest not in ("help", "config")}
    if unknown := set(doc) - set(flags):
        raise SystemExit(f"config {args.config} has unknown keys: {sorted(unknown)}")
    for key, value in doc.items():
        setting = _config_value(flags[key], value)
        if setting is None:
            raise SystemExit(f"config {args.config}: {key} cannot be {json.dumps(value)}")
        if getattr(args, key) is None:
            setattr(args, key, setting)


class Checks:
    """Pass/fail consistency checks printed one per line; gates the exit code."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, passed: bool, detail: str) -> None:
        self.results.append((name, bool(passed), detail))

    def report(self) -> int:
        for name, passed, detail in self.results:
            print(f"check {name}: {'PASS' if passed else 'FAIL'} ({detail})")
        return 0 if all(p for _, p, _ in self.results) else 1

    def to_doc(self) -> list[dict]:
        return [{"name": n, "passed": p, "detail": d} for n, p, d in self.results]


def _read_metrics(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("mean_r_obs", "total_r_obs", "rms_m", "condition", "selection_ratio"):
            row[key] = float(row[key])
        for key in (
            "seed", "sortie_index", "n_valid_iterations", "n_selected_total",
            "n_observed_total", "n_failed_iterations", "n_landmarks_before",
            "n_landmarks_after", "n_rich_sessions", "n_observation_sessions", "window_len",
        ):
            row[key] = int(row[key])
        row["self_localization"] = row["self_localization"] == "true"
    return rows


# -- run --

def cmd_run(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario or "city_dusk")
    if args.threshold_m is not None:
        scenario = with_overrides(scenario, threshold_m=float(args.threshold_m))
    seeds = tuple(int(s) for s in _split_csv(args.seeds or "42"))
    caps = tuple(_parse_cap(c) for c in _split_csv(args.caps)) if args.caps else ()
    policy_names = tuple(_split_csv(args.policies)) if args.policies else ()
    spec = ExperimentSpec(scenario, seeds, caps=caps, policy_names=policy_names,
                          regression=args.regression is not False)
    out = Path(args.out or f"runs/{scenario.name}")
    summary = run_experiment(spec, out)
    print(f"wrote {out}/metrics.csv, composition.csv, run_meta.json, summary.json")

    rows = _read_metrics(out / "metrics.csv")
    checks = Checks()
    chrono = [r for r in rows if r["mode"] == "chronological"]
    ref_rows = [r for r in chrono if r["ranking"] == "all" and r["selection_ratio"] == 1.0]
    valid_ref = [r for r in ref_rows if r["n_valid_iterations"] > 0]
    checks.add(
        "reference_ratio_is_one",
        all(r["mean_r_obs"] == 1.0 and r["total_r_obs"] == 1.0 for r in valid_ref),
        f"{len(valid_ref)} reference sorties with matchable landmarks",
    )
    bounded = [r for r in chrono if r["n_valid_iterations"] > 0]
    checks.add(
        "observation_ratio_bounded",
        all(r["mean_r_obs"] <= 1.0 + PASS_TOL for r in bounded),
        f"{len(bounded)} policy sorties, ratio <= 1",
    )
    checks.add(
        "cap_respected",
        all(c["cap_violations"] == 0 for c in summary["cells"]),
        f"{len(summary['cells'])} run cells, 0 violations required",
    )
    uncapped = [r for r in ref_rows if r["cap"] == "inf"]
    checks.add(
        "uncapped_count_non_decreasing",
        all(r["n_landmarks_after"] >= r["n_landmarks_before"] for r in uncapped),
        f"{len(uncapped)} uncapped sorties",
    )
    deltas = [c["max_regression_rms_delta_m"] for c in summary["cells"]
              if c["max_regression_rms_delta_m"] is not None]
    checks.add(
        "regression_rms_within_tolerance",
        all(d <= 0.01 + PASS_TOL for d in deltas),
        f"max regression-vs-chronological rms delta {max(deltas):.6f} m" if deltas
        else "regression disabled",
    )
    return checks.report()


# -- regress --

GAP_COLUMNS = ["scenario", "seed", "policy", "stage", "probe_index",
               "r_obs_with", "r_obs_without", "gap"]
CONVERGED_COLUMNS = ["scenario", "seed", "policy", "mean_r_obs"]


def cmd_regress(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario or "parking_year")
    seeds = tuple(int(s) for s in _split_csv(args.seeds or "42,7,2026"))
    policy = parse_policy(args.policy or "class_ratio@0.2")
    converged_names = _split_csv(
        args.converged_policies or "class_ratio@0.2,session_weight@0.2,random@0.2"
    )
    converged_policies = tuple(parse_policy(n) for n in converged_names)
    out = Path(args.out or f"runs/{scenario.name}-regress")
    out.mkdir(parents=True, exist_ok=True)

    gap_rows: list[dict] = []
    converged_rows: list[dict] = []
    stage_gaps: dict[int, list[float]] = {}
    for seed in seeds:
        study = observation_session_gap(scenario, seed, policy, converged_policies)
        for stage in sorted(study.gaps_by_stage):
            for j, gap in enumerate(study.gaps_by_stage[stage]):
                gap_rows.append({
                    "scenario": scenario.name, "seed": seed, "policy": policy.name,
                    "stage": stage, "probe_index": j,
                    "r_obs_with": study.with_by_stage[stage][j],
                    "r_obs_without": study.without_by_stage[stage][j],
                    "gap": gap,
                })
                stage_gaps.setdefault(stage, []).append(gap)
        for name, r in study.converged.items():
            converged_rows.append({
                "scenario": scenario.name, "seed": seed, "policy": name, "mean_r_obs": r,
            })

    write_csv(out / "gaps.csv", GAP_COLUMNS, gap_rows)
    write_csv(out / "converged.csv", CONVERGED_COLUMNS, converged_rows)

    stage_means = {st: float(np.mean(g)) for st, g in sorted(stage_gaps.items())}
    by_policy: dict[str, list[float]] = {}
    for row in converged_rows:
        by_policy.setdefault(row["policy"], []).append(row["mean_r_obs"])
    converged_means = {name: float(np.mean(v)) for name, v in sorted(by_policy.items())}
    summary = {
        "scenario": scenario.name,
        "seeds": list(seeds),
        "policy": policy.name,
        "gap_mean_by_stage": {str(k): v for k, v in stage_means.items()},
        "converged_mean_r_obs": converged_means,
    }

    checks = Checks()
    first_stage = min(stage_means) if stage_means else None
    checks.add(
        "early_stage_gap_positive",
        first_stage is not None and stage_means[first_stage] > 0,
        f"stage {first_stage} mean gap "
        f"{stage_means[first_stage]:+.4f}" if first_stage is not None else "no probes",
    )
    if len(stage_means) >= 3:
        from scipy import stats as sps

        rho = float(sps.spearmanr(list(stage_means), [stage_means[k] for k in stage_means])[0])
        checks.add("gap_shrinks_with_maturity", rho < 0,
                   f"spearman rho {rho:+.3f} over {len(stage_means)} stages")
    else:
        checks.add("gap_shrinks_with_maturity", True,
                   f"only {len(stage_means)} probed stages, trend not testable")
    ranked = converged_means.get(policy.name, math.nan)
    rnd = next((v for k, v in converged_means.items() if k.startswith("random@")), math.nan)
    checks.add(
        "converged_ranked_beats_random",
        not math.isnan(ranked) and not math.isnan(rnd) and ranked > rnd,
        f"ranked {ranked:.3f} vs random {rnd:.3f}",
    )
    summary["checks"] = checks.to_doc()
    (out / "regress_summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}/gaps.csv, converged.csv, regress_summary.json")
    return checks.report()


# -- compare --

def cmd_compare(args: argparse.Namespace) -> int:
    run_dirs = [Path(d) for d in (args.runs or [])]
    if not run_dirs:
        print("compare: at least one --runs directory is required", file=sys.stderr)
        return 2
    rows: list[dict] = []
    for d in run_dirs:
        path = d / "metrics.csv"
        if not path.exists():
            print(f"compare: {path} not found", file=sys.stderr)
            return 2
        rows.extend(_read_metrics(path))
    chrono = [r for r in rows if r["mode"] == "chronological"]

    groups = {(r["scenario"], r["seed"], r["cap"]) for r in chrono}
    covered = {
        (r["scenario"], r["seed"], r["cap"])
        for r in chrono
        if r["ranking"] == "all" and r["selection_ratio"] == 1.0
    }
    if groups - covered:
        missing = sorted(groups - covered)
        print(f"compare: missing full-selection reference rows for {missing}", file=sys.stderr)
        return 2

    def _mean(values: list[float]) -> float:
        finite = [v for v in values if not math.isnan(v)]
        return float(np.mean(finite)) if finite else math.nan

    per_policy: dict[tuple, dict] = {}
    for r in chrono:
        key = (r["scenario"], r["cap"], r["policy"])
        cell = per_policy.setdefault(
            key, {"r_obs": [], "rms": [], "selected": 0, "n_sorties": 0}
        )
        if r["n_valid_iterations"] > 0:
            cell["r_obs"].append(r["mean_r_obs"])
        cell["rms"].append(r["rms_m"])
        cell["selected"] += r["n_selected_total"]
        cell["n_sorties"] += 1
    policy_table = [
        {
            "scenario": sc, "cap": cap, "policy": pol,
            "n_sorties": cell["n_sorties"],
            "mean_r_obs": _mean(cell["r_obs"]),
            "mean_rms_m": _mean(cell["rms"]),
            "landmarks_transmitted": cell["selected"],
        }
        for (sc, cap, pol), cell in sorted(per_policy.items())
    ]

    sweep: dict[str, dict[str, float]] = {}
    for r in chrono:
        if r["ranking"] == "all" or r["n_valid_iterations"] == 0:
            continue
        sr = f"{r['selection_ratio']:g}"
        sweep.setdefault(r["ranking"], {}).setdefault(sr, []).append(r["mean_r_obs"])  # type: ignore[arg-type]
    sr_sweep = {
        kind: {sr: _mean(vals) for sr, vals in sorted(cells.items())}
        for kind, cells in sorted(sweep.items())
    }
    deltas: dict[str, dict[str, float]] = {}
    ranked = sr_sweep.get("class_ratio", {})
    for other in ("random", "session_weight"):
        table = sr_sweep.get(other, {})
        common = sorted(set(ranked) & set(table))
        if common:
            deltas[f"class_ratio_minus_{other}"] = {sr: ranked[sr] - table[sr] for sr in common}

    summary = {
        "runs": [str(d) for d in run_dirs],
        "per_policy": policy_table,
        "sr_sweep": sr_sweep,
        "deltas": deltas,
    }
    if args.gaps:
        gaps_path = Path(args.gaps) / "gaps.csv"
        if not gaps_path.exists():
            print(f"compare: {gaps_path} not found", file=sys.stderr)
            return 2
        with gaps_path.open(newline="") as fh:
            gap_rows = list(csv.DictReader(fh))
        by_stage: dict[str, list[float]] = {}
        for row in gap_rows:
            by_stage.setdefault(row["stage"], []).append(float(row["gap"]))
        summary["observation_session_gap_by_stage"] = {
            st: _mean(v) for st, v in sorted(by_stage.items(), key=lambda kv: int(kv[0]))
        }

    checks = Checks()
    valid = [r for r in chrono if r["n_valid_iterations"] > 0]
    checks.add(
        "observation_ratio_bounded",
        all(r["mean_r_obs"] <= 1.0 + PASS_TOL for r in valid),
        f"{len(valid)} sorties",
    )
    refs = [r for r in valid if r["ranking"] == "all" and r["selection_ratio"] == 1.0]
    checks.add(
        "reference_ratio_is_one",
        all(r["mean_r_obs"] == 1.0 for r in refs),
        f"{len(refs)} reference sorties",
    )
    summary["checks"] = checks.to_doc()
    out = Path(args.out or "compare_summary.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    for row in policy_table:
        print(
            f"{row['scenario']} cap={row['cap']} {row['policy']}: "
            f"r_obs={row['mean_r_obs']:.3f} rms={row['mean_rms_m']:.3f} m "
            f"sent={row['landmarks_transmitted']}"
        )
    print(f"wrote {out}")
    return checks.report()


# -- serve --

def cmd_serve(args: argparse.Namespace) -> int:
    host, port = _parse_listen(args.listen or "127.0.0.1:0")
    if args.map:
        m = load_map(args.map)
    else:
        m = MultiSessionMap()
    if args.cap is not None:
        m.landmark_cap = _parse_cap(str(args.cap))
    kernels = load_kernels(args.kernels) if args.kernels else {}
    backend = MapBackend(
        m,
        kernels,
        threshold_m=DEFAULT_THRESHOLD_M if args.threshold_m is None else float(args.threshold_m),
        default_sensor_range=(
            DEFAULT_SENSOR_RANGE if args.sensor_range is None else float(args.sensor_range)
        ),
    )
    server = MapServer(backend, host, port, log=lambda line: print(line, flush=True))
    server.serve_forever()
    return 0


# -- drive --

def cmd_drive(args: argparse.Namespace) -> int:
    host, port = _parse_listen(args.connect or "127.0.0.1:0")
    scenario = get_scenario(args.scenario or "city_dusk")
    seed = int(args.seed if args.seed is not None else 42)
    indices = (
        [int(i) for i in _split_csv(args.indices)]
        if args.indices
        else list(range(len(scenario.schedule)))
    )
    policy = args.policy or "all@1"
    upload = args.upload is not False
    world = build_world(scenario, seed)
    kernels: dict = {}
    try:
        with VehicleClient(host, port) as client:
            client.open_session(
                policy,
                seed=seed,
                sensor_range=float(args.sensor_range) if args.sensor_range is not None
                else scenario.sensor_range,
            )
            for i in indices:
                ds = build_dataset(world, i, seed)
                res = drive_sortie(client, ds, kernels, upload=upload)
                line = {
                    "sortie_index": i,
                    "label": res.label,
                    "mean_selected": round(res.mean_selected, 3),
                    "n_observed_total": int(res.observed_counts.sum()),
                    "rms_m": round(res.rms_translation_m, 6),
                    "n_failures": res.n_failures,
                }
                if upload:
                    line["session_kind"] = res.upload_ack["session_kind"]
                    line["map_version"] = res.upload_ack["map_version"]
                    line["n_landmarks"] = res.upload_ack["n_landmarks"]
                print(json.dumps(line, sort_keys=True))
            ledger = client.close_session()
            print(json.dumps({"event": "closed", **ledger}, sort_keys=True))
    except (BackendError, ConnectionError, OSError) as exc:
        print(f"drive: {exc}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atlas",
        description="Lifelong landmark-map management: experiments and map service.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run the chronological experiment grid")
    run.add_argument("--scenario", help="built-in scenario name or scenario JSON path")
    run.add_argument("--seeds", help="comma-separated seeds (default 42)")
    run.add_argument("--caps", help="comma-separated landmark caps; 'inf' allowed")
    run.add_argument("--policies", help="comma-separated policy specs like class_ratio@0.2")
    run.add_argument("--threshold-m", dest="threshold_m", help="map-update decision threshold")
    run.add_argument("--no-regression", dest="regression", action="store_false", default=None)
    run.add_argument("--out", help="output directory (default runs/<scenario>)")
    run.add_argument("--config", help="JSON config file; flags override it")
    run.set_defaults(func=cmd_run)

    regress = sub.add_parser("regress", help="observation-session gap study and converged probes")
    regress.add_argument("--scenario")
    regress.add_argument("--seeds")
    regress.add_argument("--policy", help="policy under study (default class_ratio@0.2)")
    regress.add_argument("--converged-policies", dest="converged_policies")
    regress.add_argument("--out")
    regress.add_argument("--config")
    regress.set_defaults(func=cmd_regress)

    compare = sub.add_parser("compare", help="aggregate metrics from earlier runs")
    compare.add_argument("--runs", nargs="+", help="run output directories")
    compare.add_argument("--gaps", help="regress output directory to fold in")
    compare.add_argument("--out", help="summary JSON path")
    compare.add_argument("--config")
    compare.set_defaults(func=cmd_compare)

    serve = sub.add_parser("serve", help="host a map backend over TCP")
    serve.add_argument("--listen", help="HOST:PORT (default 127.0.0.1:0)")
    serve.add_argument("--map", help="map file to serve (default: fresh empty map)")
    serve.add_argument("--cap", help="landmark cap override; 'inf' allowed")
    serve.add_argument("--threshold-m", dest="threshold_m")
    serve.add_argument("--kernels", help="kernel sidecar JSON for localization simulation")
    serve.add_argument("--sensor-range", dest="sensor_range")
    serve.add_argument("--config")
    serve.set_defaults(func=cmd_serve)

    drive = sub.add_parser("drive", help="drive simulated sorties against a server")
    drive.add_argument("--connect", required=False, help="HOST:PORT of the server")
    drive.add_argument("--scenario")
    drive.add_argument("--seed")
    drive.add_argument("--indices", help="comma-separated schedule indices (default: all)")
    drive.add_argument("--policy", help="session query policy (default all@1)")
    drive.add_argument("--sensor-range", dest="sensor_range")
    drive.add_argument("--no-upload", dest="upload", action="store_false", default=None)
    drive.add_argument("--config")
    drive.set_defaults(func=cmd_drive)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"atlas {args.verb}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
