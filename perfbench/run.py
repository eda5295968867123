"""atlas benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

Usage (from the root of a checkout):

    python3 perfbench/run.py [--workload city_grid|parking_gap|fleet_loopback|all]
                             [--seed 42] [--seconds 36] [--trace 0|1]

With ``--trace 0`` a run times whole passes of the workload, starting
another only while it should end within ``--seconds`` of pass time (at
least one), and reports the end-to-end metrics.  With
``--trace 1`` it does the same untraced, then runs one more pass with the
layer wrappers installed and reports the per-layer metrics instead.  Every
run checks the workload's outputs, prints each metric with its unit and
sample count, writes a provenance record under ``.perfbench_out/``, and
ends with one JSON line.  The exit code is non-zero when any check fails.
``--workload all`` runs the three workloads one after another, each in its
own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("city_grid", "parking_gap", "fleet_loopback")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def source_identity() -> dict:
    """Commit (when the checkout is a git work tree) and a digest of the atlas sources."""
    from measure import digest

    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    files = sorted((SRC / "atlas").glob("*.py"))
    blob = b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files)
    return {"commit": commit, "source_digest": digest(blob)}


def provenance(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        **source_identity(),
    }


def print_metric(name: str, value: float, unit: str, n: int) -> None:
    print(f"  {name:<36} {value:>16.6g} {unit:<9} n={n}")


def run_one(args: argparse.Namespace) -> int:
    import layers
    import workloads
    from measure import median
    from tracer import Tracer, aggregate, merge

    workloads.OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    passes, traced, tracer, not_restored = [], None, None, []
    error = None
    try:
        setup = workloads.setup_samples(wl.name, args.seed)
        wl.prepare()
        timed = 0.0
        # Start another pass only while it is expected to end within --seconds.
        while not passes or timed + timed / len(passes) <= args.seconds:
            passes.append(wl.run_pass())
            timed += passes[-1].wall_s
            if passes[-1].failed:
                break
        peak_rss = wl.peak_rss_mb()
        if args.trace and not passes[-1].failed:
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = wl.run_pass(tracer)
            finally:
                not_restored = tracer.restore()
            tracer.write(workloads.OUT / f"trace-{wl.name}-seed{args.seed}.json.gz")
        checks = wl.checks(passes + ([traced] if traced else []))
        if not any(p.sorties for p in passes):
            raise RuntimeError("no pass completed a sortie")
    except Exception:  # report any failure as a failed run, never as a result
        error = traceback.format_exc()
    finally:
        wl.close()
    if error is not None:
        print(error, file=sys.stderr)
        print(f"perfbench {args.workload}: run failed before its metrics were complete",
              file=sys.stderr)
        return 1

    all_passes = passes + ([traced] if traced else [])
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    e2e = {
        "setup_s": (median(setup), "s", len(setup)),
        "cpu_s_per_sortie": (median([p.cpu_s / p.sorties for p in passes if p.sorties]), "s", len(passes)),
        "peak_rss_mb": (peak_rss, "MB", 1),
    }
    extra = {"run.sorties_per_s": (median([p.sorties / p.wall_s for p in passes]), "1/s", len(passes))}
    extra |= wl.report_metrics(passes)

    per_layer: dict[str, tuple[float, str, int]] = {}
    if traced is not None:
        checks.append(("wrappers_restored", not not_restored,
                       f"not restored: {not_restored}" if not_restored else "every wrapped name is the original again"))
        agg = aggregate(tracer.names, tracer.spans)
        root = agg["pass"]
        checks.append(("spans_cover_timed_phase",
                       root["calls"] == 1 and abs(sum(r["self_s"] for r in agg.values()) - root["s"]) < 1e-6,
                       f"self times sum to {sum(r['self_s'] for r in agg.values()):.6f} s, traced wall {root['s']:.6f} s"))
        values, remote = wl.trace_extras(traced, tracer)
        counters = dict(tracer.counters)
        for key, value in remote.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        if "landmarks_final" in tracer.last:
            values.setdefault("mapcore.landmarks_final", tracer.last["landmarks_final"])
        values |= {name: v for name, (v, _unit, _n) in extra.items()}
        values["trace.overhead_ratio"] = traced.wall_s / median([p.wall_s for p in passes])
        values["trace.covered_share"] = 1.0 - root["self_s"] / root["s"]
        metrics = layers.layer_metrics(merge(agg, remote.get("agg", {})), counters, values)
        for name, value in metrics.items():
            if name in extra:
                n = extra[name][2]
            elif name == "trace.overhead_ratio":
                n = len(passes)
            else:
                n = 0 if name in layers.SUPPLIED and name not in values else 1
            per_layer[name] = (value, layers.UNITS[name], n)

    # A failed output check counts as one more failed operation.
    failed += sum(1 for _, ok, _ in checks if not ok)
    extra["failed_ratio"] = (failed / attempted, "ratio", attempted)
    correct = failed == 0
    reported = per_layer if args.trace else e2e
    record = provenance(args) | {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in e2e.items()},
        "report": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in extra.items()},
        "per_layer": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in per_layer.items()},
        "passes": [{"wall_s": p.wall_s, "cpu_s": p.cpu_s, "sorties": p.sorties} for p in passes],
        "traced_pass_wall_s": traced.wall_s if traced else None,
        "setup_samples_s": setup,
        "wrappers_installed": bool(traced),
        "digests": passes[0].digests | wl.digests,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
    }
    record_path = workloads.OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} nproc={record['nproc']} "
          f"passes={len(passes)}{' +1 traced' if traced else ''}")
    for name, (value, unit, n) in (e2e | extra).items():
        print_metric(name, value, unit, n)
    if per_layer:
        print("  per layer (traced pass):")
        for name, (value, unit, n) in per_layer.items():
            print_metric(name, value, unit, n)
    for name, ok, detail in checks:
        print(f"  check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    for name, value in record["digests"].items():
        print(f"  digest {name}: {value}")
    print(f"  record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in reported.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"] |= {f"{name}.{k}": v for k, v in result["metrics"].items()}
    print(json.dumps(combined))
    return worst if worst else (0 if combined["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "atlas" / "__init__.py").is_file():
        print(f"perfbench: no atlas sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Children inherit a default SIGINT even when this process was started
    # with it ignored, so servers can be stopped the way an operator does.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
