"""quelab benchmark: seeded workloads, fresh processes, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload qe_h2 --seed 1 --seconds 30 --trace 0

Closed loop, one client: each repetition is a fresh `worker.py rep` process
that runs the whole seed-generated workload row after row on one thread, so
module caches start cold as in a `quelab` CLI call.  Repetitions follow each
other until --seconds have passed; every time metric is a median over
repetitions, the row percentiles too (each is taken within one repetition).
With --trace 1 repetitions alternate untraced and traced, and the per-layer
metrics come from the traced ones.  A last `worker.py check` process checks
the outputs.  The last stdout line is one JSON object; the exit code is 0
only if every check passed.  See README.md in this directory for the metric
tables.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def metric_units(section: str) -> list[tuple[str, str]]:
    """(name, unit) of every metric BENCHMARK.json lists under section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[section]]


WORKER_TIMEOUT_S = 170.0   # every run must end within 180 s
CHECK_RESERVE_S = 25.0     # kept back for the check process


class BenchError(Exception):
    """A worker crashed or ran out of time; no result is printed."""


def run_worker(args: list[str], timeout: float) -> tuple[dict, float, float]:
    """Run worker.py; return its JSON result, spawn time and duration."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    duration = time.monotonic() - spawned
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), spawned, duration


def run_reps(work: Path, spec: Path, seconds: float, trace: bool, started: float):
    """Fresh-process repetitions until the measuring time is used up."""
    reps = []
    durations = []
    t0 = time.monotonic()
    min_reps = 4 if trace else 2
    while True:
        traced = trace and len(reps) % 2 == 1
        k = len(reps)
        args = ["rep", str(spec), str(work / f"rep{k}.csv")]
        if traced:
            args += ["--trace", str(work / f"spans{k}.jsonl")]
        budget = WORKER_TIMEOUT_S - CHECK_RESERVE_S - (time.monotonic() - started)
        result, spawned, duration = run_worker(args, budget)
        result["setup_s"] = result.pop("ready") - spawned
        result["traced"] = traced
        result["spans"] = str(work / f"spans{k}.jsonl") if traced else None
        reps.append(result)
        durations.append(duration)
        elapsed = time.monotonic() - t0
        # stop where the next repetition would end nearer past the deadline
        # than this one ends before it
        if len(reps) >= min_reps and elapsed + 0.5 * statistics.median(durations) >= seconds:
            return reps


def end_to_end(reps: list[dict], names: list[str]) -> dict:
    """Medians over repetitions; each repetition's row percentiles are added
    to its dict first, so that they too are medians of per-repetition values."""
    for r in reps:
        _, r["row_ms_p50"], r["row_ms_p75"] = statistics.quantiles(
            r["row_ms"], n=4, method="inclusive")
    return {k: statistics.median(r[k] for r in reps) for k in names}


def per_layer(reps: list[dict], names: list[str]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced repetitions; also a list of warnings."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    first = traced[0]["layers"]
    warnings = [f"binding not found: {m}" for m in first["missing"]]
    for other in traced[1:]:
        layers = other["layers"]
        for stat in ("calls", "args", "hits", "points"):
            if layers[stat] != first[stat]:
                warnings.append(f"{stat} differ between traced repetitions")

    def self_s(name: str) -> float:
        return statistics.median(r["layers"]["self_s"].get(name, 0.0) for r in traced)

    out = {}
    for metric in names:
        layer, _, stat = metric.rpartition(".")
        calls = first["calls"].get(layer, 0)
        if stat == "calls":
            out[metric] = calls
        elif stat == "args":
            out[metric] = first["args"].get(layer, 0)
        elif stat == "self_s":
            out[metric] = self_s(layer)
        elif stat == "hit_ratio":
            out[metric] = first["hits"].get(layer, 0) / calls if calls else 0.0
    wall = statistics.median(r["wall_s"] for r in traced)
    out["zeta.cache_entries"] = traced[0]["zeta_cache_entries"]
    out["geometry.points"] = first["points"]
    out["trace.overhead_frac"] = wall / statistics.median(r["wall_s"] for r in plain) - 1.0
    out["trace.errors"] = sum(first["errors"].values())
    return out, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="two-row configs, for the self-test")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "quelab" / "__init__.py").is_file():
        print(f"perfbench: no quelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    work = base / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec = work / "spec.json"
        spec.write_text(json.dumps(workloads.generate(args.workload, args.seed, args.tiny)))
        reps = run_reps(work, spec, args.seconds, bool(args.trace), started)
        budget = WORKER_TIMEOUT_S - (time.monotonic() - started)
        check, _, check_s = run_worker(
            ["check", str(spec), *(str(work / f"rep{k}.csv") for k in range(len(reps)))],
            budget)
        if args.trace:
            spans = [r["spans"] for r in reps if r["traced"]][-1]
            shutil.move(spans, base / f"spans-{args.workload}.jsonl")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = check["rows"] + check["checks"] + check["tables"] - 1
    failed = check["error_rows"] + len(check["failed_checks"]) + check["mismatched_tables"]
    correct = failed == 0
    failed_frac = failed / attempted

    timed = [r for r in reps if not r["traced"]]
    end_to_end_units = metric_units("end_to_end")
    e2e = end_to_end(timed, [name for name, _ in end_to_end_units])
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"repetitions={len(reps)} rows={check['rows']} check_s={check_s:.1f}")
    print("env: " + json.dumps(check["env"], sort_keys=True))
    for name, unit in end_to_end_units:
        vals = [r[name] for r in timed]
        print(f"  {name:<14} {e2e[name]:12.6g} {unit}"
              f"  (min {min(vals):.4g}, max {max(vals):.4g})")
    print(f"  {'failed_frac':<14} {failed_frac:12.6g} ratio  ({failed} of {attempted})")
    print(f"  {'check_ratio':<14} {check['check_ratio']:12.6g} ratio  "
          f"(worst: {check['worst']})")
    for msg in check["failed_checks"]:
        print(f"  FAILED {msg}")
    if check["error_rows"] or check["mismatched_tables"]:
        print(f"  FAILED {check['error_rows']} error rows, "
              f"{check['mismatched_tables']} tables differ from the first")

    if args.trace:
        per_layer_units = metric_units("per_layer")
        layers, warnings = per_layer(reps, [name for name, _ in per_layer_units])
        layers["checks.check_ratio"] = check["check_ratio"]
        layers["checks.failed_frac"] = failed_frac
        for msg in warnings:
            print(f"  warning: {msg}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_units}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in end_to_end_units}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
