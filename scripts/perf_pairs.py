"""Alternating benchmark pairs of two checkouts of quelab.

    python3 scripts/perf_pairs.py --parent OLD --change NEW --workload qe_h2 qe_bianchi \
        --seeds 501 502 503 504 505 506 507 508 509 510

Runs `perfbench/run.py` of each checkout (in that checkout) once per workload,
seed and side, on the same workload and seed, at the run length `run_seconds`
of the parent's BENCHMARK.json, alternating which side runs first: the parent
for even pair indices, the change for odd ones.  Prints every run's metrics,
then one block per workload: per metric each side's median and quartiles, the
ratio of the medians (change / parent), the pairs each side won (ties count
for neither), whether a gain may be claimed (the change wins at least nine
tenths of the pairs, its median differs from the parent's by more than the
distance between the parent's quartiles, and it failed no more checks than
the parent), whether it regressed (its median is worse than the parent's
by more than the metric's `bound` in BENCHMARK.json, as a fraction of the
parent's median) and whether the pairs leave it unresolved (the distance
between the parent's quartiles exceeds that bound, so "no regression" shows
nothing, unless every change run beats every parent run).  Standard library
only.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path


def run_bench(checkout: Path, workload: str, seconds: float, seed: int) -> dict:
    """Metric name -> value of one untraced run; raises if the run printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{checkout}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["failed"] = result["failed"]
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], lower_is_better: bool = True,
              failed: tuple[int, int] = (0, 0), bound: float = math.inf) -> dict:
    """Pairwise comparison of one metric; parent[i] and change[i] form pair i,
    `failed` holds the failed checks of all of (parent, change)'s runs, and
    `bound` is the regression bound as a fraction of the parent's median."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many runs on each side, at least one")
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])
    return {
        "parent": pq, "change": cq,
        "ratio": cq[1] / pq[1] if pq[1] else float("nan"),
        "wins": wins, "losses": losses, "pairs": len(parent),
        "gain": wins >= 0.9 * len(parent) and gap > pq[2] - pq[0] and failed[1] <= failed[0],
        "regressed": -gap > bound * abs(pq[1]),
        "unresolved": pq[2] - pq[0] > bound * abs(pq[1])
        and not all(sign * (c - p) < 0.0 for c in change for p in parent),
    }


def compare(parent: Path, change: Path, workload: str, seeds: list[int], spec: dict) -> None:
    """Run the alternating pairs of one workload and print its summary block."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(parent if side == "parent" else change, workload, seconds, seed)
            runs[side].append(result)
            print(f"{workload} pair {i} seed {seed} {side:<6} "
                  + " ".join(f"{k}={v:.6g}" for k, v in result.items()), flush=True)

    failed = tuple(sum(r["failed"] for r in runs[side]) for side in ("parent", "change"))
    print(f"\n{workload}, {len(seeds)} pairs of {seconds:g} s runs "
          "(median [q1, q3]); ratio = change / parent")
    for name in runs["parent"][0]:
        if name == "failed":
            continue
        m = metrics.get(name, {})
        s = summarize([r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                      m.get("better", "lower") == "lower", failed, m.get("bound", math.inf))
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        print(f"  {name:<12} parent {p2:.4g} [{p1:.4g}, {p3:.4g}]  change {c2:.4g} "
              f"[{c1:.4g}, {c3:.4g}]  ratio {s['ratio']:.3f}  change won {s['wins']} "
              f"of {s['pairs']}, lost {s['losses']}  gain {'yes' if s['gain'] else 'no'}  "
              f"regressed {'yes' if s['regressed'] else 'no'}  "
              f"unresolved {'yes' if s['unresolved'] else 'no'}")
    print(f"  failed checks: parent {failed[0]}, change {failed[1]}\n", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    for workload in args.workload:
        compare(args.parent, args.change, workload, args.seeds, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
