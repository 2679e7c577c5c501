"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload with two-row configs and checks the output contract:
each metric named in BENCHMARK.json prints exactly once with its unit, a
traced run's call counts and hit ratios repeat exactly for one seed, and
the self times of a row's spans add up to the row's span.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import ROW  # noqa: E402

END_TO_END = run.metric_units("end_to_end")
PER_LAYER = run.metric_units("per_layer")


def _bench(workload: str, trace: int, seed: int = 7, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc) -> tuple[dict, list[str]]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()

    def no_duplicates(pairs):
        keys = [k for k, _ in pairs]
        assert len(keys) == len(set(keys)), keys
        return dict(pairs)

    return json.loads(lines[-1], object_pairs_hook=no_duplicates), lines[:-1]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 3) == workloads.generate(name, 3)
        assert workloads.generate(name, 3) != workloads.generate(name, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_print_once_with_units(workload):
    result, report = _result(_bench(workload, trace=0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == list(END_TO_END)
    for name, unit in [*END_TO_END, ("failed_frac", "ratio"), ("check_ratio", "ratio")]:
        table = [line for line in report if line.split()[:1] == [name]]
        assert len(table) == 1 and table[0].split()[2] == unit, (name, table)
        assert sum(line.split()[:1] == [name] for line in report) == 1
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_self_times_add_up(workload):
    first, report = _result(_bench(workload, trace=1))
    second, _ = _result(_bench(workload, trace=1))
    assert [(k, v["unit"]) for k, v in first["metrics"].items()] == list(PER_LAYER)
    assert not [line for line in report if "warning" in line], report
    for name, unit in PER_LAYER:
        if unit == "count" or name.endswith("hit_ratio"):
            assert first["metrics"][name] == second["metrics"][name], name

    rows: dict[int, list[float]] = {}
    with open(ROOT / ".perfbench" / f"spans-{workload}.jsonl") as fh:
        for line in fh:
            span = json.loads(line)
            if span["row"] < 0:
                continue
            entry = rows.setdefault(span["row"], [0.0, 0.0])
            entry[1] += span["self"]
            if span["name"] == ROW:
                entry[0] = span["end"] - span["start"]
    assert rows
    for row_span, self_sum in rows.values():
        assert row_span > 0.0
        assert self_sum == pytest.approx(row_span, rel=1e-9, abs=1e-12)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(workloads.WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
