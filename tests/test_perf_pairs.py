"""The summary of scripts/perf_pairs.py on fixed numbers."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "perf_pairs.py"
_SPEC = importlib.util.spec_from_file_location("perf_pairs", _PATH)
perf_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_pairs)


def test_summary_counts_wins_and_applies_the_gain_rule():
    parent = [1.0, 1.2, 1.1, 1.3, 1.0, 1.4, 1.2, 1.1, 1.0, 1.3]
    change = [0.7, 0.8, 0.9, 0.8, 1.0, 0.9, 0.8, 0.7, 0.8, 0.9]
    s = perf_pairs.summarize(parent, change)
    assert s["parent"] == pytest.approx((1.025, 1.15, 1.275))
    assert s["change"] == pytest.approx((0.8, 0.8, 0.9))
    assert s["ratio"] == pytest.approx(0.8 / 1.15)
    # pair 4 is a tie: it counts for neither side
    assert (s["wins"], s["losses"], s["pairs"]) == (9, 0, 10)
    assert s["gain"]
    # same wins, but a median gap (0.05) inside the parent's quartile distance
    assert not perf_pairs.summarize(parent, [p - 0.05 for p in parent[:4]] + [1.0]
                                     + [p - 0.05 for p in parent[5:]])["gain"]
    # a gap past the quartiles with only 8 wins of 10
    assert not perf_pairs.summarize(parent, change[:8] + [1.5, 1.5])["gain"]
    # the same numbers, but the change failed more checks than the parent
    assert not perf_pairs.summarize(parent, change, failed=(0, 1))["gain"]
    assert perf_pairs.summarize(parent, change, failed=(2, 2))["gain"]
    # higher is better: the same numbers read the other way round
    flipped = perf_pairs.summarize(parent, change, lower_is_better=False)
    assert (flipped["wins"], flipped["losses"], flipped["gain"]) == (0, 9, False)
    with pytest.raises(ValueError):
        perf_pairs.summarize([1.0], [])
    # regression: median 1.15 against a bound of 0.25, so 1.43 is inside it and
    # 1.44 past it; no bound, no regression
    assert not perf_pairs.summarize(parent, [1.43] * 10, bound=0.25)["regressed"]
    assert perf_pairs.summarize(parent, [1.44] * 10, bound=0.25)["regressed"]
    assert not perf_pairs.summarize(parent, [1.44] * 10)["regressed"]
    # higher is better: falling by more than the bound regresses
    assert perf_pairs.summarize(parent, [1.0] * 10, lower_is_better=False, bound=0.1)["regressed"]
    assert not perf_pairs.summarize(parent, [1.1] * 10, lower_is_better=False,
                                    bound=0.1)["regressed"]


def test_spread_past_the_bound_is_unresolved():
    """Parent quartiles 1.025 and 1.275 around a median of 1.15: a spread of
    0.25 / 1.15 = 0.217, past a bound of 0.2 and inside one of 0.25."""
    parent = [1.0, 1.2, 1.1, 1.3, 1.0, 1.4, 1.2, 1.1, 1.0, 1.3]
    same = perf_pairs.summarize(parent, parent, bound=0.2)
    assert same["unresolved"] and not same["regressed"]
    assert not perf_pairs.summarize(parent, parent, bound=0.25)["unresolved"]
    assert not perf_pairs.summarize(parent, parent)["unresolved"]
    # every change run beats every parent run: resolved whatever the spread;
    # one change run level with the fastest parent run is not enough
    assert not perf_pairs.summarize(parent, [0.9] * 10, bound=0.2)["unresolved"]
    assert perf_pairs.summarize(parent, [0.9] * 9 + [1.0], bound=0.2)["unresolved"]
    # higher is better: every change run above every parent run
    assert not perf_pairs.summarize(parent, [1.5] * 10, lower_is_better=False,
                                    bound=0.2)["unresolved"]
    assert perf_pairs.summarize(parent, [0.9] * 10, lower_is_better=False,
                                bound=0.2)["unresolved"]


def test_one_block_per_workload_with_the_regression_rule(tmp_path, monkeypatch, capsys):
    """Several workloads run in turn, each with its own summary block, and a
    metric whose median is worse than the BENCHMARK.json bound reads
    `regressed yes`."""
    spec = {"run_seconds": 1, "end_to_end": [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}
    (tmp_path / "BENCHMARK.json").write_text(perf_pairs.json.dumps(spec))
    seen = []

    def fake_run(checkout, workload, seconds, seed):
        seen.append((checkout.name, workload, seed))
        slow = checkout.name == "change" and workload == "b"
        return {"wall_s": 2.0 if slow else 1.0, "peak_rss_mb": 30.0, "failed": 0}

    (tmp_path / "change").mkdir()
    monkeypatch.setattr(perf_pairs, "run_bench", fake_run)
    assert perf_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path / "change"),
                            "--workload", "a", "b", "--seeds", "1", "2"]) == 0
    assert [w for _, w, _ in seen] == ["a"] * 4 + ["b"] * 4
    # the parent runs first in even pairs, the change in odd ones
    assert seen[:4] == [(tmp_path.name, "a", 1), ("change", "a", 1),
                        ("change", "a", 2), (tmp_path.name, "a", 2)]
    out = capsys.readouterr().out
    blocks = out.split("\n\n")
    a = next(b for b in blocks if b.startswith("a, 2 pairs"))
    b = next(b for b in blocks if b.startswith("b, 2 pairs"))
    assert "regressed no" in a and "regressed yes" not in a
    wall_b = next(line for line in b.splitlines() if "wall_s" in line)
    assert "regressed yes" in wall_b and wall_b.endswith("unresolved no")
