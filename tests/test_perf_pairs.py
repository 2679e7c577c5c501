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
