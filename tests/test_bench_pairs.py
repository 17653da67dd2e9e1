"""The summary that tools/bench_pairs.py writes from alternating benchmark pairs."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs_of(base, change, name="wall_s"):
    return [{"base": {name: b}, "change": {name: c}} for b, c in zip(base, change)]


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_summary_counts_wins_and_resolves_a_clear_gain():
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    change = [b - 3.0 for b in base]
    s = bench_pairs.summarize(pairs_of(base, change))["wall_s"]
    assert s["base"] == base and s["change"] == change
    assert s["base_median"] == 12.0 and s["change_median"] == 9.0
    assert s["base_iqr"] == 2.0 and s["change_iqr"] == 2.0
    assert s["median_change_pct"] == pytest.approx(-25.0)
    assert s["change_wins"] == 10 and s["pairs"] == 10
    assert s["gain_resolved"]


@pytest.mark.parametrize("base, change, wins", [
    # a tie wins for neither side: 8 of 10 pairs won is below nine tenths
    ([10.0] * 10, [9.0] * 8 + [10.0] * 2, 8),
    # every pair won, but by less than the base's IQR of 2.0
    ([10.0, 11.0, 12.0, 13.0, 14.0] * 2, [9.5, 10.5, 11.5, 12.5, 13.5] * 2, 10),
])
def test_summary_leaves_a_split_or_small_gain_unresolved(base, change, wins):
    s = bench_pairs.summarize(pairs_of(base, change))["wall_s"]
    assert s["change_wins"] == wins
    assert not s["gain_resolved"]


def test_summary_keeps_every_metric_of_the_pairs():
    pairs = [{"base": {"wall_s": 1.0, "peak_rss_mb": 50.0}, "change": {"wall_s": 0.9, "peak_rss_mb": 51.0}}]
    s = bench_pairs.summarize(pairs)
    assert s.keys() == {"wall_s", "peak_rss_mb"}
    assert s["peak_rss_mb"]["change_wins"] == 0 and s["wall_s"]["change_wins"] == 1
