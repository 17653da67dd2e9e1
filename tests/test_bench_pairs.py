"""The summary that tools/bench_pairs.py writes from alternating benchmark pairs."""

import importlib.util
import json
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


def fake_result(path, wall_s, peak_rss_mb, decisions, decision_us_p50=20.0):
    """A result file shaped like perfbench's untraced one, trimmed to what is read."""
    metrics = {"setup_s": 0.1, "wall_s": wall_s, "decision_us_p50": decision_us_p50,
               "decision_us_p99": 90.0, "peak_rss_mb": peak_rss_mb}
    path.write_text(json.dumps({
        "result": {"failed": 0, "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}},
        "detail": {"raw_round_s": [wall_s + 0.125], "round_s": [wall_s], "decisions": decisions,
                   "peak_rss_mb": peak_rss_mb, "problems": []},
    }))
    return path


def test_pair_keeps_each_sides_decisions_next_to_its_peak_rss(tmp_path):
    runs = {"base": bench_pairs.read_result(fake_result(tmp_path / "b.json", 0.337, 60.7, 53728, 28.85)),
            "change": bench_pairs.read_result(fake_result(tmp_path / "c.json", 0.300, 62.0, 60112, 26.76))}
    assert bench_pairs.pair_detail(runs["change"]) == {
        "raw_round_s": [0.425], "round_s": [0.3], "decisions": 60112, "peak_rss_mb": 62.0}
    assert bench_pairs.end_to_end(runs["base"])["raw_wall_s"] == 0.337 + 0.125
    assert bench_pairs.end_to_end(runs["change"])["decision_us_p50"] == 26.76
    line = bench_pairs.pair_line(2, 10, "static-cli", "change", runs)
    assert line == ("pair 3/10 static-cli (change first): wall_s 0.3370 -> 0.3000, "
                    "decision_us_p50 28.85 -> 26.76, "
                    "peak_rss_mb 60.7 (53728 decisions) -> 62.0 (60112 decisions)")


def test_episode_summary_keeps_every_round_with_its_spread():
    # three rounds' {policy: seconds}, as each episode process prints them
    rl = [0.75, 0.5, 0.875]
    rounds = [{"local": 0.03, "offload": 0.07, "threshold": 0.06, "greedy": 0.25 + i, "rl": x}
              for i, x in enumerate(rl)]
    s = bench_pairs.episode_summary(rounds)
    assert s.keys() == set(bench_pairs.EPISODE_POLICIES)
    assert s["rl"] == {"rounds": rl, "min": 0.5, "median": 0.75, "max": 0.875}
    assert s["greedy"] == {"rounds": [0.25, 1.25, 2.25], "min": 0.25, "median": 1.25, "max": 2.25}
    assert s["local"] == {"rounds": [0.03] * 3, "min": 0.03, "median": 0.03, "max": 0.03}


def test_result_with_a_failed_episode_is_refused(tmp_path):
    path = fake_result(tmp_path / "r.json", 0.3, 60.0, 100)
    run = json.loads(path.read_text())
    run["result"]["failed"], run["detail"]["problems"] = 1, ["metrics.json sha256 differs"]
    path.write_text(json.dumps(run))
    with pytest.raises(RuntimeError, match="sha256 differs"):
        bench_pairs.read_result(path)


def test_source_lines_count_newlines_of_the_package_modules_only(tmp_path):
    pkg = tmp_path / "src" / "xredge"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    # a last line without a newline is not counted, as `wc -l` does not
    (pkg / "b.py").write_text("\n\nz = 3")
    (pkg / "notes.txt").write_text("not source\n")
    (tmp_path / "src" / "other.py").write_text("w = 4\n")
    assert bench_pairs.source_lines(tmp_path) == 4
    (pkg / "a.py").unlink()
    assert bench_pairs.source_lines(tmp_path) == 2
