"""The summary that tools/bench_pairs.py writes from alternating benchmark pairs."""

import hashlib
import importlib.util
import json
import subprocess
import time
from pathlib import Path

import pytest

from xredge import harness

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


def fake_result(path, wall_s, peak_rss_mb, decisions, decision_us_p50=20.0, rounds=None):
    """A result file shaped like perfbench's untraced one, trimmed to what is
    read; its scaled round seconds are `rounds`, or wall_s alone."""
    rounds = rounds or [wall_s]
    metrics = {"setup_s": 0.1, "wall_s": wall_s, "decision_us_p50": decision_us_p50,
               "decision_us_p99": 90.0, "peak_rss_mb": peak_rss_mb}
    path.write_text(json.dumps({
        "result": {"failed": 0, "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}},
        "detail": {"raw_round_s": [r + 0.125 for r in rounds], "round_s": rounds, "decisions": decisions,
                   "peak_rss_mb": peak_rss_mb, "problems": []},
    }))
    return path


def test_pair_keeps_each_sides_decisions_next_to_its_peak_rss(tmp_path):
    runs = {"base": bench_pairs.read_result(fake_result(tmp_path / "b.json", 0.337, 60.7, 53728, 28.85)),
            "change": bench_pairs.read_result(fake_result(tmp_path / "c.json", 0.300, 62.0, 60112, 26.76))}
    assert bench_pairs.pair_detail(runs["change"]) == {
        "rounds": 1, "raw_round_s": {"q1": 0.425, "median": 0.425, "q3": 0.425},
        "round_s": {"q1": 0.3, "median": 0.3, "q3": 0.3}, "decisions": 60112, "peak_rss_mb": 62.0}
    assert bench_pairs.end_to_end(runs["base"])["raw_wall_s"] == 0.337 + 0.125
    assert bench_pairs.end_to_end(runs["change"])["decision_us_p50"] == 26.76
    line = bench_pairs.pair_line(2, 10, "static-cli", "change", runs)
    assert line == ("pair 3/10 static-cli (change first): wall_s 0.3370 -> 0.3000, "
                    "decision_us_p50 28.85 -> 26.76, "
                    "peak_rss_mb 60.7 (53728 decisions) -> 62.0 (60112 decisions)")


def test_pair_keeps_the_round_count_and_quartiles_not_every_round(tmp_path):
    rounds = [0.5, 0.25, 1.0, 0.75, 0.375]
    run = bench_pairs.read_result(fake_result(tmp_path / "r.json", 0.5, 60.0, 100, rounds=rounds))
    detail = bench_pairs.pair_detail(run)
    assert detail["rounds"] == 5
    assert detail["round_s"] == {"q1": 0.375, "median": 0.5, "q3": 0.75}
    assert detail["raw_round_s"] == {"q1": 0.5, "median": 0.625, "q3": 0.875}
    # the raw median is still the pair's raw_wall_s
    assert bench_pairs.end_to_end(run)["raw_wall_s"] == 0.625


def rounds_of(runs):
    """Pairs' rounds as `bench` keeps them, from ((base decisions, base peak),
    (change decisions, change peak)) per pair."""
    return [{side: {"decisions": d, "peak_rss_mb": peak} for side, (d, peak) in zip(bench_pairs.SIDES, pair)}
            for pair in runs]


def test_rss_fit_recovers_a_synthetic_sets_slope_and_offset():
    # 40 MB at no decision, 100 B per decision, and the change 2.5 MB lower
    a, b, c = 40.0, 100.0, -2.5
    decisions = [(120_000, 150_000), (200_000, 180_000), (90_000, 260_000), (300_000, 310_000)]
    runs = [tuple((d, a + b * d / 2**20 + c * k) for k, d in enumerate(pair)) for pair in decisions]
    fit = bench_pairs.rss_fit(rounds_of(runs))
    assert fit["bytes_per_decision"] == pytest.approx(b, rel=1e-9)
    assert fit["change_mb"] == pytest.approx(c, rel=1e-9)
    assert fit["change_mb_se"] == pytest.approx(0.0, abs=1e-9)
    assert fit["r2"] == pytest.approx(1.0) and fit["runs"] == 8


def test_rss_fit_needs_runs_that_determine_it():
    # one pair leaves no residual; equal decision counts on every run
    # cannot tell the slope from the offset
    assert bench_pairs.rss_fit(rounds_of([((100, 50.0), (200, 51.0))])) is None
    assert bench_pairs.rss_fit(rounds_of([((100, 50.0), (100, 51.0))] * 3)) is None


@pytest.mark.parametrize("workload, per_decision, change_mb", [
    ("static-cli", 96.5, -1.07),
    ("greedy-cycle", 93.6, -1.43),
])
def test_rss_fit_of_bench_30(workload, per_decision, change_mb):
    report = json.loads((Path(__file__).resolve().parent.parent / "BENCH_30.json").read_text())
    result = report["workloads"][workload]
    fit = bench_pairs.rss_fit(result["rounds"])
    assert fit["bytes_per_decision"] == pytest.approx(per_decision, abs=0.05)
    assert fit["change_mb"] == pytest.approx(change_mb, abs=0.005)
    assert fit["r2"] >= 0.99 and fit["runs"] == 20
    # the raw medians stay next to the fit: the change peaked higher there
    line = bench_pairs.rss_line(workload, {**result, "peak_rss_fit": fit})
    m = result["metrics"]["peak_rss_mb"]
    assert line.startswith(f"{workload} peak_rss_mb median {m['base_median']:.1f} -> {m['change_median']:.1f} MB; "
                           f"at equal decisions {change_mb:+.2f} ± ")


def test_tree_digest_names_uncommitted_edits_and_untracked_run_files(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=tmp_path,
                       check=True, capture_output=True)

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    clean = bench_pairs.tree_digest(tmp_path)
    assert clean == {"diff_sha256": hashlib.sha256(b"").hexdigest(), "untracked_sha256": {}}
    (tmp_path / "src" / "a.py").write_text("x = 2\n")
    edited = bench_pairs.tree_digest(tmp_path)
    assert edited["diff_sha256"] != clean["diff_sha256"]
    # an untracked file a run imports is named; one outside the run paths
    # and an ignored one are not
    (tmp_path / "src" / "b.py").write_text("y = 1\n")
    (tmp_path / "notes.txt").write_text("not run\n")
    (tmp_path / ".gitignore").write_text("*.pyc\n")
    (tmp_path / "src" / "b.pyc").write_bytes(b"\0")
    digest = bench_pairs.tree_digest(tmp_path)
    assert digest["diff_sha256"] == edited["diff_sha256"]
    assert digest["untracked_sha256"] == {"src/b.py": hashlib.sha256(b"y = 1\n").hexdigest()}


def test_episode_seconds_summarize_per_policy_over_the_pairs():
    # three pairs' {policy: seconds}, as each side's episode process prints them
    base_rl, change_rl = [0.75, 0.5, 0.875], [0.625, 0.625, 0.75]
    pairs = [{side: {"local": 0.03, "offload": 0.07, "threshold": 0.06, "greedy": 0.25 + i, "rl": rl}
              for side, rl in zip(bench_pairs.SIDES, rls)} for i, rls in enumerate(zip(base_rl, change_rl))]
    s = bench_pairs.summarize(pairs)
    assert s.keys() == set(bench_pairs.EPISODE_POLICIES)
    assert s["rl"]["base"] == base_rl and s["rl"]["change"] == change_rl
    assert (s["rl"]["base_median"], s["rl"]["change_median"]) == (0.75, 0.625)
    assert s["rl"]["base_iqr"] == 0.1875 and s["rl"]["change_wins"] == 2 and s["rl"]["pairs"] == 3
    # equal seconds tie in every pair, and no gain resolves
    assert s["local"]["change_wins"] == 0 and not s["local"]["gain_resolved"]
    assert s["greedy"]["base"] == s["greedy"]["change"] == [0.25, 1.25, 2.25]


def test_step_us_times_both_cases_in_process_and_the_episode_script_holds_it():
    us = bench_pairs.step_us(batches=2, calls=3)
    assert us.keys() == {"local", "offload"}
    assert all(0.0 < x < 1e6 for x in us.values())
    # each round's process defines the same function from its source
    assert bench_pairs._EPISODE_SCRIPT.startswith("def step_us(batches: int = 7, calls: int = 1500)")
    assert '"step_us": step_us()' in bench_pairs._EPISODE_SCRIPT


def test_episode_seconds_keep_each_policys_fastest_warm_run(monkeypatch):
    # each run advances a fake clock by its policy's next duration; the first
    # run of a policy is the untimed warm-up
    durations = {"local": [9.0, 0.5, 0.25, 0.375], "rl": [9.0, 2.0, 3.0, 1.5]}
    clock, runs = [0.0], []

    def fake_run(spec, seed):
        runs.append((spec.policy, spec.env.horizon_s, spec.seeds, seed))
        clock[0] += durations[spec.policy][sum(r[0] == spec.policy for r in runs) - 1]

    monkeypatch.setattr(harness, "run_experiment", fake_run)
    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    assert bench_pairs.episode_s(["local", "rl"], seed=4) == {"local": 0.25, "rl": 1.5}
    assert runs == [("local", 1200.0, (4,), 4)] * 4 + [("rl", 1200.0, (4,), 4)] * 4
    # each round's process runs the same function for every policy
    assert 'episode_s(sys.argv[2:], int(sys.argv[1]))' in bench_pairs._EPISODE_SCRIPT
    assert "\ndef episode_s(policies: list[str], seed: int, runs: int = 3)" in bench_pairs._EPISODE_SCRIPT


def test_step_pairs_summarize_per_case_and_print_the_medians_and_wins():
    step = bench_pairs.summarize([{"base": {"local": 9.5, "offload": 20.5}, "change": {"local": 9.0, "offload": 20.25}},
                                  {"base": {"local": 9.25, "offload": 21.0}, "change": {"local": 9.75, "offload": 20.0}}])
    assert step["offload"]["change"] == [20.25, 20.0] and step["offload"]["change_median"] == 20.125
    assert step["local"]["change_wins"] == 1 and step["offload"]["change_wins"] == 2
    assert bench_pairs.step_line(step) == ("XrEnvironment.step µs per call, median of pairs: "
                                           "local 9.38 -> 9.38 (1/2 won), offload 20.75 -> 20.12 (2/2 won)")


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


# a perfbench/run.py that writes the one result file of its workload, seed
# and trace, as perfbench's does, with the checkout's run count as its
# decisions
FAKE_RUN = """
import json, pathlib, sys
a = dict(zip(sys.argv[1::2], sys.argv[2::2]))
count = pathlib.Path("count")
n = int(count.read_text()) + 1 if count.exists() else 1
count.write_text(str(n))
out = pathlib.Path(".perfbench_out")
out.mkdir(exist_ok=True)
names = ("setup_s", "wall_s", "decision_us_p50", "decision_us_p99", "peak_rss_mb")
metrics = {k: {"value": 1.0} for k in names}
(out / f"result-{a['--workload']}-seed{a['--seed']}-trace{a['--trace']}.json").write_text(json.dumps({
    "result": {"failed": 0, "metrics": metrics},
    "detail": {"raw_round_s": [1.0], "round_s": [1.0], "decisions": n, "peak_rss_mb": 1.0,
               "machine": {}}}))
"""


def test_bench_keeps_every_runs_result_file_by_pair_workload_and_side(tmp_path):
    roots = {side: tmp_path / side for side in bench_pairs.SIDES}
    for root in roots.values():
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(FAKE_RUN)
    keep_dir = tmp_path / "main" / ".perfbench_out" / "BENCH_9"
    workloads = ["static-cli", "rl-cycle"]
    report = bench_pairs.bench(roots, workloads, 2, 0.5, 1, False, keep_dir)
    assert [pair["change"]["decisions"] for pair in report["workloads"]["rl-cycle"]["rounds"]] == [2, 4]
    # every peak is 1.0 MB: no slope, no change, and no R² to give
    fit = report["workloads"]["rl-cycle"]["peak_rss_fit"]
    assert fit["bytes_per_decision"] == pytest.approx(0.0, abs=1e-6) and fit["r2"] is None
    # each checkout holds one file per workload, its last run's; all eight are kept
    for root in roots.values():
        assert len(list((root / ".perfbench_out").iterdir())) == 2
    kept = {p.name: json.loads(p.read_text())["detail"]["decisions"] for p in keep_dir.iterdir()}
    assert kept == {f"pair{k:02d}-{w}-{side}.json": 2 * (k - 1) + 1 + workloads.index(w)
                    for k in (1, 2) for w in workloads for side in bench_pairs.SIDES}


def test_base_dir_is_taken_as_the_base_checkout_without_a_worktree(tmp_path, monkeypatch):
    base = tmp_path / "base"
    (base / "perfbench").mkdir(parents=True)
    (base / "perfbench" / "run.py").write_text("")
    monkeypatch.chdir(tmp_path)
    args = bench_pairs.parse_args(["--base", "HEAD~1", "--base-dir", "base", "--out", "BENCH_9.json"])
    # made absolute: perfbench runs with the checkout as its working directory
    assert (args.base, args.base_dir) == ("HEAD~1", base.resolve())
    assert bench_pairs.parse_args(["--base", "HEAD~1", "--out", "B.json"]).base_dir is None

    def no_git(*args, **kwargs):
        raise AssertionError(f"git {args} called")

    monkeypatch.setattr(bench_pairs, "git", no_git)
    with bench_pairs.base_checkout("0" * 40, args.base_dir) as root:
        assert root == base.resolve()
    assert (base / "perfbench" / "run.py").exists()


def test_base_dir_without_perfbench_is_refused(tmp_path, capsys):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--base", "HEAD", "--base-dir", str(tmp_path), "--out", "B.json"])
    assert "holds no perfbench/run.py" in capsys.readouterr().err


def test_traced_pairs_time_the_episodes_once_per_side_in_each_pairs_order(tmp_path, monkeypatch):
    base = tmp_path / "base"
    (base / "perfbench").mkdir(parents=True)
    (base / "perfbench" / "run.py").write_text("")
    sides = {base: "base", bench_pairs.ROOT: "change"}
    calls = []

    def fake_perfbench(root, workload, seed, seconds, trace, keep):
        calls.append(("perfbench", sides[root], trace))
        metrics = {k: {"value": 1.0} for k in ("setup_s", "wall_s", "decision_us_p50", "decision_us_p99",
                                               "peak_rss_mb")}
        return {"result": {"failed": 0, "metrics": metrics},
                "detail": {"raw_round_s": [1.0], "round_s": [1.0], "decisions": len(calls), "peak_rss_mb": 1.0,
                           "machine": {}}}

    def fake_episodes(root, seed):
        calls.append(("episodes", sides[root], None))
        return {"episode_s": {p: float(len(calls)) for p in bench_pairs.EPISODE_POLICIES},
                "step_us": {"local": 10.0 + len(calls), "offload": 20.0 + len(calls)}}

    def fake_git(*args, cwd=bench_pairs.ROOT):
        return "0" * 40 if args[0] == "rev-parse" else ""

    monkeypatch.setattr(bench_pairs, "run_perfbench", fake_perfbench)
    monkeypatch.setattr(bench_pairs, "episode_round", fake_episodes)
    monkeypatch.setattr(bench_pairs, "git", fake_git)
    monkeypatch.setattr(bench_pairs, "tree_digest", lambda root: {})
    out = tmp_path / "BENCH_9.json"
    assert bench_pairs.main(["--base", "HEAD", "--base-dir", str(base), "--out", str(out),
                             "--workload", "static-cli", "--pairs", "3", "--traced"]) == 0
    # each pair's episodes follow its perfbench runs in its side order; the traced runs come last
    order = [("base", "change"), ("change", "base"), ("base", "change")]
    assert calls == [*(call for first, second in order for call in (
        ("perfbench", first, 0), ("perfbench", second, 0), ("episodes", first, None), ("episodes", second, None))),
        ("perfbench", "base", 1), ("perfbench", "change", 1)]
    report = json.loads(out.read_text())
    assert report["step_us"].keys() == {"local", "offload"}
    assert report["episode_s"].keys() == set(bench_pairs.EPISODE_POLICIES)
    for summary in (*report["step_us"].values(), *report["episode_s"].values()):
        assert summary["pairs"] == 3 and len(summary["base"]) == len(summary["change"]) == 3
    # the change side's episodes ran first in the second pair only
    assert report["episode_s"]["rl"]["base"] == [3.0, 8.0, 11.0]
    assert report["episode_s"]["rl"]["change"] == [4.0, 7.0, 12.0]
