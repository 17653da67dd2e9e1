"""The summary that tools/bench_pairs.py writes from alternating benchmark pairs."""

import importlib.util
import json
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from xredge import harness

CHECKOUT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", CHECKOUT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def pairs_of(base, change, name="wall_s"):
    """Pairs of one metric whose first side alternates, base first, as bench runs them."""
    return [{"first": bench_pairs.SIDES[k % 2], "base": {name: b}, "change": {name: c}}
            for k, (b, c) in enumerate(zip(base, change))]


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
    assert s["change_wins_by_first"] == {"base": 5, "change": 5}
    assert s["gain_resolved"]


def test_summary_splits_the_wins_by_the_side_that_ran_first():
    # the side that runs first reads faster: the change wins each pair it
    # ran first in and loses each it ran second in, though the medians tie
    base = [10.0, 11.0] * 5
    change = [11.0, 10.0] * 5
    s = bench_pairs.summarize(pairs_of(base, change))["wall_s"]
    assert s["first"] == ["base", "change"] * 5
    assert s["change_wins"] == 5 and s["change_wins_by_first"] == {"base": 0, "change": 5}
    assert s["median_change_pct"] == 0.0 and not s["gain_resolved"]


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
    pairs = [{"first": "change", "base": {"wall_s": 1.0, "peak_rss_mb": 50.0},
              "change": {"wall_s": 0.9, "peak_rss_mb": 51.0}}]
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
                   "peak_rss_mb": peak_rss_mb, "problems": [], "machine": {}},
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
    report = json.loads((CHECKOUT / "BENCH_30.json").read_text())
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


class Repo:
    """A temporary two-commit git repository that stands in for the checkout
    (`bench_pairs.ROOT`): the base commit, a change commit, then an
    uncommitted edit, an untracked file under `src/` and an ignored file."""

    def __init__(self, path: Path):
        self.path = path
        (path / "src").mkdir()
        (path / "perfbench").mkdir()
        (path / "perfbench" / "spec.py").write_text("RUN_SECONDS = 20\n")
        (path / "src" / "a.py").write_text("x = 1\n")
        (path / "gone.txt").write_text("only in the base\n")
        (path / ".gitignore").write_text("*.log\n.perfbench_out/\n")
        self.git("init", "-q")
        self.commit("base")
        self.base = self.git("rev-parse", "HEAD")
        (path / "src" / "a.py").write_text("x = 2\n")
        (path / "gone.txt").unlink()
        self.commit("change")
        (path / "src" / "a.py").write_text("x = 3\n")
        (path / "src" / "new.py").write_text("y = 1\n")
        (path / "src" / "run.log").write_text("ignored\n")

    def git(self, *args: str) -> str:
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=self.path,
                              check=True, capture_output=True, text=True).stdout.strip()

    def commit(self, message: str):
        self.git("add", "-A")
        self.git("commit", "-q", "-m", message)

    def state(self) -> tuple[str, str, str]:
        """What the tool must leave as it is: the status, the index and HEAD."""
        return (self.git("status", "--porcelain", "--untracked-files=all"), self.git("diff", "--cached"),
                self.git("rev-parse", "HEAD"))


@pytest.fixture
def repo(tmp_path, monkeypatch):
    (tmp_path / "repo").mkdir()
    repo = Repo(tmp_path / "repo")
    monkeypatch.setattr(bench_pairs, "ROOT", repo.path)
    return repo


def test_worktree_tree_holds_edits_and_untracked_files_and_leaves_the_checkout_alone(repo):
    before = repo.state()
    tree = bench_pairs.worktree_tree()
    assert repo.state() == before
    # the uncommitted edit and the untracked file are in; the ignored file is not
    assert repo.git("ls-tree", "-r", "--name-only", tree).split() == [
        ".gitignore", "perfbench/spec.py", "src/a.py", "src/new.py"]
    assert repo.git("show", f"{tree}:src/a.py") == "x = 3"
    assert tree != repo.git("rev-parse", "HEAD^{tree}")


def test_episode_seconds_summarize_per_policy_over_the_pairs():
    # three pairs' {policy: seconds}, as each side's episode process prints them
    base_rl, change_rl = [0.75, 0.5, 0.875], [0.625, 0.625, 0.75]
    pairs = [{"first": bench_pairs.SIDES[i % 2],
              **{side: {"local": 0.03, "offload": 0.07, "threshold": 0.06, "greedy": 0.25 + i, "rl": rl}
                 for side, rl in zip(bench_pairs.SIDES, rls)}} for i, rls in enumerate(zip(base_rl, change_rl))]
    s = bench_pairs.summarize(pairs)
    assert s.keys() == set(bench_pairs.EPISODE_POLICIES)
    assert s["rl"]["base"] == base_rl and s["rl"]["change"] == change_rl
    assert (s["rl"]["base_median"], s["rl"]["change_median"]) == (0.75, 0.625)
    assert s["rl"]["base_iqr"] == 0.1875 and s["rl"]["change_wins"] == 2 and s["rl"]["pairs"] == 3
    # equal seconds tie in every pair, and no gain resolves
    assert s["local"]["change_wins"] == 0 and not s["local"]["gain_resolved"]
    assert s["greedy"]["base"] == s["greedy"]["change"] == [0.25, 1.25, 2.25]


def test_step_us_times_both_cases_in_process_and_the_job_script_holds_it():
    us = bench_pairs.step_us(batches=2, calls=3)
    assert us.keys() == {"local", "offload"}
    assert all(0.0 < x < 1e6 for x in us.values())
    # each step job's process defines the same function from its source
    assert bench_pairs._JOB_SCRIPT.startswith("def step_us(batches: int = 7, calls: int = 1500)")
    assert 'step_us() if job == "step_us"' in bench_pairs._JOB_SCRIPT


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
    assert (bench_pairs.episode_s("local", seed=4), bench_pairs.episode_s("rl", seed=4)) == (0.25, 1.5)
    assert runs == [("local", 1200.0, (4,), 4)] * 4 + [("rl", 1200.0, (4,), 4)] * 4
    # each episode job's process runs the same function for its one policy
    assert "episode_s(args[0], int(args[1]))" in bench_pairs._JOB_SCRIPT
    assert "\ndef episode_s(policy: str, seed: int, runs: int = 3)" in bench_pairs._JOB_SCRIPT


def test_a_job_prints_its_value_from_a_fresh_process_with_the_checkouts_source():
    seconds = bench_pairs.run_job(bench_pairs.ROOT, "episode_s", "local", "1")
    assert isinstance(seconds, float) and 0.0 < seconds < 60.0


def test_step_pairs_summarize_per_case_and_print_the_medians_and_wins():
    step = bench_pairs.summarize([
        {"first": "base", "base": {"local": 9.5, "offload": 20.5}, "change": {"local": 9.0, "offload": 20.25}},
        {"first": "change", "base": {"local": 9.25, "offload": 21.0}, "change": {"local": 9.75, "offload": 20.0}}])
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


def test_tree_dirs_hold_each_sides_tree_in_like_directories_and_are_removed(repo):
    sides = {"base": repo.base, "change": bench_pairs.worktree_tree()}
    with bench_pairs.tree_dir(sides["base"]) as base, bench_pairs.tree_dir(sides["change"]) as change:
        roots = {"base": base, "change": change}
        for side, rev in sides.items():
            files = sorted(p.relative_to(roots[side]).as_posix() for p in roots[side].rglob("*") if p.is_file())
            assert files == repo.git("ls-tree", "-r", "--name-only", rev).split()
            for name in files:
                assert (roots[side] / name).read_text() == repo.git("show", f"{rev}:{name}") + "\n"
        assert (base / "src" / "a.py").read_text() == "x = 1\n" and (base / "gone.txt").exists()
        assert (change / "src" / "a.py").read_text() == "x = 3\n" and not (change / "src" / "run.log").exists()
        assert base.parent == change.parent and len(base.name) == len(change.name)
    assert not base.exists() and not change.exists()


@pytest.mark.parametrize("flag", [["--base-dir", "base"], ["--seconds", "20"]])
def test_base_dir_and_seconds_are_refused(capsys, flag):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--base", "HEAD", "--out", "B.json", *flag])
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def bench_of(medians):
    """A BENCH dict trimmed to what `chain` reads, from {workload: {metric: (base median, change median)}}."""
    return {"workloads": {w: {"metrics": {m: {"base_median": b, "change_median": c} for m, (b, c) in ms.items()}}
                          for w, ms in medians.items()}}


def test_chain_multiplies_the_files_median_ratios_and_runs_nothing(tmp_path, capsys, monkeypatch):
    first = bench_of({"greedy-cycle": {"wall_s": (2.0, 1.5), "peak_rss_mb": (50.0, 55.0)},
                      "static-cli": {"wall_s": (1.0, 0.9)}})
    second = bench_of({"greedy-cycle": {"wall_s": (1.5, 1.2), "peak_rss_mb": (55.0, 55.0), "setup_s": (1.0, 2.0)}})
    # only what every file holds: static-cli and setup_s are not chained
    ratios = bench_pairs.chain([first, second])
    assert ratios == {"greedy-cycle": {"wall_s": pytest.approx(0.6), "peak_rss_mb": pytest.approx(1.1)}}
    assert list(ratios["greedy-cycle"]) == ["wall_s", "peak_rss_mb"]
    assert bench_pairs.chain([first])["static-cli"] == {"wall_s": 0.9}

    paths = [tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"]
    for path, report in zip(paths, (first, second)):
        path.write_text(json.dumps(report))
    for name in ("git", "bench", "run_perfbench", "run_job"):
        monkeypatch.setattr(bench_pairs, name, lambda *a, **k: pytest.fail("--chain ran something"))
    assert bench_pairs.main(["--chain", *map(str, paths)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "greedy-cycle: wall_s ×0.600, peak_rss_mb ×1.100", f"chained 2 files: {paths[0]} {paths[1]}"]


@pytest.mark.parametrize("argv", [["--base", "HEAD"], ["--out", "B.json"], [],
                                  ["--chain", "B.json", "--base", "HEAD"], ["--chain", "B.json", "--out", "C.json"]])
def test_a_run_needs_base_and_out_and_a_chain_takes_neither(capsys, argv):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(argv)
    assert "--base" in capsys.readouterr().err


def fake_perfbench_run(calls, sides):
    """A `run_perfbench` that logs (perfbench, side, trace) and returns a
    result whose decisions count the calls so far."""
    def run(root, workload, seed, seconds, trace, keep):
        calls.append(("perfbench", sides[root], trace))
        metrics = {k: {"value": 1.0} for k in ("setup_s", "wall_s", "decision_us_p50", "decision_us_p99",
                                               "peak_rss_mb")}
        return {"result": {"failed": 0, "metrics": metrics},
                "detail": {"raw_round_s": [1.0], "round_s": [1.0], "decisions": len(calls), "peak_rss_mb": 1.0,
                           "machine": {}}}
    return run


def test_each_timed_job_runs_in_its_own_process_in_each_pairs_side_order(tmp_path, monkeypatch):
    roots = {side: tmp_path / side for side in bench_pairs.SIDES}
    sides = {root: side for side, root in roots.items()}
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        assert cmd[:3] == [sys.executable, "-c", bench_pairs._JOB_SCRIPT]
        assert kwargs["env"]["PYTHONPATH"] == str(cwd / "src")
        calls.append((sides[cwd], *cmd[3:]))
        value = {"local": 10.0, "offload": 20.0} if cmd[3] == "step_us" else float(len(calls))
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(value) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs, "run_perfbench", fake_perfbench_run([], sides))
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    report = bench_pairs.bench(roots, ["static-cli"], 2, 20.0, 7, True, tmp_path / "keep")
    jobs = [*(("episode_s", policy, "7") for policy in bench_pairs.EPISODE_POLICIES), ("step_us",)]
    assert calls == [(side, *job) for order in (("base", "change"), ("change", "base"))
                     for side in order for job in jobs]
    # each job's one value lands under its policy or case
    assert report["episode_s"]["rl"]["base"] == [5.0, 23.0]
    assert report["episode_s"]["rl"]["change"] == [11.0, 17.0]
    assert report["step_us"]["offload"]["change"] == [20.0, 20.0]


def test_a_failed_job_names_itself_and_its_stderr(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda cmd, **kwargs: subprocess.CompletedProcess(cmd, 1, stdout="", stderr="boom"))
    with pytest.raises(RuntimeError, match="episode_s rl 1 in .* exited 1:\nboom"):
        bench_pairs.run_job(tmp_path, "episode_s", "rl", "1")


def test_traced_pairs_time_the_episodes_once_per_side_in_each_pairs_order(tmp_path, monkeypatch):
    revs = {"0" * 40: "base", "1" * 40: "change"}
    roots = {rev: tmp_path / side for rev, side in revs.items()}
    sides = {roots[rev]: side for rev, side in revs.items()}
    calls, trees = [], []

    @contextmanager
    def fake_tree_dir(rev):
        trees.append(rev)
        yield roots[rev]

    def fake_episodes(root, seed):
        calls.append(("episodes", sides[root], None))
        return {"episode_s": {p: float(len(calls)) for p in bench_pairs.EPISODE_POLICIES},
                "step_us": {"local": 10.0 + len(calls), "offload": 20.0 + len(calls)}}

    def fake_git(*args):
        return "0" * 40 if args[0] == "rev-parse" else ""

    monkeypatch.setattr(bench_pairs, "run_perfbench", fake_perfbench_run(calls, sides))
    monkeypatch.setattr(bench_pairs, "episode_round", fake_episodes)
    monkeypatch.setattr(bench_pairs, "tree_dir", fake_tree_dir)
    monkeypatch.setattr(bench_pairs, "git", fake_git)
    monkeypatch.setattr(bench_pairs, "worktree_tree", lambda: "1" * 40)
    out = tmp_path / "BENCH_9.json"
    assert bench_pairs.main(["--base", "HEAD", "--out", str(out),
                             "--workload", "static-cli", "--pairs", "3", "--traced"]) == 0
    # both sides' trees are unpacked one way, the base's first
    assert trees == ["0" * 40, "1" * 40]
    # each pair's episodes follow its perfbench runs in its side order; the traced runs come last
    order = [("base", "change"), ("change", "base"), ("base", "change")]
    assert calls == [*(call for first, second in order for call in (
        ("perfbench", first, 0), ("perfbench", second, 0), ("episodes", first, None), ("episodes", second, None))),
        ("perfbench", "base", 1), ("perfbench", "change", 1)]
    report = json.loads(out.read_text())
    # the run length is the benchmark's, not an option
    assert report["seconds"] == json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert report["step_us"].keys() == {"local", "offload"}
    assert report["episode_s"].keys() == set(bench_pairs.EPISODE_POLICIES)
    for summary in (*report["step_us"].values(), *report["episode_s"].values()):
        assert summary["pairs"] == 3 and len(summary["base"]) == len(summary["change"]) == 3
    # the change side's episodes ran first in the second pair only
    assert report["episode_s"]["rl"]["base"] == [3.0, 8.0, 11.0]
    assert report["episode_s"]["rl"]["change"] == [4.0, 7.0, 12.0]
    # every summary records each pair's first side and splits its wins by it
    for summary in (*report["step_us"].values(), *report["episode_s"].values(),
                    *report["workloads"]["static-cli"]["metrics"].values()):
        assert summary["first"] == ["base", "change", "base"]
    assert report["episode_s"]["rl"]["change_wins_by_first"] == {"base": 0, "change": 1}


def test_every_side_runs_in_its_own_temporary_tree_and_never_in_the_checkout(repo, tmp_path, monkeypatch):
    real_run, runs = subprocess.run, []

    def fake_run(cmd, cwd=None, **kwargs):
        if cmd[0] == "git":
            return real_run(cmd, cwd=cwd, **kwargs)
        cwd = Path(cwd)
        runs.append((cwd, (cwd / "src" / "a.py").read_text()))
        if cmd[1] == "perfbench/run.py":
            a = dict(zip(cmd[2::2], cmd[3::2]))
            (cwd / ".perfbench_out").mkdir(exist_ok=True)
            fake_result(cwd / ".perfbench_out" / f"result-{a['--workload']}-seed{a['--seed']}-trace{a['--trace']}.json",
                        1.0, 50.0, len(runs))
            return subprocess.CompletedProcess(cmd, 0, stdout="", stderr="")
        assert kwargs["env"]["PYTHONPATH"] == str(cwd / "src")
        value = {"local": 10.0, "offload": 20.0} if cmd[3] == "step_us" else 1.0
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(value), stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    before = repo.state()
    out = tmp_path / "BENCH_9.json"
    assert bench_pairs.main(["--base", repo.base, "--out", str(out), "--workload", "static-cli",
                             "--pairs", "2", "--traced"]) == 0
    assert repo.state() == before
    # two pairs of perfbench runs and six jobs per side, then one traced run per side
    assert len(runs) == 2 * (2 + 2 * 6) + 2
    dirs = {cwd: source for cwd, source in runs}
    assert sorted(dirs.values()) == ["x = 1\n", "x = 3\n"]
    (parent,) = {d.parent for d in dirs}
    assert parent == Path(tempfile.gettempdir()) and len({len(d.name) for d in dirs}) == 1
    assert not any(d.exists() or d.is_relative_to(repo.path) or d.is_relative_to(CHECKOUT) for d in dirs)
    # each side's run files are named by their git tree ids
    report = json.loads(out.read_text())
    assert report["base_tree"] == {p: repo.git("rev-parse", f"{repo.base}:{p}") for p in ("src", "perfbench")}
    tree = bench_pairs.worktree_tree()
    assert report["change_tree"] == {p: repo.git("rev-parse", f"{tree}:{p}") for p in ("src", "perfbench")}
    assert report["change_dirty"] and report["change_sha"] == repo.git("rev-parse", "HEAD")
    assert len(list((repo.path / report["results_dir"]).iterdir())) == 2 * 2 + 2


@pytest.mark.skipif(not (CHECKOUT / ".git").exists(), reason="not a git checkout")
def test_the_checkout_ignores_what_benchmarks_tests_and_runs_leave_behind():
    # the change tree takes every untracked, unignored file (`git add -A`)
    ignored = [".perfbench_out/", "runs/", ".hypothesis/", "__pycache__/", "src/xredge/__pycache__/"]
    out = subprocess.run(["git", "check-ignore", *ignored], cwd=CHECKOUT, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ignored
