"""Benchmark a change against a base commit in alternating pairs of runs.

    python tools/bench_pairs.py --base <rev> [--base-dir PATH] --out BENCH_<n>.json
        [--workload greedy-cycle ...] [--pairs 10] [--seconds 20] [--seed 1] [--traced]

The base side is `<rev>` checked out with `git worktree add` into a
temporary directory, which is removed again however the script ends, or,
with --base-dir, the directory given, which holds `<rev>`'s files made by
`git archive` or a clone and is left in place; the
change side is this checkout as it stands, which the script does not edit
(perfbench writes its results under `.perfbench_out/`, which git ignores).
Each pair runs the unchanged `perfbench/run.py --workload W --seed n
--seconds s --trace 0` once per side, and the side that runs first
alternates from pair to pair. Each side's
`.perfbench_out/result-<W>-seed<n>-trace0.json` is copied after its run to
this checkout's `.perfbench_out/<out stem>/pair<k>-<W>-<side>.json` (the
traced runs' to `traced-<W>-<side>.json`) and read there, so every run's
rounds outlive the base worktree and the next run of the same side.
With --traced, each side also runs `--trace 1` once per workload after the
pairs, for the per-layer metrics. Inside every pair, after its perfbench
runs and in its side order, each side also times each policy's 1200 s cycle
episode in-process with its own source (`episode_s`), the fastest of 3 warm
runs. Each such round is a fresh process that runs each policy's episode
once untimed first: a policy's first episode in a process pays a warm-up
(about 1 s for rl, 40 ms for local). After its episodes, the round also
times `XrEnvironment.step` in µs per call, the minimum of 7 batches of 1500
calls: local action 12 on the cycle profile and offload action 5 on stable
1000 Mbps (`step_us`).
Each policy's `episode_s` and each case's `step_us` are summarised as a
perfbench metric is, one value per side in each pair.

The output holds, per workload and metric, each pair's two values, each
side's median and interquartile range, and the number of pairs the change
won; next to the scaled round seconds (`wall_s`) it keeps the raw ones
(`raw_wall_s`), since perfbench scales round times by a speed probe.
Each pair also keeps, per side, the round count, the quartiles of the round
seconds (the kept result file holds each round) and, next to the peak RSS,
the decisions completed: perfbench logs every decision, so a faster side
that completes more rounds peaks higher. Next to the raw medians, each
workload's `peak_rss_fit` compares the peaks at an equal decision count:
the least-squares fit of `peak_rss_mb = a + b*decisions + c*[change side]`
over both sides' runs, with b in bytes per decision, c in MB with its
standard error, and R². The output also holds the kept
result files' directory, both commits, `change_tree` (a SHA-256 of the
change side's uncommitted edits and of each untracked file under `src/`
and `perfbench/`, which name the tree measured), the machine facts
perfbench records and each side's `src/xredge/*.py` line count, which the
last line printed shows too.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# perfbench's end-to-end metrics, all better lower, and the raw round time
METRICS = ("setup_s", "wall_s", "raw_wall_s", "decision_us_p50", "decision_us_p99", "peak_rss_mb")
SIDES = ("base", "change")
# the directories whose files a perfbench run imports
RUN_PATHS = ("src", "perfbench")
# the policies whose 1200 s cycle episode --traced times
EPISODE_POLICIES = ("local", "offload", "threshold", "greedy", "rl")


def step_us(batches: int = 7, calls: int = 1500) -> dict[str, float]:
    """Microseconds per `XrEnvironment.step` call of the xredge on the
    path: the minimum over `batches` batches of `calls` calls, each batch
    on a fresh environment whose horizon its last call ends, of local
    action 12 on the cycle profile and of offload action 5 on stable
    1000 Mbps. `_EPISODE_SCRIPT` holds its source."""
    import time
    from xredge.environment import EnvConfig, XrEnvironment
    from xredge.network import cycle_profile, stable_profile
    cases = {"local": (12, cycle_profile()), "offload": (5, stable_profile(1000.0))}
    out = {}
    for name, (action, profile) in cases.items():
        cfg = EnvConfig(profile=profile, horizon_s=float(calls))
        best = float("inf")
        for _ in range(batches):
            step = XrEnvironment(cfg, seed=0).step
            tic = time.perf_counter()
            for _ in range(calls):
                step(action)
            best = min(best, time.perf_counter() - tic)
        out[name] = best / calls * 1e6
    return out


def episode_s(policies: list[str], seed: int, runs: int = 3) -> dict[str, float]:
    """Wall seconds of each policy's 1200 s cycle episode at `seed`, run
    without artifacts by `run_experiment` of the xredge on the path: one
    untimed run, then the fastest of `runs` timed runs, as `step_us` keeps
    its fastest batch. `_EPISODE_SCRIPT` holds its source."""
    import time
    from xredge.harness import default_scenario, run_experiment
    out = {}
    for policy in policies:
        spec = default_scenario(policy, "cycle", horizon_s=1200.0, seeds=(seed,))
        run_experiment(spec, seed)
        best = float("inf")
        for _ in range(runs):
            tic = time.perf_counter()
            run_experiment(spec, seed)
            best = min(best, time.perf_counter() - tic)
        out[policy] = best
    return out


# `episode_s` of each policy named in argv[2:], then `step_us`; prints
# {"episode_s": {policy: wall seconds}, "step_us": {case: µs per call}}
_EPISODE_SCRIPT = inspect.getsource(step_us) + inspect.getsource(episode_s) + """
import json, sys
print(json.dumps({"episode_s": episode_s(sys.argv[2:], int(sys.argv[1])), "step_us": step_us()}))
"""


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def tree_digest(root: Path) -> dict:
    """What names checkout `root`'s tree beyond its HEAD commit: the SHA-256
    of `git diff --binary HEAD`, and of each untracked, unignored file under
    RUN_PATHS by its path."""
    diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=root, check=True,
                          capture_output=True).stdout
    untracked = git("ls-files", "--others", "--exclude-standard", "-z", "--", *RUN_PATHS, cwd=root)
    return {"diff_sha256": hashlib.sha256(diff).hexdigest(),
            "untracked_sha256": {path: hashlib.sha256((root / path).read_bytes()).hexdigest()
                                 for path in sorted(filter(None, untracked.split("\0")))}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict[str, dict[str, float]]]) -> dict[str, dict]:
    """Per metric: each pair's base and change values, each side's median
    and IQR, the change's relative median shift and the pairs it won.

    `pairs` holds one {"base": {metric: value}, "change": {...}} per pair;
    every metric is better lower, and a tie wins for neither side. The gain
    is resolved when the change wins at least nine tenths of the pairs and
    its median is lower than the base's by more than the base's IQR.
    """
    out = {}
    for name in pairs[0]["base"]:
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        wins = sum(c < b for b, c in zip(base, change))
        out[name] = {
            "base": base,
            "change": change,
            "base_median": bm,
            "base_iqr": b3 - b1,
            "change_median": cm,
            "change_iqr": c3 - c1,
            "median_change_pct": 100.0 * (cm - bm) / bm,
            "change_wins": wins,
            "pairs": len(pairs),
            "gain_resolved": wins >= 0.9 * len(pairs) and bm - cm > b3 - b1,
        }
    return out


def rss_fit(rounds: list[dict[str, dict]]) -> dict | None:
    """The fit of `peak_rss_mb = a + b*decisions + c*[change side]` over
    both sides' runs, `rounds` holding one {"base": detail, "change":
    detail} per pair as `pair_detail` makes each; None if the runs cannot
    determine a, b and c with a residual left over.

    Returns b in bytes per decision (perfbench's MB is ru_maxrss/1024, a MiB
    of 2**20 bytes), c in MB with its standard error, and R² (None when
    every peak is equal): c is the change's peak against the base's at an
    equal decision count.
    """
    runs = [(r[side]["decisions"], k, r[side]["peak_rss_mb"]) for r in rounds for k, side in enumerate(SIDES)]
    x = np.array([(1.0, d, k) for d, k, _ in runs])
    y = np.array([peak for _, _, peak in runs])
    coef, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < 3 or len(runs) <= 3:
        return None
    resid = y - x @ coef
    rss, tss = float(resid @ resid), float(((y - y.mean()) ** 2).sum())
    cov = rss / (len(runs) - 3) * np.linalg.inv(x.T @ x)
    return {"bytes_per_decision": float(coef[1]) * 2**20, "change_mb": float(coef[2]),
            "change_mb_se": float(np.sqrt(cov[2, 2])), "r2": 1.0 - rss / tss if tss else None,
            "runs": len(runs)}


def run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int,
                  keep: Path) -> dict:
    """One `perfbench/run.py` run in checkout `root`; copies its result file
    to `keep` and returns it."""
    result = root / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    keep.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(result, keep)
    return read_result(keep)


def read_result(path: Path) -> dict:
    """A perfbench result file; a run with a failed episode raises RuntimeError."""
    run = json.loads(path.read_text())
    if run["result"]["failed"]:
        raise RuntimeError(f"{path}: {run['detail']['problems']}")
    return run


def episode_round(root: Path, seed: int) -> dict[str, dict[str, float]]:
    """`episode_s` of the EPISODE_POLICIES, then `step_us`, in a fresh
    process with checkout `root`'s source; returns each policy's episode
    seconds as "episode_s" and the µs per step call as "step_us"."""
    cmd = [sys.executable, "-c", _EPISODE_SCRIPT, str(seed), *EPISODE_POLICIES]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    if proc.returncode != 0:
        raise RuntimeError(f"episodes in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def values(run: dict) -> dict[str, float]:
    """Each metric's value in one run's result."""
    return {k: v["value"] for k, v in run["result"]["metrics"].items()}


def pair_detail(run: dict) -> dict:
    """What a pair keeps of one side's run beside its end-to-end metrics: its
    round count, the quartiles of its raw and scaled round seconds, and the
    decisions completed next to the peak RSS, which grows with them because
    perfbench logs every decision."""
    detail = run["detail"]
    spread = {k: dict(zip(("q1", "median", "q3"), quartiles(detail[k])))
              for k in ("raw_round_s", "round_s")}
    return {"rounds": len(detail["round_s"]), **spread,
            "decisions": detail["decisions"], "peak_rss_mb": detail["peak_rss_mb"]}


def pair_line(i: int, n_pairs: int, workload: str, first: str, runs: dict[str, dict]) -> str:
    """The progress line of one pair from each side's run: wall_s, the
    decision p50, and peak RSS with the decisions completed, base -> change."""
    b, c = ({**values(runs[side]), **pair_detail(runs[side])} for side in SIDES)
    return (f"pair {i + 1}/{n_pairs} {workload} ({first} first): wall_s "
            f"{b['wall_s']:.4f} -> {c['wall_s']:.4f}, decision_us_p50 "
            f"{b['decision_us_p50']:.2f} -> {c['decision_us_p50']:.2f}, peak_rss_mb {b['peak_rss_mb']:.1f} "
            f"({b['decisions']} decisions) -> {c['peak_rss_mb']:.1f} ({c['decisions']} decisions)")


def rss_line(workload: str, result: dict) -> str:
    """One workload's peak RSS medians, base -> change, and its equal-decision fit."""
    m = result["metrics"]["peak_rss_mb"]
    line = f"{workload} peak_rss_mb median {m['base_median']:.1f} -> {m['change_median']:.1f} MB"
    fit = result["peak_rss_fit"]
    if fit is None:
        return line + "; too few runs for the equal-decision fit"
    r2 = "n/a" if fit["r2"] is None else f"{fit['r2']:.4f}"
    return (line + f"; at equal decisions {fit['change_mb']:+.2f} ± {fit['change_mb_se']:.2f} MB "
            f"({fit['bytes_per_decision']:.1f} B/decision, R² {r2})")


def step_line(step: dict[str, dict]) -> str:
    """Each step case's median µs per call, base -> change, and the pairs the change won."""
    cases = (f"{case} {s['base_median']:.2f} -> {s['change_median']:.2f} ({s['change_wins']}/{s['pairs']} won)"
             for case, s in step.items())
    return "XrEnvironment.step µs per call, median of pairs: " + ", ".join(cases)


def end_to_end(run: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced run, with the raw round time."""
    m = values(run)
    m["raw_wall_s"] = statistics.median(run["detail"]["raw_round_s"])
    return {k: m[k] for k in METRICS}


def source_lines(root: Path) -> int:
    """The lines of checkout `root`'s `src/xredge/*.py`, as `wc -l` counts
    them: the source size that CI's "Source size" step prints."""
    return sum(p.read_bytes().count(b"\n") for p in (root / "src" / "xredge").glob("*.py"))


def bench(roots: dict[str, Path], workloads: list[str], n_pairs: int, seconds: float,
          seed: int, traced: bool, keep_dir: Path) -> dict:
    pairs: dict[str, list] = {w: [] for w in workloads}
    rounds: dict[str, list] = {w: [] for w in workloads}
    episodes = []
    machine = None
    for i in range(n_pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in workloads:
            runs = {side: run_perfbench(roots[side], w, seed, seconds, 0,
                                        keep_dir / f"pair{i + 1:02d}-{w}-{side}.json")
                    for side in order}
            machine = machine or runs["change"]["detail"]["machine"]
            pairs[w].append({side: end_to_end(runs[side]) for side in SIDES})
            rounds[w].append({side: pair_detail(runs[side]) for side in SIDES})
            print(pair_line(i, n_pairs, w, order[0], runs), flush=True)
        if traced:
            episodes.append({side: episode_round(roots[side], seed) for side in order})
    out = {w: {"metrics": summarize(pairs[w]), "peak_rss_fit": rss_fit(rounds[w]), "rounds": rounds[w]}
           for w in workloads}
    report = {"machine": machine, "workloads": out,
              "src_lines": {side: source_lines(roots[side]) for side in SIDES}}
    if traced:
        for w in workloads:
            out[w]["traced"] = {side: values(run_perfbench(roots[side], w, seed, seconds, 1,
                                                           keep_dir / f"traced-{w}-{side}.json"))
                                for side in SIDES}
        for measure in ("episode_s", "step_us"):
            report[measure] = summarize([{side: pair[side][measure] for side in SIDES} for pair in episodes])
    return report


@contextmanager
def base_checkout(base_sha: str, base_dir: Path | None):
    """The base side's checkout: base_dir as it is, or else base_sha checked
    out by `git worktree add` into a temporary directory that is removed
    however the block ends."""
    if base_dir is not None:
        yield base_dir
        return
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        root = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(root), base_sha)
        try:
            yield root
        finally:
            git("worktree", "remove", "--force", str(root))


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the base commit, any git revision")
    parser.add_argument("--base-dir", type=Path, help="a directory that already holds the base "
                        "commit's files, made by `git archive` or a clone, instead of a worktree")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--workload", action="append", help="a perfbench workload (repeatable; "
                        "default greedy-cycle, rl-cycle and static-cli)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="also one --trace 1 run per side "
                        "and workload, and each policy's 1200 s cycle episode, the fastest of 3, "
                        "once per side in each pair")
    args = parser.parse_args(argv)
    if args.base_dir is not None:
        # perfbench and the episode script run with the base directory as their cwd
        args.base_dir = args.base_dir.resolve()
        if not (args.base_dir / "perfbench" / "run.py").is_file():
            parser.error(f"--base-dir {args.base_dir} holds no perfbench/run.py")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    workloads = args.workload or ["greedy-cycle", "rl-cycle", "static-cli"]
    keep_dir = ROOT / ".perfbench_out" / args.out.stem
    with base_checkout(base_sha, args.base_dir) as base_root:
        report = bench({"base": base_root, "change": ROOT}, workloads, args.pairs,
                       args.seconds, args.seed, args.traced, keep_dir)
    report = {
        "base_sha": base_sha,
        "change_sha": git("rev-parse", "HEAD"),
        # the change side is the working tree, which may hold uncommitted edits
        "change_dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "change_tree": tree_digest(ROOT),
        "command": ["tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "results_dir": str(keep_dir.relative_to(ROOT)),
        **report,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for w, result in report["workloads"].items():
        print(rss_line(w, result))
    if "step_us" in report:
        print(step_line(report["step_us"]))
    lines = report["src_lines"]
    print(f"wrote {args.out}; src/xredge/*.py lines {lines['base']} -> {lines['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
