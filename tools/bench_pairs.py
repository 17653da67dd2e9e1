"""Benchmark a change against a base commit in alternating pairs of runs.

    python tools/bench_pairs.py --base <rev> --out BENCH_<n>.json
        [--workload greedy-cycle ...] [--pairs 10] [--seconds 20] [--seed 1] [--traced]

The base side is `<rev>` checked out with `git worktree add` into a
temporary directory, which is removed again however the script ends; the
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
pairs, for the per-layer metrics, and times one 1200 s cycle episode per
policy in-process with its own source, in three rounds in which the side
that runs first alternates too; it keeps every round's seconds with their
minimum, median and maximum, since one side's best round can fall in a
faster phase of the host than the other's. Each round is a fresh process
that runs each policy's episode once untimed first: a policy's first
episode in a process pays a warm-up (about 1 s for rl, 40 ms for local).

The output holds, per workload and metric, each pair's two values, each
side's median and interquartile range, and the number of pairs the change
won; next to the scaled round seconds (`wall_s`) it keeps the raw ones
(`raw_wall_s`), since perfbench scales round times by a speed probe.
Each pair also keeps, per side, the round count, the quartiles of the round
seconds (the kept result file holds each round) and, next to the peak RSS,
the decisions completed: perfbench logs every decision, so a faster side
that completes more rounds peaks higher. The output also holds the kept
result files' directory, both commits, `change_tree` (a SHA-256 of the
change side's uncommitted edits and of each untracked file under `src/`
and `perfbench/`, which name the tree measured), the machine facts
perfbench records and each side's `src/xredge/*.py` line count, which the
last line printed shows too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# perfbench's end-to-end metrics, all better lower, and the raw round time
METRICS = ("setup_s", "wall_s", "raw_wall_s", "decision_us_p50", "decision_us_p99", "peak_rss_mb")
SIDES = ("base", "change")
# the directories whose files a perfbench run imports
RUN_PATHS = ("src", "perfbench")
# the policies whose 1200 s cycle episode --traced times, and the rounds
EPISODE_POLICIES = ("local", "offload", "threshold", "greedy", "rl")
EPISODE_ROUNDS = 3
# each policy named in argv[2:]: one untimed episode, then one timed, run by
# run_experiment without artifacts; prints {policy: wall seconds}
_EPISODE_SCRIPT = """
import json, sys, time
from xredge.harness import default_scenario, run_experiment
seed, seconds = int(sys.argv[1]), {}
for policy in sys.argv[2:]:
    spec = default_scenario(policy, "cycle", horizon_s=1200.0, seeds=(seed,))
    run_experiment(spec, seed)
    tic = time.perf_counter()
    run_experiment(spec, seed)
    seconds[policy] = time.perf_counter() - tic
print(json.dumps(seconds))
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


def episode_seconds(root: Path, seed: int) -> dict[str, float]:
    """One warm episode of each EPISODE_POLICIES policy in a fresh process,
    with checkout `root`'s source; returns each episode's wall seconds."""
    cmd = [sys.executable, "-c", _EPISODE_SCRIPT, str(seed), *EPISODE_POLICIES]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    if proc.returncode != 0:
        raise RuntimeError(f"episodes in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def episode_summary(rounds: list[dict[str, float]]) -> dict[str, dict]:
    """Per policy of one side's rounds: each round's episode seconds, in
    round order, and their minimum, median and maximum."""
    out = {}
    for p in EPISODE_POLICIES:
        xs = [r[p] for r in rounds]
        out[p] = {"rounds": xs, "min": min(xs), "median": statistics.median(xs), "max": max(xs)}
    return out


def episode_rounds(roots: dict[str, Path], seed: int) -> dict[str, dict[str, dict]]:
    """Per side, `episode_summary` of EPISODE_ROUNDS rounds, the side that
    runs first alternating from round to round."""
    rounds: dict[str, list] = {side: [] for side in SIDES}
    for i in range(EPISODE_ROUNDS):
        for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
            rounds[side].append(episode_seconds(roots[side], seed))
    return {side: episode_summary(rounds[side]) for side in SIDES}


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
    out = {w: {"metrics": summarize(pairs[w]), "rounds": rounds[w]} for w in workloads}
    report = {"machine": machine, "workloads": out,
              "src_lines": {side: source_lines(roots[side]) for side in SIDES}}
    if traced:
        for w in workloads:
            out[w]["traced"] = {side: values(run_perfbench(roots[side], w, seed, seconds, 1,
                                                           keep_dir / f"traced-{w}-{side}.json"))
                                for side in SIDES}
        report["episode_s"] = episode_rounds(roots, seed)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the base commit, any git revision")
    parser.add_argument("--out", required=True, type=Path, help="the JSON file to write")
    parser.add_argument("--workload", action="append", help="a perfbench workload (repeatable; "
                        "default greedy-cycle, rl-cycle and static-cli)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="also one --trace 1 run per side "
                        "and workload, and each policy's 1200 s cycle episode in three rounds")
    args = parser.parse_args(argv)

    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    workloads = args.workload or ["greedy-cycle", "rl-cycle", "static-cli"]
    keep_dir = ROOT / ".perfbench_out" / args.out.stem
    with tempfile.TemporaryDirectory(prefix="bench-base-") as tmp:
        base_root = Path(tmp) / "base"
        git("worktree", "add", "--detach", str(base_root), base_sha)
        try:
            report = bench({"base": base_root, "change": ROOT}, workloads, args.pairs,
                           args.seconds, args.seed, args.traced, keep_dir)
        finally:
            git("worktree", "remove", "--force", str(base_root))
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
    lines = report["src_lines"]
    print(f"wrote {args.out}; src/xredge/*.py lines {lines['base']} -> {lines['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
