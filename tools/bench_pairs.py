"""Benchmark a change against a base commit in alternating pairs of runs.

    python tools/bench_pairs.py --base <rev> --out BENCH_<n>.json
        [--workload greedy-cycle ...] [--pairs 10] [--seed 1] [--traced]
    python tools/bench_pairs.py --chain BENCH_a.json BENCH_b.json ...

Each side is a git tree, `git archive`d into a temporary directory that is
removed however the script ends; both directories share one parent and one
name length. The base is commit <rev>. The change is this checkout's working
tree with its uncommitted edits and untracked, unignored files, written
through a throwaway index (`GIT_INDEX_FILE`; `git read-tree HEAD`, `git add
-A`, `git write-tree`), which leaves the checkout's index, HEAD and files as
they are and adds only loose blob and tree objects to `.git/objects`.
Each pair runs the unchanged `perfbench/run.py --workload W --seed n
--seconds s --trace 0` once per side (s: this checkout's `perfbench/spec.py`
RUN_SECONDS), the side that runs first alternating from pair to pair, and
copies each run's result file to this checkout's
`.perfbench_out/<out stem>/pair<k>-<W>-<side>.json` (the traced runs' to
`traced-<W>-<side>.json`), where it is read and outlives the trees.
With --traced, each side also runs `--trace 1` once per workload after the
pairs, for the per-layer metrics, and inside every pair, after its perfbench
runs and in its side order, one fresh process per timed job with its own
source: per policy its 1200 s cycle episode (`episode_s`, an untimed run,
then the fastest of 3), and `XrEnvironment.step` in µs per call (`step_us`,
the minimum of 7 batches of 1500 calls of local action 12 on the cycle
profile and of offload action 5 on stable 1000 Mbps). Each is summarised
as a perfbench metric is, one value per side in each pair.

The output holds, per workload and metric, each pair's two values and the
side that ran first in it, each side's median and interquartile range, and
the number of pairs the change won, in all and split by the side that ran
first; next to the scaled round seconds (`wall_s`) it keeps the raw ones
(`raw_wall_s`), since perfbench scales round times by a speed probe.
Each pair also keeps, per side, the round count, the quartiles of the round
seconds (the kept result file holds each round) and, next to the peak RSS,
the decisions completed: perfbench logs every decision, so a faster side
that completes more rounds peaks higher. Next to the raw medians, each
workload's `peak_rss_fit` compares the peaks at an equal decision count:
the least-squares fit of `peak_rss_mb = a + b*decisions + c*[change side]`
over both sides' runs, with b in bytes per decision, c in MB with its
standard error, and R². The output also holds the kept result files'
directory, both commits, `base_tree` and `change_tree` (each side's tree
ids of `src/` and `perfbench/`, comparable with `git rev-parse <commit>:src`),
`change_dirty` (the change tree is not HEAD's), perfbench's machine facts
and each side's `src/xredge/*.py` line count, which is also printed last.

`--chain` runs nothing. It reads BENCH files, each measured against its
parent, and prints per workload and metric the product of their
change/base median ratios: the chain's reading from the first base to the
last change.
"""

from __future__ import annotations

import argparse
import inspect
import io
import json
import math
import os
import runpy
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# perfbench's end-to-end metrics, all better lower, and the raw round time
METRICS = ("setup_s", "wall_s", "raw_wall_s", "decision_us_p50", "decision_us_p99", "peak_rss_mb")
SIDES = ("base", "change")
# the directories whose files a perfbench run imports
RUN_PATHS = ("src", "perfbench")
# the policies whose 1200 s cycle episode --traced times, one process each
EPISODE_POLICIES = ("local", "offload", "threshold", "greedy", "rl")


def step_us(batches: int = 7, calls: int = 1500) -> dict[str, float]:
    """Microseconds per `XrEnvironment.step` call of the xredge on the
    path: the minimum over `batches` batches of `calls` calls, each batch
    on a fresh environment whose horizon its last call ends, of local
    action 12 on the cycle profile and of offload action 5 on stable
    1000 Mbps. `_JOB_SCRIPT` holds its source."""
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


def episode_s(policy: str, seed: int, runs: int = 3) -> float:
    """Wall seconds of `policy`'s 1200 s cycle episode at `seed`, run
    without artifacts by `run_experiment` of the xredge on the path: one
    untimed run, then the fastest of `runs` timed runs, as `step_us` keeps
    its fastest batch. `_JOB_SCRIPT` holds its source."""
    import time
    from xredge.harness import default_scenario, run_experiment
    spec = default_scenario(policy, "cycle", horizon_s=1200.0, seeds=(seed,))
    run_experiment(spec, seed)
    best = float("inf")
    for _ in range(runs):
        tic = time.perf_counter()
        run_experiment(spec, seed)
        best = min(best, time.perf_counter() - tic)
    return best


# one timed job: argv[1:] is `step_us`, or `episode_s` with a policy and a
# seed; prints the function's value as JSON
_JOB_SCRIPT = inspect.getsource(step_us) + inspect.getsource(episode_s) + """
import json, sys
job, *args = sys.argv[1:]
print(json.dumps(step_us() if job == "step_us" else episode_s(args[0], int(args[1]))))
"""


def git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True, capture_output=True,
                          text=True).stdout.strip()


def worktree_tree() -> str:
    """The checkout's working tree, untracked and unignored files included,
    as a git tree id, written through a throwaway index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


@contextmanager
def tree_dir(rev: str):
    """`git archive` of the checkout's tree-ish `rev`, unpacked into a `bench-tree-*` temporary
    directory (one parent and name length for every side), removed however the block ends."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="bench-tree-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), linearly interpolated."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict]) -> dict[str, dict]:
    """Per metric: each pair's base and change values and the side that ran
    first, each side's median and IQR, the change's relative median shift,
    and the pairs it won, in all and split by the side that ran first.

    `pairs` holds one {"first": side, "base": {metric: value}, "change":
    {...}} per pair; every metric is better lower, and a tie wins for
    neither side. The gain is resolved when the change wins at least nine
    tenths of the pairs and its median is lower than the base's by more
    than the base's IQR. A win count that leans on one order shows an order
    effect inside the pairs, which alternation keeps out of the medians only.
    """
    first = [p["first"] for p in pairs]
    out = {}
    for name in pairs[0]["base"]:
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        (b1, bm, b3), (c1, cm, c3) = quartiles(base), quartiles(change)
        won = [c < b for b, c in zip(base, change)]
        wins = sum(won)
        out[name] = {
            "base": base,
            "change": change,
            "first": first,
            "base_median": bm,
            "base_iqr": b3 - b1,
            "change_median": cm,
            "change_iqr": c3 - c1,
            "median_change_pct": 100.0 * (cm - bm) / bm,
            "change_wins": wins,
            # the pairs the change won, per side that ran first in them
            "change_wins_by_first": {side: sum(w for w, f in zip(won, first) if f == side) for side in SIDES},
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
    """One `perfbench/run.py` run in tree `root`; copies its result file
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


def run_job(root: Path, *args: str):
    """One `_JOB_SCRIPT` job, named by `args`, in a fresh process with
    tree `root`'s source; returns the value it prints."""
    cmd = [sys.executable, "-c", _JOB_SCRIPT, *args]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {root} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def episode_round(root: Path, seed: int) -> dict[str, dict[str, float]]:
    """`episode_s` of each of the EPISODE_POLICIES, then `step_us`, each in
    its own process with tree `root`'s source; returns each policy's
    episode seconds as "episode_s" and the µs per step call as "step_us"."""
    return {"episode_s": {policy: run_job(root, "episode_s", policy, str(seed)) for policy in EPISODE_POLICIES},
            "step_us": run_job(root, "step_us")}


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
    """The lines of tree `root`'s `src/xredge/*.py`, as `wc -l` counts
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
            pairs[w].append({"first": order[0], **{side: end_to_end(runs[side]) for side in SIDES}})
            rounds[w].append({side: pair_detail(runs[side]) for side in SIDES})
            print(pair_line(i, n_pairs, w, order[0], runs), flush=True)
        if traced:
            episodes.append({"first": order[0], **{side: episode_round(roots[side], seed) for side in order}})
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
            report[measure] = summarize([{"first": pair["first"], **{side: pair[side][measure] for side in SIDES}}
                                         for pair in episodes])
    return report


def chain(reports: list[dict]) -> dict[str, dict[str, float]]:
    """Per workload and metric that every report holds, the product of the
    reports' change/base median ratios, in the first report's order."""
    out = {}
    for w, result in reports[0]["workloads"].items():
        if all(w in r["workloads"] for r in reports):
            metrics = [r["workloads"][w]["metrics"] for r in reports]
            out[w] = {m: math.prod(s[m]["change_median"] / s[m]["base_median"] for s in metrics)
                      for m in result["metrics"] if all(m in s for s in metrics)}
    return out


def chain_lines(paths: list[Path]) -> list[str]:
    """One line per workload of `chain` over the BENCH files at `paths`."""
    ratios = chain([json.loads(p.read_text()) for p in paths])
    return [f"{w}: " + ", ".join(f"{m} ×{r:.3f}" for m, r in metrics.items())
            for w, metrics in ratios.items()] + [f"chained {len(paths)} files: {' '.join(map(str, paths))}"]


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--chain", nargs="+", type=Path, metavar="BENCH",
                        help="run nothing: print the product of these files' median ratios")
    parser.add_argument("--base", help="the base commit, any git revision")
    parser.add_argument("--out", type=Path, help="the JSON file to write")
    parser.add_argument("--workload", action="append", help="a perfbench workload (repeatable; "
                        "default greedy-cycle, rl-cycle and static-cli)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true", help="also one --trace 1 run per side "
                        "and workload, and in each pair one process per side for each policy's "
                        "1200 s cycle episode and one for XrEnvironment.step")
    args = parser.parse_args(argv)
    if args.chain is None and (args.base is None or args.out is None):
        parser.error("the following arguments are required: --base, --out (or --chain alone)")
    if args.chain is not None and (args.base is not None or args.out is not None):
        parser.error("--chain runs nothing: give it without --base and --out")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.chain:
        print("\n".join(chain_lines(args.chain)))
        return 0
    base_sha = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    workloads = args.workload or ["greedy-cycle", "rl-cycle", "static-cli"]
    keep_dir = ROOT / ".perfbench_out" / args.out.stem
    # both sides' run length: the benchmark's, as this checkout defines it
    seconds = float(runpy.run_path(str(ROOT / "perfbench" / "spec.py"))["RUN_SECONDS"])
    trees = {"base": base_sha, "change": worktree_tree()}
    with ExitStack() as stack:
        roots = {side: stack.enter_context(tree_dir(rev)) for side, rev in trees.items()}
        report = bench(roots, workloads, args.pairs, seconds, args.seed, args.traced, keep_dir)
    report = {
        "base_sha": base_sha,
        "change_sha": git("rev-parse", "HEAD"),
        # the working tree may hold uncommitted edits and untracked files
        "change_dirty": trees["change"] != git("rev-parse", "HEAD^{tree}"),
        # base_tree and change_tree: each side's tree ids of its RUN_PATHS
        **{f"{side}_tree": {path: git("rev-parse", f"{rev}:{path}") for path in RUN_PATHS}
           for side, rev in trees.items()},
        "command": ["tools/bench_pairs.py", *(argv if argv is not None else sys.argv[1:])],
        "pairs": args.pairs,
        "seconds": seconds,
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
