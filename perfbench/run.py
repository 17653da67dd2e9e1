"""Run the xredge benchmark.

    python3 perfbench/run.py                  # every workload, end-to-end metrics
    python3 perfbench/run.py --trace 1        # every workload, per-layer metrics
    python3 perfbench/run.py --workload rl-cycle --seed 3 --seconds 10 --trace 0

Run from the repository root (any directory holding perfbench/ and src/).
Each workload runs in worker processes of its own, with PYTHONPATH=src and
the BLAS thread count fixed below. With --trace 0 the set-up time is taken
from N_PROBES fresh processes, then one process measures rounds for
--seconds. With --trace 1 one process runs the workload untraced, then one
round traced. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"} for one workload, or one such
object per workload name when every workload runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
from workloads import OUT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1   # 32x128 matmuls: extra BLAS threads add p99 spikes (see README.md)
N_PROBES = 7
DEADLINE_S = 170.0
WORKLOADS = list(spec.WORKLOAD_WHY)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def worker(deadline: float, *args) -> dict:
    """Run worker.py with args; its last stdout line is its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=remaining)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(map(str, args))} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(deadline: float, name: str, seed: int) -> float:
    t_spawn = time.perf_counter()
    return worker(deadline, "probe", name, seed, repr(t_spawn))["setup_s"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Metrics of one workload as {"result": contract object, "samples", "detail"}."""
    if trace:
        spans = OUT / f"spans-{name}-seed{seed}.csv"
        out = worker(deadline, "trace", name, seed, seconds, spans)
        metrics = {n: out["layers"][n] for n, *_ in spec.PER_LAYER}
        samples = {n: 1 for n in metrics}
        samples["trace.overhead_s"] = len(out["untraced_round_s"]) + 1
    else:
        setups = [setup_seconds(deadline, name, seed) for _ in range(N_PROBES)]
        out = worker(deadline, "measure", name, seed, seconds)
        out["setup_s"] = setups
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(out["round_s"]),
            "decision_us_p50": out["decision_us_p50"],
            "decision_us_p99": out["decision_us_p99"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        samples = {
            "setup_s": len(setups),
            "wall_s": len(out["raw_round_s"]),
            "decision_us_p50": out["decisions"],
            "decision_us_p99": out["decisions"],
            "peak_rss_mb": 1,
        }
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {n: {"value": v, "unit": spec.UNITS[n]} for n, v in metrics.items()},
    }
    return {"result": result, "samples": samples, "detail": out}


def report(name: str, seed: int, run: dict) -> None:
    """Human-readable lines: one per metric with unit and sample count."""
    r, detail = run["result"], run["detail"]
    print(f"== {name} seed {seed}: {r['attempted']} episodes, {r['failed']} failed")
    for n, m in r["metrics"].items():
        print(f"  {n:48s} {m['value']:>16.6g} {m['unit']:6s} n={run['samples'][n]}")
    for problem in detail["problems"]:
        print(f"  FAILED {problem}")
    if detail.get("missing_sites"):
        print(f"  probe sites not found (counters read 0): {', '.join(detail['missing_sites'])}")
    print(f"  machine {json.dumps(detail['machine'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "xredge" / "__init__.py").is_file():
        print(f"error: no xredge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    for name in names:
        run = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        report(name, args.seed, run)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(run, indent=1, sort_keys=True) + "\n")
        results[name] = run["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
