"""The benchmark's own checks on the program: the metrics.json digests of its
episodes, and a short traced run of two workloads through `perfbench/run.py`.

The digest check here runs the pool's first seed (8 episodes); the CI
workflow's "Benchmark digests" step runs the same `compute_digests` over all
64 episodes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import xredge

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402


def test_metrics_digests_match_at_the_first_pool_seed():
    got, want = workloads.compute_digests(seeds=(1,)), workloads.load_digests()
    assert len(got) == 8
    assert got == {k: want.get(k) for k in got}


def traced_run(workload: str) -> dict:
    """The last JSON line of a 1 s traced `perfbench/run.py` run of `workload`."""
    src = str(Path(xredge.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_static_cli_run_has_no_failed_episode():
    # the offload call site's probes run
    assert traced_run("static-cli")["failed"] == 0


def test_traced_rl_run_times_each_part_of_train_step():
    out = traced_run("rl-cycle")
    assert out["failed"] == 0
    for part in ("target_forward", "loss_and_grads", "adam_step", "replay_sample"):
        assert out["metrics"][f"dqn.{part}.us_p50"]["value"] > 0, part
