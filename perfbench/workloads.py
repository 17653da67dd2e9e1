"""The benchmark's workloads, episode runner and per-episode output checks.

A workload is a list of (policy, profile) episodes run back to back; one
pass over that list at one episode seed is a *round*. Every episode is a
closed loop: `harness.run_experiment` makes one decision per simulated 1 s
interval and the next decision starts only after the previous step and
learning update have returned. Episode seeds come from a fixed pool so that
the metrics.json digest of every episode can be stored beside the benchmark
(digests.json); the run's --seed picks the order in which the pool is used.

Regenerate the digests after a deliberate change to metrics.json with
`PYTHONPATH=src python3 perfbench/workloads.py --write-digests`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HORIZON_S = 1200.0
POOL_SEEDS = tuple(range(1, 9))
ENERGY_RTOL = 1e-9
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"  # artifacts, spans, results


@dataclass(frozen=True)
class Workload:
    name: str
    episodes: tuple[tuple[str, str], ...]  # (policy, profile) per episode of a round
    via_cli: bool                          # run through xredge.cli.main, writing artifacts
    controller: str                        # the controller's work: "numpy" or "python"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rl-cycle", (("rl", "cycle"),), via_cli=False, controller="numpy"),
        Workload("greedy-cycle", (("greedy", "cycle"),), via_cli=False, controller="python"),
        Workload(
            "static-cli",
            tuple((p, prof) for p in ("local", "offload", "threshold") for prof in ("cycle", "stable")),
            via_cli=True,
            controller="python",
        ),
    )
}


@dataclass
class Episode:
    key: str
    digest: str
    problems: list[str] = field(default_factory=list)
    t0: float = 0.0  # perf_counter at the episode's start and end
    t1: float = 0.0


def episode_key(policy: str, profile: str, seed: int) -> str:
    return f"{policy}/{profile}/{seed}"


def seed_order(seed: int) -> list[int]:
    """The pool seeds in the order this run uses them; same seed, same order."""
    order = list(POOL_SEEDS)
    random.Random(seed).shuffle(order)
    return order


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS_PATH.read_text())


def metrics_bytes(result) -> bytes:
    """The bytes harness.write_run writes to metrics.json for this result."""
    return (json.dumps(result.metrics.to_metrics_dict(), sort_keys=True, indent=2) + "\n").encode()


def check_episode(key: str, data: bytes, env, digests: dict[str, str]) -> Episode:
    """Digest of metrics.json, frame ledger and energy ledger of one episode."""
    ep = Episode(key, hashlib.sha256(data).hexdigest())
    expected = digests.get(key)
    if ep.digest != expected:
        ep.problems.append(f"metrics.json sha256 {ep.digest[:12]} != stored {str(expected)[:12]}")
    q = env.queue
    if env.frames_captured != env.frames_delivered + q.dropped + q.depth:
        ep.problems.append(
            f"frame ledger open: captured {env.frames_captured} != delivered "
            f"{env.frames_delivered} + dropped {q.dropped} + pending {q.depth}"
        )
    b = env.battery
    drawn = b.drain_factor * b.energy_j
    charge = (env.cfg.soc0 - b.soc) / 100.0 * b.capacity_j
    if abs(drawn - charge) > ENERGY_RTOL * max(abs(charge), 1.0):
        ep.problems.append(f"energy ledger open: k*E {drawn!r} != dSoC*C {charge!r}")
    return ep


def run_episode(policy: str, profile: str, seed: int, horizon_s: float, via_cli: bool,
                envs: list, scratch: Path) -> tuple[float, float, bytes, object]:
    """Run one episode; returns (start, end, metrics.json bytes, its env)."""
    from xredge import cli, harness

    n_envs = len(envs)
    if via_cli:
        out = Path(tempfile.mkdtemp(dir=scratch))
        argv = ["run", "--policy", policy, "--profile", profile, "--horizon", f"{horizon_s:g}",
                "--seeds", str(seed), "--out", str(out)]
        sink = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            rc = cli.main(argv)
        t1 = time.perf_counter()
        if rc != 0:
            raise RuntimeError(f"xredge {' '.join(argv)} exited {rc}")
        (path,) = out.rglob("metrics.json")
        data = path.read_bytes()
        shutil.rmtree(out)
    else:
        spec = harness.default_scenario(policy, profile, horizon_s=horizon_s, seeds=(seed,))
        t0 = time.perf_counter()
        result = harness.run_experiment(spec, seed)
        t1 = time.perf_counter()
        data = metrics_bytes(result)
    if len(envs) != n_envs + 1:
        raise RuntimeError(f"expected one environment per episode, saw {len(envs) - n_envs}")
    return t0, t1, data, envs.pop()


def run_round(workload: Workload, seed: int, digests: dict[str, str], envs: list,
              scratch: Path, horizon_s: float = HORIZON_S) -> list[Episode]:
    """One pass over the workload's episodes at one seed, each checked.

    `envs` must be fed by tracing.capture_envs; the checks need the episode's
    environment for its ledgers.
    """
    episodes = []
    for policy, profile in workload.episodes:
        t0, t1, data, env = run_episode(policy, profile, seed, horizon_s, workload.via_cli, envs, scratch)
        ep = check_episode(episode_key(policy, profile, seed), data, env, digests)
        ep.t0, ep.t1 = t0, t1
        episodes.append(ep)
    return episodes


def compute_digests(horizon_s: float = HORIZON_S, seeds=POOL_SEEDS) -> dict[str, str]:
    """Digest of every pool episode of every workload, as stored in digests.json."""
    from tracing import Patcher, capture_envs, patched

    digests: dict[str, str] = {}
    envs: list = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, patched(Patcher()) as p:
        capture_envs(p, envs)
        for wl in WORKLOADS.values():
            for seed in seeds:
                for policy, profile in wl.episodes:
                    _, _, data, _ = run_episode(policy, profile, seed, horizon_s, wl.via_cli, envs, Path(tmp))
                    digests[episode_key(policy, profile, seed)] = hashlib.sha256(data).hexdigest()
    return digests


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-digests"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/workloads.py --write-digests")
    DIGESTS_PATH.write_text(json.dumps(compute_digests(), sort_keys=True, indent=1) + "\n")
    print(f"wrote {DIGESTS_PATH}")
