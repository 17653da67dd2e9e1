"""One workload in one process: a set-up probe, a measured run or a traced run.

Started by run.py with PYTHONPATH and the BLAS thread count already in its
environment; prints one JSON object as its last stdout line.

    worker.py probe   <workload> <seed> <t_spawn>
    worker.py measure <workload> <seed> <seconds>
    worker.py trace   <workload> <seed> <seconds> <spans_csv>
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import timing
import tracing
import workloads

TRACE_BASELINE_ROUNDS = 2   # least timed untraced rounds before the traced one


class _FirstStep(Exception):
    """Raised by the probe at the first env.step to end set-up timing."""


def probe(wl, seed: int, t_spawn: float) -> dict:
    """Seconds from this process's spawn to the workload's first env.step."""
    from xredge.environment import XrEnvironment

    hit = []

    def make(step):
        def first_step(self, action):
            hit.append(time.perf_counter())
            raise _FirstStep
        return first_step

    with tempfile.TemporaryDirectory(dir=scratch_root()) as tmp, \
            tracing.patched(tracing.Patcher()) as p:
        p.patch(XrEnvironment, "step", make)
        try:
            workloads.run_round(wl, seed, {}, [], Path(tmp))
        except _FirstStep:
            pass
    if not hit:
        raise RuntimeError("the workload never reached env.step")
    return {"setup_s": hit[0] - t_spawn}


def measured_rounds(wl, seeds, seconds: float, digests, min_rounds: int = 1, log=None):
    """A warm-up round, then rounds over `seeds` (cycled) until `seconds` and
    `min_rounds` are both met.

    Returns the raw and the speed-scaled seconds of every timed round, the
    scaled decision latencies in microseconds, and every checked episode.
    """
    log = log or timing.DecisionLog()
    envs, raw, scaled, latency = [], [], [], []
    with tempfile.TemporaryDirectory(dir=scratch_root()) as tmp, \
            tracing.patched(tracing.Patcher()) as p:
        tracing.capture_envs(p, envs)
        timing.time_decisions(p, log)
        checked = workloads.run_round(wl, seeds[-1], digests, envs, Path(tmp))  # warm-up
        t_end = time.perf_counter() + seconds
        while len(raw) < min_rounds or time.perf_counter() < t_end:
            seed = seeds[len(raw) % len(seeds)]
            gc.collect()
            n0 = len(log.marks)
            episodes = workloads.run_round(wl, seed, digests, envs, Path(tmp))
            parts = [log.scaled(ep.t0, ep.t1, wl.controller, n0) for ep in episodes]
            raw.append(sum(r for r, _, _ in parts))
            scaled.append(sum(s for _, s, _ in parts))
            latency += [lat for _, _, lat in parts]
            checked += episodes
    return raw, scaled, np.concatenate(latency) * 1e6, checked


def measure(wl, seed: int, seconds: float) -> dict:
    raw, scaled, dec_us, episodes = measured_rounds(
        wl, workloads.seed_order(seed), seconds, workloads.load_digests())
    return {
        "raw_round_s": raw,
        "round_s": scaled,
        "decision_us_p50": float(np.percentile(dec_us, 50)),
        "decision_us_p99": float(np.percentile(dec_us, 99)),
        "decisions": int(dec_us.size),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **episode_summary(episodes),
    }


def traced_round(wl, seed: int, digests, horizon_s: float = workloads.HORIZON_S, log=None):
    """One round with every layer probe installed; returns (episodes, tracer).

    With a DecisionLog, the round is also speed-probed like a measured one.
    """
    tr = tracing.Tracer()
    envs: list = []
    with tempfile.TemporaryDirectory(dir=scratch_root()) as tmp, tracing.patched(tr):
        tracing.capture_envs(tr, envs)
        if log is not None:
            timing.time_decisions(tr, log)
        tracing.install(tr)
        gc.collect()
        episodes = workloads.run_round(wl, seed, digests, envs, Path(tmp), horizon_s)
    return episodes, tr


def trace(wl, seed: int, seconds: float, spans_csv: Path) -> dict:
    """The run's first round untraced for half of `seconds`, then traced once.

    The traced round does a fixed amount of work, so its counters repeat
    exactly at a seed; the untraced rounds give the tracing overhead.
    """
    digests = workloads.load_digests()
    first = workloads.seed_order(seed)[:1]
    log = timing.DecisionLog()
    _, untraced, _, episodes = measured_rounds(wl, first, seconds / 2, digests, TRACE_BASELINE_ROUNDS, log)
    traced_eps, tr = traced_round(wl, first[0], digests, log=log)
    tr.write_spans(spans_csv)
    traced = sum(log.scaled(ep.t0, ep.t1, wl.controller)[1] for ep in traced_eps)
    layers = tracing.layer_metrics(tr)
    layers["trace.overhead_s"] = traced - float(np.median(untraced))
    return {
        "layers": layers,
        "untraced_round_s": untraced,
        "traced_round_s": traced,
        "missing_sites": tr.missing,
        **episode_summary(episodes + traced_eps),
    }


def episode_summary(episodes) -> dict:
    failed = [e for e in episodes if e.problems]
    return {
        "attempted": len(episodes),
        "failed": len(failed),
        "problems": [f"{e.key}: {'; '.join(e.problems)}" for e in failed][:20],
    }


def machine_facts() -> dict:
    """nproc, versions, the BLAS build and the BLAS thread count in use."""
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": None,
        "blas_core": None,
        "cpu": platform.processor() or platform.machine(),
    }
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_threads is not None:
                get_threads.restype = ctypes.c_int
                facts["blas_threads"] = get_threads()
                core = getattr(lib, f"{prefix}_get_corename{suffix}", None)
                if core is not None:
                    core.restype = ctypes.c_char_p
                    facts["blas_core"] = core().decode()
                return facts
    return facts


def scratch_root() -> Path:
    workloads.OUT.mkdir(exist_ok=True)
    return workloads.OUT


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    wl = workloads.WORKLOADS[name]
    if mode == "probe":
        out = probe(wl, seed, float(argv[3]))
    elif mode == "measure":
        out = {**measure(wl, seed, float(argv[3])), "machine": machine_facts()}
    elif mode == "trace":
        out = {**trace(wl, seed, float(argv[3]), Path(argv[4])), "machine": machine_facts()}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
