"""Decision timing with host-speed scaling, for the untraced measured runs.

The host's speed drifts. On the 2-vCPU VM this benchmark was written on, a
fixed loop runs at two speeds about 1.6x apart, switching every fraction of
a second and shifting its mix over minutes, so the raw seconds of the same
work spread by 25% between 60 s windows. Two speed probes, fixed pieces of
work, therefore run at a decision boundary at least every PROBE_EVERY_S:

- the python probe: interpreter work with small numpy calls, like the
  environment, the harness and the scripted controllers;
- the numpy probe: one 32x128 @ 128x128 product and Adam-like updates of
  16k-float vectors, like the DQN learner.

Every timed chunk is scaled by REF / (latest probe time) of the probe that
matches its work, so the scaled figures read as seconds on the reference
host in its fast phase. In 4-minute recordings on that host, split into
20 s windows, the spread of window medians went from 13% to 3% for rl
episode time and from 13% to 5% for the rl controller latency p50 (numpy
probe on the controller; the python probe alone gave 23%), and from 9% to
4% for greedy episode time (python probe; the numpy probe gave 31%).
"""

from __future__ import annotations

import math
import time

import numpy as np

from tracing import Patcher, policy_classes

perf = time.perf_counter

PROBE_EVERY_S = 0.05
REF_PYTHON_S = 100e-6   # python probe on the reference host, fast phase
REF_NUMPY_S = 120e-6    # numpy probe on the reference host, fast phase

_SMALL = np.arange(16.0)
_rng = np.random.default_rng(0)
_W, _X = _rng.random((128, 128)), _rng.random((32, 128))
_G, _M, _V, _P = _rng.random(16512), np.zeros(16512), np.zeros(16512), _rng.random(16512)


def python_probe() -> float:
    """Seconds this host takes, right now, for fixed interpreter-bound work."""
    t0 = perf()
    acc, table = 0.0, {}
    for i in range(300):
        table[i & 15] = i
        acc += math.exp(-i * 1e-3) + table[i & 7]
        if i % 30 == 0:
            acc += float(np.maximum(_SMALL * acc, 0.0).sum())
    return perf() - t0


def numpy_probe() -> float:
    """Seconds this host takes, right now, for fixed BLAS and vector work.

    Its 660 KB of arrays are left to go cold between probes, as the
    learner's are between decisions; a probe on warm arrays tracked the
    learner's slowdowns far worse.
    """
    t0 = perf()
    z = np.maximum(_X @ _W, 0.0)
    _X.T @ z
    _M[:] = 0.9 * _M + 0.1 * _G
    _V[:] = 0.999 * _V + 0.001 * _G * _G
    _P[:] -= 1e-3 * _M / (np.sqrt(_V) + 1e-8)
    return perf() - t0


class DecisionLog:
    """Per-decision start time and controller latency, plus speed probes."""

    def __init__(self):
        self.marks: list[float] = []      # perf_counter at each policy.select
        self.latency: list[float] = []    # seconds of select + observe_outcome
        self.probe_end: list[float] = []  # perf_counter when each probe pair ended
        self.python_s: list[float] = []
        self.numpy_s: list[float] = []

    def scaled(self, t0: float, t1: float, controller: str, n0: int = 0):
        """Raw seconds, scaled seconds and scaled latencies of [t0, t1).

        The interval is cut at every decision start. Probe time is taken out
        of the chunk it fell in. Within a chunk, the controller's latency is
        scaled by the `controller` ("python" or "numpy") probe and the rest
        (env.step, trace rows, set-up, writes) by the python probe, each the
        latest probe before the chunk's end.
        """
        marks = np.asarray(self.marks[n0:])
        mine = (marks >= t0) & (marks < t1)
        latency = np.asarray(self.latency[n0:])[mine]
        bounds = np.concatenate([[t0], marks[mine], [t1]])
        chunks = np.diff(bounds)
        pe = np.asarray(self.probe_end)
        probe_s = np.asarray(self.python_s) + np.asarray(self.numpy_s)
        inside = (pe > t0) & (pe <= t1)
        np.subtract.at(chunks, np.searchsorted(bounds, pe[inside]) - 1, probe_s[inside])
        latest = np.maximum(np.searchsorted(pe, bounds[1:], side="right") - 1, 0)
        rest_factor = REF_PYTHON_S / np.asarray(self.python_s)[latest]
        ctrl_factor = REF_NUMPY_S / np.asarray(self.numpy_s)[latest] if controller == "numpy" else rest_factor
        ctrl = np.concatenate([[0.0], latency])  # decision j runs inside chunk j + 1
        scaled = (chunks - ctrl) * rest_factor + ctrl * ctrl_factor
        return float(chunks.sum()), float(scaled.sum()), latency * ctrl_factor[1:]


def time_decisions(patcher: Patcher, log: DecisionLog) -> None:
    """Log every decision of every policy while patched, probing host speed.

    The latency is the controller span that harness.run_experiment times:
    the policy's select plus its learning step, without env.step between.
    """
    pending = [0.0]
    last_probe = [-math.inf]

    def make_select(select):
        def wrapper(self, env):
            t0 = perf()
            if t0 - last_probe[0] >= PROBE_EVERY_S:
                log.python_s.append(python_probe())
                log.numpy_s.append(numpy_probe())
                t0 = last_probe[0] = perf()
                log.probe_end.append(t0)
            log.marks.append(t0)
            action = select(self, env)
            pending[0] = perf() - t0
            return action
        return wrapper

    def make_observe(observe):
        def wrapper(self, outcome, env):
            t0 = perf()
            observe(self, outcome, env)
            log.latency.append(pending[0] + perf() - t0)
        return wrapper

    for cls in policy_classes():
        patcher.patch(cls, "select", make_select)
        patcher.patch(cls, "observe_outcome", make_observe)
