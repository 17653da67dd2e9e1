"""Patching, span tracing and per-layer metrics for the traced benchmark run.

Every probe lives in the benchmark's own files: it replaces a module or
class attribute of `xredge` with a wrapper and puts the original back
afterwards. A name is wrapped where its caller looks it up, so a function
that `xredge.environment` imports by name is patched in
`xredge.environment`, not in the module that defines it. A lookup site that
no longer exists (because a later version stopped calling the function from
there) is skipped and listed in `Patcher.missing`; its counters then read 0.

Spans record a name, a start, an end, a parent and the decision index; self
time is a span's duration minus the time its child spans cover. Hot, tiny
functions get counters (optionally with an accumulated busy time) instead
of spans, because a span would cost more than the call itself.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

perf = time.perf_counter


class Patcher:
    """Replaces attributes and restores exactly the original objects."""

    def __init__(self):
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def patch(self, owner, attr: str, make) -> None:
        """Set owner.attr to make(original); skip if owner has no own attr."""
        own = vars(owner)
        if attr not in own:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        original = own[attr]
        self.patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> list[str]:
        """Put every original back; returns the attributes that did not restore."""
        first: dict = {}  # an attribute patched twice must end at its first original
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
            first[(owner, attr)] = original
        self.patched.clear()
        return [
            f"{owner.__name__}.{attr}"
            for (owner, attr), original in first.items()
            if vars(owner).get(attr) is not original
        ]


@contextmanager
def patched(patcher: Patcher):
    try:
        yield patcher
    finally:
        bad = patcher.restore()
        if bad:
            raise RuntimeError(f"attributes not restored: {bad}")


def policy_classes():
    """Every controller class in xredge.policies (those defining select)."""
    import xredge.policies as policies

    return [
        obj for obj in vars(policies).values()
        if isinstance(obj, type) and obj.__module__ == policies.__name__
        and "select" in vars(obj) and "observe_outcome" in vars(obj)
    ]


def capture_envs(patcher: Patcher, envs: list) -> None:
    """Append every XrEnvironment built while patched to `envs`."""
    from xredge.environment import XrEnvironment

    def make(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            envs.append(self)
        return __init__

    patcher.patch(XrEnvironment, "__init__", make)


class Tracer(Patcher):
    """In-memory span recorder plus call counters, installed by `install`."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.decisions: list[int] = []
        self.stack: list[int] = []
        self.decision = -1
        self.calls: Counter = Counter()
        self.busy_s: defaultdict = defaultdict(float)
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.queue_depth_max = 0
        self.write_bytes = 0

    # -- wrapper factories -------------------------------------------------

    def span(self, name, fn, after=None, opens_decision=False):
        """Timed span around fn.

        `name` may be a callable (parent span index, call args) -> name.
        `after(args, result)` runs once the span is closed. A span that opens
        a decision advances the decision index shared by its descendants.
        """
        tr = self

        def wrapper(*args, **kwargs):
            if opens_decision:
                tr.decision += 1
            i = len(tr.names)
            parent = tr.stack[-1] if tr.stack else -1
            tr.names.append(name(parent, args) if callable(name) else name)
            tr.parents.append(parent)
            tr.decisions.append(tr.decision)
            tr.starts.append(0.0)
            tr.ends.append(0.0)
            tr.stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tr.stack.pop()
                tr.starts[i] = t0
                tr.ends[i] = t1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn, timed: bool = False):
        """Call counter; with timed=True also accumulates busy seconds."""
        calls, busy = self.calls, self.busy_s
        if not timed:
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def timed_wrapper(*args, **kwargs):
            calls[name] += 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += perf() - t0
        return timed_wrapper

    # -- results -----------------------------------------------------------

    def durations_us(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-span duration and self time in microseconds."""
        dur = (np.asarray(self.ends) - np.asarray(self.starts)) * 1e6
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t_origin = self.starts[0] if self.starts else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "parent", "decision", "start_us", "end_us"])
            for i, name in enumerate(self.names):
                w.writerow([
                    i, name, self.parents[i], self.decisions[i],
                    f"{(self.starts[i] - t_origin) * 1e6:.3f}",
                    f"{(self.ends[i] - t_origin) * 1e6:.3f}",
                ])


def install(tr: Tracer) -> None:
    """Wrap the public functions of each xredge module, at their call sites."""
    import xredge.actions as actions
    import xredge.cli as cli
    import xredge.dqn as dqn
    import xredge.environment as environment
    import xredge.harness as harness
    import xredge.latency as latency
    import xredge.policies as policies
    from xredge.energy import Battery

    decode = actions.decode_action

    # controller boundary: one select per decision opens the decision index
    for cls in policy_classes():
        tr.patch(cls, "select", lambda f: tr.span("policies.select", f, opens_decision=True))
        tr.patch(cls, "observe_outcome", lambda f: tr.span("policies.observe_outcome", f))

    # environment: the local and offload paths of step are told apart
    def step_name(_parent, args):
        mode = decode(int(args[1])).mode
        return "environment.step_local" if mode == actions.ExecutionMode.LOCAL else "environment.step_offload"

    tr.patch(environment.XrEnvironment, "step", lambda f: tr.span(step_name, f))

    # latency: the uplink queue
    def make_enqueue(enqueue):
        def wrapper(self, *args, **kwargs):
            tr.calls["latency.enqueue"] += 1
            dropped = enqueue(self, *args, **kwargs)
            tr.frames_dropped += dropped
            if self.depth > tr.queue_depth_max:
                tr.queue_depth_max = self.depth
            return dropped
        return wrapper

    def make_flush(flush):
        def wrapper(self, *args, **kwargs):
            tr.calls["latency.flush"] += 1
            dropped = flush(self, *args, **kwargs)
            tr.frames_dropped += dropped
            return dropped
        return wrapper

    def delivered(_args, out):
        tr.frames_delivered += len(out)

    tr.patch(latency.UplinkQueue, "enqueue", make_enqueue)
    tr.patch(latency.UplinkQueue, "flush", make_flush)
    tr.patch(latency.UplinkQueue, "drain", lambda f: tr.span("latency.drain", f, delivered))

    # network and energy: hot per-tick lookups, counted with busy time
    tr.patch(environment, "rtt_sample", lambda f: tr.counter("network.rtt_sample", f, timed=True))
    for module in (environment, harness):
        tr.patch(module, "bandwidth_at", lambda f: tr.counter("network.bandwidth_at", f, timed=True))
    for module in (environment, policies):
        tr.patch(module, "client_power", lambda f: tr.counter("energy.client_power", f, timed=True))
    tr.patch(Battery, "step", lambda f: tr.counter("energy.battery_step", f, timed=True))

    # actions: pure counters; harness decodes through the actions module
    for module in (environment, policies, actions):
        tr.patch(module, "decode_action", lambda f: tr.counter("actions.decode_action", f))
    for module in (latency, policies):
        tr.patch(module, "quality_scale", lambda f: tr.counter("actions.quality_scale", f))

    # policies: the model-predictive greedy controller
    tr.patch(policies, "greedy_select", lambda f: tr.span("policies.greedy_select", f))
    tr.patch(policies, "predicted_epoch_violation",
             lambda f: tr.span("policies.predicted_epoch_violation", f))

    # dqn: action selection, replay, and the four parts of train_step
    def forward_name(parent, _args):
        under_train = parent >= 0 and tr.names[parent] == "dqn.train_step"
        return "dqn.target_forward" if under_train else "dqn.online_forward"

    tr.patch(dqn.DqnAgent, "select_action", lambda f: tr.span("dqn.select_action", f))
    tr.patch(dqn.DqnAgent, "train_step", lambda f: tr.span("dqn.train_step", f))
    tr.patch(dqn.DqnAgent, "sync_target", lambda f: tr.span("dqn.sync_target", f))
    tr.patch(dqn.ReplayBuffer, "push", lambda f: tr.span("dqn.replay_push", f))
    tr.patch(dqn.ReplayBuffer, "sample", lambda f: tr.span("dqn.replay_sample", f))
    tr.patch(dqn.QNetwork, "forward", lambda f: tr.span(forward_name, f))
    tr.patch(dqn.Adam, "step", lambda f: tr.span("dqn.adam_step", f))
    tr.patch(dqn, "loss_and_grads", lambda f: tr.span("dqn.loss_and_grads", f))

    # harness and cli
    def written(args, _result):
        tr.write_bytes += sum(p.stat().st_size for p in Path(args[0]).iterdir() if p.is_file())

    tr.patch(harness, "run_experiment", lambda f: tr.span("harness.run_experiment", f))
    tr.patch(harness, "_compute_metrics", lambda f: tr.span("harness.compute_metrics", f))
    tr.patch(harness, "write_run", lambda f: tr.span("harness.write_run", f, written))
    tr.patch(harness, "aggregate_seeds", lambda f: tr.span("harness.aggregate_seeds", f))
    tr.patch(cli, "run_scenario", lambda f: tr.span("harness.run_scenario", f))
    tr.patch(cli, "main", lambda f: tr.span("cli.main", f))


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metric values from one traced run, keyed by metric name."""
    names = np.asarray(tr.names, dtype=str)
    dur, self_us = tr.durations_us()

    def sel(*span_names):
        return np.isin(names, span_names)

    def stats(prefix, span_names, which):
        mask = sel(*span_names)
        d = dur[mask]
        out = {
            "calls": int(mask.sum()),
            "us_p50": _pct(d, 50),
            "us_p99": _pct(d, 99),
            "us_total": float(d.sum()),
            "self_us_total": float(self_us[mask].sum()),
        }
        return {f"{prefix}.{k}": out[k] for k in which}

    steps = ("environment.step_local", "environment.step_offload")
    m: dict[str, float] = {}
    m.update(stats("environment.step", steps, ("calls", "us_p50", "us_p99", "self_us_total")))
    m.update(stats("environment.step_local", steps[:1], ("us_p50",)))
    m.update(stats("environment.step_offload", steps[1:], ("us_p50",)))

    m["latency.enqueue.calls"] = tr.calls["latency.enqueue"]
    m.update(stats("latency.drain", ("latency.drain",), ("calls", "us_total")))
    m["latency.flush.calls"] = tr.calls["latency.flush"]
    m["latency.frames_delivered"] = tr.frames_delivered
    m["latency.frames_dropped"] = tr.frames_dropped
    m["latency.queue_depth_max"] = tr.queue_depth_max

    m["network.rtt_sample.calls"] = tr.calls["network.rtt_sample"]
    m["network.bandwidth_at.calls"] = tr.calls["network.bandwidth_at"]
    m["network.us_total"] = 1e6 * (tr.busy_s["network.rtt_sample"] + tr.busy_s["network.bandwidth_at"])
    m["energy.battery_step.calls"] = tr.calls["energy.battery_step"]
    m["energy.client_power.calls"] = tr.calls["energy.client_power"]
    m["energy.us_total"] = 1e6 * (tr.busy_s["energy.battery_step"] + tr.busy_s["energy.client_power"])
    m["actions.decode_action.calls"] = tr.calls["actions.decode_action"]
    m["actions.quality_scale.calls"] = tr.calls["actions.quality_scale"]

    m.update(stats("policies.greedy_select", ("policies.greedy_select",), ("calls", "us_p50", "us_p99")))
    m.update(stats("policies.predicted_epoch_violation", ("policies.predicted_epoch_violation",),
                   ("calls", "us_total")))

    m.update(stats("dqn.select_action", ("dqn.select_action",), ("us_p50",)))
    m.update(stats("dqn.train_step", ("dqn.train_step",), ("calls", "us_p50", "us_p99")))
    for part in ("replay_push", "replay_sample", "target_forward", "loss_and_grads", "adam_step"):
        m.update(stats(f"dqn.{part}", (f"dqn.{part}",), ("us_p50",)))
    m.update(stats("dqn.sync_target", ("dqn.sync_target",), ("calls", "us_p50")))

    m.update(stats("harness.run_experiment", ("harness.run_experiment",), ("us_total",)))
    m["harness.loop_self_us_total"] = float(self_us[sel("harness.run_experiment")].sum())
    m.update(stats("harness.write_run", ("harness.write_run",), ("us_total",)))
    m["harness.write_run.bytes"] = tr.write_bytes
    m.update(stats("harness.aggregate_seeds", ("harness.aggregate_seeds",), ("us_total",)))
    m["cli.self_us_total"] = float(self_us[sel("cli.main")].sum())
    m["trace.spans"] = len(tr.names)
    return m
