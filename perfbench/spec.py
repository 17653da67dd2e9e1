"""What the benchmark measures: workloads, metrics, units and bounds.

BENCHMARK.json at the repository root is generated from this file:

    python3 perfbench/spec.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RUN_SECONDS = 20

WORKLOAD_WHY = {
    "rl-cycle": "online DQN on the cycle profile: learning (dqn) takes most of the time, env.step about a fifth",
    "greedy-cycle": "model-predictive greedy on the cycle profile: greedy_select dominates, no dqn, env.step runs only the local path",
    "static-cli": "local/offload/threshold on cycle and stable via xredge.cli with artifacts: env, queue and writers only; a full and an empty queue",
}

# (name, unit, better, bound)
# Bounds: ten runs of the seed code spread (quartile distance over median)
# by 2-14% after speed scaling, and by up to 26% on wall_s while the host
# ran at half speed (see README.md). setup_s is not scaled, so it gets the
# largest bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("decision_us_p50", "us", "lower", 0.2),
    ("decision_us_p99", "us", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

_US, _N = "us", "count"
# (name, unit, better)
PER_LAYER = [
    ("environment.step.calls", _N, "lower"),
    ("environment.step.us_p50", _US, "lower"),
    ("environment.step.us_p99", _US, "lower"),
    ("environment.step.self_us_total", _US, "lower"),
    ("environment.step_local.us_p50", _US, "lower"),
    ("environment.step_offload.us_p50", _US, "lower"),
    ("latency.enqueue.calls", _N, "lower"),
    ("latency.drain.calls", _N, "lower"),
    ("latency.drain.us_total", _US, "lower"),
    ("latency.flush.calls", _N, "lower"),
    ("latency.frames_delivered", _N, "higher"),
    ("latency.frames_dropped", _N, "lower"),
    ("latency.queue_depth_max", _N, "lower"),
    ("network.rtt_sample.calls", _N, "lower"),
    ("network.bandwidth_at.calls", _N, "lower"),
    ("network.us_total", _US, "lower"),
    ("energy.battery_step.calls", _N, "lower"),
    ("energy.client_power.calls", _N, "lower"),
    ("energy.us_total", _US, "lower"),
    ("actions.decode_action.calls", _N, "lower"),
    ("actions.quality_scale.calls", _N, "lower"),
    ("policies.greedy_select.calls", _N, "lower"),
    ("policies.greedy_select.us_p50", _US, "lower"),
    ("policies.greedy_select.us_p99", _US, "lower"),
    ("policies.predicted_epoch_violation.calls", _N, "lower"),
    ("policies.predicted_epoch_violation.us_total", _US, "lower"),
    ("dqn.select_action.us_p50", _US, "lower"),
    ("dqn.train_step.calls", _N, "lower"),
    ("dqn.train_step.us_p50", _US, "lower"),
    ("dqn.train_step.us_p99", _US, "lower"),
    ("dqn.replay_push.us_p50", _US, "lower"),
    ("dqn.replay_sample.us_p50", _US, "lower"),
    ("dqn.target_forward.us_p50", _US, "lower"),
    ("dqn.loss_and_grads.us_p50", _US, "lower"),
    ("dqn.adam_step.us_p50", _US, "lower"),
    ("dqn.sync_target.calls", _N, "lower"),
    ("dqn.sync_target.us_p50", _US, "lower"),
    ("harness.run_experiment.us_total", _US, "lower"),
    ("harness.loop_self_us_total", _US, "lower"),
    ("harness.write_run.us_total", _US, "lower"),
    ("harness.write_run.bytes", "bytes", "lower"),
    ("harness.aggregate_seeds.us_total", _US, "lower"),
    ("cli.self_us_total", _US, "lower"),
    ("trace.spans", _N, "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOAD_WHY.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(render())
    print(f"wrote {path}", file=sys.stderr)
