"""Battery-aware execution management for edge-assisted XR.

Closed-loop simulator of an XR client that chooses, once per second, how to
run its perception pipeline: locally at one of three quality tiers, or
offloaded to an edge server over a time-varying link. Includes the latency,
power, and battery models, a replay-trained Q-learning controller, fixed
baselines, and an experiment harness.
"""

from .actions import (
    N_ACTIONS,
    ExecutionConfig,
    ExecutionMode,
    ImuRate,
    QualityLevel,
    all_configs,
    decode_action,
    encode_action,
    quality_scale,
)
from .dqn import DqnAgent, DqnConfig, EpsilonSchedule, QNetwork, ReplayBuffer
from .energy import Battery, PowerParams, client_power, lifetime_projection
from .environment import (
    EnvConfig,
    RewardParams,
    SystemState,
    XrEnvironment,
    default_env_config,
    interval_reward,
    objective_value,
    observe,
)
from .harness import (
    MetricsRecord,
    RunResult,
    ScenarioSpec,
    aggregate_seeds,
    default_scenario,
    load_spec,
    run_experiment,
    run_scenario,
    save_spec,
    sweep,
)
from .latency import (
    FrameSizeModel,
    ProcTimeTable,
    UplinkQueue,
    mtp_local,
    net_delay,
    proc_time,
    violation,
)
from .network import (
    BandwidthProfile,
    RttModel,
    bandwidth_at,
    cycle_profile,
    load_profile,
    rtt_sample,
    stable_profile,
)
from .policies import (
    GreedyPolicy,
    RlPolicy,
    StaticPolicy,
    ThresholdPolicy,
    greedy_select,
    make_policy,
    threshold_select,
)

__version__ = "0.1.0"

__all__ = [
    "N_ACTIONS",
    "Battery",
    "BandwidthProfile",
    "DqnAgent",
    "DqnConfig",
    "EnvConfig",
    "EpsilonSchedule",
    "ExecutionConfig",
    "ExecutionMode",
    "FrameSizeModel",
    "GreedyPolicy",
    "ImuRate",
    "MetricsRecord",
    "PowerParams",
    "ProcTimeTable",
    "QNetwork",
    "QualityLevel",
    "ReplayBuffer",
    "RewardParams",
    "RlPolicy",
    "RunResult",
    "ScenarioSpec",
    "StaticPolicy",
    "SystemState",
    "ThresholdPolicy",
    "UplinkQueue",
    "XrEnvironment",
    "aggregate_seeds",
    "all_configs",
    "bandwidth_at",
    "client_power",
    "cycle_profile",
    "decode_action",
    "default_env_config",
    "default_scenario",
    "encode_action",
    "greedy_select",
    "interval_reward",
    "lifetime_projection",
    "load_profile",
    "load_spec",
    "make_policy",
    "mtp_local",
    "net_delay",
    "objective_value",
    "observe",
    "proc_time",
    "quality_scale",
    "rtt_sample",
    "run_experiment",
    "run_scenario",
    "save_spec",
    "stable_profile",
    "sweep",
    "threshold_select",
    "violation",
]
