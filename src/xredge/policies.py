"""Decision policies: static baselines, threshold heuristic, myopic greedy, RL.

All policies expose select(env) -> action id. The RL wrapper additionally
consumes step outcomes to feed its learner. GREEDY uses the simulator's own
models as a perfect one-step predictor: for every action it prices the
expected epoch reward (expected violation under the RTT jitter law, exact
power draw, current battery credit) and takes the argmax, ties to the lowest
action id. Because jitter is unbounded, any offloaded configuration carries a
strictly positive expected violation and therefore never earns the full
compliance bonus, which is what collapses GREEDY onto the cheapest local
configuration.
"""

from __future__ import annotations

import numpy as np

from .actions import ExecutionMode, N_ACTIONS, decode_action, quality_scale
from .dqn import DqnAgent, DqnConfig
from .energy import client_power
from .environment import XrEnvironment, interval_reward
from .latency import mtp_local, violation

ACTION_LOCAL_FULL = 4      # HIGH imu, HIGH quality, LOCAL
ACTION_OFFLOAD_FULL = 5    # HIGH imu, HIGH quality, OFFLOAD


class StaticPolicy:
    """Always the same configuration."""

    def __init__(self, action_id: int, name: str):
        if not 0 <= action_id < N_ACTIONS:
            raise ValueError(f"action id out of range: {action_id}")
        self.action_id = action_id
        self.name = name

    def select(self, env: XrEnvironment) -> int:
        return self.action_id

    def observe_outcome(self, outcome, env) -> None:
        pass


def static_local() -> StaticPolicy:
    """Full-quality on-device execution, the latency-safe reference."""
    return StaticPolicy(ACTION_LOCAL_FULL, "local")


def static_offload() -> StaticPolicy:
    """Full-quality offloaded execution, the power-saving reference."""
    return StaticPolicy(ACTION_OFFLOAD_FULL, "offload")


def threshold_select(bandwidth_mbps: float, threshold_mbps: float = 15.0) -> int:
    """Offload at full quality when observed bandwidth exceeds the threshold."""
    return ACTION_OFFLOAD_FULL if bandwidth_mbps > threshold_mbps else ACTION_LOCAL_FULL


class ThresholdPolicy:
    """Bandwidth-threshold rule at full IMU rate and image quality."""

    def __init__(self, threshold_mbps: float = 15.0):
        self.threshold_mbps = threshold_mbps
        self.name = "threshold"

    def select(self, env: XrEnvironment) -> int:
        return threshold_select(env.state.bandwidth_mbps, self.threshold_mbps)

    def observe_outcome(self, outcome, env) -> None:
        pass


def predicted_epoch_violation(
    action_id: int,
    env: XrEnvironment,
    include_queue: bool = True,
) -> float:
    """Model-predicted mean violation of one epoch under an action.

    LOCAL: deterministic pipeline, exact violation. OFFLOAD: per-frame
    deterministic delay from a first-in-first-out service sweep at the
    currently observed bandwidth (optionally seeded with the real queue
    backlog), plus the closed-form expected RTT-jitter exceedance above each
    frame's remaining threshold slack.
    """
    cfg = env.cfg
    exec_cfg = decode_action(action_id)
    tau = cfg.tau_mtp_ms
    n_frames = cfg.n_ticks()

    if exec_cfg.mode is ExecutionMode.LOCAL:
        return violation(mtp_local(exec_cfg, cfg.table), tau)

    bw = env.state.bandwidth_mbps
    phi = quality_scale(exec_cfg.quality)
    serial_ms = cfg.frame.payload_mbit(exec_cfg.quality) / bw * 1000.0
    fixed_ms = (
        cfg.rtt.base_ms
        + cfg.table.t_server_ms * phi
        + cfg.table.t_decode_ms
        + cfg.table.t0_encode_ms * phi
    )
    backlog_ms = env.queue_backlog_mbit() / bw * 1000.0 if include_queue else 0.0
    frame_period_ms = cfg.power.tau_frame_ms

    total_v = 0.0
    finish_ms = backlog_ms  # transmission-finish time of the previous frame
    for i in range(n_frames):
        arrival_ms = i * frame_period_ms
        start_ms = max(arrival_ms, finish_ms)
        finish_ms = start_ms + serial_ms
        det_mtp = (finish_ms - arrival_ms) + fixed_ms
        slack = tau - det_mtp
        if slack <= 0.0:
            # already violating before jitter; add the mean jitter on top
            ev = (det_mtp + cfg.rtt.jitter_mean_ms() - tau) / tau
        else:
            ev = cfg.rtt.jitter_excess_mean_ms(slack) / tau
        total_v += ev
    return total_v / n_frames


def predicted_epoch_reward(
    action_id: int,
    env: XrEnvironment,
    include_queue: bool = True,
) -> float:
    """Expected one-epoch reward of an action under the simulator's models."""
    exec_cfg = decode_action(action_id)
    power = client_power(exec_cfg, env.cfg.table, env.cfg.power)
    mean_v = predicted_epoch_violation(action_id, env, include_queue)
    return interval_reward(mean_v, power, env.state.soc, env.cfg.reward)


def greedy_select(env: XrEnvironment, include_queue: bool = True) -> int:
    """Argmax of predicted one-epoch reward over all actions, ties to lowest id."""
    best_id = 0
    best_r = -np.inf
    for a in range(N_ACTIONS):
        r = predicted_epoch_reward(a, env, include_queue)
        if r > best_r:
            best_id, best_r = a, r
    return best_id


class GreedyPolicy:
    """Myopic argmax of model-predicted immediate reward."""

    def __init__(self, include_queue: bool = True):
        self.include_queue = include_queue
        self.name = "greedy"

    def select(self, env: XrEnvironment) -> int:
        return greedy_select(env, self.include_queue)

    def observe_outcome(self, outcome, env) -> None:
        pass


class RlPolicy:
    """Online DQN controller learning from scratch during the run."""

    def __init__(self, dqn_cfg: DqnConfig = DqnConfig(), seed: int = 0):
        self.agent = DqnAgent(dqn_cfg, seed=seed)
        self.name = "rl"
        self._pending: tuple[np.ndarray, int] | None = None

    def select(self, env: XrEnvironment) -> int:
        obs = env.observe()
        action = self.agent.select_action(obs)
        self._pending = (obs, action)
        return action

    def observe_outcome(self, outcome, env) -> None:
        if self._pending is None:
            raise RuntimeError("observe_outcome called before select")
        obs, action = self._pending
        self._pending = None
        self.agent.record_and_train(obs, action, outcome.reward, outcome.obs, outcome.done)

    @property
    def epsilon(self) -> float:
        return self.agent.epsilon

    @property
    def last_loss(self) -> float | None:
        return self.agent.last_loss


# name -> factory(dqn_cfg, seed); the CLI's --policy choices come from here
POLICIES = {
    "local": lambda dqn_cfg, seed: static_local(),
    "offload": lambda dqn_cfg, seed: static_offload(),
    "greedy": lambda dqn_cfg, seed: GreedyPolicy(),
    "greedy-noqueue": lambda dqn_cfg, seed: GreedyPolicy(include_queue=False),
    "threshold": lambda dqn_cfg, seed: ThresholdPolicy(),
    "rl": lambda dqn_cfg, seed: RlPolicy(dqn_cfg, seed=seed),
}


def make_policy(kind: str, dqn_cfg: DqnConfig | None = None, seed: int = 0):
    """Policy factory by case-insensitive name, one of POLICIES."""
    factory = POLICIES.get(kind.lower())
    if factory is None:
        raise ValueError(f"unknown policy kind: {kind.lower()!r}")
    return factory(dqn_cfg or DqnConfig(), seed)
