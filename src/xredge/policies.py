"""Decision policies: static baselines, threshold heuristic, myopic greedy, RL.

All policies expose select(env) -> action id. The RL wrapper additionally
consumes step outcomes to feed its learner. GREEDY uses the simulator's own
models as a perfect one-step predictor: for every action it prices the
expected epoch reward (expected violation under the RTT jitter law, exact
power draw, current battery credit) and takes the argmax, ties to the lowest
action id. Because lognormal jitter is unbounded, any offloaded configuration
carries a strictly positive expected violation (until the tail underflows
double precision, far below any default setting) and therefore never earns
the full compliance bonus, which is what collapses GREEDY onto the cheapest
local configuration.

How GREEDY scores actions: `predicted_epoch` prices all 18 actions with one
vectorised uplink sweep over the environment's action table, one row per
offload quality, computed as the Lindley recursion in closed form (no loop
over frames); each action reads its violation from that sweep or, if local,
from the table. Every value is bit-identical to the per-action,
frame-by-frame definition that the tests keep as their reference.
"""

from __future__ import annotations

import numpy as np

from .actions import N_ACTIONS
from .dqn import DqnAgent, DqnConfig
from .environment import XrEnvironment

# full-quality on-device execution, the latency-safe reference
ACTION_LOCAL_FULL = 4      # HIGH imu, HIGH quality, LOCAL
# full-quality offloaded execution, the power-saving reference
ACTION_OFFLOAD_FULL = 5    # HIGH imu, HIGH quality, OFFLOAD


class StaticPolicy:
    """Always the same configuration."""

    def __init__(self, action_id: int):
        if not 0 <= action_id < N_ACTIONS:
            raise ValueError(f"action id out of range: {action_id}")
        self.action_id = action_id

    def select(self, env: XrEnvironment) -> int:
        return self.action_id

    def observe_outcome(self, outcome, env) -> None:
        pass


def threshold_select(bandwidth_mbps: float, threshold_mbps: float) -> int:
    """Offload at full quality when observed bandwidth exceeds the threshold."""
    return ACTION_OFFLOAD_FULL if bandwidth_mbps > threshold_mbps else ACTION_LOCAL_FULL


class ThresholdPolicy:
    """Bandwidth-threshold rule at full IMU rate and image quality."""

    def __init__(self, threshold_mbps: float = 15.0):
        self.threshold_mbps = threshold_mbps

    def select(self, env: XrEnvironment) -> int:
        return threshold_select(env.state.bandwidth_mbps, self.threshold_mbps)

    def observe_outcome(self, outcome, env) -> None:
        pass


def offload_epoch_violation(env: XrEnvironment, include_queue: bool) -> list[float]:
    """Model-predicted mean violation of one offloaded epoch, per offload quality.

    Returns one value per row of the action table's offload arrays; an
    offload prediction does not depend on the IMU rate. Per-frame
    deterministic delay comes from a first-in-first-out service sweep at the
    currently observed bandwidth (optionally seeded with the real queue
    backlog), plus the closed-form expected RTT-jitter exceedance above each
    frame's remaining threshold slack.

    The sweep is the Lindley recursion finish_i = max(a_i, finish_{i-1}) + s,
    with a_0 the backlog and a_k = k*T, in closed form: because rounding
    x + s is monotone in x, finish_i is, bit for bit, the largest over k <= i
    of the sequential sum a_k + s + ... + s with i - k + 1 terms s. Frame
    exceedances add up in frame order, so every value equals the one of the
    frame-by-frame definition.
    """
    cfg, tab = env.cfg, env.actions
    tau = cfg.tau_mtp_ms
    bw = env.state.bandwidth_mbps
    arrival = tab.arrival_ms
    n = arrival.size

    # rows are the offload qualities; along the last axis, candidate k sums
    # zeros before frame k, then start_k + s, then one more s per frame
    serial = tab.payload_offload_mbit / bw * 1000.0
    start = arrival.copy()
    start[0] = env.queue.backlog_mbit / bw * 1000.0 if include_queue else 0.0
    steps = tab.strict_upper * serial[:, None, None]
    steps.reshape(serial.size, n * n)[:, :: n + 1] = start + serial[:, None]
    finish = np.cumsum(steps, axis=2).max(axis=1)

    det_mtp = (finish - arrival) + tab.fixed_offload_ms[:, None]
    slack = tau - det_mtp
    # already violating before jitter: the mean jitter adds on top
    ev = (det_mtp + tab.jitter_mean_ms - tau) / tau
    pos = slack > 0.0
    if pos.any():
        slacks = slack[pos].tolist()
        excess = {x: cfg.rtt.jitter_excess_mean_ms(x) / tau for x in set(slacks)}
        ev[pos] = [excess[x] for x in slacks]
    # cumsum adds in frame order, as the definition does; np.sum adds pairwise
    return (np.cumsum(ev, axis=1)[:, -1] / n).tolist()


def predicted_epoch_violation(action_id: int, env: XrEnvironment, offload_v: list[float]) -> float:
    """Model-predicted mean violation of one epoch under one action.

    LOCAL: deterministic pipeline, exact violation from the action table.
    OFFLOAD: the action's quality row of `offload_v`, the result of
    `offload_epoch_violation` for the current state.
    """
    tab = env.actions
    if tab.is_local[action_id]:
        return tab.v_local[action_id]
    return offload_v[tab.offload_row[action_id]]


def predicted_epoch(env: XrEnvironment, include_queue: bool) -> tuple[np.ndarray, np.ndarray]:
    """Model-predicted mean violation and reward of one epoch, for every action.

    Returns two length-18 arrays indexed by action id. The offload sweep runs
    once; each action then reads its violation through
    `predicted_epoch_violation`. The reward is `interval_reward` of that
    violation, the action's power draw and the current charge.
    """
    cfg, tab = env.cfg, env.actions
    offload_v = offload_epoch_violation(env, include_queue)
    v = np.array([predicted_epoch_violation(a, env, offload_v) for a in range(N_ACTIONS)])
    rp = cfg.reward
    r_mtp = np.where(v == 0.0, rp.bonus, -rp.lam * v)
    r = (r_mtp + tab.reward_power) + rp.beta_battery * env.state.soc / 100.0
    return v, r


def greedy_select(env: XrEnvironment, include_queue: bool) -> int:
    """Argmax of predicted one-epoch reward over all actions, ties to lowest id."""
    return int(np.argmax(predicted_epoch(env, include_queue)[1]))


class GreedyPolicy:
    """Myopic argmax of model-predicted immediate reward."""

    def __init__(self, include_queue: bool = True):
        self.include_queue = include_queue

    def select(self, env: XrEnvironment) -> int:
        return greedy_select(env, self.include_queue)

    def observe_outcome(self, outcome, env) -> None:
        pass


class RlPolicy:
    """Online DQN controller learning from scratch during the run."""

    def __init__(self, dqn_cfg: DqnConfig = DqnConfig(), seed: int = 0):
        self.agent = DqnAgent(dqn_cfg, seed=seed)
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
    "local": lambda dqn_cfg, seed: StaticPolicy(ACTION_LOCAL_FULL),
    "offload": lambda dqn_cfg, seed: StaticPolicy(ACTION_OFFLOAD_FULL),
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
