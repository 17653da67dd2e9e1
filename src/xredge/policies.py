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

How GREEDY scores actions: `predicted_epoch` runs the uplink's Lindley
recursion frame by frame, once per offload quality of the environment's
action table, and adds each frame's age to the table's
`latency.offload_mtp_ms` at zero age; each action reads its violation from
that sweep or, if local, from the table, and its reward is the sum of the
simulator's `interval_reward` terms. Every value is bit-identical to the
per-action definition that the tests keep as their reference.
"""

from __future__ import annotations

import numpy as np

from .actions import N_ACTIONS
from .dqn import DqnAgent, DqnConfig
from .environment import OBS_DIM, XrEnvironment, battery_term, compliance_term
from .latency import serialization_s, violation

# full-quality on-device execution, the latency-safe reference
ACTION_LOCAL_FULL = 4      # HIGH imu, HIGH quality, LOCAL
# full-quality offloaded execution, the power-saving reference
ACTION_OFFLOAD_FULL = 5    # HIGH imu, HIGH quality, OFFLOAD
# the observed bandwidth above which THRESHOLD offloads
THRESHOLD_MBPS = 15.0


class StaticPolicy:
    """Always the same configuration; `XrEnvironment.step` checks the id."""

    def __init__(self, action_id: int):
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

    def select(self, env: XrEnvironment) -> int:
        return threshold_select(env.state.bandwidth_mbps, THRESHOLD_MBPS)

    def observe_outcome(self, outcome, env) -> None:
        pass


def offload_epoch_violation(env: XrEnvironment) -> list[float]:
    """Model-predicted mean violation of one offloaded epoch, per offload quality.

    Returns one value per row of the action table's offload arrays; an
    offload prediction does not depend on the IMU rate. Per-frame
    deterministic delay comes from a first-in-first-out service sweep at the
    currently observed bandwidth, seeded with the real queue backlog, plus
    the closed-form expected RTT-jitter exceedance above each frame's
    remaining threshold slack. That exceedance is computed once per distinct
    slack: per environment (`env.excess_per_tau`) while the queue is empty,
    per call under a backlog.

    The sweep runs the Lindley recursion finish_i = max(a_i, finish_{i-1}) + s,
    with a_k = k*T and finish_0 = backlog + s, frame by frame on Python
    floats. With the exceedances added in frame order, every value is, bit for
    bit, the one of the frame-by-frame definition.
    """
    cfg, tab = env.cfg, env.actions
    tau = cfg.tau_mtp_ms
    bw = env.state.bandwidth_mbps
    arrival = tab.arrival_ms
    n = arrival.size

    # with the queue empty the slacks depend on the bandwidth alone, so the
    # environment keeps their exceedances; a backlog's are priced afresh
    if env.queue.depth:
        backlog_ms = serialization_s(env.queue.backlog_mbit, bw) * 1000.0
        excess = {}
    else:
        backlog_ms = 0.0
        excess = env.excess_per_tau

    # one row per offload quality, one finish time per frame
    rows = []
    for s in [serialization_s(p, bw) * 1000.0 for p in tab.payload_offload_mbit]:
        f = backlog_ms + s
        row = [f]
        for a in tab.later_arrival_ms:
            f = (a if a > f else f) + s
            row.append(f)
        rows.append(row)
    finish = np.array(rows)

    det_mtp = (finish - arrival) + tab.fixed_offload_ms
    slack = tau - det_mtp
    pos = slack > 0.0
    # already violating before jitter: the mean jitter adds on top; where
    # every frame has slack, the exceedances below overwrite every value
    ev = np.empty_like(slack) if pos.all() else violation(det_mtp + tab.jitter_mean_ms, tau)
    if pos.any():
        xs = slack[pos].tolist()
        values = list(map(excess.get, xs))
        if None in values:
            # price each slack not seen before once, then gather again
            for x in set(xs).difference(excess):
                excess[x] = cfg.rtt.jitter_excess_mean_ms(x) / tau
            values = list(map(excess.get, xs))
        ev[pos] = values
    # accumulate adds in frame order, as the definition does; np.sum adds pairwise
    return (np.add.accumulate(ev, axis=1)[:, -1] / n).tolist()


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


def predicted_epoch(env: XrEnvironment) -> tuple[list[float], list[float]]:
    """Model-predicted mean violation and reward of one epoch, for every action.

    Returns two length-18 lists indexed by action id. The offload sweep runs
    once; each action then reads its violation through
    `predicted_epoch_violation`. The reward adds `interval_reward`'s terms
    in its order: the compliance term of that violation, the action's power
    term from the table and the battery term of the current charge, which
    is computed once.
    """
    offload_v = offload_epoch_violation(env)
    v = [predicted_epoch_violation(a, env, offload_v) for a in range(N_ACTIONS)]
    params = env.cfg.reward
    battery = battery_term(env.state.soc, params)
    return v, [compliance_term(x, params) + r + battery for x, r in zip(v, env.actions.power_term)]


def greedy_select(env: XrEnvironment) -> int:
    """Argmax of predicted one-epoch reward over all actions, ties to lowest id."""
    r = predicted_epoch(env)[1]
    return r.index(max(r))


class GreedyPolicy:
    """Myopic argmax of model-predicted immediate reward."""

    def select(self, env: XrEnvironment) -> int:
        return greedy_select(env)

    def observe_outcome(self, outcome, env) -> None:
        pass


class RlPolicy:
    """Online DQN controller learning from scratch during the run."""

    def __init__(self, dqn_cfg: DqnConfig = DqnConfig(), seed: int = 0):
        self.agent = DqnAgent(OBS_DIM, N_ACTIONS, dqn_cfg, seed=seed)
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
        # the environment has not moved since step returned the outcome
        self.agent.record_and_train(obs, action, outcome.reward, env.observe(), env.done)


# name -> factory(dqn_cfg, seed); the CLI's --policy choices come from here
POLICIES = {
    "local": lambda dqn_cfg, seed: StaticPolicy(ACTION_LOCAL_FULL),
    "offload": lambda dqn_cfg, seed: StaticPolicy(ACTION_OFFLOAD_FULL),
    "greedy": lambda dqn_cfg, seed: GreedyPolicy(),
    "threshold": lambda dqn_cfg, seed: ThresholdPolicy(),
    "rl": lambda dqn_cfg, seed: RlPolicy(dqn_cfg, seed=seed),
}


def make_policy(kind: str, dqn_cfg: DqnConfig | None = None, seed: int = 0):
    """Policy factory by exact name, one of POLICIES."""
    factory = POLICIES.get(kind)
    if factory is None:
        raise ValueError(f"unknown policy kind: {kind!r}")
    return factory(dqn_cfg or DqnConfig(), seed)
