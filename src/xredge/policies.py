"""Decision policies: static baselines, threshold heuristic, myopic greedy, RL.

All policies expose select(env) -> action id, observe_outcome(outcome, env)
and repeat_until(env, action). The RL wrapper consumes step outcomes to
feed its learner. repeat_until gives the simulated time before which every
decision from the current state on selects `action`, whatever the outcomes,
so the harness may advance the intervals that end before it in one run:
for ever for a static policy, to the end of the dwell for THRESHOLD, and
never for the closed-loop GREEDY and RL. A decision of such a run has no
Outcome of its own, so its observe_outcome gets None. GREEDY uses the simulator's own
models as a perfect one-step predictor: for every action it prices the
expected epoch reward (expected violation under the RTT jitter law, exact
power draw, current battery credit) and takes the argmax, ties to the lowest
action id. Because lognormal jitter is unbounded, any offloaded configuration
carries a strictly positive expected violation (until the tail underflows
double precision, far below any default setting) and therefore never earns
the full compliance bonus, which is what collapses GREEDY onto the cheapest
local configuration.

How GREEDY scores actions: `predicted_epoch` runs the uplink's Lindley
recursion in one loop of Python floats per offload quality of the
environment's action table, adds each frame's age to the table's
`latency.offload_mtp_ms` at zero age, and prices each distinct slack's
jitter exceedance once: over an empty queue in one memo per action table,
held in a weak map of this module, under a backlog in a memo local to the
call; nothing is kept on the environment or the table. Each action reads
its violation from that sweep or, if local, from the table, and its reward
is the sum of the simulator's `interval_reward` terms. Every value is
bit-identical to the per-action definition that the tests keep as their
reference.
"""

from __future__ import annotations

import math
import weakref

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
# ActionTable -> {slack: expected exceedance over tau} of its empty-queue
# predictions; weak, so a memo goes with its config and table
_EMPTY_QUEUE_EXCESS = weakref.WeakKeyDictionary()


class StaticPolicy:
    """Always the same configuration; `XrEnvironment.step` checks the id."""

    def __init__(self, action_id: int):
        self.action_id = action_id

    def select(self, env: XrEnvironment) -> int:
        return self.action_id

    def observe_outcome(self, outcome, env) -> None:
        pass

    def repeat_until(self, env: XrEnvironment, action: int) -> float:
        return math.inf if action == self.action_id else -math.inf


def threshold_select(bandwidth_mbps: float, threshold_mbps: float) -> int:
    """Offload at full quality when observed bandwidth exceeds the threshold."""
    return ACTION_OFFLOAD_FULL if bandwidth_mbps > threshold_mbps else ACTION_LOCAL_FULL


class ThresholdPolicy:
    """Bandwidth-threshold rule at full IMU rate and image quality."""

    def select(self, env: XrEnvironment) -> int:
        return threshold_select(env.state.bandwidth_mbps, THRESHOLD_MBPS)

    def observe_outcome(self, outcome, env) -> None:
        pass

    def repeat_until(self, env: XrEnvironment, action: int) -> float:
        """The start of the next dwell, if the bandwidth observed now selects
        `action`: an interval that ends before it leaves that bandwidth."""
        if threshold_select(env.state.bandwidth_mbps, THRESHOLD_MBPS) != action:
            return -math.inf
        dwell_s = env.cfg.profile.dwell_s
        return (env.t // dwell_s + 1.0) * dwell_s


def offload_epoch_violation(env: XrEnvironment) -> list[float]:
    """Model-predicted mean violation of one offloaded epoch, per offload quality.

    Returns one value per row of the action table's offload arrays; an
    offload prediction does not depend on the IMU rate. Per-frame
    deterministic delay comes from a first-in-first-out service sweep at the
    currently observed bandwidth, seeded with the real queue backlog, plus
    the closed-form expected RTT-jitter exceedance above each frame's
    remaining threshold slack, priced once per distinct slack. Over an
    empty queue a level, a quality and a frame fix the slack, so the memo
    is the table's in `_EMPTY_QUEUE_EXCESS`, at most len(levels_mbps) * 3 *
    n_ticks entries; a backlog's memo is local to the call.

    The sweep runs the Lindley recursion finish_k = max(a_k, finish_{k-1}) + s,
    with a_k = k*T and finish_{-1} = backlog, one loop per quality on Python
    floats. Each frame's term is added in frame order from 0.0, so every
    value is, bit for bit, the one of the frame-by-frame definition.
    """
    cfg, tab = env.cfg, env.actions
    tau = cfg.tau_mtp_ms
    bw = env.state.bandwidth_mbps
    jitter_mean = tab.jitter_mean_ms
    excess_mean = cfg.rtt.jitter_excess_mean_ms
    arrival = tab.arrival_ms
    backlog_ms = serialization_s(env.queue.backlog_mbit, bw) * 1000.0
    # slack -> its expected exceedance over tau; a backlog's slacks are unbounded
    excess = {} if env.queue.depth else _EMPTY_QUEUE_EXCESS.setdefault(tab, {})
    out = []
    for p, fixed in zip(tab.payload_offload_mbit, tab.fixed_offload_ms):
        s = serialization_s(p, bw) * 1000.0
        f = backlog_ms
        total = 0.0
        for a in arrival:
            f = (a if a > f else f) + s
            det = (f - a) + fixed
            slack = tau - det
            if slack > 0.0:
                term = excess.get(slack)
                if term is None:
                    term = excess[slack] = excess_mean(slack) / tau
            else:
                # already violating before jitter: the mean jitter adds on top
                term = violation(det + jitter_mean, tau)
            total += term
        out.append(total / len(arrival))
    return out


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

    def repeat_until(self, env: XrEnvironment, action: int) -> float:
        return -math.inf


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

    def repeat_until(self, env: XrEnvironment, action: int) -> float:
        return -math.inf


# name -> factory(dqn_cfg, seed); the CLI's --policy choices come from here
POLICIES = {
    "local": lambda dqn_cfg, seed: StaticPolicy(ACTION_LOCAL_FULL),
    "offload": lambda dqn_cfg, seed: StaticPolicy(ACTION_OFFLOAD_FULL),
    "greedy": lambda dqn_cfg, seed: GreedyPolicy(),
    "threshold": lambda dqn_cfg, seed: ThresholdPolicy(),
    "rl": lambda dqn_cfg, seed: RlPolicy(dqn_cfg, seed=seed),
}
