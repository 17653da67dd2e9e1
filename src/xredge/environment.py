"""Closed-loop XR client environment.

One decision epoch applies an execution configuration for a fixed interval
(default 1 s) simulated at frame granularity (default 50 ms ticks, 20 frames
per epoch). Each tick captures a frame, moves it through the local or
offloaded pipeline, and drains the battery. The epoch ends with a scalar
reward that ranks latency compliance above power draw above battery credit,
and a five-dimensional observation: state of charge, client power, RTT,
bandwidth, and the most recent motion-to-photon latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .actions import ExecutionMode, N_ACTIONS, all_configs, quality_scale
from .energy import Battery, PowerParams, client_power
from .latency import (
    FrameSizeModel,
    ProcTimeTable,
    UplinkQueue,
    mtp_local,
    violation,
)
from .network import BandwidthProfile, RttModel, bandwidth_at, level_index, rtt_sample, rtt_samples


@dataclass(frozen=True)
class SystemState:
    """Raw (unnormalized) observable state at a decision boundary."""

    soc: float
    power_w: float
    rtt_ms: float
    bandwidth_mbps: float
    mtp_ms: float
    t: float


@dataclass(frozen=True)
class RewardParams:
    """Weights of the epoch reward.

    r = r_mtp + r_power + r_battery where r_mtp is +bonus for a fully
    compliant epoch and -lam * (mean violation) otherwise, r_power is
    -alpha_power * power / p_max_w, and r_battery is +beta_battery * soc/100.
    The defaults keep |r_mtp| dominant over the power term, which in turn
    outweighs the battery credit.
    """

    bonus: float = 0.2
    alpha_power: float = 0.05
    beta_battery: float = 0.05
    lam: float = 1.0
    p_max_w: float = 20.8

    def __post_init__(self):
        if not all(map(math.isfinite, (self.bonus, self.alpha_power, self.beta_battery, self.lam))):
            raise ValueError(f"reward weights must be finite: {self}")
        if not 0 < self.p_max_w < math.inf:
            raise ValueError(f"p_max_w must be positive and finite: {self.p_max_w}")


@dataclass(frozen=True)
class EnvConfig:
    profile: BandwidthProfile = field(default_factory=BandwidthProfile)
    rtt: RttModel = field(default_factory=RttModel)
    table: ProcTimeTable = field(default_factory=ProcTimeTable)
    frame: FrameSizeModel = field(default_factory=FrameSizeModel)
    power: PowerParams = field(default_factory=PowerParams)
    reward: RewardParams = field(default_factory=RewardParams)
    capacity_wh: float = 16.6
    soc0: float = 100.0
    drain_factor: float = 3.0
    tau_mtp_ms: float = 30.0
    decision_interval_s: float = 1.0
    horizon_s: float = 1200.0
    queue_max_depth: int = 20
    rtt_max_ms: float = 50.0       # observation clamp
    mtp_max_ms: float = 100.0      # observation clamp

    def __post_init__(self):
        # the battery and the uplink queue check their own arguments
        Battery(self.capacity_wh, self.soc0, self.drain_factor)
        UplinkQueue(self.queue_max_depth)
        # negated comparisons, so that a NaN fails them too
        if not 0 <= self.horizon_s < math.inf:
            raise ValueError(f"horizon must be non-negative and finite: {self.horizon_s}")
        if not 0 < self.tau_mtp_ms < math.inf:
            raise ValueError(f"MTP threshold must be positive and finite: {self.tau_mtp_ms}")
        if not (self.rtt_max_ms > 0 and self.mtp_max_ms > 0):
            raise ValueError(f"observation clamps must be positive: "
                             f"{self.rtt_max_ms}, {self.mtp_max_ms}")
        self.n_ticks()

    def n_ticks(self) -> int:
        tick_s = self.power.tau_frame_ms / 1000.0
        interval = self.decision_interval_s
        ratio = interval / tick_s
        n = round(ratio) if math.isfinite(ratio) else 0
        if n < 1 or abs(n * tick_s - interval) > 1e-9:
            raise ValueError(
                "decision interval must be a positive integer multiple of the "
                f"frame period: {interval} s vs {tick_s} s"
            )
        return n


def _mean(a: np.ndarray) -> float:
    """np.mean of a non-empty float64 vector, bit for bit (the same pairwise
    sum over the same count) without np.mean's Python-level dispatch."""
    return float(np.add.reduce(a)) / a.size


_CONFIGS = tuple(all_configs())
# an offload prediction depends on the image quality alone, so the greedy
# predictor prices one row per quality and shares it across IMU rates
_OFFLOAD_QUALITIES = tuple(dict.fromkeys(
    c.quality for c in _CONFIGS if c.mode is ExecutionMode.OFFLOAD))


class ActionTable:
    """The 18 actions of one EnvConfig, rows indexed by action id.

    Each value is computed once by the scalar model function that defines it,
    so a lookup is bit-identical to calling that function. Tuples serve the
    per-tick lookups of `XrEnvironment.step`; the numpy arrays serve the
    vectorised greedy predictor. Local-only values are nan on offload rows.
    The offload arrays and tuples have one row per offload quality, in
    `offload_qualities` order; `offload_row` gives each action id its row
    (-1 for a local action). The uplink queue keeps that row per frame.
    """

    # the action space itself is the same for every config
    configs = _CONFIGS
    labels = tuple((c.quality.value, c.imu.value, c.mode.name) for c in _CONFIGS)
    is_local = tuple(c.mode is ExecutionMode.LOCAL for c in _CONFIGS)
    offload_qualities = _OFFLOAD_QUALITIES
    offload_row = tuple(-1 if local else _OFFLOAD_QUALITIES.index(c.quality)
                        for c, local in zip(_CONFIGS, is_local))

    def __init__(self, cfg: EnvConfig):
        t = cfg.table
        self.power_w = tuple(client_power(c, t, cfg.power) for c in self.configs)
        self.mtp_local_ms = tuple(
            mtp_local(c, t) if local else float("nan")
            for c, local in zip(self.configs, self.is_local)
        )
        self.v_local = tuple(
            violation(m, cfg.tau_mtp_ms) if local else float("nan")
            for m, local in zip(self.mtp_local_ms, self.is_local)
        )
        self.n_ticks = n = cfg.n_ticks()
        # a full local interval's means over its n frames
        self.mtp_mean_local_ms = tuple(_mean(np.full(n, m)) for m in self.mtp_local_ms)
        self.v_mean_local = tuple(_mean(np.full(n, v)) for v in self.v_local)
        self.payload_mbit = tuple(cfg.frame.payload_mbit(c.quality) for c in self.configs)
        self.jitter_mean_ms = cfg.rtt.jitter_mean_ms()
        # the reward's power term, as interval_reward computes it
        self.reward_power = -cfg.reward.alpha_power * np.array(self.power_w) / cfg.reward.p_max_w

        self.payload_offload_mbit = np.array([cfg.frame.payload_mbit(q) for q in _OFFLOAD_QUALITIES])
        # an offloaded frame's server and client-encode times, one per offload
        # row, and its decode time: the terms `UplinkQueue.drain` adds
        phis = [quality_scale(q) for q in _OFFLOAD_QUALITIES]
        self.server_ms = tuple(t.t_server_ms * f for f in phis)
        self.encode_ms = tuple(t.t0_encode_ms * f for f in phis)
        self.decode_ms = t.t_decode_ms
        # an offloaded frame's MTP minus its queueing and serialization time,
        # with the base RTT standing in for the drawn one
        self.fixed_offload_ms = np.array([
            ((cfg.rtt.base_ms + server) + self.decode_ms) + encode
            for server, encode in zip(self.server_ms, self.encode_ms)
        ])
        # frame arrival times within an epoch, relative to its start
        self.arrival_ms = np.arange(n) * cfg.power.tau_frame_ms
        self.strict_upper = np.triu(np.ones((self.arrival_ms.size,) * 2), 1)


@dataclass(frozen=True)
class StepOutcome:
    """One decision interval's result; the frames it delivered are arrays,
    one entry per frame in delivery order."""

    state: SystemState
    obs: np.ndarray
    reward: float
    done: bool
    t_capture: np.ndarray  # capture time, s
    mtp_ms: np.ndarray     # motion-to-photon latency, ms
    info: dict


def interval_reward(mean_v: float, power_w: float, soc: float, params: RewardParams) -> float:
    """Reward of one decision epoch from its aggregate outcome."""
    if mean_v < 0:
        raise ValueError(f"mean violation must be non-negative: {mean_v}")
    if mean_v == 0.0:
        r_mtp = params.bonus
    else:
        r_mtp = -params.lam * mean_v
    r_power = -params.alpha_power * power_w / params.p_max_w
    r_battery = params.beta_battery * soc / 100.0
    return r_mtp + r_power + r_battery


def objective_value(survived_s: float, v_per_epoch: list[float], lam: float) -> float:
    """Session objective: battery lifetime minus the accumulated violations."""
    return survived_s - lam * float(sum(v_per_epoch))


def observe(state: SystemState, cfg: EnvConfig) -> np.ndarray:
    """Normalize a SystemState into the agent's 5-vector, all in [0, 1].

    Bandwidth is log-scaled (log10 of Mbps over three decades) because the
    schedule spans 1 to 1000 Mbps.
    """
    soc = state.soc / 100.0
    power = min(max(state.power_w / cfg.reward.p_max_w, 0.0), 1.0)
    rtt = min(max(state.rtt_ms / cfg.rtt_max_ms, 0.0), 1.0)
    bw = min(max(np.log10(max(state.bandwidth_mbps, 1e-12)) / 3.0, 0.0), 1.0)
    mtp = min(max(state.mtp_ms / cfg.mtp_max_ms, 0.0), 1.0)
    return np.array([soc, power, rtt, bw, mtp], dtype=np.float64)


class XrEnvironment:
    """Frame-granular simulator of the managed XR client."""

    def __init__(self, cfg: EnvConfig, seed: int = 0):
        self.cfg = cfg
        self.seed = seed
        self.actions = ActionTable(cfg)
        self.reset()

    def reset(self) -> SystemState:
        """Restart the episode; same seed, same trajectory."""
        cfg = self.cfg
        self.rng = np.random.default_rng(self.seed)
        self.t = 0.0
        self.battery = Battery(cfg.capacity_wh, cfg.soc0, cfg.drain_factor)
        self.queue = UplinkQueue(cfg.queue_max_depth)
        self.v_per_epoch: list[float] = []
        self.decisions = 0
        self.frames_captured = 0
        self.frames_delivered = 0
        self.survived_s = 0.0
        rtt0 = rtt_sample(cfg.rtt, self.rng)
        self.state = SystemState(
            soc=self.battery.soc,
            power_w=cfg.power.p_base_w,
            rtt_ms=rtt0,
            bandwidth_mbps=bandwidth_at(cfg.profile, 0.0),
            mtp_ms=0.0,
            t=0.0,
        )
        self.done = self.battery.depleted or cfg.horizon_s <= 0.0
        return self.state

    def observe(self) -> np.ndarray:
        return observe(self.state, self.cfg)

    def step(self, action: int) -> StepOutcome:
        """Apply an action id for one decision interval.

        The battery is drained first, which fixes how many ticks capture a
        frame before the charge runs out; those ticks' RTTs are then drawn
        in one call, in the order the tick-by-tick definition draws them.
        """
        if self.done:
            raise RuntimeError("episode is over; call reset()")
        row = int(action)
        if not 0 <= row < N_ACTIONS:
            raise ValueError(f"action id out of range [0, {N_ACTIONS}): {action}")
        cfg, tab = self.cfg, self.actions
        local = tab.is_local[row]
        power = tab.power_w[row]
        tick_s = cfg.power.tau_frame_ms / 1000.0
        n_ticks = tab.n_ticks

        # a switch to local execution abandons pending uploads
        flushed = 0
        if local and self.queue.depth:
            flushed = self.queue.flush()

        t0 = self.t
        # the interval is truncated at the instant the charge runs out
        energy_j, captured, depleted_at = self.battery.steps(power, tick_s, n_ticks, t0)
        t_end = depleted_at if depleted_at is not None else t0 + n_ticks * tick_s
        rtts = rtt_samples(cfg.rtt, self.rng, captured)
        rtt = rtts[-1] if rtts else self.state.rtt_ms
        ticks = t0 + np.arange(captured) * tick_s

        if local:
            dropped = pending_censored = 0
            mtp_obs = tab.mtp_local_ms[row]
            t_capture, mtp = ticks, np.full(captured, mtp_obs)
            if captured == n_ticks:
                mean_v, mtp_mean = tab.v_mean_local[row], tab.mtp_mean_local_ms[row]
            else:
                mean_v = _mean(np.full(captured, tab.v_local[row]))
                mtp_mean = _mean(mtp)
        else:
            # one enqueue and one uplink drain per tick
            queue, quality_row, payload = self.queue, tab.offload_row[row], tab.payload_mbit[row]
            enqueue, drain = queue.enqueue, queue.drain
            levels = cfg.profile.levels_mbps
            dropped, t_out, mtps = 0, [], []
            for tk, level, rtt_k in zip(ticks.tolist(), level_index(cfg.profile, ticks).tolist(), rtts):
                dropped += enqueue(tk, quality_row, payload)
                drain(levels[level], rtt_k, tick_s, tk, tab, t_out, mtps)
            t_capture, mtp = np.array(t_out), np.array(mtps)
            mtp_obs = mtps[-1] if mtps else self.state.mtp_ms
            mtp_mean = _mean(mtp) if mtps else float("nan")
            # epoch violation: delivered frames plus a censored lower bound
            # for frames captured this interval that are still stuck in the
            # queue (an epoch that delivers nothing must not look compliant);
            # the elementwise `violation` of both, in one array
            pending = [(t_end - t) * 1000.0 for t in queue.t_capture if t >= t0]
            pending_censored = len(pending)
            tau = cfg.tau_mtp_ms
            v_values = np.maximum(0.0, (np.array(mtps + pending) - tau) / tau)
            mean_v = _mean(v_values) if v_values.size else 0.0

        self.t = t_end
        self.frames_captured += captured
        self.frames_delivered += mtp.size
        self.v_per_epoch.append(mean_v)
        reward = interval_reward(mean_v, power, self.battery.soc, cfg.reward)
        self.state = SystemState(
            soc=self.battery.soc,
            power_w=power,
            rtt_ms=rtt,
            bandwidth_mbps=bandwidth_at(cfg.profile, min(t_end, cfg.horizon_s)),
            mtp_ms=mtp_obs,
            t=t_end,
        )
        self.decisions += 1
        self.done = self.battery.depleted or t_end >= cfg.horizon_s - 1e-9
        self.survived_s = t_end

        info = {
            "mean_v": mean_v,
            "mtp_mean_ms": mtp_mean,
            "frames_captured": captured,
            "frames_delivered": mtp.size,
            "frames_dropped": dropped + flushed,
            "pending_censored": pending_censored,
            "queue_depth": self.queue.depth,
            "energy_j": energy_j,
            "power_w": power,
            "bandwidth_mbps": self.state.bandwidth_mbps,
            "rtt_ms": rtt,
            "depleted": self.battery.depleted,
        }
        return StepOutcome(
            state=self.state,
            obs=self.observe(),
            reward=reward,
            done=self.done,
            t_capture=t_capture,
            mtp_ms=mtp,
            info=info,
        )

    def objective(self) -> float:
        return objective_value(self.survived_s, self.v_per_epoch, self.cfg.reward.lam)
