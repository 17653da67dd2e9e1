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

from dataclasses import dataclass, field, replace

import numpy as np

from .actions import ExecutionConfig, ExecutionMode, N_ACTIONS, decode_action
from .energy import Battery, PowerParams, client_power
from .latency import (
    FrameSizeModel,
    ProcTimeTable,
    UplinkQueue,
    mtp_local,
    violation,
)
from .network import BandwidthProfile, RttModel, bandwidth_at, rtt_sample


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
        # Battery and UplinkQueue check capacity, SoC, drain factor and depth
        if self.horizon_s < 0:
            raise ValueError(f"horizon must be non-negative: {self.horizon_s}")
        if self.tau_mtp_ms <= 0:
            raise ValueError(f"MTP threshold must be positive: {self.tau_mtp_ms}")
        if self.rtt_max_ms <= 0 or self.mtp_max_ms <= 0:
            raise ValueError(f"observation clamps must be positive: "
                             f"{self.rtt_max_ms}, {self.mtp_max_ms}")
        self.n_ticks()

    def n_ticks(self) -> int:
        tick_s = self.power.tau_frame_ms / 1000.0
        n = round(self.decision_interval_s / tick_s)
        if n < 1 or abs(n * tick_s - self.decision_interval_s) > 1e-9:
            raise ValueError(
                "decision interval must be a positive integer multiple of the "
                f"frame period: {self.decision_interval_s} s vs {tick_s} s"
            )
        return n


@dataclass(frozen=True)
class FrameRecord:
    t_capture: float
    mtp_ms: float
    compliant: bool
    mode: ExecutionMode


@dataclass(frozen=True)
class StepOutcome:
    state: SystemState
    obs: np.ndarray
    reward: float
    done: bool
    frames: list[FrameRecord]
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
        """Apply an action id for one decision interval."""
        if self.done:
            raise RuntimeError("episode is over; call reset()")
        if not 0 <= int(action) < N_ACTIONS:
            raise ValueError(f"action id out of range [0, {N_ACTIONS}): {action}")
        cfg = self.cfg
        exec_cfg = decode_action(int(action))
        tick_s = cfg.power.tau_frame_ms / 1000.0
        n_ticks = cfg.n_ticks()
        power = client_power(exec_cfg, cfg.table, cfg.power)

        # a switch to local execution abandons pending uploads
        flushed = 0
        if exec_cfg.mode is ExecutionMode.LOCAL and self.queue.depth:
            flushed = self.queue.flush()

        t0 = self.t
        frames: list[FrameRecord] = []
        captured = 0
        dropped = 0
        energy_j = 0.0
        rtt = self.state.rtt_ms
        depleted_at: float | None = None

        for k in range(n_ticks):
            tk = t0 + k * tick_s
            bw = bandwidth_at(cfg.profile, tk)
            rtt = rtt_sample(cfg.rtt, self.rng)

            if exec_cfg.mode is ExecutionMode.LOCAL:
                mtp = mtp_local(exec_cfg, cfg.table)
                frames.append(
                    FrameRecord(tk, mtp, mtp <= cfg.tau_mtp_ms, ExecutionMode.LOCAL)
                )
            else:
                dropped += self.queue.enqueue(
                    tk, exec_cfg.quality, cfg.frame.payload_mbit(exec_cfg.quality)
                )
                for dv in self.queue.drain(bw, rtt, tick_s, tk, cfg.table):
                    frames.append(
                        FrameRecord(
                            dv.t_capture,
                            dv.mtp_ms,
                            dv.mtp_ms <= cfg.tau_mtp_ms,
                            ExecutionMode.OFFLOAD,
                        )
                    )
            captured += 1

            consumed = self.battery.step(power, tick_s)
            energy_j += consumed
            if self.battery.depleted:
                # truncate the interval at the instant the charge ran out
                fraction = consumed / (power * tick_s) if power > 0 else 1.0
                depleted_at = tk + fraction * tick_s
                break

        t_end = depleted_at if depleted_at is not None else t0 + n_ticks * tick_s
        self.t = t_end
        self.frames_captured += captured
        self.frames_delivered += len(frames)

        # epoch violation: delivered frames plus a censored lower bound for
        # frames captured this interval that are still stuck in the queue
        # (an epoch that delivers nothing must not look compliant)
        v_values = [violation(f.mtp_ms, cfg.tau_mtp_ms) for f in frames]
        pending_censored = 0
        for qf in self.queue.frames:
            if qf.t_capture >= t0:
                age_ms = (t_end - qf.t_capture) * 1000.0
                v_values.append(violation(age_ms, cfg.tau_mtp_ms))
                pending_censored += 1
        mean_v = float(np.mean(v_values)) if v_values else 0.0
        self.v_per_epoch.append(mean_v)

        reward = interval_reward(mean_v, power, self.battery.soc, cfg.reward)

        delivered_mtps = [f.mtp_ms for f in frames]
        mtp_obs = delivered_mtps[-1] if delivered_mtps else self.state.mtp_ms
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
            "mtp_mean_ms": float(np.mean(delivered_mtps)) if delivered_mtps else float("nan"),
            "frames_captured": captured,
            "frames_delivered": len(frames),
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
            frames=frames,
            info=info,
        )

    # conveniences used by model-based policies and the harness

    def queue_backlog_mbit(self) -> float:
        return self.queue.backlog_mbit

    def objective(self) -> float:
        return objective_value(self.survived_s, self.v_per_epoch, self.cfg.reward.lam)


def default_env_config(**overrides) -> EnvConfig:
    """EnvConfig with defaults, with dataclass-field overrides applied."""
    return replace(EnvConfig(), **overrides)
