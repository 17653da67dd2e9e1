"""Closed-loop XR client environment.

One decision epoch applies an execution configuration for a fixed interval
(default 1 s) simulated at frame granularity (default 50 ms ticks, 20 frames
per epoch). Each tick captures a frame, moves it through the local or
offloaded pipeline, and drains the battery. The epoch ends with a scalar
reward that ranks latency compliance above power draw above battery credit.
`observe` gives the learner a five-dimensional observation of the state:
state of charge, client power, RTT, bandwidth, and the most recent
motion-to-photon latency.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .actions import ExecutionMode, action_row, all_configs, quality_scale
from .config import check_ranges, ranged
from .energy import Battery, PowerParams, client_power
from .latency import (FrameSizeModel, ProcTimeTable, UplinkQueue, mtp_local, offload_mtp_ms,
                      proc_time, serialization_s, violation)
from .network import BandwidthProfile, RttModel, bandwidth_at, last_rtts, level_index, rtt_samples

# the most frames an interval may hold: the action table and each step build arrays that long
MAX_INTERVAL_FRAMES = 100_000
# the most frames one `XrEnvironment.run_local` call advances, but for one
# interval: its arrays hold a few of that many floats
MAX_RUN_FRAMES = 1 << 15
# the smallest MTP threshold, 1 us: below it a frame's relative excess
# `violation(mtp, tau)` can overflow to inf (a 30 ms frame at tau 1e-308 does)
MIN_TAU_MTP_MS = 1e-3
# an interval ending this close short of the horizon ends the episode: summed lengths fall ulps short
HORIZON_TOL_S = 1e-9


@dataclass(frozen=True)
class SystemState:
    """Raw (unnormalized) observable state at a decision boundary."""

    soc: float
    power_w: float
    rtt_ms: float
    bandwidth_mbps: float
    mtp_ms: float


@dataclass(frozen=True)
class RewardParams:
    """Weights of the epoch reward.

    r = r_mtp + r_power + r_battery where r_mtp is +bonus for a fully
    compliant epoch and -lam * (mean violation) otherwise, r_power is
    -alpha_power * power / p_max_w, and r_battery is +beta_battery * soc/100.
    The defaults keep |r_mtp| dominant over the power term, which in turn
    outweighs the battery credit.
    """

    bonus: float = ranged("(-inf, inf)", 0.2)
    alpha_power: float = ranged("(-inf, inf)", 0.05)
    beta_battery: float = ranged("(-inf, inf)", 0.05)
    lam: float = ranged("(-inf, inf)", 1.0)
    p_max_w: float = ranged("(0, inf)", 20.8)

    def __post_init__(self):
        check_ranges(self)


@dataclass(frozen=True)
class EnvConfig:
    profile: BandwidthProfile = field(default_factory=BandwidthProfile)
    rtt: RttModel = field(default_factory=RttModel)
    table: ProcTimeTable = field(default_factory=ProcTimeTable)
    frame: FrameSizeModel = field(default_factory=FrameSizeModel)
    power: PowerParams = field(default_factory=PowerParams)
    reward: RewardParams = field(default_factory=RewardParams)
    capacity_wh: float = ranged("(0, inf)", 16.6)
    soc0: float = ranged("[0, 100]", 100.0)
    drain_factor: float = ranged("(0, inf)", 3.0)
    tau_mtp_ms: float = ranged(f"[{MIN_TAU_MTP_MS}, inf)", 30.0)
    decision_interval_s: float = ranged("(0, inf)", 1.0)
    horizon_s: float = ranged("[0, inf)", 1200.0)
    # below 2**63: the queue's deques take their maxlen as a C ssize_t
    queue_max_depth: int = ranged("[1, 1e18)", 20)

    def __post_init__(self):
        check_ranges(self)
        # the actions' per-frame values are a pure function of the config:
        # built and checked once here, shared by every episode of it
        object.__setattr__(self, "actions", ActionTable(self))
        # one decision must fit the horizon; a zero horizon never steps
        if 0 < self.horizon_s < self.decision_interval_s:
            raise ValueError(f"decision interval must not exceed the horizon: "
                             f"{self.decision_interval_s} s vs {self.horizon_s} s")
        # the last tick's dwell index must stay an exact integer in bandwidth_at and step's cuts
        if not (self.horizon_s + self.decision_interval_s) / self.profile.dwell_s < 2**53:
            raise ValueError(f"the horizon spans too many dwells: dwell {self.profile.dwell_s} s "
                             f"vs horizon {self.horizon_s} s")


def _mean(a: np.ndarray) -> float:
    """np.mean of a non-empty float64 vector, bit for bit (the same pairwise
    sum over the same count) without np.mean's Python-level dispatch."""
    return float(np.add.reduce(a)) / a.size


_CONFIGS = tuple(all_configs())
# an offload prediction depends on the image quality alone, so the greedy
# predictor prices one row per quality and shares it across IMU rates
_OFFLOAD_CONFIGS = tuple({c.quality: c for c in _CONFIGS if c.mode is ExecutionMode.OFFLOAD}.values())
_OFFLOAD_QUALITIES = tuple(c.quality for c in _OFFLOAD_CONFIGS)


class ActionTable:
    """The 18 actions of one EnvConfig, rows indexed by action id.

    The config builds it once, as `cfg.actions`, and it rejects a config
    whose constants make a per-frame value it derives non-finite. Each value
    is computed once by the simulator's function that defines it, so a
    lookup is bit-identical to calling that function. Values are tuples but
    for `tick_offsets_s`, the numpy array `step` slices; `arrival_ms` holds
    one entry per frame of an epoch. Local-only values are nan on offload
    rows. The offload values have one row per offload quality, in
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
        # the frame period, and how many frames one decision interval holds;
        # a subnormal frame period makes the tick 0.0
        self.tick_s = tick_s = cfg.power.tau_frame_ms / 1000.0
        interval = cfg.decision_interval_s
        ratio = interval / tick_s if tick_s else math.inf
        self.n_ticks = n = round(ratio) if math.isfinite(ratio) else 0
        if not 1 <= n <= MAX_INTERVAL_FRAMES or abs(n * tick_s - interval) > 1e-9:
            raise ValueError(
                "decision interval must be a positive integer multiple of the frame "
                f"period, at most {MAX_INTERVAL_FRAMES} of them: {interval} s vs {tick_s} s"
            )
        # each frame's capture time within an interval, relative to its start,
        # which step slices; k * tick_s <= n * tick_s, which the check above
        # keeps finite
        self.tick_offsets_s = np.arange(n) * tick_s
        self.power_w = tuple(client_power(c, t, cfg.power) for c in self.configs)
        # each action's reward power term, which the greedy predictor adds as is
        self.power_term = tuple(power_term(p, cfg.reward) for p in self.power_w)
        self.mtp_local_ms = tuple(
            mtp_local(c, t) if local else float("nan")
            for c, local in zip(self.configs, self.is_local)
        )
        self.jitter_mean_ms = cfg.rtt.jitter_mean_ms()

        self.payload_offload_mbit = tuple(cfg.frame.payload_mbit(q) for q in _OFFLOAD_QUALITIES)
        # an offloaded frame's server and client-encode times, one per offload
        # row, and its decode time: the `terms` of `latency.offload_mtp_ms`
        self.server_ms = tuple(t.t_server_ms * quality_scale(q) for q in _OFFLOAD_QUALITIES)
        self.encode_ms = tuple(proc_time(c, t) for c in _OFFLOAD_CONFIGS)
        self.decode_ms = t.t_decode_ms
        # an offloaded frame's MTP at zero queueing and serialization age,
        # with the base RTT standing in for the drawn one, per offload row
        self.fixed_offload_ms = fixed_ms = tuple(offload_mtp_ms(0.0, cfg.rtt.base_ms, self, r)
                                                 for r in range(len(_OFFLOAD_CONFIGS)))

        # each action's MTP of a frame that does not queue: its local pipeline,
        # or its offload terms plus the largest payload's serialization at the
        # slowest bandwidth level; a constant too large for the run path
        # overflows here to inf, which the check below rejects
        slowest_s = serialization_s(max(self.payload_offload_mbit), min(cfg.profile.levels_mbps))
        serial_ms = slowest_s * 1000.0
        mtp_ms = [m if local else fixed_ms[r] + serial_ms
                  for m, local, r in zip(self.mtp_local_ms, self.is_local, self.offload_row)]
        with np.errstate(over="ignore", invalid="ignore"):
            # frame arrival times within an epoch, relative to its start
            self.arrival_ms = tuple((np.arange(n) * cfg.power.tau_frame_ms).tolist())
            v = violation(np.array(mtp_ms), cfg.tau_mtp_ms).tolist()
            # their means over an interval's n frames: exact for a local action
            mtp_mean = [_mean(np.full(n, m)) for m in mtp_ms]
            v_mean = [_mean(np.full(n, x)) for x in v]
            # a compliant interval's reward at zero charge: the bonus plus the power term
            compliant_reward = [compliance_term(0.0, cfg.reward) + r for r in self.power_term]
        for name, values in (("client power (W)", self.power_w),
                             ("mean MTP over an interval (ms)", mtp_mean),
                             ("mean violation over an interval", v_mean),
                             ("reward power term", compliant_reward)):
            for action, x in enumerate(values):
                if not math.isfinite(x):
                    raise ValueError(f"derived {name} of action {action} must be finite: {x!r}")
        if not math.isfinite(last_arrival := self.arrival_ms[-1]):
            raise ValueError(f"derived last frame arrival (ms) must be finite: {last_arrival!r}")
        # local-only values are nan on offload rows
        self.v_local = tuple(x if local else float("nan") for x, local in zip(v, self.is_local))
        # a full local interval's (mean MTP, mean violation), which local_means returns
        self._local_means = tuple(pair if local else (float("nan"), float("nan"))
                                  for pair, local in zip(zip(mtp_mean, v_mean), self.is_local))

    def local_means(self, row: int, k: int) -> tuple[float, float]:
        """The mean MTP (ms) and the mean violation of k frames of local
        action `row`, 1 <= k <= n_ticks: a full interval's are cached, and
        fewer frames are those of an interval the charge cut short."""
        if k == self.n_ticks:
            return self._local_means[row]
        return _mean(np.full(k, self.mtp_local_ms[row])), _mean(np.full(k, self.v_local[row]))


# the decisions.csv cells of one decision, in file order: the interval's
# start, the action id and its three labels, the bandwidth observed at the
# start, and the RTT, mean MTP, mean violation, power, charge and reward
# that the interval leaves or returns
ROW_FIELDS = ("t", "action", "quality", "imu", "mode", "bandwidth_mbps", "rtt_ms", "mtp_mean_ms", "v_mean",
              "power_w", "soc_pct", "reward")
# What `step` returns for one decision interval, and `run_local` for
# consecutive intervals of one action: a step's cells are scalars, a run's
# one list per field, one value per interval. After the row fields come the
# delivered frames, float64 arrays in delivery order (a run's concatenated)
# of capture time (s) and motion-to-photon latency (ms), and the counts:
# frames captured, frames dropped (overflow and flush), queued frames priced
# as censored, and the raw energy drawn in J. The state and `done` it leaves
# are read from the environment.
Outcome = namedtuple("Outcome", [*ROW_FIELDS, "t_capture", "mtp_ms", "frames_captured", "frames_dropped",
                                 "pending_censored", "energy_j"])


def compliance_term(mean_v: float, params: RewardParams) -> float:
    """The epoch reward's latency term: the bonus for an epoch with no
    violation, else the violation penalty."""
    if mean_v == 0.0:
        return params.bonus
    return -params.lam * mean_v


def power_term(power_w: float, params: RewardParams) -> float:
    """The epoch reward's power term, a cost relative to p_max_w."""
    return -params.alpha_power * power_w / params.p_max_w


def battery_term(soc: float, params: RewardParams) -> float:
    """The epoch reward's battery credit for the state of charge in percent."""
    return params.beta_battery * soc / 100.0


def interval_reward(mean_v: float, power_w: float, soc: float, params: RewardParams) -> float:
    """Reward of one decision epoch from its aggregate outcome."""
    return compliance_term(mean_v, params) + power_term(power_w, params) + battery_term(soc, params)


# the length of `observe`'s vector, the learner's input size
OBS_DIM = 5
# the RTT and MTP (ms) that `observe` scales to 1; larger values clamp there
RTT_MAX_MS = 50.0
MTP_MAX_MS = 100.0


def observe(state: SystemState, cfg: EnvConfig) -> np.ndarray:
    """Normalize a SystemState into the agent's 5-vector, all in [0, 1].

    Bandwidth is log-scaled (log10 of Mbps over three decades) because the
    schedule spans 1 to 1000 Mbps.
    """
    soc = state.soc / 100.0
    power = min(max(state.power_w / cfg.reward.p_max_w, 0.0), 1.0)
    rtt = min(max(state.rtt_ms / RTT_MAX_MS, 0.0), 1.0)
    bw = min(max(np.log10(max(state.bandwidth_mbps, 1e-12)) / 3.0, 0.0), 1.0)
    mtp = min(max(state.mtp_ms / MTP_MAX_MS, 0.0), 1.0)
    return np.array([soc, power, rtt, bw, mtp], dtype=np.float64)


class XrEnvironment:
    """Frame-granular simulator of the managed XR client."""

    def __init__(self, cfg: EnvConfig, seed: int = 0):
        """Start the episode; same config and seed, same trajectory."""
        self.cfg = cfg
        self.actions = cfg.actions
        self.rng = np.random.default_rng(seed)
        self.t = 0.0
        self.battery = Battery(cfg.capacity_wh, cfg.soc0, cfg.drain_factor)
        self.queue = UplinkQueue(cfg.queue_max_depth)
        self.frames_captured = 0
        self.frames_delivered = 0
        rtt0 = rtt_samples(cfg.rtt, self.rng, 1)[0]
        self.state = SystemState(
            soc=self.battery.soc,
            power_w=cfg.power.p_base_w,
            rtt_ms=rtt0,
            bandwidth_mbps=bandwidth_at(cfg.profile, 0.0),
            mtp_ms=0.0,
        )
        self.done = self.battery.depleted or cfg.horizon_s <= 0.0

    def observe(self) -> np.ndarray:
        return observe(self.state, self.cfg)

    def _enter(self, action: int) -> int:
        """The row of action id `action` (`actions.action_row`) for an
        interval that starts now; an ended episode raises RuntimeError."""
        if self.done:
            raise RuntimeError("episode is over")
        return action_row(action)

    def _close(self, t_end: float, captured: int, delivered: int, power: float, rtt: float,
               mtp_obs: float) -> None:
        """End the advance whose last interval ends at t_end: count its frames
        and leave the state observed then, whose bandwidth is the level at
        t_end or, past the horizon, at the horizon."""
        cfg = self.cfg
        self.t = t_end
        self.frames_captured += captured
        self.frames_delivered += delivered
        self.state = SystemState(soc=self.battery.soc, power_w=power, rtt_ms=rtt, mtp_ms=mtp_obs,
                                 bandwidth_mbps=bandwidth_at(cfg.profile, min(t_end, cfg.horizon_s)))
        self.done = self.battery.depleted or t_end >= cfg.horizon_s - HORIZON_TOL_S

    def step(self, action: int) -> Outcome:
        """Apply an action id for one decision interval.

        The battery is drained first, which fixes how many ticks capture a
        frame before the charge runs out; those ticks' RTTs are then drawn
        in one call, in the order the tick-by-tick definition draws them. A
        local interval keeps only the last RTT, so it exponentiates only that.
        """
        row = self._enter(action)
        cfg, tab = self.cfg, self.actions
        local = tab.is_local[row]
        power = tab.power_w[row]
        tick_s, n_ticks = tab.tick_s, tab.n_ticks

        # a switch to local execution abandons pending uploads
        flushed = self.queue.flush() if local and self.queue.depth else 0

        # the interval's start and the bandwidth observed then
        t0, bandwidth = self.t, self.state.bandwidth_mbps
        # the interval is truncated at the instant the charge runs out
        energy_j, captured, depleted_at = self.battery.steps(power, tick_s, n_ticks, t0)
        t_end = depleted_at if depleted_at is not None else t0 + n_ticks * tick_s
        ticks = t0 + tab.tick_offsets_s[:captured]

        if local:
            rtt = last_rtts(cfg.rtt, self.rng, n_ticks, captured)[0]
            dropped = pending_censored = 0
            mtp_obs = tab.mtp_local_ms[row]
            t_capture, mtp = ticks, np.full(captured, mtp_obs)
            mtp_mean, mean_v = tab.local_means(row, captured)
        else:
            rtts = rtt_samples(cfg.rtt, self.rng, captured)
            rtt = rtts[-1]
            offload = tab.offload_row[row]
            payload = tab.payload_offload_mbit[offload]
            dwell_s = cfg.profile.dwell_s
            if t0 // dwell_s == ticks.item(-1) // dwell_s:
                t_capture, mtp, dropped = self.queue.transmit(
                    ticks, bandwidth, rtts, tick_s, offload, payload, tab)
            else:
                # one call per run of ticks that share a dwell, at that dwell's level
                dwells = ticks // dwell_s
                cuts = [0, *(np.flatnonzero(dwells[1:] != dwells[:-1]) + 1).tolist(), captured]
                runs = [self.queue.transmit(ticks[a:b], bandwidth_at(cfg.profile, ticks.item(a)), rtts[a:b],
                                            tick_s, offload, payload, tab) for a, b in zip(cuts, cuts[1:])]
                t_capture, mtp, dropped = zip(*runs)
                t_capture, mtp, dropped = np.concatenate(t_capture), np.concatenate(mtp), sum(dropped)
            mtp_obs = mtp[-1].item() if mtp.size else self.state.mtp_ms
            mtp_mean = _mean(mtp) if mtp.size else float("nan")
            # epoch violation: delivered frames plus a censored lower bound
            # for frames captured this interval that are still stuck in the
            # queue (an epoch that delivers nothing must not look compliant);
            # the newest frame is one or the other, so there is at least one
            pending = [(t_end - t) * 1000.0 for t in self.queue.t_capture if t >= t0]
            pending_censored = len(pending)
            v_values = violation(np.concatenate((mtp, pending)) if pending else mtp, cfg.tau_mtp_ms)
            mean_v = _mean(v_values)

        self._close(t_end, captured, mtp.size, power, rtt, mtp_obs)
        reward = interval_reward(mean_v, power, self.battery.soc, cfg.reward)
        return Outcome(t0, row, *tab.labels[row], bandwidth, rtt, mtp_mean, mean_v, power, self.battery.soc,
                       reward, t_capture, mtp, captured, dropped + flushed, pending_censored, energy_j)

    def run_local(self, action: int, until_s: float = math.inf) -> Outcome:
        """Advance the intervals of one local action that end before until_s,
        as repeated `step(action)` calls would, in array passes.

        The run stops at the interval that ends the episode, and after at
        most MAX_RUN_FRAMES frames; it may advance no interval at all. Every
        value it leaves or returns is the one the steps would, bit for bit:
        the interval starts accumulate as step advances `t`, the battery
        drains through `Battery.drain_intervals`, which also sums each
        interval's energy as `Battery.steps` does, the RTTs come from one
        draw through `last_rtts`, the means through `ActionTable.local_means`,
        the reward and observed bandwidth are step's formulas on arrays, and
        the last interval ends through `_close`, as a step does. A local
        interval never queues, so only the uplink queue's flush, counted as
        the first interval's drops, depends on where the run starts.
        """
        row = self._enter(action)
        cfg, tab = self.cfg, self.actions
        if not tab.is_local[row]:
            raise ValueError(f"not a local action id: {action}")
        power, tick_s, n = tab.power_w[row], tab.tick_s, tab.n_ticks

        # each interval's start, then its end, summed one interval at a time as step sums t
        t = np.full(max(1, MAX_RUN_FRAMES // n) + 1, n * tick_s)
        t[0] = self.t
        np.add.accumulate(t, out=t)
        ends = t[1:]
        m = min(int(np.searchsorted(ends, cfg.horizon_s - HORIZON_TOL_S)) + 1,
                int(np.searchsorted(ends, until_s)), ends.size)
        if m == 0:
            return Outcome(*([] for _ in ROW_FIELDS), np.empty(0), np.empty(0), [], [], [], [])
        # as in step, a switch to local execution abandons pending uploads
        flushed = self.queue.flush() if self.queue.depth else 0
        starts = t[:m].tolist()
        charge, energy_j, depleted_at = self.battery.drain_intervals(power, tick_s, n, starts)
        captured = charge.size
        # the interval that ran the charge out is the run's last
        m = len(energy_j)
        short = captured - (m - 1) * n
        if depleted_at is not None:
            ends[m - 1] = depleted_at
        rtt = last_rtts(cfg.rtt, self.rng, n, captured)
        t_capture = (t[:m, None] + tab.tick_offsets_s).ravel()[:captured]
        mtp = np.full(captured, tab.mtp_local_ms[row])
        (mtp_full, v_full), (mtp_last, v_last) = tab.local_means(row, n), tab.local_means(row, short)
        mtp_mean = [mtp_full] * (m - 1) + [mtp_last]
        mean_v = [v_full] * (m - 1) + [v_last]
        soc = charge[n - 1::n]
        reward = interval_reward(v_full, power, soc, cfg.reward).tolist()
        soc = soc.tolist()
        if short < n:
            soc.append(charge.item(-1))
            reward.append(interval_reward(v_last, power, soc[-1], cfg.reward))
        # the bandwidth observed at each interval's start: the state's, then the level at the end of
        # each interval but the last, which all end short of the horizon; _close observes the last's
        levels = level_index(cfg.profile, ends[:m - 1])
        bandwidth = [self.state.bandwidth_mbps, *np.asarray(cfg.profile.levels_mbps)[levels].tolist()]

        self._close(ends.item(m - 1), captured, captured, power, rtt[-1], tab.mtp_local_ms[row])
        # the action id, its three labels and the power are each the same in every interval
        action_cells = ([x] * m for x in (row, *tab.labels[row]))
        return Outcome(starts[:m], *action_cells, bandwidth, rtt, mtp_mean, mean_v, [power] * m, soc, reward,
                       t_capture, mtp, [n] * (m - 1) + [short], [flushed] + [0] * (m - 1), [0] * m, energy_j)
