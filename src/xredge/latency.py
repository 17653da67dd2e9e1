"""Motion-to-photon latency model.

Local execution: MTP is the on-device VIO processing time (scaled by image
size and IMU-rate pressure) plus a fixed capture/render overhead.

Offloaded execution: captured frames enter a bounded FIFO uplink queue and
are serialized at the current bandwidth; a delivered frame's MTP is its
queueing+transmission time plus RTT, server inference, decode, and the
client-side encode cost. The pose return path rides on the RTT term (pose
payloads are negligible next to image payloads).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .actions import ExecutionConfig, ExecutionMode, ImuRate, QualityLevel, quality_scale
from .config import check_ranges, fold_sum, ranged

# VIO pipeline pressure multiplier per IMU rate: higher inertial rates mean
# more filter updates per frame
DEFAULT_RHO = {
    ImuRate.HIGH: 1.0,
    ImuRate.MEDIUM: 0.85,
    ImuRate.LOW: 0.7,
}


@dataclass(frozen=True)
class ProcTimeTable:
    """Processing-time constants, all in milliseconds at HIGH quality.

    t0_local_ms: full on-device VIO time per frame.
    t0_encode_ms: client-side encode/stream cost per frame when offloading.
    t_server_ms: server-side inference time per frame.
    t_decode_ms: server-side decode time per frame.
    overhead_ms: camera capture plus render/display overhead.
    rho: per-IMU-rate multiplier on local processing time.
    """

    t0_local_ms: float = ranged("[0, inf)", 29.0)
    t0_encode_ms: float = ranged("[0, inf)", 10.0)
    t_server_ms: float = ranged("[0, inf)", 8.0)
    t_decode_ms: float = ranged("[0, inf)", 1.0)
    overhead_ms: float = ranged("[0, inf)", 1.0)
    rho: dict[ImuRate, float] = ranged("(0, inf)", default_factory=lambda: dict(DEFAULT_RHO))

    def __post_init__(self):
        check_ranges(self)
        if set(self.rho) != set(ImuRate):
            raise ValueError(f"rho needs a multiplier for each IMU rate: {self.rho}")


@dataclass(frozen=True)
class FrameSizeModel:
    """Uplink payload per frame: d_base_mbit at HIGH quality, pixel-scaled below."""

    d_base_mbit: float = ranged("(0, inf)", 5.8)

    def __post_init__(self):
        check_ranges(self)

    def payload_mbit(self, quality: QualityLevel) -> float:
        return self.d_base_mbit * quality_scale(quality)


def proc_time(cfg: ExecutionConfig, table: ProcTimeTable) -> float:
    """Client-side processing time per frame in ms.

    LOCAL: full VIO, scaled by pixel count and IMU-rate pressure.
    OFFLOAD: encode/stream only, scaled by pixel count.
    """
    phi = quality_scale(cfg.quality)
    if cfg.mode is ExecutionMode.LOCAL:
        return table.t0_local_ms * phi * table.rho[cfg.imu]
    return table.t0_encode_ms * phi


def mtp_local(cfg: ExecutionConfig, table: ProcTimeTable) -> float:
    """Motion-to-photon latency of a locally processed frame in ms; `cfg`
    is a LOCAL configuration."""
    return proc_time(cfg, table) + table.overhead_ms


def violation(mtp_ms, tau_ms: float):
    """Relative threshold excess max(0, (MTP - tau) / tau), elementwise on a
    float or a numpy array of MTPs; a nan MTP stays nan. `EnvConfig`
    checks that tau_ms is positive."""
    return np.maximum(0.0, (mtp_ms - tau_ms) / tau_ms)


def serialization_s(mbit, mbps):
    """Seconds to send mbit at mbps; floats or numpy arrays."""
    return mbit / mbps


def offload_mtp_ms(age_ms, rtt_ms, terms, row):
    """Motion-to-photon latency in ms of an offloaded frame whose queueing
    and transmission took age_ms (`UplinkQueue.transmit` computes it): that
    age plus RTT, server inference, decode and the client encode cost, added
    in that order. `terms` holds the per-frame costs in ms, `server_ms` and
    `encode_ms` indexed by offload quality row and the scalar `decode_ms`, as
    `environment.ActionTable` does; the table's `fixed_offload_ms` is this
    sum at age 0.0 and the base RTT. Takes floats or, elementwise with one
    row, numpy arrays.
    """
    return age_ms + rtt_ms + terms.server_ms[row] + terms.decode_ms + terms.encode_ms[row]


class UplinkQueue:
    """Bounded FIFO of frames awaiting uplink transmission.

    The queue is three columns, one entry per frame, oldest first: capture
    time, the Mbit still to send, and the frame's offload quality row (an
    index into the per-quality terms `transmit` is given). When a frame
    arrives at a full queue the oldest queued frame is dropped (newest data
    is the most valuable for pose estimation). `transmit` sends at one
    bandwidth per call, and partial transmissions carry over between ticks
    and between calls, which is what produces stale, high-MTP deliveries
    right after a congested period or across a bandwidth step. `max_depth`
    is taken as given: `EnvConfig.queue_max_depth` declares its range.
    """

    def __init__(self, max_depth: int):
        # a full deque drops its oldest entry on append
        self.t_capture: deque[float] = deque(maxlen=max_depth)
        self.remaining_mbit: deque[float] = deque(maxlen=max_depth)
        self.quality_row: deque[int] = deque(maxlen=max_depth)
        self.dropped = 0

    @property
    def max_depth(self) -> int:
        return self.t_capture.maxlen

    @property
    def depth(self) -> int:
        return len(self.t_capture)

    @property
    def backlog_mbit(self) -> float:
        return fold_sum(self.remaining_mbit)

    def enqueue(self, t_capture: float, quality_row: int, payload_mbit: float) -> int:
        """Add a frame of an offload quality row and a positive payload;
        returns the number of frames dropped to make room."""
        drops = 1 if len(self.t_capture) == self.max_depth else 0
        self.t_capture.append(t_capture)
        self.remaining_mbit.append(payload_mbit)
        self.quality_row.append(quality_row)
        self.dropped += drops
        return drops

    def flush(self) -> int:
        """Drop everything pending; returns the number of frames dropped."""
        n = len(self.t_capture)
        self.t_capture.clear()
        self.remaining_mbit.clear()
        self.quality_row.clear()
        self.dropped += n
        return n

    def transmit(self, ticks, bandwidth, rtts, dt_s, quality_row, payload_mbit, terms):
        """Capture one frame at each tick and serialize the uplink for dt_s from it.

        The ticks share one bandwidth, a float: `XrEnvironment.step` sends an
        interval that crosses a dwell boundary in consecutive calls, one per
        dwell. Returns the delivered frames' capture times and MTPs as
        arrays, and the number dropped. Each tick enqueues its frame, then
        spends the tick's Mbit budget `bandwidth * dt_s` on the queue, oldest
        first: a frame that fits is delivered `elapsed + remaining /
        bandwidth` after the tick, with the MTP `offload_mtp_ms` of its
        per-frame `terms`, and the head frame keeps its partial progress if
        the budget runs out mid-frame. If the queue starts empty and a frame
        fits the budget, no frame waits (the Lindley waiting is zero) and
        each is done `payload / bandwidth` after its tick, the loop's `0.0 +
        payload / bandwidth`: one elementwise pass prices them all.
        The arguments come from a checked `EnvConfig` and are not checked again.
        """
        tick_mbit = bandwidth * dt_s
        if not self.t_capture and payload_mbit <= tick_mbit:
            # the age from the delivery time, with the loop's rounding
            age_ms = (ticks + serialization_s(payload_mbit, bandwidth) - ticks) * 1000.0
            return ticks, offload_mtp_ms(age_ms, np.array(rtts), terms, quality_row), 0
        t_capture, remaining, rows = self.t_capture, self.remaining_mbit, self.quality_row
        mtp_ms, serial_s = offload_mtp_ms, serialization_s
        dropped, t_out, mtp_out = 0, [], []
        for tk, rtt in zip(ticks.tolist(), rtts):
            dropped += self.enqueue(tk, quality_row, payload_mbit)
            budget_mbit = tick_mbit
            elapsed_s = 0.0
            while remaining and budget_mbit > 0.0:
                head = remaining[0]
                if head <= budget_mbit:
                    elapsed_s += serial_s(head, bandwidth)
                    budget_mbit -= head
                    remaining.popleft()
                    t = t_capture.popleft()
                    t_out.append(t)
                    mtp_out.append(mtp_ms((tk + elapsed_s - t) * 1000.0, rtt, terms, rows.popleft()))
                else:
                    remaining[0] = head - budget_mbit
                    budget_mbit = 0.0
        return np.array(t_out), np.array(mtp_out), dropped
