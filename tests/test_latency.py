"""Motion-to-photon latency: processing times, frame payloads, uplink queue."""

import itertools

import numpy as np
import pytest

from xredge.actions import (
    ExecutionConfig,
    ExecutionMode,
    ImuRate,
    QualityLevel,
    decode_action,
    quality_scale,
)
from xredge.energy import PowerParams
from xredge.environment import EnvConfig
from xredge.latency import (
    FrameSizeModel,
    ProcTimeTable,
    UplinkQueue,
    mtp_local,
    proc_time,
    violation,
)
from xredge.network import BandwidthProfile

TABLE = ProcTimeTable()
FRAME = FrameSizeModel()
# the per-quality MTP terms the uplink queue reads, and its quality rows
TERMS = EnvConfig(table=TABLE).actions
LOW, MEDIUM, HIGH = (TERMS.offload_qualities.index(q)
                     for q in (QualityLevel.LOW, QualityLevel.MEDIUM, QualityLevel.HIGH))

LOCAL_FULL = decode_action(4)     # HIGH imu, HIGH quality, LOCAL
LOCAL_MIN = decode_action(12)     # LOW imu, LOW quality, LOCAL
OFFLOAD_FULL = decode_action(5)   # HIGH imu, HIGH quality, OFFLOAD


# ---------------------------------------------------------------------------
# processing time and local MTP
# ---------------------------------------------------------------------------


def test_proc_time_local():
    # t0 * phi * rho, by hand
    assert proc_time(LOCAL_FULL, TABLE) == pytest.approx(29.0)            # 29*1*1
    assert proc_time(LOCAL_MIN, TABLE) == pytest.approx(5.075)            # 29*0.25*0.7
    med = ExecutionConfig(QualityLevel.MEDIUM, ImuRate.MEDIUM, ExecutionMode.LOCAL)
    assert proc_time(med, TABLE) == pytest.approx(13.865625)              # 29*0.5625*0.85


def test_proc_time_offload_is_encode_only():
    assert proc_time(OFFLOAD_FULL, TABLE) == pytest.approx(10.0)
    low = ExecutionConfig(QualityLevel.LOW, ImuRate.HIGH, ExecutionMode.OFFLOAD)
    assert proc_time(low, TABLE) == pytest.approx(2.5)                    # 10*0.25


def test_mtp_local():
    assert mtp_local(LOCAL_FULL, TABLE) == pytest.approx(30.0)            # 29 + 1 overhead
    assert mtp_local(LOCAL_MIN, TABLE) == pytest.approx(6.075)


# ---------------------------------------------------------------------------
# frame payload and violation
# ---------------------------------------------------------------------------


def test_payload_scales_with_pixels():
    assert FRAME.payload_mbit(QualityLevel.HIGH) == pytest.approx(5.8)
    assert FRAME.payload_mbit(QualityLevel.MEDIUM) == pytest.approx(3.2625)
    assert FRAME.payload_mbit(QualityLevel.LOW) == pytest.approx(1.45)


def test_violation():
    assert violation(30.0, 30.0) == 0.0
    assert violation(20.0, 30.0) == 0.0
    assert violation(45.0, 30.0) == pytest.approx(0.5)
    assert violation(60.0, 30.0) == pytest.approx(1.0)


def test_violation_is_elementwise():
    mtp = np.array([20.0, 30.0, 45.0, 31.7, float("nan")])
    v = violation(mtp, 30.0)
    # each entry is the scalar formula, bit for bit; a nan MTP stays nan
    assert v[:-1].tolist() == [max(0.0, (m - 30.0) / 30.0) for m in mtp[:-1].tolist()]
    assert np.isnan(v[-1])
    assert violation(np.array([]), 30.0).size == 0


@pytest.mark.parametrize("make", [
    lambda: FrameSizeModel(d_base_mbit=0.0),
    lambda: FrameSizeModel(d_base_mbit=float("inf")),
    lambda: ProcTimeTable(t_server_ms=-5.0),
    lambda: ProcTimeTable(t_decode_ms=float("nan")),
    lambda: ProcTimeTable(overhead_ms=float("inf")),
    lambda: ProcTimeTable(rho={ImuRate.HIGH: 1.0, ImuRate.MEDIUM: 0.85}),
    lambda: ProcTimeTable(rho={ImuRate.HIGH: 1.0, ImuRate.MEDIUM: 0.85, ImuRate.LOW: 0.0}),
])
def test_bad_model_constants_fail_at_construction(make):
    with pytest.raises(ValueError):
        make()


# ---------------------------------------------------------------------------
# uplink queue
# ---------------------------------------------------------------------------


def transmit(q, row, payload, bandwidths, rtt, dt, t_start):
    """A frame of `payload` Mbit at each of the ticks t_start, t_start + dt,
    ..., one per bandwidth, sent in consecutive `transmit` calls, one per run
    of equal bandwidths; returns the deliveries as (t_capture, mtp_ms) pairs
    and the number of frames dropped."""
    out, dropped, k = [], 0, 0
    for bandwidth, run in itertools.groupby(bandwidths):
        n = len(list(run))
        ticks = t_start + np.arange(k, k + n) * dt
        t_capture, mtp, drops = q.transmit(ticks, bandwidth, [rtt] * n, dt, row, payload, TERMS)
        assert t_capture.size == mtp.size
        out += zip(t_capture.tolist(), mtp.tolist())
        dropped, k = dropped + drops, k + n
    return out, dropped


# no second tick, so one frame that fits its tick takes the elementwise
# pass, or a stalled second tick, a call of its own, whose frame stays queued
STALLS = ([], [0.001])


def test_single_frame_delivery_mtp():
    for stall in STALLS:
        q = UplinkQueue(max_depth=20)
        out, dropped = transmit(q, HIGH, 5.8, [1000.0, *stall], 5.0, 1.0, 0.0)
        assert len(out) == 1 and dropped == 0
        t_capture, mtp = out[0]
        assert t_capture == 0.0
        # age + rtt + server inference + decode + encode = 5.8 + 5 + 8 + 1 + 10,
        # the age being 5.8 Mbit at 1000 Mbps = 5.8 ms of serialization
        assert mtp == pytest.approx(29.8)
        assert q.depth == len(stall)


def test_partial_transmission_carries_over():
    q = UplinkQueue(max_depth=20)
    assert transmit(q, HIGH, 5.8, [1.0], 5.0, 1.0, 0.0) == ([], 0)  # 1 Mbit of 5.8 sent
    assert q.depth == 1
    assert q.backlog_mbit == pytest.approx(4.8)
    assert list(q.remaining_mbit) == [5.8 - 1.0]
    # the next tick at 5.8 Mbps finishes it at exactly t=1.0 + 4.8/5.8 s,
    # and that tick's own frame takes the 1 Mbit left of the budget
    out, _ = transmit(q, HIGH, 5.8, [5.8], 5.0, 1.0, 1.0)
    assert len(out) == 1 and out[0][0] == 0.0
    assert out[0][1] == pytest.approx((1.0 + 4.8 / 5.8) * 1000.0 + 5.0 + 8.0 + 1.0 + 10.0)
    assert list(q.t_capture) == [1.0]
    assert q.backlog_mbit == pytest.approx(4.8)


def test_stale_backlog_produces_high_mtp():
    # frames stuck through congestion come out with multi-second MTP
    q = UplinkQueue(max_depth=20)
    transmit(q, HIGH, 5.8, [0.001], 5.0, 1.0, 0.0)      # effectively stalled
    out, _ = transmit(q, HIGH, 5.8, [1000.0], 5.0, 1.0, 3.0)
    assert [t for t, _ in out] == [0.0, 3.0]
    assert out[0][1] > 3000.0
    # the tick's own frame waits behind the 5.799 Mbit left of the first
    assert out[1][1] == pytest.approx((5.8 - 0.001) + 5.8 + 5.0 + 8.0 + 1.0 + 10.0)


def test_drop_oldest_when_full():
    q = UplinkQueue(max_depth=3)
    drops = 0
    for i in range(5):
        drops += q.enqueue(float(i), LOW, 1.45)
    assert drops == 2
    assert q.depth == 3
    assert list(q.t_capture) == [2.0, 3.0, 4.0]
    assert len(q.remaining_mbit) == len(q.quality_row) == 3
    assert q.dropped == 2


def test_flush_counts_as_drops():
    q = UplinkQueue(max_depth=20)
    for i in range(4):
        q.enqueue(float(i), LOW, 1.45)
    assert q.flush() == 4
    assert q.depth == 0
    assert q.dropped == 4


def test_frame_conservation():
    # frames in == returned + dropped + still queued, whatever the traffic:
    # 50 Mbps every third tick of 50 ms, stalled otherwise
    q = UplinkQueue(max_depth=5)
    bandwidths = [50.0 if i % 3 == 0 else 0.001 for i in range(12)]
    delivered = dropped = 0
    for i in range(0, 12, 2):
        out, drops = transmit(q, MEDIUM, 3.2625, bandwidths[i:i + 2], 5.0, 0.05, i * 0.05)
        delivered, dropped = delivered + len(out), dropped + drops
    assert delivered > 0 and dropped > 0 and q.depth > 0
    assert q.dropped == dropped
    assert 12 == delivered + q.dropped + q.depth
    q.flush()
    assert 12 == delivered + q.dropped + q.depth


def test_fifo_order():
    q = UplinkQueue(max_depth=20)
    transmit(q, LOW, 1.45, [0.001, 0.001], 5.0, 1.0, 0.0)
    out, _ = transmit(q, LOW, 1.45, [0.001, 1000.0], 5.0, 1.0, 2.0)
    assert [t for t, _ in out] == [0.0, 1.0, 2.0, 3.0]
    assert out[0][1] > out[-1][1]                   # oldest is stalest


def test_mtp_terms_scale_with_quality():
    # server and encode scale with the pixel count, decode does not
    for stall, (row, quality) in itertools.product(STALLS, enumerate(TERMS.offload_qualities)):
        q = UplinkQueue(max_depth=20)
        ((_, mtp),), _ = transmit(q, row, 1.0, [1000.0, *stall], 5.0, 1.0, 0.0)
        phi = quality_scale(quality)
        assert mtp == pytest.approx(1.0 + 5.0 + 8.0 * phi + 1.0 + 10.0 * phi)


def test_queue_validation():
    # the queue takes its depth, and transmit its payload, bandwidths and tick,
    # from a checked EnvConfig, which rejects each bad value
    with pytest.raises(ValueError, match="EnvConfig.queue_max_depth must be within"):
        EnvConfig(queue_max_depth=0)
    with pytest.raises(ValueError, match="FrameSizeModel.d_base_mbit must be within"):
        FrameSizeModel(d_base_mbit=0.0)
    with pytest.raises(ValueError, match="BandwidthProfile.levels_mbps must be within"):
        BandwidthProfile(levels_mbps=(1000.0, 0.0))
    with pytest.raises(ValueError, match="PowerParams.tau_frame_ms must be within"):
        PowerParams(tau_frame_ms=-50.0)
    q = UplinkQueue(max_depth=20)
    assert q.depth == q.dropped == 0
