"""The column-backed uplink queue against the list-of-frames queue it replaced.

`ReferenceUplinkQueue` is the earlier `UplinkQueue`, kept verbatim but for
its name and its backlog, written as the left fold from 0.0 that its `sum`
computed before Python 3.12: one `QueuedFrame` object per queued frame, `pop(0)` to drop the
oldest, and one frozen `DeliveredFrame` per delivery with its MTP terms
scaled by `quality_scale`. `UplinkQueue` keeps the same queue as three
columns and reads the scaled terms from the action table. The arithmetic is
meant to be the same operation for operation, so the property here demands
equality, not closeness, of every delivery and of the state left behind.
`UplinkQueue.transmit` is held to one reference `enqueue` and one `drain`
per tick, and the frames it was given to its deliveries, drops and depth.
Each `transmit` call sends at one bandwidth, so a bandwidth that changes
from tick to tick is a run of calls, one per run of equal bandwidths.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from xredge.actions import QualityLevel, quality_scale
from xredge.environment import EnvConfig
from xredge.latency import ProcTimeTable, UplinkQueue


@dataclass
class QueuedFrame:
    t_capture: float
    quality: QualityLevel
    remaining_mbit: float


@dataclass(frozen=True)
class DeliveredFrame:
    t_capture: float
    t_deliver: float
    quality: QualityLevel
    mtp_ms: float


class ReferenceUplinkQueue:
    """Bounded FIFO of frames awaiting uplink transmission.

    When a frame arrives at a full queue the oldest queued frame is dropped
    (newest data is the most valuable for pose estimation). Partial
    transmissions carry over between drain calls, which is what produces
    stale, high-MTP deliveries right after a congested period.
    """

    def __init__(self, max_depth: int = 20):
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1: {max_depth}")
        self.max_depth = max_depth
        self.frames: list[QueuedFrame] = []
        self.enqueued = 0
        self.delivered = 0
        self.dropped = 0

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def backlog_mbit(self) -> float:
        total = 0.0
        for f in self.frames:
            total += f.remaining_mbit
        return total

    def enqueue(self, t_capture: float, quality: QualityLevel, payload_mbit: float) -> int:
        """Add a frame; returns the number of frames dropped to make room."""
        if payload_mbit <= 0:
            raise ValueError(f"payload must be positive: {payload_mbit}")
        self.frames.append(QueuedFrame(t_capture, quality, payload_mbit))
        self.enqueued += 1
        drops = 0
        while len(self.frames) > self.max_depth:
            self.frames.pop(0)
            drops += 1
        self.dropped += drops
        return drops

    def flush(self) -> int:
        """Drop everything pending; returns the number of frames dropped."""
        n = len(self.frames)
        self.frames.clear()
        self.dropped += n
        return n

    def drain(
        self,
        bandwidth_mbps: float,
        rtt_ms: float,
        dt_s: float,
        t_start: float,
        table: ProcTimeTable,
    ) -> list[DeliveredFrame]:
        """Transmit at bandwidth_mbps for dt_s seconds starting at t_start.

        Frames that finish serializing are delivered; a delivered frame's MTP
        is queueing+transmission age plus RTT, server inference, decode, and
        the client encode cost (the last three scale with the frame's pixel
        count). The head frame's partial progress is kept if the budget runs
        out mid-frame.
        """
        if bandwidth_mbps <= 0:
            raise ValueError(f"bandwidth must be positive: {bandwidth_mbps}")
        if dt_s < 0:
            raise ValueError(f"dt must be non-negative: {dt_s}")
        budget_mbit = bandwidth_mbps * dt_s
        elapsed_s = 0.0
        out: list[DeliveredFrame] = []
        while self.frames and budget_mbit > 0.0:
            head = self.frames[0]
            if head.remaining_mbit <= budget_mbit:
                elapsed_s += head.remaining_mbit / bandwidth_mbps
                budget_mbit -= head.remaining_mbit
                t_deliver = t_start + elapsed_s
                phi = quality_scale(head.quality)
                mtp = (
                    (t_deliver - head.t_capture) * 1000.0
                    + rtt_ms
                    + table.t_server_ms * phi
                    + table.t_decode_ms
                    + table.t0_encode_ms * phi
                )
                out.append(DeliveredFrame(head.t_capture, t_deliver, head.quality, mtp))
                self.frames.pop(0)
                self.delivered += 1
            else:
                head.remaining_mbit -= budget_mbit
                budget_mbit = 0.0
        return out


def same_queue(q: UplinkQueue, ref: ReferenceUplinkQueue, qualities) -> bool:
    """Equal frames, in order, and equal drop counts."""
    frames = [(f.t_capture, qualities.index(f.quality), f.remaining_mbit) for f in ref.frames]
    return (
        list(zip(q.t_capture, q.quality_row, q.remaining_mbit)) == frames
        and q.depth == ref.depth
        and q.dropped == ref.dropped
    )


def reference_transmit(ref: ReferenceUplinkQueue, ticks, bandwidths, rtts, dt, quality, payload, table):
    """One reference enqueue and drain per tick, at that tick's bandwidth;
    returns the deliveries and drops."""
    dropped, delivered = 0, []
    for tk, bw, rtt in zip(ticks.tolist(), bandwidths, rtts):
        dropped += ref.enqueue(tk, quality, payload)
        delivered += ref.drain(bw, rtt, dt, tk, table)
    return delivered, dropped


# ProcTimeTable constants under which the MTP terms are not round numbers
TABLES = {
    "default": ProcTimeTable(),
    "uneven": ProcTimeTable(t0_encode_ms=10.1, t_server_ms=8.3, t_decode_ms=0.3),
}

# one transmit call: its frames' quality row and share of the full payload,
# its one bandwidth (or a stall), each tick's rtt, and the tick length;
# consecutive calls are consecutive runs of ticks, so the bandwidth changes
# between them, with or without a partial head frame in flight
transmit_op = st.tuples(
    st.just("transmit"),
    st.integers(0, 2),
    st.floats(0.0, 1.0, exclude_min=True),
    st.one_of(st.just(0.001), st.floats(0.01, 2000.0)),
    st.lists(st.floats(0.0, 40.0), max_size=3),
    st.sampled_from([0.05, 0.025, 0.0, 1.0, 1 / 30]),
)
# a one-tick transmit whose budget is the head frame's remaining Mbit exactly,
# the tick's own frame when the queue is empty: the bandwidth is remaining / dt
# with dt a power of two, so both products are exact
exact_fit_op = st.tuples(
    st.just("exact"),
    st.integers(0, 2),
    st.floats(0.0, 1.0, exclude_min=True),
    st.sampled_from([0.25, 0.5, 1.0]),
    st.floats(0.0, 40.0),
)
flush_op = st.tuples(st.just("flush"))


@settings(max_examples=400, deadline=None)
@given(
    max_depth=st.integers(1, 5),
    table=st.sampled_from(sorted(TABLES)),
    t0=st.floats(0.0, 1200.0),
    ops=st.lists(st.one_of(transmit_op, exact_fit_op, flush_op), max_size=30),
)
def test_column_queue_equals_the_list_of_frames_queue(max_depth, table, t0, ops):
    cfg = EnvConfig(table=TABLES[table])
    terms = cfg.actions
    qualities = terms.offload_qualities
    q, ref = UplinkQueue(max_depth), ReferenceUplinkQueue(max_depth)
    t, frames_in, frames_out = t0, 0, 0
    for op in ops:
        if op[0] == "flush":
            assert q.flush() == ref.flush()
        else:
            _, row, share, *rest = op
            payload = cfg.frame.payload_mbit(qualities[row]) * share
            if op[0] == "transmit":
                bandwidth, rtts, dt = rest
            else:
                dt, rtt = rest
                # the head once the tick's frame is in, the oldest dropped if full
                head = [*q.remaining_mbit, payload][-max_depth:][0]
                bandwidth, rtts = head / dt, [rtt]
            ticks = t + np.arange(len(rtts)) * dt
            t_capture, mtp, dropped = q.transmit(ticks, bandwidth, rtts, dt, row, payload, terms)
            want, want_dropped = reference_transmit(
                ref, ticks, [bandwidth] * len(rtts), rtts, dt, qualities[row], payload, cfg.table)
            assert t_capture.dtype == mtp.dtype == np.float64
            assert t_capture.tolist() == [f.t_capture for f in want]
            assert mtp.tolist() == [f.mtp_ms for f in want]
            assert dropped == want_dropped
            frames_in, frames_out = frames_in + len(rtts), frames_out + mtp.size
            t += len(rtts) * dt
        assert same_queue(q, ref, qualities)
        assert q.backlog_mbit == ref.backlog_mbit
        # the frame ledger closes, and both queues keep the same one
        assert frames_in == frames_out + q.dropped + q.depth
        assert (ref.enqueued, ref.delivered) == (frames_in, frames_out)


@settings(max_examples=400, deadline=None)
@given(
    max_depth=st.integers(1, 5),
    table=st.sampled_from(sorted(TABLES)),
    t0=st.floats(0.0, 1200.0),
    start=st.lists(st.tuples(st.integers(0, 2), st.floats(0.0, 1.0, exclude_min=True)), max_size=4),
    start_bw=st.floats(0.001, 2000.0),
    row=st.integers(0, 2),
    dt=st.sampled_from([0.05, 0.025, 0.25, 1 / 30]),
    # runs of ticks at one bandwidth, each a fit and a tick count: the
    # bandwidth over the one that just fits a frame in its tick, free above
    # 1, congested below, and either side of the fit at 1.0
    runs=st.lists(st.tuples(st.one_of(st.just(1.0), st.floats(1.0, 400.0), st.floats(0.001, 1.0)),
                            st.integers(1, 6)), max_size=8),
    data=st.data(),
)
def test_transmit_equals_one_enqueue_and_drain_per_tick(
        max_depth, table, t0, start, start_bw, row, dt, runs, data):
    cfg = EnvConfig(table=TABLES[table])
    terms = cfg.actions
    qualities = terms.offload_qualities
    q, ref = UplinkQueue(max_depth), ReferenceUplinkQueue(max_depth)
    # a start queue of one-tick intervals at start_bw, left with partial
    # progress, drops or nothing
    for k, (r, share) in enumerate(start):
        payload = cfg.frame.payload_mbit(qualities[r]) * share
        tick = np.array([t0 - (len(start) - k) * dt])
        q.transmit(tick, start_bw, [0.0], dt, r, payload, terms)
        reference_transmit(ref, tick, [start_bw], [0.0], dt, qualities[r], payload, cfg.table)
    assert same_queue(q, ref, qualities)

    payload = float(terms.payload_offload_mbit[row])
    bandwidths = [payload / dt * fit for fit, n in runs for _ in range(n)]
    ticks = t0 + np.arange(len(bandwidths)) * dt
    rtts = data.draw(st.lists(st.floats(0.0, 40.0), min_size=len(ticks), max_size=len(ticks)))
    # consecutive calls over consecutive runs
    t_capture, mtp, dropped, k = [], [], 0, 0
    for _, n in runs:
        run_t, run_mtp, run_dropped = q.transmit(
            ticks[k:k + n], bandwidths[k], rtts[k:k + n], dt, row, payload, terms)
        assert run_t.dtype == run_mtp.dtype == np.float64
        t_capture += run_t.tolist()
        mtp += run_mtp.tolist()
        dropped, k = dropped + run_dropped, k + n

    want, want_dropped = reference_transmit(
        ref, ticks, bandwidths, rtts, dt, qualities[row], payload, cfg.table)
    assert t_capture == [f.t_capture for f in want]
    assert mtp == [f.mtp_ms for f in want]
    assert dropped == want_dropped
    assert same_queue(q, ref, qualities)
