"""The one-pass decision interval against the tick-by-tick definition it replaced.

`reference_step` is the loop that stepped one frame period at a time: per
tick one bandwidth lookup, one scalar RTT draw, one enqueue/drain or local
frame, and one battery step, stopping at the tick that runs the charge out.
`XrEnvironment.step` drains the battery first and draws the interval's RTTs
in one call. The reference environment's queue is the list-of-frames
`ReferenceUplinkQueue` of test_queue_exact.py. The arithmetic is meant to be
the same operation for operation, so these properties demand equality, not
closeness, of everything a step returns and of the state it leaves behind,
including the random generator's.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xredge.actions import N_ACTIONS, decode_action
from xredge.energy import Battery, PowerParams
from xredge.environment import EnvConfig, SystemState, XrEnvironment, interval_reward, observe
from xredge.latency import violation
from xredge.network import BandwidthProfile, RttModel, bandwidth_at, cycle_profile, stable_profile

from test_queue_exact import ReferenceUplinkQueue, same_queue


def reference_battery_step(b: Battery, power_w: float, dt_s: float) -> float:
    """One battery tick, as the per-tick loop computed it before `Battery.steps`."""
    if b.depleted or power_w == 0.0 or dt_s == 0.0:
        return 0.0
    drop_pct = b.drain_factor * power_w * dt_s / b.capacity_j * 100.0
    if drop_pct >= b.soc:
        fraction = b.soc / drop_pct
        consumed = power_w * dt_s * fraction
        b.soc = 0.0
    else:
        consumed = power_w * dt_s
        b.soc -= drop_pct
    b.energy_j += consumed
    return consumed


def reference_rtt(model: RttModel, rng: np.random.Generator) -> float:
    """One scalar RTT draw."""
    return model.base_ms + model.jitter_scale_ms * math.exp(model.sigma * rng.standard_normal())


def reference_step(env: XrEnvironment, action: int):
    """One decision interval, one tick at a time; returns (state, obs,
    reward, done, t_capture, mtp_ms, cells) and updates env as step does,
    where cells maps each scalar field of step's Outcome to its value.
    env.queue must be a ReferenceUplinkQueue."""
    cfg = env.cfg
    row = action
    config = decode_action(action)
    quality = config.quality
    bandwidth0 = env.state.bandwidth_mbps
    local = env.actions.is_local[row]
    power = env.actions.power_w[row]
    mtp_local_ms = env.actions.mtp_local_ms[row]
    tick_s = cfg.power.tau_frame_ms / 1000.0
    n_ticks = cfg.actions.n_ticks

    flushed = 0
    if local and env.queue.depth:
        flushed = env.queue.flush()

    t0 = env.t
    t_capture, mtps = [], []
    captured = dropped = 0
    energy_j = 0.0
    rtt = env.state.rtt_ms
    depleted_at = None
    for k in range(n_ticks):
        tk = t0 + k * tick_s
        bw = bandwidth_at(cfg.profile, tk)
        rtt = reference_rtt(cfg.rtt, env.rng)
        if local:
            t_capture.append(tk)
            mtps.append(mtp_local_ms)
        else:
            payload = env.actions.payload_offload_mbit[env.actions.offload_row[row]]
            dropped += env.queue.enqueue(tk, quality, payload)
            for dv in env.queue.drain(bw, rtt, tick_s, tk, cfg.table):
                t_capture.append(dv.t_capture)
                mtps.append(dv.mtp_ms)
        captured += 1
        consumed = reference_battery_step(env.battery, power, tick_s)
        energy_j += consumed
        if env.battery.depleted:
            fraction = consumed / (power * tick_s) if power > 0 else 1.0
            depleted_at = tk + fraction * tick_s
            break

    t_end = depleted_at if depleted_at is not None else t0 + n_ticks * tick_s
    env.t = t_end
    env.frames_captured += captured
    env.frames_delivered += len(mtps)

    v_values = [violation(m, cfg.tau_mtp_ms) for m in mtps]
    pending_censored = 0
    for qf in env.queue.frames:
        if qf.t_capture >= t0:
            v_values.append(violation((t_end - qf.t_capture) * 1000.0, cfg.tau_mtp_ms))
            pending_censored += 1
    mean_v = float(np.mean(v_values)) if v_values else 0.0
    reward = interval_reward(mean_v, power, env.battery.soc, cfg.reward)

    env.state = SystemState(
        soc=env.battery.soc,
        power_w=power,
        rtt_ms=rtt,
        bandwidth_mbps=bandwidth_at(cfg.profile, min(t_end, cfg.horizon_s)),
        mtp_ms=mtps[-1] if mtps else env.state.mtp_ms,
    )
    env.done = env.battery.depleted or t_end >= cfg.horizon_s - 1e-9
    cells = {
        "t": t0,
        "action": action,
        "quality": config.quality.value,
        "imu": config.imu.value,
        "mode": config.mode.name,
        "bandwidth_mbps": bandwidth0,
        "rtt_ms": rtt,
        "mtp_mean_ms": float(np.mean(mtps)) if mtps else float("nan"),
        "v_mean": mean_v,
        "power_w": power,
        "soc_pct": env.battery.soc,
        "reward": reward,
        "frames_captured": captured,
        "frames_dropped": dropped + flushed,
        "pending_censored": pending_censored,
        "energy_j": energy_j,
    }
    return env.state, observe(env.state, cfg), reward, env.done, t_capture, mtps, cells


def same(a, b) -> bool:
    """Equal values of equal type; nan equals nan."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


# the largest level whose 50 ms budget is exactly a HIGH frame's 5.8 Mbit:
# at it each frame leaves in its own tick, one ulp below it frames queue
EXACT_FIT_MBPS = math.nextafter(116.0, 0.0)
assert EXACT_FIT_MBPS * 0.05 == 5.8 and math.nextafter(EXACT_FIT_MBPS, 0.0) * 0.05 < 5.8

PROFILES = {
    "cycle": cycle_profile(),
    "exact-fit": stable_profile(EXACT_FIT_MBPS),
    "below-fit": stable_profile(math.nextafter(EXACT_FIT_MBPS, 0.0)),
    "cycle-1s": replace(cycle_profile(), dwell_s=1.0),
    "stable-1": stable_profile(1.0),
    "stable-100": stable_profile(100.0),
    "stable-1000": stable_profile(1000.0),
    # dwells that intervals straddle: then each tick reads its own level
    "cycle-0.35s": replace(cycle_profile(), dwell_s=0.35),
    "cycle-2.5s": replace(cycle_profile(), dwell_s=2.5),
    # an interval's first and last ticks lie three dwells apart, at one level
    "three-0.3s": BandwidthProfile(levels_mbps=(1000.0, 1.0, 100.0), dwell_s=0.3),
    # each 1 s interval starts a stalled dwell at 1 Mbps, which leaves a
    # partial head frame in flight when the 1000 Mbps dwell begins mid-interval
    "stall-free-0.5s": BandwidthProfile(levels_mbps=(1.0, 1000.0), dwell_s=0.5),
}
RTTS = {
    "lognormal": RttModel(),
    # no base RTT to absorb a last-bit difference in the jitter's exponential
    "jitter-only": RttModel(base_ms=0.0),
    "jitter-0": RttModel(jitter_scale_ms=0.0),
    "sigma-0": RttModel(sigma=0.0),
}


@settings(max_examples=150, deadline=None)
@given(
    profile=st.sampled_from(sorted(PROFILES)),
    rtt=st.sampled_from(sorted(RTTS)),
    frame_ms=st.sampled_from([50.0, 25.0]),
    capacity_wh=st.sampled_from([16.6, 0.02, 0.002]),
    actions=st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
# an offloaded interval whose first and last ticks share a level three dwells
# apart, so a level test in place of the dwell test fails in every run
@example(profile="three-0.3s", rtt="lognormal", frame_ms=50.0, capacity_wh=16.6, actions=[5], seed=0)
def test_step_equals_the_tick_by_tick_definition(profile, rtt, frame_ms, capacity_wh, actions, seed):
    # the small batteries run out mid-interval within a few decisions
    cfg = EnvConfig(
        profile=PROFILES[profile], rtt=RTTS[rtt], power=PowerParams(tau_frame_ms=frame_ms),
        capacity_wh=capacity_wh, horizon_s=float(len(actions)),
    )
    env, ref = XrEnvironment(cfg, seed=seed), XrEnvironment(cfg, seed=seed)
    ref.queue = ReferenceUplinkQueue(cfg.queue_max_depth)
    for a in actions:
        if env.done:
            break
        out = env.step(a)
        state, obs, reward, done, t_capture, mtps, cells = reference_step(ref, a)
        fields = out._asdict()
        # every field but the two frame arrays is a scalar cell
        assert fields.keys() - {"t_capture", "mtp_ms"} == cells.keys()
        assert all(same(fields[k], cells[k]) for k in cells), (fields, cells)
        assert env.state == state
        # the learner observes the environment once step has returned
        assert np.array_equal(env.observe(), obs)
        assert same(out.reward, reward) and env.done == done
        assert out.t_capture.dtype == out.mtp_ms.dtype == np.float64
        assert out.t_capture.tolist() == t_capture and out.mtp_ms.tolist() == mtps
        assert out.mtp_ms.size == len(mtps)
        assert same(env.battery.soc, ref.battery.soc)
        assert same(env.battery.energy_j, ref.battery.energy_j)
        assert env.rng.bit_generator.state == ref.rng.bit_generator.state
        assert same_queue(env.queue, ref.queue, env.actions.offload_qualities)
        assert env.queue.depth == ref.queue.depth
        assert env.battery.depleted is ref.battery.depleted
        assert (env.t, env.frames_captured, env.frames_delivered) == (
            ref.t, ref.frames_captured, ref.frames_delivered
        )
    assert env.done == ref.done
