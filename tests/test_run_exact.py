"""A planned run of local intervals against the steps it replaces.

`XrEnvironment.run_local` advances the intervals of one local action in
array passes, and `Battery.drain_intervals` drains their ticks in one. Both
are meant to do the same arithmetic as `step` and `Battery.steps`, operation
for operation, so these properties demand equality, not closeness, of every
value they return and of the state they leave, the random generator's
included. The harness property checks a whole episode, planned against
stepped decision by decision.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xredge.environment as environment
import xredge.harness as harness
from xredge.actions import N_ACTIONS
from xredge.energy import Battery
from xredge.environment import EnvConfig, Outcome, XrEnvironment
from xredge.harness import DECISION_COLUMNS, FRAME_COLUMNS, default_scenario, run_experiment
from xredge.network import BandwidthProfile, cycle_profile, stable_profile
from xredge.policies import StaticPolicy, ThresholdPolicy

LOCAL_ACTIONS = [a for a in range(N_ACTIONS) if EnvConfig().actions.is_local[a]]

PROFILES = {
    "cycle": cycle_profile(),
    "stable-10": stable_profile(10.0),
    # dwells shorter than an interval, and dwells that intervals straddle
    "cycle-0.35s": replace(cycle_profile(), dwell_s=0.35),
    "cycle-2.5s": replace(cycle_profile(), dwell_s=2.5),
    # threshold offloads and runs local in turn, one dwell each
    "four-3.3s": BandwidthProfile(levels_mbps=(1000.0, 1.0, 500.0, 10.0), dwell_s=3.3),
}


@settings(max_examples=200, deadline=None)
@given(
    capacity_wh=st.sampled_from([16.6, 0.05, 0.001, 1e-7]),
    soc0=st.sampled_from([100.0, 37.5, 1e-3]),
    drain_factor=st.sampled_from([3.0, 1.0, 0.25]),
    power_w=st.sampled_from([0.0, 0.5, 2.25, 20.8, 1e6]),
    dt_s=st.sampled_from([0.05, 0.025, 0.1, 1.0]),
    n=st.integers(1, 40),
    t0s=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=30),
)
def test_drain_intervals_equals_the_scalar_steps(capacity_wh, soc0, drain_factor, power_w, dt_s, n, t0s):
    array = Battery(capacity_wh, soc0, drain_factor)
    by_interval = Battery(capacity_wh, soc0, drain_factor)
    by_tick = Battery(capacity_wh, soc0, drain_factor)
    charge, energy, depleted_at = array.drain_intervals(power_w, dt_s, n, t0s)

    ends, energies, captured, instant = [], [], 0, None
    for t0 in t0s:
        interval_energy, ticks, instant = by_interval.steps(power_w, dt_s, n, t0)
        captured += ticks
        ends.append(by_interval.soc)
        energies.append(interval_energy)
        if instant is not None:
            break
    ticks = []
    for t0 in t0s:
        for k in range(n):
            if not by_tick.depleted:
                by_tick.steps(power_w, dt_s, 1, t0 + k * dt_s)
                ticks.append(by_tick.soc)
    assert charge.tolist() == ticks
    assert charge.size == captured and depleted_at == instant
    assert energy == energies and all(type(x) is float for x in energy)
    assert charge[n - 1::n].tolist() + ([charge.item(-1)] if captured % n else []) == ends
    for b in (by_interval, by_tick):
        assert (array.soc, array.energy_j) == (b.soc, b.energy_j)
        assert type(array.soc) is type(array.energy_j) is float


def stepped_intervals(env: XrEnvironment, action: int, until_s: float, max_intervals: int) -> dict:
    """What `run_local(action, until_s)` returns, taken from `step` calls:
    one step per interval that ends before until_s, up to max_intervals.
    Each Outcome field maps to its steps' values in order, the frames
    concatenated."""
    cols = {k: [] for k in Outcome._fields}
    span = env.actions.n_ticks * env.actions.tick_s
    while not env.done and len(cols["t"]) < max_intervals and env.t + span < until_s:
        t0, bandwidth = env.t, env.state.bandwidth_mbps
        out = env.step(action)
        # the start and the bandwidth a step reads before it runs, and the
        # RTT, power and charge it leaves in the state
        assert (out.t, out.bandwidth_mbps) == (t0, bandwidth)
        assert (out.rtt_ms, out.power_w, out.soc_pct) == (env.state.rtt_ms, env.state.power_w, env.state.soc)
        for k, x in out._asdict().items():
            if isinstance(x, np.ndarray):
                cols[k] += x.tolist()
            else:
                cols[k].append(x)
    return cols


def assert_same_environment(env: XrEnvironment, ref: XrEnvironment) -> None:
    assert env.state == ref.state and env.done == ref.done
    assert (env.t, env.frames_captured, env.frames_delivered) == (ref.t, ref.frames_captured, ref.frames_delivered)
    assert (env.battery.soc, env.battery.energy_j) == (ref.battery.soc, ref.battery.energy_j)
    assert env.rng.bit_generator.state == ref.rng.bit_generator.state
    assert (env.queue.depth, env.queue.dropped) == (ref.queue.depth, ref.queue.dropped)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.sampled_from(sorted(PROFILES)),
    interval_s=st.sampled_from([1.0, 0.35, 2.5, 0.1]),
    capacity_wh=st.sampled_from([16.6, 0.05, 0.002]),
    intervals=st.sampled_from([12, 8]),
    extra_s=st.sampled_from([0.0, 0.5, 0.123]),
    before=st.lists(st.integers(0, N_ACTIONS - 1), max_size=4),
    action=st.sampled_from(LOCAL_ACTIONS),
    until=st.sampled_from(["inf", "dwell", "near"]),
    max_run_frames=st.sampled_from([environment.MAX_RUN_FRAMES, 45, 1]),
    seed=st.integers(0, 2**16),
)
# the battery runs out mid-interval inside a run
@example(profile="cycle", interval_s=1.0, capacity_wh=0.05, intervals=12, extra_s=0.0, before=[],
         action=4, until="inf", max_run_frames=environment.MAX_RUN_FRAMES, seed=0)
# a horizon that is not a multiple of the interval
@example(profile="cycle", interval_s=1.0, capacity_wh=16.6, intervals=12, extra_s=0.5, before=[],
         action=4, until="inf", max_run_frames=environment.MAX_RUN_FRAMES, seed=0)
# eight summed 0.1 s intervals end 1e-16 s short of the 0.8 s horizon, inside its 1e-9 s tolerance
@example(profile="cycle", interval_s=0.1, capacity_wh=16.6, intervals=8, extra_s=0.0, before=[],
         action=4, until="inf", max_run_frames=environment.MAX_RUN_FRAMES, seed=0)
# a run right after an offloaded interval left frames in the uplink queue,
# which the local step before the run flushes
@example(profile="stable-10", interval_s=1.0, capacity_wh=16.6, intervals=12, extra_s=0.0, before=[5, 4],
         action=4, until="dwell", max_run_frames=environment.MAX_RUN_FRAMES, seed=0)
# a run right after an offloaded interval, which flushes the queue itself
# and counts the flush as its first interval's drops
@example(profile="stable-10", interval_s=1.0, capacity_wh=16.6, intervals=12, extra_s=0.0, before=[5],
         action=4, until="dwell", max_run_frames=environment.MAX_RUN_FRAMES, seed=0)
def test_run_local_equals_stepping_interval_by_interval(profile, interval_s, capacity_wh, intervals, extra_s,
                                                         before, action, until, max_run_frames, seed):
    cfg = EnvConfig(profile=PROFILES[profile], capacity_wh=capacity_wh, decision_interval_s=interval_s,
                    horizon_s=intervals * interval_s + extra_s)
    env, ref = XrEnvironment(cfg, seed=seed), XrEnvironment(cfg, seed=seed)
    for a in before:
        if not env.done:
            env.step(a)
            ref.step(a)
    if env.done:
        return
    dwell_s = cfg.profile.dwell_s
    until_s = {"inf": math.inf, "dwell": (env.t // dwell_s + 1.0) * dwell_s, "near": env.t + 2.5 * interval_s}[until]
    with mock.patch.object(environment, "MAX_RUN_FRAMES", max_run_frames):
        run = env.run_local(action, until_s)
    want = stepped_intervals(ref, action, until_s, max(1, max_run_frames // cfg.actions.n_ticks))
    for key, values in want.items():
        got = getattr(run, key)
        got = got.tolist() if isinstance(got, np.ndarray) else got
        assert got == values, key
        assert list(map(type, got)) == list(map(type, values)), key
        if key not in ("action", "quality", "imu", "mode", "frames_captured", "frames_dropped",
                       "pending_censored"):
            assert all(type(x) is float for x in got), key
    assert run.t_capture.dtype == run.mtp_ms.dtype == np.float64
    assert_same_environment(env, ref)


def test_run_local_refuses_an_offload_action_and_an_ended_episode():
    env = XrEnvironment(EnvConfig(horizon_s=1.0), seed=1)
    with np.testing.assert_raises_regex(ValueError, "not a local action id: 5"):
        env.run_local(5)
    env.step(4)
    with np.testing.assert_raises_regex(RuntimeError, "episode is over"):
        env.run_local(4)


def run_capturing_env(spec, seed: int, planned: bool):
    """run_experiment's result and its environment; with planned=False every
    decision is stepped, since no policy repeats an action."""
    envs = []

    class Recorded(XrEnvironment):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            envs.append(self)

    never = lambda self, env, action: -math.inf  # noqa: E731
    with mock.patch.object(harness, "XrEnvironment", Recorded), \
            mock.patch.object(StaticPolicy, "repeat_until", StaticPolicy.repeat_until if planned else never), \
            mock.patch.object(ThresholdPolicy, "repeat_until", ThresholdPolicy.repeat_until if planned else never):
        result = run_experiment(spec, seed)
    (env,) = envs
    return result, env


@settings(max_examples=40, deadline=None)
@given(
    policy=st.sampled_from(["local", "threshold"]),
    profile=st.sampled_from(sorted(PROFILES)),
    capacity_wh=st.sampled_from([16.6, 0.5, 0.05]),
    horizon_s=st.sampled_from([40.0, 30.5, 7.25]),
    seed=st.integers(0, 2**16),
)
# dwell boundaries inside threshold's local runs, and a flush at each switch
@example(policy="threshold", profile="four-3.3s", capacity_wh=16.6, horizon_s=40.0, seed=1)
# the battery runs out mid-interval inside a run
@example(policy="local", profile="cycle", capacity_wh=0.05, horizon_s=40.0, seed=1)
def test_a_planned_episode_equals_a_stepped_one(policy, profile, capacity_wh, horizon_s, seed):
    spec = default_scenario(policy, "cycle", horizon_s=horizon_s, seeds=(seed,))
    spec = replace(spec, env=replace(spec.env, profile=PROFILES[profile], capacity_wh=capacity_wh))
    planned, env = run_capturing_env(spec, seed, planned=True)
    stepped, ref = run_capturing_env(spec, seed, planned=False)
    # repr tells 1 from 1.0 and -0.0 from 0.0, and a nan equals a nan
    for c in DECISION_COLUMNS:
        assert list(map(repr, planned.decisions[c])) == list(map(repr, stepped.decisions[c])), c
    for c in FRAME_COLUMNS:
        assert planned.frames[c].dtype == stepped.frames[c].dtype
        assert planned.frames[c].tolist() == stepped.frames[c].tolist(), c
    assert planned.metrics == stepped.metrics
    assert_same_environment(env, ref)
