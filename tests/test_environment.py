"""Closed-loop environment: stepping, reward, observation, termination."""

import itertools
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xredge.actions import N_ACTIONS, ExecutionMode, decode_action
from xredge.config import from_jsonable, to_jsonable
from xredge.energy import PowerParams, client_power
from xredge.environment import (
    MAX_INTERVAL_FRAMES,
    OBS_DIM,
    EnvConfig,
    RewardParams,
    SystemState,
    XrEnvironment,
    interval_reward,
    observe,
)
from xredge.latency import mtp_local, violation
from xredge.network import BandwidthProfile, RttModel, cycle_profile, rtt_samples, stable_profile

from test_cli import _edge_values, _ranged_fields, set_edge

A_LOCAL_FULL = 4
A_OFFLOAD_FULL = 5
A_LOCAL_MIN = 12


def make_env(seed=0, **overrides):
    return XrEnvironment(EnvConfig(**overrides), seed=seed)


# ---------------------------------------------------------------------------
# reward
# ---------------------------------------------------------------------------


def test_reward_compliant_epoch():
    p = RewardParams()
    # bonus - alpha*(P/Pmax) + beta*(soc/100) = 0.2 - 0.05 + 0.05
    assert interval_reward(0.0, 20.8, 100.0, p) == pytest.approx(0.2)


def test_reward_violation_dominates():
    p = RewardParams()
    # mean violation of 0.5 at minimal power and full battery
    r = interval_reward(0.5, 0.5, 100.0, p)
    assert r == pytest.approx(-0.5 - 0.05 * 0.5 / 20.8 + 0.05)
    assert r < 0.0


def test_reward_lambda_scales_penalty_linearly():
    lo = RewardParams(lam=0.5)
    hi = RewardParams(lam=2.0)
    base = RewardParams(lam=1.0)
    v = 0.3
    penalty = lambda p: interval_reward(v, 10.0, 50.0, p) - (
        -p.alpha_power * 10.0 / p.p_max_w + p.beta_battery * 0.5
    )
    assert penalty(lo) == pytest.approx(-0.15)
    assert penalty(base) == pytest.approx(-0.3)
    assert penalty(hi) == pytest.approx(-0.6)


def test_reward_hierarchy():
    # any epoch with mean violation >= 0.25 scores below any compliant epoch,
    # across the full power and charge ranges
    p = RewardParams()
    worst_compliant = interval_reward(0.0, p.p_max_w, 0.0, p)
    best_violated = interval_reward(0.25, 0.0, 100.0, p)
    assert best_violated < worst_compliant


# ---------------------------------------------------------------------------
# observation
# ---------------------------------------------------------------------------


def test_observe_normalization_endpoints():
    cfg = EnvConfig()

    def obs_for(**kw):
        base = dict(soc=100.0, power_w=20.8, rtt_ms=5.0, bandwidth_mbps=1000.0,
                    mtp_ms=0.0)
        base.update(kw)
        return observe(SystemState(**base), cfg)

    full = obs_for()
    assert full.shape == (OBS_DIM,) == (5,) and full.dtype == np.float64
    assert full[0] == 1.0                                  # soc 100%
    assert full[1] == 1.0                                  # power at Pmax
    assert full[3] == 1.0                                  # 1000 Mbps -> log ceiling

    assert obs_for(soc=50.0)[0] == pytest.approx(0.5)
    assert obs_for(power_w=0.5)[1] == pytest.approx(0.5 / 20.8)
    assert obs_for(rtt_ms=25.0)[2] == pytest.approx(0.5)
    assert obs_for(rtt_ms=500.0)[2] == 1.0                 # clamped
    assert obs_for(bandwidth_mbps=1.0)[3] == pytest.approx(0.0)
    assert obs_for(bandwidth_mbps=10.0)[3] == pytest.approx(1.0 / 3.0)
    assert obs_for(mtp_ms=15.0)[4] == pytest.approx(0.15)
    assert obs_for(mtp_ms=350.0)[4] == 1.0                 # clamped

    assert np.all(full >= 0.0) and np.all(full <= 1.0)


# ---------------------------------------------------------------------------
# episode mechanics
# ---------------------------------------------------------------------------


def test_initial_state():
    env = make_env(seed=3)
    s = env.state
    assert s.soc == 100.0
    assert s.power_w == 0.5        # idle baseline before the first decision
    assert s.mtp_ms == 0.0
    assert env.t == 0.0
    assert s.bandwidth_mbps == 1000.0
    assert not env.done


def test_initial_state_is_deterministic():
    a = make_env(seed=5)
    b = make_env(seed=5)
    assert a.state == b.state
    assert make_env(seed=6).state.rtt_ms != a.state.rtt_ms


def test_zero_horizon_immediately_done():
    env = make_env(horizon_s=0.0)
    assert env.done
    with pytest.raises(RuntimeError):
        env.step(A_LOCAL_FULL)


def test_step_rejects_bad_action():
    env = make_env()
    with pytest.raises(ValueError):
        env.step(-1)
    with pytest.raises(ValueError):
        env.step(18)


def test_local_full_interval():
    env = make_env(profile=stable_profile(1000.0))
    out = env.step(A_LOCAL_FULL)
    # 20 frames per 1 s interval at the 50 ms frame period, each exactly at
    # the 30 ms threshold (29 ms processing + 1 ms overhead): compliant
    assert out.mtp_ms.size == out.t_capture.size == 20
    assert all(m == pytest.approx(30.0) for m in out.mtp_ms)
    assert all(out.mtp_ms <= env.cfg.tau_mtp_ms)
    assert out.v_mean == 0.0
    assert out.energy_j == pytest.approx(20.8)
    assert env.state.power_w == pytest.approx(20.8)
    assert env.t == pytest.approx(1.0)
    soc_expected = 100.0 - 3.0 * 20.8 / (16.6 * 3600.0) * 100.0
    assert env.state.soc == pytest.approx(soc_expected)
    assert out.reward == pytest.approx(0.2 - 0.05 + 0.05 * soc_expected / 100.0)


def test_offload_starvation_is_penalized():
    # at 1 Mbps a full-quality frame needs 5.8 s of air time: nothing is
    # delivered in the first interval and the pending frames are censored in
    env = make_env(profile=stable_profile(1.0))
    out = env.step(A_OFFLOAD_FULL)
    assert out.mtp_ms.size == 0
    assert out.pending_censored == 20
    assert env.queue.depth == 20
    assert out.v_mean > 1.0
    assert out.reward < -1.0


def test_queue_saturates_at_max_depth():
    env = make_env(profile=stable_profile(1.0))
    for _ in range(5):
        env.step(A_OFFLOAD_FULL)
    assert env.queue.depth == 20
    assert env.queue.dropped > 0


def test_local_switch_flushes_queue():
    env = make_env(profile=stable_profile(1.0))
    env.step(A_OFFLOAD_FULL)
    assert env.queue.depth == 20
    out = env.step(A_LOCAL_FULL)
    assert env.queue.depth == 0
    assert out.frames_dropped >= 20


def test_battery_depletion_ends_episode_early():
    env = make_env(profile=stable_profile(1000.0), horizon_s=1200.0)
    while not env.done:
        env.step(A_LOCAL_FULL)
    assert env.battery.depleted
    assert env.done
    # constant 20.8 W at k=3 empties 16.6 Wh in 957.69 s, inside the horizon
    assert env.t == pytest.approx(957.6923, abs=1e-3)
    assert env.t < 1200.0
    with pytest.raises(RuntimeError):
        env.step(A_LOCAL_FULL)


@pytest.mark.parametrize("rtt", [RttModel(), RttModel(jitter_scale_ms=0.0)], ids=["lognormal", "jitter-0"])
def test_depleting_local_interval_keeps_its_last_rtt(rtt):
    # the battery runs out a few ticks into the first interval
    cfg = EnvConfig(rtt=rtt, capacity_wh=0.002)
    env, ref = XrEnvironment(cfg, seed=3), np.random.default_rng(3)
    assert env.state.rtt_ms == rtt_samples(cfg.rtt, ref, 1)[0]
    out = env.step(A_LOCAL_FULL)
    assert env.done and 1 < out.frames_captured < cfg.actions.n_ticks
    assert env.state.rtt_ms == rtt_samples(cfg.rtt, ref, out.frames_captured)[-1]
    assert env.rng.bit_generator.state == ref.bit_generator.state


def test_horizon_termination():
    env = make_env(profile=stable_profile(1000.0), horizon_s=3.0)
    steps = 0
    while not env.done:
        env.step(A_OFFLOAD_FULL)
        steps += 1
    assert steps == 3
    assert env.t == pytest.approx(3.0)
    assert not env.battery.depleted


def test_frame_accounting():
    env = make_env(profile=stable_profile(1000.0), horizon_s=5.0)
    for a in (4, 5, 12, 13, 0):
        env.step(a)
    assert env.frames_captured == 100
    # local frames all deliver; offloaded ones may lag in the queue or drop
    assert env.frames_delivered <= env.frames_captured


def test_rtt_stream_is_action_independent():
    # the jitter draw sequence must not depend on the actions taken, so equal
    # seeds stay comparable across policies
    a = make_env(seed=9)
    b = make_env(seed=9)
    a.step(A_LOCAL_FULL)
    b.step(A_OFFLOAD_FULL)
    assert a.state.rtt_ms == b.state.rtt_ms


def test_mtp_observation_sticky_under_starvation():
    env = make_env(profile=stable_profile(1.0))
    env.step(A_OFFLOAD_FULL)             # nothing delivered
    assert env.state.mtp_ms == 0.0       # unchanged from the initial state
    env.step(A_LOCAL_FULL)
    assert env.state.mtp_ms == pytest.approx(30.0)


def test_decision_interval_must_align_with_frame_period():
    with pytest.raises(ValueError):
        XrEnvironment(EnvConfig(decision_interval_s=0.07))
    # an exact multiple is fine
    XrEnvironment(EnvConfig(decision_interval_s=0.05, horizon_s=1.0))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides", [
    dict(horizon_s=-5.0), dict(horizon_s=NAN), dict(horizon_s=INF),
    dict(tau_mtp_ms=0.0), dict(tau_mtp_ms=NAN), dict(rtt_max_ms=0.0), dict(mtp_max_ms=0.0), dict(queue_max_depth=0),
    # an infinite observation clamp scales the RTT and MTP features to 0
    dict(rtt_max_ms=INF), dict(mtp_max_ms=INF),
    dict(capacity_wh=NAN), dict(capacity_wh=INF), dict(soc0=NAN), dict(soc0=101.0),
    dict(drain_factor=0.0), dict(drain_factor=INF),
    dict(decision_interval_s=INF), dict(decision_interval_s=NAN), dict(decision_interval_s=0.0),
    dict(decision_interval_s=1e308),
    # 20,000,000 ticks per decision, each step building arrays that long
    dict(decision_interval_s=1e6, horizon_s=3.0),
    # a zero horizon never steps, but the action table is built per interval
    dict(horizon_s=0.0, decision_interval_s=1e8),
    # a dwell index that overflows bandwidth_at, or leaves the integers floats hold
    dict(profile=replace(cycle_profile(), dwell_s=1e-308), horizon_s=3.0),
    dict(profile=replace(cycle_profile(), dwell_s=1200.0 / 2**53)),
    # a 30 ms frame's relative excess over it overflows to inf
    dict(tau_mtp_ms=1e-308),
    # a subnormal frame period makes the tick 0.0 s
    dict(power=PowerParams(tau_frame_ms=5e-324)),
    # a few frames of a huge period: the last frame's arrival overflows to inf
    *(dict(power=PowerParams(tau_frame_ms=1e308), decision_interval_s=n * 1e305, horizon_s=0.0)
      for n in (3, 5, 7)),
])
def test_env_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        EnvConfig(**overrides)


@pytest.mark.parametrize("overrides", [
    # one decision fills the horizon
    dict(decision_interval_s=3.0, horizon_s=3.0),
    # a zero horizon never steps, so the interval may exceed it
    dict(decision_interval_s=5.0, horizon_s=0.0),
    # 2**52 dwells over the horizon and one interval: every index is still exact
    dict(profile=replace(cycle_profile(), dwell_s=1201.0 / 2**52)),
    dict(tau_mtp_ms=1e-3),
])
def test_env_config_accepts_edge_values(overrides):
    env = XrEnvironment(EnvConfig(**overrides), seed=0)
    if env.cfg.horizon_s == 0.0:
        assert env.done
        return
    out = env.step(A_LOCAL_FULL)
    assert env.done is (env.cfg.decision_interval_s == env.cfg.horizon_s)
    assert len(out.t_capture) == env.actions.n_ticks


@pytest.mark.parametrize("overrides", [
    dict(p_max_w=0.0), dict(p_max_w=INF), dict(p_max_w=NAN), dict(bonus=NAN), dict(lam=INF),
])
def test_reward_params_reject_bad_values(overrides):
    with pytest.raises(ValueError):
        RewardParams(**overrides)


@pytest.mark.parametrize("overrides", [{}, {"tau_mtp_ms": 20.0}, {"power": PowerParams(p_base_w=1.5)}])
def test_action_table_rows_equal_the_scalar_models(overrides):
    env = make_env(**overrides)
    cfg, tab = env.cfg, env.actions
    for a in range(N_ACTIONS):
        c = decode_action(a)
        assert tab.configs[a] == c
        assert tab.labels[a] == (c.quality.value, c.imu.value, c.mode.name)
        assert tab.is_local[a] is (c.mode is ExecutionMode.LOCAL)
        assert tab.power_w[a] == client_power(c, cfg.table, cfg.power)
        if tab.is_local[a]:
            assert tab.mtp_local_ms[a] == mtp_local(c, cfg.table)
            assert tab.v_local[a] == violation(mtp_local(c, cfg.table), cfg.tau_mtp_ms)
        else:
            assert tab.payload_offload_mbit[tab.offload_row[a]] == cfg.frame.payload_mbit(c.quality)
    assert [row >= 0 for row in tab.offload_row] == [not local for local in tab.is_local]
    assert tab.jitter_mean_ms == cfg.rtt.jitter_mean_ms()


@pytest.mark.parametrize("overrides", [{}, {"power": PowerParams(tau_frame_ms=25.0)},
                                       {"profile": stable_profile(100.0)}])
def test_action_table_holds_the_tick_offsets(overrides):
    # step slices the offsets: a prefix of the product is the product of the prefix
    tab = EnvConfig(**overrides).actions
    for k in range(tab.n_ticks + 1):
        assert np.array_equal(tab.tick_offsets_s[:k], np.arange(k) * tab.tick_s)


def _within(interval, v):
    """Whether v lies in a declared interval such as "(0, inf)" or "[0, 1]"."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    above = lo <= v if interval[0] == "[" else lo < v
    return above and (v <= hi if interval[-1] == "]" else v < hi)


# the fields that feed ActionTable's derived values, each at the in-range
# values of its edges; a pair of them may overflow where either alone does not
TABLE_FIELDS = ("power.tau_frame_ms", "decision_interval_s", "profile.levels_mbps",
                "frame.d_base_mbit", "tau_mtp_ms")
TABLE_EDITS = [(path, v) for path, interval, tp in _ranged_fields(EnvConfig)
               if path in TABLE_FIELDS or path.startswith("table.")
               for v in _edge_values(interval, tp) if _within(interval, v)]
TABLE_EDIT_PAIRS = [(a, b) for i, a in enumerate(TABLE_EDITS) for b in TABLE_EDITS[i + 1:] if a[0] != b[0]]


@settings(max_examples=300, deadline=None)
@given(pair=st.sampled_from(TABLE_EDIT_PAIRS))
def test_action_table_field_pairs_either_step_or_fail_at_construction(pair):
    data = to_jsonable(EnvConfig())
    for edit in pair:
        set_edge(data, *edit)
    try:
        cfg = from_jsonable(EnvConfig, data)
    except ValueError:
        return
    tab = cfg.actions
    assert np.isfinite(tab.tick_offsets_s).all()
    # a huge power may end the episode in its first interval, so each its own
    for local in (True, False):
        XrEnvironment(cfg, seed=0).step(tab.is_local.index(local))


# the horizon, the decision interval and the dwell, each at the in-range
# values of its declared edges, at its default and, for the first two, at one
# frame period and at MAX_INTERVAL_FRAMES of them, the edges of the rules
# between the three; a zero horizon lets any interval past the horizon rule
DWELL_FIELDS = ("horizon_s", "decision_interval_s", "profile.dwell_s")
_TICK_S = EnvConfig().actions.tick_s


def _dwell_field_edits(path):
    """Each (path, value) edit of one of DWELL_FIELDS that the property draws."""
    interval, tp = next((i, t) for f, i, t in _ranged_fields(EnvConfig) if f == path)
    values = [v for v in _edge_values(interval, tp) if _within(interval, v)]
    values.append(reduce(getattr, path.split("."), EnvConfig()))
    if path != "profile.dwell_s":
        values += [_TICK_S, MAX_INTERVAL_FRAMES * _TICK_S]
    return [(path, v) for v in dict.fromkeys(values)]


DWELL_TRIPLES = list(itertools.product(*map(_dwell_field_edits, DWELL_FIELDS)))


def _step_or_fail(triple):
    """"fail" if the config of a triple fails at construction with a
    ValueError, "done" if its episode is over at once, else "step" once a
    local and an offload step have each run from a fresh environment."""
    data = to_jsonable(EnvConfig())
    for edit in triple:
        set_edge(data, *edit)
    try:
        cfg = from_jsonable(EnvConfig, data)
    except ValueError:
        return "fail"
    if XrEnvironment(cfg, seed=0).done:
        assert cfg.horizon_s == 0.0
        return "done"
    for local in (True, False):
        out = XrEnvironment(cfg, seed=0).step(cfg.actions.is_local.index(local))
        assert math.isfinite(out.reward)
    return "step"


@settings(max_examples=100, deadline=None)
@given(triple=st.sampled_from(DWELL_TRIPLES))
def test_horizon_interval_dwell_triples_either_step_or_fail_at_construction(triple):
    assert _step_or_fail(triple) in ("fail", "done", "step")


# ---------------------------------------------------------------------------
# frame ledger
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    profile=st.sampled_from(["cycle", "stable"]),
    mbps=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
    capacity_wh=st.sampled_from([16.6, 0.002]),
    actions=st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=30),
    planned=st.booleans(),
    seed=st.integers(0, 2**16),
)
# a run that flushes the queue an offloaded step filled
@example(profile="stable", mbps=1.0, capacity_wh=16.6, actions=[5, 4, 4], planned=True, seed=0)
# a run whose one interval runs the charge out after its first frame
@example(profile="stable", mbps=1000.0, capacity_wh=0.002, actions=[1, 0, 0], planned=True, seed=0)
def test_frame_ledger_closes_every_step_and_every_run(profile, mbps, capacity_wh, actions, planned, seed):
    # the cycle's five levels at 2 s dwells, so a short run meets all of them;
    # the tiny battery runs out mid-interval within a few decisions; when
    # planned, a local action at an odd position is a run of up to two
    # intervals, which flushes what an offloaded step left queued
    prof = replace(cycle_profile(), dwell_s=2.0) if profile == "cycle" else stable_profile(mbps)
    env = make_env(seed=seed, profile=prof, capacity_wh=capacity_wh, horizon_s=float(len(actions)))
    # (captured, delivered, dropped, change in queue depth) of every interval
    ledger = []
    energy = []
    for i, a in enumerate(actions):
        if env.done:
            break
        depth0, dropped0 = env.queue.depth, env.queue.dropped
        if planned and i % 2 and env.actions.is_local[a]:
            out = env.run_local(a, env.t + 2.5)
            # each interval's frames end where the next interval starts
            cuts = np.searchsorted(out.t_capture, out.t[1:]).tolist()
            delivered = np.diff([0, *cuts, out.mtp_ms.size]).tolist()
            # a run empties the queue in its first interval, and never queues
            grew = [env.queue.depth - depth0] + [0] * (len(out.t) - 1)
            ledger += zip(out.frames_captured, delivered, out.frames_dropped, grew)
            energy += out.energy_j
            assert out.pending_censored == [0] * len(out.t)
            dropped = sum(out.frames_dropped)
        else:
            out = env.step(a)
            ledger.append((out.frames_captured, out.mtp_ms.size, out.frames_dropped, env.queue.depth - depth0))
            energy.append(out.energy_j)
            dropped = out.frames_dropped
        assert dropped == env.queue.dropped - dropped0
        assert out.mtp_ms.size == out.t_capture.size
        assert 0 <= env.queue.depth <= env.queue.max_depth
    # captured = delivered + overflow drops + flushed + change in queue depth
    for captured, delivered, dropped, grew in ledger:
        assert captured == delivered + dropped + grew
    captured, delivered, dropped, _ = map(sum, zip(*ledger))
    assert (captured, delivered, dropped) == (env.frames_captured, env.frames_delivered, env.queue.dropped)
    assert env.frames_captured == env.frames_delivered + env.queue.dropped + env.queue.depth
    assert math.fsum(energy) == pytest.approx(env.battery.energy_j, rel=1e-12)


# the profiles an offload interval meets: dwells it lies inside, a level too
# slow for one frame per tick, and dwells it straddles at one level
PRICED_PROFILES = {
    "cycle": cycle_profile(),
    "stable-1": stable_profile(1.0),
    "three-0.3s": BandwidthProfile(levels_mbps=(1000.0, 1.0, 100.0), dwell_s=0.3),
}


@settings(max_examples=80, deadline=None)
@given(
    profile=st.sampled_from(sorted(PRICED_PROFILES)),
    queue_max_depth=st.sampled_from([1, 20]),
    capacity_wh=st.sampled_from([16.6, 0.002]),
    actions=st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
# a full queue that a local interval flushes, then offload again
@example(profile="stable-1", queue_max_depth=20, capacity_wh=16.6, actions=[5, 5, 4, 5, 4, 5], seed=0)
@example(profile="three-0.3s", queue_max_depth=1, capacity_wh=16.6, actions=[5, 4, 5, 5], seed=0)
def test_every_live_offload_step_prices_a_frame(profile, queue_max_depth, capacity_wh, actions, seed):
    # the step's mean violation is over the frames it delivered and the ones
    # it captured that are still queued; its newest frame is one or the other
    env = make_env(seed=seed, profile=PRICED_PROFILES[profile], queue_max_depth=queue_max_depth,
                   capacity_wh=capacity_wh, horizon_s=float(len(actions)))
    for a in actions:
        if env.done:
            break
        out = env.step(a)
        if not env.actions.is_local[a]:
            assert out.mtp_ms.size + out.pending_censored >= 1
            assert math.isfinite(out.v_mean)
