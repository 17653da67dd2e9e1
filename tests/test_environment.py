"""Closed-loop environment: stepping, reward, observation, termination."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xredge.actions import N_ACTIONS, ExecutionMode, decode_action
from xredge.energy import PowerParams, client_power
from xredge.environment import (
    EnvConfig,
    RewardParams,
    SystemState,
    XrEnvironment,
    interval_reward,
    objective_value,
    observe,
)
from xredge.latency import mtp_local, violation
from xredge.network import cycle_profile, stable_profile

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


def test_reward_rejects_negative_violation():
    with pytest.raises(ValueError):
        interval_reward(-0.1, 10.0, 50.0, RewardParams())


def test_objective_value():
    assert objective_value(1200.0, [], 1.0) == 1200.0
    assert objective_value(1000.0, [0.5, 1.5], 2.0) == pytest.approx(996.0)


# ---------------------------------------------------------------------------
# observation
# ---------------------------------------------------------------------------


def test_observe_normalization_endpoints():
    cfg = EnvConfig()

    def obs_for(**kw):
        base = dict(soc=100.0, power_w=20.8, rtt_ms=5.0, bandwidth_mbps=1000.0,
                    mtp_ms=0.0, t=0.0)
        base.update(kw)
        return observe(SystemState(**base), cfg)

    full = obs_for()
    assert full.shape == (5,) and full.dtype == np.float64
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


def test_reset_state():
    env = make_env(seed=3)
    s = env.state
    assert s.soc == 100.0
    assert s.power_w == 0.5        # idle baseline before the first decision
    assert s.mtp_ms == 0.0
    assert s.t == 0.0
    assert s.bandwidth_mbps == 1000.0
    assert not env.done


def test_reset_is_deterministic():
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
    assert out.info["mean_v"] == 0.0
    assert out.info["energy_j"] == pytest.approx(20.8)
    assert out.state.power_w == pytest.approx(20.8)
    assert out.state.t == pytest.approx(1.0)
    soc_expected = 100.0 - 3.0 * 20.8 / (16.6 * 3600.0) * 100.0
    assert out.state.soc == pytest.approx(soc_expected)
    assert out.reward == pytest.approx(0.2 - 0.05 + 0.05 * soc_expected / 100.0)


def test_offload_starvation_is_penalized():
    # at 1 Mbps a full-quality frame needs 5.8 s of air time: nothing is
    # delivered in the first interval and the pending frames are censored in
    env = make_env(profile=stable_profile(1.0))
    out = env.step(A_OFFLOAD_FULL)
    assert out.info["frames_delivered"] == 0
    assert out.info["pending_censored"] == 20
    assert out.info["queue_depth"] == 20
    assert out.info["mean_v"] > 1.0
    assert out.reward < -1.0


def test_queue_saturates_at_max_depth():
    env = make_env(profile=stable_profile(1.0))
    for _ in range(5):
        out = env.step(A_OFFLOAD_FULL)
    assert out.info["queue_depth"] == 20
    assert env.queue.dropped > 0


def test_local_switch_flushes_queue():
    env = make_env(profile=stable_profile(1.0))
    env.step(A_OFFLOAD_FULL)
    assert env.queue.depth == 20
    out = env.step(A_LOCAL_FULL)
    assert env.queue.depth == 0
    assert out.info["frames_dropped"] >= 20


def test_battery_depletion_ends_episode_early():
    env = make_env(profile=stable_profile(1000.0), horizon_s=1200.0)
    while not env.done:
        out = env.step(A_LOCAL_FULL)
    assert env.battery.depleted
    assert out.info["depleted"]
    # constant 20.8 W at k=3 empties 16.6 Wh in 957.69 s, inside the horizon
    assert env.survived_s == pytest.approx(957.6923, abs=1e-3)
    assert env.survived_s < 1200.0
    with pytest.raises(RuntimeError):
        env.step(A_LOCAL_FULL)


def test_horizon_termination():
    env = make_env(profile=stable_profile(1000.0), horizon_s=3.0)
    steps = 0
    while not env.done:
        env.step(A_OFFLOAD_FULL)
        steps += 1
    assert steps == 3
    assert env.survived_s == pytest.approx(3.0)
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
    out1 = env.step(A_OFFLOAD_FULL)      # nothing delivered
    assert out1.state.mtp_ms == 0.0      # unchanged from reset
    out2 = env.step(A_LOCAL_FULL)
    assert out2.state.mtp_ms == pytest.approx(30.0)


def test_decision_interval_must_align_with_frame_period():
    with pytest.raises(ValueError):
        XrEnvironment(EnvConfig(decision_interval_s=0.07))
    # an exact multiple is fine
    XrEnvironment(EnvConfig(decision_interval_s=0.05, horizon_s=1.0))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("overrides", [
    dict(horizon_s=-5.0), dict(horizon_s=NAN), dict(horizon_s=INF),
    dict(tau_mtp_ms=0.0), dict(tau_mtp_ms=NAN), dict(rtt_max_ms=0.0), dict(mtp_max_ms=0.0), dict(queue_max_depth=0),
    dict(capacity_wh=NAN), dict(capacity_wh=INF), dict(soc0=NAN), dict(soc0=101.0),
    dict(drain_factor=0.0), dict(drain_factor=INF),
    dict(decision_interval_s=INF), dict(decision_interval_s=NAN), dict(decision_interval_s=0.0),
    dict(decision_interval_s=1e308),
])
def test_env_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        EnvConfig(**overrides)


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
        assert tab.payload_mbit[a] == cfg.frame.payload_mbit(c.quality)
        if tab.is_local[a]:
            assert tab.mtp_local_ms[a] == mtp_local(c, cfg.table)
            assert tab.v_local[a] == violation(mtp_local(c, cfg.table), cfg.tau_mtp_ms)
    assert [row >= 0 for row in tab.offload_row] == [not local for local in tab.is_local]
    assert tab.jitter_mean_ms == cfg.rtt.jitter_mean_ms()


# ---------------------------------------------------------------------------
# frame ledger
# ---------------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    profile=st.sampled_from(["cycle", "stable"]),
    mbps=st.sampled_from([1.0, 10.0, 100.0, 1000.0]),
    capacity_wh=st.sampled_from([16.6, 0.002]),
    actions=st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=30),
    seed=st.integers(0, 2**16),
)
def test_frame_ledger_closes_every_step_and_every_run(profile, mbps, capacity_wh, actions, seed):
    # the cycle's five levels at 2 s dwells, so a short run meets all of them;
    # the tiny battery runs out mid-interval within a few decisions
    prof = replace(cycle_profile(), dwell_s=2.0) if profile == "cycle" else stable_profile(mbps)
    env = make_env(seed=seed, profile=prof, capacity_wh=capacity_wh, horizon_s=float(len(actions)))
    for a in actions:
        if env.done:
            break
        depth0, dropped0 = env.queue.depth, env.queue.dropped
        out = env.step(a)
        info = out.info
        # captured = delivered + overflow drops + flushed + change in queue depth
        assert info["frames_captured"] == (
            info["frames_delivered"] + info["frames_dropped"] + info["queue_depth"] - depth0
        )
        assert info["frames_dropped"] == env.queue.dropped - dropped0
        assert info["frames_delivered"] == out.mtp_ms.size == out.t_capture.size
        assert info["queue_depth"] == env.queue.depth
    assert env.frames_captured == env.frames_delivered + env.queue.dropped + env.queue.depth
