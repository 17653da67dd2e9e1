"""Controllers: static, threshold, model-predictive greedy, learned."""

import numpy as np
import pytest

from xredge.dqn import DqnConfig
from xredge.environment import EnvConfig, XrEnvironment, interval_reward
from xredge.network import RttModel, stable_profile
from xredge.policies import (
    ACTION_LOCAL_FULL,
    ACTION_OFFLOAD_FULL,
    GreedyPolicy,
    RlPolicy,
    ThresholdPolicy,
    greedy_select,
    make_policy,
    predicted_epoch,
    threshold_select,
)


def make_env(mbps=1000.0, seed=0, **overrides):
    cfg = EnvConfig(profile=stable_profile(mbps), **overrides)
    return XrEnvironment(cfg, seed=seed)


# ---------------------------------------------------------------------------
# static and threshold
# ---------------------------------------------------------------------------


def test_static_policies_pick_full_fidelity_actions():
    env = make_env()
    assert make_policy("local").select(env) == ACTION_LOCAL_FULL == 4
    assert make_policy("offload").select(env) == ACTION_OFFLOAD_FULL == 5


def test_threshold_select_boundary():
    assert threshold_select(100.0, 15.0) == ACTION_OFFLOAD_FULL
    assert threshold_select(15.0001, 15.0) == ACTION_OFFLOAD_FULL
    assert threshold_select(15.0, 15.0) == ACTION_LOCAL_FULL   # strict inequality
    assert threshold_select(10.0, 15.0) == ACTION_LOCAL_FULL


def test_threshold_policy_reads_env_bandwidth():
    assert ThresholdPolicy().select(make_env(1000.0)) == ACTION_OFFLOAD_FULL
    assert ThresholdPolicy().select(make_env(10.0)) == ACTION_LOCAL_FULL
    assert ThresholdPolicy(threshold_mbps=5.0).select(make_env(10.0)) == ACTION_OFFLOAD_FULL


# ---------------------------------------------------------------------------
# one-epoch predictions
# ---------------------------------------------------------------------------


def test_predicted_violation_local_is_exact():
    env = make_env()
    # full local pipeline lands exactly on the threshold: zero violation
    assert predicted_epoch(env, include_queue=True)[0][4] == 0.0
    assert predicted_epoch(env, include_queue=True)[0][12] == 0.0


def test_predicted_violation_offload_fast_link():
    env = make_env(1000.0)
    # deterministic part: 5.8 ms serialization + 24 ms fixed = 29.8 ms,
    # leaving 0.2 ms of slack that only RTT jitter can breach
    expected = env.cfg.rtt.jitter_excess_mean_ms(0.2) / 30.0
    assert predicted_epoch(env, include_queue=True)[0][5] == pytest.approx(expected)
    assert 0.0 < predicted_epoch(env, include_queue=True)[0][5] < 0.01


def test_predicted_violation_offload_starved_link():
    env = make_env(1.0)
    # 5.8 s of air time per frame versus a 50 ms period: the queue model
    # predicts blowup
    assert predicted_epoch(env, include_queue=True)[0][5] > 10.0


def test_predicted_violation_accounts_for_backlog():
    env = make_env(1.0)
    env.step(ACTION_OFFLOAD_FULL)           # leave 20 frames queued
    with_queue = predicted_epoch(env, include_queue=True)[0][5]
    without = predicted_epoch(env, include_queue=False)[0][5]
    assert with_queue > without


def test_predicted_reward_identity():
    env = make_env(1000.0)
    for action in (4, 5, 12, 17):
        v = predicted_epoch(env, include_queue=True)[0][action]
        from xredge.actions import decode_action
        from xredge.energy import client_power
        p = client_power(decode_action(action), env.cfg.table, env.cfg.power)
        assert predicted_epoch(env, include_queue=True)[1][action] == pytest.approx(
            interval_reward(v, p, env.state.soc, env.cfg.reward)
        )


# ---------------------------------------------------------------------------
# greedy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mbps", [1000.0, 100.0, 1.0])
def test_greedy_degenerates_to_cheapest_compliant_action(mbps):
    # the one-epoch optimum is always the low-everything local action: it is
    # predicted compliant (earning the bonus) at the lowest power, while any
    # offload action carries a nonzero predicted jitter violation
    env = make_env(mbps)
    assert greedy_select(env, include_queue=True) == 12


def test_greedy_policy_objects():
    env = make_env()
    assert GreedyPolicy().select(env) == 12
    assert GreedyPolicy(include_queue=False).select(env) == 12


# ---------------------------------------------------------------------------
# learned policy plumbing
# ---------------------------------------------------------------------------


def small_dqn_cfg():
    return DqnConfig(hidden=(16,), batch_size=4, buffer_capacity=100,
                     target_sync_every=10)


def test_rl_policy_closed_loop():
    env = make_env(seed=1, horizon_s=12.0)
    pol = RlPolicy(small_dqn_cfg(), seed=1)
    while not env.done:
        action = pol.select(env)
        assert 0 <= action < 18
        out = env.step(action)
        pol.observe_outcome(out, env)
    assert pol.agent.decision_count == 12
    assert pol.last_loss is not None           # trained past warm-up
    assert pol.epsilon == pytest.approx(0.9975**12)


def test_rl_policy_requires_select_before_outcome():
    env = make_env(seed=2, horizon_s=5.0)
    pol = RlPolicy(small_dqn_cfg(), seed=2)
    out = env.step(4)
    with pytest.raises(RuntimeError):
        pol.observe_outcome(out, env)


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------


def test_make_policy_kinds():
    assert make_policy("local").action_id == ACTION_LOCAL_FULL
    assert make_policy("offload").action_id == ACTION_OFFLOAD_FULL
    assert make_policy("greedy").include_queue is True
    assert make_policy("greedy-noqueue").include_queue is False
    assert make_policy("threshold").threshold_mbps == 15.0
    assert isinstance(make_policy("rl", seed=3), RlPolicy)
    assert make_policy("LOCAL").action_id == ACTION_LOCAL_FULL    # case-insensitive
    with pytest.raises(ValueError):
        make_policy("dagger")


def test_greedy_prices_offload_jitter_under_a_light_tail():
    # with sigma 0.5 the low-quality offload (action 1) keeps 18.05 ms of
    # slack, so its jitter exceedance is tiny but not zero: offloading can
    # never be predicted fully compliant, and the cheapest local action wins
    env = make_env(1000.0, rtt=RttModel(sigma=0.5))
    assert 0.0 < predicted_epoch(env, include_queue=True)[0][1] < 1e-20
    assert greedy_select(env, include_queue=True) == 12
