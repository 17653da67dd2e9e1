"""The vectorised greedy predictor against the per-action definition it replaced.

`reference_violation` is the frame-by-frame loop that priced one action at a
time; `predicted_epoch` prices all 18 at once. The arithmetic is meant to be
the same operation for operation, so the properties here demand equality,
not closeness, for every action's violation and reward and for the argmax.
The last test holds the prediction to `XrEnvironment.step` itself, where the
two models describe the same epoch.
"""

import gc
import math
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xredge.actions import N_ACTIONS, ExecutionMode, QualityLevel, decode_action, quality_scale
from xredge.energy import PowerParams, client_power
from xredge.environment import (EnvConfig, RewardParams, XrEnvironment, battery_term,
                                compliance_term, interval_reward, power_term)
from xredge.harness import default_scenario
from xredge.latency import ProcTimeTable, UplinkQueue, mtp_local, violation
from xredge.network import RttModel, cycle_profile, stable_profile
from xredge.policies import _EMPTY_QUEUE_EXCESS, greedy_select, predicted_epoch


def reference_frames(action_id, env):
    """Each frame's deterministic MTP and its slack below the threshold,
    one frame at a time, for an offload action."""
    cfg = env.cfg
    exec_cfg = decode_action(action_id)
    tau = cfg.tau_mtp_ms
    n_frames = cfg.actions.n_ticks
    bw = env.state.bandwidth_mbps
    phi = quality_scale(exec_cfg.quality)
    serial_ms = cfg.frame.payload_mbit(exec_cfg.quality) / bw * 1000.0
    fixed_ms = (
        cfg.rtt.base_ms
        + cfg.table.t_server_ms * phi
        + cfg.table.t_decode_ms
        + cfg.table.t0_encode_ms * phi
    )
    backlog_ms = env.queue.backlog_mbit / bw * 1000.0
    frame_period_ms = cfg.power.tau_frame_ms

    finish_ms = backlog_ms  # transmission-finish time of the previous frame
    for i in range(n_frames):
        arrival_ms = i * frame_period_ms
        start_ms = max(arrival_ms, finish_ms)
        finish_ms = start_ms + serial_ms
        det_mtp = (finish_ms - arrival_ms) + fixed_ms
        yield det_mtp, tau - det_mtp


def reference_violation(action_id, env):
    """Mean violation of one epoch under one action, one frame at a time."""
    cfg = env.cfg
    exec_cfg = decode_action(action_id)
    tau = cfg.tau_mtp_ms

    if exec_cfg.mode is ExecutionMode.LOCAL:
        return violation(mtp_local(exec_cfg, cfg.table), tau)

    total_v = 0.0
    for det_mtp, slack in reference_frames(action_id, env):
        if slack <= 0.0:
            ev = (det_mtp + cfg.rtt.jitter_mean_ms() - tau) / tau
        else:
            ev = cfg.rtt.jitter_excess_mean_ms(slack) / tau
        total_v += ev
    return total_v / cfg.actions.n_ticks


def reference_reward(action_id, env):
    power = client_power(decode_action(action_id), env.cfg.table, env.cfg.power)
    mean_v = reference_violation(action_id, env)
    return interval_reward(mean_v, power, env.state.soc, env.cfg.reward)


def reference_greedy(env):
    best_id, best_r = 0, -np.inf
    for a in range(N_ACTIONS):
        r = reference_reward(a, env)
        if r > best_r:
            best_id, best_r = a, r
    return best_id


def assert_exact(env):
    v, r = predicted_epoch(env)
    assert v == [reference_violation(a, env) for a in range(N_ACTIONS)]
    assert r == [reference_reward(a, env) for a in range(N_ACTIONS)]
    chosen = greedy_select(env)
    assert type(chosen) is int
    assert chosen == reference_greedy(env)


CONFIGS = {
    "default": EnvConfig(),
    "sigma-0": EnvConfig(rtt=RttModel(sigma=0.0)),
    "jitter-0": EnvConfig(rtt=RttModel(jitter_scale_ms=0.0)),
    "sigma-0.5": EnvConfig(rtt=RttModel(sigma=0.5)),
    "tau-20": EnvConfig(tau_mtp_ms=20.0),
    "tau-45": EnvConfig(tau_mtp_ms=45.0),
    "depth-1": EnvConfig(queue_max_depth=1),
    "frame-25ms": EnvConfig(power=PowerParams(tau_frame_ms=25.0), decision_interval_s=1.0),
    # k*T is inexact here, so rounding can make the link idle and busy again
    "frame-30hz": EnvConfig(power=PowerParams(tau_frame_ms=1000.0 / 30.0)),
    # under the default table the offload terms sum alike in any order
    "uneven-table": EnvConfig(table=ProcTimeTable(t0_encode_ms=10.1, t_server_ms=8.3, t_decode_ms=0.3)),
}

queued = st.tuples(
    st.sampled_from(list(QualityLevel)),
    st.floats(0.0, 1.0, exclude_min=True),   # share of the payload still to send
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(CONFIGS)),
    bw=st.floats(0.5, 1e5),
    queue=st.lists(queued, max_size=20),
    soc=st.floats(0.0, 100.0),
)
def test_vectorised_prediction_equals_per_action_loop(name, bw, queue, soc):
    env = XrEnvironment(CONFIGS[name], seed=0)
    env.state = replace(env.state, bandwidth_mbps=bw, soc=soc)
    # up to 20 frames whatever the config's depth: only the backlog is read
    env.queue = UplinkQueue(max_depth=20)
    for j, (q, share) in enumerate(queue):
        row = env.actions.offload_qualities.index(q)
        env.queue.enqueue(-0.05 * (len(queue) - j), row, env.cfg.frame.payload_mbit(q) * share)
    assert_exact(env)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["default", "sigma-0.5", "depth-1", "frame-25ms", "frame-30hz"]),
    actions=st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, max_size=40),
)
def test_prediction_exact_along_cycle_trajectories(name, actions):
    # one decision per dwell level: 60 s dwells squeezed to 1 s so the
    # trajectory crosses every bandwidth of the cycle
    cfg = replace(CONFIGS[name], profile=replace(cycle_profile(), dwell_s=1.0),
                  horizon_s=float(len(actions)))
    env = XrEnvironment(cfg, seed=3)
    for a in actions:
        assert_exact(env)
        env.step(a)


@pytest.mark.parametrize("frame_ms", [50.0, 1000.0 / 30.0])
@pytest.mark.parametrize("quality", list(QualityLevel))
@pytest.mark.parametrize("ulps", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("depth", [0, 1, 3, 20])
def test_prediction_exact_where_service_time_meets_frame_period(frame_ms, quality, ulps, depth):
    # at bw = 1000 * payload / T the serialization time is within ulps of the
    # frame period T, where rounding alone decides whether the link idles;
    # at T = 1000/30 ms it idles, works and idles again within one epoch
    cfg = EnvConfig(profile=stable_profile(1.0), power=PowerParams(tau_frame_ms=frame_ms))
    env = XrEnvironment(cfg, seed=0)
    payload = cfg.frame.payload_mbit(quality)
    bw = payload / frame_ms * 1000.0
    for _ in range(abs(ulps)):
        bw = np.nextafter(bw, np.inf if ulps > 0 else -np.inf)
    env.state = replace(env.state, bandwidth_mbps=float(bw))
    for _ in range(depth):
        env.queue.enqueue(0.0, env.actions.offload_qualities.index(quality), payload * 0.37)
    assert_exact(env)


def assert_leaves_env_alone(env):
    """The predictor leaves every attribute of `env` the same object, and in
    the same state, its action table included: the pickle is unchanged, so
    nothing fills a cache in place. A repeated call returns equal lists."""
    attrs, state = dict(vars(env)), pickle.dumps(env)
    first = predicted_epoch(env)
    assert vars(env).keys() == attrs.keys()
    assert all(vars(env)[name] is value for name, value in attrs.items())
    assert pickle.dumps(env) == state
    assert predicted_epoch(env) == first


def test_prediction_keeps_no_state_over_a_greedy_episode_or_a_backlog():
    # greedy stays local on the cycle, so the queue is empty at every decision;
    # a twin that takes the same steps without a prediction ends in the same state
    cfg = default_scenario("greedy", "cycle").env
    env, twin = XrEnvironment(cfg, seed=1), XrEnvironment(cfg, seed=1)
    while not env.done:
        action = greedy_select(env)
        env.step(action)
        twin.step(action)
    assert pickle.dumps(env) == pickle.dumps(twin)
    assert_leaves_env_alone(env)

    # a short backlog at the top level leaves the early frames some slack
    env.state = replace(env.state, bandwidth_mbps=1000.0)
    row = env.actions.offload_qualities.index(QualityLevel.HIGH)
    env.queue.enqueue(env.t - 0.05, row, env.cfg.frame.payload_mbit(QualityLevel.HIGH) * 0.3)
    assert_exact(env)
    assert_leaves_env_alone(env)


@pytest.mark.parametrize("mbps, any_slack, all_slack", [
    (1000.0, True, True),     # every frame of every quality has slack before jitter
    (100.0, True, False),     # only the lowest quality's frames have
    (1.0, False, False),      # no frame has
])
def test_prediction_exact_on_each_pricing_branch(mbps, any_slack, all_slack):
    env = XrEnvironment(EnvConfig(profile=stable_profile(mbps)), seed=0)
    offload = [a for a in range(N_ACTIONS) if not env.actions.is_local[a]]

    def assert_branch():
        positive = [slack > 0.0 for a in offload for _, slack in reference_frames(a, env)]
        assert (any(positive), all(positive)) == (any_slack, all_slack)

    # the first prediction of a fresh environment already leaves it alone
    assert_leaves_env_alone(env)
    assert_branch()
    assert_exact(env)
    # a backlog too short to change the branch
    row = env.actions.offload_qualities.index(QualityLevel.HIGH)
    env.queue.enqueue(-0.05, row, env.cfg.frame.payload_mbit(QualityLevel.HIGH) * 1e-3)
    assert_leaves_env_alone(env)
    assert_branch()
    assert_exact(env)


finite = st.floats(-1e3, 1e3)


@settings(max_examples=100, deadline=None)
@given(
    params=st.builds(RewardParams, bonus=finite, alpha_power=finite, beta_battery=finite,
                     lam=finite, p_max_w=st.floats(1e-3, 1e3)),
    mean_v=st.one_of(st.just(0.0), st.floats(0.0, 1e3)),
    power_w=st.floats(0.0, 30.0),
    soc=st.floats(0.0, 100.0),
)
def test_reward_is_the_sum_of_its_terms(params, mean_v, power_w, soc):
    r = interval_reward(mean_v, power_w, soc, params)
    assert r == (compliance_term(mean_v, params) + power_term(power_w, params)) + battery_term(soc, params)
    # the terms as the epoch reward first defined them
    r_mtp = params.bonus if mean_v == 0.0 else -params.lam * mean_v
    assert r == r_mtp + -params.alpha_power * power_w / params.p_max_w + params.beta_battery * soc / 100.0
    tab = EnvConfig(reward=params).actions
    assert tab.power_term == tuple(power_term(p, params) for p in tab.power_w)


@pytest.mark.parametrize("tau", [30.0, 20.0])
@pytest.mark.parametrize("table", ["default", "uneven-table"])
@pytest.mark.parametrize("mbps", [1000.0, 500.0, 200.0, 120.0])
def test_prediction_equals_the_simulated_epoch_where_the_models_coincide(mbps, table, tau):
    # without RTT jitter, and at a bandwidth where every frame leaves within
    # its own tick, the predictor and the simulator price the same frames;
    # they add in different orders, so the two agree to rounding, not bits
    cfg = EnvConfig(profile=stable_profile(mbps), rtt=RttModel(jitter_scale_ms=0.0),
                    table=CONFIGS[table].table, tau_mtp_ms=tau)
    predicted = predicted_epoch(XrEnvironment(cfg, seed=0))[0]
    for a in range(N_ACTIONS):
        simulated = XrEnvironment(cfg, seed=0).step(a).v_mean
        assert math.isclose(predicted[a], simulated, rel_tol=1e-12), (a, predicted[a], simulated)


def count_excess_calls(monkeypatch):
    """The slacks that `RttModel.jitter_excess_mean_ms` prices from here on, in call order."""
    calls = []
    real = RttModel.jitter_excess_mean_ms

    def counted(self, threshold_ms):
        calls.append(threshold_ms)
        return real(self, threshold_ms)

    monkeypatch.setattr(RttModel, "jitter_excess_mean_ms", counted)
    return calls


def test_an_empty_queue_prices_each_slack_once_per_action_table(monkeypatch):
    # a config of its own, so that its table's memo starts empty
    cfg = replace(default_scenario("greedy", "cycle").env)
    calls = count_excess_calls(monkeypatch)
    env = XrEnvironment(cfg, seed=1)
    while not env.done:
        assert env.queue.depth == 0
        env.step(greedy_select(env))
    memo = _EMPTY_QUEUE_EXCESS[cfg.actions]
    # a level, a quality and a frame fix each slack
    assert 0 < len(memo) <= len(cfg.profile.levels_mbps) * 3 * cfg.actions.n_ticks
    assert sorted(calls) == sorted(memo)
    assert all(term == cfg.rtt.jitter_excess_mean_ms(slack) / cfg.tau_mtp_ms for slack, term in memo.items())


def test_a_backlogged_prediction_adds_no_entry(monkeypatch):
    cfg = EnvConfig(profile=stable_profile(1000.0))
    env = XrEnvironment(cfg, seed=0)
    predicted_epoch(env)
    memo = dict(_EMPTY_QUEUE_EXCESS[cfg.actions])
    # the first prediction of another config is backlogged
    fresh = EnvConfig(profile=stable_profile(1000.0))
    backlogged = XrEnvironment(fresh, seed=0)
    for e in (env, backlogged):
        row = e.actions.offload_qualities.index(QualityLevel.HIGH)
        e.queue.enqueue(-0.05, row, e.cfg.frame.payload_mbit(QualityLevel.HIGH) * 0.3)
    calls = count_excess_calls(monkeypatch)
    for e in (env, backlogged):
        predicted_epoch(e)
    # the backlogs priced slacks, and kept none of them
    assert calls
    assert _EMPTY_QUEUE_EXCESS[cfg.actions] == memo
    assert fresh.actions not in _EMPTY_QUEUE_EXCESS
    assert_exact(backlogged)


def test_two_configs_keep_separate_memos():
    # two equal configs and one whose threshold moves every slack
    cfgs = [EnvConfig(profile=stable_profile(1000.0)), EnvConfig(profile=stable_profile(1000.0)),
            EnvConfig(profile=stable_profile(1000.0), tau_mtp_ms=45.0)]
    for cfg in cfgs:
        assert_exact(XrEnvironment(cfg, seed=0))
    memos = [_EMPTY_QUEUE_EXCESS[cfg.actions] for cfg in cfgs]
    assert len({id(memo) for memo in memos}) == 3
    assert memos[0] == memos[1] != memos[2]
    for cfg, memo in zip(cfgs, memos):
        assert memo
        assert all(term == cfg.rtt.jitter_excess_mean_ms(slack) / cfg.tau_mtp_ms for slack, term in memo.items())


def test_a_dropped_configs_memo_goes_with_it():
    cfg = EnvConfig(profile=stable_profile(1000.0))
    env = XrEnvironment(cfg, seed=0)
    predicted_epoch(env)
    table = weakref.ref(cfg.actions)
    assert table() in _EMPTY_QUEUE_EXCESS
    held = len(_EMPTY_QUEUE_EXCESS)
    del cfg, env
    gc.collect()
    assert table() is None
    assert len(_EMPTY_QUEUE_EXCESS) < held
