"""Q-learning stack: network, gradients, optimizer, buffer, agent."""

import numpy as np
import pytest
from scipy import stats

from xredge.actions import N_ACTIONS
from xredge.dqn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    DqnAgent,
    DqnConfig,
    QNetwork,
    ReplayBuffer,
    loss_and_grads,
    td_targets,
)
from xredge.environment import OBS_DIM

# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


SIZES = (OBS_DIM, *DqnConfig().hidden, N_ACTIONS)


def test_default_network_parameter_count():
    net = QNetwork(SIZES, rng=np.random.default_rng(0))
    # 5*128+128 + 128*128+128 + 128*18+18
    assert net.theta.shape == (19602,)


def test_forward_shapes_and_dtype():
    net = QNetwork(SIZES, rng=np.random.default_rng(1))
    single = net.forward(np.zeros(5))
    batch = net.forward(np.zeros((7, 5)))
    assert single.shape == (1, 18)
    assert batch.shape == (7, 18)
    assert batch.dtype == np.float64


def test_forward_is_deterministic():
    net = QNetwork(SIZES, rng=np.random.default_rng(2))
    x = np.random.default_rng(3).uniform(0, 1, size=(4, 5))
    assert np.array_equal(net.forward(x), net.forward(x))


def test_init_respects_fan_in_bounds():
    net = QNetwork(sizes=(5, 128, 128, 18), rng=np.random.default_rng(4))
    for w, b in zip(net.weights, net.biases):
        bound = 1.0 / np.sqrt(w.shape[0])
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(b)) <= bound


def test_clone_and_copy_are_independent():
    net = QNetwork(sizes=(3, 8, 2), rng=np.random.default_rng(5))
    twin = net.clone()
    x = np.ones((2, 3))
    assert np.array_equal(net.forward(x), twin.forward(x))
    twin.weights[0][0, 0] += 1.0
    assert not np.array_equal(net.forward(x), twin.forward(x))

    other = QNetwork(sizes=(3, 8, 2), rng=np.random.default_rng(6))
    other.copy_from(net)
    assert np.array_equal(net.forward(x), other.forward(x))


def test_copy_from_rejects_shape_mismatch():
    a = QNetwork(sizes=(3, 8, 2), rng=np.random.default_rng(7))
    b = QNetwork(sizes=(3, 9, 2), rng=np.random.default_rng(8))
    with pytest.raises(ValueError):
        a.copy_from(b)


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    net = QNetwork(sizes=(4, 12, 6), rng=rng)
    n = 8
    states = rng.uniform(0, 1, size=(n, 4))
    actions = rng.integers(0, 6, size=n)
    targets = rng.normal(size=n)

    _, grad = loss_and_grads(net, states, actions, targets)
    assert grad.shape == net.theta.shape

    h = 1e-5
    worst = 0.0
    theta = net.theta
    for idx in range(theta.size):
        orig = theta[idx]
        theta[idx] = orig + h
        lp, _ = loss_and_grads(net, states, actions, targets)
        theta[idx] = orig - h
        lm, _ = loss_and_grads(net, states, actions, targets)
        theta[idx] = orig
        fd = (lp - lm) / (2 * h)
        if abs(fd) < 1e-7 and abs(grad[idx]) < 1e-7:
            continue   # dead ReLU path: both sides vanish
        rel = abs(fd - grad[idx]) / max(abs(fd), abs(grad[idx]), 1e-8)
        worst = max(worst, rel)
    assert worst < 1e-4


def test_loss_only_depends_on_taken_actions():
    rng = np.random.default_rng(11)
    net = QNetwork(sizes=(3, 10, 4), rng=rng)
    states = rng.uniform(size=(5, 3))
    actions = np.zeros(5, dtype=int)
    targets = net.forward(states)[np.arange(5), actions]
    loss, grad = loss_and_grads(net, states, actions, targets)
    assert loss == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(grad, 0.0)


# ---------------------------------------------------------------------------
# targets and optimizer
# ---------------------------------------------------------------------------


def test_td_targets_hand_values():
    r = np.array([1.0, 1.0, -0.5])
    nxt = np.array([2.0, 2.0, 4.0])
    done = np.array([0.0, 1.0, 0.0])
    out = td_targets(r, nxt, done, gamma=0.9)
    assert out[0] == pytest.approx(1.0 + 0.9 * 2.0)
    assert out[1] == pytest.approx(1.0)            # terminal cuts bootstrap
    assert out[2] == pytest.approx(-0.5 + 3.6)
    assert np.array_equal(td_targets(r, nxt, done, gamma=0.0), r)


def test_adam_minimizes_quadratic():
    x = np.array([5.0, -3.0])
    opt = Adam(x, lr=0.1)
    for _ in range(500):
        opt.step(2.0 * x)          # d/dx of x^2
    assert np.max(np.abs(x)) < 1e-3


@pytest.mark.parametrize("t", [355, 356, 357, 37411, 37412])
def test_adam_skipping_a_unit_bias_correction_is_exact(t):
    # 1 - 0.9**t rounds to exactly 1.0 from t = 356 on, and Adam then skips
    # that divide; 1 - 0.999**t does from t = 37412 on, and Adam divides by
    # it still; the step must equal the one with every divide written out
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS) == (0.9, 0.999, 1e-8)
    assert (1 - 0.9**t == 1.0) is (t >= 356)
    assert (1 - 0.999**t == 1.0) is (t >= 37412)
    rng = np.random.default_rng(t)
    theta, grad = rng.normal(size=40), rng.normal(size=40)
    opt = Adam(theta.copy(), lr=1e-3)
    opt.m[...] = rng.normal(size=40)
    opt.v[...] = rng.uniform(size=40)
    opt.t = t - 1
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, opt.lr, ADAM_EPS
    m = opt.m * b1 + (1 - b1) * grad
    v = opt.v * b2 + ((1 - b2) * grad) * grad
    want = theta - (lr * (m / (1 - b1**t))) / (np.sqrt(v / (1 - b2**t)) + eps)
    opt.step(grad)
    assert opt.t == t
    assert np.array_equal(opt.m, m)
    assert np.array_equal(opt.v, v)
    assert np.array_equal(opt.theta, want)


# ---------------------------------------------------------------------------
# schedule and buffer
# ---------------------------------------------------------------------------


def test_epsilon_decays_by_the_config():
    agent = DqnAgent(OBS_DIM, N_ACTIONS, DqnConfig(), seed=0)
    assert agent.epsilon == 1.0
    agent.decision_count = 600
    assert agent.epsilon == pytest.approx(0.22271148579206992)
    agent.decision_count = 10_000
    assert agent.epsilon == 0.05


def test_replay_buffer_ring_overwrite():
    buf = ReplayBuffer(capacity=3, obs_dim=1)
    for i in range(5):
        buf.push(np.array([float(i)]), i, float(i + 1), np.array([0.0]), False)
    assert len(buf) == 3
    # transition k sits in row k % capacity: the oldest two were overwritten
    assert buf.reward.tolist() == [4.0, 5.0, 3.0]
    assert buf.obs[:, 0].tolist() == [3.0, 4.0, 2.0]


@pytest.mark.parametrize("bad", [0.5, np.array([0.5]), np.zeros(4), np.zeros((1, 5))])
def test_replay_buffer_push_rejects_misshapen_obs(bad):
    # a scalar or a length-1 array would otherwise broadcast across the row
    buf = ReplayBuffer(capacity=4, obs_dim=5)
    with pytest.raises(ValueError, match=r"shape \(5,\)"):
        buf.push(bad, 0, 0.0, np.zeros(5), False)
    with pytest.raises(ValueError, match=r"shape \(5,\)"):
        buf.push(np.zeros(5), 0, 0.0, bad, False)
    assert len(buf) == 0 and buf.count == 0
    buf.push([0.1] * 5, 0, 0.0, np.zeros(5), False)
    assert buf.obs[0].tolist() == [0.1] * 5


def test_replay_buffer_sample_without_replacement():
    buf = ReplayBuffer(capacity=8, obs_dim=1)
    for i in range(8):
        buf.push(np.array([float(i)]), i, 0.0, np.array([0.0]), False)
    obs, actions, *_ = buf.sample(8, np.random.default_rng(0))
    assert sorted(actions.tolist()) == list(range(8))
    with pytest.raises(ValueError):
        buf.sample(9, np.random.default_rng(0))


def test_replay_buffer_sampling_is_roughly_uniform():
    buf = ReplayBuffer(capacity=10, obs_dim=1)
    for i in range(10):
        buf.push(np.array([0.0]), i, 0.0, np.array([0.0]), False)
    rng = np.random.default_rng(42)
    counts = np.zeros(10)
    for _ in range(2000):
        _, actions, *_ = buf.sample(3, rng)
        for a in actions:
            counts[a] += 1
    _, p = stats.chisquare(counts)
    assert p > 0.01


# ---------------------------------------------------------------------------
# agent
# ---------------------------------------------------------------------------


def small_cfg(**kw):
    """A small learner's settings, for a net of 2 inputs and 3 actions."""
    base = dict(hidden=(8,), batch_size=4, buffer_capacity=50, target_sync_every=5,
                eps0=0.0, eps_min=0.0)
    base.update(kw)
    return DqnConfig(**base)


@pytest.mark.parametrize("overrides", [
    dict(batch_size=0), dict(batch_size=51), dict(target_sync_every=0),
    dict(gamma=-0.1), dict(gamma=1.1),
    dict(eps_decay=0.0), dict(eps_decay=1.01), dict(eps_min=-0.1),
    dict(eps0=0.0, eps_min=0.05), dict(eps0=1.5, eps_min=0.05),
])
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        small_cfg(**overrides)


def test_select_action_greedy_when_epsilon_zero():
    agent = DqnAgent(2, 3, small_cfg(), seed=0)
    obs = np.array([0.3, 0.7])
    q = agent.q_values(obs)
    assert agent.select_action(obs) == int(np.argmax(q))


def test_select_action_explores_when_epsilon_one():
    agent = DqnAgent(2, 3, small_cfg(eps0=1.0, eps_min=1.0), seed=1)
    obs = np.zeros(2)
    seen = {agent.select_action(obs) for _ in range(200)}
    assert seen == {0, 1, 2}


def test_record_and_train_lifecycle():
    agent = DqnAgent(2, 3, small_cfg(), seed=2)
    obs = np.zeros(2)
    losses = []
    for i in range(10):
        loss = agent.record_and_train(obs, i % 3, 1.0, obs, False)
        losses.append(loss)
    # warm-up: no training until the buffer can fill a batch
    assert losses[:3] == [None, None, None]
    assert all(l is not None for l in losses[3:])
    assert agent.decision_count == 10


def test_target_sync_cadence():
    agent = DqnAgent(2, 3, small_cfg(batch_size=1, target_sync_every=4), seed=3)
    obs = np.array([0.4, 0.6])
    for i in range(3):
        agent.record_and_train(obs, 0, 5.0, obs, True)
    # online has trained away from target but no sync yet
    assert not np.array_equal(agent.online.weights[0], agent.target.weights[0])
    agent.record_and_train(obs, 0, 5.0, obs, True)     # decision 4: sync
    for w_on, w_tg in zip(agent.online.weights, agent.target.weights):
        assert np.array_equal(w_on, w_tg)


def test_agent_learns_single_transition():
    # one terminal transition with reward 2: Q(s, a) must approach 2
    agent = DqnAgent(2, 3, small_cfg(batch_size=1, lr=1e-2), seed=4)
    obs = np.array([1.0, 0.0])
    for _ in range(500):
        agent.record_and_train(obs, 1, 2.0, obs, True)
    assert agent.q_values(obs)[1] == pytest.approx(2.0, abs=0.05)


def test_epsilon_property_tracks_decisions():
    agent = DqnAgent(2, 2, DqnConfig(hidden=(4,)), seed=5)
    assert agent.epsilon == 1.0
    obs = np.zeros(2)
    for _ in range(10):
        agent.record_and_train(obs, 0, 0.0, obs, False)
    assert agent.epsilon == pytest.approx(0.9975**10)


def test_training_reuses_its_workspace_and_spares_returned_arrays():
    cfg = small_cfg(hidden=(16, 16), batch_size=6)
    agent = DqnAgent(2, 3, cfg, seed=8)
    stream = np.random.default_rng(9)
    for i in range(cfg.batch_size):
        agent.buffer.push(stream.uniform(size=2), i % 3, stream.normal(),
                          stream.uniform(size=2), False)
    x = stream.uniform(size=(cfg.batch_size, 2))
    handed = {
        "forward": agent.online.forward(x),
        "target forward": agent.target.forward(x),
        "q_values": agent.q_values(x[0]),
        "grad": loss_and_grads(agent.online, x, np.zeros(cfg.batch_size, dtype=int),
                               np.ones(cfg.batch_size))[1],
    }
    kept = {name: a.copy() for name, a in handed.items()}
    ws = agent.workspace
    arrays = workspace_arrays(ws)
    agent.train_step()
    theta, grad = agent.online.theta.copy(), ws.grad.copy()
    for _ in range(50):
        agent.train_step()
        agent.sync_target()
        # and later calls without a workspace hand out arrays of their own
        loss_and_grads(agent.online, x, np.ones(cfg.batch_size, dtype=int),
                       np.zeros(cfg.batch_size))
        agent.online.forward(x + 1.0)
    # the steps wrote their gradients into the workspace, not elsewhere
    assert not np.array_equal(agent.online.theta, theta)
    assert not np.array_equal(ws.grad, grad, equal_nan=True)
    for name, a in handed.items():
        assert np.array_equal(a, kept[name]), name
        assert not any(np.shares_memory(a, w) for w in arrays), name
    # nothing was reallocated: the same objects, the views still on ws.grad
    assert agent.workspace is ws
    assert all(a is b for a, b in zip(workspace_arrays(ws), arrays, strict=True))
    assert all(np.shares_memory(g, ws.grad) for g in (*ws.grad_w, *ws.grad_b))


def workspace_arrays(ws):
    return [ws.rows, ws.grad, *ws.grad_w, *ws.grad_b, *ws.outs, *ws.deltas, *ws.masks]
