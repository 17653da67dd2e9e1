"""The flat-vector learner against the per-tensor learner it replaced.

`RefAgent` is the DQN as it was written before the parameters moved into one
vector: a list of weight and bias arrays per network, gradients returned as a
list, Adam looping over per-tensor moments, and a replay buffer of tuples
that `sample` stacks again on every call. The arithmetic is meant to be the
same operation for operation, so these tests demand equality, not closeness,
of the parameters, moments, losses and actions at every decision.
"""

import numpy as np
import pytest

from xredge.dqn import DqnAgent, DqnConfig, td_targets


class RefNet:
    def __init__(self, sizes, rng):
        self.weights, self.biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def params(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def flat(self):
        return np.concatenate([p.ravel() for p in self.params])

    def forward(self, x):
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.maximum(z, 0.0)
        return a

    def clone(self):
        dup = RefNet.__new__(RefNet)
        dup.copy_from(self)
        return dup

    def copy_from(self, other):
        self.weights = [w.copy() for w in other.weights]
        self.biases = [b.copy() for b in other.biases]


def ref_loss_and_grads(net, states, actions, targets):
    x = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    last = len(net.weights) - 1
    pre, acts, a = [], [x], x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        if i != last:
            acts.append(a)
    q_all = pre[-1]
    err = q_all[np.arange(n), actions] - targets
    loss = float(np.mean(err**2))
    dz = np.zeros_like(q_all)
    dz[np.arange(n), actions] = 2.0 * err / n
    grads_w, grads_b = [None] * (last + 1), [None] * (last + 1)
    for i in range(last, -1, -1):
        grads_w[i] = acts[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ net.weights[i].T) * (pre[i - 1] > 0.0)
    grads = []
    for gw, gb in zip(grads_w, grads_b):
        grads.extend((gw, gb))
    return loss, grads


class RefAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RefReplayBuffer:
    def __init__(self, capacity):
        self.capacity = capacity
        self.data = []
        self.pos = 0

    def __len__(self):
        return len(self.data)

    def push(self, obs, action, reward, next_obs, done):
        item = (np.asarray(obs, dtype=np.float64), int(action), float(reward),
                np.asarray(next_obs, dtype=np.float64), bool(done))
        if len(self.data) < self.capacity:
            self.data.append(item)
        else:
            self.data[self.pos] = item
            self.pos = (self.pos + 1) % self.capacity

    def sample(self, batch_size, rng):
        idx = rng.choice(len(self.data), size=batch_size, replace=False)
        obs = np.stack([self.data[i][0] for i in idx])
        actions = np.array([self.data[i][1] for i in idx], dtype=np.int64)
        rewards = np.array([self.data[i][2] for i in idx], dtype=np.float64)
        next_obs = np.stack([self.data[i][3] for i in idx])
        dones = np.array([self.data[i][4] for i in idx], dtype=np.float64)
        return obs, actions, rewards, next_obs, dones


class RefAgent:
    def __init__(self, obs_dim, n_actions, cfg, seed):
        self.cfg = cfg
        self.n_actions = n_actions
        self.rng = np.random.default_rng(seed)
        self.online = RefNet((obs_dim, *cfg.hidden, n_actions), self.rng)
        self.target = self.online.clone()
        self.optimizer = RefAdam(self.online.params, lr=cfg.lr)
        self.buffer = RefReplayBuffer(cfg.buffer_capacity)
        self.decision_count = 0

    def select_action(self, obs):
        cfg = self.cfg
        if self.rng.random() < max(cfg.eps_min, cfg.eps0 * cfg.eps_decay**self.decision_count):
            return int(self.rng.integers(self.n_actions))
        return int(np.argmax(self.online.forward(obs)[0]))

    def record_and_train(self, obs, action, reward, next_obs, done):
        self.buffer.push(obs, action, reward, next_obs, done)
        loss = None
        if len(self.buffer) >= self.cfg.batch_size:
            obs_b, act_b, rew_b, next_b, done_b = self.buffer.sample(self.cfg.batch_size, self.rng)
            max_next_q = self.target.forward(next_b).max(axis=1)
            y = td_targets(rew_b, max_next_q, done_b, self.cfg.gamma)
            loss, grads = ref_loss_and_grads(self.online, obs_b, act_b, y)
            self.optimizer.step(grads)
        self.decision_count += 1
        if self.decision_count % self.cfg.target_sync_every == 0:
            self.target.copy_from(self.online)
        return loss


def flat(arrays):
    return np.concatenate([a.ravel() for a in arrays])


def assert_shares_theta(agent):
    """Every layer view and Adam's vector must alias the network's theta."""
    for net in (agent.online, agent.target):
        for p in (*net.weights, *net.biases):
            assert np.shares_memory(p, net.theta)
    assert agent.optimizer.theta is agent.online.theta
    assert not np.shares_memory(agent.online.theta, agent.target.theta)


@pytest.mark.parametrize("obs_dim, n_actions, cfg", [
    # default 5-128-128-18 network; 420 decisions wrap the 40-slot ring, sync
    # 8 times and take Adam past t = 356, where 1 - 0.9**t rounds to 1.0
    (5, 18, DqnConfig(buffer_capacity=40, target_sync_every=50)),
    # a deeper net and a batch as large as the ring
    (3, 4, DqnConfig(hidden=(16, 8, 8), batch_size=12, buffer_capacity=12, target_sync_every=7,
                     gamma=0.9, lr=1e-2, eps_decay=0.99)),
    # one-row batches, so every workspace buffer is a single row
    (4, 6, DqnConfig(hidden=(10,), batch_size=1, buffer_capacity=30, target_sync_every=11,
                     lr=1e-2, eps_decay=0.99)),
])
def test_flat_learner_matches_per_tensor_learner(obs_dim, n_actions, cfg):
    agent, ref = DqnAgent(obs_dim, n_actions, cfg, seed=3), RefAgent(obs_dim, n_actions, cfg, seed=3)
    assert_shares_theta(agent)
    stream = np.random.default_rng(11)
    obs = stream.uniform(size=obs_dim)
    syncs = 0
    for _ in range(420):
        action = agent.select_action(obs)
        assert action == ref.select_action(obs)
        next_obs = stream.uniform(size=obs_dim)
        reward = stream.normal()
        done = stream.random() < 0.1
        loss = agent.record_and_train(obs, action, reward, next_obs, done)
        assert loss == ref.record_and_train(obs, action, reward, next_obs, done)
        assert np.array_equal(agent.online.theta, ref.online.flat())
        assert np.array_equal(agent.target.theta, ref.target.flat())
        assert np.array_equal(agent.optimizer.m, flat(ref.optimizer.m))
        assert np.array_equal(agent.optimizer.v, flat(ref.optimizer.v))
        syncs += agent.decision_count % cfg.target_sync_every == 0
        obs = stream.uniform(size=obs_dim) if done else next_obs
    assert agent.optimizer.t > 356
    assert agent.buffer.count > 2 * cfg.buffer_capacity
    assert syncs >= 6
    assert_shares_theta(agent)



@pytest.mark.parametrize("hidden", [(8,), (8, 8)])
def test_training_moves_the_theta_the_layers_read(hidden):
    cfg = DqnConfig(hidden=hidden, batch_size=4, buffer_capacity=50, target_sync_every=5)
    agent = DqnAgent(2, 3, cfg, seed=6)
    stream = np.random.default_rng(7)
    for _ in range(cfg.batch_size + 8):
        before = [w.copy() for w in agent.online.weights]
        obs = stream.uniform(size=2)
        loss = agent.record_and_train(obs, agent.select_action(obs), stream.normal(),
                                      stream.uniform(size=2), False)
        # once the buffer holds a batch, every decision moves the very
        # vector the layers read, and the target syncs keep their own copy
        moved = not all(np.array_equal(a, b) for a, b in zip(before, agent.online.weights))
        assert moved is (loss is not None)
        assert_shares_theta(agent)
    assert agent.decision_count == cfg.batch_size + 8
