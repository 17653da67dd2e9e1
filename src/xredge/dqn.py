"""Online deep Q-learning, built from scratch on numpy.

The Q-network is a fully connected ReLU MLP (default 5-128-128-18, 19602
parameters) trained online by one SGD-style step per decision: epsilon-greedy
action, transition into a bounded ring replay buffer, uniform minibatch,
mean-squared TD error against a periodically synchronized target copy, Adam
update. Gradients flow only through the Q-value of the taken action. No
pretraining, no external learning framework; everything runs in float64 so
the backward pass can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import check_ranges, ranged


@dataclass(frozen=True)
class DqnConfig:
    hidden: tuple[int, ...] = ranged("[1, inf)", (128, 128))
    lr: float = ranged("(0, inf)", 5e-4)
    gamma: float = ranged("[0, 1]", 0.99)
    batch_size: int = ranged("[1, inf)", 32)
    buffer_capacity: int = ranged("[1, inf)", 5000)
    target_sync_every: int = ranged("[1, inf)", 100)   # decisions between target-network copies
    eps0: float = ranged("[0, 1]", 1.0)
    eps_decay: float = ranged("(0, 1]", 0.9975)        # per-decision multiplicative decay
    eps_min: float = ranged("[0, 1]", 0.05)

    def __post_init__(self):
        check_ranges(self)
        if self.batch_size > self.buffer_capacity:
            raise ValueError(f"batch_size must not exceed buffer_capacity: "
                             f"{self.batch_size} vs {self.buffer_capacity}")
        if self.eps_min > self.eps0:
            raise ValueError(f"eps_min must not exceed eps0: {self.eps_min} vs {self.eps0}")


def layer_views(flat: np.ndarray, sizes: tuple[int, ...]) -> tuple[list, list]:
    """Per-layer (weights, biases) views into a flat vector laid out W0, b0, W1, b1, ..."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(flat[at:at + fan_out])
        at += fan_out
    return weights, biases


class QNetwork:
    """Plain MLP: ReLU hidden layers, linear output head per action.

    All parameters live in one float64 vector `theta` (W0, b0, W1, b1, ...);
    `weights` and `biases` are views into it, so writing to `theta` in place
    (Adam, `copy_from`) updates every layer.
    """

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator):
        self.sizes = tuple(int(s) for s in sizes)
        self._bind(np.empty(sum(i * o + o for i, o in zip(self.sizes[:-1], self.sizes[1:]))))
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, theta: np.ndarray) -> None:
        self.theta = theta
        self.weights, self.biases = layer_views(theta, self.sizes)

    def activations(self, x: np.ndarray, ws: Workspace | None = None) -> list[np.ndarray]:
        """Each layer's input, then the Q-values of shape (batch, n_actions).
        Accepts a single obs or a batch. Layer outputs go into `ws.outs`
        when a workspace is given, else into fresh arrays."""
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        outs = ws.outs if ws is not None else [np.empty((a.shape[0], n)) for n in self.sizes[1:]]
        acts = [a]
        last = len(self.weights) - 1
        for i, (w, b, z) in enumerate(zip(self.weights, self.biases, outs)):
            np.matmul(a, w, out=z)
            z += b
            if i != last:
                np.maximum(z, 0.0, out=z)
            a = z
            acts.append(a)
        return acts

    def forward(self, x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
        """Q-values, shape (batch, n_actions). Accepts a single obs or a batch."""
        return self.activations(x, ws)[-1]

    def copy_from(self, other: "QNetwork") -> None:
        np.copyto(self.theta, other.theta)

    def clone(self) -> "QNetwork":
        dup = QNetwork.__new__(QNetwork)
        dup.sizes = self.sizes
        dup._bind(self.theta.copy())
        return dup


class Workspace:
    """Training buffers for one network shape and one batch size, allocated once.

    Per layer: its output, the error signal at its output and, for hidden
    layers, its ReLU mask as floats 0.0 and 1.0; then one flat gradient laid
    out like theta, with per-layer views, and the batch's row index. A target forward and the
    online forward of the same step share `outs`: the target's Q-values are
    reduced to max_next_q before the online pass overwrites them.
    """

    def __init__(self, net: QNetwork, batch: int):
        widths = net.sizes[1:]
        self.outs = [np.empty((batch, n)) for n in widths]
        self.deltas = [np.empty((batch, n)) for n in widths]
        self.masks = [np.empty((batch, n)) for n in widths[:-1]]
        self.grad = np.empty_like(net.theta)
        self.grad_w, self.grad_b = layer_views(self.grad, net.sizes)
        self.rows = np.arange(batch)


def loss_and_grads(
    net: QNetwork,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
    ws: Workspace | None = None,
) -> tuple[float, np.ndarray]:
    """Mean-squared TD loss and its gradient w.r.t. net.theta.

    Only the output unit of each sample's taken action receives error signal.
    The gradient is one flat vector laid out like net.theta: `ws.grad` when a
    workspace is given, else a fresh array.
    """
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    if ws is None:
        ws = Workspace(net, len(np.atleast_2d(states)))
    acts = net.activations(states, ws)
    rows = ws.rows
    n = len(rows)
    err = acts[-1][rows, actions] - targets
    loss = float(np.add.reduce(err**2) / n)

    dz = ws.deltas[-1]
    dz.fill(0.0)
    dz[rows, actions] = 2.0 * err / n
    for i in range(len(ws.grad_w) - 1, -1, -1):
        np.matmul(acts[i].T, dz, out=ws.grad_w[i])
        dz.sum(axis=0, out=ws.grad_b[i])
        if i > 0:
            # a ReLU output is positive exactly where its input was, and never
            # negative, so its sign is the 0/1 mask; a float mask spares the
            # multiply numpy's cast buffer for a bool operand
            da = np.matmul(dz, net.weights[i].T, out=ws.deltas[i - 1])
            dz = np.multiply(da, np.sign(acts[i], out=ws.masks[i - 1]), out=da)
    return loss, ws.grad


def td_targets(
    rewards: np.ndarray,
    max_next_q: np.ndarray,
    dones: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """One-step bootstrapped targets: r + gamma * max_a' Q'(s', a'), cut at terminals."""
    return rewards + gamma * (1.0 - dones) * max_next_q


# Adam's moment decay rates and the guard added to its denominator
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam over one flat parameter vector, which it updates in place."""

    def __init__(self, theta: np.ndarray, lr: float):
        self.lr = lr
        self.theta = theta
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0
        # scratch: a fresh temporary per operation costs more than its arithmetic
        self._s = np.empty_like(theta)
        self._u = np.empty_like(theta)

    def step(self, grad: np.ndarray) -> None:
        """m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        theta -= (lr*m_hat) / (sqrt(v_hat) + eps), one operation at a time.

        A bias correction whose denominator has rounded to exactly 1.0 divides
        by 1.0, which changes no float64: the first moment's, from t = 356 on,
        is then skipped; the second moment's is 1.0 only from t = 37412 on."""
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        m, v, s, u = self.m, self.v, self._s, self._u
        m *= b1
        m += np.multiply(1 - b1, grad, out=s)
        v *= b2
        v += np.multiply(np.multiply(1 - b2, grad, out=s), grad, out=s)
        c1 = 1 - b1**self.t
        np.sqrt(np.divide(v, 1 - b2**self.t, out=s), out=s)
        s += ADAM_EPS
        np.multiply(self.lr, m if c1 == 1.0 else np.divide(m, c1, out=u), out=u)
        self.theta -= np.divide(u, s, out=u)


class ReplayBuffer:
    """Bounded ring buffer of transitions; overwrites oldest-first when full.

    Transition k lands in row k % capacity of preallocated arrays. The
    capacity is taken as given: `DqnConfig.buffer_capacity` declares its range.
    """

    def __init__(self, capacity: int, obs_dim: int):
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.action = np.zeros(capacity, dtype=np.int64)
        self.reward = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.done = np.zeros(capacity)
        self.count = 0

    def __len__(self) -> int:
        return min(self.count, self.capacity)

    def push(self, obs, action, reward, next_obs, done) -> None:
        want = self.obs.shape[1:]
        if np.shape(obs) != want or np.shape(next_obs) != want:
            raise ValueError(f"obs and next_obs must have shape {want}, "
                             f"got {np.shape(obs)} and {np.shape(next_obs)}")
        slot = self.count % self.capacity
        self.obs[slot] = obs
        self.action[slot] = action
        self.reward[slot] = reward
        self.next_obs[slot] = next_obs
        self.done[slot] = bool(done)
        self.count += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform minibatch without replacement, as (obs, actions, rewards, next_obs, dones)."""
        idx = rng.choice(len(self), size=batch_size, replace=False)
        return self.obs[idx], self.action[idx], self.reward[idx], self.next_obs[idx], self.done[idx]


class DqnAgent:
    """Online from-scratch DQN controller for observations of obs_dim
    floats and action ids 0 to n_actions - 1."""

    def __init__(self, obs_dim: int, n_actions: int, cfg: DqnConfig = DqnConfig(), seed: int = 0):
        self.cfg = cfg
        self.n_actions = n_actions
        self.rng = np.random.default_rng(seed)
        self.online = QNetwork((obs_dim, *cfg.hidden, n_actions), self.rng)
        self.target = self.online.clone()
        self.optimizer = Adam(self.online.theta, lr=cfg.lr)
        self.buffer = ReplayBuffer(cfg.buffer_capacity, obs_dim)
        self.workspace = Workspace(self.online, cfg.batch_size)
        self.decision_count = 0
        self.last_loss: float | None = None

    @property
    def epsilon(self) -> float:
        """Exploration rate after `decision_count` decisions."""
        cfg = self.cfg
        return max(cfg.eps_min, cfg.eps0 * cfg.eps_decay**self.decision_count)

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        return self.online.forward(obs)[0]

    def select_action(self, obs: np.ndarray) -> int:
        """Epsilon-greedy over current Q-values; greedy ties break to lowest id."""
        if self.rng.random() < self.epsilon:
            return int(self.rng.integers(self.n_actions))
        return int(np.argmax(self.q_values(obs)))

    def record_and_train(self, obs, action, reward, next_obs, done) -> float | None:
        """Store a transition, train one step once the buffer holds a batch, advance clocks."""
        self.buffer.push(obs, action, reward, next_obs, done)
        loss = None
        if len(self.buffer) >= self.cfg.batch_size:
            loss = self.train_step()
        self.decision_count += 1
        if self.decision_count % self.cfg.target_sync_every == 0:
            self.sync_target()
        self.last_loss = loss
        return loss

    def train_step(self) -> float:
        obs, actions, rewards, next_obs, dones = self.buffer.sample(
            self.cfg.batch_size, self.rng
        )
        ws = self.workspace
        max_next_q = self.target.forward(next_obs, ws).max(axis=1)
        y = td_targets(rewards, max_next_q, dones, self.cfg.gamma)
        loss, grad = loss_and_grads(self.online, obs, actions, y, ws)
        self.optimizer.step(grad)
        return loss

    def sync_target(self) -> None:
        self.target.copy_from(self.online)
