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

import json
from dataclasses import dataclass

import numpy as np

from .config import from_jsonable, to_jsonable


@dataclass(frozen=True)
class DqnConfig:
    obs_dim: int = 5
    n_actions: int = 18
    hidden: tuple[int, ...] = (128, 128)
    lr: float = 5e-4
    gamma: float = 0.99
    batch_size: int = 32
    buffer_capacity: int = 5000
    target_sync_every: int = 100   # decisions between target-network copies
    eps0: float = 1.0
    eps_decay: float = 0.9975      # per-decision multiplicative decay
    eps_min: float = 0.05
    train_per_decision: int = 1

    def __post_init__(self):
        if not 1 <= self.batch_size <= self.buffer_capacity:
            raise ValueError(f"batch_size must be within [1, buffer_capacity]: {self.batch_size}")
        if min(self.target_sync_every, self.train_per_decision) < 1:
            raise ValueError(f"sync and train counts must be >= 1: {self.target_sync_every}, "
                             f"{self.train_per_decision}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be within [0, 1]: {self.gamma}")
        if not 0.0 < self.eps_decay <= 1.0:
            raise ValueError(f"eps_decay must be within (0, 1]: {self.eps_decay}")
        if not 0.0 <= self.eps_min <= self.eps0 <= 1.0:
            raise ValueError(f"need 0 <= eps_min {self.eps_min} <= eps0 {self.eps0} <= 1")

    def sizes(self) -> tuple[int, ...]:
        return (self.obs_dim, *self.hidden, self.n_actions)


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
    (Adam, `copy_from`, checkpoint loading) updates every layer.
    """

    def __init__(self, sizes: tuple[int, ...], rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError(f"need at least input and output sizes: {sizes}")
        self.sizes = tuple(int(s) for s in sizes)
        self._bind(np.empty(sum(i * o + o for i, o in zip(self.sizes[:-1], self.sizes[1:]))))
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    def _bind(self, theta: np.ndarray) -> None:
        self.theta = theta
        self.weights, self.biases = layer_views(theta, self.sizes)

    def activations(self, x: np.ndarray) -> list[np.ndarray]:
        """Each layer's input, then the Q-values of shape (batch, n_actions).
        Accepts a single obs or a batch."""
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acts = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.maximum(z, 0.0)
            acts.append(a)
        return acts

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values, shape (batch, n_actions). Accepts a single obs or a batch."""
        return self.activations(x)[-1]

    def copy_from(self, other: "QNetwork") -> None:
        if other.sizes != self.sizes:
            raise ValueError(f"size mismatch: {other.sizes} vs {self.sizes}")
        np.copyto(self.theta, other.theta)

    def clone(self) -> "QNetwork":
        dup = QNetwork.__new__(QNetwork)
        dup.sizes = self.sizes
        dup._bind(self.theta.copy())
        return dup


def loss_and_grads(
    net: QNetwork,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean-squared TD loss and its gradient w.r.t. net.theta.

    Only the output unit of each sample's taken action receives error signal.
    The gradient is one flat vector laid out like net.theta.
    """
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    acts = net.activations(states)
    q_all = acts[-1]
    n = q_all.shape[0]
    q_taken = q_all[np.arange(n), actions]
    err = q_taken - targets
    loss = float(np.mean(err**2))

    dz = np.zeros_like(q_all)
    dz[np.arange(n), actions] = 2.0 * err / n
    grad = np.empty_like(net.theta)
    grad_w, grad_b = layer_views(grad, net.sizes)
    for i in range(len(grad_w) - 1, -1, -1):
        np.matmul(acts[i].T, dz, out=grad_w[i])
        dz.sum(axis=0, out=grad_b[i])
        if i > 0:
            # a ReLU output is positive exactly where its input was
            da = dz @ net.weights[i].T
            dz = da * (acts[i] > 0.0)
    return loss, grad


def td_targets(
    rewards: np.ndarray,
    max_next_q: np.ndarray,
    dones: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """One-step bootstrapped targets: r + gamma * max_a' Q'(s', a'), cut at terminals."""
    return rewards + gamma * (1.0 - dones) * max_next_q


class Adam:
    """Adam over one flat parameter vector, which it updates in place."""

    def __init__(self, theta: np.ndarray, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.theta = theta
        self.m = np.zeros_like(theta)
        self.v = np.zeros_like(theta)
        self.t = 0
        # scratch: a fresh temporary per operation costs more than its arithmetic
        self._s = np.empty_like(theta)
        self._u = np.empty_like(theta)

    def step(self, grad: np.ndarray) -> None:
        """m = b1*m + (1-b1)*g; v = b2*v + ((1-b2)*g)*g;
        theta -= (lr*m_hat) / (sqrt(v_hat) + eps), one operation at a time."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v, s, u = self.m, self.v, self._s, self._u
        m *= b1
        m += np.multiply(1 - b1, grad, out=s)
        v *= b2
        v += np.multiply(np.multiply(1 - b2, grad, out=s), grad, out=s)
        np.sqrt(np.divide(v, 1 - b2**self.t, out=s), out=s)
        s += self.eps
        np.multiply(self.lr, np.divide(m, 1 - b1**self.t, out=u), out=u)
        self.theta -= np.divide(u, s, out=u)


class ReplayBuffer:
    """Bounded ring buffer of transitions; overwrites oldest-first when full.

    Transition k lands in row k % capacity of preallocated arrays.
    """

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
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
        slot = self.count % self.capacity
        self.obs[slot] = obs
        self.action[slot] = action
        self.reward[slot] = reward
        self.next_obs[slot] = next_obs
        self.done[slot] = bool(done)
        self.count += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform minibatch without replacement, as (obs, actions, rewards, next_obs, dones)."""
        if batch_size > len(self):
            raise ValueError(f"cannot sample {batch_size} from {len(self)} items")
        idx = rng.choice(len(self), size=batch_size, replace=False)
        return self.obs[idx], self.action[idx], self.reward[idx], self.next_obs[idx], self.done[idx]


CHECKPOINT_FORMAT_VERSION = 2


class DqnAgent:
    """Online from-scratch DQN controller."""

    def __init__(self, cfg: DqnConfig = DqnConfig(), seed: int = 0):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.online = QNetwork(cfg.sizes(), self.rng)
        self.target = self.online.clone()
        self.optimizer = Adam(self.online.theta, lr=cfg.lr)
        self.buffer = ReplayBuffer(cfg.buffer_capacity, cfg.obs_dim)
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
            return int(self.rng.integers(self.cfg.n_actions))
        return int(np.argmax(self.q_values(obs)))

    def record_and_train(self, obs, action, reward, next_obs, done) -> float | None:
        """Store a transition, run the per-decision training, advance clocks."""
        self.buffer.push(obs, action, reward, next_obs, done)
        loss = None
        if len(self.buffer) >= self.cfg.batch_size:
            for _ in range(self.cfg.train_per_decision):
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
        max_next_q = self.target.forward(next_obs).max(axis=1)
        y = td_targets(rewards, max_next_q, dones, self.cfg.gamma)
        loss, grad = loss_and_grads(self.online, obs, actions, y)
        self.optimizer.step(grad)
        return loss

    def sync_target(self) -> None:
        self.target.copy_from(self.online)

    # -- checkpointing ----------------------------------------------------

    def _checkpoint_arrays(self) -> dict[str, np.ndarray]:
        """The flat vectors a checkpoint holds besides its meta JSON."""
        return {"online": self.online.theta, "target": self.target.theta,
                "adam_m": self.optimizer.m, "adam_v": self.optimizer.v}

    def save(self, path) -> None:
        """Write a self-describing checkpoint (weights, optimizer, clocks)."""
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": "xredge-dqn-agent",
            "cfg": to_jsonable(self.cfg),
            "decision_count": self.decision_count,
            "adam_t": self.optimizer.t,
        }
        meta_json = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, meta_json=meta_json, **self._checkpoint_arrays())

    @classmethod
    def load(cls, path, seed: int = 0) -> "DqnAgent":
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"]).decode())
            if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version: {meta.get('format_version')}"
                )
            cfg = from_jsonable(DqnConfig, meta["cfg"], "checkpoint cfg")
            agent = cls(cfg, seed=seed)
            # copy into the agent's own vectors: the layer views and Adam stay bound to them
            for name, dst in agent._checkpoint_arrays().items():
                src = data[name]
                if src.shape != dst.shape:
                    raise ValueError(f"checkpoint array {name}: shape {src.shape} != {dst.shape}")
                np.copyto(dst, src)
            agent.optimizer.t = int(meta["adam_t"])
            agent.decision_count = int(meta["decision_count"])
        return agent
