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


class QNetwork:
    """Plain MLP: ReLU hidden layers, linear output head per action."""

    def __init__(self, sizes: tuple[int, ...] = (5, 128, 128, 18), rng=None):
        if len(sizes) < 2:
            raise ValueError(f"need at least input and output sizes: {sizes}")
        if rng is None:
            rng = np.random.default_rng(0)
        self.sizes = tuple(int(s) for s in sizes)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))

    @property
    def params(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def num_params(self) -> int:
        return sum(p.size for p in self.params)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values, shape (batch, n_actions). Accepts a single obs or a batch."""
        a = np.atleast_2d(np.asarray(x, dtype=np.float64))
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = a @ w + b
            a = z if i == last else np.maximum(z, 0.0)
        return a

    def copy_from(self, other: "QNetwork") -> None:
        if other.sizes != self.sizes:
            raise ValueError(f"size mismatch: {other.sizes} vs {self.sizes}")
        self.weights = [w.copy() for w in other.weights]
        self.biases = [b.copy() for b in other.biases]

    def clone(self) -> "QNetwork":
        dup = QNetwork.__new__(QNetwork)
        dup.sizes = self.sizes
        dup.weights = [w.copy() for w in self.weights]
        dup.biases = [b.copy() for b in self.biases]
        return dup


def loss_and_grads(
    net: QNetwork,
    states: np.ndarray,
    actions: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, list[np.ndarray]]:
    """Mean-squared TD loss and its gradients w.r.t. net.params.

    Only the output unit of each sample's taken action receives error signal.
    The grads list is ordered like net.params: W0, b0, W1, b1, ...
    """
    x = np.atleast_2d(np.asarray(states, dtype=np.float64))
    actions = np.asarray(actions, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.float64)
    n = x.shape[0]
    last = len(net.weights) - 1

    pre: list[np.ndarray] = []       # pre-activations per layer
    acts: list[np.ndarray] = [x]     # inputs per layer
    a = x
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == last else np.maximum(z, 0.0)
        if i != last:
            acts.append(a)

    q_all = pre[-1]
    q_taken = q_all[np.arange(n), actions]
    err = q_taken - targets
    loss = float(np.mean(err**2))

    dz = np.zeros_like(q_all)
    dz[np.arange(n), actions] = 2.0 * err / n
    grads_w: list[np.ndarray] = [None] * len(net.weights)
    grads_b: list[np.ndarray] = [None] * len(net.biases)
    for i in range(last, -1, -1):
        grads_w[i] = acts[i].T @ dz
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            da = dz @ net.weights[i].T
            dz = da * (pre[i - 1] > 0.0)

    grads: list[np.ndarray] = []
    for gw, gb in zip(grads_w, grads_b):
        grads.extend((gw, gb))
    return loss, grads


def td_targets(
    rewards: np.ndarray,
    max_next_q: np.ndarray,
    dones: np.ndarray,
    gamma: float,
) -> np.ndarray:
    """One-step bootstrapped targets: r + gamma * max_a' Q'(s', a'), cut at terminals."""
    rewards = np.asarray(rewards, dtype=np.float64)
    max_next_q = np.asarray(max_next_q, dtype=np.float64)
    cont = 1.0 - np.asarray(dones, dtype=np.float64)
    return rewards + gamma * cont * max_next_q


class Adam:
    def __init__(self, params: list[np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self, grads: list[np.ndarray]) -> None:
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


@dataclass(frozen=True)
class EpsilonSchedule:
    eps0: float = 1.0
    decay: float = 0.9975
    eps_min: float = 0.05

    def value(self, t: int) -> float:
        """Exploration rate after t decisions."""
        if t < 0:
            raise ValueError(f"decision count must be non-negative: {t}")
        return max(self.eps_min, self.eps0 * self.decay**t)


class ReplayBuffer:
    """Bounded ring buffer of transitions; overwrites oldest-first when full."""

    def __init__(self, capacity: int = 5000):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.data: list[tuple] = []
        self.pos = 0

    def __len__(self) -> int:
        return len(self.data)

    def push(self, obs, action, reward, next_obs, done) -> None:
        item = (
            np.asarray(obs, dtype=np.float64),
            int(action),
            float(reward),
            np.asarray(next_obs, dtype=np.float64),
            bool(done),
        )
        if len(self.data) < self.capacity:
            self.data.append(item)
        else:
            self.data[self.pos] = item
            self.pos = (self.pos + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform minibatch without replacement, as stacked arrays."""
        if batch_size > len(self.data):
            raise ValueError(f"cannot sample {batch_size} from {len(self.data)} items")
        idx = rng.choice(len(self.data), size=batch_size, replace=False)
        obs = np.stack([self.data[i][0] for i in idx])
        actions = np.array([self.data[i][1] for i in idx], dtype=np.int64)
        rewards = np.array([self.data[i][2] for i in idx], dtype=np.float64)
        next_obs = np.stack([self.data[i][3] for i in idx])
        dones = np.array([self.data[i][4] for i in idx], dtype=np.float64)
        return obs, actions, rewards, next_obs, dones


CHECKPOINT_FORMAT_VERSION = 1


class DqnAgent:
    """Online from-scratch DQN controller."""

    def __init__(self, cfg: DqnConfig = DqnConfig(), seed: int = 0):
        self.cfg = cfg
        self.rng = np.random.default_rng(seed)
        self.online = QNetwork(cfg.sizes(), self.rng)
        self.target = self.online.clone()
        self.optimizer = Adam(self.online.params, lr=cfg.lr)
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.schedule = EpsilonSchedule(cfg.eps0, cfg.eps_decay, cfg.eps_min)
        self.decision_count = 0
        self.last_loss: float | None = None

    @property
    def epsilon(self) -> float:
        return self.schedule.value(self.decision_count)

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
        loss, grads = loss_and_grads(self.online, obs, actions, y)
        self.optimizer.step(grads)
        return loss

    def sync_target(self) -> None:
        self.target.copy_from(self.online)

    # -- checkpointing ----------------------------------------------------

    def save(self, path) -> None:
        """Write a self-describing checkpoint (weights, optimizer, clocks)."""
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": "xredge-dqn-agent",
            "cfg": to_jsonable(self.cfg),
            "decision_count": self.decision_count,
            "adam_t": self.optimizer.t,
        }
        arrays = {"meta_json": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)}
        for i, (w, b) in enumerate(zip(self.online.weights, self.online.biases)):
            arrays[f"online_w{i}"] = w
            arrays[f"online_b{i}"] = b
        for i, (w, b) in enumerate(zip(self.target.weights, self.target.biases)):
            arrays[f"target_w{i}"] = w
            arrays[f"target_b{i}"] = b
        for i, (m, v) in enumerate(zip(self.optimizer.m, self.optimizer.v)):
            arrays[f"adam_m{i}"] = m
            arrays[f"adam_v{i}"] = v
        np.savez(path, **arrays)

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
            n_layers = len(agent.online.weights)
            agent.online.weights = [data[f"online_w{i}"].copy() for i in range(n_layers)]
            agent.online.biases = [data[f"online_b{i}"].copy() for i in range(n_layers)]
            agent.target.weights = [data[f"target_w{i}"].copy() for i in range(n_layers)]
            agent.target.biases = [data[f"target_b{i}"].copy() for i in range(n_layers)]
            agent.optimizer = Adam(agent.online.params, lr=cfg.lr)
            n_params = 2 * n_layers
            agent.optimizer.m = [data[f"adam_m{i}"].copy() for i in range(n_params)]
            agent.optimizer.v = [data[f"adam_v{i}"].copy() for i in range(n_params)]
            agent.optimizer.t = int(meta["adam_t"])
            agent.decision_count = int(meta["decision_count"])
        return agent
