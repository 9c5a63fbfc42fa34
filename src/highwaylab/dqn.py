"""Q-learning with experience replay and a periodically synced target network.

The learner owns its replay buffer, online parameters, and frozen target
copy. Targets are ``y = r + (1 - done) * gamma * max_a' Q(s', a'; target)``
where ``done`` reflects real termination only; time-limit truncation keeps
bootstrapping. The loss is the batch mean squared error between y and
Q(s, a), with gradient flowing through Q(s, a) only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actions import N_ACTIONS
from .errors import TrainingDivergenceError
from .nets import (
    AdamState,
    NetworkSpec,
    ParameterSet,
    adam_step,
    backward,
    forward,
    forward_activations,
    init_params,
    load_agent,
    save_agent,
)


@dataclass(frozen=True)
class DqnConfig:
    gamma: float = 0.99
    learning_rate: float = 0.001
    batch_size: int = 64
    buffer_capacity: int = 50_000
    target_sync_every: int = 1000
    target_sync_unit: str = "gradient"  # "gradient" or "env"
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 10_000
    learn_start: int = 1000
    hidden_sizes: tuple[int, ...] = (128, 128)

    def __post_init__(self) -> None:
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must be in [0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.batch_size > self.buffer_capacity:
            raise ValueError("need 1 <= batch_size <= buffer_capacity")
        if self.target_sync_every < 1:
            raise ValueError("target_sync_every must be >= 1")
        if self.target_sync_unit not in ("gradient", "env"):
            raise ValueError("target_sync_unit must be 'gradient' or 'env'")
        for name in ("epsilon_start", "epsilon_end"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.epsilon_decay_steps < 1:
            raise ValueError("epsilon_decay_steps must be >= 1")
        if self.learn_start < 1:
            raise ValueError("learn_start must be >= 1")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden_sizes must be >= 1")


@dataclass(frozen=True)
class Transition:
    """One (s, a, r, s', done) record; done means terminated, never truncated."""

    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool


@dataclass
class TransitionBatch:
    obs: np.ndarray  # (B, obs_dim)
    actions: np.ndarray  # (B,) int64
    rewards: np.ndarray  # (B,)
    next_obs: np.ndarray  # (B, obs_dim)
    done: np.ndarray  # (B,) bool

    def __len__(self) -> int:
        return int(self.obs.shape[0])


class ReplayBuffer:
    """Ring buffer with a seeded uniform-with-replacement sampler."""

    def __init__(self, capacity: int, obs_dim: int, seed):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self._actions = np.zeros(capacity, dtype=np.int64)
        self._rewards = np.zeros(capacity, dtype=np.float64)
        self._next_obs = np.zeros((capacity, obs_dim), dtype=np.float64)
        self._done = np.zeros(capacity, dtype=bool)
        self._rng = np.random.default_rng(seed)
        self.insertions = 0

    def __len__(self) -> int:
        return min(self.insertions, self.capacity)

    def add(self, t: Transition) -> None:
        if not np.isfinite(t.r):
            raise TrainingDivergenceError("non-finite reward in transition")
        slot = self.insertions % self.capacity
        self._obs[slot] = t.s
        self._actions[slot] = int(t.a)
        self._rewards[slot] = t.r
        self._next_obs[slot] = t.s_next
        self._done[slot] = t.done
        self.insertions += 1

    def sample(self, batch_size: int) -> TransitionBatch:
        size = len(self)
        if size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, size, size=batch_size)
        return TransitionBatch(
            obs=self._obs[idx],
            actions=self._actions[idx],
            rewards=self._rewards[idx],
            next_obs=self._next_obs[idx],
            done=self._done[idx],
        )


def epsilon_schedule(env_steps: int, cfg: DqnConfig) -> float:
    """Linear decay from epsilon_start to epsilon_end, then constant."""
    frac = min(max(env_steps / cfg.epsilon_decay_steps, 0.0), 1.0)
    return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)


def select_action(q_values: np.ndarray, epsilon: float, rng: np.random.Generator) -> int:
    """Epsilon-greedy with lowest-index tie-breaking on the greedy branch.

    Exactly one uniform draw decides explore/exploit, followed by one integer
    draw on the explore branch; this draw order is part of the determinism
    contract for seeded action streams.
    """
    q = np.asarray(q_values, dtype=np.float64)
    if not np.all(np.isfinite(q)):
        raise TrainingDivergenceError("non-finite Q values in action selection")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(q.size))
    return int(np.argmax(q))


def compute_targets(
    batch: TransitionBatch,
    spec: NetworkSpec,
    target_params: ParameterSet,
    gamma: float,
) -> np.ndarray:
    q_next = forward(spec, target_params, batch.next_obs)
    if not np.all(np.isfinite(q_next)):
        raise TrainingDivergenceError("non-finite target-network outputs")
    best_next = q_next.max(axis=1)
    return batch.rewards + (~batch.done) * gamma * best_next


def loss_and_gradient(
    batch: TransitionBatch,
    spec: NetworkSpec,
    params: ParameterSet,
    targets: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean squared Bellman error and its gradient in the online parameters."""
    n = len(batch)
    acts = forward_activations(spec, params, batch.obs)
    q = acts[-1]
    rows = np.arange(n)
    residual = q[rows, batch.actions] - targets
    loss = float(residual @ residual) / n
    if not np.isfinite(loss):
        raise TrainingDivergenceError("non-finite DQN loss")
    g_out = np.zeros_like(q)
    g_out[rows, batch.actions] = 2.0 * residual / n
    return loss, backward(spec, params, batch.obs, g_out, acts)


class DqnLearner:
    """Single-writer learner state: buffer, online net, target net, optimizer."""

    def __init__(self, obs_dim: int, n_actions: int = N_ACTIONS, config: DqnConfig | None = None, seed: int = 0):
        self.config = config if config is not None else DqnConfig()
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        root = np.random.SeedSequence(seed)
        init_seed, action_seed, replay_seed = root.spawn(3)
        self.spec = NetworkSpec((obs_dim, *self.config.hidden_sizes, n_actions))
        self.params = init_params(self.spec, init_seed)
        self.sync_target()
        self.adam = AdamState.create(self.spec.n_params, self.config.learning_rate)
        self.buffer = ReplayBuffer(self.config.buffer_capacity, obs_dim, replay_seed)
        self._action_rng = np.random.default_rng(action_seed)
        self.env_steps = 0
        self.grad_steps = 0

    @property
    def epsilon(self) -> float:
        return epsilon_schedule(self.env_steps, self.config)

    def q_values(self, obs: np.ndarray) -> np.ndarray:
        return forward(self.spec, self.params, obs)

    def act(self, obs: np.ndarray) -> int:
        return select_action(self.q_values(obs), self.epsilon, self._action_rng)

    def observe(self, transition: Transition) -> None:
        self.buffer.add(transition)
        self.env_steps += 1

    def sync_target(self) -> None:
        """Hard target update. A ParameterSet is read-only and each Adam step
        makes a new one, so the target shares the online set, uncopied."""
        self.target_params = self.params

    def train_step(self) -> dict:
        """One sampled gradient step; a no-op before learn_start transitions."""
        if len(self.buffer) < self.config.learn_start:
            return {
                "skipped": True,
                "loss": float("nan"),
                "epsilon": self.epsilon,
                "buffer_size": len(self.buffer),
            }
        batch = self.buffer.sample(self.config.batch_size)
        targets = compute_targets(batch, self.spec, self.target_params, self.config.gamma)
        loss, grad = loss_and_gradient(batch, self.spec, self.params, targets)
        self.params, self.adam = adam_step(self.adam, self.params, grad)
        self.grad_steps += 1
        counter = (
            self.grad_steps if self.config.target_sync_unit == "gradient" else self.env_steps
        )
        if counter % self.config.target_sync_every == 0:
            self.sync_target()
        return {
            "skipped": False,
            "loss": loss,
            "epsilon": self.epsilon,
            "buffer_size": len(self.buffer),
        }

    # -- checkpointing: the archive layout, written and checked by nets ---------

    AGENT = "dqn"
    NETWORKS = {"q": ("spec", "params"), "q_target": ("spec", "target_params")}
    OPTIMIZERS = {"adam": ("spec", "adam")}
    COUNTERS = ("env_steps", "grad_steps")

    def save(self, path) -> None:
        save_agent(self, path)

    @classmethod
    def load(cls, path, config: DqnConfig | None = None, seed: int = 0) -> "DqnLearner":
        """Restore parameters, target, optimizer, and counters.

        Replay contents are not checkpointed; a resumed learner starts with
        an empty buffer.
        """
        return load_agent(cls, path, config, seed)
