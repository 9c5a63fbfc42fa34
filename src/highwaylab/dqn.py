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
from .env import OBS_DIM
from .errors import TrainingDivergenceError, bound, check_bounds
from .nets import (
    AdamState,
    CheckpointedLearner,
    NetworkSpec,
    ParameterSet,
    adam_step,
    backward,
    check_hidden_sizes,
    forward,
    forward_activations,
    init_params,
)


MAX_BUFFER_CAPACITY = 1_000_000  # transitions; 417 bytes each at OBS_DIM 25


@dataclass(frozen=True)
class DqnConfig:
    gamma: float = bound(0.99, 0, 1)
    learning_rate: float = bound(0.001, 0, strict=True)
    batch_size: int = 64
    buffer_capacity: int = 50_000
    target_sync_every: int = bound(1000, 1)
    epsilon_start: float = bound(1.0, 0, 1)
    epsilon_end: float = bound(0.05, 0, 1)
    epsilon_decay_steps: int = bound(10_000, 1)
    learn_start: int = bound(1000, 1)
    hidden_sizes: tuple[int, ...] = (128, 128)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.batch_size < 1 or self.batch_size > self.buffer_capacity:
            raise ValueError("need 1 <= batch_size <= buffer_capacity")
        if self.buffer_capacity > MAX_BUFFER_CAPACITY:
            raise ValueError(f"buffer_capacity must be <= {MAX_BUFFER_CAPACITY}")
        # The buffer never holds more than its capacity, so a larger
        # learn_start would never let train_step learn.
        if self.learn_start > self.buffer_capacity:
            raise ValueError("need learn_start <= buffer_capacity")
        hidden = check_hidden_sizes(self.hidden_sizes, OBS_DIM, N_ACTIONS)
        object.__setattr__(self, "hidden_sizes", hidden)


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


class DqnLearner(CheckpointedLearner):
    """Single-writer learner state: buffer, online net, target net, optimizer.
    Checkpoints leave the replay buffer out: a loaded learner starts with an empty one."""

    def __init__(self, obs_dim: int, n_actions: int = N_ACTIONS, config: DqnConfig | None = None, seed: int = 0):
        self.config = config if config is not None else DqnConfig()
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
        skipped = len(self.buffer) < self.config.learn_start
        loss = float("nan")
        if not skipped:
            batch = self.buffer.sample(self.config.batch_size)
            targets = compute_targets(batch, self.spec, self.target_params, self.config.gamma)
            loss, grad = loss_and_gradient(batch, self.spec, self.params, targets)
            self.params, self.adam = adam_step(self.adam, self.params, grad)
            self.grad_steps += 1
            if self.grad_steps % self.config.target_sync_every == 0:
                self.sync_target()
        return {
            "skipped": skipped,
            "loss": loss,
            "epsilon": self.epsilon,
            "buffer_size": len(self.buffer),
        }

    # -- checkpointing: the archive layout, written and checked by nets ---------

    AGENT = "dqn"
    NETWORKS = {"q": ("spec", "params"), "q_target": ("spec", "target_params")}
    OPTIMIZERS = {"adam": ("spec", "adam")}
    COUNTERS = ("env_steps", "grad_steps")
