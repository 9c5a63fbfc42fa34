"""Clipped-surrogate policy optimization with generalized advantage estimation.

A rollout is a fixed-length on-policy slice of experience; episodes reset
automatically inside it and the final step bootstraps from the value of the
next observation. Advantages come from the exponentially weighted sum of TD
residuals

    delta_t = r_t + gamma * (0 if terminated_t else V(s_{t+1})) - V(s_t)
    A_t     = delta_t + gamma * lam * (0 if episode_end_t else A_{t+1})

computed backward per episode segment. Value targets are ``A_t + V(s_t)``
using the raw advantages; per-rollout normalization applies to the
advantages only. The policy objective is the pessimistic clipped surrogate
plus an entropy bonus, maximized with Adam; the value head minimizes mean
squared error against the frozen targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .actions import N_ACTIONS
from .env import OBS_DIM
from .episodes import EpisodeDriver
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
    log_softmax,
)


MAX_ROLLOUT_LENGTH = 1_000_000  # steps; a rollout keeps 242 bytes per step at OBS_DIM 25


@dataclass(frozen=True)
class PpoConfig:
    clip_epsilon: float = bound(0.2, 0, 1, strict=True)
    gae_lambda: float = bound(0.95, 0, 1)
    gamma: float = bound(0.99, 0, 1)
    rollout_length: int = 2048
    epochs: int = bound(10, 0)
    minibatch_size: int = 256
    policy_lr: float = 0.0003
    value_lr: float = 0.001
    entropy_coef: float = bound(0.01, 0)
    hidden_sizes: tuple[int, ...] = (128, 128)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.rollout_length < 1 or self.minibatch_size < 1:
            raise ValueError("rollout_length and minibatch_size must be >= 1")
        if self.rollout_length % self.minibatch_size != 0:
            raise ValueError("rollout_length must be divisible by minibatch_size")
        if self.rollout_length > MAX_ROLLOUT_LENGTH:
            raise ValueError(f"rollout_length must be <= {MAX_ROLLOUT_LENGTH}")
        if self.policy_lr <= 0 or self.value_lr <= 0:
            raise ValueError("learning rates must be > 0")
        hidden = check_hidden_sizes(self.hidden_sizes, OBS_DIM, N_ACTIONS)
        object.__setattr__(self, "hidden_sizes", hidden)


@dataclass
class RolloutBatch:
    """Parallel per-step series collected under one frozen policy.

    ``terminated`` marks real environment termination (V of the successor is
    zero there); ``episode_end`` additionally marks truncations and the
    rollout cut, where the advantage recursion stops and the stored
    ``next_values`` bootstrap. ``log_probs`` are of the collection-time
    policy and are never recomputed once updates begin.
    """

    obs: np.ndarray  # (T, obs_dim)
    actions: np.ndarray  # (T,) int64
    rewards: np.ndarray  # (T,)
    values: np.ndarray  # (T,)
    next_values: np.ndarray  # (T,) value of the true successor observation
    log_probs: np.ndarray  # (T,)
    terminated: np.ndarray  # (T,) bool
    episode_end: np.ndarray  # (T,) bool
    advantages: np.ndarray | None = None
    value_targets: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.obs.shape[0])


def compute_gae(
    batch: RolloutBatch,
    gamma: float,
    lam: float,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Backward advantage recursion per episode segment.

    Returns (advantages, value_targets). Targets always use the raw
    advantages; when ``normalize`` is set the returned advantages are shifted
    and scaled to mean 0 and standard deviation 1 (plus 1e-8) per rollout.
    """
    n = len(batch)
    advantages = np.zeros(n, dtype=np.float64)
    running = 0.0
    for t in range(n - 1, -1, -1):
        next_value = 0.0 if batch.terminated[t] else batch.next_values[t]
        delta = batch.rewards[t] + gamma * next_value - batch.values[t]
        if batch.episode_end[t]:
            running = delta
        else:
            running = delta + gamma * lam * running
        advantages[t] = running
    value_targets = advantages + batch.values
    if normalize:
        std = advantages.std()
        advantages = (advantages - advantages.mean()) / (std + 1e-8)
    return advantages, value_targets


def clipped_surrogate(
    ratios: np.ndarray, advantages: np.ndarray, clip_epsilon: float
) -> np.ndarray:
    """Per-sample pessimistic surrogate min(r*A, clip(r, 1-e, 1+e)*A)."""
    r = np.asarray(ratios, dtype=np.float64)
    a = np.asarray(advantages, dtype=np.float64)
    clipped = np.clip(r, 1.0 - clip_epsilon, 1.0 + clip_epsilon)
    return np.minimum(r * a, clipped * a)


def ppo_objective(
    policy_spec: NetworkSpec,
    policy_params: ParameterSet,
    obs: np.ndarray,
    actions: np.ndarray,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    clip_epsilon: float,
    entropy_coef: float,
) -> tuple[float, np.ndarray, dict]:
    """Surrogate-plus-entropy objective, its ascent gradient, and stats.

    The gradient is of the objective (to be maximized); samples on the
    clipped-and-worse branch contribute zero policy gradient. Stats report
    the clip fraction (share of samples where the clipped branch is strictly
    the lower bound) and the mean policy entropy.
    """
    n = obs.shape[0]
    rows = np.arange(n)
    acts = forward_activations(policy_spec, policy_params, obs)
    logits = acts[-1]
    logp_all = log_softmax(logits)
    new_log_probs = logp_all[rows, actions]
    with np.errstate(over="ignore"):  # overflow is reported as divergence below
        ratios = np.exp(new_log_probs - old_log_probs)
    if not np.all(np.isfinite(ratios)):
        raise TrainingDivergenceError("non-finite policy ratio")

    surrogate = clipped_surrogate(ratios, advantages, clip_epsilon)
    probs = np.exp(logp_all)
    entropies = -(probs * logp_all).sum(axis=1)
    objective = float(surrogate.mean() + entropy_coef * entropies.mean())
    if not np.isfinite(objective):
        raise TrainingDivergenceError("non-finite PPO objective")

    # d surrogate / d new_log_prob: ratio * A where the unclipped branch is
    # active (ties included; both branches agree there), else zero.
    unclipped = ratios * advantages
    active = surrogate == unclipped
    coef = np.where(active, unclipped, 0.0) / n
    g_logits = coef[:, None] * (-probs)
    g_logits[rows, actions] += coef
    # d entropy / d logits = -p * (log p + H)
    g_logits += (entropy_coef / n) * (-probs * (logp_all + entropies[:, None]))

    grad = backward(policy_spec, policy_params, obs, g_logits, acts)
    stats = {
        "clip_fraction": float(np.mean(~active)),
        "entropy": float(entropies.mean()),
    }
    return objective, grad, stats


def value_loss(
    value_spec: NetworkSpec,
    value_params: ParameterSet,
    obs: np.ndarray,
    targets: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean squared error of V(s) against frozen targets, with its gradient."""
    n = obs.shape[0]
    acts = forward_activations(value_spec, value_params, obs)
    v = acts[-1][:, 0]
    residual = v - targets
    loss = float(residual @ residual) / n
    if not np.isfinite(loss):
        raise TrainingDivergenceError("non-finite value loss")
    g_out = (2.0 * residual / n)[:, None]
    return loss, backward(value_spec, value_params, obs, g_out, acts)


def _action_distribution(
    spec: NetworkSpec, params: ParameterSet, obs
) -> tuple[np.ndarray, np.ndarray]:
    """(log probabilities, their exp): the one action distribution that rollouts,
    `PpoLearner.act` and `PpoLearner.policy_probabilities` all read."""
    logp = log_softmax(forward(spec, params, obs))
    return logp, np.exp(logp)


# The tolerance Generator.choice gives the sum of float64 probabilities.
_PROBABILITY_SUM_TOLERANCE = float(np.sqrt(np.finfo(np.float64).eps))


def _sample_action(rng: np.random.Generator, probs: np.ndarray) -> int:
    """Draw an action index with the draw and the result of ``rng.choice(probs.size,
    p=probs)``; NaN, negative or unnormalized probabilities mean the policy diverged."""
    cdf = probs.cumsum()
    total = cdf[-1]
    # min() is NaN when an entry is, so this refuses NaN entries too.
    if not (probs.min() >= 0.0 and abs(total - 1.0) <= _PROBABILITY_SUM_TOLERANCE):
        raise TrainingDivergenceError(f"bad action probabilities: {probs.tolist()}")
    cdf /= total
    return int(cdf.searchsorted(rng.random(), side="right"))


class RolloutCollector(EpisodeDriver):
    """Steps an environment across rollout boundaries, auto-resetting episodes.

    ``episode_seed_fn(episode_index)`` supplies the seed for every fresh
    episode, so a fixed function plus a fixed action stream reproduces the
    rollout bit for bit. An ``on_step`` hook sees every step, as in
    `EpisodeDriver`.
    """

    def __init__(self, env, episode_seed_fn: Callable[[int], int], on_step=None):
        super().__init__(env, None, episode_seed_fn, on_step=on_step)

    def collect(
        self,
        policy_spec: NetworkSpec,
        policy_params: ParameterSet,
        value_spec: NetworkSpec,
        value_params: ParameterSet,
        length: int,
        rng: np.random.Generator,
    ) -> RolloutBatch:
        obs_dim = policy_spec.input_dim
        obs_arr = np.zeros((length, obs_dim), dtype=np.float64)
        actions = np.zeros(length, dtype=np.int64)
        rewards = np.zeros(length, dtype=np.float64)
        values = np.zeros(length, dtype=np.float64)
        next_values = np.zeros(length, dtype=np.float64)
        log_probs = np.zeros(length, dtype=np.float64)
        terminated = np.zeros(length, dtype=bool)
        episode_end = np.zeros(length, dtype=bool)

        if self.obs is None:
            self.reset()
        # V(self.obs) when the previous step computed it as its next value;
        # unknown after a reset and at the start, since update() changes the net.
        value = None

        for t in range(length):
            obs = self.obs
            logp, probs = _action_distribution(policy_spec, policy_params, obs)
            action = _sample_action(rng, probs)
            outcome = self.step(action)

            obs_arr[t] = obs
            actions[t] = action
            rewards[t] = outcome.reward.total
            values[t] = forward(value_spec, value_params, obs)[0] if value is None else value
            next_values[t] = forward(value_spec, value_params, outcome.observation)[0]
            log_probs[t] = logp[action]
            terminated[t] = outcome.terminated
            episode_end[t] = outcome.terminated or outcome.truncated
            value = None if episode_end[t] else next_values[t]

        episode_end[-1] = True  # rollout cut: stop the recursion, bootstrap
        return RolloutBatch(
            obs=obs_arr,
            actions=actions,
            rewards=rewards,
            values=values,
            next_values=next_values,
            log_probs=log_probs,
            terminated=terminated,
            episode_end=episode_end,
        )


class PpoLearner(CheckpointedLearner):
    """Separate policy and value heads with their own Adam states."""

    def __init__(self, obs_dim: int, n_actions: int = N_ACTIONS, config: PpoConfig | None = None, seed: int = 0):
        self.config = config if config is not None else PpoConfig()
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        root = np.random.SeedSequence(seed)
        policy_seed, value_seed, action_seed, shuffle_seed = root.spawn(4)
        hidden = self.config.hidden_sizes
        self.policy_spec = NetworkSpec((obs_dim, *hidden, n_actions))
        self.value_spec = NetworkSpec((obs_dim, *hidden, 1))
        self.policy_params = init_params(self.policy_spec, policy_seed)
        self.value_params = init_params(self.value_spec, value_seed)
        self.policy_adam = AdamState.create(self.policy_spec.n_params, self.config.policy_lr)
        self.value_adam = AdamState.create(self.value_spec.n_params, self.config.value_lr)
        self.action_rng = np.random.default_rng(action_seed)
        self._shuffle_rng = np.random.default_rng(shuffle_seed)
        self.rollouts_done = 0
        self.env_steps = 0

    def act(self, obs: np.ndarray) -> int:
        return _sample_action(self.action_rng, self.policy_probabilities(obs))

    def policy_probabilities(self, obs: np.ndarray) -> np.ndarray:
        return _action_distribution(self.policy_spec, self.policy_params, obs)[1]

    def prepare(self, batch: RolloutBatch) -> RolloutBatch:
        """Fill advantages and value targets in place and return the batch."""
        adv, targets = compute_gae(batch, self.config.gamma, self.config.gae_lambda)
        batch.advantages = adv
        batch.value_targets = targets
        return batch

    def update(self, batch: RolloutBatch) -> dict:
        """Several epochs of seeded-shuffle minibatch ascent/descent."""
        if batch.advantages is None or batch.value_targets is None:
            raise ValueError("call prepare() (or compute_gae) before update()")
        cfg = self.config
        n = len(batch)
        stats_acc = {"policy_objective": 0.0, "value_loss": 0.0, "clip_fraction": 0.0, "entropy": 0.0}
        n_minibatches = 0
        for _ in range(cfg.epochs):
            order = self._shuffle_rng.permutation(n)
            for start in range(0, n, cfg.minibatch_size):
                idx = order[start : start + cfg.minibatch_size]
                obs = batch.obs[idx]
                objective, policy_grad, stats = ppo_objective(
                    self.policy_spec,
                    self.policy_params,
                    obs,
                    batch.actions[idx],
                    batch.log_probs[idx],
                    batch.advantages[idx],
                    cfg.clip_epsilon,
                    cfg.entropy_coef,
                )
                # Adam minimizes, so feed the negated ascent gradient.
                self.policy_params, self.policy_adam = adam_step(
                    self.policy_adam, self.policy_params, -policy_grad
                )
                vloss, value_grad = value_loss(
                    self.value_spec, self.value_params, obs, batch.value_targets[idx]
                )
                self.value_params, self.value_adam = adam_step(
                    self.value_adam, self.value_params, value_grad
                )
                stats_acc["policy_objective"] += objective
                stats_acc["value_loss"] += vloss
                stats_acc["clip_fraction"] += stats["clip_fraction"]
                stats_acc["entropy"] += stats["entropy"]
                n_minibatches += 1
        self.rollouts_done += 1
        self.env_steps += n
        return {key: value / max(n_minibatches, 1) for key, value in stats_acc.items()}

    # -- checkpointing: the archive layout, written and checked by nets ---------

    AGENT = "ppo"
    NETWORKS = {
        "policy": ("policy_spec", "policy_params"),
        "value": ("value_spec", "value_params"),
    }
    OPTIMIZERS = {
        "adam_policy": ("policy_spec", "policy_adam"),
        "adam_value": ("value_spec", "value_adam"),
    }
    COUNTERS = ("rollouts_done", "env_steps")
