"""The one episode loop: reset, act, step, per-step hook, auto-reset.

Training, evaluation, trajectory export and PPO rollout collection all step
their environment through `EpisodeDriver`, so a statistic or an ordering
rule added here holds on every path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .env import HighwayEnv, StepOutcome


@dataclass
class EpisodeStats:
    """Running totals of one episode; lane changes count from the spawn lane."""

    lane: int
    total: float = 0.0  # undiscounted return, summed in step order
    length: int = 0
    speed_sum: float = 0.0
    lane_changes: int = 0
    collided: bool = False

    def add(self, outcome: StepOutcome) -> None:
        info = outcome.info
        self.total += outcome.reward.total
        self.length += 1
        self.speed_sum += info["ego_speed"]
        if info["ego_lane"] != self.lane:
            self.lane_changes += 1
            self.lane = info["ego_lane"]
        self.collided = self.collided or info["crashed"]

    @property
    def mean_speed(self) -> float:
        return self.speed_sum / max(self.length, 1)


class EpisodeDriver:
    """Steps one environment through consecutive seeded episodes.

    Episode i starts with ``env.reset(episode_seed_fn(i))``, followed by
    ``policy.reset(policy_seed_fn(i))`` when a policy seed function is
    given. A step takes the policy's action (or the one passed in), steps
    the environment, adds the step to ``stats`` and then calls the one
    per-step hook, ``on_step(obs, action, outcome)``, when one is given. An
    episode that ends is followed at once by the next one's reset unless the
    step says not to.
    """

    def __init__(
        self,
        env: HighwayEnv,
        policy,
        episode_seed_fn: Callable[[int], int],
        policy_seed_fn: Callable[[int], int] | None = None,
        on_step=None,
    ):
        self.env = env
        self.policy = policy
        self.episode_seed_fn = episode_seed_fn
        self.policy_seed_fn = policy_seed_fn
        self.on_step = on_step
        self.episode_index = 0
        self.global_step = 0
        self.obs = None  # None before the first reset and after a final step
        self.stats: EpisodeStats | None = None

    def reset(self) -> None:
        self.obs = self.env.reset(self.episode_seed_fn(self.episode_index))
        if self.policy_seed_fn is not None:
            self.policy.reset(self.policy_seed_fn(self.episode_index))
        self.stats = EpisodeStats(self.env.ego_lane())

    def step(self, action: int | None = None, auto_reset: bool = True) -> StepOutcome:
        obs = self.obs
        if action is None:
            action = self.policy.act(obs)
        outcome = self.env.step(action)
        self.global_step += 1
        self.stats.add(outcome)
        if self.on_step is not None:
            self.on_step(obs, action, outcome)
        ended = outcome.terminated or outcome.truncated
        self.obs = None if ended else outcome.observation
        if ended and auto_reset:
            self.episode_index += 1
            self.reset()
        return outcome

    def episode(self) -> EpisodeStats:
        """One episode from its reset to its end, with no reset after it."""
        self.reset()
        while self.obs is not None:
            self.step(auto_reset=False)
        return self.stats
