"""The benchmark's workloads: each turns a benchmark seed into config text.

The program under test sees only the generated config text. The benchmark
seed picks the config's run seed, so one seed always gives the same inputs.
Standard library only: the parent process never imports numpy.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seed whose outputs are pinned in golden.json.
DEFAULT_SEED = 0

_DQN_MERGE = """\
[experiment]
agent = dqn
scenario = merge
seeds = {seeds}
total_env_steps = {steps}
eval_every = {eval_every}
eval_episodes = {eval_episodes}

[dqn]
epsilon_decay_steps = {decay_steps}
learn_start = {learn_start}
"""

_PPO_MERGE = """\
[experiment]
agent = ppo
scenario = merge
seeds = {seeds}
total_env_steps = {steps}
eval_every = {eval_every}
eval_episodes = {eval_episodes}

[ppo]
rollout_length = {rollout}
minibatch_size = {minibatch}
"""

_RULES_DENSE = """\
[experiment]
agent = rules
scenario = highway
seeds = {seeds}
total_env_steps = {steps}
eval_every = {eval_every}
eval_episodes = {eval_episodes}

[env]
lane_count = 4
n_traffic = 20
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    full: dict
    smoke: dict

    def config_text(self, seed: int, smoke: bool = False) -> str:
        fields = self.smoke if smoke else self.full
        return self.template.format(seeds=run_seed(seed), **fields)


def run_seed(seed: int) -> int:
    """The config's run seed for a benchmark seed."""
    return random.Random(seed).randrange(1_000_000)


WORKLOADS = {
    w.name: w
    for w in (
        # Learner-bound: a scaled-down acceptance criterion 5 run on the
        # default merge config (6 vehicles, 128-128 nets, batch 64).
        Workload(
            name="dqn_merge",
            template=_DQN_MERGE,
            full=dict(
                steps=1000,
                eval_every=1000,
                eval_episodes=5,
                decay_steps=500,
                learn_start=100,
            ),
            smoke=dict(
                steps=200, eval_every=100, eval_episodes=2, decay_steps=100, learn_start=64
            ),
        ),
        # Single-row forwards in collect, batch-256 passes in update.
        Workload(
            name="ppo_merge",
            template=_PPO_MERGE,
            full=dict(
                steps=2048, eval_every=2048, eval_episodes=5, rollout=2048, minibatch=256
            ),
            smoke=dict(steps=256, eval_every=128, eval_episodes=2, rollout=128, minibatch=64),
        ),
        # Simulator-bound, no networks: 20 vehicles on a 4-lane highway.
        Workload(
            name="rules_dense",
            template=_RULES_DENSE,
            full=dict(steps=1000, eval_every=1000, eval_episodes=5),
            smoke=dict(steps=100, eval_every=50, eval_episodes=2),
        ),
    )
}
