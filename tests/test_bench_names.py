"""The names the benchmark tracer wraps exist, and run as often as it expects.

`bench/tracing.py` is loaded from its file, unchanged: a refactor that
renames or bypasses a traced function or method would silently drop that
name's per-layer metrics.
"""

import importlib
import importlib.util
import math
from collections import Counter
from pathlib import Path

import pytest

from highwaylab.config import parse_config
from highwaylab.harness import build_eval_policy, run_train

TRACING_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    for module, attr in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"highwaylab.{module}"), attr))
    for module, cls_name, method in tracing.METHODS:
        cls = getattr(importlib.import_module(f"highwaylab.{module}"), cls_name)
        # Tracer.install wraps the method found in the class's own namespace.
        assert callable(vars(cls).get(method)), f"{cls_name}.{method}"


CONFIGS = {
    "dqn": """
[experiment]
agent = dqn
scenario = merge
seeds = 3
total_env_steps = 120
eval_every = 60
eval_episodes = 2

[dqn]
learn_start = 40
batch_size = 16
hidden_sizes = 8
""",
    "ppo": """
[experiment]
agent = ppo
scenario = merge
seeds = 3
total_env_steps = 100
eval_every = 64
eval_episodes = 2

[ppo]
rollout_length = 32
minibatch_size = 16
epochs = 1
hidden_sizes = 8
""",
    "rules": """
[experiment]
agent = rules
scenario = highway
seeds = 3
total_env_steps = 120
eval_every = 60
eval_episodes = 2
""",
}


# env.reset and env.step counts of these runs, measured on the per-path
# loops that the episode driver replaced.
MEASURED = {"dqn": (8, 280), "ppo": (9, 288), "rules": (8, 280)}
# nets.write_archive and nets.read_archive counts of these runs and one load
# of the final checkpoint, measured when each learner wrote and read its own
# archive: the checkpoint codec in nets must still go through those names.
ARCHIVES = {"dqn": (3, 1), "ppo": (2, 1), "rules": (0, 0)}


def traced_counts(config, out_dir) -> Counter:
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        run_train(config, out_dir)
        if config.agent in ("dqn", "ppo"):
            build_eval_policy(config, out_dir / "seed_3" / "checkpoint_final.bin")
    finally:
        tracer.uninstall()
    return Counter(tracer.names[i] for i in tracer.name_id)


@pytest.mark.parametrize("agent", sorted(CONFIGS))
def test_traced_call_counts(tmp_path, agent):
    config = parse_config(CONFIGS[agent])
    counts = traced_counts(config, tmp_path)
    run_dir = tmp_path / "seed_3"
    episodes = len((run_dir / "metrics.csv").read_text().splitlines()) - 1
    evals = len((run_dir / "eval.csv").read_text().splitlines()) - 1
    steps = config.total_env_steps
    if agent == "ppo":
        rollouts = math.ceil(steps / config.ppo.rollout_length)
        steps = rollouts * config.ppo.rollout_length
        assert counts["ppo.collect"] == rollouts
    assert episodes >= 2 and evals >= 1
    assert counts["harness.recorder.on_step"] == steps
    # Greedy evaluation reads the network directly, never DqnLearner.act.
    assert counts["dqn.act"] == (steps if agent == "dqn" else 0)
    # One reset starts the run, one follows every finished training
    # episode (the last step's included) and one starts each eval episode.
    assert counts["env.reset"] == 1 + episodes + evals * config.eval_episodes
    assert (counts["env.reset"], counts["env.step"]) == MEASURED[agent]
    assert (counts["nets.write_archive"], counts["nets.read_archive"]) == ARCHIVES[agent]
