"""Experiment orchestration: training, evaluation, trajectory export, comparison.

Everything written to disk is byte-deterministic for a fixed configuration:
floats are printed with 9 significant digits, and every statistic derived
from a logged value (moving windows, evaluation means) is computed from the
value as it appears in the file, i.e. after the 9-digit round trip. Seeds are
derived through explicit, documented rules so reruns and different agents
see identical episode layouts.

Per-seed training output directory:

    metrics.csv   one row per finished episode (schema in TRAIN_CSV_COLUMNS)
    faults.csv    per-step cumulative fault count and open-fault seconds
    eval.csv      one row per periodic deterministic evaluation
    checkpoint_final.bin / checkpoint_best.bin   (learned agents only)
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from collections import deque
from pathlib import Path

import numpy as np

from .actions import N_ACTIONS
from .config import ExperimentConfig
from .dqn import DqnLearner, Transition
from .env import DECISION_PERIOD, OBS_DIM, HighwayEnv, StepOutcome
from .episodes import EpisodeDriver, EpisodeStats
from .errors import CheckpointError, CheckpointMismatchError
from .nets import NetworkSpec, ParameterSet, forward
from .ppo import PpoLearner, RolloutCollector
from .rules import RuleAgent

TRAIN_CSV_COLUMNS = (
    "episode",
    "global_step",
    "return",
    "length",
    "collided",
    "off_road",
    "return_mean_100",
    "return_std_100",
    "faults_cum",
    "fault_duration_cum_s",
)
FAULTS_CSV_COLUMNS = ("global_step", "faults_cum", "fault_duration_cum_s")
EVAL_CSV_COLUMNS = (
    "eval_index",
    "global_step",
    "mean_return",
    "std_return",
    "collision_rate",
    "mean_speed",
)
EVAL_EPISODES_CSV_COLUMNS = (
    "episode",
    "seed",
    "return",
    "length",
    "collided",
    "off_road",
    "mean_speed",
    "lane_changes",
)
TRAJECTORY_CSV_COLUMNS = (
    "t",
    "x",
    "y",
    "lane",
    "v",
    "action",
    "r_safety",
    "r_comfort",
    "r_efficiency",
    "r_total",
)
COMPARE_CSV_COLUMNS = (
    "agent",
    "episodes",
    "mean_return",
    "std_return",
    "collision_rate",
    "mean_speed",
)

_TAG_TRAIN_EPISODE = 101
_TAG_RANDOM_TRAIN = 202
_TAG_RANDOM_EVAL = 303
_EVAL_SEED_STRIDE = 1_000_003  # spreads repeated passes over the seed list


def fmt9(value: float) -> str:
    """9-significant-digit decimal form; parsing it back reprints identically."""
    value = float(value)
    if value == 0.0:
        value = 0.0  # collapse -0.0
    return format(value, ".9g")


def round9(value: float) -> float:
    return float(fmt9(value))


def derive_seed(*keys: int) -> int:
    """Deterministic child seed from integer keys, stable across platforms."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1, np.uint32)[0])


def train_episode_seed(run_seed: int, episode_index: int) -> int:
    return derive_seed(run_seed, _TAG_TRAIN_EPISODE, episode_index)


def eval_episode_seed(seeds, index: int) -> int:
    """Episode i reuses the configured seed list, shifted on every repeat."""
    base = seeds[index % len(seeds)]
    return int(base) + _EVAL_SEED_STRIDE * (index // len(seeds))


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _sample_std(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values, dtype=np.float64), ddof=1))


# ---------------------------------------------------------------------------
# Metrics recording
# ---------------------------------------------------------------------------


class FaultLog:
    """Cumulative fault count and open-fault duration, sampled every step.

    A fault opens on the first step where the ego is crashed or off the
    road and closes at the next episode reset; duration accrues one decision
    period per step while a fault is open, the opening step included.
    """

    def __init__(self, period_s: float = DECISION_PERIOD):
        self.period_s = period_s
        self.count = 0
        self.duration_s = 0.0
        self.rows: list[tuple[int, int, float]] = []
        self._open = False

    def record_step(self, global_step: int, faulted: bool) -> None:
        if faulted and not self._open:
            self._open = True
            self.count += 1
        if self._open:
            self.duration_s += self.period_s
        self.rows.append((global_step, self.count, self.duration_s))

    def episode_reset(self) -> None:
        self._open = False


class TrainRecorder:
    """Per-episode rows, the 100-episode moving window and the fault log."""

    def __init__(self, window: int = 100):
        self.faults = FaultLog()
        self._window = deque(maxlen=window)
        self.metric_rows: list[tuple[str, ...]] = []

    def on_step(self, stats: EpisodeStats, outcome: StepOutcome, global_step: int) -> None:
        info = outcome.info
        self.faults.record_step(global_step, info["crashed"] or info["off_road"])
        if not (outcome.terminated or outcome.truncated):
            return
        ret = round9(stats.total)  # window statistics must match the file
        self._window.append(ret)
        window = list(self._window)
        self.metric_rows.append(
            (
                str(len(self.metric_rows)),
                str(global_step),
                fmt9(ret),
                str(stats.length),
                str(int(stats.collided)),
                str(int(stats.off_road)),
                fmt9(float(np.mean(window))),
                fmt9(_sample_std(window)),
                str(self.faults.count),
                fmt9(self.faults.duration_s),
            )
        )
        self.faults.episode_reset()  # no step is logged before the next reset

    def write(self, out_dir: Path) -> None:
        _write_csv(out_dir / "metrics.csv", TRAIN_CSV_COLUMNS, self.metric_rows)
        fault_rows = [
            (str(step), str(count), fmt9(duration))
            for step, count, duration in self.faults.rows
        ]
        _write_csv(out_dir / "faults.csv", FAULTS_CSV_COLUMNS, fault_rows)


# ---------------------------------------------------------------------------
# Evaluation policies
# ---------------------------------------------------------------------------


class RandomPolicy:
    """Seeded uniform actions; deterministic per evaluation episode."""

    def __init__(self, stream_seed: int = 0, tag: int = _TAG_RANDOM_EVAL):
        self._tag = tag
        self._rng = np.random.default_rng(derive_seed(stream_seed, tag))

    def reset(self, episode_seed: int, env: HighwayEnv) -> None:
        self._rng = np.random.default_rng(derive_seed(episode_seed, self._tag))

    def act(self, obs: np.ndarray) -> int:
        return int(self._rng.integers(N_ACTIONS))


class RulePolicy:
    def __init__(self, config: ExperimentConfig):
        self._agent = RuleAgent(
            params=config.rules,
            lane_count=config.env.road.lane_count,
            lane_width=config.env.road.lane_width,
        )

    def reset(self, episode_seed: int, env: HighwayEnv) -> None:
        self._agent.reset()

    def act(self, obs: np.ndarray) -> int:
        return int(self._agent.act(obs))


class GreedyPolicy:
    """Argmax of a network's outputs; keeps no per-episode state."""

    def __init__(self, spec: NetworkSpec, params: ParameterSet):
        self._spec = spec
        self._params = params

    def reset(self, episode_seed: int, env: HighwayEnv) -> None:
        pass

    def act(self, obs: np.ndarray) -> int:
        return int(np.argmax(forward(self._spec, self._params, obs)))


def make_env(config: ExperimentConfig) -> HighwayEnv:
    return HighwayEnv(
        road=config.env.road,
        ghr=config.env.ghr,
        weights=config.weights,
        reward_params=config.reward_params,
        n_traffic=config.env.n_traffic,
        horizon=config.env.horizon,
    )


def build_eval_policy(config: ExperimentConfig, checkpoint: str | Path | None):
    """Deterministic evaluation-time policy for the configured agent."""
    if config.agent == "random":
        return RandomPolicy()
    if config.agent == "rules":
        return RulePolicy(config)
    if checkpoint is None or str(checkpoint) == "":
        raise CheckpointError(f"agent {config.agent!r} needs a checkpoint to evaluate")
    path = Path(checkpoint)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    if config.agent == "dqn":
        learner = DqnLearner.load(path, config.dqn)
        spec, params = learner.spec, learner.params
    else:
        learner = PpoLearner.load(path, config.ppo)
        spec, params = learner.policy_spec, learner.policy_params
    if (spec.input_dim, spec.output_dim) != (OBS_DIM, N_ACTIONS):
        raise CheckpointMismatchError(
            f"checkpoint network maps {spec.input_dim} inputs to {spec.output_dim} "
            f"outputs, the environment needs {OBS_DIM} to {N_ACTIONS}"
        )
    return GreedyPolicy(spec, params)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def run_episode(env: HighwayEnv, policy, episode_seed: int) -> EpisodeStats:
    seed = lambda _: episode_seed
    return EpisodeDriver(env, policy, seed, policy_seed_fn=seed).episode()


def evaluate_policy(
    config: ExperimentConfig, policy, n_episodes: int
) -> tuple[dict, list[EpisodeStats]]:
    """Run seeded deterministic episodes; aggregate mean, std, rates."""
    env = make_env(config)
    episodes = [
        run_episode(env, policy, eval_episode_seed(config.seeds, i)) for i in range(n_episodes)
    ]
    returns = [round9(m.total) for m in episodes]
    summary = {
        "episodes": n_episodes,
        "mean_return": float(np.mean(returns)),
        "std_return": _sample_std(returns),
        "collision_rate": float(np.mean([m.collided for m in episodes])),
        "mean_speed": float(np.mean([m.mean_speed for m in episodes])),
    }
    return summary, episodes


def _summary_row(first: str, second: str, summary: dict) -> tuple[str, ...]:
    """An eval.csv or comparison.csv row: two key columns, then the summary."""
    return (first, second, *(fmt9(summary[key]) for key in EVAL_CSV_COLUMNS[2:]))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class _PeriodicEval:
    """Shared evaluation cadence, best-checkpoint tracking, and eval.csv rows."""

    def __init__(self, config: ExperimentConfig, out_dir: Path, make_policy, save_checkpoint):
        self.config = config
        self.out_dir = out_dir
        self.make_policy = make_policy
        self.save_checkpoint = save_checkpoint
        self.rows: list[tuple[str, ...]] = []
        self.best = -math.inf
        self.next_at = config.eval_every
        self.index = 0

    def maybe_run(self, global_step: int) -> None:
        if global_step < self.next_at:
            return
        while self.next_at <= global_step:
            self.next_at += self.config.eval_every
        summary, _ = evaluate_policy(self.config, self.make_policy(), self.config.eval_episodes)
        self.rows.append(_summary_row(str(self.index), str(global_step), summary))
        print(
            f"  eval {self.index}: step={global_step} "
            f"mean_return={summary['mean_return']:.3f} "
            f"collision_rate={summary['collision_rate']:.2f}"
        )
        if summary["mean_return"] > self.best:
            self.best = summary["mean_return"]
            if self.save_checkpoint is not None:
                self.save_checkpoint(self.out_dir / "checkpoint_best.bin")
        self.index += 1

    def write(self) -> None:
        _write_csv(self.out_dir / "eval.csv", EVAL_CSV_COLUMNS, self.rows)


def _train_run(config: ExperimentConfig, run_seed: int, out_dir: Path) -> None:
    """One seed's run: every agent steps through one EpisodeDriver.

    DQN learns after every step, PPO after every rollout; rules and random
    agents only log their behaviour. Evaluation follows each step or rollout
    once the cadence is due, and uses a greedy or a separate scripted policy.
    """
    env = make_env(config)
    recorder = TrainRecorder()
    episode_seed = functools.partial(train_episode_seed, run_seed)
    learner = None
    if config.agent == "dqn":
        learner = DqnLearner(OBS_DIM, N_ACTIONS, config.dqn, seed=run_seed)

        def learn(obs, action, outcome: StepOutcome) -> None:
            learner.observe(
                Transition(obs, action, outcome.reward.total, outcome.observation, outcome.terminated)
            )
            learner.train_step()

        driver = EpisodeDriver(env, learner, episode_seed, on_step=learn, recorder=recorder)
        advance = driver.step
        make_eval_policy = lambda: GreedyPolicy(learner.spec, learner.params)
    elif config.agent == "ppo":
        learner = PpoLearner(OBS_DIM, N_ACTIONS, config.ppo, seed=run_seed)
        driver = RolloutCollector(env, episode_seed, recorder)

        def advance() -> None:
            batch = driver.collect(
                learner.policy_spec,
                learner.policy_params,
                learner.value_spec,
                learner.value_params,
                config.ppo.rollout_length,
                learner.action_rng,
            )
            learner.prepare(batch)
            learner.update(batch)

        make_eval_policy = lambda: GreedyPolicy(learner.policy_spec, learner.policy_params)
    else:
        if config.agent == "rules":
            policy, eval_policy = RulePolicy(config), RulePolicy(config)
        else:
            policy = RandomPolicy(run_seed, tag=_TAG_RANDOM_TRAIN)
            eval_policy = RandomPolicy()
        policy_seed = functools.partial(derive_seed, run_seed)
        driver = EpisodeDriver(env, policy, episode_seed, policy_seed, recorder=recorder)
        advance = driver.step
        make_eval_policy = lambda: eval_policy
    evaluator = _PeriodicEval(
        config, out_dir, make_eval_policy, None if learner is None else learner.save
    )

    driver.reset()
    while driver.global_step < config.total_env_steps:
        advance()
        evaluator.maybe_run(driver.global_step)

    recorder.write(out_dir)
    evaluator.write()
    if learner is not None:
        learner.save(out_dir / "checkpoint_final.bin")


def run_train(config: ExperimentConfig, out_dir) -> dict[int, Path]:
    """Train (or log) the configured agent once per seed; returns run dirs."""
    out_dir = Path(out_dir)
    run_dirs: dict[int, Path] = {}
    for run_seed in config.seeds:
        seed_dir = out_dir / f"seed_{run_seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        print(f"[train] agent={config.agent} scenario={config.scenario} seed={run_seed}")
        _train_run(config, run_seed, seed_dir)
        run_dirs[run_seed] = seed_dir
    return run_dirs


# ---------------------------------------------------------------------------
# Evaluation, trajectory export, comparison
# ---------------------------------------------------------------------------


def run_eval(config: ExperimentConfig, checkpoint, out_dir) -> dict:
    """Evaluate one agent; writes eval_summary.json and eval_episodes.csv."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = build_eval_policy(config, checkpoint)
    summary, episodes = evaluate_policy(config, policy, config.eval_episodes)
    summary = dict(summary, agent=config.agent, scenario=config.scenario)

    rows = []
    for i, m in enumerate(episodes):
        rows.append(
            (
                str(i),
                str(eval_episode_seed(config.seeds, i)),
                fmt9(m.total),
                str(m.length),
                str(int(m.collided)),
                str(int(m.off_road)),
                fmt9(m.mean_speed),
                str(m.lane_changes),
            )
        )
    _write_csv(out_dir / "eval_episodes.csv", EVAL_EPISODES_CSV_COLUMNS, rows)
    (out_dir / "eval_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return summary


def export_trajectory(config: ExperimentConfig, checkpoint, seed: int, out_path) -> Path:
    """One deterministic episode as a per-decision-step CSV (10 columns)."""
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    policy = build_eval_policy(config, checkpoint)
    env = make_env(config)
    rows = []

    def add_row(obs, action, outcome: StepOutcome) -> None:
        ego = env.ego
        rows.append(
            (
                str(len(rows) + 1),
                fmt9(ego.x),
                fmt9(ego.y),
                str(outcome.info["ego_lane"]),
                fmt9(ego.v),
                str(int(action)),
                fmt9(outcome.reward.safety),
                fmt9(outcome.reward.comfort),
                fmt9(outcome.reward.efficiency),
                fmt9(outcome.reward.total),
            )
        )

    seed_fn = lambda _: seed
    EpisodeDriver(env, policy, seed_fn, policy_seed_fn=seed_fn, on_step=add_row).episode()
    _write_csv(out_path, TRAJECTORY_CSV_COLUMNS, rows)
    return out_path


def compare(config: ExperimentConfig, out_dir) -> tuple[list[dict], dict[str, str]]:
    """Evaluate dqn, ppo, rules, and random on identical seeds.

    Returns (table rows, per-agent errors). Learned agents read their
    checkpoints from the [experiment] dqn_checkpoint / ppo_checkpoint keys.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table: list[dict] = []
    errors: dict[str, str] = {}
    rows = []
    for agent in ("dqn", "ppo", "rules", "random"):
        agent_config = dataclasses.replace(config, agent=agent)
        checkpoint = {"dqn": config.dqn_checkpoint, "ppo": config.ppo_checkpoint}.get(agent)
        try:
            policy = build_eval_policy(agent_config, checkpoint)
        except CheckpointError as exc:
            errors[agent] = str(exc)
            continue
        summary, _ = evaluate_policy(agent_config, policy, config.eval_episodes)
        summary = dict(summary, agent=agent)
        table.append(summary)
        rows.append(_summary_row(agent, str(summary["episodes"]), summary))
    _write_csv(out_dir / "comparison.csv", COMPARE_CSV_COLUMNS, rows)

    header = f"{'agent':<8} {'mean_return':>12} {'std':>10} {'collisions':>11} {'mean_speed':>11}"
    print(header)
    for row in table:
        print(
            f"{row['agent']:<8} {row['mean_return']:>12.3f} {row['std_return']:>10.3f} "
            f"{row['collision_rate']:>11.2f} {row['mean_speed']:>11.2f}"
        )
    for agent, message in errors.items():
        print(f"{agent:<8} unavailable: {message}")
    return table, errors
