"""Experiment orchestration: training, evaluation, trajectory export, comparison.

Everything written to disk is byte-deterministic for a fixed configuration:
floats are printed with 9 significant digits, and every statistic derived
from a logged value (moving windows, evaluation means) is computed from the
value as it appears in the file, i.e. after the 9-digit round trip. Seeds are
derived through explicit, documented rules so reruns and different agents
see identical episode layouts.

Per-seed training output directory:

    metrics.csv   one row per finished episode (schema in TRAIN_CSV_COLUMNS)
    faults.csv    per-step cumulative fault count and fault seconds
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
from .config import AGENTS, ExperimentConfig
from .dqn import DqnLearner, Transition, select_action
from .env import DECISION_PERIOD, OBS_DIM, HighwayEnv, StepOutcome
from .episodes import EpisodeDriver, EpisodeStats
from .errors import CheckpointError, CheckpointMismatchError, TrainingDivergenceError
from .nets import NetworkSpec, ParameterSet, forward
from .ppo import PpoLearner, RolloutCollector
from .rules import RuleAgent

# off_road is always 0: the ego cannot leave its clamped lanes. Kept for the files' layout.
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
# comparison.csv has eval.csv's summary columns; _summary_row fills both
COMPARE_CSV_COLUMNS = ("agent", "episodes", *EVAL_CSV_COLUMNS[2:])

_TAG_TRAIN_EPISODE = 101
_TAG_RANDOM_TRAIN = 202
_TAG_RANDOM_EVAL = 303
_EVAL_SEED_STRIDE = 1_000_003  # spreads repeated passes over the seed list

# The learner class of each learned agent, configured by the section of the same name.
LEARNERS = {"dqn": DqnLearner, "ppo": PpoLearner}


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


def _cell(value) -> str:
    """A CSV cell: text as is, booleans as 0/1, integers exact, floats by fmt9."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (str, int, np.integer)):
        return str(value)  # a seed above 1e9 would lose digits in fmt9
    return fmt9(value)


def _write_csv(path: Path, columns, rows) -> None:
    lines = [",".join(columns)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _sample_std(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(np.asarray(values, dtype=np.float64), ddof=1))


# ---------------------------------------------------------------------------
# Metrics recording
# ---------------------------------------------------------------------------


class TrainRecorder:
    """Per-episode rows, the 100-episode moving window and the per-step fault rows.

    A fault is a step on which the ego is crashed. A crash ends its
    episode, so every fault lasts one decision period and the cumulative
    fault seconds are ``faults * DECISION_PERIOD``.
    """

    def __init__(self, window: int = 100):
        self.faults = 0
        self.fault_rows: list[tuple[int, int, float]] = []
        self._window = deque(maxlen=window)
        self.metric_rows: list[tuple] = []

    def on_step(self, stats: EpisodeStats, outcome: StepOutcome, global_step: int) -> None:
        info = outcome.info
        self.faults += info["crashed"]
        self.fault_rows.append((global_step, self.faults, self.faults * DECISION_PERIOD))
        if not (outcome.terminated or outcome.truncated):
            return
        ret = round9(stats.total)  # window statistics must match the file
        self._window.append(ret)
        window = list(self._window)
        self.metric_rows.append(
            (
                len(self.metric_rows),
                global_step,
                ret,
                stats.length,
                stats.collided,
                0,
                float(np.mean(window)),
                _sample_std(window),
                self.faults,
                self.faults * DECISION_PERIOD,
            )
        )

    def write(self, out_dir: Path) -> None:
        _write_csv(out_dir / "metrics.csv", TRAIN_CSV_COLUMNS, self.metric_rows)
        _write_csv(out_dir / "faults.csv", FAULTS_CSV_COLUMNS, self.fault_rows)


# ---------------------------------------------------------------------------
# Evaluation policies
# ---------------------------------------------------------------------------


class RandomPolicy:
    """Uniform actions from a stream that ``reset`` seeds for each episode."""

    def __init__(self, tag: int = _TAG_RANDOM_EVAL):
        self._tag = tag

    def reset(self, episode_seed: int) -> None:
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

    def reset(self, episode_seed: int) -> None:
        self._agent.reset()

    def act(self, obs: np.ndarray) -> int:
        return int(self._agent.act(obs))


class GreedyPolicy:
    """`select_action` at epsilon 0 on a network's outputs; keeps no per-episode state."""

    def __init__(self, spec: NetworkSpec, params: ParameterSet):
        self._spec = spec
        self._params = params

    def reset(self, episode_seed: int) -> None:
        pass

    def act(self, obs: np.ndarray) -> int:
        return select_action(forward(self._spec, self._params, obs), 0.0, None)


def make_env(config: ExperimentConfig) -> HighwayEnv:
    return HighwayEnv(
        road=config.env.road,
        ghr=config.env.ghr,
        weights=config.weights,
        reward_params=config.reward_params,
        n_traffic=config.env.n_traffic,
        horizon=config.env.horizon_steps,
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
    learner = LEARNERS[config.agent].load(path, getattr(config, config.agent))
    spec, params = learner.acting_network()
    if (spec.input_dim, spec.output_dim) != (OBS_DIM, N_ACTIONS):
        raise CheckpointMismatchError(
            f"checkpoint network maps {spec.input_dim} inputs to {spec.output_dim} "
            f"outputs, the environment needs {OBS_DIM} to {N_ACTIONS}"
        )
    return GreedyPolicy(spec, params)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def run_episode(env: HighwayEnv, policy, episode_seed: int, on_step=None) -> EpisodeStats:
    seed = lambda _: episode_seed
    return EpisodeDriver(env, policy, seed, policy_seed_fn=seed, on_step=on_step).episode()


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


def _summary_row(first, second, summary: dict) -> tuple:
    """An eval.csv or comparison.csv row: two key columns, then the summary."""
    return (first, second, *(summary[key] for key in EVAL_CSV_COLUMNS[2:]))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


class TrainingRun:
    """One seed's training run: env, driver, recorder, learner and evaluation state.

    `advance` is the loop body: one driver step, or for PPO one rollout and
    its update, then any due evaluation. The driver's one hook lets DQN learn
    from each step, then hands it to the recorder.
    """

    def __init__(self, config: ExperimentConfig, run_seed: int, out_dir):
        self.config = config
        self.out_dir = Path(out_dir)
        self.recorder = TrainRecorder()
        self.eval_rows: list[tuple] = []
        self.best_return = -math.inf
        self.next_eval_at = config.eval_every
        env = make_env(config)
        episode_seed = functools.partial(train_episode_seed, run_seed)
        agent = config.agent
        self.learner = None
        if agent in LEARNERS:
            self.learner = LEARNERS[agent](OBS_DIM, N_ACTIONS, getattr(config, agent), run_seed)
        if agent == "ppo":
            self.driver = RolloutCollector(env, episode_seed, on_step=self._on_step)
        elif agent == "dqn":
            self.driver = EpisodeDriver(env, self.learner, episode_seed, on_step=self._on_step)
        else:
            if agent == "rules":
                policy = RulePolicy(config)
            else:
                policy = RandomPolicy(tag=_TAG_RANDOM_TRAIN)
            policy_seed = functools.partial(derive_seed, run_seed)
            self.driver = EpisodeDriver(env, policy, episode_seed, policy_seed, self._on_step)
        self.driver.reset()

    def _on_step(self, obs, action, outcome: StepOutcome) -> None:
        if self.config.agent == "dqn":
            self.learner.observe(
                Transition(obs, action, outcome.reward.total, outcome.observation, outcome.terminated)
            )
            self.learner.train_step()
        self.recorder.on_step(self.driver.stats, outcome, self.driver.global_step)

    def advance(self) -> None:
        if self.config.agent == "ppo":
            self.learner.update(self.driver.collect(self.learner, self.config.ppo.rollout_length))
        else:
            self.driver.step()
        if self.driver.global_step >= self.next_eval_at:
            self._evaluate()

    def _evaluate(self) -> None:
        step = self.driver.global_step
        while self.next_eval_at <= step:
            self.next_eval_at += self.config.eval_every
        if self.learner is None:
            policy = build_eval_policy(self.config, None)
        else:
            policy = GreedyPolicy(*self.learner.acting_network())
        summary, _ = evaluate_policy(self.config, policy, self.config.eval_episodes)
        self.eval_rows.append(_summary_row(len(self.eval_rows), step, summary))
        print(
            f"  eval {len(self.eval_rows) - 1}: step={step} "
            f"mean_return={summary['mean_return']:.3f} "
            f"collision_rate={summary['collision_rate']:.2f}"
        )
        if summary["mean_return"] > self.best_return:
            self.best_return = summary["mean_return"]
            if self.learner is not None:
                self.learner.save(self.out_dir / "checkpoint_best.bin")

    def finish(self) -> None:
        """Write the three CSVs with every row recorded so far."""
        self.driver.on_step = None  # the hook refers back to this run: unhook so both free at once
        self.recorder.write(self.out_dir)
        _write_csv(self.out_dir / "eval.csv", EVAL_CSV_COLUMNS, self.eval_rows)


def train_seed(config: ExperimentConfig, run_seed: int, seed_dir: Path) -> None:
    """run_train's loop body: train (or log) one seed into seed_dir. However the run
    stops, the CSVs keep its rows so far; only a finished run saves checkpoint_final.bin."""
    seed_dir.mkdir(parents=True, exist_ok=True)
    print(f"[train] agent={config.agent} scenario={config.scenario} seed={run_seed}")
    run = TrainingRun(config, run_seed, seed_dir)
    diverged = False
    try:
        while run.driver.global_step < config.total_env_steps:
            run.advance()
        if run.learner is not None:
            run.learner.save(seed_dir / "checkpoint_final.bin")
    except TrainingDivergenceError as exc:
        diverged = True
        raise TrainingDivergenceError(
            f"seed {run_seed}, global step {run.driver.global_step}: {exc}"
        ) from exc
    finally:
        try:
            run.finish()
        except OSError:
            if not diverged:  # a failed write of the rows so far must not hide the divergence
                raise


def run_train(config: ExperimentConfig, out_dir) -> dict[int, Path]:
    """Train (or log) the configured agent once per seed; returns run dirs."""
    out_dir = Path(out_dir)
    run_dirs = {run_seed: out_dir / f"seed_{run_seed}" for run_seed in config.seeds}
    for run_seed, seed_dir in run_dirs.items():
        train_seed(config, run_seed, seed_dir)
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

    rows = [
        (
            i,
            eval_episode_seed(config.seeds, i),
            m.total,
            m.length,
            m.collided,
            0,
            m.mean_speed,
            m.lane_changes,
        )
        for i, m in enumerate(episodes)
    ]
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
                len(rows) + 1,
                ego.x,
                ego.y,
                outcome.info["ego_lane"],
                ego.v,
                int(action),
                outcome.reward.safety,
                outcome.reward.comfort,
                outcome.reward.efficiency,
                outcome.reward.total,
            )
        )

    run_episode(env, policy, seed, on_step=add_row)
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
    for agent in AGENTS:
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
        rows.append(_summary_row(agent, summary["episodes"], summary))
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
