"""Experiment configuration: a flat, sectioned key-value text format.

Files look like INI without interpolation:

    # comment
    [experiment]
    agent = dqn
    seeds = 7, 8, 9

    [env]
    lane_count = 3

Every key is declared in ``SCHEMA`` below with its type, default, and help
text. Unknown sections, unknown keys, duplicate keys, and type or invariant
violations are hard errors reported with the offending file and line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any

from .dqn import DqnConfig
from .env import GhrParams, RoadConfig
from .errors import ConfigError
from .ppo import PpoConfig
from .reward import RewardParams, RewardWeights
from .rules import RuleParams

AGENTS = ("dqn", "ppo", "rules", "random")
SCENARIOS = ("highway", "merge")


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {raw.strip()!r}")
    return value


def _parse_int_list(raw: str) -> tuple[int, ...]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("expected at least one integer")
    return tuple(int(part) for part in items)


_PARSERS = {
    "int": int,
    "float": _parse_float,
    "bool": _parse_bool,
    "str": lambda raw: raw.strip(),
    "int_list": _parse_int_list,
}

# section -> key -> (type, default, help)
SCHEMA: dict[str, dict[str, tuple[str, Any, str]]] = {
    "experiment": {
        "agent": ("str", None, f"decision agent, one of {', '.join(AGENTS)} (required)"),
        "scenario": ("str", "highway", f"driving scenario, one of {', '.join(SCENARIOS)}"),
        "seeds": ("int_list", (0,), "comma-separated seeds; train runs once per seed"),
        "total_env_steps": ("int", 50_000, "environment steps per training run"),
        "eval_every": ("int", 5_000, "run a deterministic evaluation every this many steps"),
        "eval_episodes": ("int", 10, "episodes per evaluation"),
        "dqn_checkpoint": ("str", "", "path to a trained dqn checkpoint (compare/eval)"),
        "ppo_checkpoint": ("str", "", "path to a trained ppo checkpoint (compare/eval)"),
    },
    "env": {
        "lane_count": ("int", 3, "number of lanes, including the merge ramp"),
        "lane_width": ("float", 4.0, "lane width in meters"),
        "road_length": ("float", 1000.0, "nominal road length in meters"),
        "merge_ramp_end_x": ("float", 300.0, "where the ramp lane ends (merge only)"),
        "n_traffic": ("int", 6, "number of traffic vehicles"),
        "horizon_steps": ("int", 40, "decision steps before truncation"),
        "ghr_c": ("float", 15.0, "car-following gain"),
        "ghr_m": ("float", 0.0, "car-following speed exponent"),
        "ghr_l": ("float", 2.0, "car-following spacing exponent"),
        "ghr_tau": ("float", 0.0, "car-following reaction delay in seconds"),
    },
    "reward": {
        "w_safety": ("float", 1.0, "weight of the safety term"),
        "w_comfort": ("float", 0.3, "weight of the comfort term"),
        "w_efficiency": ("float", 0.7, "weight of the efficiency term"),
        "tau_safe": ("float", 1.5, "safe time headway in seconds"),
        "a_max": ("float", 5.0, "acceleration scale in m/s^2"),
        "kappa_lane_change": ("float", 0.1, "flat comfort cost per lane change"),
        "v_min": ("float", 20.0, "speed of zero efficiency, m/s"),
        "v_max": ("float", 30.0, "speed of full efficiency, m/s"),
    },
    "dqn": {
        "gamma": ("float", 0.99, "discount factor"),
        "learning_rate": ("float", 0.001, "Adam learning rate"),
        "batch_size": ("int", 64, "replay minibatch size"),
        "buffer_capacity": ("int", 50_000, "replay ring-buffer capacity"),
        "target_sync_every": ("int", 1000, "steps between hard target syncs"),
        "target_sync_unit": ("str", "gradient", "sync counter: 'gradient' or 'env'"),
        "epsilon_start": ("float", 1.0, "initial exploration rate"),
        "epsilon_end": ("float", 0.05, "final exploration rate"),
        "epsilon_decay_steps": ("int", 10_000, "env steps of linear epsilon decay"),
        "learn_start": ("int", 1000, "transitions required before learning"),
        "hidden_sizes": ("int_list", (128, 128), "hidden layer widths"),
    },
    "ppo": {
        "clip_epsilon": ("float", 0.2, "surrogate clipping half-width"),
        "gae_lambda": ("float", 0.95, "advantage estimation decay"),
        "gamma": ("float", 0.99, "discount factor"),
        "rollout_length": ("int", 2048, "steps collected per update"),
        "epochs": ("int", 10, "optimization epochs per rollout"),
        "minibatch_size": ("int", 256, "minibatch size inside each epoch"),
        "policy_lr": ("float", 0.0003, "policy Adam learning rate"),
        "value_lr": ("float", 0.001, "value Adam learning rate"),
        "entropy_coef": ("float", 0.01, "entropy bonus weight (0 disables)"),
        "normalize_advantages": ("bool", True, "normalize advantages per rollout"),
        "hidden_sizes": ("int_list", (128, 128), "hidden layer widths"),
    },
    "rules": {
        "headway_change_trigger": ("float", 2.0, "headway (s) that triggers a change"),
        "gap_accept_front": ("float", 15.0, "required front gap in the target lane, m"),
        "gap_accept_rear": ("float", 10.0, "required rear gap in the target lane, m"),
        "speed_advantage_min": ("float", 2.0, "required target-lane speed advantage, m/s"),
    },
}


@dataclass(frozen=True)
class EnvSettings:
    road: RoadConfig
    ghr: GhrParams
    n_traffic: int
    horizon: int


@dataclass(frozen=True)
class ExperimentConfig:
    agent: str
    scenario: str
    seeds: tuple[int, ...]
    total_env_steps: int
    eval_every: int
    eval_episodes: int
    dqn_checkpoint: str
    ppo_checkpoint: str
    env: EnvSettings
    weights: RewardWeights
    reward_params: RewardParams
    dqn: DqnConfig
    ppo: PpoConfig
    rules: RuleParams


def describe_keys() -> str:
    """Human-readable key reference, used by the CLI help."""
    lines = []
    for section, keys in SCHEMA.items():
        lines.append(f"[{section}]")
        for key, (kind, default, help_text) in keys.items():
            if isinstance(default, tuple):
                shown = ", ".join(str(v) for v in default)
            else:
                shown = "(required)" if default is None else str(default)
            lines.append(f"  {key} <{kind}> (default: {shown})")
            lines.append(f"      {help_text}")
    return "\n".join(lines)


def _parse_lines(text: str, origin: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Raw (value, line) per section/key, validating structure only."""
    sections: dict[str, dict[str, tuple[str, int]]] = {}
    current: str | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in SCHEMA:
                raise ConfigError(f"{origin}:{lineno}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{origin}:{lineno}: duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA[current]:
            raise ConfigError(f"{origin}:{lineno}: unknown key {key!r} in section [{current}]")
        if key in sections[current]:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r} in [{current}]")
        sections[current][key] = (value.strip(), lineno)
    return sections


class _SectionView:
    def __init__(self, raw: dict[str, dict[str, tuple[str, int]]], section: str, origin: str):
        self._raw = raw.get(section, {})
        self._section = section
        self._origin = origin

    def get(self, key: str):
        kind, default, _ = SCHEMA[self._section][key]
        if key not in self._raw:
            if default is None:
                raise ConfigError(
                    f"{self._origin}: missing required key {key!r} in [{self._section}]"
                )
            return default
        raw_value, lineno = self._raw[key]
        try:
            return _PARSERS[kind](raw_value)
        except ValueError as exc:
            raise ConfigError(f"{self._origin}:{lineno}: bad value for {key!r}: {exc}") from exc

    def build(self, cls):
        """``cls`` from the keys named like its fields, with invariant errors blamed."""
        try:
            return cls(**{f.name: self.get(f.name) for f in fields(cls)})
        except ValueError as exc:
            raise self.blame(str(exc)) from exc

    def blame(self, message: str) -> ConfigError:
        """Attach the most plausible line to an invariant failure message."""
        for key in self._raw:
            if key in message:
                return ConfigError(f"{self._origin}:{self._raw[key][1]}: {message}")
        return ConfigError(f"{self._origin}: [{self._section}] {message}")


def parse_config(text: str, origin: str = "<config>") -> ExperimentConfig:
    raw = _parse_lines(text, origin)

    experiment = _SectionView(raw, "experiment", origin)
    agent = experiment.get("agent").lower()
    if agent not in AGENTS:
        raise experiment.blame(f"agent must be one of {AGENTS}, got {agent!r}")
    scenario = experiment.get("scenario").lower()
    if scenario not in SCENARIOS:
        raise experiment.blame(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    total_env_steps = experiment.get("total_env_steps")
    if total_env_steps < 0:
        raise experiment.blame("total_env_steps must be >= 0")
    eval_every = experiment.get("eval_every")
    eval_episodes = experiment.get("eval_episodes")
    if eval_every < 1:
        raise experiment.blame("eval_every must be >= 1")
    if eval_episodes < 1:
        raise experiment.blame("eval_episodes must be >= 1")

    env_view = _SectionView(raw, "env", origin)
    try:
        road = RoadConfig(
            lane_count=env_view.get("lane_count"),
            lane_width=env_view.get("lane_width"),
            road_length=env_view.get("road_length"),
            scenario=scenario,
            merge_ramp_end_x=env_view.get("merge_ramp_end_x"),
        )
    except ValueError as exc:
        raise env_view.blame(str(exc)) from exc
    try:
        ghr = GhrParams(
            c=env_view.get("ghr_c"),
            m=env_view.get("ghr_m"),
            l=env_view.get("ghr_l"),
            tau=env_view.get("ghr_tau"),
        )
    except ValueError as exc:
        # GhrParams names its fields c, m, l and tau; the keys add "ghr_".
        raise env_view.blame(f"ghr_{exc}") from exc
    n_traffic = env_view.get("n_traffic")
    horizon = env_view.get("horizon_steps")
    if n_traffic < 0:
        raise env_view.blame("n_traffic must be >= 0")
    if horizon < 1:
        raise env_view.blame("horizon_steps must be >= 1")

    reward_view = _SectionView(raw, "reward", origin)
    try:
        weights = RewardWeights(
            safety=reward_view.get("w_safety"),
            comfort=reward_view.get("w_comfort"),
            efficiency=reward_view.get("w_efficiency"),
        )
    except ValueError as exc:
        raise reward_view.blame(str(exc)) from exc
    reward_params = reward_view.build(RewardParams)
    dqn = _SectionView(raw, "dqn", origin).build(DqnConfig)
    ppo = _SectionView(raw, "ppo", origin).build(PpoConfig)
    rules = _SectionView(raw, "rules", origin).build(RuleParams)

    seeds = experiment.get("seeds")
    if any(s < 0 for s in seeds):
        raise experiment.blame("seeds must be non-negative")

    return ExperimentConfig(
        agent=agent,
        scenario=scenario,
        seeds=seeds,
        total_env_steps=total_env_steps,
        eval_every=eval_every,
        eval_episodes=eval_episodes,
        dqn_checkpoint=experiment.get("dqn_checkpoint"),
        ppo_checkpoint=experiment.get("ppo_checkpoint"),
        env=EnvSettings(road=road, ghr=ghr, n_traffic=n_traffic, horizon=horizon),
        weights=weights,
        reward_params=reward_params,
        dqn=dqn,
        ppo=ppo,
        rules=rules,
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, origin=str(path))
