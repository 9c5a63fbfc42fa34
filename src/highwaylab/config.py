"""Experiment configuration: a flat, sectioned key-value text format.

Files look like INI without interpolation:

    # comment
    [experiment]
    agent = dqn
    seeds = 7, 8, 9

    [env]
    lane_count = 3

Every key fills one field of a configuration dataclass, and that field
declares the key's type, default and invariants. ``SCHEMA`` adds only the
help text and reads the rest from the fields. Unknown sections, unknown keys,
duplicate keys, and type or invariant violations are hard errors reported
with the offending file and line.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Any

from .dqn import DqnConfig
from .env import DEFAULT_HORIZON, DEFAULT_N_TRAFFIC, SCENARIO_HIGHWAY, GhrParams, RoadConfig
from .errors import ConfigError, bound, check_bounds
from .ppo import PpoConfig
from .reward import RewardParams, RewardWeights
from .rules import RuleParams

AGENTS = ("dqn", "ppo", "rules", "random")
SCENARIOS = ("highway", "merge")


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
    "str": lambda raw: raw.strip(),
    "int_list": _parse_int_list,
}


@dataclass(frozen=True)
class EnvSettings:
    road: RoadConfig
    ghr: GhrParams
    n_traffic: int = bound(DEFAULT_N_TRAFFIC, 0)
    horizon_steps: int = bound(DEFAULT_HORIZON, 1)

    __post_init__ = check_bounds


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    agent: str
    scenario: str = SCENARIO_HIGHWAY
    seeds: tuple[int, ...] = (0,)
    total_env_steps: int = bound(50_000, 0)
    eval_every: int = bound(5_000, 1)
    eval_episodes: int = bound(10, 1)
    dqn_checkpoint: str = ""
    ppo_checkpoint: str = ""
    env: EnvSettings
    weights: RewardWeights
    reward_params: RewardParams
    dqn: DqnConfig
    ppo: PpoConfig
    rules: RuleParams

    def __post_init__(self) -> None:
        object.__setattr__(self, "agent", self.agent.lower())
        if self.agent not in AGENTS:
            raise ValueError(f"agent must be one of {AGENTS}, got {self.agent!r}")
        check_bounds(self)
        if any(s < 0 for s in self.seeds):
            raise ValueError("seeds must be non-negative")
        # Each seed trains into its own seed_<n> directory.
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")


# The dataclasses whose fields each section's keys fill; a key is its
# field's name behind the prefix given here.
_FILLS = {
    "experiment": ((ExperimentConfig, ""),),
    "env": ((RoadConfig, ""), (EnvSettings, ""), (GhrParams, "ghr_")),
    "reward": ((RewardWeights, "w_"), (RewardParams, "")),
    "dqn": ((DqnConfig, ""),),
    "ppo": ((PpoConfig, ""),),
    "rules": ((RuleParams, ""),),
}

# section -> key -> help text, in the order --help lists them
_HELP: dict[str, dict[str, str]] = {
    "experiment": {
        "agent": f"decision agent, one of {', '.join(AGENTS)} (required)",
        "scenario": f"driving scenario, one of {', '.join(SCENARIOS)}",
        "seeds": "comma-separated seeds; train runs once per seed",
        "total_env_steps": "environment steps per training run",
        "eval_every": "run a deterministic evaluation every this many steps",
        "eval_episodes": "episodes per evaluation",
        "dqn_checkpoint": "path to a trained dqn checkpoint (compare/eval)",
        "ppo_checkpoint": "path to a trained ppo checkpoint (compare/eval)",
    },
    "env": {
        "lane_count": "number of lanes, including the merge ramp",
        "lane_width": "lane width in meters",
        "merge_ramp_end_x": "where the ramp lane ends (merge only)",
        "n_traffic": "number of traffic vehicles",
        "horizon_steps": "decision steps before truncation",
        "ghr_c": "car-following gain",
        "ghr_m": "car-following speed exponent",
        "ghr_l": "car-following spacing exponent",
    },
    "reward": {
        "w_safety": "weight of the safety term",
        "w_comfort": "weight of the comfort term",
        "w_efficiency": "weight of the efficiency term",
        "tau_safe": "safe time headway in seconds",
        "a_max": "acceleration scale in m/s^2",
        "kappa_lane_change": "flat comfort cost per lane change",
        "v_min": "speed of zero efficiency, m/s",
        "v_max": "speed of full efficiency, m/s",
    },
    "dqn": {
        "gamma": "discount factor",
        "learning_rate": "Adam learning rate",
        "batch_size": "replay minibatch size",
        "buffer_capacity": "replay ring-buffer capacity",
        "target_sync_every": "gradient steps between hard target syncs",
        "epsilon_start": "initial exploration rate",
        "epsilon_end": "final exploration rate",
        "epsilon_decay_steps": "env steps of linear epsilon decay",
        "learn_start": "transitions required before learning",
        "hidden_sizes": "hidden layer widths",
    },
    "ppo": {
        "clip_epsilon": "surrogate clipping half-width",
        "gae_lambda": "advantage estimation decay",
        "gamma": "discount factor",
        "rollout_length": "steps collected per update",
        "epochs": "optimization epochs per rollout",
        "minibatch_size": "minibatch size inside each epoch",
        "policy_lr": "policy Adam learning rate",
        "value_lr": "value Adam learning rate",
        "entropy_coef": "entropy bonus weight (0 disables)",
        "hidden_sizes": "hidden layer widths",
    },
    "rules": {
        "headway_change_trigger": "headway (s) that triggers a change",
        "gap_accept_front": "required front gap in the target lane, m",
        "gap_accept_rear": "required rear gap in the target lane, m",
        "speed_advantage_min": "required target-lane speed advantage, m/s",
    },
}


def _schema() -> dict[str, dict[str, tuple[str, Any, str]]]:
    """Each key's type and default, read from the field the key fills."""
    schema = {}
    for section, keys in _HELP.items():
        named = {prefix + f.name: f for cls, prefix in _FILLS[section] for f in fields(cls)}
        schema[section] = {}
        for key, help_text in keys.items():
            field = named[key]
            default = None if field.default is MISSING else field.default
            # field.type is the annotation as a string: "int", "float", "str"
            kind = "int_list" if field.type == "tuple[int, ...]" else field.type
            schema[section][key] = (kind, default, help_text)
    return schema


# section -> key -> (type, default, help); a default of None marks a required key
SCHEMA = _schema()


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

    def build(self, cls, prefix: str = "", **given):
        """``cls`` with each field not ``given`` read from the key ``prefix`` +
        its name; an invariant error names the key and is blamed on its line."""
        values = {
            f.name: given[f.name] if f.name in given else self.get(prefix + f.name)
            for f in fields(cls)
        }
        try:
            return cls(**values)
        except ValueError as exc:
            message = str(exc)
            if message.partition(" ")[0] in values:  # e.g. GhrParams says "c", not "ghr_c"
                message = prefix + message
            raise self.blame(message) from exc

    def blame(self, message: str) -> ConfigError:
        """Cite the line of every key an invariant failure message names, in line order."""
        lines = sorted(line for key, (_, line) in self._raw.items() if key in message)
        if lines:
            return ConfigError(f"{self._origin}:{','.join(map(str, lines))}: {message}")
        return ConfigError(f"{self._origin}: [{self._section}] {message}")


def parse_config(text: str, origin: str = "<config>") -> ExperimentConfig:
    raw = _parse_lines(text, origin)
    experiment = _SectionView(raw, "experiment", origin)
    env = _SectionView(raw, "env", origin)
    reward = _SectionView(raw, "reward", origin)
    # The road needs the scenario: check it here so that its own line is blamed.
    scenario = experiment.get("scenario").lower()
    if scenario not in SCENARIOS:
        raise experiment.blame(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    return experiment.build(
        ExperimentConfig,
        scenario=scenario,
        env=env.build(
            EnvSettings,
            road=env.build(RoadConfig, scenario=scenario),
            ghr=env.build(GhrParams, "ghr_"),
        ),
        weights=reward.build(RewardWeights, "w_"),
        reward_params=reward.build(RewardParams),
        dqn=_SectionView(raw, "dqn", origin).build(DqnConfig),
        ppo=_SectionView(raw, "ppo", origin).build(PpoConfig),
        rules=_SectionView(raw, "rules", origin).build(RuleParams),
    )


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "rb") as f:
            # A byte-order mark is dropped after decoding, so error offsets count from byte 0.
            text = f.read().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 at byte {exc.start}: {exc.reason}") from exc
    return parse_config(text, origin=str(path))
