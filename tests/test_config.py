"""Config parsing: defaults, overrides, and line-precise error reporting."""

import hashlib
import json
import math
import random
from dataclasses import MISSING, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from highwaylab.actions import N_ACTIONS
from highwaylab.config import (
    SCHEMA,
    EnvSettings,
    ExperimentConfig,
    describe_keys,
    load_config,
    parse_config,
)
from highwaylab.dqn import MAX_BUFFER_CAPACITY, DqnConfig
from highwaylab.env import OBS_DIM, GhrParams, RoadConfig
from highwaylab.errors import ConfigError
from highwaylab.nets import MAX_LAYERS, MAX_NETWORK_PARAMETERS, NetworkSpec
from highwaylab.ppo import MAX_ROLLOUT_LENGTH, PpoConfig, PpoLearner
from highwaylab.reward import RewardParams, RewardWeights
from highwaylab.rules import RuleParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

MINIMAL = """
[experiment]
agent = dqn
"""


class TestParsing:
    def test_minimal_config_uses_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.agent == "dqn"
        assert cfg.scenario == "highway"
        assert cfg.seeds == (0,)
        assert cfg.env.road.lane_count == 3
        assert cfg.dqn.gamma == 0.99
        assert cfg.ppo.clip_epsilon == 0.2
        assert cfg.rules.gap_accept_front == 15.0

    def test_full_override(self):
        cfg = parse_config(
            """
            [experiment]
            agent = ppo
            scenario = merge
            seeds = 7, 8, 9
            total_env_steps = 1234
            eval_every = 100
            eval_episodes = 4

            [env]
            lane_count = 4
            n_traffic = 2
            horizon_steps = 12

            [reward]
            w_comfort = 0.5

            [ppo]
            entropy_coef = 0
            rollout_length = 128
            minibatch_size = 32

            [rules]
            gap_accept_rear = 12.5
            """
        )
        assert cfg.agent == "ppo"
        assert cfg.scenario == "merge"
        assert cfg.seeds == (7, 8, 9)
        assert cfg.env.road.lane_count == 4
        assert cfg.env.road.scenario == "merge"
        assert cfg.env.n_traffic == 2
        assert cfg.env.horizon_steps == 12
        assert cfg.weights.comfort == 0.5
        assert cfg.ppo.entropy_coef == 0.0
        assert cfg.rules.gap_accept_rear == 12.5

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            """
            # a comment
            [experiment]
            ; another comment
            agent = rules
            """
        )
        assert cfg.agent == "rules"

    def test_missing_required_agent(self):
        with pytest.raises(ConfigError, match="agent"):
            parse_config("[experiment]\nscenario = merge\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(MINIMAL)
        assert load_config(path).agent == "dqn"

    def test_load_config_drops_a_byte_order_mark(self, tmp_path):
        plain, marked = tmp_path / "plain.ini", tmp_path / "bom.ini"
        plain.write_bytes(MINIMAL.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + MINIMAL.encode("utf-8"))
        assert load_config(marked) == load_config(plain)

    def test_bad_byte_after_a_byte_order_mark_is_placed_in_the_file(self, tmp_path):
        path = tmp_path / "bom.ini"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        with pytest.raises(ConfigError, match="not valid UTF-8 at byte 5:"):
            load_config(path)


class TestLinePreciseErrors:
    def test_unknown_section_line(self):
        text = "[experiment]\nagent = dqn\n[wheels]\n"
        with pytest.raises(ConfigError, match=r":3: unknown section"):
            parse_config(text, origin="cfg")

    def test_unknown_key_line(self):
        text = "[experiment]\nagent = dqn\nturbo = yes\n"
        with pytest.raises(ConfigError, match=r"cfg:3: unknown key 'turbo'"):
            parse_config(text, origin="cfg")

    def test_bad_value_line(self):
        text = "[experiment]\nagent = dqn\n\n[env]\nlane_count = many\n"
        with pytest.raises(ConfigError, match=r"cfg:5: bad value for 'lane_count'"):
            parse_config(text, origin="cfg")

    def test_duplicate_key_line(self):
        text = "[experiment]\nagent = dqn\nagent = ppo\n"
        with pytest.raises(ConfigError, match=r"cfg:3: duplicate key"):
            parse_config(text, origin="cfg")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match=r"cfg:1: key outside"):
            parse_config("agent = dqn\n", origin="cfg")

    def test_invariant_violation_blames_key_line(self):
        text = "[experiment]\nagent = dqn\n\n[env]\nlane_count = 1\n"
        with pytest.raises(ConfigError, match=r"cfg:5: lane_count"):
            parse_config(text, origin="cfg")

    def test_cross_field_invariant_blamed(self):
        text = (
            "[experiment]\nagent = dqn\nscenario = merge\n\n"
            "[reward]\nv_min = 40\n"
        )
        with pytest.raises(ConfigError, match=r"cfg:6"):
            parse_config(text, origin="cfg")

    def test_two_key_invariant_cites_both_lines(self):
        # learn_start is on line 23 of merge_dqn.ini and buffer_capacity on line 18.
        text = _with_key((CONFIGS / "merge_dqn.ini").read_text(), "dqn", "learn_start", "1000001")
        with pytest.raises(ConfigError) as info:
            parse_config(text, origin="merge_dqn.ini")
        assert str(info.value) == "merge_dqn.ini:18,23: need learn_start <= buffer_capacity"

    def test_bad_agent_value(self):
        with pytest.raises(ConfigError, match="agent must be one of"):
            parse_config("[experiment]\nagent = sac\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            parse_config("[experiment]\nagent = dqn\nseeds = -3\n")

    @pytest.mark.parametrize(
        "section, key, value",
        [("env", "ghr_c", "nan"), ("env", "ghr_l", "inf"), ("reward", "w_safety", "-inf")],
    )
    def test_non_finite_float_rejected(self, section, key, value):
        text = f"[experiment]\nagent = dqn\n\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ConfigError, match=rf"cfg:5: bad value for '{key}': expected a finite"):
            parse_config(text, origin="cfg")

    def test_negative_ghr_speed_exponent_blames_key_line(self):
        text = "[experiment]\nagent = dqn\n\n[env]\nghr_c = 2\nghr_m = -1\n"
        with pytest.raises(ConfigError, match=r"cfg:6: ghr_m must be >= 0"):
            parse_config(text, origin="cfg")

    @pytest.mark.parametrize("key", ["policy_lr", "value_lr"])
    def test_zero_ppo_learning_rate_blames_key_line(self, key):
        text = f"[experiment]\nagent = ppo\n\n[ppo]\n{key} = 0\n"
        with pytest.raises(ConfigError, match=rf"^cfg:5: {key} must be > 0$"):
            parse_config(text, origin="cfg")

    def test_ppo_divisibility_enforced(self):
        text = "[experiment]\nagent = ppo\n\n[ppo]\nrollout_length = 100\n"
        with pytest.raises(ConfigError, match="divisible"):
            parse_config(text, origin="cfg")


    @pytest.mark.parametrize("section", ["dqn", "ppo"])
    @pytest.mark.parametrize("value", ["0", "8, -3"])
    def test_non_positive_hidden_size_blames_key_line(self, section, value):
        text = f"[experiment]\nagent = dqn\n\n[{section}]\nhidden_sizes = {value}\n"
        with pytest.raises(ConfigError, match=r"cfg:5: hidden_sizes must be >= 1"):
            parse_config(text, origin="cfg")


# Replacement values for the fuzz test: numbers at and past the edges, words,
# lists, and text that is no number at all.
FUZZ_VALUES = [
    "", "-1", "0", "1", "2", "-0", "0.5", "-2.5", "1e309", "-1e309", "nan", "inf", "1e308",
    "1e-320", "abc", "1,2", ",", "1,,2", "3, -4", "8, 0", "0, 0", "9" * 30, "9" * 5000,
    "True", "off", "0x10", "1_000", "\u0663", "\u00bd", "1 2", "=", "[x]", "merge", "ppo",
    "rules", "random", "env", "\x00", "1e3", "-0.0",
]  # fmt: skip


def test_mutated_configs_parse_or_raise_config_error():
    # Seeded key/value mutations of the shipped configs: a value replaced, a
    # key of any section inserted (now and then under its own header), a line
    # deleted or repeated. Each must parse into a config whose networks can
    # be built, or raise ConfigError; nothing else.
    rng = random.Random(0)
    texts = [path.read_text() for path in sorted(CONFIGS.glob("*.ini"))]
    keys = [(section, key) for section, entries in SCHEMA.items() for key in entries]
    parsed = rejected = 0
    for _ in range(3000):
        lines = rng.choice(texts).splitlines()
        for _ in range(rng.randint(1, 3)):
            op = rng.random()
            assignments = [i for i, line in enumerate(lines) if "=" in line and line[0] != "#"]
            if op < 0.5 and assignments:
                i = rng.choice(assignments)
                lines[i] = f"{lines[i].partition('=')[0]}= {rng.choice(FUZZ_VALUES)}"
            elif op < 0.8:
                section, key = rng.choice(keys)
                if rng.random() < 0.3:
                    lines.append(f"[{section}]")
                lines.insert(rng.randrange(len(lines) + 1), f"{key} = {rng.choice(FUZZ_VALUES)}")
            elif op < 0.9:
                del lines[rng.randrange(len(lines))]
            else:
                i = rng.randrange(len(lines))
                lines.insert(i, lines[i])
        try:
            config = parse_config("\n".join(lines), origin="fuzz")
        except ConfigError:
            rejected += 1
            continue
        NetworkSpec((OBS_DIM, *config.dqn.hidden_sizes, N_ACTIONS))
        NetworkSpec((OBS_DIM, *config.ppo.hidden_sizes, N_ACTIONS))
        parsed += 1
    assert parsed > 250 and rejected > 2000


# Values at and just past the numeric edges the invariants draw, and words
# that are valid for some keys, on top of FUZZ_VALUES.
EDGE_VALUES = [
    "3", "1.5", "0.99", "1.01", "-0.5", "1e-9", "2048", "100", "gradient", "env", "highway",
    "1000001", "1e30",
]  # fmt: skip


def _with_key(text: str, section: str, key: str, value: str) -> str:
    """``text`` with ``key = value`` in ``[section]``: the key's line replaced
    when the section has one, else inserted under the header (added if absent)."""
    lines = text.splitlines()
    header = f"[{section}]"
    if header not in lines:
        return "\n".join([*lines, header, f"{key} = {value}"])
    start = lines.index(header) + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
    at = [i for i in range(start, end) if lines[i].partition("=")[0].strip() == key]
    if at:
        lines[at[0]] = f"{key} = {value}"
    else:
        lines.insert(start, f"{key} = {value}")
    return "\n".join(lines)


def test_one_mutation_messages_are_pinned():
    # Every shipped config with one key set to each value: whether it parses,
    # and each error's exact text, file line included. The invariant messages
    # are part of the interface, so any change to one shows here.
    outcomes = []
    for path in sorted(CONFIGS.glob("*.ini")):
        text = path.read_text()
        for section, keys in SCHEMA.items():
            for key in keys:
                for value in FUZZ_VALUES + EDGE_VALUES:
                    try:
                        parse_config(_with_key(text, section, key, value), origin=path.name)
                        outcomes.append("ok")
                    except ConfigError as exc:
                        outcomes.append(str(exc))
    assert len(outcomes) == 10_176
    digest = "734fa631ffb25d70eaf8f18168b3dcb80e2996939aa2218563f72a6c20844301"
    assert sha256(json.dumps(outcomes)) == digest


# The widest single hidden layer whose network stays within the parameter bound.
WIDEST = (MAX_NETWORK_PARAMETERS - N_ACTIONS) // (OBS_DIM + 1 + N_ACTIONS)


class TestSizeBounds:
    """Sizes that cannot be allocated are config errors; nothing here allocates."""

    def test_values_at_the_bounds_parse(self):
        cfg = parse_config(
            f"[experiment]\nagent = dqn\n"
            f"[dqn]\nbuffer_capacity = {MAX_BUFFER_CAPACITY}\nhidden_sizes = {WIDEST}\n"
            f"[ppo]\nrollout_length = {MAX_ROLLOUT_LENGTH}\nminibatch_size = 1\n"
            f"hidden_sizes = {WIDEST}\n"
        )
        assert cfg.dqn.buffer_capacity == MAX_BUFFER_CAPACITY
        assert cfg.ppo.rollout_length == MAX_ROLLOUT_LENGTH
        assert NetworkSpec((OBS_DIM, WIDEST, N_ACTIONS)).n_params <= MAX_NETWORK_PARAMETERS
        assert NetworkSpec((OBS_DIM, WIDEST + 1, N_ACTIONS)).n_params > MAX_NETWORK_PARAMETERS
        assert cfg.dqn.hidden_sizes == cfg.ppo.hidden_sizes == (WIDEST,)

    @pytest.mark.parametrize(
        "section, lines",
        [
            ("dqn", f"buffer_capacity = {MAX_BUFFER_CAPACITY + 1}"),
            ("dqn", f"buffer_capacity = {10**30}"),
            ("ppo", f"rollout_length = {MAX_ROLLOUT_LENGTH + 1}\nminibatch_size = 1"),
            ("ppo", f"rollout_length = {10**30}\nminibatch_size = 1"),
            ("dqn", f"hidden_sizes = {WIDEST + 1}"),
            ("ppo", f"hidden_sizes = {WIDEST + 1}"),
            ("ppo", f"hidden_sizes = 64, {10**30}"),
        ],
    )
    def test_values_past_the_bounds_blame_the_key_line(self, section, lines):
        text = f"[experiment]\nagent = dqn\n\n[{section}]\n{lines}\n"
        key = lines.partition(" ")[0]
        with pytest.raises(ConfigError, match=rf"^cfg:5: {key} must"):
            parse_config(text, origin="cfg")


class TestLayerCountBound:
    """A config's hidden_sizes stay within the layer count a checkpoint may hold."""

    @staticmethod
    def config_text(hidden_layers):
        widths = ", ".join(["1"] * hidden_layers)
        return f"[experiment]\nagent = ppo\n\n[ppo]\nhidden_sizes = {widths}\n"

    def test_deepest_allowed_network_round_trips(self, tmp_path):
        cfg = parse_config(self.config_text(MAX_LAYERS - 2)).ppo
        learner = PpoLearner(OBS_DIM, N_ACTIONS, cfg, seed=0)
        learner.save(tmp_path / "ppo.bin")
        loaded = PpoLearner.load(tmp_path / "ppo.bin", cfg)
        assert len(loaded.policy_spec.layer_sizes) == MAX_LAYERS
        assert np.array_equal(loaded.policy_params.values, learner.policy_params.values)
        assert np.array_equal(loaded.value_params.values, learner.value_params.values)

    def test_one_layer_more_blames_the_key_line(self):
        with pytest.raises(ConfigError, match=rf"^cfg:5: hidden_sizes must have at most {MAX_LAYERS - 2} "):
            parse_config(self.config_text(MAX_LAYERS - 1), origin="cfg")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestOneSourceOfTruth:
    # Which dataclasses each section's keys fill, with the prefix a key puts
    # before its field's name; and the fields parse_config passes in instead.
    FILLED = {
        "experiment": [(ExperimentConfig, "")],
        "env": [(RoadConfig, ""), (EnvSettings, ""), (GhrParams, "ghr_")],
        "reward": [(RewardWeights, "w_"), (RewardParams, "")],
        "dqn": [(DqnConfig, "")],
        "ppo": [(PpoConfig, "")],
        "rules": [(RuleParams, "")],
    }
    PASSED_IN = {(RoadConfig, "scenario"), (EnvSettings, "road"), (EnvSettings, "ghr")} | {
        (ExperimentConfig, name)
        for name in ("env", "weights", "reward_params", "dqn", "ppo", "rules")
    }

    def test_every_key_fills_exactly_one_field(self):
        assert list(SCHEMA) == list(self.FILLED)
        for section, keys in SCHEMA.items():
            filled = {}
            for cls, prefix in self.FILLED[section]:
                for field in fields(cls):
                    if (cls, field.name) in self.PASSED_IN:
                        continue
                    key = prefix + field.name
                    assert key in keys, f"{cls.__name__}.{field.name} is no key in [{section}]"
                    assert key not in filled, f"{key} fills two fields"
                    filled[key] = field
            assert filled.keys() == keys.keys()
            for key, (kind, default, _) in keys.items():
                assert kind in ("int", "float", "str", "int_list"), key
                field = filled[key]
                assert default == (None if field.default is MISSING else field.default), key

    def test_describe_keys_is_pinned(self):
        # `highwaylab --help` prints this text: key order, types, defaults, help.
        digest = "907835396d8eab8d7f0f0bd235ab3ee98078db1aa9b1edbefd5cca83535a9649"
        assert sha256(describe_keys()) == digest

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("highway_rules.ini", "a893e92884c225450b52f3f9e70f6aa3f69dbcefb014e2cdd40d1391f96edfcd"),
            ("merge_compare.ini", "4799725b01d50dc504cbd2d9775758b59375d7735630e8a1829c69766e40a0d1"),
            ("merge_dqn.ini", "61e668edf5243c622a5a275d261b6a81e3e442eccf0e50b6fc42aa2a54923d20"),
            ("merge_ppo.ini", "fe46b080ea817f9977869e583b786b98b8a7e4ac863039e691854c31f209cf8d"),
        ],
    )
    def test_shipped_config_parses_to_pinned_values(self, name, digest):
        config = load_config(CONFIGS / name)
        assert sha256(json.dumps(asdict(config), sort_keys=True)) == digest


class TestHelp:
    def test_describe_keys_covers_every_section(self):
        text = describe_keys()
        for section in ("experiment", "env", "reward", "dqn", "ppo", "rules"):
            assert f"[{section}]" in text
        assert "clip_epsilon" in text
        assert "headway_change_trigger" in text


# One default instance of each dataclass whose fields the config keys fill.
_DEFAULTS = parse_config(MINIMAL)
KEY_DATACLASSES = {
    type(obj): obj
    for obj in (
        _DEFAULTS,
        _DEFAULTS.env,
        _DEFAULTS.env.road,
        _DEFAULTS.env.ghr,
        _DEFAULTS.weights,
        _DEFAULTS.reward_params,
        _DEFAULTS.dqn,
        _DEFAULTS.ppo,
        _DEFAULTS.rules,
    )
}

# Numeric fields whose checks span several fields (or word their message in
# their own way), so they declare no bound of their own.
MULTI_FIELD_CHECKS = {
    (DqnConfig, "batch_size"),
    (DqnConfig, "buffer_capacity"),
    (PpoConfig, "rollout_length"),
    (PpoConfig, "minibatch_size"),
    (RewardWeights, "safety"),
    (RewardWeights, "comfort"),
    (RewardWeights, "efficiency"),
    (RewardParams, "v_min"),
    (RewardParams, "v_max"),
}

BOUNDED = [
    pytest.param(cls, field, id=f"{cls.__name__}.{field.name}")
    for cls in KEY_DATACLASSES
    for field in fields(cls)
    if "bound" in field.metadata
]


def _step(value, toward: float, is_int: bool):
    """The next value after ``value`` in the direction of ``toward``."""
    if is_int:
        return value + (1 if toward > value else -1)
    return math.nextafter(value, toward)


class TestDeclaredBounds:
    @pytest.mark.parametrize("cls, field", BOUNDED)
    def test_edges_build_and_values_past_them_raise(self, cls, field):
        low, high, strict = field.metadata["bound"]
        is_int = field.type == "int"
        if high is None:
            text = f"> {low}" if strict else f">= {low}"
        else:
            text = f"in ({low}, {high})" if strict else f"in [{low}, {high}]"
        edges = [(low, -math.inf)] + ([] if high is None else [(high, math.inf)])
        for edge, outward in edges:
            inside = _step(edge, -outward, is_int) if strict else edge
            outside = edge if strict else _step(edge, outward, is_int)
            built = replace(KEY_DATACLASSES[cls], **{field.name: inside})
            assert getattr(built, field.name) == inside
            with pytest.raises(ValueError) as exc:
                replace(KEY_DATACLASSES[cls], **{field.name: outside})
            assert str(exc.value) == f"{field.name} must be {text}"

    @pytest.mark.parametrize("cls, field", BOUNDED)
    def test_nan_is_outside_every_bound(self, cls, field):
        with pytest.raises(ValueError):
            replace(KEY_DATACLASSES[cls], **{field.name: math.nan})

    @pytest.mark.parametrize(
        "cls, name, message",
        [
            (DqnConfig, "learning_rate", "learning_rate must be > 0"),
            (RewardParams, "tau_safe", "tau_safe must be > 0"),
            (RuleParams, "gap_accept_front", "gap_accept_front must be > 0"),
        ],
    )
    def test_nan_built_directly_is_refused(self, cls, name, message):
        # The parser refuses "nan" before any dataclass sees it; a dataclass
        # built directly must refuse it too.
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**{name: math.nan})

    def test_every_numeric_key_declares_a_bound_or_a_multi_field_check(self):
        for cls in KEY_DATACLASSES:
            for field in fields(cls):
                if field.type not in ("int", "float"):
                    continue
                bounded = "bound" in field.metadata
                multi = (cls, field.name) in MULTI_FIELD_CHECKS
                assert bounded != multi, f"{cls.__name__}.{field.name}: bounded={bounded}"
