"""Config parsing: defaults, overrides, and line-precise error reporting."""

import random
from pathlib import Path

import pytest

from highwaylab.actions import N_ACTIONS
from highwaylab.config import SCHEMA, describe_keys, load_config, parse_config
from highwaylab.env import OBS_DIM
from highwaylab.errors import ConfigError
from highwaylab.nets import NetworkSpec

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
        assert cfg.env.horizon == 12
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
            "[env]\nmerge_ramp_end_x = 5000\n"
        )
        with pytest.raises(ConfigError, match=r"cfg:6"):
            parse_config(text, origin="cfg")

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


class TestHelp:
    def test_describe_keys_covers_every_section(self):
        text = describe_keys()
        for section in ("experiment", "env", "reward", "dqn", "ppo", "rules"):
            assert f"[{section}]" in text
        assert "clip_epsilon" in text
        assert "headway_change_trigger" in text
