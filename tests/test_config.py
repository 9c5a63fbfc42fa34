"""Config parsing: defaults, overrides, and line-precise error reporting."""

import pytest

from highwaylab.config import describe_keys, load_config, parse_config
from highwaylab.errors import ConfigError

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


class TestHelp:
    def test_describe_keys_covers_every_section(self):
        text = describe_keys()
        for section in ("experiment", "env", "reward", "dqn", "ppo", "rules"):
            assert f"[{section}]" in text
        assert "clip_epsilon" in text
        assert "headway_change_trigger" in text
