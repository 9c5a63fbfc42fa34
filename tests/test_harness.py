"""Harness tests: file schemas, byte determinism, cross-file consistency."""

import hashlib
import json
import math
import struct
import zlib

import numpy as np
import pytest

from highwaylab.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from highwaylab.config import parse_config
from highwaylab.dqn import DqnConfig, DqnLearner
from highwaylab.errors import CheckpointError, CheckpointFormatError, CheckpointMismatchError
from highwaylab.harness import (
    EVAL_CSV_COLUMNS,
    TRAIN_CSV_COLUMNS,
    TRAJECTORY_CSV_COLUMNS,
    FaultLog,
    RulePolicy,
    build_eval_policy,
    compare,
    derive_seed,
    eval_episode_seed,
    export_trajectory,
    fmt9,
    make_env,
    run_episode,
    run_eval,
    run_train,
    train_episode_seed,
)
from highwaylab.nets import (
    AdamState,
    NetworkSpec,
    adam_to_bytes,
    init_params,
    load_params,
    network_to_bytes,
    read_archive,
    save_params,
    write_archive,
)
from highwaylab.ppo import PpoConfig, PpoLearner

SMALL_RANDOM = """
[experiment]
agent = random
scenario = merge
seeds = 5
total_env_steps = 400
eval_every = 200
eval_episodes = 2
"""

SMALL_DQN = """
[experiment]
agent = dqn
scenario = merge
seeds = 5
total_env_steps = 300
eval_every = 150
eval_episodes = 2

[dqn]
learn_start = 50
buffer_capacity = 2000
epsilon_decay_steps = 200
hidden_sizes = 16
"""

SMALL_PPO = """
[experiment]
agent = ppo
scenario = merge
seeds = 5
total_env_steps = 256
eval_every = 128
eval_episodes = 2

[ppo]
rollout_length = 128
minibatch_size = 32
epochs = 2
hidden_sizes = 16
"""


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestFormatting:
    def test_fmt9_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = float(rng.normal()) * 10 ** int(rng.integers(-6, 7))
            assert fmt9(float(fmt9(x))) == fmt9(x)

    def test_fmt9_negative_zero(self):
        assert fmt9(-0.0) == "0"

    def test_derive_seed_deterministic(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)

    def test_eval_episode_seed_cycles_with_stride(self):
        seeds = (7, 8)
        assert eval_episode_seed(seeds, 0) == 7
        assert eval_episode_seed(seeds, 1) == 8
        assert eval_episode_seed(seeds, 2) == 7 + 1_000_003
        assert eval_episode_seed(seeds, 3) == 8 + 1_000_003


class TestFaultLog:
    def test_monotone_and_duration_only_while_open(self):
        log = FaultLog(period_s=1.0)
        log.record_step(1, False)
        log.record_step(2, True)
        log.record_step(3, True)
        log.episode_reset()
        log.record_step(4, False)
        log.record_step(5, True)
        assert log.rows == [
            (1, 0, 0.0),
            (2, 1, 1.0),
            (3, 1, 2.0),
            (4, 1, 2.0),
            (5, 2, 3.0),
        ]
        counts = [row[1] for row in log.rows]
        durations = [row[2] for row in log.rows]
        assert counts == sorted(counts)
        assert durations == sorted(durations)


class TestRunTrain:
    def test_output_files_and_schemas(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        dirs = run_train(cfg, tmp_path)
        out = dirs[5]
        header, rows = read_csv(out / "metrics.csv")
        assert tuple(header) == TRAIN_CSV_COLUMNS
        assert len(rows) >= 5
        header, eval_rows = read_csv(out / "eval.csv")
        assert tuple(header) == EVAL_CSV_COLUMNS
        assert len(eval_rows) == 2
        _, fault_rows = read_csv(out / "faults.csv")
        assert len(fault_rows) == 400

    def test_zero_steps_headers_only_and_init_checkpoint(self, tmp_path):
        cfg = parse_config(SMALL_DQN.replace("total_env_steps = 300", "total_env_steps = 0"))
        dirs = run_train(cfg, tmp_path)
        out = dirs[5]
        assert (out / "metrics.csv").read_text() == ",".join(TRAIN_CSV_COLUMNS) + "\n"
        assert (out / "checkpoint_final.bin").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(SMALL_DQN)
        a = run_train(cfg, tmp_path / "a")[5]
        b = run_train(cfg, tmp_path / "b")[5]
        for name in ("metrics.csv", "faults.csv", "eval.csv", "checkpoint_final.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_ppo_run_produces_episodes_and_checkpoint(self, tmp_path):
        cfg = parse_config(SMALL_PPO)
        out = run_train(cfg, tmp_path)[5]
        _, rows = read_csv(out / "metrics.csv")
        assert len(rows) >= 3
        assert (out / "checkpoint_final.bin").exists()
        _, fault_rows = read_csv(out / "faults.csv")
        assert len(fault_rows) == 256

    def test_moving_stats_match_offline_recompute(self, tmp_path):
        # recomputing from the file and printing at the file's precision must
        # reproduce the logged strings, so the parsed difference is exactly 0
        cfg = parse_config(SMALL_RANDOM)
        out = run_train(cfg, tmp_path)[5]
        _, rows = read_csv(out / "metrics.csv")
        returns = [float(r[2]) for r in rows]
        for i, row in enumerate(rows):
            window = returns[max(0, i - 99) : i + 1]
            mean = float(np.mean(window))
            std = 0.0 if len(window) < 2 else float(np.std(window, ddof=1))
            assert fmt9(mean) == row[6]
            assert fmt9(std) == row[7]
            assert abs(float(row[6]) - float(fmt9(mean))) < 1e-9
            assert abs(float(row[7]) - float(fmt9(std))) < 1e-9

    def test_fault_columns_nondecreasing(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        out = run_train(cfg, tmp_path)[5]
        _, rows = read_csv(out / "faults.csv")
        counts = [int(r[1]) for r in rows]
        durations = [float(r[2]) for r in rows]
        assert counts == sorted(counts)
        assert durations == sorted(durations)


class TestOneEpisodeLoop:
    def test_first_training_row_equals_run_episode(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM.replace("agent = random", "agent = rules"))
        _, rows = read_csv(run_train(cfg, tmp_path)[5] / "metrics.csv")
        m = run_episode(make_env(cfg), RulePolicy(cfg), train_episode_seed(5, 0))
        assert rows[0][2:6] == [fmt9(m.total), str(m.length), str(int(m.collided)), str(int(m.off_road))]


class TestRunEval:
    def test_rules_agent_needs_no_checkpoint(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM.replace("agent = random", "agent = rules"))
        summary = run_eval(cfg, None, tmp_path)
        assert summary["agent"] == "rules"
        assert (tmp_path / "eval_summary.json").exists()

    def test_single_episode_std_is_zero(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM.replace("eval_episodes = 2", "eval_episodes = 1"))
        summary = run_eval(cfg, None, tmp_path)
        assert summary["std_return"] == 0.0

    def test_summary_mean_matches_csv_column(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM.replace("eval_episodes = 2", "eval_episodes = 6"))
        summary = run_eval(cfg, None, tmp_path)
        _, rows = read_csv(tmp_path / "eval_episodes.csv")
        returns = [float(r[2]) for r in rows]
        assert summary["mean_return"] == pytest.approx(float(np.mean(returns)), abs=1e-9)
        written = json.loads((tmp_path / "eval_summary.json").read_text())
        assert written["mean_return"] == pytest.approx(summary["mean_return"], abs=0.0)

    def test_learned_agent_requires_checkpoint(self, tmp_path):
        cfg = parse_config(SMALL_DQN)
        with pytest.raises(CheckpointError):
            run_eval(cfg, None, tmp_path)

    def test_checkpoint_agent_mismatch(self, tmp_path):
        ppo_cfg = parse_config(SMALL_PPO)
        out = run_train(ppo_cfg, tmp_path / "train")[5]
        dqn_cfg = parse_config(SMALL_DQN)
        with pytest.raises(CheckpointError):
            build_eval_policy(dqn_cfg, out / "checkpoint_final.bin")

    def test_trained_checkpoint_evaluates(self, tmp_path):
        cfg = parse_config(SMALL_DQN)
        out = run_train(cfg, tmp_path / "train")[5]
        summary = run_eval(cfg, out / "checkpoint_final.bin", tmp_path / "eval")
        assert summary["episodes"] == 2
        assert math.isfinite(summary["mean_return"])


class TestExportTrajectory:
    def test_schema_and_determinism(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        a = export_trajectory(cfg, None, 11, tmp_path / "a.csv")
        b = export_trajectory(cfg, None, 11, tmp_path / "b.csv")
        header, rows = read_csv(a)
        assert tuple(header) == TRAJECTORY_CSV_COLUMNS
        assert len(header) == 10
        assert all(len(r) == 10 for r in rows)
        assert a.read_bytes() == b.read_bytes()

    def test_totals_sum_to_eval_return(self, tmp_path):
        cfg = parse_config(
            SMALL_RANDOM.replace("eval_episodes = 2", "eval_episodes = 1").replace(
                "seeds = 5", "seeds = 11"
            )
        )
        summary = run_eval(cfg, None, tmp_path / "eval")
        traj = export_trajectory(cfg, None, eval_episode_seed(cfg.seeds, 0), tmp_path / "t.csv")
        _, rows = read_csv(traj)
        total = sum(float(r[9]) for r in rows)
        assert total == pytest.approx(summary["mean_return"], abs=1e-6)

    def test_y_piecewise_monotone_between_lane_commands(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        traj = export_trajectory(cfg, None, 23, tmp_path / "t.csv")
        _, rows = read_csv(traj)
        ys = [float(r[2]) for r in rows]
        actions = [int(r[5]) for r in rows]
        lane_changed = [i for i, a in enumerate(actions) if a in (0, 2)]
        assert any(b - a > 1 for a, b in zip(ys, ys[1:])) or len(lane_changed) >= 0
        # between consecutive lane commands the lateral motion may not reverse
        breakpoints = [0, *lane_changed, len(ys) - 1]
        for start, end in zip(breakpoints, breakpoints[1:]):
            segment = ys[start : end + 1]
            assert (
                all(a <= b + 1e-12 for a, b in zip(segment, segment[1:]))
                or all(a >= b - 1e-12 for a, b in zip(segment, segment[1:]))
            )


class TestCompare:
    def test_reports_missing_checkpoints_per_agent(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        table, errors = compare(cfg, tmp_path)
        assert set(errors) == {"dqn", "ppo"}
        agents = [row["agent"] for row in table]
        assert agents == ["rules", "random"]

    def test_table_matches_run_eval(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        table, _ = compare(cfg, tmp_path / "cmp")
        random_row = next(r for r in table if r["agent"] == "random")
        summary = run_eval(cfg, None, tmp_path / "ev")
        assert random_row["mean_return"] == pytest.approx(summary["mean_return"], abs=0.0)
        assert random_row["collision_rate"] == summary["collision_rate"]

    def test_identical_agent_rows_identical(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        a, _ = compare(cfg, tmp_path / "a")
        b, _ = compare(cfg, tmp_path / "b")
        assert a == b


class TestCli:
    def test_train_eval_rollout_compare_exit_codes(self, tmp_path):
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(SMALL_RANDOM)
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "runs")]) == EXIT_OK
        assert main(["eval", "--config", str(config_path), "--out", str(tmp_path / "ev")]) == EXIT_OK
        assert (
            main(
                [
                    "rollout",
                    "--config",
                    str(config_path),
                    "--seed",
                    "3",
                    "--out",
                    str(tmp_path / "t.csv"),
                ]
            )
            == EXIT_OK
        )
        # compare fails with EXIT_IO: no trained checkpoints configured
        assert main(["compare", "--config", str(config_path), "--out", str(tmp_path / "cmp")]) == EXIT_IO

    def test_config_error_exit_code(self, tmp_path):
        config_path = tmp_path / "bad.ini"
        config_path.write_text("[experiment]\nagent = dqn\nwheels = 4\n")
        assert main(["train", "--config", str(config_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "line, message",
        [("ghr_c = nan", "bad value for 'ghr_c'"), ("ghr_m = -1", "ghr_m must be >= 0")],
    )
    def test_bad_ghr_value_exit_code(self, tmp_path, capsys, line, message):
        config_path = tmp_path / "ghr.ini"
        config_path.write_text(SMALL_RANDOM + "\n[env]\n" + line + "\n")
        out = tmp_path / "runs"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
        assert f"{config_path}:11: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_traffic_exit_code(self, tmp_path):
        config_path = tmp_path / "dense.ini"
        config_path.write_text(SMALL_RANDOM + "\n[env]\nn_traffic = 100\n")
        assert main(["train", "--config", str(config_path), "--out", str(tmp_path / "runs")]) == EXIT_CONFIG

    def test_rollout_negative_seed_is_usage_error(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(SMALL_RANDOM)
        out = tmp_path / "t.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["rollout", "--config", str(config_path), "--seed", "-1", "--out", str(out)])
        assert exit_info.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "usage:" in err and "expected a non-negative integer, got '-1'" in err
        assert not out.exists()

    def test_missing_checkpoint_exit_code(self, tmp_path):
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(SMALL_DQN)
        assert (
            main(
                [
                    "eval",
                    "--config",
                    str(config_path),
                    "--checkpoint",
                    str(tmp_path / "missing.bin"),
                    "--out",
                    str(tmp_path / "ev"),
                ]
            )
            == EXIT_IO
        )


    @pytest.mark.parametrize("agent", ["dqn", "ppo"])
    def test_checkpoint_of_other_widths_exit_code(self, tmp_path, capsys, agent):
        # A 4-input, 3-action checkpoint whose hidden layer matches the
        # config loads, but cannot drive the 25-input, 5-action environment.
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(
            (SMALL_DQN if agent == "dqn" else SMALL_PPO).replace("hidden_sizes = 16", "hidden_sizes = 4")
        )
        learner_cls, cfg = TestCorruptCheckpoint.AGENTS[agent]
        learner_cls(4, 3, cfg, seed=0).save(tmp_path / "small.bin")
        argv = ["eval", "--config", str(config_path), "--checkpoint", str(tmp_path / "small.bin")]
        assert main([*argv, "--out", str(tmp_path / "ev")]) == EXIT_IO
        assert "maps 4 inputs to 3 outputs, the environment needs 25 to 5" in capsys.readouterr().err


class TestCorruptCheckpoint:
    """Archives with a valid CRC but bad contents fail with a typed error."""

    AGENTS = {
        "dqn": (DqnLearner, DqnConfig(hidden_sizes=(4,))),
        "ppo": (PpoLearner, PpoConfig(rollout_length=4, minibatch_size=4, hidden_sizes=(4,))),
    }

    def saved(self, tmp_path, agent, edit):
        learner_cls, cfg = self.AGENTS[agent]
        path = tmp_path / f"{agent}.bin"
        learner_cls(4, 3, cfg, seed=0).save(path)
        sections = read_archive(path)
        edit(sections)
        write_archive(path, list(sections.items()))
        return path

    def load(self, path, agent):
        learner_cls, cfg = self.AGENTS[agent]
        return learner_cls.load(path, cfg)

    @pytest.mark.parametrize(
        "agent, section",
        [
            ("dqn", "q"),
            ("dqn", "q_target"),
            ("dqn", "adam"),
            ("ppo", "policy"),
            ("ppo", "value"),
            ("ppo", "adam_policy"),
            ("ppo", "adam_value"),
        ],
    )
    def test_missing_section(self, tmp_path, agent, section):
        path = self.saved(tmp_path, agent, lambda s: s.pop(section))
        with pytest.raises(CheckpointFormatError, match=section):
            self.load(path, agent)

    @pytest.mark.parametrize(
        "agent, section", [("dqn", "adam"), ("ppo", "adam_policy"), ("ppo", "adam_value")]
    )
    def test_optimizer_size_mismatch(self, tmp_path, agent, section):
        wrong = adam_to_bytes(AdamState.create(7, 0.001))
        path = self.saved(tmp_path, agent, lambda s: s.update({section: wrong}))
        with pytest.raises(CheckpointMismatchError, match=f"{section} section holds 7"):
            self.load(path, agent)

    @pytest.mark.parametrize(
        "agent, section, after",
        [("dqn", "q", "checksum"), ("dqn", "adam", "second moments")],
    )
    def test_bytes_after_section_data(self, tmp_path, agent, section, after):
        path = self.saved(tmp_path, agent, lambda s: s.update({section: s[section] + b"junk"}))
        with pytest.raises(CheckpointFormatError, match=f"4 bytes after the {after}"):
            self.load(path, agent)

    @pytest.mark.parametrize("agent", ["dqn", "ppo"])
    def test_meta_not_json(self, tmp_path, agent):
        path = self.saved(tmp_path, agent, lambda s: s.update(meta=b'{"agent": '))
        with pytest.raises(CheckpointFormatError):
            self.load(path, agent)

    @pytest.mark.parametrize("agent", ["dqn", "ppo"])
    def test_meta_not_utf8(self, tmp_path, agent):
        path = self.saved(tmp_path, agent, lambda s: s.update(meta=b"\xff\xfe{}"))
        with pytest.raises(CheckpointFormatError):
            self.load(path, agent)

    @pytest.mark.parametrize("agent", ["dqn", "ppo"])
    def test_meta_without_counter(self, tmp_path, agent):
        def drop_counter(sections):
            meta = json.loads(sections["meta"])
            del meta["env_steps"]
            sections["meta"] = json.dumps(meta).encode("utf-8")

        path = self.saved(tmp_path, agent, drop_counter)
        with pytest.raises(CheckpointFormatError, match="env_steps"):
            self.load(path, agent)

    def test_cli_exits_with_io_code(self, tmp_path):
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(SMALL_DQN)
        path = self.saved(tmp_path, "dqn", lambda s: s.update(meta=b"not json"))
        args = ["eval", "--config", str(config_path), "--checkpoint", str(path)]
        assert main(args + ["--out", str(tmp_path / "ev")]) == EXIT_IO

    @pytest.mark.parametrize(
        "agent, digest",
        [
            ("dqn", "29c8c8183338d4d3ba95481eb593dafb41df3d0e15a826d6c7a7df65677b8169"),
            ("ppo", "c3e91fef9a3c4efba58a5c4e73f5a849441b14a1cdfe38a9106411e10d4731a3"),
        ],
    )
    def test_saved_bytes_are_pinned(self, tmp_path, agent, digest):
        learner_cls, cfg = self.AGENTS[agent]
        path = tmp_path / f"{agent}.bin"
        learner_cls(4, 3, cfg, seed=0).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        self.load(path, agent).save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize(
        "agent, section, other",
        [
            ("dqn", "q", DqnConfig(hidden_sizes=(5,))),
            ("ppo", "policy", PpoConfig(rollout_length=4, minibatch_size=4, hidden_sizes=(5,))),
        ],
    )
    def test_config_with_other_hidden_sizes(self, tmp_path, agent, section, other):
        path = self.saved(tmp_path, agent, lambda s: None)
        with pytest.raises(CheckpointMismatchError, match=f"^{section} section holds network"):
            self.AGENTS[agent][0].load(path, other)

    @pytest.mark.parametrize(
        "agent, section, sizes", [("dqn", "q_target", (4, 5, 3)), ("ppo", "value", (4, 5, 1))]
    )
    def test_network_section_with_other_shape(self, tmp_path, agent, section, sizes):
        spec = NetworkSpec(sizes)
        blob = network_to_bytes(spec, init_params(spec, 0))
        path = self.saved(tmp_path, agent, lambda s: s.update({section: blob}))
        with pytest.raises(CheckpointMismatchError, match=f"^{section} section holds network"):
            self.load(path, agent)

    @pytest.mark.parametrize("agent", ["dqn", "ppo"])
    @pytest.mark.parametrize("value", [-1, float("inf"), float("nan"), 2.0, True])
    def test_counter_not_a_non_negative_integer(self, tmp_path, agent, value):
        def set_counter(sections):
            meta = json.loads(sections["meta"])
            meta["env_steps"] = value
            sections["meta"] = json.dumps(meta).encode("utf-8")

        path = self.saved(tmp_path, agent, set_counter)
        with pytest.raises(CheckpointFormatError, match="non-negative integer"):
            self.load(path, agent)

    def test_cli_infinite_counter_exits_with_io_code(self, tmp_path, capsys):
        def infinite_grad_steps(sections):
            meta = json.loads(sections["meta"])
            meta["grad_steps"] = float("inf")
            sections["meta"] = json.dumps(meta).encode("utf-8")

        config_path = tmp_path / "cfg.ini"
        config_path.write_text(SMALL_DQN.replace("hidden_sizes = 16", "hidden_sizes = 4"))
        path = self.saved(tmp_path, "dqn", infinite_grad_steps)
        assert b'"grad_steps": Infinity' in read_archive(path)["meta"]
        args = ["eval", "--config", str(config_path), "--checkpoint", str(path)]
        assert main(args + ["--out", str(tmp_path / "ev")]) == EXIT_IO
        assert "grad_steps" in capsys.readouterr().err

    @staticmethod
    def resealed(blob: bytes, offset: int, raw: bytes) -> bytes:
        data = bytearray(blob)
        data[offset : offset + len(raw)] = raw
        data[-4:] = struct.pack("<I", zlib.crc32(bytes(data[:-4])))
        return bytes(data)

    @pytest.mark.parametrize(
        "agent, section, offset, raw, message",
        [
            # HRLL header: magic, version, layer count, then the sizes (4, 4, 3).
            ("dqn", "q", 16, struct.pack("<I", 0), "layer sizes must be >= 1"),
            ("ppo", "value", 16, struct.pack("<I", 0), "layer sizes must be >= 1"),
            # The first parameter follows the activation code and the count.
            ("dqn", "q_target", 36, struct.pack("<d", math.nan), "must be finite"),
            ("ppo", "policy", 36, struct.pack("<d", math.inf), "must be finite"),
        ],
        ids=["q-size-0", "value-size-0", "q_target-nan", "policy-inf"],
    )
    def test_network_section_out_of_range(self, tmp_path, agent, section, offset, raw, message):
        edit = lambda s: s.update({section: self.resealed(s[section], offset, raw)})
        path = self.saved(tmp_path, agent, edit)
        with pytest.raises(CheckpointFormatError, match=message):
            self.load(path, agent)

    # Optimizer header "<QddddQ": t, learning_rate, beta1, beta2, eps, size;
    # then the first and second moments.
    @pytest.mark.parametrize(
        "agent, section, offset, value",
        [
            ("dqn", "adam", 8, math.nan),
            ("ppo", "adam_policy", 8, 0.0),
            ("ppo", "adam_value", 16, 1.0),
            ("dqn", "adam", 24, -0.5),
            ("dqn", "adam", 32, math.inf),
            ("ppo", "adam_value", 48, math.nan),
            ("dqn", "adam", 48 + 8 * 35, -1.0),
        ],
    )
    def test_optimizer_section_out_of_range(self, tmp_path, agent, section, offset, value):
        def edit(sections):
            data = bytearray(sections[section])
            data[offset : offset + 8] = struct.pack("<d", value)
            sections[section] = bytes(data)

        path = self.saved(tmp_path, agent, edit)
        with pytest.raises(CheckpointFormatError, match="optimizer state"):
            self.load(path, agent)


class TestCheckpointFuzz:
    """Every truncation and re-sealed byte flip of a checkpoint gives a typed error or a load."""

    FLIPS = 200
    AGENTS = {
        "dqn": (DqnLearner, DqnConfig(hidden_sizes=(2,))),
        "ppo": (PpoLearner, PpoConfig(rollout_length=2, minibatch_size=2, hidden_sizes=(2,))),
    }

    @staticmethod
    def network_spans(data: bytes) -> list[tuple[int, int]]:
        """Offsets of the HRLL payloads inside an HRLC archive."""
        spans, offset = [], 12
        for _ in range(struct.unpack_from("<I", data, 8)[0]):
            (name_len,) = struct.unpack_from("<H", data, offset)
            (size,) = struct.unpack_from("<Q", data, offset + 2 + name_len)
            start = offset + 10 + name_len
            if data[start : start + 4] == b"HRLL":
                spans.append((start, start + size))
            offset = start + size
        return spans

    def cases(self, data: bytes, spans, rng):
        for n in range(len(data)):
            yield data[:n]
        for _ in range(self.FLIPS):
            flipped = bytearray(data)
            at = int(rng.integers(len(data)))
            flipped[at] ^= int(rng.integers(1, 256))
            for start, end in spans:
                if start <= at < end:
                    flipped[end - 4 : end] = struct.pack("<I", zlib.crc32(flipped[start : end - 4]))
            flipped[-4:] = struct.pack("<I", zlib.crc32(flipped[:-4]))  # the archive's CRC
            yield bytes(flipped)

    @pytest.mark.parametrize("kind", ["network", "dqn", "ppo"])
    def test_only_checkpoint_errors(self, tmp_path, kind):
        path = tmp_path / "ckpt.bin"
        if kind == "network":
            spec = NetworkSpec((3, 2, 2))
            save_params(path, spec, init_params(spec, 0))
            load = lambda: load_params(path)
        else:
            learner_cls, cfg = self.AGENTS[kind]
            learner_cls(3, 2, cfg, seed=0).save(path)
            load = lambda: learner_cls.load(path, cfg)
        data = path.read_bytes()
        spans = [(0, len(data))] if kind == "network" else self.network_spans(data)
        rng = np.random.default_rng(9)
        outcomes = {"loaded": 0, "rejected": 0}
        for case in self.cases(data, spans, rng):
            path.write_bytes(case)
            try:
                load()
                outcomes["loaded"] += 1
            except CheckpointError:
                outcomes["rejected"] += 1
        assert outcomes["rejected"] >= len(data)  # every truncation
        assert outcomes["loaded"] > 0
