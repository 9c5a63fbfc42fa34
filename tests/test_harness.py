"""Harness tests: file schemas, byte determinism, cross-file consistency."""

import gc
import hashlib
import json
import math
import struct
import warnings
import weakref
import zlib

import numpy as np
import pytest

from highwaylab.actions import N_ACTIONS
from highwaylab.cli import EXIT_CONFIG, EXIT_DIVERGENCE, EXIT_IO, EXIT_OK, main
from highwaylab.config import parse_config
from highwaylab.dqn import DqnConfig, DqnLearner
from highwaylab.env import DECISION_PERIOD, OBS_DIM
from highwaylab.errors import CheckpointError, CheckpointFormatError, CheckpointMismatchError
from highwaylab.harness import (
    EVAL_CSV_COLUMNS,
    FAULTS_CSV_COLUMNS,
    TRAIN_CSV_COLUMNS,
    TRAJECTORY_CSV_COLUMNS,
    FaultLog,
    RulePolicy,
    TrainingRun,
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
    network_from_bytes,
    network_to_bytes,
    read_archive,
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
        log = FaultLog()
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

    def test_fault_duration_is_the_fault_count_in_decision_periods(self, tmp_path):
        # A crash or a road departure ends its episode, so each fault lasts
        # exactly one decision period, and DECISION_PERIOD is exactly 1.0 s.
        assert DECISION_PERIOD == 1.0
        out = run_train(parse_config(SMALL_RANDOM), tmp_path)[5]
        for name, count_at in (("faults.csv", 1), ("metrics.csv", 8)):
            _, rows = read_csv(out / name)
            for row in rows:
                count, duration = row[count_at : count_at + 2]
                assert float(duration) == int(count) * DECISION_PERIOD, (name, row)
            assert int(rows[-1][count_at]) > 0


class TestTrainingRun:
    def test_advance_evaluates_once_the_cadence_is_due(self, tmp_path):
        cfg = parse_config(SMALL_RANDOM)
        run = TrainingRun(cfg, 5, tmp_path)
        for _ in range(199):
            run.advance()
        assert run.eval_rows == []
        run.advance()
        assert [row[:2] for row in run.eval_rows] == [(0, 200)]
        assert run.next_eval_at == 400
        run.finish()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["eval.csv", "faults.csv", "metrics.csv"]
        assert len(read_csv(tmp_path / "faults.csv")[1]) == 200

    @pytest.mark.parametrize("text", [SMALL_DQN, SMALL_PPO], ids=["dqn", "ppo"])
    def test_finished_run_is_freed_without_the_cycle_collector(self, tmp_path, text):
        # A run kept alive by a reference cycle would hold its learner and
        # replay buffer until a full collection, across the following seeds.
        run = TrainingRun(parse_config(text), 5, tmp_path)
        run.advance()
        run.finish()
        gc.disable()
        try:
            freed = weakref.ref(run)
            del run
            assert freed() is None
        finally:
            gc.enable()

    def test_cadence_between_rollout_ends(self, tmp_path):
        # The marks 100 and 200 of eval_every = 100 fall inside the second and
        # the fourth 64-step rollout, so each evaluation waits for its end.
        cfg = parse_config(
            """
[experiment]
agent = ppo
scenario = merge
seeds = 5
total_env_steps = 256
eval_every = 100
eval_episodes = 2

[ppo]
rollout_length = 64
minibatch_size = 32
epochs = 1
hidden_sizes = 16
"""
        )
        out = run_train(cfg, tmp_path)[5]
        _, rows = read_csv(out / "eval.csv")
        assert [row[:2] for row in rows] == [["0", "128"], ["1", "256"]]
        # checkpoint_best.bin is saved on a strict gain only, and the
        # step-256 evaluation does not beat the step-128 one.
        assert float(rows[1][2]) <= float(rows[0][2])
        steps = [
            json.loads(read_archive(out / f"checkpoint_{name}.bin")["meta"])["env_steps"]
            for name in ("best", "final")
        ]
        assert steps == [128, 256]


class TestDivergedRun:
    # One Adam step at this learning rate makes the Q network overflow; the
    # action at step 251 then sees non-finite Q values.
    CONFIG = """
[experiment]
agent = dqn
scenario = merge
seeds = 5
total_env_steps = 300
eval_every = 100
eval_episodes = 2

[dqn]
learn_start = 250
buffer_capacity = 2000
hidden_sizes = 16
learning_rate = 1e300
"""

    def test_cli_keeps_the_rows_recorded_so_far(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.ini"
        config_path.write_text(self.CONFIG)
        out = tmp_path / "runs"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # numpy's overflow must stay silent
            code = main(["train", "--config", str(config_path), "--out", str(out)])
        assert code == EXIT_DIVERGENCE
        assert capsys.readouterr().err == (
            "training diverged: seed 5, global step 250: non-finite Q values in action selection\n"
        )
        run_dir = out / "seed_5"
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["checkpoint_best.bin", "eval.csv", "faults.csv", "metrics.csv"]
        files = {"metrics": TRAIN_CSV_COLUMNS, "faults": FAULTS_CSV_COLUMNS, "eval": EVAL_CSV_COLUMNS}
        rows = {}
        for name, columns in files.items():
            header, rows[name] = read_csv(run_dir / f"{name}.csv")
            assert tuple(header) == columns and rows[name]
            assert all(math.isfinite(float(value)) for row in rows[name] for value in row)
        # the recorder saw every step up to the one whose action diverged
        assert [int(row[0]) for row in rows["faults"]] == list(range(1, 251))
        assert [row[1] for row in rows["eval"]] == ["100", "200"]
        assert int(rows["metrics"][-1][1]) <= 250


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


class TestPinnedCsvBytes:
    # Untrained seed-0 learners, so that compare fills every row; one seed
    # above 1e9, which must be written whole.
    CONFIG = """
[experiment]
agent = rules
seeds = 5, 3000000000
eval_episodes = 3
dqn_checkpoint = {dqn}
ppo_checkpoint = {ppo}

[dqn]
hidden_sizes = 16

[ppo]
hidden_sizes = 16
"""

    def test_eval_rollout_and_compare_csvs_are_pinned(self, tmp_path):
        dqn, ppo = tmp_path / "dqn.bin", tmp_path / "ppo.bin"
        cfg = parse_config(self.CONFIG.format(dqn=dqn, ppo=ppo))
        DqnLearner(OBS_DIM, N_ACTIONS, cfg.dqn, seed=0).save(dqn)
        PpoLearner(OBS_DIM, N_ACTIONS, cfg.ppo, seed=0).save(ppo)
        run_eval(cfg, None, tmp_path / "eval")
        export_trajectory(cfg, None, 3_000_000_000, tmp_path / "rollout.csv")
        compare(cfg, tmp_path / "cmp")
        paths = ("eval/eval_episodes.csv", "rollout.csv", "cmp/comparison.csv")
        digests = [hashlib.sha256((tmp_path / p).read_bytes()).hexdigest() for p in paths]
        assert digests == [
            "d587205ca588532187a1623425106081359e1a85d47b60d898724b0ef2ad62b9",
            "15f07b899df430f36baae8941bb54785e6dfaec0c8d5b773eda392ca405dd5c2",
            "98a5b46ab75ed0cd67d9c16484ac74b9646cb566d0bc6edf9e4a85770c366102",
        ]
        assert "\n1,3000000000," in (tmp_path / paths[0]).read_text()


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
        [
            ("ghr_c = nan", "bad value for 'ghr_c'"),
            ("ghr_m = -1", "ghr_m must be >= 0"),
            ("ghr_tau = 1e300", "ghr_tau must be <= 100 s"),
        ],
    )
    def test_bad_ghr_value_exit_code(self, tmp_path, capsys, line, message):
        config_path = tmp_path / "ghr.ini"
        config_path.write_text(SMALL_RANDOM + "\n[env]\n" + line + "\n")
        out = tmp_path / "runs"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
        assert f"{config_path}:11: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            (SMALL_RANDOM.replace("seeds = 5", "seeds = 3, 3"), ":5: seeds must be distinct"),
            (SMALL_DQN.replace("learn_start = 50", "learn_start = 2001"), ":11,12: need learn_start"),
        ],
        ids=["duplicate_seeds", "learn_start_above_capacity"],
    )
    def test_config_that_would_train_wrongly_exit_code(self, tmp_path, capsys, text, message):
        config_path = tmp_path / "bad.ini"
        config_path.write_text(text)
        out = tmp_path / "runs"
        assert main(["train", "--config", str(config_path), "--out", str(out)]) == EXIT_CONFIG
        assert f"{config_path}{message}" in capsys.readouterr().err
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

    @pytest.mark.parametrize("agent", ["dqn", "ppo"])
    @pytest.mark.parametrize(
        "widths, shown",
        [
            ({"obs_dim": 99, "n_actions": 7}, "obs_dim 99, n_actions 7"),
            ({"n_actions": None}, "obs_dim 4, n_actions None"),
            ({"obs_dim": "4"}, "obs_dim '4', n_actions 3"),
        ],
        ids=["other_widths", "no_n_actions", "obs_dim_text"],
    )
    def test_meta_widths_not_the_networks(self, tmp_path, agent, widths, shown):
        def set_widths(sections):
            meta = json.loads(sections["meta"])
            meta.update(widths)
            sections["meta"] = json.dumps({k: v for k, v in meta.items() if v is not None}).encode()

        path = self.saved(tmp_path, agent, set_widths)
        with pytest.raises(CheckpointFormatError, match=f"gives {shown}; its first network maps 4 to 3"):
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
    """Every truncation and byte flip of a checkpoint gives a typed error or a load.

    Each flip is tried as is, then re-sealed: the CRC of the network section
    it hits and the archive's CRC are recomputed. The sha256 of every
    outcome, "ok" or the error's type and message, is pinned, so the reader
    keeps its check order and its messages.
    """

    FLIPS = 200
    OUTCOME_DIGESTS = {
        "network": "7c16b8c1647cc4b92dcefc2e7b3c2140222264afec67fb1b07e4664bd9b43c60",
        "dqn": "cfcd3be6a58f75d052b238e5f2b3427a52f22ad2bd913b9a70aee574e4f32a91",
        "ppo": "2b81119c988171ab57c6e7d9686b8eaeaae79c88bf199b01a120da57fcc371ca",
    }
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
            yield bytes(flipped)
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
            path.write_bytes(network_to_bytes(spec, init_params(spec, 0)))
            load = lambda: network_from_bytes(path.read_bytes())
        else:
            learner_cls, cfg = self.AGENTS[kind]
            learner_cls(3, 2, cfg, seed=0).save(path)
            load = lambda: learner_cls.load(path, cfg)
        data = path.read_bytes()
        spans = [(0, len(data))] if kind == "network" else self.network_spans(data)
        rng = np.random.default_rng(9)
        outcomes = []
        for case in self.cases(data, spans, rng):
            path.write_bytes(case)
            try:
                load()
                outcomes.append("ok")
            except CheckpointError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        assert len(outcomes) - outcomes.count("ok") >= len(data)  # every truncation
        assert "ok" in outcomes
        digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
        assert digest == self.OUTCOME_DIGESTS[kind]
