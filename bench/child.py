"""One benchmark run of one workload config, in a fresh process.

    python3 bench/child.py --workload NAME --config PATH --out DIR --result PATH [--spans PATH]

Times set-up (import of highwaylab, parse_config, construction of the env
and the learner or agent, up to the first env.reset) and then
`highwaylab.harness.run_train` on the config. It checks every output file,
hashes them, and writes one JSON result to --result. With --spans the run
is traced and the result also holds the per-span summary.

The parent sets the BLAS and OpenMP thread variables before this process
starts, so numpy loads single-threaded. Nothing before the set-up timer may
import numpy or highwaylab.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _setup(text: str, origin: str):
    """Build what run_train builds first, up to the first env.reset."""
    import highwaylab
    from highwaylab import harness
    from highwaylab.env import OBS_DIM

    config = highwaylab.parse_config(text, origin)
    env = harness.make_env(config)
    run_seed = config.seeds[0]
    if config.agent == "dqn":
        highwaylab.DqnLearner(OBS_DIM, highwaylab.N_ACTIONS, config.dqn, seed=run_seed)
    elif config.agent == "ppo":
        highwaylab.PpoLearner(OBS_DIM, highwaylab.N_ACTIONS, config.ppo, seed=run_seed)
    else:
        harness.RulePolicy(config)
    env.reset(harness.train_episode_seed(run_seed, 0))
    return config


def _read_csv(path: Path, columns, errors: list[str]) -> list[list[str]]:
    if not path.is_file():
        errors.append(f"{path.name}: missing")
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split(",")) != tuple(columns):
        errors.append(f"{path.name}: header differs from {','.join(columns)}")
        return []
    rows = [line.split(",") for line in lines[1:]]
    for n, row in enumerate(rows, start=2):
        if len(row) != len(columns):
            errors.append(f"{path.name}:{n}: {len(row)} fields, expected {len(columns)}")
            return []
        for value in row:
            try:
                finite = math.isfinite(float(value))
            except ValueError:
                finite = False
            if not finite:
                errors.append(f"{path.name}:{n}: value {value!r} is not a finite number")
                return []
    return rows


def _check_checkpoint(config, path: Path, errors: list[str]) -> None:
    """Read the final checkpoint back through the learner and compare parameters."""
    from highwaylab import nets
    from highwaylab.dqn import DqnLearner
    from highwaylab.ppo import PpoLearner

    if config.agent == "dqn":
        learner = DqnLearner.load(path, config.dqn)
        expected = {
            "q": nets.network_to_bytes(learner.spec, learner.params),
            "q_target": nets.network_to_bytes(learner.spec, learner.target_params),
            "adam": nets.adam_to_bytes(learner.adam),
        }
    else:
        learner = PpoLearner.load(path, config.ppo)
        expected = {
            "policy": nets.network_to_bytes(learner.policy_spec, learner.policy_params),
            "value": nets.network_to_bytes(learner.value_spec, learner.value_params),
            "adam_policy": nets.adam_to_bytes(learner.policy_adam),
            "adam_value": nets.adam_to_bytes(learner.value_adam),
        }
    stored = nets.read_archive(path)
    for name, payload in expected.items():
        if stored.get(name) != payload:
            errors.append(f"{path.name}: section {name!r} differs after load")


def env_steps_per_run(config) -> int:
    """Training steps one run takes: PPO finishes its last whole rollout."""
    if config.agent != "ppo":
        return config.total_env_steps
    rollout = config.ppo.rollout_length
    return -(-config.total_env_steps // rollout) * rollout


def check_outputs(config, run_dirs: dict[int, Path]) -> list[str]:
    """Schema, finiteness, row counts, and checkpoint read-back of every run."""
    from highwaylab import harness

    errors: list[str] = []
    steps = env_steps_per_run(config)
    for run_dir in run_dirs.values():
        metrics = _read_csv(run_dir / "metrics.csv", harness.TRAIN_CSV_COLUMNS, errors)
        faults = _read_csv(run_dir / "faults.csv", harness.FAULTS_CSV_COLUMNS, errors)
        evals = _read_csv(run_dir / "eval.csv", harness.EVAL_CSV_COLUMNS, errors)
        if len(faults) != steps:
            errors.append(f"faults.csv: {len(faults)} rows, expected {steps}")
        if not metrics:
            errors.append("metrics.csv: no finished episode")
        if [row[0] for row in evals] != [str(i) for i in range(len(evals))] or not evals:
            errors.append("eval.csv: eval_index is not 0, 1, 2, ...")
        if config.agent in ("dqn", "ppo"):
            for name in ("checkpoint_final.bin", "checkpoint_best.bin"):
                if not (run_dir / name).is_file():
                    errors.append(f"{name}: missing")
            if (run_dir / "checkpoint_final.bin").is_file():
                _check_checkpoint(config, run_dir / "checkpoint_final.bin", errors)
    return errors


def hash_outputs(out_dir: Path) -> dict[str, str]:
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(workload: str, text: str, out_dir: Path, spans: Path | None = None) -> dict:
    """Set up, train, check and hash; returns the result record."""
    t0 = time.perf_counter()
    config = _setup(text, origin=f"<{workload}>")
    setup_s = time.perf_counter() - t0

    from highwaylab import config as config_module
    from highwaylab import harness

    tracer = None
    if spans is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        config = config_module.parse_config(text, f"<{workload}>")
        root = len(tracer.start)
        t1 = time.perf_counter()
        run_dirs = tracer.span("harness.run_train", harness.run_train, config, out_dir)
    else:
        t1 = time.perf_counter()
        run_dirs = harness.run_train(config, out_dir)
    run_s = time.perf_counter() - t1

    errors = check_outputs(config, run_dirs)
    result = {
        "workload": workload,
        "setup_s": setup_s,
        "run_s": run_s,
        "env_steps": env_steps_per_run(config) * len(config.seeds),
        "errors": errors,
        "hashes": hash_outputs(out_dir),
        "machine": machine_info(),
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write(spans)
        result["spans"] = len(tracer.start)
        result["summary"] = tracer.summarize(root)
        result["train_steps_useful"] = tracer.train_steps_useful
    # Read last, so the peak covers the checks and the trace as well.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()
    text = args.config.read_text(encoding="utf-8")
    result = run(args.workload, text, args.out, args.spans)
    args.result.write_text(json.dumps(result, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
