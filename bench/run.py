"""highwaylab benchmark: training throughput end to end, and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports highwaylab from ./src. Each
measured run is a fresh child process (bench/child.py) started with the
BLAS and OpenMP thread variables set to 1, one process at a time.

--trace 0 repeats untraced runs of the workload config until --seconds
have passed (at least three). All runs share the config, so each run's
output files must hash equal to the first run's, and each run does the
same work. It reports the medians of setup_s and peak_rss_mb and the best
steps_per_s: on a shared machine other tenants slow a run down by up to
half from one run to the next, and never speed it up, so the fastest of
identical runs varies far less than their median.

--trace 1 makes an untraced, a traced and a second untraced run of the
config, plus an untraced run at the default seed for the golden-hash
check, and reports the per-layer metrics from the traced run's spans.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it repeat every
metric with its unit and sample count, the failure ratio, the machine and
any golden-hash mismatch. Full records go to .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, Workload, run_seed

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_TIMED_RUNS = 3
# No run starts after this many seconds; every invocation must end within 180.
START_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 170.0

# Per-call mean of each traced span: (metric suffix, unit, scale from seconds).
US = ("us_mean", "us", 1e6)
SPAN_MEANS = {
    "env.step": US,
    "env.reset": US,
    "env.collision_check": US,
    "env.ghr_acceleration": US,
    "env.encode_observation": US,
    "reward.compute_reward": US,
    "nets.forward.b1": US,
    "nets.forward.b64": US,
    "nets.forward.b256": US,
    "nets.backward.b64": US,
    "nets.backward.b256": US,
    "nets.adam_step": US,
    "nets.write_archive": ("ms_mean", "ms", 1e3),
    "nets.read_archive": ("ms_mean", "ms", 1e3),
    "dqn.train_step": US,
    "dqn.act": US,
    "dqn.replay.sample": US,
    "dqn.replay.add": US,
    "ppo.collect": ("s_per_rollout", "s", 1.0),
    "ppo.update": ("s_per_rollout", "s", 1.0),
    "ppo.compute_gae": ("ms_mean", "ms", 1e3),
    "ppo.ppo_objective": US,
    "ppo.value_loss": US,
    "rules.act": US,
    "harness.evaluate_policy": ("s_mean", "s", 1.0),
    "harness.recorder.on_step": US,
    "harness.recorder.write": ("ms", "ms", 1e3),
    "config.parse_config": ("ms", "ms", 1e3),
}

# End-to-end metric -> (unit, statistic over the runs of one invocation).
END_TO_END = {
    "steps_per_s": ("steps/s", max),
    "setup_s": ("s", statistics.median),
    "peak_rss_mb": ("MB", statistics.median),
}


@dataclass
class Context:
    workload: Workload
    work: Path
    env: dict
    deadline: float


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(ctx: Context, seed: int, tag: str, trace: bool = False) -> dict:
    """One run in a fresh process; returns its record with "ok" and "errors"."""
    run_dir = ctx.work / tag
    run_dir.mkdir(parents=True)
    config = run_dir / "config.ini"
    config.write_text(ctx.workload.config_text(seed), encoding="utf-8")
    out = run_dir / "out"
    result = run_dir / "result.json"
    cmd = [
        sys.executable,
        str(BENCH_DIR / "child.py"),
        "--workload", ctx.workload.name,
        "--config", str(config),
        "--out", str(out),
        "--result", str(result),
    ]
    if trace:
        cmd += ["--spans", str(run_dir / "spans.npz")]
    timeout = max(1.0, min(CHILD_TIMEOUT_S, ctx.deadline - time.perf_counter()))
    try:
        proc = subprocess.run(
            cmd, env=ctx.env, capture_output=True, text=True, timeout=timeout, check=False
        )
    except subprocess.TimeoutExpired:
        return {"tag": tag, "seed": seed, "ok": False, "errors": [f"timed out after {timeout:.0f} s"]}
    if proc.returncode != 0 or not result.is_file():
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"tag": tag, "seed": seed, "ok": False, "errors": [f"exit {proc.returncode}: {tail}"]}
    record = json.loads(result.read_text(encoding="utf-8"))
    record.update(tag=tag, seed=seed, ok=not record["errors"])
    shutil.rmtree(out)  # hashed already; keeps the checkout small
    return record


def require_same_outputs(runs: list[dict], reference: dict, why: str) -> None:
    """Fail every run whose output hashes differ from the reference run's."""
    for run in runs:
        if run is reference or not run["ok"]:
            continue
        differ = sorted(
            name
            for name in set(run["hashes"]) | set(reference["hashes"])
            if run["hashes"].get(name) != reference["hashes"].get(name)
        )
        if differ:
            run["ok"] = False
            run["errors"].append(f"{why}: {', '.join(differ)}")


def golden_mismatches(workload: str, hashes: dict[str, str]) -> list[str]:
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {})
    names = set(golden) | set(hashes)
    return sorted(name for name in names if golden.get(name) != hashes.get(name))


def timed_runs(ctx: Context, seed: int, seconds: float) -> list[dict]:
    runs: list[dict] = []
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        runs.append(run_child(ctx, seed, f"run{len(runs)}"))
        walls.append(time.perf_counter() - t)
        elapsed = time.perf_counter() - start
        if len(runs) >= MIN_TIMED_RUNS and elapsed + statistics.median(walls) > seconds:
            break
        if elapsed > START_LIMIT_S:
            break
    ok = [r for r in runs if r["ok"]]
    if ok:
        require_same_outputs(runs, ok[0], "outputs differ from the first run with the same seed")
    return runs


def end_to_end_metrics(runs: list[dict]) -> dict[str, list[float]]:
    ok = [r for r in runs if r["ok"]]
    return {
        "steps_per_s": [r["env_steps"] / r["run_s"] for r in ok],
        "setup_s": [r["setup_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }


def per_layer_metrics(traced: dict, untraced: dict, golden_match: bool) -> dict:
    """Every per-layer metric as name -> (value, unit), from the traced run."""
    summary = traced["summary"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    span = {name: summary.get(name, empty) for name in SPAN_MEANS}
    wall = traced["run_s"]

    def mean(name: str, scale: float, key: str = "total_s") -> float:
        calls = span[name]["calls"]
        return span[name][key] / calls * scale if calls else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name, (suffix, unit, scale) in SPAN_MEANS.items():
        out[f"{name}.calls"] = (span[name]["calls"], "count")
        out[f"{name}.{suffix}"] = (mean(name, scale), unit)
        out[f"{name}.self_s"] = (span[name]["self_s"], "s")
    train_calls = span["dqn.train_step"]["calls"]
    out.update(
        {
            "env.step.self_us_mean": (mean("env.step", 1e6, key="self_s"), "us"),
            "env.step.share": (span["env.step"]["total_s"] / wall, "ratio"),
            "nets.calls": (
                sum(s["calls"] for n, s in summary.items() if n.startswith("nets.")),
                "count",
            ),
            "dqn.train_step.useful_ratio": (
                traced["train_steps_useful"] / train_calls if train_calls else 0.0,
                "ratio",
            ),
            "dqn.train_step.share": (span["dqn.train_step"]["total_s"] / wall, "ratio"),
            "ppo.collect_update.share": (
                (span["ppo.collect"]["total_s"] + span["ppo.update"]["total_s"]) / wall,
                "ratio",
            ),
            "harness.evaluate_policy.s_total": (span["harness.evaluate_policy"]["total_s"], "s"),
            "harness.evaluate_policy.share": (
                span["harness.evaluate_policy"]["total_s"] / wall,
                "ratio",
            ),
            "harness.run_train.traced_s": (wall, "s"),
            "harness.top_level_share": (summary["_top"]["share"], "ratio"),
            "harness.golden_match": (1 if golden_match else 0, "bool"),
            "trace.overhead_s": (wall - untraced["run_s"], "s"),
            "trace.spans": (traced["spans"], "count"),
        }
    )
    return out


def traced_runs(ctx: Context, seed: int) -> tuple[list[dict], dict | None, list[str]]:
    untraced = run_child(ctx, seed, "untraced")
    traced = run_child(ctx, seed, "traced", trace=True)
    rerun = run_child(ctx, seed, "rerun")
    golden = untraced if seed == DEFAULT_SEED else run_child(ctx, DEFAULT_SEED, "golden")
    runs = [untraced, traced, rerun] + ([] if golden is untraced else [golden])
    if untraced["ok"]:
        require_same_outputs([traced, rerun], untraced, "outputs differ from the untraced run")
    if not (untraced["ok"] and traced["ok"]):
        return runs, None, []
    fastest = min((r for r in (untraced, rerun) if r["ok"]), key=lambda r: r["run_s"])
    if golden["ok"]:
        mismatches = golden_mismatches(ctx.workload.name, golden["hashes"])
    else:
        mismatches = ["(golden run failed)"]
    return runs, per_layer_metrics(traced, fastest, not mismatches), mismatches


def report_machine(runs: list[dict]) -> None:
    machine = next((r["machine"] for r in runs if "machine" in r), None)
    if machine:
        print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "highwaylab" / "__init__.py").is_file():
        print(f"error: {root}/src/highwaylab not found; run from the repository root", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / ".bench_out" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(root)
    started = time.perf_counter()
    # Compiles the sources once, so no timed set-up pays for bytecode.
    probe = subprocess.run(
        [sys.executable, "-c", "import highwaylab"],
        env=env, capture_output=True, text=True, timeout=60, check=False,
    )
    if probe.returncode != 0:
        print(f"error: cannot import highwaylab: {probe.stderr.strip()}", file=sys.stderr)
        return 2
    ctx = Context(workload, work, env, deadline=started + CHILD_TIMEOUT_S)

    print(
        f"workload {workload.name}  seed {args.seed}  "
        f"run seed {run_seed(args.seed)}  trace {args.trace}"
    )
    if args.trace:
        runs, layer, mismatches = traced_runs(ctx, args.seed)
    else:
        runs = timed_runs(ctx, args.seed, args.seconds)
    failed = sum(not r["ok"] for r in runs)
    for r in runs:
        for error in r["errors"]:
            print(f"FAILED {r['tag']} (seed {r['seed']}): {error}", file=sys.stderr)
    report_machine(runs)

    metrics: dict[str, dict] = {}
    if args.trace:
        if layer is None:
            print("error: the traced run or its untraced twin failed", file=sys.stderr)
            return 1
        for name, (value, unit) in layer.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name:<36} {value:>14.6g} {unit}")
        if mismatches:
            print(f"golden mismatch at seed {DEFAULT_SEED}: {', '.join(mismatches)}")
    else:
        samples = end_to_end_metrics(runs)
        if not samples["steps_per_s"]:
            print("error: no run succeeded", file=sys.stderr)
            return 1
        for name, values in samples.items():
            unit, statistic = END_TO_END[name]
            value = statistic(values)
            metrics[name] = {"value": value, "unit": unit}
            print(
                f"{name:<14} {value:>12.6g} {unit:<8} {statistic.__name__} of n={len(values)}  "
                f"median {statistics.median(values):.6g}  min {min(values):.6g}  max {max(values):.6g}"
            )
        ok = [r for r in runs if r["ok"]]
        if args.seed == DEFAULT_SEED and ok:
            mismatches = golden_mismatches(workload.name, ok[0]["hashes"])
            print("golden: " + ("match" if not mismatches else "MISMATCH " + ", ".join(mismatches)))
    print(f"run_fail_ratio {failed}/{len(runs)} = {failed / len(runs):.6g}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "runs": [{k: v for k, v in r.items() if k != "summary"} for r in runs],
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
