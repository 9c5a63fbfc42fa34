"""Self-test of the benchmark; run from the repository root:

    python3 bench/selftest.py

Checks, printing one PASS/FAIL line each and exiting 1 on any failure:
  - a tiny-length traced run of each workload passes the output check;
  - each workload exercises the layer it was chosen for: no nets.* call on
    rules_dense, no rules.act call on dqn_merge or ppo_merge;
  - the rules_dense config resets cleanly for the first train and eval
    episode seeds of many benchmark seeds;
  - BENCHMARK.json names exactly the workloads and metrics this code reports,
    and golden.json pins every workload.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
sys.path.insert(0, str(Path.cwd() / "src"))

import child  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Benchmark seeds whose rules_dense episodes must all spawn.
RESET_SEEDS = range(32)
# More than the training episodes one rules_dense run starts.
RESET_EPISODES = 300

failures: list[str] = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {label}" + (f"  ({detail})" if detail else ""))
    if not ok:
        failures.append(label)


def smoke(work: Path) -> dict[str, dict]:
    results = {}
    for workload in WORKLOADS.values():
        out = work / workload.name
        result = child.run(
            workload.name,
            workload.config_text(0, smoke=True),
            out,
            spans=work / f"{workload.name}.npz",
        )
        check(f"{workload.name}: smoke run passes the output check", not result["errors"], "; ".join(result["errors"]))
        results[workload.name] = result
    return results


def layers_exercised(results: dict[str, dict]) -> None:
    for name, result in results.items():
        summary = result["summary"]
        calls = {span: s["calls"] for span, s in summary.items() if span != "_top"}
        nets_calls = sum(n for span, n in calls.items() if span.startswith("nets."))
        rules_calls = calls.get("rules.act", 0)
        if name == "rules_dense":
            check(f"{name}: zero nets.* calls", nets_calls == 0, f"{nets_calls} calls")
            check(f"{name}: rules.act is called", rules_calls > 0)
        else:
            check(f"{name}: no rules.act call", rules_calls == 0, f"{rules_calls} calls")
            check(f"{name}: nets.backward runs", any(s.startswith("nets.backward") for s in calls))
        if name == "dqn_merge":
            check(f"{name}: some train steps learn", result["train_steps_useful"] > 0)


def rules_dense_resets() -> None:
    from highwaylab import harness
    from highwaylab.config import parse_config

    workload = WORKLOADS["rules_dense"]
    bad = []
    for seed in RESET_SEEDS:
        config = parse_config(workload.config_text(seed))
        env = harness.make_env(config)
        episode_seeds = [
            harness.train_episode_seed(run_seed, i)
            for run_seed in config.seeds
            for i in range(RESET_EPISODES)
        ]
        episode_seeds += [
            harness.eval_episode_seed(config.seeds, i) for i in range(config.eval_episodes)
        ]
        for episode_seed in episode_seeds:
            try:
                env.reset(episode_seed)
            except RuntimeError as exc:
                bad.append(f"seed {seed} episode seed {episode_seed}: {exc}")
    check(
        f"rules_dense: resets cleanly for benchmark seeds {RESET_SEEDS.start}-{RESET_SEEDS.stop - 1}",
        not bad,
        "; ".join(bad[:3]),
    )


def contract(results: dict[str, dict]) -> None:
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    check(
        "BENCHMARK.json names the workloads",
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
    )
    check(
        "BENCHMARK.json end_to_end matches the reported metrics",
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
        == {name: unit for name, (unit, _) in run.END_TO_END.items()},
    )
    any_result = next(iter(results.values()))
    layer = run.per_layer_metrics(any_result, any_result, golden_match=True)
    check(
        "BENCHMARK.json per_layer matches the reported metrics",
        {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()},
    )
    golden = json.loads(run.GOLDEN_PATH.read_text(encoding="utf-8"))
    check("golden.json pins every workload", all(golden.get(w) for w in WORKLOADS))


def main() -> int:
    work = Path.cwd() / ".bench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results = smoke(work)
    layers_exercised(results)
    rules_dense_resets()
    contract(results)
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
