"""Acceptance suite: each test checks one numbered criterion at its stated
tolerance and prints one PASS/FAIL line (visible regardless of capture).

Criteria 5 to 7 share one set of full-scale merge training runs (three seeds
of DQN at 50k steps, PPO at 25 x 2048 steps, and a random-policy logging run)
built once per session; expect the whole module to take several minutes.
They carry the `slow` marker, so `pytest -m "not slow"` leaves them out.
"""

import functools
import time

import numpy as np
import pytest

import conftest
from helpers import ChainMdp, gae_double_sum

from highwaylab.config import parse_config
from highwaylab.dqn import DqnConfig, DqnLearner, Transition
from highwaylab.env import HighwayEnv, RoadConfig
from highwaylab.harness import (
    FaultLog,
    RandomPolicy,
    RulePolicy,
    build_eval_policy,
    evaluate_policy,
    make_env,
    run_train,
    train_episode_seed,
)
from highwaylab.nets import (
    NetworkSpec,
    gradient_check,
    init_params,
    log_prob_probe,
    squared_error_probe,
)
from highwaylab.ppo import RolloutBatch, clipped_surrogate, compute_gae
from highwaylab.reward import RewardWeights


def criterion(number, label):
    """Record and print one `[criterion N] PASS/FAIL` line for the test.

    Lines go to stdout (visible with -s) and to the terminal-summary section
    (visible in any run, capture or not).
    """

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException as exc:
                line = f"[criterion {number}] FAIL  {label}  ({exc})"
                conftest.CRITERION_RESULTS.append(line)
                print(line)
                raise
            extra = f"  ({detail})" if detail else ""
            line = f"[criterion {number}] PASS  {label}{extra}"
            conftest.CRITERION_RESULTS.append(line)
            print(line)

        return wrapper

    return decorator


# ---------------------------------------------------------------------------
# Shared full-scale training runs (criteria 5, 6, 7)
# ---------------------------------------------------------------------------

DQN_MERGE = """
[experiment]
agent = dqn
scenario = merge
seeds = 0, 1, 2
total_env_steps = 50000
eval_every = 5000
eval_episodes = 10
"""

PPO_MERGE = """
[experiment]
agent = ppo
scenario = merge
seeds = 0, 1, 2
total_env_steps = 51200
eval_every = 5120
eval_episodes = 10
"""

RANDOM_MERGE = """
[experiment]
agent = random
scenario = merge
seeds = 0, 1, 2
total_env_steps = 51200
eval_every = 100000
eval_episodes = 10
"""


def read_column(path, column):
    lines = path.read_text().splitlines()
    idx = lines[0].split(",").index(column)
    return [line.split(",")[idx] for line in lines[1:]]


@pytest.fixture(scope="module")
def merge_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_runs")
    runs = {}
    for name, text in (("dqn", DQN_MERGE), ("ppo", PPO_MERGE), ("random", RANDOM_MERGE)):
        config = parse_config(text)
        start = time.monotonic()
        dirs = run_train(config, root / name)
        runs[name] = {
            "config": config,
            "dirs": dirs,
            "seconds": time.monotonic() - start,
        }
    return runs


# ---------------------------------------------------------------------------
# 1. Gradient correctness
# ---------------------------------------------------------------------------


@criterion(1, "gradient check on the 25-128-128-5 network < 1e-4")
def test_c1_gradient_correctness():
    spec = NetworkSpec((25, 128, 128, 5))
    params = init_params(spec, seed=0)
    x = np.random.default_rng(1).uniform(-1.0, 1.0, size=25)
    start = time.monotonic()
    err_sq = gradient_check(spec, params, x, squared_error_probe(np.linspace(-1, 1, 5)))
    err_lp = gradient_check(spec, params, x, log_prob_probe(2))
    elapsed = time.monotonic() - start
    assert err_sq < 1e-4, f"squared-error probe error {err_sq:.3e}"
    assert err_lp < 1e-4, f"log-prob probe error {err_lp:.3e}"
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
    return f"errors {err_sq:.1e} / {err_lp:.1e} in {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. GAE oracle equivalence
# ---------------------------------------------------------------------------


@criterion(2, "recursive advantages match the double-sum oracle on 1000 segments")
def test_c2_gae_oracle_equivalence():
    rng = np.random.default_rng(20_240)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        terminated = rng.random(n) < 0.2
        episode_end = terminated.copy()
        episode_end[-1] = True
        batch = RolloutBatch(
            obs=np.zeros((n, 1)),
            actions=np.zeros(n, dtype=np.int64),
            rewards=rng.normal(size=n),
            values=rng.normal(size=n),
            next_values=rng.normal(size=n),
            log_probs=np.zeros(n),
            terminated=terminated,
            episode_end=episode_end,
        )
        for gamma, lam in ((0.99, 0.95), (1.0, 1.0), (0.9, 0.0)):
            adv, _ = compute_gae(batch, gamma, lam, normalize=False)
            oracle = gae_double_sum(
                batch.rewards,
                batch.values,
                batch.next_values,
                terminated,
                episode_end,
                gamma,
                lam,
            )
            worst = max(worst, float(np.max(np.abs(adv - oracle))))
            assert worst < 1e-10, f"deviation {worst:.3e}"
    return f"max deviation {worst:.1e}"


# ---------------------------------------------------------------------------
# 3. Clip identities
# ---------------------------------------------------------------------------


@criterion(3, "clipped surrogate equals hand formula on the exhaustive grid")
def test_c3_clip_identities():
    eps = 0.2
    for rho in (0.5, 0.79, 0.8, 1.0, 1.2, 1.21, 1.5):
        for advantage in (-1.0, 0.0, 1.0):
            got = clipped_surrogate(np.array([rho]), np.array([advantage]), eps)[0]
            clipped_rho = min(max(rho, 1.0 - eps), 1.0 + eps)
            expected = min(rho * advantage, clipped_rho * advantage)
            assert got == expected, f"rho={rho} A={advantage}: {got} != {expected}"
            assert got <= rho * advantage, f"rho={rho} A={advantage}: not pessimistic"
    return "21 grid points exact"


# ---------------------------------------------------------------------------
# 4. Tabular oracle
# ---------------------------------------------------------------------------


@criterion(4, "DQN recovers value iteration on the 5-state chain")
def test_c4_tabular_oracle():
    start = time.monotonic()
    mdp = ChainMdp(n_states=5)
    gamma = 0.9
    q_star = mdp.value_iteration(gamma)

    config = DqnConfig(
        gamma=gamma,
        learning_rate=0.02,
        batch_size=32,
        buffer_capacity=5_000,
        learn_start=64,
        target_sync_every=200,
        epsilon_decay_steps=2_000,
        hidden_sizes=(),  # single linear layer on one-hot inputs
    )
    learner = DqnLearner(obs_dim=5, n_actions=2, config=config, seed=0)
    rng = np.random.default_rng(0)
    for _ in range(200):
        state = int(rng.integers(mdp.terminal))
        for _ in range(30):
            obs = mdp.one_hot(state)
            action = learner.act(obs)
            nxt, reward, done = mdp.step(state, action)
            learner.observe(Transition(obs, action, reward, mdp.one_hot(nxt), done))
            learner.train_step()
            state = nxt
            if done:
                break

    q = np.stack([learner.q_values(mdp.one_hot(s)) for s in range(5)])
    greedy = [int(np.argmax(q[s])) for s in range(mdp.terminal)]
    optimal = [int(np.argmax(q_star[s])) for s in range(mdp.terminal)]
    gap = float(np.max(np.abs(q[: mdp.terminal] - q_star[: mdp.terminal])))
    elapsed = time.monotonic() - start
    assert greedy == optimal, f"greedy {greedy} vs optimal {optimal}"
    assert gap < 1e-2, f"max |Q - Q*| = {gap:.4f}"
    assert elapsed < 60.0, f"took {elapsed:.1f} s"
    return f"max |Q - Q*| = {gap:.1e} after 200 episodes in {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 5. Learning signal on the merge scenario
# ---------------------------------------------------------------------------


def final_eval_mean(run_dir):
    means = [float(v) for v in read_column(run_dir / "eval.csv", "mean_return")]
    k = max(1, len(means) // 4)
    return float(np.mean(means[-k:]))


def quartile_trend(run_dir):
    moving = [float(v) for v in read_column(run_dir / "metrics.csv", "return_mean_100")]
    k = max(1, len(moving) // 4)
    return float(np.mean(moving[:k])), float(np.mean(moving[-k:]))


@pytest.mark.slow
@criterion(5, "DQN and PPO beat 1.5x random with a nondecreasing trend")
def test_c5_learning_signal(merge_runs):
    baseline_config = merge_runs["dqn"]["config"]
    baseline, _ = evaluate_policy(baseline_config, RandomPolicy(), baseline_config.eval_episodes)
    threshold = 1.5 * baseline["mean_return"]

    details = []
    for agent in ("dqn", "ppo"):
        run = merge_runs[agent]
        finals = [final_eval_mean(d) for d in run["dirs"].values()]
        trends = [quartile_trend(d) for d in run["dirs"].values()]
        mean_final = float(np.mean(finals))
        first = float(np.mean([t[0] for t in trends]))
        last = float(np.mean([t[1] for t in trends]))
        assert mean_final >= threshold, (
            f"{agent}: final eval mean {mean_final:.2f} < 1.5 x random "
            f"({baseline['mean_return']:.2f})"
        )
        assert last >= first, f"{agent}: moving mean fell from {first:.2f} to {last:.2f}"
        assert run["seconds"] < 15 * 60, f"{agent}: took {run['seconds']:.0f} s"
        details.append(
            f"{agent} {mean_final:.1f} vs random {baseline['mean_return']:.2f}, "
            f"trend {first:.1f}->{last:.1f}, {run['seconds']:.0f}s"
        )
    return "; ".join(details)


# ---------------------------------------------------------------------------
# 6. Qualitative superiority claim (claim-check)
# ---------------------------------------------------------------------------


@pytest.mark.slow
@criterion(6, "trained PPO >= rules return and >= 5x safer than random")
def test_c6_superiority_claim(merge_runs):
    ppo_run = merge_runs["ppo"]
    config = ppo_run["config"]
    best_seed = max(ppo_run["dirs"], key=lambda s: final_eval_mean(ppo_run["dirs"][s]))
    policy = build_eval_policy(config, ppo_run["dirs"][best_seed] / "checkpoint_final.bin")

    ppo, _ = evaluate_policy(config, policy, 100)
    rules, _ = evaluate_policy(config, RulePolicy(config), 100)
    random_, _ = evaluate_policy(config, RandomPolicy(), 100)

    assert ppo["mean_return"] >= rules["mean_return"], (
        f"ppo {ppo['mean_return']:.2f} < rules {rules['mean_return']:.2f}"
    )
    assert ppo["collision_rate"] <= random_["collision_rate"] / 5.0, (
        f"ppo collisions {ppo['collision_rate']:.2f} vs random "
        f"{random_['collision_rate']:.2f}"
    )
    return (
        f"ppo {ppo['mean_return']:.1f} vs rules {rules['mean_return']:.1f}; "
        f"collisions {ppo['collision_rate']:.2f} vs random {random_['collision_rate']:.2f}"
    )


# ---------------------------------------------------------------------------
# 7. Fault-log properties
# ---------------------------------------------------------------------------


FAULT_COMPARE_STEPS = 10_000


def _policy_fault_count(config, policy, run_seed, steps):
    """Fault count of a fixed policy over the training-episode seed schedule."""
    env = make_env(config)
    log = FaultLog()
    episode = 0
    obs = env.reset(train_episode_seed(run_seed, episode))
    policy.reset(0, env)
    step = 0
    while step < steps:
        out = env.step(policy.act(obs))
        step += 1
        log.record_step(step, out.info["crashed"] or out.info["off_road"])
        if out.terminated or out.truncated:
            log.episode_reset()
            episode += 1
            obs = env.reset(train_episode_seed(run_seed, episode))
            policy.reset(0, env)
        else:
            obs = out.observation
    return log.count


@pytest.mark.slow
@criterion(7, "fault logs are nondecreasing and trained agents fault less")
def test_c7_fault_log(merge_runs):
    for run in merge_runs.values():
        for run_dir in run["dirs"].values():
            counts = [int(v) for v in read_column(run_dir / "faults.csv", "faults_cum")]
            durations = [
                float(v) for v in read_column(run_dir / "faults.csv", "fault_duration_cum_s")
            ]
            assert counts == sorted(counts)
            assert durations == sorted(durations)

    # Fig.-4-style comparison: the fault accumulation of the *trained* policy
    # driving the same episode-seed schedule the random logging run used.
    details = []
    for agent in ("dqn", "ppo"):
        config = merge_runs[agent]["config"]
        worst_trained = worst_random = 0
        for seed, run_dir in merge_runs[agent]["dirs"].items():
            policy = build_eval_policy(config, run_dir / "checkpoint_final.bin")
            trained = _policy_fault_count(config, policy, seed, FAULT_COMPARE_STEPS)
            random_dir = merge_runs["random"]["dirs"][seed]
            random_counts = read_column(random_dir / "faults.csv", "faults_cum")
            random_at = int(random_counts[FAULT_COMPARE_STEPS - 1])
            assert random_at > 0, f"random run on merge logged no faults by {FAULT_COMPARE_STEPS}"
            assert trained <= random_at, (
                f"{agent} seed {seed}: {trained} faults vs random {random_at}"
            )
            worst_trained = max(worst_trained, trained)
            worst_random = max(worst_random, random_at)
        details.append(f"{agent} worst {worst_trained} vs random {worst_random}")
    return "; ".join(details)


# ---------------------------------------------------------------------------
# 8. End-to-end determinism
# ---------------------------------------------------------------------------

DETERMINISM_CONFIG = """
[experiment]
agent = dqn
scenario = merge
seeds = 3
total_env_steps = 2500
eval_every = 1250
eval_episodes = 3

[dqn]
learn_start = 200
epsilon_decay_steps = 1500
hidden_sizes = 32, 32
"""


@criterion(8, "two train executions produce byte-identical outputs")
def test_c8_end_to_end_determinism(tmp_path):
    config = parse_config(DETERMINISM_CONFIG)
    a = run_train(config, tmp_path / "a")[3]
    b = run_train(config, tmp_path / "b")[3]
    compared = []
    for name in (
        "metrics.csv",
        "faults.csv",
        "eval.csv",
        "checkpoint_final.bin",
        "checkpoint_best.bin",
    ):
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
        compared.append(name)
    return f"{len(compared)} files byte-identical"


# ---------------------------------------------------------------------------
# 9. Reward decomposition in the running environment
# ---------------------------------------------------------------------------


@criterion(9, "10000 random steps: exact weighted sum, components in range")
def test_c9_reward_decomposition():
    weights = RewardWeights()
    rng = np.random.default_rng(909)
    steps = 0
    episode = 0
    for scenario in ("merge", "highway"):
        env = HighwayEnv(road=RoadConfig(scenario=scenario))
        while steps < 5000 * (1 if scenario == "merge" else 2):
            env.reset(episode)
            episode += 1
            while env.episode_active:
                out = env.step(int(rng.integers(5)))
                steps += 1
                r = out.reward
                recomputed = (
                    weights.safety * r.safety
                    + weights.comfort * r.comfort
                    + weights.efficiency * r.efficiency
                )
                assert r.total == recomputed, "decomposition not bitwise"
                assert -1.0 <= r.safety <= 0.0
                assert -2.0 <= r.comfort <= 0.0
                assert 0.0 <= r.efficiency <= 1.0
    return f"{steps} steps checked"
