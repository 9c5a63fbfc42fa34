"""PPO tests: advantage recursion vs a double-sum oracle, clip identities,
objective gradients vs finite differences, and rollout reproducibility."""

import copy
import itertools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import highwaylab.ppo as ppo
from highwaylab.env import HighwayEnv, RoadConfig
from highwaylab.errors import TrainingDivergenceError
from highwaylab.nets import (
    NetworkSpec,
    ParameterSet,
    backward,
    forward,
    init_params,
    log_softmax,
)
from highwaylab.ppo import (
    PpoConfig,
    PpoLearner,
    RolloutBatch,
    RolloutCollector,
    _sample_action,
    clipped_surrogate,
    compute_gae,
    ppo_objective,
    value_loss,
)


from helpers import gae_double_sum, serial_ppo_update


def random_segments(rng, length):
    """A batch with random rewards/values and random episode boundaries."""
    terminated = rng.random(length) < 0.15
    episode_end = terminated.copy()
    episode_end[-1] = True
    return RolloutBatch(
        obs=np.zeros((length, 1)),
        actions=np.zeros(length, dtype=np.int64),
        rewards=rng.normal(size=length),
        values=rng.normal(size=length),
        next_values=rng.normal(size=length),
        log_probs=np.zeros(length),
        terminated=terminated,
        episode_end=episode_end,
    )


class TestComputeGae:
    def test_lambda_zero_collapses_to_td_residual(self):
        rng = np.random.default_rng(0)
        batch = random_segments(rng, 12)
        adv, _ = compute_gae(batch, gamma=0.9, lam=0.0)
        for t in range(12):
            bootstrap = 0.0 if batch.terminated[t] else batch.next_values[t]
            delta = batch.rewards[t] + 0.9 * bootstrap - batch.values[t]
            assert adv[t] == pytest.approx(delta, abs=1e-15)

    def test_single_terminal_step(self):
        batch = RolloutBatch(
            obs=np.zeros((1, 1)),
            actions=np.zeros(1, dtype=np.int64),
            rewards=np.array([2.0]),
            values=np.array([0.5]),
            next_values=np.array([99.0]),  # ignored: terminal
            log_probs=np.zeros(1),
            terminated=np.array([True]),
            episode_end=np.array([True]),
        )
        adv, targets = compute_gae(batch, 0.99, 0.95)
        assert adv[0] == pytest.approx(1.5)
        assert targets[0] == pytest.approx(2.0)

    def test_matches_double_sum_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            batch = random_segments(rng, int(rng.integers(2, 21)))
            for gamma, lam in ((0.99, 0.95), (1.0, 1.0), (0.9, 0.0)):
                adv, _ = compute_gae(batch, gamma, lam)
                oracle = gae_double_sum(
                    batch.rewards,
                    batch.values,
                    batch.next_values,
                    batch.terminated,
                    batch.episode_end,
                    gamma,
                    lam,
                )
                np.testing.assert_allclose(adv, oracle, atol=1e-10)

    def test_lambda_one_terminated_segment_is_mc_return(self):
        rng = np.random.default_rng(7)
        n = 10
        batch = random_segments(rng, n)
        batch.terminated[:] = False
        batch.terminated[-1] = True
        batch.episode_end[:] = False
        batch.episode_end[-1] = True
        # the telescoping identity needs a consistent value chain, as produced
        # by a real rollout where next_values[t] is V of the next observation
        batch.next_values[:-1] = batch.values[1:]
        gamma = 0.99
        adv, _ = compute_gae(batch, gamma, 1.0)
        for t in range(n):
            mc = sum(gamma ** (k - t) * batch.rewards[k] for k in range(t, n))
            assert adv[t] == pytest.approx(mc - batch.values[t], abs=1e-10)

    def test_value_targets_use_raw_advantages(self):
        rng = np.random.default_rng(3)
        batch = random_segments(rng, 16)
        adv, targets = compute_gae(batch, 0.99, 0.95)
        oracle = gae_double_sum(
            batch.rewards,
            batch.values,
            batch.next_values,
            batch.terminated,
            batch.episode_end,
            0.99,
            0.95,
        )
        np.testing.assert_allclose(adv, oracle, atol=1e-10)
        np.testing.assert_array_equal(targets, adv + batch.values)

    def test_normalization_moments(self, monkeypatch):
        # compute_gae returns raw advantages; update normalizes them over the
        # whole rollout before the policy objective sees them.
        import highwaylab.ppo as ppo

        rng = np.random.default_rng(4)
        batch = random_segments(rng, 512)
        learner = PpoLearner(1, 3, small_ppo_config(epochs=1), seed=4)
        seen = []

        def record_objective(spec, params, obs, actions, old, advantages, *rest):
            seen.append(advantages)
            return objective(spec, params, obs, actions, old, advantages, *rest)

        objective = ppo.ppo_objective
        monkeypatch.setattr(ppo, "ppo_objective", record_objective)
        learner.update(batch)

        adv = np.concatenate(seen)
        assert len(adv) == len(batch)
        assert abs(adv.mean()) < 1e-9
        assert abs(adv.std() - 1.0) < 1e-6
        raw, _ = compute_gae(batch, learner.config.gamma, learner.config.gae_lambda)
        expected = (raw - raw.mean()) / (raw.std() + 1e-8)
        np.testing.assert_allclose(np.sort(adv), np.sort(expected), atol=1e-12)


class TestClippedSurrogate:
    GRID_RHO = (0.5, 0.79, 0.8, 1.0, 1.2, 1.21, 1.5)
    GRID_A = (-1.0, 0.0, 1.0)

    def test_exhaustive_grid_matches_hand_formula(self):
        eps = 0.2
        for rho in self.GRID_RHO:
            for a in self.GRID_A:
                got = clipped_surrogate(np.array([rho]), np.array([a]), eps)[0]
                clipped_rho = min(max(rho, 1.0 - eps), 1.0 + eps)
                expected = min(rho * a, clipped_rho * a)
                assert got == expected  # identical arithmetic, exact

    def test_pessimistic_bound(self):
        eps = 0.2
        for rho in self.GRID_RHO:
            for a in self.GRID_A:
                got = clipped_surrogate(np.array([rho]), np.array([a]), eps)[0]
                assert got <= rho * a

    def test_identity_inside_clip_region(self):
        rng = np.random.default_rng(1)
        eps = 0.2
        rho = rng.uniform(0.8, 1.2, size=200)
        a = rng.normal(size=200)
        np.testing.assert_array_equal(clipped_surrogate(rho, a, eps), rho * a)


def tiny_policy(seed=0, n_actions=3, obs_dim=4):
    spec = NetworkSpec((obs_dim, 6, n_actions))
    return spec, init_params(spec, seed)


def objective_inputs(rng, spec, n=16):
    obs = rng.normal(size=(n, spec.input_dim))
    actions = rng.integers(0, spec.output_dim, size=n)
    old_log_probs = np.log(rng.uniform(0.05, 0.9, size=n))
    advantages = rng.normal(size=n)
    return obs, actions, old_log_probs, advantages


class TestPpoObjective:
    def test_identity_ratio_means_unclipped_objective(self):
        rng = np.random.default_rng(5)
        spec, params = tiny_policy()
        obs, actions, _, advantages = objective_inputs(rng, spec)
        logits = forward(spec, params, obs)
        old = log_softmax(logits)[np.arange(len(obs)), actions]
        objective, _, stats = ppo_objective(
            spec, params, obs, actions, old, advantages, 0.2, entropy_coef=0.0
        )
        assert objective == pytest.approx(float(advantages.mean()), rel=1e-12)
        assert stats["clip_fraction"] == 0.0

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        spec, params = tiny_policy(seed=2)
        obs, actions, old, advantages = objective_inputs(rng, spec, n=8)

        def objective_at(values):
            return ppo_objective(
                spec, ParameterSet(values), obs, actions, old, advantages, 0.2, 0.01
            )[0]

        _, grad, _ = ppo_objective(spec, params, obs, actions, old, advantages, 0.2, 0.01)
        h = 1e-6
        theta = params.values.copy()
        for i in rng.choice(spec.n_params, size=20, replace=False):
            orig = theta[i]
            theta[i] = orig + h
            fp = objective_at(theta)
            theta[i] = orig - h
            fm = objective_at(theta)
            theta[i] = orig
            numeric = (fp - fm) / (2 * h)
            assert grad[i] == pytest.approx(numeric, rel=5e-4, abs=1e-9)

    def test_clipped_and_worse_branch_has_zero_gradient(self):
        # all-positive advantages with much-likelier-now actions: every sample
        # clips, so the policy gradient must vanish (entropy disabled).
        spec, params = tiny_policy(seed=3)
        rng = np.random.default_rng(11)
        obs = rng.normal(size=(6, spec.input_dim))
        logits = forward(spec, params, obs)
        actions = np.argmax(logits, axis=1)
        new_logp = log_softmax(logits)[np.arange(6), actions]
        old = new_logp - 1.0  # ratio = e > 1.2
        advantages = np.ones(6)
        _, grad, stats = ppo_objective(spec, params, obs, actions, old, advantages, 0.2, 0.0)
        assert stats["clip_fraction"] == 1.0
        assert np.all(grad == 0.0)

    def test_nonfinite_ratio_raises(self):
        spec, params = tiny_policy(seed=4)
        obs = np.zeros((1, spec.input_dim))
        with pytest.raises(TrainingDivergenceError):
            ppo_objective(
                spec, params, obs, np.array([0]), np.array([-2000.0]), np.ones(1), 0.2, 0.0
            )

    @pytest.mark.parametrize("spec", [NetworkSpec((5, 9, 7, 4))], ids=["relu"])
    def test_equals_forward_then_backward(self, spec):
        rng = np.random.default_rng(13)
        params = init_params(spec, 6)
        obs, actions, old, advantages = objective_inputs(rng, spec, n=256)
        objective, grad, stats = ppo_objective(
            spec, params, obs, actions, old, advantages, 0.2, 0.01
        )
        # Reference: the objective's gradient in the logits, computed from a
        # separate forward pass, then a backward pass recomputing its own.
        n = len(obs)
        rows = np.arange(n)
        logp_all = log_softmax(forward(spec, params, obs))
        ratios = np.exp(logp_all[rows, actions] - old)
        unclipped = ratios * advantages
        clipped = np.clip(ratios, 1.0 - 0.2, 1.0 + 0.2) * advantages
        probs = np.exp(logp_all)
        entropies = -(probs * logp_all).sum(axis=1)
        coef = np.where(unclipped <= clipped, unclipped, 0.0) / n
        g_logits = coef[:, None] * (-probs)
        g_logits[rows, actions] += coef
        g_logits += (0.01 / n) * (-probs * (logp_all + entropies[:, None]))
        assert objective == float(np.minimum(unclipped, clipped).mean() + 0.01 * entropies.mean())
        assert stats["clip_fraction"] == float(np.mean(clipped < unclipped))
        assert np.array_equal(grad, backward(spec, params, obs, g_logits))

    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_ratios_at_clip_boundary_match_separate_formulas(self, side):
        # epsilon is read off one computed ratio, so that ratio and its
        # duplicates sit exactly at 1 + epsilon (side 1) or 1 - epsilon
        # (side -1), with positive, negative and zero advantages on them.
        rng = np.random.default_rng(17)
        spec = NetworkSpec((5, 9, 4))
        params = init_params(spec, 8)
        obs, actions, old, advantages = objective_inputs(rng, spec, n=64)
        ratios = np.exp(log_softmax(forward(spec, params, obs))[np.arange(64), actions] - old)
        k = int(np.argmax((side * (ratios - 1.0) > 0) & (np.abs(ratios - 1.0) < 0.5)))
        assert side * (ratios[k] - 1.0) > 0 and abs(ratios[k] - 1.0) < 0.5
        obs = np.concatenate([obs, np.repeat(obs[k : k + 1], 3, axis=0)])
        actions = np.concatenate([actions, np.repeat(actions[k], 3)])
        old = np.concatenate([old, np.repeat(old[k], 3)])
        advantages = np.concatenate([advantages, [1.0, -1.0, 0.0]])
        ratios = np.exp(log_softmax(forward(spec, params, obs))[np.arange(67), actions] - old)
        eps = side * (ratios[k] - 1.0)
        assert np.sum(ratios == 1.0 + side * eps) >= 4
        got = ppo_objective(spec, params, obs, actions, old, advantages, eps, 0.01)
        want = objective_reference(spec, params, obs, actions, old, advantages, eps, 0.01)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]


def objective_reference(spec, params, obs, actions, old, advantages, eps, entropy_coef):
    """The objective, gradient and stats from the separate clipped and
    unclipped branches: active where unclipped <= clipped, clipped where
    clipped < unclipped."""
    n = len(obs)
    rows = np.arange(n)
    logp_all = log_softmax(forward(spec, params, obs))
    ratios = np.exp(logp_all[rows, actions] - old)
    unclipped = ratios * advantages
    clipped = np.clip(ratios, 1.0 - eps, 1.0 + eps) * advantages
    probs = np.exp(logp_all)
    entropies = -(probs * logp_all).sum(axis=1)
    objective = float(np.minimum(unclipped, clipped).mean() + entropy_coef * entropies.mean())
    coef = np.where(unclipped <= clipped, unclipped, 0.0) / n
    g_logits = coef[:, None] * (-probs)
    g_logits[rows, actions] += coef
    g_logits += (entropy_coef / n) * (-probs * (logp_all + entropies[:, None]))
    stats = {
        "clip_fraction": float(np.mean(clipped < unclipped)),
        "entropy": float(entropies.mean()),
    }
    return objective, backward(spec, params, obs, g_logits), stats


class TestValueLoss:
    def test_zero_at_fit(self):
        spec = NetworkSpec((3, 5, 1))
        params = init_params(spec, 1)
        obs = np.random.default_rng(2).normal(size=(4, 3))
        targets = forward(spec, params, obs)[:, 0]
        loss, grad = value_loss(spec, params, obs, targets)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_constant_target_squared(self):
        spec = NetworkSpec((2, 1))
        params = ParameterSet(np.zeros(3))
        obs = np.zeros((5, 2))
        loss, _ = value_loss(spec, params, obs, np.full(5, 3.0))
        assert loss == pytest.approx(9.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        spec = NetworkSpec((3, 6, 1))
        params = init_params(spec, 5)
        obs = rng.normal(size=(7, 3))
        targets = rng.normal(size=7)
        _, grad = value_loss(spec, params, obs, targets)
        h = 1e-6
        theta = params.values.copy()
        for i in rng.choice(spec.n_params, size=15, replace=False):
            orig = theta[i]
            theta[i] = orig + h
            fp = value_loss(spec, ParameterSet(theta), obs, targets)[0]
            theta[i] = orig - h
            fm = value_loss(spec, ParameterSet(theta), obs, targets)[0]
            theta[i] = orig
            assert grad[i] == pytest.approx((fp - fm) / (2 * h), rel=1e-5, abs=1e-9)

    @pytest.mark.parametrize("spec", [NetworkSpec((5, 9, 7, 1))], ids=["relu"])
    def test_equals_forward_then_backward(self, spec):
        rng = np.random.default_rng(8)
        params = init_params(spec, 2)
        obs = rng.normal(size=(256, 5))
        targets = rng.normal(size=256)
        loss, grad = value_loss(spec, params, obs, targets)
        residual = forward(spec, params, obs)[:, 0] - targets
        g_out = (2.0 * residual / len(obs))[:, None]
        assert loss == float(residual @ residual) / len(obs)
        assert np.array_equal(grad, backward(spec, params, obs, g_out))


def small_ppo_config(**overrides):
    base = dict(rollout_length=64, minibatch_size=16, epochs=3, hidden_sizes=(8,))
    base.update(overrides)
    return PpoConfig(**base)


def synthetic_batch(learner, rng, n=64):
    """Random rewards, values and episode ends, with actions and their log
    probabilities under the learner's policy."""
    obs = rng.normal(size=(n, learner.policy_spec.input_dim))
    logits = forward(learner.policy_spec, learner.policy_params, obs)
    logp = log_softmax(logits)
    actions = np.array([rng.integers(learner.policy_spec.output_dim) for _ in range(n)])
    terminated = rng.random(n) < 0.15
    episode_end = terminated.copy()
    episode_end[-1] = True
    return RolloutBatch(
        obs=obs,
        actions=actions,
        rewards=rng.normal(size=n),
        values=rng.normal(size=n),
        next_values=rng.normal(size=n),
        log_probs=logp[np.arange(n), actions],
        terminated=terminated,
        episode_end=episode_end,
    )


class TestUpdate:
    def test_zero_epochs_changes_nothing(self):
        learner = PpoLearner(4, 3, small_ppo_config(epochs=0), seed=0)
        batch = synthetic_batch(learner, np.random.default_rng(0))
        before_p = learner.policy_params.values.copy()
        before_v = learner.value_params.values.copy()
        learner.update(batch)
        assert np.array_equal(learner.policy_params.values, before_p)
        assert np.array_equal(learner.value_params.values, before_v)

    def test_policy_sees_normalized_advantages_and_value_head_raw_targets(self, monkeypatch):
        import highwaylab.ppo as ppo

        learner = PpoLearner(4, 3, small_ppo_config(epochs=1), seed=5)
        batch = synthetic_batch(learner, np.random.default_rng(6), n=512)
        seen = {"obs": [], "advantages": [], "targets": []}

        def record_objective(spec, params, obs, actions, old, advantages, *rest):
            seen["obs"].append(obs)
            seen["advantages"].append(advantages)
            return objective(spec, params, obs, actions, old, advantages, *rest)

        def record_value_loss(spec, params, obs, targets):
            seen["targets"].append(targets)
            return loss(spec, params, obs, targets)

        objective, loss = ppo.ppo_objective, ppo.value_loss
        monkeypatch.setattr(ppo, "ppo_objective", record_objective)
        monkeypatch.setattr(ppo, "value_loss", record_value_loss)
        learner.update(batch)

        # One epoch: every step is seen once, in the shuffled order.
        row = {x: i for i, x in enumerate(batch.obs[:, 0])}
        order = np.array([row[x] for x in np.concatenate(seen["obs"])[:, 0]])
        assert np.array_equal(np.sort(order), np.arange(len(batch)))
        advantages = np.concatenate(seen["advantages"])
        assert abs(advantages.mean()) < 1e-9
        assert abs(advantages.std() - 1.0) < 1e-6
        raw, _ = compute_gae(batch, learner.config.gamma, learner.config.gae_lambda)
        assert not np.allclose(raw[order], advantages)
        targets = np.concatenate(seen["targets"])
        assert np.array_equal(targets, raw[order] + batch.values[order])

    def test_positive_advantages_increase_action_probability(self):
        # Every step ends its episode with value 0, so a step's advantage is
        # its reward: +1 on even steps, -1 on odd ones.
        learner = PpoLearner(4, 3, small_ppo_config(entropy_coef=0.0), seed=1)
        batch = synthetic_batch(learner, np.random.default_rng(2))
        batch.rewards[:] = np.where(np.arange(len(batch)) % 2 == 0, 1.0, -1.0)
        batch.values[:] = 0.0
        batch.terminated[:] = True
        batch.episode_end[:] = True
        rows = np.arange(len(batch))

        def taken_probabilities():
            logits = forward(learner.policy_spec, learner.policy_params, batch.obs)
            return np.exp(log_softmax(logits))[rows, batch.actions]

        before = taken_probabilities()
        learner.update(batch)
        after = taken_probabilities()
        assert after[0::2].mean() > before[0::2].mean()
        assert after[1::2].mean() < before[1::2].mean()

    def test_update_does_not_touch_frozen_series(self):
        learner = PpoLearner(4, 3, small_ppo_config(), seed=3)
        batch = synthetic_batch(learner, np.random.default_rng(4))
        before = {name: value.copy() for name, value in vars(batch).items()}
        learner.update(batch)
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(batch, name), value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PpoConfig(clip_epsilon=0.0)
        with pytest.raises(ValueError):
            PpoConfig(rollout_length=100, minibatch_size=64)
        with pytest.raises(ValueError):
            PpoConfig(gae_lambda=1.5)


def update_state(learner):
    """Everything an update changes: parameter and moment bytes, Adam step
    counts, the shuffle generator's state and the learner's counters."""
    arrays = (
        learner.policy_params.values,
        learner.value_params.values,
        learner.policy_adam.m,
        learner.policy_adam.v,
        learner.value_adam.m,
        learner.value_adam.v,
    )
    return (
        [a.tobytes() for a in arrays],
        learner.policy_adam.t,
        learner.value_adam.t,
        learner._shuffle_rng.bit_generator.state,
        learner.rollouts_done,
        learner.env_steps,
    )


def fail_at(fn, call, error_type, message):
    """``fn``, except that its call number ``call`` (from 0) raises."""
    calls = itertools.count()

    def wrapper(*args):
        if next(calls) == call:
            raise error_type(message)
        return fn(*args)

    return wrapper


class TestConcurrentUpdate:
    """update() trains the value head on a second thread; what it returns,
    changes and raises equals the one-loop reference in helpers.py."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n_minibatches", [1, 8])
    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_equals_the_serial_loop(self, epochs, n_minibatches, seed):
        config = small_ppo_config(
            epochs=epochs, minibatch_size=64 // n_minibatches, hidden_sizes=(16, 16)
        )
        threaded, serial = (PpoLearner(4, 3, config, seed=seed) for _ in range(2))
        rng = np.random.default_rng(seed + 100)
        threads = threading.active_count()
        for _ in range(2):
            batch = synthetic_batch(threaded, rng)
            got = threaded.update(batch)
            want = serial_ppo_update(serial, batch)
            assert [(k, v.hex()) for k, v in got.items()] == [(k, v.hex()) for k, v in want.items()]
            assert update_state(threaded) == update_state(serial)
            assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "policy_at, value_at",
        [(2, 5), (5, 2), (3, 3), (0, 0), (7, 7), (None, 4), (6, None)],
    )
    def test_raises_the_serial_loops_divergence(self, monkeypatch, policy_at, value_at):
        # Two epochs of four minibatches: calls 0-7 of each head.
        config = small_ppo_config(epochs=2, minibatch_size=16)
        threads = threading.active_count()
        raised = []
        for run in (serial_ppo_update, PpoLearner.update):
            if policy_at is not None:
                failing = fail_at(ppo_objective, policy_at, TrainingDivergenceError, "policy")
                monkeypatch.setattr(ppo, "ppo_objective", failing)
            if value_at is not None:
                failing = fail_at(value_loss, value_at, TrainingDivergenceError, "value")
                monkeypatch.setattr(ppo, "value_loss", failing)
            learner = PpoLearner(4, 3, config, seed=7)
            batch = synthetic_batch(learner, np.random.default_rng(8))
            with pytest.raises(TrainingDivergenceError) as exc:
                run(learner, batch)
            raised.append(str(exc.value))
            assert learner.rollouts_done == 0
            assert threading.active_count() == threads
        policy_first = value_at is None or (policy_at is not None and policy_at <= value_at)
        assert raised == ["policy" if policy_first else "value"] * 2

    def test_other_value_head_errors_reach_the_caller(self, monkeypatch):
        monkeypatch.setattr(ppo, "value_loss", fail_at(value_loss, 3, ValueError, "broken"))
        learner = PpoLearner(4, 3, small_ppo_config(), seed=0)
        batch = synthetic_batch(learner, np.random.default_rng(1))
        threads = threading.active_count()
        with pytest.raises(ValueError, match="^broken$"):
            learner.update(batch)
        assert threading.active_count() == threads

    def test_value_head_runs_beside_the_caller_under_its_errstate(self, monkeypatch):
        seen = {"policy": set(), "value": set()}

        def record(head, fn):
            def wrapper(*args):
                seen[head].add((threading.get_ident(), tuple(sorted(np.geterr().items()))))
                return fn(*args)

            return wrapper

        monkeypatch.setattr(ppo, "ppo_objective", record("policy", ppo_objective))
        monkeypatch.setattr(ppo, "value_loss", record("value", value_loss))
        learner = PpoLearner(4, 3, small_ppo_config(), seed=0)
        batch = synthetic_batch(learner, np.random.default_rng(1))
        with np.errstate(all="ignore"):
            learner.update(batch)
        ignore_all = tuple(sorted(dict.fromkeys(np.geterr(), "ignore").items()))
        assert seen["policy"] == {(threading.get_ident(), ignore_all)}
        ((worker, errstate),) = seen["value"]
        assert worker != threading.get_ident() and errstate == ignore_all


# Trains a short PPO merge run into argv[1]; its last line is one digest of
# every output path and byte.
_HASHED_TRAIN = """
import hashlib, sys
from pathlib import Path
from highwaylab.config import parse_config
from highwaylab.harness import run_train

out = Path(sys.argv[1])
run_train(parse_config(sys.stdin.read()), out)
digest = hashlib.sha256()
for path in sorted(out.rglob("*")):
    if path.is_file():
        digest.update(path.relative_to(out).as_posix().encode())
        digest.update(path.read_bytes())
print(digest.hexdigest())
"""

_SHORT_PPO_MERGE = """
[experiment]
agent = ppo
scenario = merge
seeds = 3
total_env_steps = 2048
eval_every = 2048
eval_episodes = 1

[ppo]
rollout_length = 2048
minibatch_size = 256
"""


def test_blas_thread_count_does_not_change_trained_bytes(tmp_path):
    # The value head's worker thread calls BLAS beside the caller's, so one
    # and two BLAS threads must still train the same bytes.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[name] = threads
        done = subprocess.run(
            [sys.executable, "-c", _HASHED_TRAIN, str(tmp_path / f"blas_{threads}")],
            input=_SHORT_PPO_MERGE,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.splitlines()[-1])
    assert len(digests[0]) == 64 and digests[0] == digests[1]


class ThreeForwardCollector(RolloutCollector):
    """Reference collector: evaluates V(s_t) and V(s_{t+1}) afresh every step,
    and samples with ``Generator.choice`` from its own copy of an action stream."""

    def __init__(self, env, episode_seed_fn, action_rng):
        super().__init__(env, episode_seed_fn)
        self.action_rng = copy.deepcopy(action_rng)

    def collect(self, learner, length):
        policy_spec, policy_params = learner.policy_spec, learner.policy_params
        value_spec, value_params = learner.value_spec, learner.value_params
        fields = {
            "obs": np.zeros((length, policy_spec.input_dim)),
            "actions": np.zeros(length, dtype=np.int64),
            "rewards": np.zeros(length),
            "values": np.zeros(length),
            "next_values": np.zeros(length),
            "log_probs": np.zeros(length),
            "terminated": np.zeros(length, dtype=bool),
            "episode_end": np.zeros(length, dtype=bool),
        }
        if self.obs is None:
            self.reset()
        for t in range(length):
            obs = self.obs
            logp = log_softmax(forward(policy_spec, policy_params, obs))
            action = int(self.action_rng.choice(logp.size, p=np.exp(logp)))
            outcome = self.env.step(action)
            fields["obs"][t] = obs
            fields["actions"][t] = action
            fields["rewards"][t] = outcome.reward.total
            fields["values"][t] = forward(value_spec, value_params, obs)[0]
            fields["next_values"][t] = forward(value_spec, value_params, outcome.observation)[0]
            fields["log_probs"][t] = logp[action]
            fields["terminated"][t] = outcome.terminated
            fields["episode_end"][t] = outcome.terminated or outcome.truncated
            if fields["episode_end"][t]:
                self.episode_index += 1
                self.reset()
            else:
                self.obs = outcome.observation
        fields["episode_end"][-1] = True
        return RolloutBatch(**fields)


def diverged_learner():
    """A PPO learner whose policy weights are scaled by 1e150: its logits
    overflow and its action probabilities are NaN."""
    learner = PpoLearner(25, 5, seed=9)
    learner.policy_params = ParameterSet(learner.policy_params.values * 1e150)
    obs = HighwayEnv(road=RoadConfig(scenario="merge")).reset(4)
    with np.errstate(all="ignore"):
        assert np.isnan(np.exp(log_softmax(forward(learner.policy_spec, learner.policy_params, obs)))).any()
    return learner


class TestDivergedPolicy:
    def test_collect_raises_divergence(self):
        learner = diverged_learner()
        collector = RolloutCollector(HighwayEnv(road=RoadConfig(scenario="merge")), lambda i: i)
        with np.errstate(all="ignore"), pytest.raises(TrainingDivergenceError):
            collector.collect(learner, 8)


class TestSampleAction:
    def test_draws_equal_generator_choice(self):
        # Logit scales from flat to one-hot within float64, so some
        # distributions put all but ~1e-130 of their mass on one action.
        rng = np.random.default_rng(7)
        ours, reference = np.random.default_rng(21), np.random.default_rng(21)
        one_hot = 0
        for scale in np.repeat([0.01, 1.0, 5.0, 30.0, 300.0], 2_000):
            probs = np.exp(log_softmax(rng.normal(size=5) * scale))
            one_hot += probs.max() > 1 - 1e-12
            assert _sample_action(ours, probs) == int(reference.choice(5, p=probs))
            assert ours.bit_generator.state == reference.bit_generator.state
        assert one_hot > 2_000

    @pytest.mark.parametrize(
        "probs",
        [[0.5, np.nan, 0.5], [0.6, -0.1, 0.5], [0.5, 0.5 + 1e-7, 0.0]],
        ids=["nan", "negative", "sum-off-one"],
    )
    def test_bad_probabilities_are_divergence(self, probs):
        rng = np.random.default_rng(0)
        with pytest.raises(TrainingDivergenceError, match="^bad action probabilities: "):
            _sample_action(rng, np.array(probs))

    def test_sum_within_tolerance_draws(self):
        probs = np.array([0.5, 0.5 + 1e-9, 0.0])
        ours, reference = np.random.default_rng(3), np.random.default_rng(3)
        assert _sample_action(ours, probs) == int(reference.choice(3, p=probs))


class TestRolloutCollection:
    def collect_once(self):
        env = HighwayEnv(road=RoadConfig(scenario="merge"), horizon=10)
        learner = PpoLearner(25, 5, small_ppo_config(), seed=9)
        collector = RolloutCollector(env, episode_seed_fn=lambda i: 1000 + i)
        return learner, collector.collect(learner, 64)

    def test_exact_length_and_final_cut(self):
        _, batch = self.collect_once()
        assert len(batch) == 64
        assert batch.episode_end[-1]

    def test_deterministic(self):
        _, a = self.collect_once()
        _, b = self.collect_once()
        np.testing.assert_array_equal(a.obs, b.obs)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.rewards, b.rewards)
        np.testing.assert_array_equal(a.log_probs, b.log_probs)

    def test_log_probs_match_offline_recomputation(self):
        learner, batch = self.collect_once()
        logits = forward(learner.policy_spec, learner.policy_params, batch.obs)
        logp = log_softmax(logits)[np.arange(len(batch)), batch.actions]
        np.testing.assert_allclose(batch.log_probs, logp, rtol=1e-12)

    def test_values_match_value_head(self):
        learner, batch = self.collect_once()
        v = forward(learner.value_spec, learner.value_params, batch.obs)[:, 0]
        np.testing.assert_allclose(batch.values, v, rtol=1e-12)

    def test_episode_boundaries_reset_inside(self):
        # horizon 10 over 64 steps forces several truncations inside
        _, batch = self.collect_once()
        assert batch.episode_end[:-1].any()

    def test_reused_values_equal_three_forward_reference(self):
        # horizon 10 over 2 x 48 steps: resets inside both rollouts, and the
        # second rollout starts mid-episode after update() changed the nets.
        learner = PpoLearner(25, 5, small_ppo_config(), seed=9)
        envs = [HighwayEnv(road=RoadConfig(scenario="merge"), horizon=10) for _ in range(2)]
        collector = RolloutCollector(envs[0], lambda i: 1000 + i)
        reference = ThreeForwardCollector(envs[1], lambda i: 1000 + i, learner.action_rng)
        for _ in range(2):
            batch = collector.collect(learner, 48)
            expected = reference.collect(learner, 48)
            assert batch.episode_end[:-1].any()
            for name in (
                "obs",
                "actions",
                "rewards",
                "values",
                "next_values",
                "log_probs",
                "terminated",
                "episode_end",
            ):
                assert np.array_equal(getattr(batch, name), getattr(expected, name)), name
            learner.update(batch)
