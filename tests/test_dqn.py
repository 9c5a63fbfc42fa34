"""DQN mechanics: action selection, targets, loss gradient, replay, syncing."""

import numpy as np
import pytest

from highwaylab.dqn import (
    DqnConfig,
    DqnLearner,
    ReplayBuffer,
    Transition,
    TransitionBatch,
    compute_targets,
    epsilon_schedule,
    loss_and_gradient,
    select_action,
)
from highwaylab.errors import CheckpointMismatchError, TrainingDivergenceError
from highwaylab.nets import (
    NetworkSpec,
    ParameterSet,
    backward,
    forward,
    init_params,
    network_to_bytes,
)


def make_batch(rng, spec, size=8):
    obs_dim = spec.input_dim
    return TransitionBatch(
        obs=rng.normal(size=(size, obs_dim)),
        actions=rng.integers(0, spec.output_dim, size=size),
        rewards=rng.normal(size=size),
        next_obs=rng.normal(size=(size, obs_dim)),
        done=rng.random(size=size) < 0.3,
    )


class TestSelectAction:
    def test_pure_argmax_at_zero_epsilon(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([0.0, 1.0, 0.0, 0.0, 0.0]), 0.0, rng) == 1

    def test_tie_breaks_to_lowest_index(self):
        rng = np.random.default_rng(0)
        assert select_action(np.array([1.0, 1.0, 0.0, 0.0, 0.0]), 0.0, rng) == 0

    def test_uniform_at_epsilon_one(self):
        rng = np.random.default_rng(2024)
        counts = np.zeros(5)
        q = np.array([9.0, 0.0, 0.0, 0.0, 0.0])
        for _ in range(10_000):
            counts[select_action(q, 1.0, rng)] += 1
        freqs = counts / 10_000
        assert np.all(np.abs(freqs - 0.2) < 0.02)

    def test_rejects_nonfinite_q(self):
        rng = np.random.default_rng(0)
        with pytest.raises(TrainingDivergenceError):
            select_action(np.array([np.nan, 0.0]), 0.0, rng)

    def test_epsilon_schedule_linear(self):
        cfg = DqnConfig()
        assert epsilon_schedule(0, cfg) == 1.0
        assert epsilon_schedule(5_000, cfg) == pytest.approx(0.525)
        assert epsilon_schedule(10_000, cfg) == pytest.approx(0.05)
        assert epsilon_schedule(1_000_000, cfg) == pytest.approx(0.05)


class TestTargets:
    def test_terminal_masking(self):
        spec = NetworkSpec((2, 2))
        params = init_params(spec, 0)
        batch = TransitionBatch(
            obs=np.zeros((1, 2)),
            actions=np.array([0]),
            rewards=np.array([-1.0]),
            next_obs=np.ones((1, 2)),
            done=np.array([True]),
        )
        y = compute_targets(batch, spec, params, gamma=0.99)
        assert y[0] == -1.0

    def test_gamma_zero_returns_rewards(self):
        rng = np.random.default_rng(1)
        spec = NetworkSpec((3, 2))
        params = init_params(spec, 1)
        batch = make_batch(rng, spec)
        y = compute_targets(batch, spec, params, gamma=0.0)
        np.testing.assert_array_equal(y, batch.rewards)

    def test_bellman_arithmetic(self):
        # linear net with zero weights and bias (2, 1): Q(s') = (2, 1), max 2
        spec = NetworkSpec((1, 2))
        params = ParameterSet(np.array([0.0, 0.0, 2.0, 1.0]))
        batch = TransitionBatch(
            obs=np.zeros((1, 1)),
            actions=np.array([0]),
            rewards=np.array([1.0]),
            next_obs=np.zeros((1, 1)),
            done=np.array([False]),
        )
        y = compute_targets(batch, spec, params, gamma=0.99)
        assert y[0] == pytest.approx(2.98)

    def test_truncation_bootstraps(self):
        # done=False at the horizon keeps the bootstrap term
        spec = NetworkSpec((1, 2))
        params = ParameterSet(np.array([0.0, 0.0, 2.0, 1.0]))
        batch = TransitionBatch(
            obs=np.zeros((1, 1)),
            actions=np.array([0]),
            rewards=np.array([0.0]),
            next_obs=np.zeros((1, 1)),
            done=np.array([False]),
        )
        assert compute_targets(batch, spec, params, 0.5)[0] == pytest.approx(1.0)


class TestLossAndGradient:
    def test_zero_loss_zero_gradient_at_fit(self):
        spec = NetworkSpec((2, 3))
        params = init_params(spec, 3)
        obs = np.array([[0.1, -0.2], [0.4, 0.3]])
        q = forward(spec, params, obs)
        batch = TransitionBatch(
            obs=obs,
            actions=np.array([0, 2]),
            rewards=np.zeros(2),
            next_obs=obs,
            done=np.array([True, True]),
        )
        y = q[np.arange(2), batch.actions]
        loss, grad = loss_and_gradient(batch, spec, params, y)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_single_sample_linear_chain_rule(self):
        # Q(s, a) = w_a . s + b_a; dL/dw_a = 2 (Q - y) s
        spec = NetworkSpec((2, 2))
        params = ParameterSet(np.array([1.0, 2.0, 0.5, -1.0, 0.1, 0.2]))
        s = np.array([[0.3, -0.7]])
        batch = TransitionBatch(
            obs=s,
            actions=np.array([0]),
            rewards=np.zeros(1),
            next_obs=s,
            done=np.array([True]),
        )
        q_sa = 1.0 * 0.3 + 2.0 * -0.7 + 0.1
        y = np.array([0.5])
        loss, grad = loss_and_gradient(batch, spec, params, y)
        assert loss == pytest.approx((q_sa - 0.5) ** 2)
        resid = 2.0 * (q_sa - 0.5)
        np.testing.assert_allclose(grad[0:2], resid * s[0], rtol=1e-12)
        np.testing.assert_allclose(grad[2:4], [0.0, 0.0], atol=0.0)
        np.testing.assert_allclose(grad[4:6], [resid, 0.0], rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        spec = NetworkSpec((4, 8, 3))
        params = init_params(spec, 7)
        batch = make_batch(rng, spec, size=5)
        y = compute_targets(batch, spec, init_params(spec, 8), gamma=0.9)
        _, grad = loss_and_gradient(batch, spec, params, y)

        h = 1e-6
        theta = params.values.copy()
        for i in rng.choice(spec.n_params, size=25, replace=False):
            orig = theta[i]
            theta[i] = orig + h
            lp, _ = loss_and_gradient(batch, spec, ParameterSet(theta), y)
            theta[i] = orig - h
            lm, _ = loss_and_gradient(batch, spec, ParameterSet(theta), y)
            theta[i] = orig
            numeric = (lp - lm) / (2 * h)
            assert grad[i] == pytest.approx(numeric, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_equals_forward_then_backward(self, activation):
        rng = np.random.default_rng(17)
        spec = NetworkSpec((6, 12, 10, 4), activation=activation)
        params = init_params(spec, 4)
        batch = make_batch(rng, spec, size=64)
        y = compute_targets(batch, spec, init_params(spec, 5), gamma=0.95)
        # Reference: a separate forward pass, then backward recomputing its own.
        n = len(batch)
        q = forward(spec, params, batch.obs)
        residual = q[np.arange(n), batch.actions] - y
        g_out = np.zeros_like(q)
        g_out[np.arange(n), batch.actions] = 2.0 * residual / n
        loss, grad = loss_and_gradient(batch, spec, params, y)
        assert loss == float(residual @ residual) / n
        assert np.array_equal(grad, backward(spec, params, batch.obs, g_out))


class TestReplayBuffer:
    def transition(self, value, done=False):
        s = np.full(3, float(value))
        return Transition(s, int(value) % 2, float(value), s + 1, done)

    def test_ring_eviction_oldest_first(self):
        buf = ReplayBuffer(capacity=4, obs_dim=3, seed=0)
        for i in range(6):
            buf.add(self.transition(i))
        assert len(buf) == 4
        assert buf.insertions == 6
        stored = sorted(buf._rewards.tolist())
        assert stored == [2.0, 3.0, 4.0, 5.0]

    def test_rejects_nonfinite_reward(self):
        buf = ReplayBuffer(capacity=4, obs_dim=3, seed=0)
        with pytest.raises(TrainingDivergenceError):
            buf.add(Transition(np.zeros(3), 0, float("inf"), np.zeros(3), False))

    def test_sampling_uniform_with_replacement(self):
        buf = ReplayBuffer(capacity=100, obs_dim=1, seed=31)
        for i in range(100):
            buf.add(Transition(np.array([float(i)]), 0, float(i), np.zeros(1), False))
        counts = np.zeros(100)
        draws = 100_000
        batch = buf.sample(draws)
        for r in batch.rewards:
            counts[int(r)] += 1
        freqs = counts / draws
        assert np.all(np.abs(freqs - 0.01) <= 0.001)  # within 10 percent of uniform

    def test_sample_only_over_filled_slots(self):
        buf = ReplayBuffer(capacity=100, obs_dim=1, seed=2)
        for i in range(3):
            buf.add(Transition(np.array([float(i)]), 0, float(i), np.zeros(1), False))
        batch = buf.sample(64)
        assert set(batch.rewards.tolist()) <= {0.0, 1.0, 2.0}


class TestLearner:
    def small_config(self, **overrides):
        base = dict(
            buffer_capacity=256,
            batch_size=8,
            learn_start=8,
            target_sync_every=5,
            epsilon_decay_steps=50,
            hidden_sizes=(8,),
        )
        base.update(overrides)
        return DqnConfig(**base)

    def feed(self, learner, rng, n):
        for _ in range(n):
            s = rng.normal(size=learner.spec.input_dim)
            learner.observe(
                Transition(s, int(rng.integers(learner.spec.output_dim)), float(rng.normal()), s, False)
            )

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_step_is_divergence(self):
        # A learning rate near the largest float makes a finite first Adam
        # step overflow the parameters in most seeds.
        rng = np.random.default_rng(3)
        config = DqnConfig(hidden_sizes=(4,), learn_start=2, batch_size=2, learning_rate=1.7e308)
        diverged = 0
        for seed in range(10):
            learner = DqnLearner(4, 3, config, seed=seed)
            self.feed(learner, rng, 5)
            try:
                learner.train_step()
            except TrainingDivergenceError:
                diverged += 1
        assert diverged >= 5

    def test_skipped_before_learn_start(self):
        learner = DqnLearner(4, 3, self.small_config(), seed=1)
        before = learner.params.values.copy()
        metrics = learner.train_step()
        assert metrics["skipped"] is True
        assert np.array_equal(learner.params.values, before)

    def test_target_stays_frozen_between_syncs(self):
        rng = np.random.default_rng(3)
        learner = DqnLearner(4, 3, self.small_config(), seed=1)
        self.feed(learner, rng, 16)
        frozen = learner.target_params.values.copy()
        for _ in range(4):  # sync_every is 5
            learner.train_step()
            assert np.array_equal(learner.target_params.values, frozen)
            assert not np.array_equal(learner.params.values, frozen)

    def test_target_sync_counts_gradient_steps(self):
        # 15 env steps are a multiple of sync_every (5); one gradient step is not.
        rng = np.random.default_rng(3)
        learner = DqnLearner(4, 3, self.small_config(), seed=1)
        self.feed(learner, rng, 15)
        frozen = learner.target_params
        learner.train_step()
        assert learner.target_params is frozen
        for _ in range(4):  # the fifth gradient step syncs
            learner.train_step()
        assert (learner.env_steps, learner.grad_steps) == (15, 5)
        assert learner.target_params is learner.params

    def test_hard_sync_copies_bitwise(self):
        rng = np.random.default_rng(3)
        learner = DqnLearner(4, 3, self.small_config(), seed=1)
        self.feed(learner, rng, 16)
        for _ in range(5):
            learner.train_step()
        assert np.array_equal(learner.target_params.values, learner.params.values)

    def test_synced_target_shares_the_read_only_parameters(self):
        rng = np.random.default_rng(3)
        learner = DqnLearner(4, 3, self.small_config(), seed=1)
        assert learner.target_params is learner.params
        self.feed(learner, rng, 16)
        for _ in range(5):  # the fifth step syncs
            learner.train_step()
        synced = network_to_bytes(learner.spec, learner.params)
        assert network_to_bytes(learner.spec, learner.target_params) == synced
        assert not learner.target_params.values.flags.writeable
        with pytest.raises(ValueError):
            learner.target_params.values[0] = 1.0
        learner.train_step()  # a new online set; the target keeps the synced one
        assert network_to_bytes(learner.spec, learner.target_params) == synced
        assert network_to_bytes(learner.spec, learner.params) != synced

    def test_tabular_reduction_moves_q_toward_target(self):
        """One repeated terminal transition with a linear net: Q(s, a) walks
        monotonically toward r, the degenerate one-state Bellman update."""
        cfg = DqnConfig(
            learning_rate=0.01,
            buffer_capacity=4,
            batch_size=4,
            learn_start=1,
            target_sync_every=10_000,
            epsilon_decay_steps=10,
            hidden_sizes=(),
        )
        learner = DqnLearner(obs_dim=3, n_actions=2, config=cfg, seed=0)
        s = np.array([0.0, 1.0, 0.0])
        learner.observe(Transition(s, 1, 1.0, s, True))
        gaps = []
        for _ in range(60):
            learner.train_step()
            gaps.append(abs(float(learner.q_values(s)[1]) - 1.0))
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]

    def test_training_deterministic_under_seed(self):
        def run():
            rng = np.random.default_rng(10)
            learner = DqnLearner(4, 3, self.small_config(), seed=5)
            self.feed(learner, rng, 32)
            for _ in range(10):
                learner.train_step()
            return learner.params.values

        assert np.array_equal(run(), run())

    def test_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        cfg = self.small_config()
        learner = DqnLearner(4, 3, cfg, seed=2)
        self.feed(learner, rng, 20)
        for _ in range(7):
            learner.train_step()
        path = tmp_path / "dqn.bin"
        learner.save(path)
        restored = DqnLearner.load(path, cfg)
        assert np.array_equal(restored.params.values, learner.params.values)
        assert np.array_equal(restored.target_params.values, learner.target_params.values)
        assert restored.adam.t == learner.adam.t
        assert restored.env_steps == learner.env_steps
        assert restored.grad_steps == learner.grad_steps

    def test_load_rejects_wrong_agent_kind(self, tmp_path):
        from highwaylab.ppo import PpoConfig, PpoLearner

        path = tmp_path / "ppo.bin"
        PpoLearner(4, 3, PpoConfig(rollout_length=4, minibatch_size=4, hidden_sizes=(4,)), seed=0).save(path)
        with pytest.raises(CheckpointMismatchError):
            DqnLearner.load(path, self.small_config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DqnConfig(gamma=1.5)
        with pytest.raises(ValueError):
            DqnConfig(batch_size=100, buffer_capacity=50)
        with pytest.raises(ValueError):
            DqnConfig(epsilon_start=2.0)
        # The buffer never holds more than buffer_capacity transitions.
        DqnConfig(batch_size=8, buffer_capacity=100, learn_start=100)
        with pytest.raises(ValueError, match="need learn_start <= buffer_capacity"):
            DqnConfig(batch_size=8, buffer_capacity=100, learn_start=101)
