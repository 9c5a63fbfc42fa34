"""Network, optimizer, and checkpoint tests against independent oracles."""

import math
import os
import zlib

import numpy as np
import pytest

from highwaylab.errors import (
    CheckpointChecksumError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    TrainingDivergenceError,
)
from highwaylab.nets import (
    AdamState,
    NetworkSpec,
    ParameterSet,
    adam_from_bytes,
    adam_step,
    adam_to_bytes,
    backward,
    categorical_entropy,
    forward,
    forward_activations,
    gradient_check,
    init_params,
    load_params,
    log_softmax,
    network_to_bytes,
    read_archive,
    save_params,
    softmax,
    squared_error_probe,
    write_archive,
)


def scalar_forward(spec, params, x):
    """Independent re-implementation: explicit loops over neurons."""
    values = params.values
    offset = 0
    h = [float(v) for v in x]
    n_layers = len(spec.layer_sizes) - 1
    for layer in range(n_layers):
        n_in = spec.layer_sizes[layer]
        n_out = spec.layer_sizes[layer + 1]
        w = values[offset : offset + n_out * n_in]
        offset += n_out * n_in
        b = values[offset : offset + n_out]
        offset += n_out
        out = []
        for i in range(n_out):
            z = b[i]
            for j in range(n_in):
                z += w[i * n_in + j] * h[j]
            if layer < n_layers - 1:
                z = max(z, 0.0) if spec.activation == "relu" else math.tanh(z)
            out.append(z)
        h = out
    return np.array(h)


class TestSpecAndInit:
    def test_rejects_too_few_layers(self):
        with pytest.raises(ValueError):
            NetworkSpec((5,))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            NetworkSpec((5, 0, 2))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            NetworkSpec((5, 2), activation="gelu")

    def test_param_count(self):
        spec = NetworkSpec((25, 128, 128, 5))
        assert spec.n_params == 25 * 128 + 128 + 128 * 128 + 128 + 128 * 5 + 5

    def test_biases_zero_after_init(self):
        spec = NetworkSpec((4, 3, 2))
        params = init_params(spec, 0)
        w1 = 4 * 3
        assert np.all(params.values[w1 : w1 + 3] == 0.0)
        assert np.all(params.values[-2:] == 0.0)

    def test_same_seed_identical(self):
        spec = NetworkSpec((6, 8, 3))
        a = init_params(spec, 42)
        b = init_params(spec, 42)
        assert np.array_equal(a.values, b.values)
        c = init_params(spec, 43)
        assert not np.array_equal(a.values, c.values)

    def test_weight_magnitudes_within_layer_limit(self):
        spec = NetworkSpec((25, 128, 128, 5))
        params = init_params(spec, 7)
        offset = 0
        for n_in, n_out in zip(spec.layer_sizes, spec.layer_sizes[1:]):
            limit = math.sqrt(6.0 / (n_in + n_out))
            w = params.values[offset : offset + n_out * n_in]
            assert np.all(np.abs(w) <= limit)
            offset += n_out * n_in + n_out

    def test_params_reject_nonfinite(self):
        with pytest.raises(ValueError):
            ParameterSet(np.array([1.0, np.nan]))

    def test_params_immutable(self):
        params = init_params(NetworkSpec((2, 2)), 0)
        with pytest.raises(ValueError):
            params.values[0] = 1.0


class TestForward:
    def test_all_zero_params_gives_zero_output(self):
        spec = NetworkSpec((4, 6, 3))
        params = ParameterSet(np.zeros(spec.n_params))
        out = forward(spec, params, np.ones(4))
        assert np.all(out == 0.0)

    def test_identity_single_linear_layer(self):
        spec = NetworkSpec((3, 3))
        params = ParameterSet(np.concatenate([np.eye(3).ravel(), np.zeros(3)]))
        x = np.array([0.3, -1.2, 2.0])
        assert np.array_equal(forward(spec, params, x), x)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_scalar_oracle(self, activation):
        rng = np.random.default_rng(11)
        spec = NetworkSpec((5, 7, 4, 3), activation=activation)
        params = init_params(spec, 3)
        for _ in range(10):
            x = rng.normal(size=5)
            np.testing.assert_allclose(
                forward(spec, params, x), scalar_forward(spec, params, x), rtol=1e-12
            )

    def test_batch_matches_single(self):
        # BLAS may order the batched accumulation differently, so this is
        # an almost-equal check, not a bitwise one.
        spec = NetworkSpec((4, 8, 2))
        params = init_params(spec, 5)
        xs = np.random.default_rng(0).normal(size=(6, 4))
        batch = forward(spec, params, xs)
        for i in range(6):
            np.testing.assert_allclose(batch[i], forward(spec, params, xs[i]), rtol=1e-13)

    def test_dimension_mismatch(self):
        spec = NetworkSpec((4, 2))
        params = init_params(spec, 0)
        with pytest.raises(ValueError):
            forward(spec, params, np.zeros(5))

    def test_pure(self):
        spec = NetworkSpec((4, 8, 2))
        params = init_params(spec, 5)
        x = np.random.default_rng(1).normal(size=4)
        assert np.array_equal(forward(spec, params, x), forward(spec, params, x))


class TestBackward:
    def test_zero_output_gradient(self):
        spec = NetworkSpec((4, 6, 3))
        params = init_params(spec, 1)
        grad = backward(spec, params, np.ones(4), np.zeros(3))
        assert np.all(grad == 0.0)

    def test_single_linear_layer_chain_rule(self):
        # scalar output: dL/dW[0, j] = g * x[j], dL/db = g
        spec = NetworkSpec((3, 1))
        params = init_params(spec, 2)
        x = np.array([0.5, -1.0, 2.0])
        g = np.array([1.7])
        grad = backward(spec, params, x, g)
        np.testing.assert_allclose(grad[:3], 1.7 * x, rtol=1e-15)
        assert grad[3] == pytest.approx(1.7)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_finite_differences(self, activation):
        spec = NetworkSpec((5, 8, 6, 3), activation=activation)
        params = init_params(spec, 9)
        x = np.random.default_rng(4).normal(size=5)
        probe = squared_error_probe(np.array([0.1, -0.2, 0.3]))
        assert gradient_check(spec, params, x, probe) < 1e-6

    def test_batch_sums_per_sample_gradients(self):
        spec = NetworkSpec((3, 5, 2))
        params = init_params(spec, 8)
        xs = np.random.default_rng(2).normal(size=(4, 3))
        gs = np.random.default_rng(3).normal(size=(4, 2))
        batch_grad = backward(spec, params, xs, gs)
        summed = np.zeros_like(batch_grad)
        for i in range(4):
            summed += backward(spec, params, xs[i], gs[i])
        np.testing.assert_allclose(batch_grad, summed, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_given_activations_equal_recomputed(self, activation):
        spec = NetworkSpec((5, 8, 6, 3), activation=activation)
        params = init_params(spec, 10)
        rng = np.random.default_rng(6)
        xs = rng.normal(size=(64, 5))
        gs = rng.normal(size=(64, 3))
        acts = forward_activations(spec, params, xs)
        assert np.array_equal(acts[-1], forward(spec, params, xs))
        assert np.array_equal(
            backward(spec, params, xs, gs, acts), backward(spec, params, xs, gs)
        )
        with pytest.raises(ValueError):
            backward(spec, params, xs, gs, acts[:-1])
        with pytest.raises(ValueError):
            backward(spec, params, xs[:3], gs[:3], acts)


class TestGradientCheck:
    def test_linear_network_linear_probe_is_exact(self):
        spec = NetworkSpec((4, 2))
        params = init_params(spec, 6)

        def probe(out):
            return float(out.sum()), np.ones_like(out)

        assert gradient_check(spec, params, np.array([0.2, -0.4, 1.0, 0.7]), probe) < 1e-10

    def test_corrupted_gradient_is_detected(self):
        spec = NetworkSpec((4, 6, 2), activation="tanh")
        params = init_params(spec, 6)
        target = np.array([0.5, -0.5])

        def corrupted_probe(out):
            value, grad = squared_error_probe(target)(out)
            return value, grad * 1.1  # wrong by 10 percent

        assert gradient_check(spec, params, np.ones(4), corrupted_probe) > 1e-2

    def test_rejects_a_batch(self):
        spec = NetworkSpec((3, 4, 3))
        params = init_params(spec, 2)
        probe = squared_error_probe(np.zeros(3))
        row = np.array([[0.3, -0.1, 0.8]])
        assert gradient_check(spec, params, row, probe) == gradient_check(spec, params, row[0], probe)
        with pytest.raises(ValueError, match="one input"):
            gradient_check(spec, params, np.ones((3, 3)), probe)


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        spec = NetworkSpec((3, 2))
        params = init_params(spec, 0)
        state = AdamState.create(spec.n_params, 0.001)
        new_params, new_state = adam_step(state, params, np.zeros(spec.n_params))
        assert np.array_equal(new_params.values, params.values)
        assert new_state.t == 1

    def test_first_step_magnitude_close_to_learning_rate(self):
        n = 16
        params = ParameterSet(np.zeros(n))
        state = AdamState.create(n, 0.01)
        g = np.full(n, 0.37)
        new_params, _ = adam_step(state, params, g)
        np.testing.assert_allclose(new_params.values, -0.01 * np.ones(n), rtol=1e-6)

    def test_rejects_nonfinite_gradient(self):
        params = ParameterSet(np.zeros(3))
        state = AdamState.create(3, 0.01)
        with pytest.raises(TrainingDivergenceError):
            adam_step(state, params, np.array([1.0, np.inf, 0.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_update_is_divergence(self):
        # A finite gradient whose step runs the parameters past the largest
        # float; the moments have advanced by then.
        params = ParameterSet(np.array([-1e308, 0.0]))
        state = AdamState.create(2, 1e308)
        with pytest.raises(TrainingDivergenceError, match="overflowed"):
            adam_step(state, params, np.array([1.0, 1.0]))
        assert np.array_equal(state.m, np.full(2, 1.0 - state.beta1))
        assert np.array_equal(params.values, [-1e308, 0.0])

    def test_descends_convex_quadratic(self):
        # loss(theta) = |theta - c|^2 with the minimum far enough away that
        # 100 steps keep strictly descending after a short burn-in.
        rng = np.random.default_rng(12)
        c = rng.normal(size=10) * 3.0
        params = ParameterSet(np.zeros(10))
        state = AdamState.create(10, 0.01)
        losses = []
        for _ in range(100):
            diff = params.values - c
            losses.append(float(diff @ diff))
            params, state = adam_step(state, params, 2.0 * diff)
        tail = losses[10:]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    @staticmethod
    def functional_adam_step(state, values, g):
        """The textbook expressions, allocating fresh arrays: the reference."""
        t = state.t + 1
        m = state.beta1 * state.m + (1.0 - state.beta1) * g
        v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        new_values = values - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps)
        return new_values, AdamState(m, v, t, state.learning_rate)

    def test_in_place_update_equals_functional_formula(self):
        spec = NetworkSpec((16, 15))
        n = spec.n_params
        rng = np.random.default_rng(21)
        params = init_params(spec, 3)
        state = AdamState.create(n, 0.003)
        ref_values, ref_state = params.values.copy(), AdamState.create(n, 0.003)
        for _ in range(300):
            g = rng.normal(size=n) * 10.0 ** rng.uniform(-6.0, 1.0, size=n)
            ref_values, ref_state = self.functional_adam_step(ref_state, ref_values, g)
            params, state = adam_step(state, params, g)
            assert np.array_equal(params.values, ref_values)
            assert np.array_equal(state.m, ref_state.m)
            assert np.array_equal(state.v, ref_state.v)
            assert state.t == ref_state.t
        assert not params.values.flags.writeable

    def test_rejected_gradient_leaves_state_untouched(self):
        rng = np.random.default_rng(5)
        params = ParameterSet(rng.normal(size=6))
        state = AdamState.create(6, 0.01)
        for _ in range(3):
            params, state = adam_step(state, params, rng.normal(size=6))
        m, v, values = state.m.copy(), state.v.copy(), params.values.copy()
        bad_gradients = [
            (np.array([1.0, np.nan, 0.0, 0.0, 0.0, 0.0]), TrainingDivergenceError),
            (np.array([1.0, 0.0, np.inf, 0.0, 0.0, 0.0]), TrainingDivergenceError),
            (np.zeros(5), ValueError),
        ]
        for bad, error in bad_gradients:
            with pytest.raises(error):
                adam_step(state, params, bad)
            assert np.array_equal(state.m, m)
            assert np.array_equal(state.v, v)
            assert state.t == 3
            assert np.array_equal(params.values, values)


class TestSoftmax:
    def test_sums_to_one_and_strictly_positive(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.normal(size=5) * rng.uniform(0.1, 50)
            p = softmax(logits)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0.0)

    def test_extreme_logits_stay_positive(self):
        p = softmax(np.array([1000.0, 0.0, -1000.0]))
        assert np.all(p > 0.0)
        assert abs(p.sum() - 1.0) < 1e-12

    def test_log_softmax_consistent(self):
        logits = np.array([0.2, -1.0, 3.0, 0.0, 1.5])
        np.testing.assert_allclose(np.exp(log_softmax(logits)), softmax(logits), rtol=1e-12)

    def test_entropy_uniform(self):
        h = categorical_entropy(np.zeros(5))
        assert h == pytest.approx(math.log(5), rel=1e-12)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        spec = NetworkSpec((25, 128, 128, 5))
        params = init_params(spec, 123)
        path = tmp_path / "net.bin"
        save_params(path, spec, params)
        loaded_spec, loaded = load_params(path)
        assert loaded_spec == spec
        assert np.array_equal(loaded.values, params.values)

    def test_truncated_file(self, tmp_path):
        spec = NetworkSpec((4, 3))
        path = tmp_path / "net.bin"
        save_params(path, spec, init_params(spec, 0))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 12])
        with pytest.raises(CheckpointTruncatedError):
            load_params(path)

    def test_foreign_version_tag(self, tmp_path):
        spec = NetworkSpec((4, 3))
        path = tmp_path / "net.bin"
        save_params(path, spec, init_params(spec, 0))
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError):
            load_params(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointFormatError):
            load_params(path)

    def test_corrupted_payload_fails_checksum(self, tmp_path):
        spec = NetworkSpec((4, 3))
        path = tmp_path / "net.bin"
        save_params(path, spec, init_params(spec, 0))
        data = bytearray(path.read_bytes())
        data[40] ^= 0xFF  # inside the parameter payload, after the header
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointChecksumError):
            load_params(path)

    def test_archive_round_trip(self, tmp_path):
        path = tmp_path / "arch.bin"
        spec = NetworkSpec((3, 2))
        blob = network_to_bytes(spec, init_params(spec, 1))
        write_archive(path, [("meta", b'{"agent": "x"}'), ("net", blob)])
        sections = read_archive(path)
        assert sections["meta"] == b'{"agent": "x"}'
        assert sections["net"] == blob

    def test_non_utf8_section_name_is_format_error(self, tmp_path):
        path = tmp_path / "arch.bin"
        write_archive(path, [("ab", b"payload")])
        data = bytearray(path.read_bytes())
        at = data.index(b"ab")
        data[at : at + 2] = b"\xff\xfe"
        data[-4:] = zlib.crc32(bytes(data[:-4])).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError):
            read_archive(path)

    def test_duplicate_section_is_format_error(self, tmp_path):
        path = tmp_path / "arch.bin"
        write_archive(path, [("a", b"1"), ("a", b"2")])
        with pytest.raises(CheckpointFormatError, match="duplicate section 'a'"):
            read_archive(path)

    def test_bytes_after_checksum_are_format_error(self, tmp_path):
        path = tmp_path / "arch.bin"
        write_archive(path, [("a", b"1")])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointFormatError, match="4 bytes after the checksum"):
            read_archive(path)

    def test_params_bytes_after_checksum_are_format_error(self, tmp_path):
        spec = NetworkSpec((4, 3))
        path = tmp_path / "net.bin"
        save_params(path, spec, init_params(spec, 0))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointFormatError, match="4 bytes after the checksum"):
            load_params(path)

    @pytest.mark.parametrize("writer", ["save_params", "write_archive"])
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"previous checkpoint")
        spec = NetworkSpec((3, 2))

        def fail_replace(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail_replace)
        with pytest.raises(OSError):
            if writer == "save_params":
                save_params(path, spec, init_params(spec, 0))
            else:
                write_archive(path, [("meta", b"{}")])
        assert path.read_bytes() == b"previous checkpoint"
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.bin"]

    def test_adam_state_round_trip(self):
        state = AdamState(
            m=np.array([1.0, -2.0]),
            v=np.array([0.5, 0.25]),
            t=17,
            learning_rate=0.003,
        )
        restored = adam_from_bytes(adam_to_bytes(state))
        assert restored.t == 17
        assert restored.learning_rate == 0.003
        assert np.array_equal(restored.m, state.m)
        assert np.array_equal(restored.v, state.v)


class TestDeterminism:
    def test_training_trajectory_bitwise_identical(self):
        def run():
            spec = NetworkSpec((6, 10, 3))
            params = init_params(spec, 77)
            state = AdamState.create(spec.n_params, 0.005)
            rng = np.random.default_rng(8)
            for _ in range(20):
                x = rng.normal(size=6)
                target = rng.normal(size=3)
                _, g_out = squared_error_probe(target)(forward(spec, params, x))
                grad = backward(spec, params, x, g_out)
                params, state = adam_step(state, params, grad)
            return params.values

        assert np.array_equal(run(), run())
