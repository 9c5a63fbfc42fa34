"""Reward term closed forms, decomposition identity, and shape properties."""

import numpy as np
import pytest

from highwaylab.reward import (
    EgoPeriodView,
    RewardBreakdown,
    RewardParams,
    RewardWeights,
    comfort_term,
    compute_reward,
    efficiency_term,
    safety_term,
)

P = RewardParams()


class TestSafetyTerm:
    def test_crashed(self):
        assert safety_term(True, 10.0, 25.0, P) == -1.0

    def test_no_leader(self):
        assert safety_term(False, None, 25.0, P) == 0.0

    def test_headway_formula(self):
        # gap 15 m at 20 m/s: headway 0.75 s of a 1.5 s threshold
        assert safety_term(False, 15.0, 20.0, P) == pytest.approx(-0.25)

    def test_zero_beyond_safe_headway(self):
        assert safety_term(False, 100.0, 20.0, P) == 0.0

    def test_nonincreasing_as_gap_shrinks(self):
        gaps = np.linspace(60.0, 0.5, 80)
        values = [safety_term(False, g, 25.0, P) for g in gaps]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(-1.0 <= v <= 0.0 for v in values)


class TestComfortTerm:
    def test_zero_accel_no_change(self):
        assert comfort_term(0.0, False, P) == 0.0

    def test_full_accel(self):
        assert comfort_term(P.a_max, False, P) == -1.0

    def test_lane_change_cost(self):
        assert comfort_term(0.0, True, P) == pytest.approx(-0.1)

    def test_nonincreasing_in_accel(self):
        accels = np.linspace(0.0, P.a_max, 50)
        values = [comfort_term(a, False, P) for a in accels]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_floor_at_minus_two(self):
        assert comfort_term(100.0, True, P) == -2.0


class TestEfficiencyTerm:
    def test_at_v_min(self):
        assert efficiency_term(20.0, P) == 0.0

    def test_at_v_max(self):
        assert efficiency_term(30.0, P) == 1.0

    def test_midpoint(self):
        assert efficiency_term(25.0, P) == pytest.approx(0.5)

    def test_clamped(self):
        assert efficiency_term(0.0, P) == 0.0
        assert efficiency_term(99.0, P) == 1.0

    def test_nondecreasing(self):
        speeds = np.linspace(0.0, 40.0, 100)
        values = [efficiency_term(v, P) for v in speeds]
        assert all(a <= b for a, b in zip(values, values[1:]))


def _view(speed=25.0, crashed=False, gap=None, accel=0.0, lane_change=False):
    return EgoPeriodView(
        speed=speed,
        lane_change=lane_change,
        crashed=crashed,
        leader_gap=gap,
        mean_abs_accel=accel,
    )


class TestComputeReward:
    def test_safety_only_weights_crash(self):
        out = compute_reward(_view(crashed=True), RewardWeights(1.0, 0.0, 0.0), P)
        assert out.total == -1.0

    def test_efficiency_only_at_v_max(self):
        out = compute_reward(_view(speed=30.0), RewardWeights(0.0, 0.0, 1.0), P)
        assert out.total == 1.0

    def test_crash_during_lane_change_sums_terms(self):
        # safety -1, comfort -(0.5^2) - 0.1, efficiency 0.5, default weights
        view = _view(speed=25.0, crashed=True, accel=2.5, lane_change=True)
        out = compute_reward(view, RewardWeights(), P)
        expected = 1.0 * (-1.0) + 0.3 * (-(0.5**2) - 0.1) + 0.7 * 0.5
        assert out.total == pytest.approx(-0.755)
        assert out.total == pytest.approx(expected)

    def test_boundary_lane_noop_is_not_a_lane_change(self):
        # env.step reports a lane command at the road's edge as no lane change;
        # tests/test_env.py checks that rule on the road itself.
        out = compute_reward(_view(lane_change=False), RewardWeights(), P)
        assert out.comfort == 0.0

    def test_decomposition_identity_bitwise(self):
        rng = np.random.default_rng(3)
        w = RewardWeights()
        for _ in range(500):
            view = _view(
                speed=rng.uniform(0, 40),
                crashed=bool(rng.integers(2)),
                gap=None if rng.random() < 0.3 else float(rng.uniform(0.1, 80)),
                accel=float(rng.uniform(0, 5)),
                lane_change=bool(rng.integers(2)),
            )
            out = compute_reward(view, w, P)
            recomputed = (
                w.safety * out.safety + w.comfort * out.comfort + w.efficiency * out.efficiency
            )
            assert out.total == recomputed  # identical expression, bitwise

    def test_component_ranges(self):
        rng = np.random.default_rng(4)
        w = RewardWeights()
        for _ in range(500):
            view = _view(
                speed=rng.uniform(0, 60),
                crashed=bool(rng.integers(2)),
                gap=None if rng.random() < 0.3 else float(rng.uniform(0.1, 120)),
                accel=float(rng.uniform(0, 12)),
                lane_change=bool(rng.integers(2)),
            )
            out = compute_reward(view, w, P)
            assert -1.0 <= out.safety <= 0.0
            assert -2.0 <= out.comfort <= 0.0
            assert 0.0 <= out.efficiency <= 1.0
            lo = -(w.safety + 2.0 * w.comfort)
            hi = w.efficiency
            assert lo <= out.total <= hi

    def test_weight_scaling_by_powers_of_two_is_exact(self):
        view = _view(speed=23.0, gap=12.0, accel=1.7, crashed=False)
        base = compute_reward(view, RewardWeights(1.0, 0.3, 0.7), P)
        for k in (2.0, 4.0, 0.5):
            scaled = compute_reward(view, RewardWeights(k * 1.0, k * 0.3, k * 0.7), P)
            assert scaled.total == k * base.total

    def test_weight_scaling_general(self):
        view = _view(speed=23.0, gap=12.0, accel=1.7)
        base = compute_reward(view, RewardWeights(1.0, 0.3, 0.7), P)
        k = 3.0
        scaled = compute_reward(view, RewardWeights(k * 1.0, k * 0.3, k * 0.7), P)
        assert scaled.total == pytest.approx(k * base.total, rel=1e-12)


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RewardWeights(-0.1, 0.3, 0.7)

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            RewardWeights(0.0, 0.0, 0.0)

    def test_bad_speed_band_rejected(self):
        with pytest.raises(ValueError):
            RewardParams(v_min=30.0, v_max=20.0)

    def test_combine_is_the_single_total_expression(self):
        w = RewardWeights()
        out = RewardBreakdown.combine(w, -0.5, -0.2, 0.8)
        assert out.total == w.safety * -0.5 + w.comfort * -0.2 + w.efficiency * 0.8
