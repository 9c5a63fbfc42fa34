"""Weighted three-term driving reward: safety, comfort, efficiency.

Every term is a pure, bounded function of quantities measured over one
decision period. The weighted total is computed by a single expression
(`RewardBreakdown.combine`) so that the decomposition identity
``total == w_s * safety + w_c * comfort + w_e * efficiency`` holds bitwise
everywhere the breakdown is consumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import bound, check_bounds


@dataclass(frozen=True)
class RewardWeights:
    safety: float = 1.0
    comfort: float = 0.3
    efficiency: float = 0.7

    def __post_init__(self) -> None:
        if self.safety < 0 or self.comfort < 0 or self.efficiency < 0:
            raise ValueError("reward weights must be >= 0")
        if self.safety == 0 and self.comfort == 0 and self.efficiency == 0:
            raise ValueError("at least one reward weight must be > 0")


@dataclass(frozen=True)
class RewardParams:
    """Thresholds for the individual terms."""

    tau_safe: float = bound(1.5, 0, strict=True)  # safe time headway, s
    a_max: float = bound(5.0, 0, strict=True)  # acceleration scale, m/s^2
    kappa_lane_change: float = bound(0.1, 0)  # flat cost per initiated lane change
    v_min: float = 20.0  # m/s, zero-efficiency speed
    v_max: float = 30.0  # m/s, full-efficiency speed

    def __post_init__(self) -> None:
        check_bounds(self)
        if not 0 < self.v_min < self.v_max:
            raise ValueError("need 0 < v_min < v_max")


@dataclass(frozen=True)
class RewardBreakdown:
    safety: float
    comfort: float
    efficiency: float
    total: float

    @classmethod
    def combine(
        cls,
        weights: RewardWeights,
        safety: float,
        comfort: float,
        efficiency: float,
    ) -> "RewardBreakdown":
        # The one canonical weighted sum; never recompute it elsewhere.
        total = (
            weights.safety * safety
            + weights.comfort * comfort
            + weights.efficiency * efficiency
        )
        return cls(safety=safety, comfort=comfort, efficiency=efficiency, total=total)


@dataclass(frozen=True)
class EgoPeriodView:
    """What the reward needs to know about the ego after one decision period.

    `lane_change` is whether the period's command moved the ego's target
    lane (a lane command at the road's edge moves nothing). `leader_gap` is
    the bumper-to-bumper gap to the same-lane leader, or None when there is
    no leader ahead. `mean_abs_accel` is the mean magnitude of the commanded
    longitudinal acceleration over the period's sub-steps.
    """

    speed: float
    lane_change: bool
    crashed: bool = False
    leader_gap: float | None = None
    mean_abs_accel: float = 0.0


def safety_term(
    crashed: bool, gap: float | None, ego_speed: float, p: RewardParams
) -> float:
    """-1 on a crash, otherwise a headway shortfall penalty in [-0.5, 0]."""
    if crashed:
        return -1.0
    if gap is None:
        return 0.0
    headway = gap / max(ego_speed, 0.1)
    return -0.5 * max(0.0, 1.0 - headway / p.tau_safe)


def comfort_term(
    mean_abs_accel: float, lane_change_initiated: bool, p: RewardParams
) -> float:
    """Quadratic acceleration penalty plus a flat lane-change cost, floored at -2."""
    value = -((mean_abs_accel / p.a_max) ** 2)
    if lane_change_initiated:
        value -= p.kappa_lane_change
    return max(value, -2.0)


def efficiency_term(ego_speed: float, p: RewardParams) -> float:
    """Linear ramp from 0 at v_min to 1 at v_max, clamped."""
    frac = (ego_speed - p.v_min) / (p.v_max - p.v_min)
    return min(max(frac, 0.0), 1.0)


def compute_reward(
    view: EgoPeriodView, weights: RewardWeights, params: RewardParams
) -> RewardBreakdown:
    """Score one decision period from the ego's view at its end."""
    safety = safety_term(view.crashed, view.leader_gap, view.speed, params)
    comfort = comfort_term(view.mean_abs_accel, view.lane_change, params)
    efficiency = efficiency_term(view.speed, params)
    return RewardBreakdown.combine(weights, safety, comfort, efficiency)
