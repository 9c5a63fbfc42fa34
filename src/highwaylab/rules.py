"""Deterministic rule-based driving baseline.

A three-state machine over the encoded observation:

    CRUISE_FOLLOW ----(leader too close, adjacent lane exists)---> PREPARE_LANE_CHANGE
    PREPARE_LANE_CHANGE --(gaps and speed advantage hold)--------> EXECUTE_LANE_CHANGE
    PREPARE_LANE_CHANGE --(otherwise, back off)------------------> CRUISE_FOLLOW
    EXECUTE_LANE_CHANGE --(laterally settled)--------------------> CRUISE_FOLLOW

All thresholds live in RuleParams. The decision function is pure: identical
observations and state always produce the identical action and successor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .actions import EgoAction
from .env import K_NEAREST, OBS_RANGE_V, OBS_RANGE_X, OBS_RANGE_Y, OBS_ROW, VEHICLE_LENGTH


class FsmState(Enum):
    CRUISE_FOLLOW = "cruise_follow"
    PREPARE_LANE_CHANGE = "prepare_lane_change"
    EXECUTE_LANE_CHANGE = "execute_lane_change"


@dataclass(frozen=True)
class RuleParams:
    headway_change_trigger: float = 2.0  # s; consider changing lanes below this
    gap_accept_front: float = 15.0  # m, bumper gap ahead in the target lane
    gap_accept_rear: float = 10.0  # m, bumper gap behind in the target lane
    speed_advantage_min: float = 2.0  # m/s; target-lane leader must beat ego by this

    def __post_init__(self) -> None:
        for name in (
            "headway_change_trigger",
            "gap_accept_front",
            "gap_accept_rear",
            "speed_advantage_min",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


@dataclass(frozen=True)
class _Neighbor:
    x_rel: float  # m, center to center
    lane: int
    v_rel: float  # m/s, other minus ego


def _decode(observation: np.ndarray, lane_width: float):
    # Python floats: numpy scalar indexing costs more than the decision.
    rows = np.asarray(observation, dtype=np.float64).reshape(K_NEAREST + 1, OBS_ROW).tolist()
    ego_y = rows[0][2] * OBS_RANGE_Y
    ego_v = rows[0][3] * OBS_RANGE_V
    neighbors = []
    for row in rows[1:]:
        if row[0] != 1.0:
            continue
        y_abs = ego_y + row[2] * OBS_RANGE_Y
        neighbors.append(
            _Neighbor(
                x_rel=row[1] * OBS_RANGE_X,
                lane=int(round(y_abs / lane_width)),
                v_rel=row[3] * OBS_RANGE_V,
            )
        )
    return ego_y, ego_v, neighbors


def _nearest_ahead(neighbors, lane: int) -> _Neighbor | None:
    best = None
    for n in neighbors:
        if n.lane == lane and n.x_rel > 0 and (best is None or n.x_rel < best.x_rel):
            best = n
    return best


def _nearest_behind(neighbors, lane: int) -> _Neighbor | None:
    best = None
    for n in neighbors:
        if n.lane == lane and n.x_rel < 0 and (best is None or n.x_rel > best.x_rel):
            best = n
    return best


def _headway(leader: _Neighbor | None, ego_v: float) -> float:
    if leader is None:
        return float("inf")
    gap = leader.x_rel - VEHICLE_LENGTH
    return gap / max(ego_v, 0.1)


def _cruise(ego_v, ego_lane, neighbors, params, lane_count):
    """Cruise action plus whether a lane change should be prepared."""
    leader = _nearest_ahead(neighbors, ego_lane)
    headway = _headway(leader, ego_v)
    if headway >= params.headway_change_trigger:
        return EgoAction.FASTER, False
    action = (
        EgoAction.SLOWER
        if headway < 0.5 * params.headway_change_trigger
        else EgoAction.IDLE
    )
    has_candidate = ego_lane > 0 or ego_lane < lane_count - 1
    return action, has_candidate


def decide(
    observation: np.ndarray,
    fsm: FsmState,
    params: RuleParams,
    lane_count: int = 3,
    lane_width: float = 4.0,
) -> tuple[EgoAction, FsmState]:
    """One deterministic decision: observation and state in, action and state out."""
    ego_y, ego_v, neighbors = _decode(observation, lane_width)
    ego_lane = max(0, min(lane_count - 1, int(round(ego_y / lane_width))))

    if fsm == FsmState.EXECUTE_LANE_CHANGE:
        settled = abs(ego_y - round(ego_y / lane_width) * lane_width) < 0.2
        if not settled:
            return EgoAction.IDLE, FsmState.EXECUTE_LANE_CHANGE
        action, _ = _cruise(ego_v, ego_lane, neighbors, params, lane_count)
        return action, FsmState.CRUISE_FOLLOW

    if fsm == FsmState.PREPARE_LANE_CHANGE:
        for target in (ego_lane - 1, ego_lane + 1):  # left preferred on a tie
            if not 0 <= target < lane_count:
                continue
            front = _nearest_ahead(neighbors, target)
            if front is not None and front.x_rel - VEHICLE_LENGTH < params.gap_accept_front:
                continue
            rear = _nearest_behind(neighbors, target)
            if rear is not None and -rear.x_rel - VEHICLE_LENGTH < params.gap_accept_rear:
                continue
            if front is not None and front.v_rel < params.speed_advantage_min:
                continue
            action = EgoAction.LANE_LEFT if target < ego_lane else EgoAction.LANE_RIGHT
            return action, FsmState.EXECUTE_LANE_CHANGE
        return EgoAction.SLOWER, FsmState.CRUISE_FOLLOW

    action, wants_change = _cruise(ego_v, ego_lane, neighbors, params, lane_count)
    next_state = FsmState.PREPARE_LANE_CHANGE if wants_change else FsmState.CRUISE_FOLLOW
    return action, next_state


class RuleAgent:
    """Stateful wrapper carrying the FSM across steps of one episode."""

    def __init__(
        self,
        params: RuleParams | None = None,
        lane_count: int = 3,
        lane_width: float = 4.0,
    ):
        self.params = params if params is not None else RuleParams()
        self.lane_count = lane_count
        self.lane_width = lane_width
        self.state = FsmState.CRUISE_FOLLOW

    def reset(self) -> None:
        self.state = FsmState.CRUISE_FOLLOW

    def act(self, observation: np.ndarray) -> EgoAction:
        action, self.state = decide(
            observation, self.state, self.params, self.lane_count, self.lane_width
        )
        return action
