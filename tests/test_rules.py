"""Finite-state baseline: rule table, transition soundness, safety property."""

import numpy as np
import pytest

from helpers import reference_decode
from highwaylab.actions import EgoAction
from highwaylab.env import OBS_DIM, OBS_ROW, HighwayEnv, VehicleState, encode_observation
from highwaylab.rules import FsmState, RuleAgent, RuleParams, _decode, decide

PARAMS = RuleParams()

DEFINED_EDGES = {
    (FsmState.CRUISE_FOLLOW, FsmState.CRUISE_FOLLOW),
    (FsmState.CRUISE_FOLLOW, FsmState.PREPARE_LANE_CHANGE),
    (FsmState.PREPARE_LANE_CHANGE, FsmState.EXECUTE_LANE_CHANGE),
    (FsmState.PREPARE_LANE_CHANGE, FsmState.CRUISE_FOLLOW),
    (FsmState.EXECUTE_LANE_CHANGE, FsmState.EXECUTE_LANE_CHANGE),
    (FsmState.EXECUTE_LANE_CHANGE, FsmState.CRUISE_FOLLOW),
}


def vehicle(x, y=0.0, v=25.0, lane=0, target=25.0):
    return VehicleState(x=x, y=y, v=v, lane_target=lane, target_speed=target)


def obs_for(ego, traffic):
    return encode_observation(ego, traffic)


class TestRuleTable:
    def test_empty_road_cruises_faster(self):
        obs = obs_for(vehicle(0.0, y=4.0, lane=1), [])
        action, state = decide(obs, FsmState.CRUISE_FOLLOW, PARAMS)
        assert action == EgoAction.FASTER
        assert state == FsmState.CRUISE_FOLLOW

    def test_distant_leader_still_faster(self):
        # headway 80/25 = 3.2 s, above the 2 s trigger
        obs = obs_for(vehicle(0.0, y=4.0, lane=1), [vehicle(85.0, y=4.0, v=20.0, lane=1)])
        action, state = decide(obs, FsmState.CRUISE_FOLLOW, PARAMS)
        assert action == EgoAction.FASTER
        assert state == FsmState.CRUISE_FOLLOW

    def test_close_leader_slows_and_prepares(self):
        # headway 0.4 * trigger: gap = 0.8 * 25 = 20 m
        obs = obs_for(vehicle(0.0, y=4.0, lane=1), [vehicle(25.0, y=4.0, v=20.0, lane=1)])
        action, state = decide(obs, FsmState.CRUISE_FOLLOW, PARAMS)
        assert action == EgoAction.SLOWER
        assert state == FsmState.PREPARE_LANE_CHANGE

    def test_moderate_leader_idles_and_prepares(self):
        # headway between 0.5 and 1.0 of the trigger: gap = 1.5 * 25 = 37.5 m
        obs = obs_for(vehicle(0.0, y=4.0, lane=1), [vehicle(42.5, y=4.0, v=22.0, lane=1)])
        action, state = decide(obs, FsmState.CRUISE_FOLLOW, PARAMS)
        assert action == EgoAction.IDLE
        assert state == FsmState.PREPARE_LANE_CHANGE

    def test_blocked_gaps_fall_back_to_slower(self):
        ego = vehicle(0.0, y=4.0, lane=1)
        traffic = [
            vehicle(25.0, y=4.0, v=20.0, lane=1),  # slow leader
            vehicle(5.0, y=0.0, v=25.0, lane=0),  # blocks left front gap
            vehicle(5.0, y=8.0, v=25.0, lane=2),  # blocks right front gap
        ]
        obs = obs_for(ego, traffic)
        action, state = decide(obs, FsmState.PREPARE_LANE_CHANGE, PARAMS)
        assert action == EgoAction.SLOWER
        assert state == FsmState.CRUISE_FOLLOW

    def test_open_left_lane_wins(self):
        ego = vehicle(0.0, y=4.0, lane=1)
        obs = obs_for(ego, [vehicle(25.0, y=4.0, v=20.0, lane=1)])
        action, state = decide(obs, FsmState.PREPARE_LANE_CHANGE, PARAMS)
        assert action == EgoAction.LANE_LEFT
        assert state == FsmState.EXECUTE_LANE_CHANGE

    def test_rear_gap_vetoes(self):
        ego = vehicle(0.0, y=4.0, lane=1)
        traffic = [
            vehicle(25.0, y=4.0, v=20.0, lane=1),
            vehicle(-12.0, y=0.0, v=25.0, lane=0),  # rear gap 7 m < 10 m
        ]
        obs = obs_for(ego, traffic)
        action, state = decide(obs, FsmState.PREPARE_LANE_CHANGE, PARAMS)
        assert action == EgoAction.LANE_RIGHT  # right is still open
        assert state == FsmState.EXECUTE_LANE_CHANGE

    def test_slow_target_lane_leader_vetoes(self):
        ego = vehicle(0.0, y=4.0, v=25.0, lane=1)
        traffic = [
            vehicle(25.0, y=4.0, v=20.0, lane=1),
            vehicle(30.0, y=0.0, v=25.5, lane=0),  # advantage 0.5 < 2 m/s
            vehicle(30.0, y=8.0, v=28.0, lane=2),  # advantage 3 m/s
        ]
        obs = obs_for(ego, traffic)
        action, state = decide(obs, FsmState.PREPARE_LANE_CHANGE, PARAMS)
        assert action == EgoAction.LANE_RIGHT
        assert state == FsmState.EXECUTE_LANE_CHANGE

    def test_execute_idles_until_settled(self):
        mid_change = vehicle(0.0, y=2.4, lane=0)  # between lane 0 and 1
        obs = obs_for(mid_change, [])
        action, state = decide(obs, FsmState.EXECUTE_LANE_CHANGE, PARAMS)
        assert action == EgoAction.IDLE
        assert state == FsmState.EXECUTE_LANE_CHANGE

    def test_execute_settles_back_to_cruise(self):
        settled = vehicle(0.0, y=4.05, lane=1)
        obs = obs_for(settled, [])
        action, state = decide(obs, FsmState.EXECUTE_LANE_CHANGE, PARAMS)
        assert state == FsmState.CRUISE_FOLLOW
        assert action == EgoAction.FASTER  # empty road cruise behavior


class TestScenarioSequence:
    def test_overtake_sequence_in_env(self):
        """Slow leader ahead, left lane free: prepare, change left, settle."""
        env = HighwayEnv(n_traffic=0)
        env.reset(0)
        env.ego.y = 4.0
        env.ego.lane_target = 1
        env.add_traffic_vehicle(vehicle(45.0, y=4.0, v=15.0, lane=1, target=15.0))
        agent = RuleAgent(lane_count=3)
        seen_states = [agent.state]
        actions = []
        obs = encode_observation(env.ego, env.traffic)
        for _ in range(8):
            action = agent.act(obs)
            actions.append(action)
            seen_states.append(agent.state)
            out = env.step(action)
            if out.terminated or out.truncated:
                break
            obs = out.observation
        assert EgoAction.LANE_LEFT in actions
        assert FsmState.PREPARE_LANE_CHANGE in seen_states
        assert FsmState.EXECUTE_LANE_CHANGE in seen_states
        assert env.ego.lane_target == 0
        for edge in zip(seen_states, seen_states[1:]):
            assert edge in DEFINED_EDGES

    def test_deterministic_on_identical_observations(self):
        rng = np.random.default_rng(6)
        observations = []
        for _ in range(50):
            ego = vehicle(0.0, y=float(rng.integers(3)) * 4.0, v=float(rng.uniform(10, 30)))
            traffic = [
                vehicle(
                    float(rng.uniform(-80, 80)),
                    y=float(rng.integers(3)) * 4.0,
                    v=float(rng.uniform(15, 30)),
                )
                for _ in range(int(rng.integers(0, 6)))
            ]
            observations.append(obs_for(ego, traffic))

        def run():
            agent = RuleAgent()
            return [(int(agent.act(o)), agent.state) for o in observations]

        assert run() == run()


class TestSafetyProperty:
    def test_lane_change_only_with_acceptable_gaps(self):
        """Whenever the FSM emits a lane change, the decoded observation must
        satisfy both gap criteria and the speed advantage in the target lane."""
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(2000):
            ego_lane = int(rng.integers(3))
            ego = vehicle(0.0, y=ego_lane * 4.0, v=float(rng.uniform(10, 30)))
            traffic = [
                vehicle(
                    float(rng.uniform(-60, 60)),
                    y=float(rng.integers(3)) * 4.0,
                    v=float(rng.uniform(10, 30)),
                )
                for _ in range(int(rng.integers(0, 5)))
            ]
            obs = obs_for(ego, traffic)
            action, state = decide(obs, FsmState.PREPARE_LANE_CHANGE, PARAMS)
            if action not in (EgoAction.LANE_LEFT, EgoAction.LANE_RIGHT):
                continue
            checked += 1
            target = ego_lane - 1 if action == EgoAction.LANE_LEFT else ego_lane + 1
            ahead = []
            behind = []
            for row in obs.reshape(5, 5)[1:]:
                if row[0] != 1.0:
                    continue
                lane = int(round((ego.y + row[2] * 12.0) / 4.0))
                if lane != target:
                    continue
                x_rel = row[1] * 100.0
                (ahead if x_rel > 0 else behind).append((x_rel, row[3] * 30.0))
            if ahead:
                x_rel, v_rel = min(ahead)
                assert x_rel - 5.0 >= PARAMS.gap_accept_front
                assert v_rel >= PARAMS.speed_advantage_min
            if behind:
                x_rel, _ = max(behind)
                assert -x_rel - 5.0 >= PARAMS.gap_accept_rear
        assert checked > 50  # the property must actually get exercised


class TestDecoding:
    def test_matches_reference_decoding(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            obs = rng.uniform(-1.0, 1.0, OBS_DIM)
            obs[::OBS_ROW] = rng.choice([0.0, 1.0, 0.5], OBS_DIM // OBS_ROW)
            obs[rng.random(OBS_DIM) < 0.1] = -0.0
            lane_width = float(rng.choice([3.5, 4.0]))
            ego_y, ego_v, neighbors = _decode(obs, lane_width)
            got = [ego_y, ego_v] + [(n.x_rel, n.lane, n.v_rel) for n in neighbors]
            want_y, want_v, want_neighbors = reference_decode(obs, lane_width)
            want = [want_y, want_v] + want_neighbors
            assert _bits(got) == _bits(want)


def _bits(values):
    """Nested values with every float as its exact hex text."""
    if isinstance(values, (list, tuple)):
        return [_bits(v) for v in values]
    return values if isinstance(values, int) else float(values).hex()


class TestValidation:
    def test_nonpositive_thresholds_rejected(self):
        with pytest.raises(ValueError):
            RuleParams(gap_accept_front=0.0)
