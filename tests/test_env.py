"""Simulator tests: determinism, dynamics oracles, collisions, encoding."""

import numpy as np
import pytest

from highwaylab.actions import EgoAction
from highwaylab.env import (
    A_MAX,
    DEFAULT_N_TRAFFIC,
    DT,
    K_NEAREST,
    LATERAL_RATE,
    OBS_DIM,
    SUBSTEPS,
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    GhrParams,
    HighwayEnv,
    RoadConfig,
    VehicleState,
    _certificate,
    _leaders,
    _x_order,
    collision_check,
    encode_observation,
    ghr_acceleration,
)
from helpers import (
    ReferenceHighwayEnv,
    reference_collisions,
    reference_encode_observation,
    reference_leader_of,
)
from highwaylab.errors import ConfigError, EnvStateError, EpisodeFinishedError
from highwaylab.rules import RuleAgent

MERGE = RoadConfig(scenario="merge")


def test_action_codes_are_frozen():
    # the integer codes are part of the trajectory/checkpoint wire format
    assert [int(a) for a in EgoAction] == [0, 1, 2, 3, 4]
    assert EgoAction.LANE_LEFT == 0
    assert EgoAction.IDLE == 1
    assert EgoAction.LANE_RIGHT == 2
    assert EgoAction.FASTER == 3
    assert EgoAction.SLOWER == 4


def vehicle(x, y=0.0, v=25.0, lane=0, target=25.0):
    return VehicleState(x=x, y=y, v=v, lane_target=lane, target_speed=target)


class TestGhr:
    def test_zero_stimulus(self):
        p = GhrParams()
        assert ghr_acceleration(vehicle(0.0, v=25.0), vehicle(20.0, v=25.0), p) == 0.0

    def test_direct_arithmetic(self):
        # c=15, m=0, l=2, dv=2, gap=10 -> 15 * 2 / 100 = 0.3
        p = GhrParams(c=15.0, m=0.0, l=2.0)
        follower = vehicle(0.0, v=23.0)
        leader = vehicle(15.0, v=25.0)  # centers 15 m apart = 10 m bumper gap
        assert ghr_acceleration(follower, leader, p) == pytest.approx(0.3)

    def test_overlap_commands_full_brake(self):
        p = GhrParams()
        assert ghr_acceleration(vehicle(0.0), vehicle(4.0), p) == -A_MAX

    def test_no_leader_tracks_target_speed(self):
        p = GhrParams()
        slow = vehicle(0.0, v=20.0, target=25.0)
        assert ghr_acceleration(slow, None, p) == pytest.approx(5.0)
        fast = vehicle(0.0, v=30.0, target=25.0)
        assert ghr_acceleration(fast, None, p) == pytest.approx(-5.0)

    def test_matches_scalar_oracle_on_grid(self):
        rng = np.random.default_rng(42)
        p = GhrParams(c=15.0, m=0.0, l=2.0)
        for _ in range(100):
            v_f = float(rng.uniform(0.0, 35.0))
            v_l = float(rng.uniform(0.0, 35.0))
            gap = float(rng.uniform(0.5, 80.0))
            follower = vehicle(0.0, v=v_f)
            leader = vehicle(gap + 5.0, v=v_l)
            expected = 15.0 * v_f**0.0 * (v_l - v_f) / gap**2.0
            expected = min(max(expected, -A_MAX), A_MAX)
            assert ghr_acceleration(follower, leader, p) == pytest.approx(expected, rel=1e-12)

    def test_speed_exponent(self):
        p = GhrParams(c=2.0, m=1.0, l=1.0)
        follower = vehicle(0.0, v=10.0)
        leader = vehicle(25.0, v=14.0)  # gap 20
        assert ghr_acceleration(follower, leader, p) == pytest.approx(2.0 * 10.0 * 4.0 / 20.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GhrParams(c=0.0)
        with pytest.raises(ValueError):
            GhrParams(tau=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [("c", float("nan")), ("m", float("inf")), ("l", float("nan")), ("tau", float("inf"))],
    )
    def test_non_finite_params_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            GhrParams(**{field: value})

    def test_negative_speed_exponent_rejected(self):
        # v**m with m < 0 divides by zero for a stopped follower.
        with pytest.raises(ValueError, match="m must be >= 0"):
            GhrParams(m=-1.0)
        stopped = vehicle(0.0, v=0.0)
        assert ghr_acceleration(stopped, vehicle(20.0, v=5.0), GhrParams(m=0.5)) == 0.0


class TestCollision:
    def test_far_apart(self):
        flags = collision_check([vehicle(0.0), vehicle(100.0)])
        assert not flags.any()

    def test_same_position(self):
        flags = collision_check([vehicle(0.0), vehicle(0.0)])
        assert flags.all()

    def test_touching_bumpers_collide(self):
        # 5 m long each: centers exactly 5 m apart means the boxes touch.
        flags = collision_check([vehicle(0.0), vehicle(5.0)])
        assert flags.all()

    def test_lateral_separation(self):
        flags = collision_check([vehicle(0.0, y=0.0), vehicle(0.0, y=4.0)])
        assert not flags.any()

    def test_symmetric_on_random_clouds(self):
        rng = np.random.default_rng(9)
        clouds = [
            [vehicle(float(rng.uniform(0, 40)), y=float(rng.uniform(0, 8))) for _ in range(6)]
            for _ in range(30)
        ]
        # Dense clouds on a 0.5 m grid: boxes that touch exactly, at
        # VEHICLE_LENGTH in x or VEHICLE_WIDTH in y, and boxes just past the
        # sweep window all occur.
        for _ in range(30):
            clouds.append(
                [
                    vehicle(0.5 * float(rng.integers(0, 121)), y=0.5 * float(rng.integers(0, 25)))
                    for _ in range(25)
                ]
            )
        touching = beyond_window = 0
        for cloud in clouds:
            flags = collision_check(cloud)
            # brute-force pair predicate, both directions
            for i, vi in enumerate(cloud):
                expected = any(
                    abs(vi.x - vj.x) <= VEHICLE_LENGTH and abs(vi.y - vj.y) <= VEHICLE_WIDTH
                    for j, vj in enumerate(cloud)
                    if j != i
                )
                assert flags[i] == expected
                for vj in cloud[i + 1 :]:
                    dx, dy = abs(vi.x - vj.x), abs(vi.y - vj.y)
                    touching += (dx == VEHICLE_LENGTH and dy <= VEHICLE_WIDTH) or (
                        dy == VEHICLE_WIDTH and dx <= VEHICLE_LENGTH
                    )
                    beyond_window += dx == VEHICLE_LENGTH + 0.5 and dy <= VEHICLE_WIDTH
        assert touching > 0 and beyond_window > 0


class TestEncoding:
    def test_no_traffic_gives_zero_neighbor_rows(self):
        obs = encode_observation(vehicle(10.0, v=25.0), [])
        assert obs.shape == (OBS_DIM,)
        assert np.all(obs[5:] == 0.0)
        assert obs[0] == 1.0

    def test_leader_row_normalization(self):
        ego = vehicle(0.0, y=0.0, v=25.0)
        leader = vehicle(50.0, y=0.0, v=28.0)
        obs = encode_observation(ego, [leader])
        np.testing.assert_allclose(obs[5:10], [1.0, 0.5, 0.0, 0.1, 0.0])

    def test_keeps_four_nearest_sorted(self):
        rng = np.random.default_rng(3)
        ego = vehicle(100.0)
        traffic = [vehicle(float(rng.uniform(0, 300))) for _ in range(6)]
        obs = encode_observation(ego, traffic).reshape(5, 5)
        rel = sorted(abs(t.x - ego.x) for t in traffic)[:K_NEAREST]
        seen = [abs(row[1]) * 100.0 for row in obs[1:] if row[0] == 1.0]
        # clamping can hide distances beyond 100 m; compare the unclamped ones
        for want, got in zip(rel, seen):
            assert got == pytest.approx(min(want, 100.0), rel=1e-12)
        assert seen == sorted(seen)

    def test_tie_broken_by_lower_index(self):
        ego = vehicle(0.0)
        twin_a = vehicle(30.0, y=0.0, v=20.0)
        twin_b = vehicle(30.0, y=4.0, v=24.0)
        obs = encode_observation(ego, [twin_a, twin_b]).reshape(5, 5)
        assert obs[1, 2] == 0.0  # index 0 vehicle (same lane) listed first
        assert obs[2, 2] == pytest.approx(4.0 / 12.0)

    def test_all_entries_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            ego = vehicle(float(rng.uniform(0, 900)), y=float(rng.uniform(0, 8)), v=float(rng.uniform(0, 40)))
            traffic = [
                vehicle(float(rng.uniform(0, 900)), y=float(rng.uniform(0, 8)), v=float(rng.uniform(0, 40)))
                for _ in range(6)
            ]
            obs = encode_observation(ego, traffic)
            assert obs.shape == (OBS_DIM,)
            assert np.all(obs >= -1.0) and np.all(obs <= 1.0)

    def test_matches_reference_encoding(self):
        # Coordinates from small pools, so |dx| ties, clamped entries and
        # -0.0 (from -0.0 - 0.0 or -0.0 / 30) all occur.
        rng = np.random.default_rng(12)
        xs = [-0.0, 0.0, 30.0, -30.0, 99.0, 150.0, -250.0, 1e-300]
        ys = [-0.0, 0.0, 1.7, 4.0, 8.0, 20.0]
        speeds = [-0.0, 0.0, 12.5, 25.0, 40.0]

        def random_vehicle():
            return VehicleState(
                x=float(rng.choice(xs)),
                y=float(rng.choice(ys)),
                v=float(rng.choice(speeds)),
                lane_target=int(rng.integers(3)),
            )

        ties = clamped = negative_zeros = 0
        for _ in range(400):
            ego = random_vehicle()
            traffic = [random_vehicle() for _ in range(int(rng.integers(0, 9)))]
            lane_width = float(rng.choice([3.5, 4.0]))
            want = reference_encode_observation(ego, traffic, lane_width)
            assert encode_observation(ego, traffic, lane_width).tobytes() == want.tobytes()
            distances = [abs(t.x - ego.x) for t in traffic]
            ties += len(set(distances)) < len(distances)
            clamped += bool(np.any(np.abs(want.reshape(-1, 5)[:, 1:]) == 1.0))
            negative_zeros += bool(np.any(np.signbit(want) & (want == 0.0)))
        assert ties and clamped and negative_zeros


class TestReset:
    def test_same_seed_identical(self):
        env_a, env_b = HighwayEnv(), HighwayEnv()
        obs_a = env_a.reset(7)
        obs_b = env_b.reset(7)
        assert np.array_equal(obs_a, obs_b)
        for va, vb in zip(env_a.vehicles, env_b.vehicles):
            assert (va.x, va.y, va.v) == (vb.x, vb.y, vb.v)

    def test_different_seeds_differ(self):
        env_a, env_b = HighwayEnv(), HighwayEnv()
        env_a.reset(7)
        env_b.reset(8)
        xs_a = [v.x for v in env_a.traffic]
        xs_b = [v.x for v in env_b.traffic]
        assert xs_a != xs_b

    def test_no_traffic_override(self):
        env = HighwayEnv(n_traffic=0)
        obs = env.reset(7)
        assert np.all(obs[5:] == 0.0)

    def test_ego_spawn_state(self):
        env = HighwayEnv()
        env.reset(3)
        assert env.ego.x == 0.0
        assert env.ego.v == 25.0

    def test_merge_spawns_ego_on_ramp(self):
        env = HighwayEnv(road=MERGE)
        for seed in range(5):
            env.reset(seed)
            assert env.ego.lane_target == MERGE.ramp_lane
            assert all(t.lane_target != MERGE.ramp_lane for t in env.traffic)

    def test_spawns_do_not_overlap(self):
        env = HighwayEnv(road=MERGE)
        for seed in range(20):
            env.reset(seed)
            assert not collision_check(env.vehicles).any()

    def test_infeasible_traffic_is_config_error(self):
        env = HighwayEnv(road=MERGE, n_traffic=100)
        with pytest.raises(ConfigError, match=r"n_traffic = 100.* 2 of 3 lanes.*\[30, 200\] m"):
            env.reset(0)

    def test_invalid_road_rejected(self):
        with pytest.raises(ValueError):
            RoadConfig(lane_count=1)
        with pytest.raises(ValueError):
            RoadConfig(scenario="merge", merge_ramp_end_x=2000.0)
        with pytest.raises(ValueError):
            RoadConfig(scenario="downtown")

    def test_step_before_reset_raises(self):
        with pytest.raises(EnvStateError):
            HighwayEnv().step(EgoAction.IDLE)


def empty_env(lane=0, scenario="highway"):
    """Single-vehicle env with the ego pinned to a known lane."""
    env = HighwayEnv(road=RoadConfig(scenario=scenario), n_traffic=0)
    env.reset(0)
    env.ego.y = env.road.lane_center(lane)
    env.ego.lane_target = lane
    return env


class TestStep:
    def test_idle_equilibrium(self):
        env = empty_env(lane=1)
        out = env.step(EgoAction.IDLE)
        assert env.ego.v == 25.0
        assert env.ego.y == 4.0
        assert out.reward.comfort == 0.0
        assert out.info["sim_time"] == pytest.approx(1.0)

    def test_lane_left_from_lane_zero_is_noop(self):
        env = empty_env(lane=0)
        x_before = env.ego.x
        env.step(EgoAction.LANE_LEFT)
        assert env.ego.y == 0.0
        assert env.ego.lane_target == 0
        assert env.ego.x > x_before

    def test_faster_matches_substep_euler_oracle(self):
        env = empty_env()
        env.step(EgoAction.FASTER)  # target 25 -> 30
        v = 25.0
        for _ in range(SUBSTEPS):
            a = min(max(1.0 * (30.0 - v), -A_MAX), A_MAX)
            v = min(max(v + a * DT, 0.0), 40.0)
        assert env.ego.v == v  # identical arithmetic, bitwise

    def test_target_speed_clamped(self):
        env = empty_env()
        for _ in range(5):
            env.step(EgoAction.FASTER)
        assert env.ego_target_speed == 30.0
        env2 = empty_env()
        for _ in range(8):
            env2.step(EgoAction.SLOWER)
        assert env2.ego_target_speed == 10.0

    def test_ego_vehicle_holds_the_commanded_target_speed(self):
        env = empty_env()
        env.step(EgoAction.FASTER)
        env.step(EgoAction.FASTER)
        assert env.ego.target_speed == env.ego_target_speed == 30.0

    def test_lane_change_slew_rate(self):
        env = empty_env(lane=0)
        ys = [env.ego.y]
        env.step(EgoAction.LANE_RIGHT)
        ys.append(env.ego.y)
        # One full lane (4 m) per decision period at 4 m/s; monotone, no jump
        assert ys[-1] == pytest.approx(4.0)
        assert abs(ys[-1] - ys[0]) <= LATERAL_RATE * 1.0 + 1e-12

    def test_truncates_at_horizon(self):
        env = HighwayEnv(n_traffic=0, horizon=5)
        env.reset(0)
        for i in range(5):
            out = env.step(EgoAction.IDLE)
        assert out.truncated and not out.terminated
        with pytest.raises(EpisodeFinishedError):
            env.step(EgoAction.IDLE)

    def test_crash_terminates_with_safety_penalty(self):
        env = empty_env(lane=1)
        env.add_traffic_vehicle(vehicle(18.0, y=4.0, v=5.0, lane=1, target=5.0))
        out = None
        for _ in range(10):
            out = env.step(EgoAction.FASTER)
            if out.terminated:
                break
        assert out is not None and out.terminated
        assert out.info["crashed"]
        assert out.reward.safety == -1.0
        with pytest.raises(EpisodeFinishedError):
            env.step(EgoAction.IDLE)

    def test_merge_ramp_forces_brake(self):
        env = empty_env(lane=2, scenario="merge")
        # drive past the ramp end while still targeting the ramp lane
        out = None
        for _ in range(40):
            out = env.step(EgoAction.IDLE)
            if env.ego.x >= env.road.merge_ramp_end_x:
                break
        for _ in range(10):
            if not env.episode_active:
                break
            out = env.step(EgoAction.IDLE)
        assert env.ego.v == 0.0
        assert out.info["ego_lane"] == 2

    def test_merge_escape_by_lane_change(self):
        env = empty_env(lane=2, scenario="merge")
        env.step(EgoAction.LANE_LEFT)
        for _ in range(20):
            if not env.episode_active:
                break
            env.step(EgoAction.IDLE)
        assert env.ego.v > 20.0  # never hit the forced brake


class TestTrafficDynamics:
    def test_traffic_never_changes_lane(self):
        env = HighwayEnv()
        env.reset(11)
        lanes = [t.lane_target for t in env.traffic]
        ys = [t.y for t in env.traffic]
        for _ in range(20):
            if not env.episode_active:
                break
            env.step(EgoAction.IDLE)
        assert [t.lane_target for t in env.traffic] == lanes
        assert [t.y for t in env.traffic] == ys

    def test_follower_approaches_but_does_not_hit_leader(self):
        env = empty_env(lane=0)
        env.add_traffic_vehicle(vehicle(40.0, y=0.0, v=28.0, lane=0, target=28.0))
        env.add_traffic_vehicle(vehicle(80.0, y=0.0, v=20.0, lane=0, target=20.0))
        for _ in range(39):
            if not env.episode_active:
                break
            env.step(EgoAction.SLOWER)
        fast, slow = env.traffic
        assert not fast.crashed and not slow.crashed
        assert slow.x - fast.x > 5.0  # still a positive bumper gap

    def test_reaction_delay_shifts_response(self):
        def follower_speed_after_one_period(tau):
            env = HighwayEnv(ghr=GhrParams(tau=tau), n_traffic=0)
            env.reset(0)
            env.ego.y = 0.0
            env.ego.lane_target = 0
            # fast follower closing on the ego from behind
            env.add_traffic_vehicle(vehicle(-20.0, y=0.0, v=30.0, lane=0, target=30.0))
            env.step(EgoAction.IDLE)
            return env.traffic[0].v

        # a delayed follower starts braking later, so it is still faster
        assert follower_speed_after_one_period(0.5) > follower_speed_after_one_period(0.0)


class TestInvariants:
    def test_full_trajectory_bitwise_deterministic(self):
        def run():
            env = HighwayEnv(road=MERGE)
            env.reset(13)
            rng = np.random.default_rng(99)
            states = []
            for _ in range(40):
                if not env.episode_active:
                    break
                env.step(int(rng.integers(5)))
                states.extend((v.x, v.y, v.v, v.a, v.crashed) for v in env.vehicles)
            return states

        assert run() == run()

    def test_speed_and_lateral_bounds(self):
        env = HighwayEnv(road=MERGE)
        rng = np.random.default_rng(21)
        low, high = env.road.y_bounds
        for episode in range(5):
            env.reset(episode)
            while env.episode_active:
                env.step(int(rng.integers(5)))
                for v in env.vehicles:
                    if not v.crashed:
                        assert 0.0 <= v.v <= 40.0
                assert low <= env.ego.y <= high

    def test_terminated_and_truncated_exclusive(self):
        env = HighwayEnv(road=MERGE)
        rng = np.random.default_rng(5)
        for episode in range(10):
            env.reset(episode)
            while env.episode_active:
                out = env.step(int(rng.integers(5)))
            assert not (out.terminated and out.truncated)

    def test_reward_total_finite(self):
        env = HighwayEnv(road=MERGE)
        rng = np.random.default_rng(17)
        for episode in range(5):
            env.reset(episode)
            while env.episode_active:
                out = env.step(int(rng.integers(5)))
                assert np.isfinite(out.reward.total)


def _state(env, out):
    """Everything one step exposes, as text that tells any two floats apart."""
    vehicles = [(v.x, v.y, v.v, v.a, v.crashed) for v in env.vehicles]
    step = (vehicles, out.reward, out.info, out.terminated, out.truncated)
    return repr(step), out.observation.tobytes()


def _add(env, x, y, v):
    lane = max(0, round(y / env.road.lane_width))
    env.add_traffic_vehicle(VehicleState(x=x, y=y, v=v, lane_target=lane, target_speed=v))


def _tied(env):
    # Two pairs at equal x in adjacent lanes.
    _add(env, 60.0, 4.0, 12.0)
    _add(env, 60.0, 8.0, 14.0)
    _add(env, 95.0, 0.0, 15.0)
    _add(env, 95.0, 4.0, 15.0)


def _ulp_tie(env, y_first=0.0, y_second=0.0, speeds=(20.0, 20.0, 22.0)):
    # The ego and one follower at -1000 m; two vehicles ahead whose x differ
    # by one ulp, so both dx round to 1001 m and the lower index must win.
    # Their speeds differ, so the follower's acceleration shows which leads.
    env.ego.x = -1000.0
    _add(env, -1000.0, 0.0, speeds[0])
    _add(env, float(np.nextafter(1.0, 2.0)), y_first, speeds[1])
    _add(env, 1.0, y_second, speeds[2])


def _ulp_tie_separating(env):
    # The tie winner, one ulp ahead, is the faster one, and the follower
    # outruns the ego: after the first sub-step the nearer vehicle leads
    # the follower, and the x order has not changed.
    _ulp_tie(env, speeds=(30.0, 22.0, 20.0))


def _ulp_tie_closing(env):
    # A vehicle closes to two ulps behind a stopped, crashed one in the first
    # sub-step, so seen from 1000 m back their dx round alike and the lower
    # index, the stopped one, leads; the x order and every y hold. Under a
    # reaction delay the closing vehicle keeps its speed exactly. The
    # stopped one stores 5 m/s, so the follower's acceleration shows it leads.
    env.ego.x = -2000.0
    _add(env, -1000.0, 0.0, 20.0)
    env.add_traffic_vehicle(VehicleState(x=1.0, y=0.0, v=5.0, crashed=True))
    closing_x = float(np.nextafter(np.nextafter(0.8, 0.0), 0.0))
    _add(env, closing_x, 0.0, 2.0)
    assert closing_x + 2.0 * DT == np.nextafter(np.nextafter(1.0, 0.0), 0.0)


def _mid_lane(env):
    # The ego starts between lanes, so every leader search sees it off-centre.
    env.ego.y = 0.5 * env.road.lane_width + 0.3
    env.ego.lane_target = 1


def _crashed_storing_speed(env):
    # A crashed vehicle that still stores 25 m/s and 3 m/s^2 never moves and
    # reads a = 0 after a step: its follower, 12 m behind at 25 m/s with no
    # reason to brake, hits it in the third sub-step. Far behind the ego and
    # the spawned traffic.
    env.add_traffic_vehicle(VehicleState(x=-488.0, y=0.0, v=25.0, a=3.0, crashed=True))
    _add(env, -500.0, 0.0, 25.0)


def _ego_accelerating(env):
    # The ego, at 10 m/s with a 30 m/s target, gains A_MAX * DT per
    # sub-step toward a stopped vehicle 11 m past its bumper: its start
    # speed closes 10 m in a period, the acceleration 2.75 m more.
    env.ego.x = -500.0
    env.ego.v = 10.0
    env.ego.target_speed = 30.0
    _add(env, -484.0, env.ego.y, 0.0)


def _wide_beside_traffic(env):
    # On lanes narrower than a vehicle, a vehicle centred on lane 1 overtakes
    # a lane-0 vehicle 20 m ahead of it: their boxes meet across the lane
    # line in the sixteenth sub-step, though neither leads the other.
    _add(env, -500.0, env.road.lane_width, 30.0)
    _add(env, -480.0, 0.0, 20.0)


def _ego_mid_change(env, y=5.2, lane_target=2):
    # Far behind the spawned traffic, the ego is on its way from lane 1 to
    # lane 2 with a close, faster follower in the target lane that it cuts
    # in front of, and a slower vehicle ahead in its old lane.
    env.ego.x = -500.0
    env.ego.y = y
    env.ego.lane_target = lane_target
    _add(env, -507.0, 8.0, 28.0)
    _add(env, -470.0, 4.0, 20.0)


def _ego_reversing(env):
    # The ego has slewed most of the way from lane 1 to lane 2 and now heads
    # back to lane 1, past the vehicles of both lanes.
    _ego_mid_change(env, y=7.2, lane_target=1)


def _band_at_kth_substep(env):
    # The ego slews from y = 1.2 toward lane 1 and reaches y = 2.0, half a
    # lane from both lane centres, exactly at the second sub-step: there it
    # leaves lane 0's leader band, and a lane-1 follower gains a leader one
    # sub-step later.
    env.ego.x = -500.0
    env.ego.y = 1.2
    env.ego.lane_target = 1
    _add(env, -512.0, 4.0, 27.0)
    _add(env, -478.0, 0.0, 22.0)
    _add(env, -460.0, 4.0, 24.0)


def _mover_touching(env):
    # On 4 m lanes the ego slews from y = 2.4 toward lane 0 and at the first
    # sub-step, y = 2.0, touches the box of the lane-0 vehicle beside it,
    # exactly at the edge of the band it must watch: VEHICLE_WIDTH away.
    env.ego.x = -500.0
    env.ego.y = 2.4
    env.ego.lane_target = 0
    _add(env, -500.0, 0.0, 25.0)


def _traffic_at_negative_zero(env):
    # Lane 0's centre given as -0.0: the first sub-step's slew adds 0.0 and
    # turns it into 0.0, as the reference does, but not for a crashed vehicle,
    # which is never slewed.
    env.add_traffic_vehicle(VehicleState(x=-480.0, y=-0.0, v=22.0, target_speed=22.0))
    env.add_traffic_vehicle(VehicleState(x=-700.0, y=-0.0, v=0.0, crashed=True))
    env.ego.x = -500.0
    env.ego.y = 0.0
    env.ego.lane_target = 0


def _ramp_end_ahead(env):
    # The merge ego on the ramp, clear of all traffic, crosses
    # merge_ramp_end_x during the second sub-step of a certified window and
    # brakes from the third on.
    env.ego.x = env.road.merge_ramp_end_x - 3.2


def _crashed_pair(env, front_x=4.0, follower_x=-300.0):
    # Two crashed vehicles overlap in lane 0, the front one added first, and
    # a live follower closes on them from behind; the ego is far back. The
    # front one stores 3 m/s, so the follower's acceleration shows which leads.
    env.ego.x = -2000.0
    _add(env, follower_x, 0.0, 20.0)
    env.add_traffic_vehicle(VehicleState(x=front_x, y=0.0, v=3.0, crashed=True))
    env.add_traffic_vehicle(VehicleState(x=1.0, y=0.0, v=0.0, crashed=True))


def _crashed_pair_ulp_apart(env):
    # The same pair one ulp apart: seen from the follower 1000 m back their
    # dx round alike, so the front one, of lower index, leads, though the
    # lane's x order puts the rear one first.
    _crashed_pair(env, front_x=float(np.nextafter(1.0, 2.0)), follower_x=-1000.0)


HIGHWAY_4 = RoadConfig(lane_count=4)
NARROW_4 = RoadConfig(lane_count=4, lane_width=1.5)  # lanes narrower than a vehicle


class TestKernelParity:
    """The decision-period kernel against the sub-step reference in
    tests/helpers.py: bitwise equal states, observations, rewards and info
    after every step, with random or rule-agent actions."""

    @pytest.mark.parametrize(
        "kwargs, setup, driver",
        [
            (dict(road=MERGE), None, "random"),
            (dict(road=HIGHWAY_4, n_traffic=20), None, "random"),
            (dict(road=MERGE, ghr=GhrParams(tau=0.5)), None, "random"),
            (
                dict(road=HIGHWAY_4, n_traffic=8, ghr=GhrParams(c=1.7, m=1.0, l=1.5, tau=0.3)),
                _tied,
                "random",
            ),
            (dict(road=HIGHWAY_4, n_traffic=10), _ulp_tie, "random"),
            (dict(road=RoadConfig(), n_traffic=12), _mid_lane, "random"),
            (dict(road=HIGHWAY_4, n_traffic=10), _ulp_tie_separating, "random"),
            (
                dict(road=HIGHWAY_4, n_traffic=10, ghr=GhrParams(tau=0.3)),
                _ulp_tie_closing,
                "random",
            ),
            # Long rule-driven episodes, most of whose sub-steps are certified.
            (dict(road=HIGHWAY_4, n_traffic=20), None, "rules"),
            # States a period certificate must not cover too far.
            (dict(road=HIGHWAY_4, n_traffic=8), _crashed_storing_speed, "random"),
            (dict(road=HIGHWAY_4, n_traffic=8), _ego_accelerating, "random"),
            (dict(road=NARROW_4, n_traffic=8), _wide_beside_traffic, "random"),
            # Certificates that carry a lateral mover.
            (dict(road=HIGHWAY_4, n_traffic=8), _ego_mid_change, "random"),
            (dict(road=HIGHWAY_4, n_traffic=8), _ego_reversing, "random"),
            (dict(road=HIGHWAY_4, n_traffic=8), _band_at_kth_substep, "random"),
            (dict(road=HIGHWAY_4, n_traffic=8), None, "zigzag"),
            (dict(road=HIGHWAY_4, n_traffic=0), _mover_touching, "random"),
            (dict(road=HIGHWAY_4, n_traffic=8), _traffic_at_negative_zero, "random"),
            (dict(road=MERGE), _ramp_end_ahead, "random"),
            (dict(road=HIGHWAY_4, n_traffic=8), _crashed_pair, "random"),
            (dict(road=HIGHWAY_4, n_traffic=8), _crashed_pair_ulp_apart, "random"),
        ],
        ids=[
            "merge",
            "highway4_20",
            "tau",
            "tied",
            "ulp_tie",
            "mid_lane",
            "ulp_tie_separating",
            "ulp_tie_closing",
            "rules_highway4_20",
            "crashed_storing_speed",
            "ego_accelerating",
            "wide_beside_traffic",
            "ego_mid_change",
            "ego_reversing",
            "band_at_kth_substep",
            "zigzag",
            "mover_touching",
            "traffic_at_negative_zero",
            "ramp_end_ahead",
            "crashed_pair",
            "crashed_pair_ulp_apart",
        ],
    )
    def test_matches_substep_reference(self, kwargs, setup, driver):
        rng = np.random.default_rng(31)
        crashed_episodes = 0
        lane_changes = 0
        for episode in range(8):
            env, ref = HighwayEnv(**kwargs), ReferenceHighwayEnv(**kwargs)
            observation = env.reset(episode)
            assert observation.tobytes() == ref.reset(episode).tobytes()
            if setup is not None:
                setup(env)
                setup(ref)
            agent = RuleAgent(lane_count=env.road.lane_count, lane_width=env.road.lane_width)
            assert env.ego_leader_gap() == ref.ego_leader_gap()
            while env.episode_active:
                if driver == "rules":
                    action = int(agent.act(observation))
                elif driver == "zigzag":  # every lane change reversed mid-way
                    action = (EgoAction.LANE_LEFT, EgoAction.LANE_RIGHT)[lane_changes % 2]
                else:
                    action = int(rng.integers(5))
                lane_changes += action in (EgoAction.LANE_LEFT, EgoAction.LANE_RIGHT)
                out = env.step(action)
                assert _state(env, out) == _state(ref, ref.step(action))
                observation = out.observation
            assert not ref.episode_active
            crashed_episodes += any(v.crashed for v in env.vehicles)
        assert crashed_episodes > 0 and lane_changes > 0

    @pytest.mark.parametrize("y_first, y_second", [(0.0, 0.0), (1.9, -1.9)])
    def test_ulp_tie_goes_to_lower_index(self, y_first, y_second):
        env = HighwayEnv(road=HIGHWAY_4, n_traffic=0)
        env.reset(0)
        env.ego.y = 0.0
        _ulp_tie(env, y_first, y_second)
        follower, first, second = env.traffic
        assert first.x - env.ego.x == second.x - env.ego.x
        vehicles = env.vehicles
        leaders = _leaders([v.x for v in vehicles], [v.y for v in vehicles], 0.5 * env.road.lane_width)
        assert leaders[:2] == [2, 2]
        assert env.ego_leader_gap() == first.x - env.ego.x - VEHICLE_LENGTH
        p = env.ghr
        assert ghr_acceleration(follower, first, p) != ghr_acceleration(follower, second, p)


def _crafted(kwargs, setup):
    env = ReferenceHighwayEnv(**kwargs)
    env.reset(0)
    setup(env)
    return env


class TestCraftedEdges:
    """Each crafted state of the parity test reaches the edge it was written for."""

    def test_tied(self):
        env = _crafted(dict(road=HIGHWAY_4, n_traffic=8), _tied)
        added = env.traffic[-4:]
        for a, b in (added[:2], added[2:]):
            assert a.x == b.x and abs(a.lane_target - b.lane_target) == 1

    def test_ulp_tie_closing(self):
        env = _crafted(dict(road=HIGHWAY_4, n_traffic=10, ghr=GhrParams(tau=0.3)), _ulp_tie_closing)
        follower, stopped, closing = env.traffic[-3:]
        lane_width = env.road.lane_width
        assert reference_leader_of(follower, env.vehicles, lane_width) is closing
        env._reference_substep()
        assert closing.x == np.nextafter(np.nextafter(1.0, 0.0), 0.0)
        assert stopped.x - follower.x == closing.x - follower.x
        assert reference_leader_of(follower, env.vehicles, lane_width) is stopped
        assert stopped.v != closing.v

    def test_wide_beside_traffic(self):
        env = _crafted(dict(road=NARROW_4, n_traffic=8), _wide_beside_traffic)
        overtaker, ahead = env.traffic[-2:]
        lane_width = env.road.lane_width
        assert lane_width < VEHICLE_WIDTH
        substeps = 0
        while not overtaker.crashed:
            assert reference_leader_of(overtaker, env.vehicles, lane_width) is not ahead
            assert reference_leader_of(ahead, env.vehicles, lane_width) is not overtaker
            env._reference_substep()
            substeps += 1
        assert substeps == 16 and ahead.crashed and overtaker.y - ahead.y == lane_width

    def test_mover_touching(self):
        env = _crafted(dict(road=HIGHWAY_4, n_traffic=0), _mover_touching)
        beside = env.traffic[-1]
        # The band the ego must watch changes at the first sub-step.
        assert _certificate_of(env) == (0, [-1, -1], [])
        env._reference_substep()
        assert env.ego.y - beside.y == VEHICLE_WIDTH and env.ego.x == beside.x
        assert env.ego.crashed and beside.crashed


def _reference_leaders(env):
    vehicles = env.vehicles
    index = {id(v): i for i, v in enumerate(vehicles)}
    leaders = [reference_leader_of(v, vehicles, env.road.lane_width) for v in vehicles]
    return [-1 if v is None else index[id(v)] for v in leaders]


def _random_static_state(rng, seed):
    """A reference env in a random state: lanes of several widths, in one
    state of ten narrower than a vehicle, speeds 0-40 m/s, crashed vehicles
    that store a speed, now and then a vehicle off its lane centre, and in
    half the states an ego anywhere in a lane change to a neighbouring lane."""
    lane_count = int(rng.integers(2, 6))
    narrow = rng.random() < 0.1
    lane_width = float(rng.uniform(1.2, VEHICLE_WIDTH) if narrow else rng.uniform(3.0, 4.5))
    scenario = "merge" if rng.random() < 0.25 else "highway"
    road = RoadConfig(lane_count=lane_count, lane_width=lane_width, scenario=scenario)
    ghr = GhrParams(tau=float(rng.choice([0.0, 0.3])))
    env = ReferenceHighwayEnv(road=road, n_traffic=0, ghr=ghr)
    env.reset(seed)
    lane = int(rng.integers(lane_count))
    env.ego.x = float(rng.uniform(0.0, 150.0))
    env.ego.y = lane * lane_width
    env.ego.lane_target = lane
    env.ego.v = float(rng.uniform(0.0, 40.0))
    env.ego.target_speed = float(rng.uniform(10.0, 30.0))
    if rng.random() < 0.5:
        target = lane + (1 if lane == 0 or (lane < lane_count - 1 and rng.random() < 0.5) else -1)
        env.ego.lane_target = target
        env.ego.y += (target - lane) * float(rng.uniform(0.0, lane_width))
    for _ in range(int(rng.integers(1, 16))):
        lane = int(rng.integers(lane_count))
        vehicle = VehicleState(
            x=float(rng.uniform(0.0, 150.0)),
            y=lane * lane_width,
            v=float(rng.uniform(0.0, 40.0)),
            lane_target=lane,
            crashed=bool(rng.random() < 0.15),
            target_speed=float(rng.uniform(0.0, 40.0)),
        )
        if rng.random() < 0.03:
            vehicle.y += float(rng.uniform(-1.5, 1.5))
        env.add_traffic_vehicle(vehicle)
    return env


def _certificate_of(env):
    vehicles = env.vehicles
    xs = [v.x for v in vehicles]
    return _certificate(
        _x_order(xs),
        xs,
        [v.y for v in vehicles],
        [v.v for v in vehicles],
        [v.crashed for v in vehicles],
        [env.road.lane_center(v.lane_target) for v in vehicles],
        0.5 * env.road.lane_width,
        SUBSTEPS,
    )


class TestCertificate:
    def test_certified_substeps_keep_leaders_and_bring_no_overlap(self):
        # Sub-steps the certificate proves, each while its watched pairs keep
        # their clearance, bring no overlap of a vehicle that can move and
        # keep every leader. Two crashed vehicles may overlap from the start.
        # Boxes that meet across a lane line are never proved; `across` counts
        # the states where they do so on lanes narrower than a vehicle.
        rng = np.random.default_rng(23)
        certified = longest = with_mover = watched = across = 0
        for trial in range(1500):
            env = _random_static_state(rng, trial)
            vehicles = env.vehicles
            mover = any(v.y != env.road.lane_center(v.lane_target) and not v.crashed for v in vehicles)
            k, leaders, watch = _certificate_of(env)
            if any(
                abs(a.x - b.x) <= VEHICLE_LENGTH and 0.0 < abs(a.y - b.y) <= VEHICLE_WIDTH
                for i, a in enumerate(vehicles)
                for b in vehicles[i + 1 :]
            ):
                assert leaders is None
                across += env.road.lane_width < VEHICLE_WIDTH
            if leaders is None:
                assert k == 0 and watch == []
                continue
            assert leaders == _reference_leaders(env)
            can_move = [not v.crashed for v in vehicles]
            proved = 0
            while proved < k:
                env._reference_substep()
                if any(not vehicles[i].x - vehicles[j].x > need for j, i, need in watch):
                    break
                proved += 1
                hits = reference_collisions(vehicles)
                assert not any(hit and free for hit, free in zip(hits, can_move))
                assert _reference_leaders(env) == leaders
            certified += proved > 0
            longest = max(longest, proved)
            watched += proved > 0 and bool(watch)
            with_mover += proved > 0 and mover
        assert certified >= 400 and longest == SUBSTEPS
        assert with_mover >= 180 and watched >= 200 and across >= 80

    def test_mover_within_half_a_lane_of_two_lanes_is_not_proved(self):
        # A crashed vehicle off its lane centre at y = 3.0 makes a lane 3 m
        # from lane 0; an ego slewing at y = 1.5 is within half a lane of both,
        # so either could hold its leader.
        env = HighwayEnv(road=HIGHWAY_4, n_traffic=0)
        env.reset(0)
        env.ego.y = 1.5
        env.ego.lane_target = 1
        _add(env, 40.0, 0.0, 25.0)
        env.add_traffic_vehicle(VehicleState(x=60.0, y=3.0, v=0.0, crashed=True, lane_target=1))
        assert _certificate_of(env) == (0, None, [])

    @pytest.mark.parametrize(
        "setup, proved", [(_crashed_pair, True), (_crashed_pair_ulp_apart, False)]
    )
    def test_crashed_pair_is_exempt_only_at_distinct_x(self, setup, proved):
        # An overlapping crashed pair no longer voids the proof, but one an
        # ulp apart does: there the lane's x order is not the leader rule's.
        # The follower's leader is the rear one, or the front one of lower
        # index, and the two store different speeds.
        env = HighwayEnv(road=HIGHWAY_4, n_traffic=0)
        env.reset(0)
        setup(env)
        _, front, rear = env.traffic
        assert collision_check([front, rear]).all() and front.x > rear.x and front.v != rear.v
        assert _reference_leaders(env)[1] == (3 if proved else 2)
        k, leaders, watch = _certificate_of(env)
        if proved:
            assert (k, watch) == (SUBSTEPS, []) and leaders == _reference_leaders(env)
        else:
            assert (k, leaders, watch) == (0, None, [])

    def test_band_change_ends_the_proof(self):
        # An ego slewing from lane 0 to lane 1 reaches y = 2.0, half a lane
        # from both centres, after five sub-steps: the proof covers four.
        env = HighwayEnv(road=HIGHWAY_4, n_traffic=0)
        env.reset(0)
        env.ego.y = 0.0
        env.ego.lane_target = 1
        _add(env, 30.0, 0.0, 25.0)
        _add(env, -30.0, 4.0, 25.0)
        k, leaders, watch = _certificate_of(env)
        assert (k, leaders, watch) == (4, [1, -1, -1], [])


def _equal_x_ahead(env):
    # Three vehicles at one x ahead of the ego: one in the next lane, one
    # within half a lane of the ego and one in its lane; the lower index of
    # the two within half a lane leads.
    env.ego.y = 4.0
    env.ego.lane_target = 1
    _add(env, 30.0, 8.0, 20.0)
    _add(env, 30.0, 5.9, 20.0)
    _add(env, 30.0, 4.0, 20.0)


def _half_a_lane_aside(env):
    # Vehicles exactly half a lane to either side do not lead; one just
    # inside half a lane, farther ahead, does.
    env.ego.y = 4.0
    env.ego.lane_target = 1
    _add(env, 20.0, 6.0, 20.0)
    _add(env, 25.0, 2.0, 20.0)
    _add(env, 40.0, float(np.nextafter(6.0, 0.0)), 20.0)


class TestLeaderRule:
    """`_leaders`, the search for the sub-steps no certificate covers, and
    `ego_leader_gap` against the reference scan in tests/helpers.py."""

    def test_matches_reference_on_random_states(self):
        # The states of the certificate test, the ones it refuses included.
        rng = np.random.default_rng(23)
        for trial in range(1500):
            env = _random_static_state(rng, trial)
            vehicles = env.vehicles
            xs = [v.x for v in vehicles]
            ys = [v.y for v in vehicles]
            assert _leaders(xs, ys, 0.5 * env.road.lane_width) == _reference_leaders(env)
            assert HighwayEnv.ego_leader_gap(env) == env.ego_leader_gap()

    @pytest.mark.parametrize(
        "setup, ego_leader",
        [(_equal_x_ahead, 2), (_ulp_tie, 2), (_half_a_lane_aside, 3), (_traffic_at_negative_zero, 1)],
        ids=["equal_x", "ulp_tie", "half_a_lane_aside", "negative_zero"],
    )
    def test_matches_reference_on_crafted_states(self, setup, ego_leader):
        env = HighwayEnv(road=HIGHWAY_4, n_traffic=0)
        ref = ReferenceHighwayEnv(road=HIGHWAY_4, n_traffic=0)
        for each in (env, ref):
            each.reset(0)
            each.ego.y = 0.0
            each.ego.lane_target = 0
            setup(each)
        vehicles = env.vehicles
        half = 0.5 * env.road.lane_width
        leaders = _leaders([v.x for v in vehicles], [v.y for v in vehicles], half)
        assert leaders == _reference_leaders(env) and leaders[0] == ego_leader
        gap = env.ego_leader_gap()
        assert gap is not None and gap == ref.ego_leader_gap()


def _work_per_decision(monkeypatch, road, n_traffic, driver):
    """Sweeps, leader searches and certificates per decision over 20
    episodes of the rule agent or of seeded random actions."""
    import highwaylab.env as env_module

    calls = {"_overlapping": 0, "_leaders": 0, "_certificate": 0}
    for name in calls:

        def counted(*args, _name=name, _inner=getattr(env_module, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(env_module, name, counted)
    env = HighwayEnv(road=road, n_traffic=n_traffic)
    agent = RuleAgent(lane_count=road.lane_count, lane_width=road.lane_width)
    rng = np.random.default_rng(5)
    decisions = 0
    for episode in range(20):
        observation = env.reset(episode)
        while env.episode_active:
            action = agent.act(observation) if driver == "rules" else int(rng.integers(5))
            observation = env.step(action).observation
            decisions += 1
    return tuple(calls[name] / decisions for name in calls)


# The bounds below are the measured counts rounded up, so an edit that loses a
# skip fails here though every output stays the same.


def test_work_per_decision_stays_low(monkeypatch):
    # The rule agent on the 4-lane, 20-vehicle highway. Measured over these
    # 695 decisions: 72 sweeps (0.104 per decision; 0.140 while overlapping
    # crashed pairs voided certificates, 1.624 when no certificate survived
    # a lane change or a tight pair, 11 with none), 7 leader searches (0.0101;
    # 0.046, 0.827 and 2.9) and 766 certificates (1.102; 1.128 and 2.486).
    sweeps, searches, certificates = _work_per_decision(monkeypatch, HIGHWAY_4, 20, "rules")
    assert sweeps <= 0.11 and searches <= 0.011 and certificates <= 1.11


def test_work_per_decision_stays_low_on_random_merge(monkeypatch):
    # Seeded random actions on the merge road, as in early PPO, so the ego
    # changes lanes in most decisions. Measured over these 699 decisions:
    # 227 sweeps (0.325; 0.348 while crashed pairs voided certificates, 3.050
    # before certificates carried lane changes), 15 leader searches (0.0215;
    # 0.044 and 2.612) and 923 certificates (1.320; 1.340 and 3.738).
    sweeps, searches, certificates = _work_per_decision(
        monkeypatch, MERGE, DEFAULT_N_TRAFFIC, "random"
    )
    assert sweeps <= 0.33 and searches <= 0.022 and certificates <= 1.33
