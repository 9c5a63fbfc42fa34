"""Seedable highway and on-ramp merge driving environment.

Vehicles on a straight multi-lane road, each a VEHICLE_LENGTH x
VEHICLE_WIDTH box (5 m x 2 m, highway-env's default car); no vehicle has
another size. Lane 0 is the leftmost lane and lane centers sit at
``lane_index * lane_width`` with y measured from the center of lane 0. The
ego vehicle is driven by discrete meta-actions (lane left/right, idle,
faster, slower); each decision covers 1.0 s simulated as ten 0.1 s Euler
sub-steps. Within a sub-step all accelerations are computed from the same
state snapshot, then every vehicle integrates:

    a   = clamp(K_P * (v_target - v), -A_MAX, A_MAX)   (ego, or leaderless traffic)
    v  <- clamp(v + a * dt, 0, V_LIMIT)
    x  <- x + v * dt
    y  <- y + clamp(y_lane_target - y, -LATERAL_RATE * dt, LATERAL_RATE * dt)

Traffic vehicles follow the Gazis-Herman-Rothery stimulus-response
car-following law toward their nearest same-lane leader and never change
lanes. In the merge scenario the highest-index lane is an on-ramp that ends
at ``merge_ramp_end_x``; a vehicle still targeting the ramp past that point
is forced to brake at -A_MAX. The road has no length, and the ego, whose lane
target is clamped to the lanes, never leaves it: an episode terminates only
when the ego collides.

Determinism contract: for a fixed (seed, road, action sequence) every float
in every vehicle state is bitwise reproducible across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .actions import EgoAction
from .errors import ConfigError, EnvStateError, EpisodeFinishedError, bound, check_bounds
from .reward import (
    EgoPeriodView,
    RewardBreakdown,
    RewardParams,
    RewardWeights,
    compute_reward,
)

DT = 0.1  # sub-step length, s
SUBSTEPS = 10  # sub-steps per decision period
DECISION_PERIOD = DT * SUBSTEPS  # s
K_P = 1.0  # speed tracking gain, 1/s
A_MAX = 5.0  # acceleration clamp, m/s^2
LATERAL_RATE = 4.0  # lane change slew rate, m/s
V_LIMIT = 40.0  # hard physical speed cap, m/s
TARGET_SPEED_STEP = 5.0  # Faster/Slower increment, m/s
TARGET_SPEED_MIN = 10.0
TARGET_SPEED_MAX = 30.0
EGO_SPAWN_SPEED = 25.0
TRAFFIC_SPEED_LOW = 20.0
TRAFFIC_SPEED_HIGH = 28.0
TRAFFIC_SPAWN_X_LOW = 30.0
TRAFFIC_SPAWN_X_HIGH = 200.0  # keeps first encounters early in the episode
MIN_SPAWN_GAP = 15.0  # bumper-to-bumper, m
VEHICLE_LENGTH = 5.0
_MIN_SPAWN_CENTRE_DIST = MIN_SPAWN_GAP + VEHICLE_LENGTH
VEHICLE_WIDTH = 2.0
DEFAULT_N_TRAFFIC = 6
DEFAULT_HORIZON = 40  # decision steps

OBS_RANGE_X = 100.0  # m
OBS_RANGE_Y = 12.0  # m
OBS_RANGE_V = 30.0  # m/s
K_NEAREST = 4
OBS_ROW = 5  # presence, x, y, vx, vy
OBS_DIM = (K_NEAREST + 1) * OBS_ROW

SCENARIO_HIGHWAY = "highway"
SCENARIO_MERGE = "merge"


@dataclass(frozen=True)
class RoadConfig:
    lane_count: int = bound(3, 2)
    lane_width: float = bound(4.0, 0, strict=True)
    scenario: str = SCENARIO_HIGHWAY
    merge_ramp_end_x: float = bound(300.0, 0, strict=True)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.scenario not in (SCENARIO_HIGHWAY, SCENARIO_MERGE):
            raise ValueError(f"unknown scenario {self.scenario!r}")

    @property
    def ramp_lane(self) -> int | None:
        """Index of the on-ramp lane (merge scenario only)."""
        return self.lane_count - 1 if self.scenario == SCENARIO_MERGE else None

    def lane_center(self, lane: int) -> float:
        return lane * self.lane_width


@dataclass(frozen=True)
class GhrParams:
    """Gazis-Herman-Rothery law a = c * v_f^m * (v_l - v_f) / gap^l."""

    c: float = bound(15.0, 0, strict=True)
    m: float = bound(0.0, 0)  # a stopped follower would divide by 0.0**m if m < 0
    l: float = bound(2.0, 0)

    def __post_init__(self) -> None:
        for name in ("c", "m", "l"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        check_bounds(self)


@dataclass
class VehicleState:
    x: float
    y: float
    v: float
    a: float = 0.0
    lane_target: int = 0
    crashed: bool = False
    target_speed: float = EGO_SPAWN_SPEED  # tracked without a leader; FASTER/SLOWER set the ego's


@dataclass(frozen=True)
class StepOutcome:
    observation: np.ndarray
    reward: RewardBreakdown
    terminated: bool
    truncated: bool
    info: dict


def _clamp(value: float, low: float, high: float) -> float:
    return low if value < low else high if value > high else value


def _bumper_gap(follower: VehicleState, leader: VehicleState) -> float:
    return leader.x - follower.x - VEHICLE_LENGTH


def ghr_acceleration(
    follower: VehicleState, leader: VehicleState | None, p: GhrParams
) -> float:
    """Commanded longitudinal acceleration for a following vehicle, in m/s^2.

    Without a leader the vehicle tracks its own target speed. A non-positive
    bumper gap means the pair is overlapping, which commands a full brake.
    The result is always clamped to [-A_MAX, A_MAX]. `HighwayEnv._run_period`
    spells out the same arithmetic inline.
    """
    if leader is None:
        accel = K_P * (follower.target_speed - follower.v)
    else:
        gap = _bumper_gap(follower, leader)
        if gap <= 0.0:
            return -A_MAX
        accel = p.c * follower.v**p.m * (leader.v - follower.v) / gap**p.l
    return _clamp(accel, -A_MAX, A_MAX)


def _x_order(xs: Sequence[float]) -> list[int]:
    """Vehicle indices sorted by x; the sort is stable, so ties keep index order."""
    return sorted(range(len(xs)), key=xs.__getitem__)


def _leader_of(i: int, xs: Sequence[float], ys: Sequence[float], half: float) -> int:
    """Index of vehicle i's leader, -1 where it has none: the vehicle with the
    smallest dx = xs[j] - xs[i] > 0 less than half a lane away laterally. The
    strict `dx < best` keeps the lowest index on equal (or equally rounded) dx."""
    xi = xs[i]
    yi = ys[i]
    leader = -1
    best = math.inf
    for j, x in enumerate(xs):
        dx = x - xi
        if 0.0 < dx < best and -half < ys[j] - yi < half:
            leader = j
            best = dx
    return leader


def _leaders(xs: Sequence[float], ys: Sequence[float], half: float) -> list[int]:
    """`_leader_of` every vehicle, in O(n^2): the sub-steps no certificate covers."""
    return [_leader_of(i, xs, ys, half) for i in range(len(xs))]


def _overlapping(order: Sequence[int], xs: Sequence[float], ys: Sequence[float]) -> list[bool]:
    """Sort-and-sweep box overlap along x; boxes that merely touch collide.

    `order` comes from `_x_order`. Two vehicles overlap when their centres
    are at most VEHICLE_LENGTH apart in x and VEHICLE_WIDTH in y, so each
    vehicle's scan stops at the first one more than VEHICLE_LENGTH ahead.
    """
    n = len(order)
    hit = [False] * n
    sorted_xs = [xs[i] for i in order]
    for pos in range(n - 1):
        xi = sorted_xs[pos]
        i = order[pos]
        yi = ys[i]
        for k in range(pos + 1, n):
            if sorted_xs[k] - xi > VEHICLE_LENGTH:  # |dx|, as the scan runs in x order
                break
            j = order[k]
            if abs(yi - ys[j]) <= VEHICLE_WIDTH:
                hit[i] = True
                hit[j] = True
    return hit


_SLEW = LATERAL_RATE * DT  # the most y moves in one sub-step


def _certificate(
    order: Sequence[int],
    xs: Sequence[float],
    ys: Sequence[float],
    vs: Sequence[float],
    crashed: Sequence[bool],
    target_ys: Sequence[float],
    half: float,
    steps: int,
) -> tuple[int, list[int] | None, list[tuple[int, int, float]]]:
    """Proof that the leaders hold and no boxes meet over the next sub-steps.

    Returns (k, leaders, watch): of the next `steps` (>= 1) sub-steps, the
    first k bring no overlap and keep every leader, as long as each watched
    pair (j, i, need) keeps xs[i] - xs[j] > need; (0, None, []) when not even
    the current leaders are proved. A kinetic-data-structure certificate
    (Basch, Guibas & Hershberger 1997) on a state that `order` sorts by x.
    P1: at most one vehicle that can move, the mover, is off its lane-target
    y. P2: the other ys, the lanes, lie more than `apart` (VEHICLE_WIDTH, and
    at least half a lane) apart. The mover, its y replayed with the kernel's
    slew, keeps until sub-step k the lanes within half a lane of it (at most
    one, where it leads and follows) and within `apart` (whose x order it
    joins). P3: each x-adjacent pair in a lane has a bumper clearance, its dx
    less VEHICLE_LENGTH, above a margin, and a pair that may close it within
    `steps`, by |dv| * DT * steps + A_MAX * DT^2 * steps(steps+1), is
    watched with need = VEHICLE_LENGTH + margin; a crashed vehicle's speed
    counts as 0 whatever it stores, and clamping speeds into [0, V_LIMIT]
    only brings them closer. Two crashed vehicles more than the margin apart
    in x are exempt, overlapping or not: neither moves again, and the lane's
    x order stays the leader rule's.
    """
    movers = [] if ys == target_ys else [
        i for i, y in enumerate(ys) if y != target_ys[i] and not crashed[i]
    ]
    if len(movers) > 1:
        return 0, None, []
    mover = movers[0] if movers else -1
    lane_ys = sorted(set(ys if mover < 0 else ys[:mover] + ys[mover + 1 :]))
    apart = max(VEHICLE_WIDTH, half)
    for y, next_y in zip(lane_ys, lane_ys[1:]):
        if not next_y - y > apart:  # written so that NaN fails too
            return 0, None, []
    k = steps
    if mover >= 0:

        def bands(y):
            return (
                [lane for lane in lane_ys if -half < lane - y < half],
                [lane for lane in lane_ys if -apart <= lane - y <= apart],
            )

        y, target_y = ys[mover], target_ys[mover]
        leads_in, near = start = bands(y)
        if len(leads_in) > 1:
            return 0, None, []
        for s in range(steps):
            dy = target_y - y
            y += -_SLEW if dy < -_SLEW else _SLEW if dy > _SLEW else dy
            if bands(y) != start:
                k = s
                break
    # Far above the rounding of ten sub-steps, and no two dx can round alike.
    margin = 1e-6 + 1e-12 * max(xs[order[-1]], -xs[order[0]])
    leader = [-1] * len(order)
    behind: dict[float, int] = {}
    first: dict[float, int] = {}
    pairs = []
    for i in order:
        if i == mover:
            seen = dict(behind)
            continue
        y = ys[i]
        j = behind.get(y)
        behind[y] = i
        if j is None:
            first[y] = i
        else:
            leader[j] = i
            pairs.append((j, i))
    if mover >= 0:
        for y in near:  # the mover joins the x order of each lane near it
            j = seen.get(y, -1)
            ahead = leader[j] if j >= 0 else first.get(y, -1)
            pairs += [pair for pair in ((j, mover), (mover, ahead)) if min(pair) >= 0]
            if y in leads_in:
                leader[mover] = ahead
                if j >= 0:
                    leader[j] = mover
    if any(crashed):
        vs = [0.0 if stopped else v for v, stopped in zip(vs, crashed)]
    span = DT * steps
    # Accelerations alone move each speed by at most A_MAX * DT a sub-step.
    reserve = A_MAX * DT * DT * steps * (steps + 1) + margin
    need = VEHICLE_LENGTH + margin
    watch = []
    for j, i in pairs:
        if crashed[i] and crashed[j] and xs[i] - xs[j] > margin:
            continue
        clearance = xs[i] - xs[j] - VEHICLE_LENGTH
        dv = vs[i] - vs[j]
        if not clearance > abs(dv) * span + reserve:
            if not (clearance > margin and dv == dv):
                return 0, None, []
            watch.append((j, i, need))
    return k, leader, watch


def collision_check(vehicles: Sequence[VehicleState]) -> np.ndarray:
    """Pairwise axis-aligned box overlap; boxes that merely touch collide.

    Returns one boolean per vehicle. Symmetric by construction; the caller
    is responsible for folding the result into sticky `crashed` flags.
    Sort-and-sweep along x: O(n log n) plus the pairs within one vehicle
    length of each other.
    """
    xs = [v.x for v in vehicles]
    return np.array(_overlapping(_x_order(xs), xs, [v.y for v in vehicles]), dtype=bool)


def _lateral_velocity(vehicle: VehicleState, lane_width: float) -> float:
    dy = vehicle.lane_target * lane_width - vehicle.y
    if abs(dy) < 1e-12:
        return 0.0
    return math.copysign(LATERAL_RATE, dy)


def encode_observation(
    ego: VehicleState,
    traffic: Sequence[VehicleState],
    lane_width: float = 4.0,
) -> np.ndarray:
    """Fixed 25-float observation: ego row plus the 4 nearest vehicles.

    Row layout is [presence, x, y, vx, vy]. The ego row carries its own
    kinematics; neighbor rows are relative to the ego. Neighbors are ranked
    by |x - x_ego| with ties broken by lower index, and rows appear in that
    order. Everything is normalized by (100 m, 12 m, 30 m/s) and clamped to
    [-1, 1]; missing neighbor rows are all zero.
    """
    ex, ey, ev = ego.x, ego.y, ego.v
    ego_vy = _lateral_velocity(ego, lane_width)
    values = [1.0, ex / OBS_RANGE_X, ey / OBS_RANGE_Y, ev / OBS_RANGE_V, ego_vy / OBS_RANGE_V]
    distance = [abs(other.x - ex) for other in traffic]
    # A stable sort, so equal distances keep index order.
    for i in sorted(range(len(traffic)), key=distance.__getitem__)[:K_NEAREST]:
        other = traffic[i]
        values += (
            1.0,
            (other.x - ex) / OBS_RANGE_X,
            (other.y - ey) / OBS_RANGE_Y,
            (other.v - ev) / OBS_RANGE_V,
            (_lateral_velocity(other, lane_width) - ego_vy) / OBS_RANGE_V,
        )
    values += [0.0] * (OBS_DIM - len(values))
    # Clamped as np.clip does it: values inside [-1, 1], -0.0 included, pass.
    return np.array(
        [-1.0 if f < -1.0 else 1.0 if f > 1.0 else f for f in values], dtype=np.float64
    )


class HighwayEnv:
    """One independent, single-threaded simulation instance."""

    def __init__(
        self,
        road: RoadConfig | None = None,
        ghr: GhrParams | None = None,
        weights: RewardWeights | None = None,
        reward_params: RewardParams | None = None,
        n_traffic: int = DEFAULT_N_TRAFFIC,
        horizon: int = DEFAULT_HORIZON,
    ):
        if n_traffic < 0:
            raise ValueError("n_traffic must be >= 0")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        self.road = road if road is not None else RoadConfig()
        self.ghr = ghr if ghr is not None else GhrParams()
        self.weights = weights if weights is not None else RewardWeights()
        self.reward_params = reward_params if reward_params is not None else RewardParams()
        self.n_traffic = n_traffic
        self.horizon = horizon

        self._ego: VehicleState | None = None
        self._traffic: list[VehicleState] = []
        self._steps = 0
        self._active = False

    # -- state access -------------------------------------------------------

    @property
    def ego(self) -> VehicleState:
        if self._ego is None:
            raise EnvStateError("environment has not been reset")
        return self._ego

    @property
    def traffic(self) -> list[VehicleState]:
        return self._traffic

    @property
    def vehicles(self) -> list[VehicleState]:
        return [self.ego, *self._traffic]

    @property
    def sim_time(self) -> float:
        return self._steps * SUBSTEPS * DT

    @property
    def episode_active(self) -> bool:
        return self._active

    def ego_lane(self) -> int:
        lane = int(round(self.ego.y / self.road.lane_width))
        return max(0, min(self.road.lane_count - 1, lane))

    def ego_leader_gap(self) -> float | None:
        """Bumper gap to the ego's current leader, None when unconstrained."""
        vehicles = self.vehicles
        half = 0.5 * self.road.lane_width
        leader = _leader_of(0, [v.x for v in vehicles], [v.y for v in vehicles], half)
        if leader < 0:
            return None
        gap = _bumper_gap(vehicles[0], vehicles[leader])
        return gap if gap > 0.0 else None

    # -- episode control ----------------------------------------------------

    def reset(self, seed: int) -> np.ndarray:
        """Spawn a fresh episode; identical (seed, road) gives identical state.

        The ego starts at x = 0 at 25 m/s: in the ramp lane for the merge
        scenario, otherwise in a seeded lane. Traffic spawns ahead of the ego
        in the through lanes at seeded non-overlapping positions with speeds
        uniform in [20, 28] m/s; each vehicle tracks its spawn speed when
        unconstrained. Draw order (ego lane, then per vehicle lane/x until the
        spacing fits, then speed) is part of the determinism contract.
        """
        rng = np.random.default_rng(seed)
        ramp = self.road.ramp_lane

        if ramp is not None:
            ego_lane = ramp
        else:
            ego_lane = int(rng.integers(self.road.lane_count))
        self._ego = VehicleState(
            x=0.0,
            y=self.road.lane_center(ego_lane),
            v=EGO_SPAWN_SPEED,
            lane_target=ego_lane,
            target_speed=EGO_SPAWN_SPEED,
        )

        through_lanes = self.road.lane_count - (ramp is not None)  # the ramp is the last lane
        half_lane = 0.5 * self.road.lane_width
        self._traffic = []
        for _ in range(self.n_traffic):
            for _attempt in range(1000):
                lane = int(rng.integers(through_lanes))
                x = float(rng.uniform(TRAFFIC_SPAWN_X_LOW, TRAFFIC_SPAWN_X_HIGH))
                y = self.road.lane_center(lane)
                if self._spawn_fits(x, y, half_lane):
                    break
            else:
                raise ConfigError(
                    f"could not place n_traffic = {self.n_traffic} vehicles without "
                    f"overlap: traffic spawns in {through_lanes} of "
                    f"{self.road.lane_count} lanes, x in "
                    f"[{TRAFFIC_SPAWN_X_LOW:g}, {TRAFFIC_SPAWN_X_HIGH:g}] m, centres at least "
                    f"{_MIN_SPAWN_CENTRE_DIST:g} m apart in a lane"
                )
            v = float(rng.uniform(TRAFFIC_SPEED_LOW, TRAFFIC_SPEED_HIGH))
            self._traffic.append(
                VehicleState(x=x, y=y, v=v, lane_target=lane, target_speed=v)
            )

        self._steps = 0
        self._active = True
        return encode_observation(self._ego, self._traffic, self.road.lane_width)

    def add_traffic_vehicle(self, vehicle: VehicleState) -> None:
        """Insert an extra traffic vehicle into the running episode.

        Meant for constructing specific situations in demos and tests; normal
        episodes get their traffic from reset().
        """
        if self._ego is None:
            raise EnvStateError("environment has not been reset")
        self._traffic.append(vehicle)

    def _spawn_fits(self, x: float, y: float, half_lane: float) -> bool:
        """No vehicle placed yet, the ego included, is this close in both y and x."""
        ego = self._ego
        if abs(ego.y - y) < half_lane and abs(ego.x - x) < _MIN_SPAWN_CENTRE_DIST:
            return False
        for other in self._traffic:
            if abs(other.y - y) < half_lane and abs(other.x - x) < _MIN_SPAWN_CENTRE_DIST:
                return False
        return True

    def step(self, action: EgoAction | int) -> StepOutcome:
        """Apply one meta-action and advance a full decision period."""
        if self._ego is None:
            raise EnvStateError("environment has not been reset")
        if not self._active:
            raise EpisodeFinishedError(
                "episode already finished; call reset() before stepping again"
            )
        action = EgoAction(action)
        ego = self._ego
        prev_view = EgoPeriodView(
            speed=ego.v, lane_target=ego.lane_target, crashed=ego.crashed
        )

        if action == EgoAction.FASTER:
            ego.target_speed = _clamp(
                ego.target_speed + TARGET_SPEED_STEP,
                TARGET_SPEED_MIN,
                TARGET_SPEED_MAX,
            )
        elif action == EgoAction.SLOWER:
            ego.target_speed = _clamp(
                ego.target_speed - TARGET_SPEED_STEP,
                TARGET_SPEED_MIN,
                TARGET_SPEED_MAX,
            )
        elif action == EgoAction.LANE_LEFT:
            if ego.lane_target > 0:
                ego.lane_target -= 1
        elif action == EgoAction.LANE_RIGHT:
            if ego.lane_target < self.road.lane_count - 1:
                ego.lane_target += 1

        abs_accel_sum = self._run_period()

        self._steps += 1
        terminated = ego.crashed
        truncated = (not terminated) and self._steps >= self.horizon
        if terminated or truncated:
            self._active = False

        next_view = EgoPeriodView(
            speed=ego.v,
            lane_target=ego.lane_target,
            crashed=ego.crashed,
            leader_gap=None if ego.crashed else self.ego_leader_gap(),
            mean_abs_accel=abs_accel_sum / SUBSTEPS,
        )
        breakdown = compute_reward(
            prev_view, action, next_view, self.weights, self.reward_params
        )
        info = {
            "ego_speed": ego.v,
            "ego_lane": self.ego_lane(),
            "crashed": ego.crashed,
            "sim_time": self.sim_time,
        }
        return StepOutcome(
            observation=encode_observation(ego, self._traffic, self.road.lane_width),
            reward=breakdown,
            terminated=terminated,
            truncated=truncated,
            info=info,
        )

    # -- integration --------------------------------------------------------

    def _run_period(self) -> float:
        """Advance all vehicles by the SUBSTEPS sub-steps of one decision period.

        State is read from the VehicleState objects into lists once, stepped
        there, and written back at the end. Returns the sum of |ego a| over
        the sub-steps. Each window of sub-steps flattens the leaders that a
        `_certificate` (or a leader search) gives into a plan in x order. A
        sub-step is one pass over it that computes each acceleration and
        integrates it: a leader is strictly ahead, so it moves only after its
        followers have read it, as if every acceleration came from one
        snapshot. The sub-step after the proved ones ends the window, and
        overlaps then fold into sticky crashes.
        """
        ego = self._ego
        assert ego is not None
        vehicles = [ego, *self._traffic]
        n = len(vehicles)
        lane_width = self.road.lane_width
        target_ys = [v.lane_target * lane_width for v in vehicles]  # lane centres
        crashed = [v.crashed for v in vehicles]
        xs = [v.x for v in vehicles]
        # A vehicle that can move and sits on its lane centre is not slewed:
        # the slew would add 0.0, which only turns -0.0 into 0.0, done here.
        ys = [v.y if v.crashed or v.y != y else y for v, y in zip(vehicles, target_ys)]
        vs = [v.v for v in vehicles]
        accs = [0.0 if v.crashed else v.a for v in vehicles]
        target_speeds = [v.target_speed for v in vehicles]

        road = self.road
        half = 0.5 * lane_width
        ramp = road.ramp_lane
        ramp_end = road.merge_ramp_end_x
        on_ramp = [False] * n if ramp is None else [v.lane_target == ramp for v in vehicles]
        c, m, l = self.ghr.c, self.ghr.m, self.ghr.l

        brake = -A_MAX
        length = VEHICLE_LENGTH
        abs_accel_sum = 0.0
        order = _x_order(xs)
        step = 0
        while step < SUBSTEPS:
            k, leaders, watch = _certificate(order, xs, ys, vs, crashed, target_ys, half, SUBSTEPS - step)
            if leaders is None:
                leaders = _leaders(xs, ys, half)
            leaders[0] = -1  # the ego tracks its target speed whatever leads it
            plan = [
                (i, j, target_speeds[i], on_ramp[i])
                for i, j in zip(order, map(leaders.__getitem__, order))
                if not crashed[i]
            ]
            slewing = [] if ys == target_ys else [
                (i, target_ys[i]) for i in order if ys[i] != target_ys[i] and not crashed[i]
            ]
            while True:
                for i, j, target_speed, ramp_i in plan:
                    v = vs[i]
                    x = xs[i]
                    if ramp_i and x >= ramp_end:
                        a = brake
                    else:
                        if j < 0:  # no leader: track the target speed
                            a = K_P * (target_speed - v)
                        else:  # the GHR law; a full brake when the bumpers meet
                            gap = xs[j] - x - length
                            # v**0.0 is 1.0 and c * 1.0 is c for every float.
                            a = brake if gap <= 0.0 else (c * v**m if m else c) * (vs[j] - v) / gap**l
                        a = brake if a < brake else A_MAX if a > A_MAX else a
                    accs[i] = a
                    v += a * DT
                    v = 0.0 if v < 0.0 else V_LIMIT if v > V_LIMIT else v
                    vs[i] = v
                    xs[i] = x + v * DT
                for i, y in slewing:
                    dy = y - ys[i]
                    ys[i] += -_SLEW if dy < -_SLEW else _SLEW if dy > _SLEW else dy
                step += 1
                k -= 1
                proved = k >= 0
                for j, i, need in watch:
                    if not xs[i] - xs[j] > need:
                        proved = False
                        break
                if not proved:
                    # Fold overlaps into sticky crashes. The x order found here
                    # also serves the next window, since crashes move nothing.
                    order = _x_order(xs)
                    hit = _overlapping(order, xs, ys)
                    if any(hit):
                        for i in range(n):
                            if hit[i] and not crashed[i]:
                                crashed[i] = True
                                vs[i] = 0.0
                                accs[i] = 0.0
                abs_accel_sum += abs(accs[0])
                if not proved or step == SUBSTEPS:
                    break

        for vehicle, x, y, v, a, stopped in zip(vehicles, xs, ys, vs, accs, crashed):
            vehicle.x = x
            vehicle.y = y
            vehicle.v = v
            vehicle.a = a
            vehicle.crashed = stopped
        return abs_accel_sum
