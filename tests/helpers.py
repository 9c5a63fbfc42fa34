"""Shared independent oracles for the test suite.

Everything here is deliberately written as plain loops, separate from the
library implementations it checks.
"""

import math

import numpy as np

from highwaylab.env import (
    A_MAX,
    DT,
    K_NEAREST,
    K_P,
    LATERAL_RATE,
    OBS_RANGE_V,
    OBS_RANGE_X,
    OBS_RANGE_Y,
    OBS_ROW,
    SUBSTEPS,
    V_LIMIT,
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    HighwayEnv,
)


def gae_double_sum(rewards, values, next_values, terminated, episode_end, gamma, lam):
    """Advantage oracle: A_t = sum_l (gamma * lam)^l * delta_{t+l} over the
    episode segment containing t, with delta from the stored next values."""
    n = len(rewards)
    deltas = np.empty(n)
    for t in range(n):
        bootstrap = 0.0 if terminated[t] else next_values[t]
        deltas[t] = rewards[t] + gamma * bootstrap - values[t]
    advantages = np.zeros(n)
    for t in range(n):
        acc = 0.0
        weight = 1.0
        l = t
        while True:
            acc += weight * deltas[l]
            if episode_end[l]:
                break
            weight *= gamma * lam
            l += 1
        advantages[t] = acc
    return advantages


class ChainMdp:
    """Deterministic 5-state chain: RIGHT walks toward the terminal state
    (reward 1 on arrival), LEFT walks away. One-hot observations."""

    LEFT = 0
    RIGHT = 1

    def __init__(self, n_states=5):
        self.n_states = n_states
        self.terminal = n_states - 1

    def step(self, state, action):
        nxt = min(state + 1, self.terminal) if action == self.RIGHT else max(state - 1, 0)
        reward = 1.0 if nxt == self.terminal else 0.0
        return nxt, reward, nxt == self.terminal

    def one_hot(self, state):
        v = np.zeros(self.n_states)
        v[state] = 1.0
        return v

    def value_iteration(self, gamma, sweeps=500):
        q = np.zeros((self.n_states, 2))
        for _ in range(sweeps):
            new = np.zeros_like(q)
            for s in range(self.terminal):
                for a in (self.LEFT, self.RIGHT):
                    nxt, r, done = self.step(s, a)
                    new[s, a] = r + (0.0 if done else gamma * q[nxt].max())
            q = new
        return q


# ---------------------------------------------------------------------------
# Simulator reference: one decision period as ten plain sub-step passes, each
# with an O(n^2) leader scan per vehicle and an all-pairs collision test.
# ---------------------------------------------------------------------------


def _reference_clamp(value, low, high):
    return low if value < low else high if value > high else value


def reference_leader_of(subject, others, lane_width):
    """Nearest vehicle strictly ahead and within half a lane laterally;
    the first (lowest-index) of equally near ones."""
    best = None
    best_dx = math.inf
    half = 0.5 * lane_width
    for other in others:
        if other is subject:
            continue
        dx = other.x - subject.x
        if dx <= 0.0 or abs(other.y - subject.y) >= half:
            continue
        if dx < best_dx:
            best = other
            best_dx = dx
    return best


def reference_collisions(vehicles):
    """All-pairs box overlap flags; boxes that merely touch collide."""
    n = len(vehicles)
    hit = [False] * n
    for i in range(n):
        vi = vehicles[i]
        for j in range(i + 1, n):
            vj = vehicles[j]
            if abs(vi.x - vj.x) <= VEHICLE_LENGTH and abs(vi.y - vj.y) <= VEHICLE_WIDTH:
                hit[i] = True
                hit[j] = True
    return hit


def _reference_bumper_gap(follower, leader):
    return leader.x - follower.x - VEHICLE_LENGTH


class ReferenceHighwayEnv(HighwayEnv):
    """HighwayEnv whose decision period runs sub-step by sub-step on the
    VehicleState objects, with the scans above; everything else is shared."""

    def ego_leader_gap(self):
        leader = reference_leader_of(self.ego, self._traffic, self.road.lane_width)
        if leader is None:
            return None
        gap = _reference_bumper_gap(self.ego, leader)
        return gap if gap > 0.0 else None

    def _run_period(self):
        abs_accel_sum = 0.0
        for _ in range(SUBSTEPS):
            self._reference_substep()
            abs_accel_sum += abs(self._ego.a)
        return abs_accel_sum

    def _forced_ramp_brake(self, vehicle):
        ramp = self.road.ramp_lane
        return (
            ramp is not None
            and vehicle.lane_target == ramp
            and vehicle.x >= self.road.merge_ramp_end_x
        )

    def _speed_tracking(self, v, v_target):
        return _reference_clamp(K_P * (v_target - v), -A_MAX, A_MAX)

    def _ghr(self, follower, leader):
        if leader is None:
            return self._speed_tracking(follower.v, follower.target_speed)
        gap = _reference_bumper_gap(follower, leader)
        if gap <= 0.0:
            return -A_MAX
        p = self.ghr
        accel = p.c * follower.v**p.m * (leader.v - follower.v) / gap**p.l
        return _reference_clamp(accel, -A_MAX, A_MAX)

    def _reference_substep(self):
        ego = self._ego
        everyone = [ego, *self._traffic]

        # Phase 1: accelerations from a synchronous state snapshot.
        if ego.crashed:
            ego.a = 0.0
        elif self._forced_ramp_brake(ego):
            ego.a = -A_MAX
        else:
            ego.a = self._speed_tracking(ego.v, ego.target_speed)

        for idx, vehicle in enumerate(self._traffic):
            if vehicle.crashed:
                vehicle.a = 0.0
                continue
            if self._forced_ramp_brake(vehicle):
                vehicle.a = -A_MAX
                continue
            leader = reference_leader_of(vehicle, everyone, self.road.lane_width)
            command = self._ghr(vehicle, leader)
            if self._delay_substeps > 0:
                queue = self._delay_queues[idx]
                delayed = queue[0]
                queue.append(command)
                command = delayed
            vehicle.a = command

        # Phase 2: integrate every non-crashed vehicle.
        for vehicle in everyone:
            if vehicle.crashed:
                continue
            vehicle.v = _reference_clamp(vehicle.v + vehicle.a * DT, 0.0, V_LIMIT)
            vehicle.x += vehicle.v * DT
            target_y = self.road.lane_center(vehicle.lane_target)
            dy = _reference_clamp(
                target_y - vehicle.y, -LATERAL_RATE * DT, LATERAL_RATE * DT
            )
            vehicle.y += dy

        hit = reference_collisions(everyone)
        for vehicle, flag in zip(everyone, hit):
            if flag and not vehicle.crashed:
                vehicle.crashed = True
                vehicle.v = 0.0
                vehicle.a = 0.0

        low, high = self.road.y_bounds
        if not self._off_road and not (low <= ego.y <= high):
            self._off_road = True
        self._substeps += 1


# ---------------------------------------------------------------------------
# Observation reference: the encoding filled row by row into a numpy array,
# and the rule agent's decoding of it through numpy scalars.
# ---------------------------------------------------------------------------


def _reference_lateral_velocity(vehicle, lane_width):
    dy = vehicle.lane_target * lane_width - vehicle.y
    if abs(dy) < 1e-12:
        return 0.0
    return math.copysign(LATERAL_RATE, dy)


def reference_encode_observation(ego, traffic, lane_width=4.0):
    """25 floats: the ego row, then the 4 vehicles nearest in |dx| (lower
    index first on a tie) relative to the ego, normalised and np.clip-ed."""
    obs = np.zeros((K_NEAREST + 1, OBS_ROW), dtype=np.float64)
    ego_vy = _reference_lateral_velocity(ego, lane_width)
    obs[0] = (
        1.0,
        ego.x / OBS_RANGE_X,
        ego.y / OBS_RANGE_Y,
        ego.v / OBS_RANGE_V,
        ego_vy / OBS_RANGE_V,
    )
    ranked = sorted(range(len(traffic)), key=lambda i: (abs(traffic[i].x - ego.x), i))
    for row, i in enumerate(ranked[:K_NEAREST], start=1):
        other = traffic[i]
        obs[row] = (
            1.0,
            (other.x - ego.x) / OBS_RANGE_X,
            (other.y - ego.y) / OBS_RANGE_Y,
            (other.v - ego.v) / OBS_RANGE_V,
            (_reference_lateral_velocity(other, lane_width) - ego_vy) / OBS_RANGE_V,
        )
    np.clip(obs, -1.0, 1.0, out=obs)
    return obs.reshape(-1)


def reference_decode(observation, lane_width):
    """(ego y, ego v, [(x_rel, lane, v_rel) per present neighbour row])."""
    rows = np.asarray(observation, dtype=np.float64).reshape(K_NEAREST + 1, OBS_ROW)
    ego_y = rows[0, 2] * OBS_RANGE_Y
    ego_v = rows[0, 3] * OBS_RANGE_V
    neighbors = []
    for row in rows[1:]:
        if row[0] != 1.0:
            continue
        y_abs = ego_y + row[2] * OBS_RANGE_Y
        neighbors.append(
            (row[1] * OBS_RANGE_X, int(round(y_abs / lane_width)), row[3] * OBS_RANGE_V)
        )
    return ego_y, ego_v, neighbors
