"""Discrete-time planar aircraft kinematics and intruder scenario trees.

The plant is the forward-Euler unicycle: position advances along the current
heading, heading advances by the angular rate.  Intruder uncertainty is
enumerated as a tree of control sequences branching over
{upper rate, lower rate, nominal rate} for the first few stages (the robust
horizon) and following the nominal rates, which `mpc` picks per mode, after.

`step` advances one pose; `_rollout` integrates many rate sequences at
once as cumulative sums over arrays, by the same floating-point operations
in the same order, so a tree's trajectories equal repeated `step`s over its
rates bit for bit.  `build_scenario_tree` rolls out every scenario with it,
and `scenario_reach` only the nominal one, around which it bounds where any
scenario of the tree can be at each stage without building the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dubins import Pose

BRANCH_UPPER = 0
BRANCH_LOWER = 1
BRANCH_NOMINAL = 2
BRANCH_COUNT = 3  # every robust stage branches over {upper, lower, nominal}


@dataclass(frozen=True)
class ControlInput:
    """Linear speed and angular rate applied over one step."""

    speed: float
    angular_rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and math.isfinite(self.angular_rate)):
            raise ValueError(f"control input must be finite, got {(self.speed, self.angular_rate)}")


@dataclass(frozen=True)
class ControlBounds:
    """Box bounds on speed and angular rate."""

    v_min: float
    v_max: float
    u_min: float
    u_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.v_min <= self.v_max:
            raise ValueError(f"need 0 < v_min <= v_max, got [{self.v_min}, {self.v_max}]")
        if not self.u_min <= self.u_max:
            raise ValueError(f"need u_min <= u_max, got [{self.u_min}, {self.u_max}]")

    def clamp(self, inp: ControlInput) -> ControlInput:
        return ControlInput(
            speed=min(max(inp.speed, self.v_min), self.v_max),
            angular_rate=min(max(inp.angular_rate, self.u_min), self.u_max),
        )


@dataclass(frozen=True, eq=False)
class ScenarioTree:
    """All intruder control sequences and their predicted trajectories, as arrays.

    With M = 3**robust_horizon (0 in unconstrained mode) and N the horizon:

    * `rates` (M, N): angular rate of scenario j-1 at stage k;
    * `trajectories` (M, N+1, 3): (x, y, heading) of scenario j-1 at stage
      k, with stage 0 the intruder's current pose.

    The first axis of both arrays is the scenario, so `len(tree.rates)` and
    `len(tree.trajectories)` count scenarios.  Row j-1 of `trajectories`
    equals `step` repeated with `ControlInput(v_max, u)` over `rates[j-1]`
    bit for bit, v_max the intruder's maximum speed.  Scenarios sharing a
    branch prefix share the rate prefix, so non-anticipativity holds by
    construction.
    """

    rates: np.ndarray
    trajectories: np.ndarray


def step(state: Pose, inp: ControlInput, dt: float) -> Pose:
    """One forward-Euler update; heading is left unwrapped."""
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    return Pose(
        x=state.x + dt * inp.speed * math.cos(state.heading),
        y=state.y + dt * inp.speed * math.sin(state.heading),
        heading=state.heading + dt * inp.angular_rate,
    )


def branch_table(robust_horizon: int, horizon: int) -> np.ndarray:
    """Branches of every scenario at every stage, (3**robust_horizon, horizon) integers.

    Row j-1 holds the branch of scenario j at stages k = 0..N-1: the base-3
    digits of j-1, most significant first, then nominal past the robust
    horizon.
    """
    table = np.full((BRANCH_COUNT**robust_horizon, horizon), BRANCH_NOMINAL)
    powers = BRANCH_COUNT ** np.arange(robust_horizon - 1, -1, -1)
    table[:, :robust_horizon] = np.arange(len(table))[:, None] // powers % BRANCH_COUNT
    return table


def _rollout(start: Pose, rates: np.ndarray, reach: float, dt: float) -> np.ndarray:
    """`step` repeated from `start` over each row of rates (M, N) with dt * speed = reach,
    as (x, y, heading) planes (3, M, N+1).

    Each stage adds one increment to the previous sum, as `step` does, so the
    sums round exactly as the sequential ones; `start + cumsum(inc)` would
    round differently.
    """
    n = rates.shape[1]
    planes = np.empty((3, len(rates), n + 1))
    xy, heading = planes[:2], planes[2]
    heading[:, 0] = start.heading
    np.multiply(dt, rates, out=heading[:, 1:])
    np.add.accumulate(heading, axis=1, out=heading)
    xy[:, :, 0] = ((start.x,), (start.y,))
    np.cos(heading[:, :n], out=xy[0, :, 1:])
    np.sin(heading[:, :n], out=xy[1, :, 1:])
    np.multiply(reach, xy[:, :, 1:], out=xy[:, :, 1:])  # step's operation order: (dt * v) * cos(heading)
    np.add.accumulate(xy, axis=2, out=xy)
    return planes


def build_scenario_tree(
    intruder_now: Pose, nominal_rates: np.typing.ArrayLike, robust_horizon: int, bounds: ControlBounds, dt: float
) -> ScenarioTree:
    """Enumerate intruder futures rooted at its current pose.

    The horizon is `len(nominal_rates)`.  Each of the first `robust_horizon`
    stages branches over upper rate / lower rate / nominal rate, giving
    3**robust_horizon scenarios; later stages follow the nominal rates.
    Speed is pinned at the intruder's maximum everywhere.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    nominal = np.asarray(nominal_rates, dtype=float)
    if nominal.ndim != 1 or len(nominal) == 0:
        raise ValueError("a scenario tree needs a horizon of at least one step")
    n = len(nominal)
    if not 0 <= robust_horizon <= n:
        raise ValueError(f"need 0 <= robust_horizon <= horizon, got {robust_horizon}, {n}")
    rates = np.choose(branch_table(robust_horizon, n), (bounds.u_max, bounds.u_min, nominal))
    if not np.isfinite(rates).all():
        raise ValueError("intruder rates must be finite; check the nominal rates and bounds")

    trajectories = _rollout(intruder_now, rates, dt * bounds.v_max, dt).transpose(1, 2, 0)
    if not np.isfinite(trajectories).all():
        raise ValueError("scenario tree states must be finite")
    rates.flags.writeable = False
    trajectories.flags.writeable = False
    return ScenarioTree(rates=rates, trajectories=trajectories)


def scenario_reach(
    intruder_now: Pose, nominal_rates: np.typing.ArrayLike, robust_horizon: int, bounds: ControlBounds, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Discs holding every scenario of a tree without building it: (centres (N+1, 2), radii (N+1,)).

    Contract: every trajectory of `build_scenario_tree` with the same
    arguments lies within `radii[k]` of `centres[k]` at stage k, up to
    rounding.  `centres` is the tree's all-nominal scenario, by the same
    `_rollout`.  A scenario's heading at stage i differs from the nominal
    one by at most
    dsigma_i = dt * sum_{l < min(i, N_r)} max(u_max - nom_l, nom_l - u_min),
    so its step i lies within dt * v * min(dsigma_i, 2) of the nominal step
    (the chord between two headings is at most the arc and the diameter),
    and radii[k] sums those over i < k.
    """
    nominal = np.asarray(nominal_rates, dtype=float)
    n = len(nominal)
    reach = dt * bounds.v_max
    xy = _rollout(intruder_now, nominal[None], reach, dt)[:2, 0]

    spread = np.zeros(n)  # dt * the largest |rate - nominal| of any branch, zero past the robust horizon
    robust = nominal[:robust_horizon]
    np.maximum(bounds.u_max - robust, robust - bounds.u_min, out=spread[:robust_horizon])
    spread *= dt
    radii = np.zeros(n + 1)
    np.add.accumulate(spread[:-1], out=radii[2:])  # radii[1:] = dsigma_0..dsigma_{N-1}
    np.minimum(radii, 2.0, out=radii)
    radii *= reach
    np.add.accumulate(radii, out=radii)
    return xy.T, radii


def separation(a: Pose, b: Pose) -> float:
    """Horizontal distance between two poses."""
    return math.hypot(a.x - b.x, a.y - b.y)
