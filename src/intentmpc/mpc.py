"""Receding-horizon transcription of the intent-aware avoidance problem.

The ownship's controls over the horizon are the only decision variables
(single shooting): states are eliminated by rolling the Euler model forward,
so the NLP has box bounds on controls plus one separation inequality per
intruder scenario and stage.  Four controller modes share the transcription
and differ only in how the intruder is predicted, and `_prediction` is the
one place where a mode becomes a prediction:

* scenario-tree: branch over {upper, lower, nominal} intruder rates for the
  robust horizon (the robust controller);
* classic: single nominal-schedule prediction;
* no-intent: single straight-line prediction (nominal rates zeroed);
* unconstrained: no scenario, so no separation row (nominal-path baseline).

`solve_step` screens first: a step where no separation row can be
nonnegative anywhere in the control box (`_rows_can_bind`) is solved in
unconstrained mode, without the tree or its rows.  On the full problem every
augmented-Lagrangian weight would stay zero there (the value is f + 0.0, no
J^T w is added, the multipliers stay zero), so the result is the same bit for
bit.  `build_problem` is always the full transcription of the configured mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dubins import TWO_PI, ControlSchedule, Pose
from .dynamics import ControlBounds, ControlInput, ScenarioTree, build_scenario_tree, scenario_reach
from .solver import NlpProblem, SolverConfig, SolverResult, solve

# The screen's allowance for rounding, relative to the numbers compared and in metres.
SCREEN_MARGIN_REL = 1e-9
SCREEN_MARGIN_M = 1e-6


def wrap_angles(angles: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise reduction of an angle array to (-pi, pi], written to `out` if given."""
    w = np.remainder(angles, TWO_PI, out=out)
    np.subtract(w, TWO_PI, out=w, where=w > math.pi)
    return w


class MpcMode(Enum):
    SCENARIO_TREE = "scenario-tree"
    CLASSIC = "classic"
    NO_INTENT = "no-intent"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class MpcWeights:
    """Quadratic tracking weights: the diagonals of the stage and terminal
    weights over (x, y, heading) error, and a scalar penalty on
    angular-rate changes.

    Every entry must be finite; the stage diagonal is nonnegative, the
    terminal diagonal and the smoothing weight are positive.
    """

    state_weight: np.ndarray
    terminal_weight: np.ndarray
    rate_smoothing: float

    def __post_init__(self) -> None:
        q = np.asarray(self.state_weight, dtype=float)
        qf = np.asarray(self.terminal_weight, dtype=float)
        for name, d in (("state_weight", q), ("terminal_weight", qf)):
            if d.shape != (3,):
                raise ValueError(f"{name} must hold three diagonal entries")
            if not np.isfinite(d).all():
                raise ValueError(f"{name} must be finite")
        if np.any(q < 0.0):
            raise ValueError("state_weight must be nonnegative")
        if np.any(qf <= 0.0):
            raise ValueError("terminal_weight must be positive")
        if not (math.isfinite(self.rate_smoothing) and self.rate_smoothing > 0.0):
            raise ValueError("rate_smoothing must be finite and positive")
        object.__setattr__(self, "state_weight", q)
        object.__setattr__(self, "terminal_weight", qf)


@dataclass(frozen=True)
class MpcConfig:
    horizon: int
    robust_horizon: int
    dt: float
    min_separation: float
    weights: MpcWeights
    own_bounds: ControlBounds
    intruder_bounds: ControlBounds
    mode: MpcMode
    target: Pose
    solver: SolverConfig = SolverConfig()

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1, got {self.horizon}")
        if not 0 <= self.robust_horizon <= self.horizon:
            raise ValueError(f"robust_horizon must lie in [0, horizon = {self.horizon}], got {self.robust_horizon}")
        if self.mode is not MpcMode.UNCONSTRAINED and not self.min_separation > 0.0:
            raise ValueError("min_separation must be positive in constrained modes")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


@dataclass
class MpcSolution:
    first_input: ControlInput
    solver: SolverResult


class _Rollout(NamedTuple):
    """What the callables read at one decision vector z; no callable returns any of it."""

    errors: np.ndarray  # (N+1, 3) tracking errors in (x, y, wrapped heading)
    du: np.ndarray  # (N-1,) rate changes
    cs: np.ndarray  # (2, N) rows cos, sin of the headings at stages 0..N-1
    ab: np.ndarray  # (2, N+1) rows a[k] = sum_{i<k} v_i sin(sigma_i), b[k] = sum_{i<k} v_i cos(sigma_i)
    d: np.ndarray  # (2, M, N+1) ownship minus intruder (x, y) per scenario and stage; M = 0 if unconstrained


class _SingleShooting:
    """The NLP callables of one instance, reading one rollout record per z.

    Decision vector layout: z = (u_0..u_{N-1}, v_0..v_{N-1}).  Closed forms
    follow from the Euler model being a double cumulative sum: headings are
    cumsums of rates, positions are cumsums of heading-projected speeds.
    The record of the last distinct z (keyed by its bytes) holds everything
    the objective, its gradient, the separation constraints and J^T w need,
    so the solver's calls at one z share one rollout.  Per-stage quantities
    that share an operation (cos|sin, a|b, the x|y offsets, the pullback's
    five suffix sums) are rows of one block that one numpy call computes,
    each entry by the same float operations in the same order as alone.
    """

    def __init__(self, own_now: Pose, tree: ScenarioTree, config: MpcConfig):
        self.n = config.horizon
        self.dt = config.dt
        self.start_xy, self.start_heading = np.array([[own_now.x], [own_now.y]]), own_now.heading
        self.target_xy, self.target_heading = np.array([[config.target.x], [config.target.y]]), config.target.heading
        self.weights = config.weights
        # Diagonal weight per stage (the last column terminal), and the scales
        # of the rate gradient's terms: dt*ss1, (-dt*dt)*(x term), dt*dt*(y term).
        self.stage_weights = np.array((config.weights.state_weight, config.weights.terminal_weight)).T.repeat((self.n, 1), axis=1)
        self.gu_scale = np.array([[self.dt], [-self.dt * self.dt], [self.dt * self.dt]])
        # Intruder (x, y) per scenario and stage, one (2, M, N+1) block.
        self.intr = tree.trajectories[..., :2].transpose(2, 0, 1).copy()
        self.rho_sq = config.min_separation**2
        self._key: bytes | None = None
        self._rec: _Rollout | None = None

    def _record(self, z: np.ndarray) -> _Rollout:
        key = z.tobytes()
        if key == self._key:
            return self._rec  # type: ignore[return-value]
        n, dt, h0 = self.n, self.dt, self.start_heading
        u, v = z[:n], z[n:]
        sigma = np.empty(n + 1)
        sigma[0] = h0
        heading = np.add.accumulate(u, out=sigma[1:])
        heading *= dt
        heading += h0
        trig = np.empty((2, n))  # rows cos, sin
        np.cos(sigma[:n], out=trig[0])
        np.sin(sigma[:n], out=trig[1])
        ba = np.zeros((2, n + 1))  # rows b, a
        np.add.accumulate(v * trig, axis=1, out=ba[:, 1:])
        err = np.empty((3, n + 1))  # rows x, y, heading; positions until the target is subtracted
        pos = np.multiply(ba, dt, out=err[:2])
        pos += self.start_xy
        pos[:, :1] = self.start_xy  # stage 0 is the start itself, not 0*dt + start
        d = pos[:, None, :] - self.intr
        pos -= self.target_xy
        wrap_angles(np.subtract(sigma, self.target_heading, out=err[2]), out=err[2])
        self._key = key
        self._rec = _Rollout(err.T.copy(), u[1:] - u[:-1], trig, ba[::-1], d)
        return self._rec

    def _pullback(self, rec: _Rollout, lam: np.ndarray) -> np.ndarray:
        """Pull a per-stage state gradient lam[:3] back to the controls; lam is (5, N+1), rows 3:5 scratch.

        Uses the cumulative-sum structure: the sensitivity of x_k to u_j is
        -dt^2 * sum_{j<i<k} v_i sin(sigma_i), and similarly for y with +cos.
        """
        n, ab = self.n, rec.ab
        np.multiply(lam[:2], ab, out=lam[3:])
        # Suffix sums over stages k > j (j = 0..N-1) of lx, ly, ls, lx*a, ly*b.
        suf = np.add.accumulate(lam[:, ::-1], axis=1)[:, ::-1][:, 1:]
        suf[3:] -= ab[:, 1:] * suf[:2]
        suf[2:] *= self.gu_scale
        g = np.empty(2 * n)
        np.add(suf[3], suf[4], out=g[:n])
        g[:n] += suf[2]
        t = rec.cs * suf[:2]
        np.add(t[0], t[1], out=g[n:])
        g[n:] *= self.dt
        return g

    def objective(self, z: np.ndarray) -> float:
        n, rec = self.n, self._record(z)
        e = rec.errors
        q, qf, r = self.weights.state_weight, self.weights.terminal_weight, self.weights.rate_smoothing
        stage = float(np.einsum("ki,i,ki->", e[:n], q, e[:n]))
        terminal = float(np.dot(e[n] * qf, e[n]))
        return stage + terminal + r * float(np.dot(rec.du, rec.du))

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        n, rec = self.n, self._record(z)
        lam = np.empty((5, n + 1))
        np.multiply(rec.errors.T, 2.0, out=lam[:3])
        lam[:3] *= self.stage_weights
        g = self._pullback(rec, lam)
        rdu = 2.0 * self.weights.rate_smoothing * rec.du
        g[: n - 1] -= rdu
        g[1:n] += rdu
        return g

    def constraints(self, z: np.ndarray) -> np.ndarray:
        sq = self._record(z).d ** 2
        return (self.rho_sq - sq[0] - sq[1]).ravel()

    def constraints_weighted_grad(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """J^T w without forming J: aggregate the weights into one per-stage
        position gradient, then pull it back through the rollout."""
        rec = self._record(z)
        dx, dy = rec.d
        w2 = w.reshape(dx.shape)
        lam = np.zeros((5, self.n + 1))
        np.multiply(-2.0, np.einsum("jk,jk->k", w2, dx), out=lam[0])
        np.multiply(-2.0, np.einsum("jk,jk->k", w2, dy), out=lam[1])
        return self._pullback(rec, lam)


def _prediction(t: int, intent_schedule: ControlSchedule, config: MpcConfig) -> tuple[np.ndarray, int]:
    """Nominal intruder rates over the horizon from absolute step t, and the
    robust horizon, of a constrained mode; the schedule reads as zero past its end."""
    nominal = np.zeros(config.horizon)
    if config.mode is not MpcMode.NO_INTENT:
        rates = intent_schedule.angular_rates[t : t + config.horizon]
        nominal[: len(rates)] = rates
    return nominal, config.robust_horizon if config.mode is MpcMode.SCENARIO_TREE else 0


def _rows_can_bind(own_now: Pose, intruder_now: Pose, t: int, intent_schedule: ControlSchedule, config: MpcConfig) -> bool:
    """Whether some separation row of the configured prediction can be nonnegative anywhere in the control box.

    At stage k the ownship is within dt * v_max * k of its start and every
    scenario within `scenario_reach`'s radius of the nominal rollout; rows
    are kept unless those discs stay rho plus a rounding margin apart at
    every stage, stage 0 included.  A non-finite distance keeps them.
    """
    nominal, robust_horizon = _prediction(t, intent_schedule, config)
    intruder_bounds, n, dt = config.intruder_bounds, config.horizon, config.dt
    centres, radii = scenario_reach(intruder_now, nominal, robust_horizon, intruder_bounds, dt)
    own_reach = dt * config.own_bounds.v_max
    gap = np.hypot(centres[:, 0] - own_now.x, centres[:, 1] - own_now.y)
    gap -= radii
    gap -= own_reach * np.arange(n + 1)
    # Every coordinate and distance compared is at most `size` in magnitude.
    size = abs(own_now.x) + abs(own_now.y) + abs(intruder_now.x) + abs(intruder_now.y)
    size += config.min_separation + n * (own_reach + 3.0 * dt * intruder_bounds.v_max)
    return not gap.min() > config.min_separation + SCREEN_MARGIN_REL * size + SCREEN_MARGIN_M


def build_problem(
    own_now: Pose,
    intruder_now: Pose,
    t: int,
    intent_schedule: ControlSchedule,
    config: MpcConfig,
) -> tuple[NlpProblem, ScenarioTree]:
    """Transcribe one receding-horizon instance at absolute step t."""
    if t < 0:
        raise ValueError(f"absolute step must be >= 0, got {t}")
    n = config.horizon
    if config.mode is MpcMode.UNCONSTRAINED:
        tree = ScenarioTree(rates=np.empty((0, n)), trajectories=np.empty((0, n + 1, 3)))
    else:
        tree = build_scenario_tree(intruder_now, *_prediction(t, intent_schedule, config), config.intruder_bounds, config.dt)
    shoot = _SingleShooting(own_now, tree, config)

    ob = config.own_bounds
    lower = np.concatenate((np.full(n, ob.u_min), np.full(n, ob.v_min)))
    upper = np.concatenate((np.full(n, ob.u_max), np.full(n, ob.v_max)))
    problem = NlpProblem(
        objective=shoot.objective,
        objective_grad=shoot.objective_grad,
        lower=lower,
        upper=upper,
        constraints=shoot.constraints,
        constraints_weighted_grad=shoot.constraints_weighted_grad,
    )
    return problem, tree


def cold_start(config: MpcConfig) -> np.ndarray:
    n = config.horizon
    return np.concatenate((np.zeros(n), np.full(n, config.own_bounds.v_max)))


def shift_warm_start(previous: np.ndarray, horizon: int) -> np.ndarray:
    """Drop stage 0 and duplicate the final stage for both control channels."""
    u, v = previous[:horizon], previous[horizon:]
    return np.concatenate((u[1:], u[-1:], v[1:], v[-1:]))


def solve_step(
    own_now: Pose,
    intruder_now: Pose,
    t: int,
    intent_schedule: ControlSchedule,
    config: MpcConfig,
    warm: MpcSolution | None = None,
    memo: dict[bytes, MpcSolution] | None = None,
    screened_only: bool = False,
) -> MpcSolution | None:
    """Solve one receding-horizon instance, without its rows where none can bind, and package the applied action.

    A step solved without rows reads only the ownship pose, the warm start
    and `config`, so `memo`, which must serve one config, keys it by the
    bytes of the pose and z0: the step is served from the memo, or solved and
    stored there.  A step whose rows can bind never touches the memo; under
    `screened_only` it is not solved and None is returned.
    """
    rows = config.mode is not MpcMode.UNCONSTRAINED and _rows_can_bind(own_now, intruder_now, t, intent_schedule, config)
    if rows and screened_only:
        return None
    z0 = shift_warm_start(warm.solver.z_star, config.horizon) if warm is not None else cold_start(config)
    key = None
    if not rows:
        config = replace(config, mode=MpcMode.UNCONSTRAINED)
        if memo is not None:
            key = np.array((own_now.x, own_now.y, own_now.heading)).tobytes() + z0.tobytes()
            if key in memo:
                return memo[key]
    problem, _ = build_problem(own_now, intruder_now, t, intent_schedule, config)
    result = solve(problem, z0, config.solver)
    # z_star is projected onto the box, which is the ownship's control bounds.
    z, n = result.z_star, config.horizon
    sol = MpcSolution(first_input=ControlInput(speed=float(z[n]), angular_rate=float(z[0])), solver=result)
    if key is not None:
        memo[key] = sol
    return sol
