"""Receding-horizon transcription of the intent-aware avoidance problem.

The ownship's controls over the horizon are the only decision variables
(single shooting): states are eliminated by rolling the Euler model forward,
so the NLP has box bounds on controls plus one separation inequality per
intruder scenario and stage.  Four controller modes share the transcription
and differ only in how the intruder is predicted:

* scenario-tree: branch over {upper, lower, nominal} intruder rates for the
  robust horizon (the robust controller);
* classic: single nominal-schedule prediction;
* no-intent: single straight-line prediction (nominal rates zeroed);
* unconstrained: no separation constraints at all (nominal-path baseline).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .dubins import ControlSchedule, Pose
from .dynamics import ControlBounds, ControlInput, ScenarioTree, TreeShape, build_scenario_tree
from .solver import NlpProblem, SolverConfig, SolverResult, solve

TWO_PI = 2.0 * math.pi


def wrap_angles(angles: np.ndarray) -> np.ndarray:
    """Elementwise reduction to (-pi, pi]."""
    w = np.asarray(angles, dtype=float) % TWO_PI
    return np.where(w > math.pi, w - TWO_PI, w)


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


# Position-dominant tracking with terminal heading alignment; tunable per
# scenario, not a claim about any reference data.
DEFAULT_WEIGHTS = MpcWeights((0.01, 0.01, 0.0), (1.0, 1.0, 10.0), 100.0)


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
        if not 0 <= self.robust_horizon <= self.horizon:
            raise ValueError(f"need 0 <= robust_horizon <= horizon, got {self.robust_horizon}, {self.horizon}")
        if self.mode is not MpcMode.UNCONSTRAINED and not self.min_separation > 0.0:
            raise ValueError("min_separation must be positive in constrained modes")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")


@dataclass
class MpcSolution:
    first_input: ControlInput
    solver: SolverResult
    controls: np.ndarray  # optimal decision vector, kept for warm starting


class _Rollout(NamedTuple):
    """What the callables read at one decision vector z."""

    errors: np.ndarray  # (N+1, 3) tracking errors in (x, y, wrapped heading)
    du: np.ndarray  # (N-1,) rate changes
    cos_s: np.ndarray  # (N,) cos/sin of the headings at stages 0..N-1
    sin_s: np.ndarray
    a: np.ndarray  # (N+1,) a[k] = sum_{i<k} v_i sin(sigma_i)
    b: np.ndarray  # (N+1,) b[k] = sum_{i<k} v_i cos(sigma_i)
    dx: np.ndarray | None  # (M, N+1) ownship minus intruder position per scenario and stage;
    dy: np.ndarray | None  # None in unconstrained mode


class _SingleShooting:
    """The NLP callables of one instance, reading one rollout record per z.

    Decision vector layout: z = (u_0..u_{N-1}, v_0..v_{N-1}).  Closed forms
    follow from the Euler model being a double cumulative sum: headings are
    cumsums of rates, positions are cumsums of heading-projected speeds.
    The record of the last distinct z (keyed by its bytes) holds everything
    the objective, its gradient, the separation constraints, their dense
    Jacobian and J^T w need, so the solver's calls at one z share one
    rollout.
    """

    def __init__(self, own_now: Pose, tree: ScenarioTree, config: MpcConfig):
        self.n = config.horizon
        self.dt = config.dt
        self.start = own_now
        self.target = config.target
        self.weights = config.weights
        # Intruder positions per scenario and stage, fixed for this instance.
        self.intr_x = self.intr_y = None
        if config.mode is not MpcMode.UNCONSTRAINED:
            self.intr_x, self.intr_y = tree.states[:, :, 0], tree.states[:, :, 1]
        self.rho_sq = config.min_separation**2
        self._key: bytes | None = None
        self._rec: _Rollout | None = None

    def _record(self, z: np.ndarray) -> _Rollout:
        key = z.tobytes()
        if key == self._key:
            return self._rec  # type: ignore[return-value]
        n, dt, start = self.n, self.dt, self.start
        u, v = z[:n], z[n:]
        sigma = np.empty(n + 1)
        sigma[0] = start.heading
        sigma[1:] = start.heading + dt * np.cumsum(u)
        cos_s, sin_s = np.cos(sigma[:n]), np.sin(sigma[:n])
        a = np.concatenate(([0.0], np.cumsum(v * sin_s)))
        b = np.concatenate(([0.0], np.cumsum(v * cos_s)))
        x = np.concatenate(([start.x], start.x + dt * b[1:]))
        y = np.concatenate(([start.y], start.y + dt * a[1:]))
        errors = np.column_stack((x - self.target.x, y - self.target.y, wrap_angles(sigma - self.target.heading)))
        dx = dy = None
        if self.intr_x is not None:
            dx, dy = x[None, :] - self.intr_x, y[None, :] - self.intr_y
        self._key = key
        self._rec = _Rollout(errors, np.diff(u), cos_s, sin_s, a, b, dx, dy)
        return self._rec

    def _pullback(self, rec: _Rollout, lam: np.ndarray) -> np.ndarray:
        """Pull a per-stage state gradient lam (N+1, 3) back to the controls.

        Uses the cumulative-sum structure: the sensitivity of x_k to u_j is
        -dt^2 * sum_{j<i<k} v_i sin(sigma_i), and similarly for y with +cos.
        """
        dt, a, b = self.dt, rec.a, rec.b

        def suffix(arr: np.ndarray) -> np.ndarray:
            # suffix[j] = sum over stages k > j (j = 0..N-1)
            return np.cumsum(arr[::-1])[::-1][1:]

        lx, ly, ls = lam[:, 0], lam[:, 1], lam[:, 2]
        sx1, sy1, ss1 = suffix(lx), suffix(ly), suffix(ls)
        sxa, syb = suffix(lx * a), suffix(ly * b)

        gu = -dt * dt * (sxa - a[1:] * sx1) + dt * dt * (syb - b[1:] * sy1) + dt * ss1
        gv = dt * (rec.cos_s * sx1 + rec.sin_s * sy1)
        return np.concatenate((gu, gv))

    def objective(self, z: np.ndarray) -> float:
        n, rec = self.n, self._record(z)
        e = rec.errors
        q, qf, r = self.weights.state_weight, self.weights.terminal_weight, self.weights.rate_smoothing
        stage = float(np.einsum("ki,i,ki->", e[:n], q, e[:n]))
        terminal = float(np.dot(e[n] * qf, e[n]))
        return stage + terminal + r * float(np.dot(rec.du, rec.du))

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        n, rec = self.n, self._record(z)
        e = rec.errors
        q, qf, r = self.weights.state_weight, self.weights.terminal_weight, self.weights.rate_smoothing
        lam = np.empty((n + 1, 3))
        lam[:n] = 2.0 * e[:n] * q
        lam[n] = 2.0 * e[n] * qf
        g = self._pullback(rec, lam)
        g[: n - 1] -= 2.0 * r * rec.du
        g[1:n] += 2.0 * r * rec.du
        return g

    def constraints(self, z: np.ndarray) -> np.ndarray:
        rec = self._record(z)
        return (self.rho_sq - rec.dx**2 - rec.dy**2).ravel()

    def constraints_weighted_grad(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """J^T w without forming J: aggregate the weights into one per-stage
        position gradient, then pull it back through the rollout."""
        rec = self._record(z)
        w2 = w.reshape(rec.dx.shape)
        lam = np.zeros((self.n + 1, 3))
        lam[:, 0] = -2.0 * np.einsum("jk,jk->k", w2, rec.dx)
        lam[:, 1] = -2.0 * np.einsum("jk,jk->k", w2, rec.dy)
        return self._pullback(rec, lam)

    def constraints_jac(self, z: np.ndarray) -> np.ndarray:
        """Dense Jacobian, the oracle for check_gradient; the solver uses J^T w."""
        n, dt, rec = self.n, self.dt, self._record(z)
        a, b = rec.a, rec.b
        # Position Jacobians over stages 0..N, each (N+1, 2N).
        later = np.arange(n)[None, :] < np.arange(n + 1)[:, None]  # [k, j] = (j < k)
        jx = np.empty((n + 1, 2 * n))
        jy = np.empty((n + 1, 2 * n))
        jx[:, :n] = -dt * dt * (a[:, None] - a[None, 1:]) * later
        jx[:, n:] = dt * rec.cos_s[None, :] * later
        jy[:, :n] = dt * dt * (b[:, None] - b[None, 1:]) * later
        jy[:, n:] = dt * rec.sin_s[None, :] * later
        jac = -2.0 * (rec.dx[:, :, None] * jx[None, :, :] + rec.dy[:, :, None] * jy[None, :, :])
        return jac.reshape(-1, 2 * n)


def _prediction_tree(intruder_now: Pose, t: int, intent_schedule: ControlSchedule, config: MpcConfig) -> ScenarioTree:
    if config.mode is MpcMode.SCENARIO_TREE:
        shape = TreeShape(robust_horizon=config.robust_horizon, horizon=config.horizon)
        schedule = intent_schedule
    else:
        # Single-scenario prediction; no-intent replaces the schedule with an
        # empty one, which reads as all-zero rates (straight-line intruder).
        shape = TreeShape(robust_horizon=0, horizon=config.horizon)
        if config.mode is MpcMode.NO_INTENT:
            schedule = ControlSchedule(speed=intent_schedule.speed, dt=intent_schedule.dt, angular_rates=())
        else:
            schedule = intent_schedule
    return build_scenario_tree(intruder_now, schedule, t, config.intruder_bounds, shape, config.dt)


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
    tree = _prediction_tree(intruder_now, t, intent_schedule, config)
    shoot = _SingleShooting(own_now, tree, config)

    ob = config.own_bounds
    lower = np.concatenate((np.full(n, ob.u_min), np.full(n, ob.v_min)))
    upper = np.concatenate((np.full(n, ob.u_max), np.full(n, ob.v_max)))
    constrained = config.mode is not MpcMode.UNCONSTRAINED
    problem = NlpProblem(
        dimension=2 * n,
        objective=shoot.objective,
        objective_grad=shoot.objective_grad,
        lower=lower,
        upper=upper,
        constraints=shoot.constraints if constrained else None,
        constraints_jac=shoot.constraints_jac if constrained else None,
        constraints_weighted_grad=shoot.constraints_weighted_grad if constrained else None,
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
) -> MpcSolution:
    """Solve one receding-horizon instance and package the applied action."""
    problem, _ = build_problem(own_now, intruder_now, t, intent_schedule, config)
    z0 = shift_warm_start(warm.controls, config.horizon) if warm is not None else cold_start(config)
    result = solve(problem, z0, config.solver)

    z = result.z_star
    n = config.horizon
    first = config.own_bounds.clamp(ControlInput(speed=float(z[n]), angular_rate=float(z[0])))
    return MpcSolution(first_input=first, solver=result, controls=z)

