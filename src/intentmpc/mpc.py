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

import numpy as np

from .dubins import TWO_PI, ControlSchedule, Pose
from .dynamics import ControlBounds, ControlInput, ScenarioTree, build_scenario_tree, scenario_reach
from .solver import NlpProblem, SolverConfig, SolverResult, solve

# The screen's allowance for rounding, relative to the numbers compared and in metres.
SCREEN_MARGIN_REL = 1e-9
SCREEN_MARGIN_M = 1e-6


def wrap_angles(angles: np.ndarray, out: np.ndarray | None = None, mask: np.ndarray | None = None) -> np.ndarray:
    """Elementwise reduction of an angle array to (-pi, pi], written to `out` if given.

    `mask`, if given, is a boolean array of the same shape that the comparison with pi is written to.
    """
    w = np.remainder(angles, TWO_PI, out=out)
    np.subtract(w, TWO_PI, out=w, where=np.greater(w, math.pi, out=mask))
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
        if not math.isfinite(self.min_separation):
            raise ValueError("min_separation must be finite")
        if self.mode is not MpcMode.UNCONSTRAINED and not self.min_separation > 0.0:
            raise ValueError("min_separation must be positive in constrained modes")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be finite and positive")


@dataclass
class MpcSolution:
    first_input: ControlInput
    solver: SolverResult


class _SingleShooting:
    """The NLP callables of one instance, reading one workspace filled once per z.

    Decision vector layout: z = (u_0..u_{N-1}, v_0..v_{N-1}).  Closed forms
    follow from the Euler model being a double cumulative sum: headings are
    cumsums of rates, positions are cumsums of heading-projected speeds.

    `__init__` allocates the whole evaluation workspace once, with every view
    an evaluation reads: headings, cos|sin, b|a, tracking errors, rate
    changes, ownship-minus-intruder offsets and their squares, one costate
    block for the objective and one for J^T w, and the pullback's suffix
    sums.  `_record` fills it at the last distinct z (keyed by its bytes), so
    the solver's calls at one z share one rollout.  Per evaluation nothing is
    allocated or sliced but z's own slices and the arrays a callable returns
    (g, c, J^T w), which are fresh, so a caller may keep or overwrite them.
    Per-stage quantities that share an operation (cos|sin, a|b, the x|y
    offsets, the pullback's five suffix sums) are rows of one block that one
    numpy call computes, each entry by the same float operations in the same
    order as alone.
    """

    def __init__(self, own_now: Pose, tree: ScenarioTree, config: MpcConfig):
        n = self.n = config.horizon
        self.dt = config.dt
        self.start_xy, self.start_heading = np.array([[own_now.x], [own_now.y]]), own_now.heading
        self.target_xy, self.target_heading = np.array([[config.target.x], [config.target.y]]), config.target.heading
        self.q, self.qf, self.r = config.weights.state_weight, config.weights.terminal_weight, config.weights.rate_smoothing
        self.two_r = 2.0 * self.r
        # Diagonal weight per stage (the last column terminal), and the scales
        # of the rate gradient's terms: dt*ss1, (-dt*dt)*(x term), dt*dt*(y term).
        self.stage_weights = np.array((self.q, self.qf)).T.repeat((n, 1), axis=1)
        self.gu_scale = np.array([[self.dt], [-self.dt * self.dt], [self.dt * self.dt]])
        # Intruder (x, y) per scenario and stage, one (2, M, N+1) block.
        self.intr = tree.trajectories[..., :2].transpose(2, 0, 1).copy()
        self.rows = self.intr.shape[1]
        self.rho_sq = config.min_separation**2
        self._key: bytes | None = None

        # Headings at stages 0..N (stage 0 the start's), and cos|sin at 0..N-1.
        self._sigma = np.empty(n + 1)
        self._sigma[0] = own_now.heading
        self._heading, self._sigma_head = self._sigma[1:], self._sigma[:n]
        self._trig = np.empty((2, n))
        self._cos, self._sin = self._trig
        self._vtrig = np.empty((2, n))
        # Rows b[k] = sum_{i<k} v_i cos(sigma_i), a[k] = sum_{i<k} v_i sin(sigma_i); column 0 stays zero.
        self._ba = np.zeros((2, n + 1))
        self._ba_tail, self._ab = self._ba[:, 1:], self._ba[::-1]
        self._ab_tail = self._ab[:, 1:]
        # Rows x, y, heading of the tracking errors; positions until the target is subtracted.
        self._err = np.empty((3, n + 1))
        self._pos, self._pos_start, self._heading_err = self._err[:2], self._err[:2, :1], self._err[2]
        self._pos_per_row = self._pos[:, None, :]
        self._wrap = np.empty(n + 1, dtype=bool)
        # The C-ordered (N+1, 3) copy the objective reads: its einsum sums in this order.
        self._errors = np.empty((n + 1, 3))
        self._errors_by_row = self._errors.T
        self._e_stage, self._e_term = self._errors[:n], self._errors[n]
        self._e_term_q = np.empty(3)
        self._du, self._rdu = np.empty(n - 1), np.empty(n - 1)
        # Ownship minus intruder (x, y) per scenario and stage, and their squares, flat per axis.
        self._d = np.empty((2, self.rows, n + 1))
        self._dx, self._dy = self._d
        self._sq = np.empty(self._d.shape)
        self._sq_x, self._sq_y = self._sq.reshape(2, -1)
        # Costates (5, N+1): rows x, y, heading, then the pullback's scratch.
        # J^T w's heading row stays zero.
        lam_obj, lam_jtw = np.empty((5, n + 1)), np.zeros((5, n + 1))
        self._lam_obj_state, self._lam_jtw_pos = lam_obj[:3], lam_jtw[:2]
        self._lam_jtw_x, self._lam_jtw_y = self._lam_jtw_pos
        # The views of each that the pullback reads: rows x|y, rows 3:5, and the block reversed over stages.
        self._obj_costate, self._jtw_costate = ((lam[:2], lam[3:], lam[:, ::-1]) for lam in (lam_obj, lam_jtw))
        # Suffix sums over stages k > j (j = 0..N-1) of lx, ly, ls, lx*a, ly*b:
        # accumulated over the reversed costate into the reversed block.
        acc = np.empty((5, n + 1))
        self._acc_rev, suf = acc[:, ::-1], acc[:, 1:]
        self._suf_pos, self._suf_scaled, self._suf_ab = suf[:2], suf[2:], suf[3:]
        self._suf_heading, self._suf_xa, self._suf_yb = suf[2:]
        self._scratch = np.empty((2, n))
        self._scratch_x, self._scratch_y = self._scratch
        # The gradient, assembled here and returned as a copy.
        self._g = np.empty(2 * n)
        self._gu, self._gv = self._g[:n], self._g[n:]
        self._gu_head, self._gu_tail = self._g[: n - 1], self._g[1:n]

    def _record(self, z: np.ndarray) -> None:
        """Fill the workspace at z, unless it holds z already."""
        key = z.tobytes()
        if key == self._key:
            return
        self._key = None  # a fill cut short by an exception leaves no key
        n, dt = self.n, self.dt
        u = z[:n]
        np.add.accumulate(u, out=self._heading)
        self._heading *= dt
        self._heading += self.start_heading
        np.cos(self._sigma_head, out=self._cos)
        np.sin(self._sigma_head, out=self._sin)
        np.multiply(z[n:], self._trig, out=self._vtrig)
        np.add.accumulate(self._vtrig, axis=1, out=self._ba_tail)
        pos = np.multiply(self._ba, dt, out=self._pos)
        pos += self.start_xy
        self._pos_start[...] = self.start_xy  # stage 0 is the start itself, not 0*dt + start
        if self.rows:
            np.subtract(self._pos_per_row, self.intr, out=self._d)
        pos -= self.target_xy
        heading_err = np.subtract(self._sigma, self.target_heading, out=self._heading_err)
        wrap_angles(heading_err, out=heading_err, mask=self._wrap)
        self._errors_by_row[...] = self._err
        np.subtract(u[1:], u[:-1], out=self._du)
        self._key = key

    def _pullback(self, costate: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
        """Pull a costate block's per-stage state gradient (rows 0:3) back to the controls, into `_g`, which it returns.

        Uses the cumulative-sum structure: the sensitivity of x_k to u_j is
        -dt^2 * sum_{j<i<k} v_i sin(sigma_i), and similarly for y with +cos.
        """
        pos, tail, rev = costate
        np.multiply(pos, self._ab, out=tail)
        np.add.accumulate(rev, axis=1, out=self._acc_rev)
        np.multiply(self._ab_tail, self._suf_pos, out=self._scratch)
        self._suf_ab -= self._scratch
        self._suf_scaled *= self.gu_scale
        np.add(self._suf_xa, self._suf_yb, out=self._gu)
        self._gu += self._suf_heading
        np.multiply(self._trig, self._suf_pos, out=self._scratch)
        np.add(self._scratch_x, self._scratch_y, out=self._gv)
        self._gv *= self.dt
        return self._g

    def objective(self, z: np.ndarray) -> float:
        self._record(z)
        e_term = self._e_term
        stage = float(np.einsum("ki,i,ki->", self._e_stage, self.q, self._e_stage))
        terminal = float(np.dot(np.multiply(e_term, self.qf, out=self._e_term_q), e_term))
        return stage + terminal + self.r * float(np.dot(self._du, self._du))

    def objective_grad(self, z: np.ndarray) -> np.ndarray:
        self._record(z)
        np.multiply(self._err, 2.0, out=self._lam_obj_state)
        self._lam_obj_state *= self.stage_weights
        self._pullback(self._obj_costate)
        np.multiply(self.two_r, self._du, out=self._rdu)
        self._gu_head -= self._rdu
        self._gu_tail += self._rdu
        return self._g.copy()

    def constraints(self, z: np.ndarray) -> np.ndarray:
        self._record(z)
        np.square(self._d, out=self._sq)
        c = np.subtract(self.rho_sq, self._sq_x)
        c -= self._sq_y
        return c

    def constraints_weighted_grad(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """J^T w without forming J: aggregate the weights into one per-stage
        position gradient, then pull it back through the rollout."""
        self._record(z)
        w2 = w.reshape(self._dx.shape)
        np.einsum("jk,jk->k", w2, self._dx, out=self._lam_jtw_x)
        np.einsum("jk,jk->k", w2, self._dy, out=self._lam_jtw_y)
        self._lam_jtw_pos *= -2.0
        return self._pullback(self._jtw_costate).copy()


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
