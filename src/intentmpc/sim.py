"""Closed-loop encounters: MPC-controlled ownship against a Dubins intruder.

The intruder commits to the Dubins schedule toward its waypoint computed once
at t = 0 and indexed by absolute time; an optional bounded uniform
angular-rate disturbance perturbs each applied step.  The ownship re-solves
its receding-horizon problem every step.  Monte-Carlo batches rerun the same
encounter under per-run derived seeds.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .dubins import ControlSchedule, DubinsPath, Pose, control_schedule, shortest_path
from .dynamics import ControlInput, separation, step
from .mpc import MpcConfig, MpcSolution, solve_step
from .solver import NumericalDomainError, STATUS_INFEASIBLE

TERMINAL_ARRIVED = "arrived"
TERMINAL_MAX_STEPS = "max_steps"
TERMINAL_VIOLATION = "violation_flagged"

DISTURBANCE_NONE = "none"
DISTURBANCE_UNIFORM = "uniform"

@dataclass(frozen=True)
class Disturbance:
    """Additive angular-rate noise on the intruder, in radians/second."""

    kind: str = DISTURBANCE_NONE
    lo: float = 0.0
    hi: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (DISTURBANCE_NONE, DISTURBANCE_UNIFORM):
            raise ValueError(f"kind must be {DISTURBANCE_NONE!r} or {DISTURBANCE_UNIFORM!r}, got {self.kind!r}")
        if self.kind == DISTURBANCE_UNIFORM and not self.lo <= self.hi:
            raise ValueError(f"lo must not exceed hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one encounter.

    The controller's settings, the ownship's target, both aircraft's limits
    and the step dt among them, are `mpc`; the rest only the simulation reads.
    """

    own_start: Pose
    target_radius: float
    intruder_start: Pose
    intruder_target: Pose
    mpc: MpcConfig
    disturbance: Disturbance
    max_steps: int
    rng_seed: int

    def __post_init__(self) -> None:
        if not self.target_radius > 0.0:
            raise ValueError("target_radius must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not self.mpc.intruder_bounds.u_max > 0.0:
            raise ValueError(f"intruder_bounds needs a positive maximum turn rate, got u_max = {self.mpc.intruder_bounds.u_max}")


@dataclass(frozen=True)
class SimStep:
    """State of both aircraft at time t and the inputs applied over [t, t+1)."""

    t: int
    own: Pose
    intruder: Pose
    applied: ControlInput
    intruder_applied: ControlInput
    separation: float
    solver_status: str
    solve_seconds: float
    inner_iters: int


@dataclass
class SimTrace:
    spec: ScenarioSpec
    steps: list[SimStep]
    own_final: Pose
    intruder_final: Pose
    arrived: bool
    terminal_status: str


class SimulationAborted(RuntimeError):
    """Solver hit a numerical-domain error; the partial trace is attached."""

    def __init__(self, message: str, trace: SimTrace):
        super().__init__(message)
        self.trace = trace


def intruder_plan(spec: ScenarioSpec) -> tuple[DubinsPath, ControlSchedule]:
    """Dubins path and per-step schedule from the intruder's start to its waypoint."""
    bounds = spec.mpc.intruder_bounds
    path = shortest_path(spec.intruder_start, spec.intruder_target, bounds.v_max / bounds.u_max)
    return path, control_schedule(path, bounds.v_max, spec.mpc.dt)


def run_closed_loop(spec: ScenarioSpec) -> SimTrace:
    """Simulate one encounter until arrival or the step budget runs out."""
    _, schedule = intruder_plan(spec)
    config = spec.mpc
    rng = np.random.default_rng(spec.rng_seed) if spec.disturbance.kind == DISTURBANCE_UNIFORM else None

    own = spec.own_start
    intruder = spec.intruder_start
    steps: list[SimStep] = []
    warm: MpcSolution | None = None
    arrived = _within_target(own, spec)

    t = 0
    while not arrived and t < spec.max_steps:
        t_start = time.perf_counter()
        try:
            sol = solve_step(own, intruder, t, schedule, config, warm)
        except NumericalDomainError as err:
            trace = _finish_trace(spec, steps, own, intruder, False)
            raise SimulationAborted(f"solver domain error at step {t}: {err}", trace) from err
        solve_seconds = time.perf_counter() - t_start

        nominal_rate = schedule.rate_at(t)
        if rng is not None:
            noise = rng.uniform(spec.disturbance.lo, spec.disturbance.hi)
            intruder_input = config.intruder_bounds.clamp(
                ControlInput(speed=config.intruder_bounds.v_max, angular_rate=nominal_rate + noise)
            )
        else:
            # Kept unclamped so the realized nominal trajectory matches the
            # scenario tree's nominal branch bit for bit.
            intruder_input = ControlInput(speed=config.intruder_bounds.v_max, angular_rate=nominal_rate)

        steps.append(
            SimStep(
                t=t,
                own=own,
                intruder=intruder,
                applied=sol.first_input,
                intruder_applied=intruder_input,
                separation=separation(own, intruder),
                solver_status=sol.solver.status,
                solve_seconds=solve_seconds,
                inner_iters=sol.solver.inner_iters_total,
            )
        )

        own = step(own, sol.first_input, config.dt)
        intruder = step(intruder, intruder_input, config.dt)
        warm = sol
        t += 1
        arrived = _within_target(own, spec)

    return _finish_trace(spec, steps, own, intruder, arrived)


def _within_target(own: Pose, spec: ScenarioSpec) -> bool:
    return math.hypot(own.x - spec.mpc.target.x, own.y - spec.mpc.target.y) <= spec.target_radius


def _finish_trace(spec: ScenarioSpec, steps: list[SimStep], own: Pose, intruder: Pose, arrived: bool) -> SimTrace:
    status = TERMINAL_ARRIVED if arrived else TERMINAL_MAX_STEPS
    if any(s.separation < spec.mpc.min_separation or s.solver_status == STATUS_INFEASIBLE for s in steps):
        status = TERMINAL_VIOLATION
    return SimTrace(spec=spec, steps=steps, own_final=own, intruder_final=intruder, arrived=arrived, terminal_status=status)


@dataclass(frozen=True)
class SimMetrics:
    min_separation: float
    min_separation_time: int
    path_length: float
    arrival_time: int | None
    violation_stages: int
    max_solver_iterations: int


def metrics(trace: SimTrace) -> SimMetrics:
    """Summary metrics of the recorded steps."""
    if not trace.steps:
        raise ValueError("metrics require a nonempty trace")
    seps = [s.separation for s in trace.steps]
    idx = int(np.argmin(seps))
    return SimMetrics(
        min_separation=seps[idx],
        min_separation_time=trace.steps[idx].t,
        path_length=sum(trace.spec.mpc.dt * s.applied.speed for s in trace.steps),
        arrival_time=len(trace.steps) if trace.arrived else None,
        violation_stages=sum(1 for s in seps if s < trace.spec.mpc.min_separation),
        max_solver_iterations=max(s.inner_iters for s in trace.steps),
    )


@dataclass
class RunOutcome:
    """One Monte-Carlo run: its trace (partial if the run aborted) and the abort message."""

    trace: SimTrace
    error: str | None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class MonteCarloAggregate:
    min_min_separation: float
    violation_runs: int
    path_length_min: float
    path_length_mean: float
    path_length_max: float
    terminal_spread_max: float
    terminal_spread_mean: float
    common_step_index: int


@dataclass
class MonteCarloReport:
    spec: ScenarioSpec
    runs: list[RunOutcome]
    nominal: SimTrace
    aggregate: MonteCarloAggregate


def _run_for_report(spec: ScenarioSpec) -> RunOutcome:
    try:
        return RunOutcome(trace=run_closed_loop(spec), error=None)
    except SimulationAborted as err:
        return RunOutcome(trace=err.trace, error=str(err))


def run_monte_carlo(spec: ScenarioSpec, runs: int, max_workers: int = 1) -> MonteCarloReport:
    """Run seeded repetitions plus the disturbance-free nominal reference.

    Run i, at list position i, uses seed rng_seed + i.  The terminal spread
    is measured at the last step index common to every run, against the
    nominal intruder position.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    specs = [replace(spec, rng_seed=spec.rng_seed + i) for i in range(runs)]
    nominal = run_closed_loop(replace(spec, disturbance=Disturbance()))

    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            outcomes = list(pool.map(_run_for_report, specs))
    else:
        outcomes = [_run_for_report(s) for s in specs]

    return MonteCarloReport(
        spec=spec,
        runs=outcomes,
        nominal=nominal,
        aggregate=_aggregate(outcomes, nominal),
    )


def _aggregate(outcomes: list[RunOutcome], nominal: SimTrace) -> MonteCarloAggregate:
    complete = [o.trace for o in outcomes if o.ok and o.trace.steps]
    if not complete:
        raise RuntimeError("no run completed; cannot aggregate")
    per_run = [metrics(t) for t in complete]

    common = min(min(len(t.steps) for t in complete), len(nominal.steps)) - 1
    ref = nominal.steps[common].intruder
    deviations = [separation(t.steps[common].intruder, ref) for t in complete]

    lengths = [m.path_length for m in per_run]
    return MonteCarloAggregate(
        min_min_separation=min(m.min_separation for m in per_run),
        violation_runs=sum(1 for m in per_run if m.violation_stages > 0),
        path_length_min=min(lengths),
        path_length_mean=sum(lengths) / len(lengths),
        path_length_max=max(lengths),
        terminal_spread_max=max(deviations),
        terminal_spread_mean=sum(deviations) / len(deviations),
        common_step_index=common,
    )
