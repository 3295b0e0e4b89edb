"""Closed-loop encounters: MPC-controlled ownship against a Dubins intruder.

The intruder commits to the Dubins schedule toward its waypoint computed once
at t = 0 and indexed by absolute time; an optional bounded uniform
angular-rate disturbance perturbs each applied step.  The ownship re-solves
its receding-horizon problem every step.  Monte-Carlo batches rerun the same
encounter under per-run derived seeds; an ownship step that their runs share
and that is solved without separation rows is solved once.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .dubins import ControlSchedule, Pose, control_schedule, shortest_path
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
        # numpy draws uniform(lo, hi) only where hi - lo is a finite float.
        if self.kind == DISTURBANCE_UNIFORM and not math.isfinite(self.hi - self.lo):
            raise ValueError(f"lo and hi must span a finite range, got [{self.lo}, {self.hi}]")


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
    """One encounter's steps; `error` is the abort message, None if the run ended normally."""

    spec: ScenarioSpec
    steps: list[SimStep]
    own_final: Pose
    intruder_final: Pose
    arrived: bool
    terminal_status: str
    error: str | None = None


class SimulationAborted(RuntimeError):
    """Solver hit a numerical-domain error; the partial trace, with the message as its error, is attached."""

    def __init__(self, message: str, trace: SimTrace):
        super().__init__(message)
        self.trace = replace(trace, error=message)


def intruder_plan(spec: ScenarioSpec) -> ControlSchedule:
    """Per-step schedule of the Dubins path from the intruder's start to its
    waypoint, up to the last rate a run reads: step max_steps - 1's horizon."""
    bounds = spec.mpc.intruder_bounds
    path = shortest_path(spec.intruder_start, spec.intruder_target, bounds.v_max / bounds.u_max)
    return control_schedule(path, bounds.v_max, spec.mpc.dt, spec.max_steps + spec.mpc.horizon)


def run_closed_loop(
    spec: ScenarioSpec, memo: dict[bytes, MpcSolution] | None = None, screened_only: bool = False
) -> SimTrace | None:
    """Simulate one encounter until arrival or the step budget runs out.

    `memo` and `screened_only` go to every `solve_step`; under
    `screened_only` the run stops at its first step whose rows can bind and
    returns None.
    """
    schedule = intruder_plan(spec)
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
            sol = solve_step(own, intruder, t, schedule, config, warm, memo, screened_only)
        except NumericalDomainError as err:
            trace = _finish_trace(spec, steps, own, intruder, False)
            raise SimulationAborted(f"solver domain error at step {t}: {err}", trace) from err
        if sol is None:
            return None
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


def metrics(trace: SimTrace) -> dict:
    """Summary metrics of the recorded steps, as summary.json's `metrics`."""
    if not trace.steps:
        raise ValueError("metrics require a nonempty trace")
    seps = [s.separation for s in trace.steps]
    idx = int(np.argmin(seps))
    return {
        "min_separation": seps[idx],
        "min_separation_time": trace.steps[idx].t,
        "path_length": sum(trace.spec.mpc.dt * s.applied.speed for s in trace.steps),
        "arrival_time": len(trace.steps) if trace.arrived else None,
        "violation_stages": sum(1 for s in seps if s < trace.spec.mpc.min_separation),
        "max_solver_iterations": max(s.inner_iters for s in trace.steps),
    }


@dataclass
class MonteCarloReport:
    """The seeded runs and the disturbance-free nominal run, each as its trace."""

    spec: ScenarioSpec
    runs: list[SimTrace]
    nominal: SimTrace

    @property
    def aggregate(self) -> dict:
        """Metrics over the completed runs, as report.json's `aggregate`; the
        terminal spread is measured at the last step index common to every one
        and the nominal run, against the nominal intruder position, so the
        nominal run must have completed."""
        complete = [t for t in self.runs if t.error is None and t.steps]
        if not complete:
            raise RuntimeError("no run completed; cannot aggregate")
        if self.nominal.error is not None:
            raise RuntimeError(f"the nominal run failed ({self.nominal.error}); cannot aggregate")
        per_run = [metrics(t) for t in complete]

        common = min(min(len(t.steps) for t in complete), len(self.nominal.steps)) - 1
        ref = self.nominal.steps[common].intruder
        deviations = [separation(t.steps[common].intruder, ref) for t in complete]

        lengths = [m["path_length"] for m in per_run]
        return {
            "min_min_separation": min(m["min_separation"] for m in per_run),
            "violation_runs": sum(1 for m in per_run if m["violation_stages"] > 0),
            "path_length": {"min": min(lengths), "mean": sum(lengths) / len(lengths), "max": max(lengths)},
            "terminal_spread": {
                "max": max(deviations),
                "mean": sum(deviations) / len(deviations),
                "common_step_index": common,
            },
        }


def _run_for_report(spec: ScenarioSpec, memo: dict[bytes, MpcSolution], screened_only: bool = False) -> SimTrace | None:
    try:
        return run_closed_loop(spec, memo, screened_only)
    except SimulationAborted as err:
        return err.trace


def run_monte_carlo(spec: ScenarioSpec, runs: int, max_workers: int = 1) -> MonteCarloReport:
    """Run seeded repetitions plus the disturbance-free nominal reference.

    Run i, at list position i, uses seed rng_seed + i.  The nominal run is
    the first task, so an abort there is caught and recorded like any run's.
    The disturbance acts only on the intruder, so every run flies the same
    ownship steps until its rows can first bind; one memo holds the batch's
    steps solved without rows.  With more than one worker, every run goes in
    this process until it ends or reaches a step whose rows can bind, and
    only those runs go to the pool, where each restarts from its spec and
    replays its prefix from a copy of the memo.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    specs = [replace(spec, disturbance=Disturbance())] + [replace(spec, rng_seed=spec.rng_seed + i) for i in range(runs)]
    memo: dict[bytes, MpcSolution] = {}
    traces = [_run_for_report(s, memo, max_workers > 1) for s in specs]
    pending = [s for s, trace in zip(specs, traces) if trace is None]
    if pending:
        # Fork starts every worker at once, so no more than there are pending runs.
        with ProcessPoolExecutor(max_workers=min(max_workers, len(pending))) as pool:
            finished = pool.map(_run_for_report, pending, repeat(memo))
            traces = [trace if trace is not None else next(finished) for trace in traces]
    return MonteCarloReport(spec=spec, runs=traces[1:], nominal=traces[0])
