"""Golden bytes of every output writer, on traces built without a solver.

Each trace is rolled out with `dynamics.step` from fixed inputs, with fixed
solve times, so its CSV, JSON and SVG bytes depend only on the writers.  A
change to a writer that is meant to keep the outputs byte-identical must
leave every digest here as it is.
"""

import hashlib
import math
from dataclasses import replace

import pytest

from intentmpc import ControlInput, Disturbance, MonteCarloReport, Pose, SimTrace, separation, step
from intentmpc.plots import (
    plot_controls,
    plot_monte_carlo_separation,
    plot_monte_carlo_trajectories,
    plot_separation,
    plot_trajectories,
)
from intentmpc.scenario_io import dump_json, parse_scenario, report_doc, summary_doc, trace_to_csv
from intentmpc.sim import SimStep
from intentmpc.solver import STATUS_CONVERGED, STATUS_INFEASIBLE, STATUS_MAX_ITERS
from test_io import quick_doc


def rolled_out(spec, steps: int, turn: float, arrived: bool = False, error: str | None = None) -> SimTrace:
    """`steps` steps of both aircraft from the spec's starts under fixed inputs; step 3 is flagged infeasible."""
    own, intruder = spec.own_start, spec.intruder_start
    recorded = []
    for t in range(steps):
        applied = ControlInput(speed=6.0 + 0.5 * t, angular_rate=turn * (-1.0) ** t)
        intruder_applied = ControlInput(speed=10.0, angular_rate=0.01 * t + 0.1 * turn)
        status = STATUS_INFEASIBLE if t == 3 else STATUS_MAX_ITERS if t == 1 else STATUS_CONVERGED
        recorded.append(
            SimStep(
                t=t,
                own=own,
                intruder=intruder,
                applied=applied,
                intruder_applied=intruder_applied,
                separation=separation(own, intruder),
                solver_status=status,
                solve_seconds=0.00125 * (t + 1),
                inner_iters=7 * t + 2,
            )
        )
        own, intruder = step(own, applied, 1.0), step(intruder, intruder_applied, 1.0)
    terminal = "violation_flagged" if steps > 3 else "arrived" if arrived else "max_steps"
    return SimTrace(spec, recorded, own, intruder, arrived, terminal, error)


@pytest.fixture(scope="module")
def spec():
    base = parse_scenario(quick_doc())
    # Close enough that the separation falls below rho = 60 m within six steps.
    return replace(base, intruder_start=Pose(110.0, 25.0, math.pi))


@pytest.fixture(scope="module")
def trace(spec):
    return rolled_out(spec, 6, 0.04)


@pytest.fixture(scope="module")
def report(spec):
    runs = [
        rolled_out(replace(spec, rng_seed=spec.rng_seed), 7, 0.06, arrived=True),
        rolled_out(replace(spec, rng_seed=spec.rng_seed + 1), 3, -0.05, error="solver domain error at step 3: test"),
    ]
    return MonteCarloReport(spec=spec, runs=runs, nominal=rolled_out(replace(spec, disturbance=Disturbance()), 6, 0.0))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


RUN_WRITERS = {
    "trace.csv": trace_to_csv,
    "summary.json": lambda t: dump_json(summary_doc(t)),
    "traj.svg": plot_trajectories,
    "distance.svg": plot_separation,
    "controls.svg": plot_controls,
}
REPORT_WRITERS = {
    "report.json": lambda r: dump_json(report_doc(r)),
    "overlay_traj.svg": plot_monte_carlo_trajectories,
    "overlay_distance.svg": plot_monte_carlo_separation,
}
GOLDEN = {
    "trace.csv": "b7d7c65fd05289c4916e03738d37eadea4bc39196edb9400f8cef4270df52b74",
    "summary.json": "f9005cc2e16428164c84cd086fc964e46b98306529cf47eba3d8db34c7d5359a",
    "traj.svg": "c703fcc4c6218dd13569eedce5a6bf6fe94340e9b5c2ca206adda33bd8f43f54",
    "distance.svg": "5e0445c88165e6e9ebad65d666cbb334a33d6dbf31d85a7f5c4d727958fa3a9a",
    "controls.svg": "7638ec2c8615f498054675276461b254a4f00e49447da3d21911d45e9fbf9bc8",
    "report.json": "e2bd882d2a27b657e0365e1cb86318365555c9b12765947f56a8b012be0e3d34",
    "overlay_traj.svg": "67cd407fbe28c843f128fd4d13a139ef47c091f6e7fa8983c1600dcc41bd4813",
    "overlay_distance.svg": "ea6d19542d514a410cba885a48d90cdfcc109d437e025d318ffa80d5544c9117",
}


def test_the_traces_cover_what_the_writers_branch_on(trace, report):
    assert min(s.separation for s in trace.steps) < trace.spec.mpc.min_separation
    assert any(s.solver_status == STATUS_INFEASIBLE for s in trace.steps)
    completed, aborted = report.runs
    assert completed.arrived and completed.error is None
    assert aborted.error is not None and len(aborted.steps) < len(completed.steps)


@pytest.mark.parametrize("name", sorted(RUN_WRITERS))
def test_run_writer_bytes(trace, name):
    assert sha256(RUN_WRITERS[name](trace)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(REPORT_WRITERS))
def test_report_writer_bytes(report, name):
    assert sha256(REPORT_WRITERS[name](report)) == GOLDEN[name]
