"""The benchmark's span tracer (perfbench/tracing.py) still fits the program.

The tracer re-wraps the callables of every NlpProblem that build_problem
returns, by field name, and counts a tree's scenarios as
`len(tree.trajectories)`, so a reshaped NlpProblem, build_problem or
ScenarioTree would otherwise show only in a traced benchmark run.
"""

import math
from pathlib import Path

from intentmpc import Pose
from intentmpc.mpc import MpcMode, solve_step
from test_mpc import config, crossing_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# Head-on intruder close enough that the cold start violates separation
# rows, so the solver also takes J^T w.
HEAD_ON = Pose(300, 0, math.pi)


def traced_solve_step(monkeypatch, cfg, intruder=HEAD_ON):
    """One solve_step from the origin, heading east, under the tracer; returns the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.install()
    try:
        solve_step(Pose(0, 0, 0), intruder, 0, crossing_schedule(), cfg)
    finally:
        tracer.uninstall()
    return tracer


def test_traced_solve_step_records_problem_spans(monkeypatch):
    tracer = traced_solve_step(monkeypatch, config(MpcMode.CLASSIC, horizon=10))
    names = {span[0] for span in tracer.spans}
    assert {
        "mpc.build_problem",
        "mpc.objective",
        "mpc.objective_grad",
        "mpc.constraints",
        "mpc.jtw",
        "solver.solve",
    } <= names
    assert tracer.counters["dynamics.scenarios"] == 1


def test_traced_scenario_count_is_the_tree_width(monkeypatch):
    # The counter reads the first axis of tree.trajectories; it must be the scenario axis.
    tracer = traced_solve_step(monkeypatch, config(MpcMode.SCENARIO_TREE, horizon=10, robust_horizon=2))
    assert tracer.counters["dynamics.scenarios"] == 9
    assert tracer.counters["mpc.constraint_rows"] == 9 * 11


def test_traced_solve_without_an_inner_solve(monkeypatch):
    # The target (900, 0) lies straight ahead beyond the horizon's reach and
    # the intruder is far away, so the cold start (straight on at v_max) is
    # stationary: the solver evaluates it once, and L-BFGS-B stops at it
    # without an iteration or a further evaluation.
    tracer = traced_solve_step(monkeypatch, config(MpcMode.CLASSIC, horizon=10), intruder=Pose(-5000, 5000, math.pi))
    names = {span[0] for span in tracer.spans}
    assert {"mpc.objective", "mpc.objective_grad", "mpc.constraints", "solver.solve"} <= names
    assert tracer.counters["solver.inner_iters"] == 0
    assert tracer.counters["solver.status.converged"] == 1
    # No separation row can bind, so the step is solved without the tree or its rows.
    assert "dynamics.build_scenario_tree" not in names
    assert tracer.counters["mpc.constraint_rows"] == 0


def test_traced_unconstrained_problem_has_zero_rows(monkeypatch):
    # Unconstrained is zero separation rows, not a missing callable: the
    # tracer wraps `constraints` as in every mode and counts no row.  No
    # tree is built for it.
    tracer = traced_solve_step(monkeypatch, config(MpcMode.UNCONSTRAINED, horizon=10))
    names = {span[0] for span in tracer.spans}
    assert {"mpc.objective", "mpc.objective_grad", "mpc.constraints", "solver.solve"} <= names
    assert "dynamics.build_scenario_tree" not in names
    assert tracer.counters["mpc.problems"] == 1
    assert tracer.counters["mpc.constraint_rows"] == 0
