"""The benchmark's span tracer (perfbench/tracing.py) still fits the program.

The tracer re-wraps the callables of every NlpProblem that build_problem
returns, by field name, and counts a tree's scenarios as
`len(tree.trajectories)`, so a reshaped NlpProblem, build_problem or
ScenarioTree would otherwise show only in a traced benchmark run.  It also
replaces the Monte-Carlo pool, which the benchmark's batch, every step of it
screened, no longer starts.
"""

import math
from pathlib import Path

from intentmpc import Disturbance, Pose
from intentmpc.mpc import MpcMode, solve_step
from intentmpc.sim import run_monte_carlo
from test_mpc import config, crossing_schedule
from test_sim import prefix_spec

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


def test_traced_batch_records_every_finished_run(monkeypatch):
    # The head-on runs leave the shared prefix at step 8 and finish in the
    # pool; each pool task returns its worker's spans.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    deg = math.pi / 180.0
    tracer = tracing.install()
    try:
        report = run_monte_carlo(prefix_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg)), runs=2, max_workers=2)
    finally:
        tracer.uninstall()
    traces = [report.nominal, *report.runs]
    tasks = {i for i, span in enumerate(tracer.spans) if span[0] == "sim.pool_task"}
    encounters = [span for span in tracer.spans if span[0] == "sim.run_closed_loop"]
    assert len(tasks) == len(traces)
    # One span per finished run in its pool task, and one per run's pass in
    # this process, which ended at the prefix and counted no step.
    assert sorted(span[3] for span in encounters if span[3] in tasks) == sorted(tasks)
    assert len(encounters) == 2 * len(traces)
    assert tracer.counters["sim.workers"] == 2
    assert tracer.counters["sim.steps"] == sum(len(t.steps) for t in traces)
