"""The benchmark's span tracer (perfbench/tracing.py) still fits the program.

The tracer re-wraps the callables of every NlpProblem that build_problem
returns, by field name, so a reshaped NlpProblem or build_problem would
otherwise show only in a traced benchmark run.
"""

import math
from pathlib import Path

from intentmpc import Pose
from intentmpc.mpc import MpcMode, solve_step
from test_mpc import config, crossing_schedule

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_solve_step_records_problem_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.install()
    try:
        # Head-on intruder close enough that the cold start violates
        # separation rows, so the solver also takes J^T w.
        solve_step(Pose(0, 0, 0), Pose(300, 0, math.pi), 0, crossing_schedule(), config(MpcMode.CLASSIC, horizon=10))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {
        "mpc.build_problem",
        "mpc.objective",
        "mpc.objective_grad",
        "mpc.constraints",
        "mpc.jtw",
        "solver.solve",
    } <= names
