"""What importing and running the package loads, and how it finds L-BFGS-B.

The solver loads scipy's compiled L-BFGS-B module by itself; scipy.optimize,
and everything it pulls in, stays out of the process.  Each check runs in a
fresh interpreter, since the test session itself imports scipy.optimize.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from intentmpc import build_problem, solve, solver
from intentmpc.mpc import cold_start
from intentmpc.scenario_io import load_scenario
from intentmpc.sim import intruder_plan
from test_io import quick_doc

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
NEVER_LOADED = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special", "xml.sax", "urllib.request")


def run_python(code: str, *args: str, **env: str) -> str:
    """stdout of `python -c code args` with src on the path; the BLAS thread
    variables that conftest sets are inherited through os.environ."""
    environ = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **env}
    done = subprocess.run([sys.executable, "-c", code, *args], env=environ, capture_output=True, text=True,
                          check=False, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


COMMANDS = """
import json, sys
from intentmpc import cli
scenario, out = sys.argv[1:]
assert cli.main(["simulate", "--scenario", scenario, "--out", out + "/sim"]) == 0
assert cli.main(["montecarlo", "--scenario", scenario, "--out", out + "/mc", "--runs", "2"]) == 0
print(json.dumps(sorted(sys.modules)))
"""


def test_commands_load_no_scipy_module(tmp_path):
    doc = quick_doc(**{"sim.max_steps": 8})
    doc["disturbance"] = {"kind": "uniform", "lo_deg_s": -0.5, "hi_deg_s": 0.5}
    scenario = tmp_path / "quick.json"
    scenario.write_text(json.dumps(doc))
    stdout = run_python(COMMANDS, str(scenario), str(tmp_path), INTENT_MPC_THREADS="2")
    modules = json.loads(stdout.splitlines()[-1])
    assert (tmp_path / "mc" / "report.json").exists()
    assert not [name for name in modules if any(name == n or name.startswith(n + ".") for n in NEVER_LOADED)]
    # Not even the L-BFGS-B extension is left in sys.modules.
    assert not [name for name in modules if name == "scipy" or name.startswith("scipy.")]


CROSSING_SOLVE = """
import sys
if sys.argv[2] == "before":
    import scipy.optimize
from intentmpc import build_problem, solve
from intentmpc.mpc import cold_start
from intentmpc.scenario_io import load_scenario
from intentmpc.sim import intruder_plan
if sys.argv[2] == "after":
    import scipy.optimize
    assert scipy.optimize.minimize(lambda x: float(x @ x), [1.0, 2.0], method="L-BFGS-B").success
spec = load_scenario(sys.argv[1])
problem, _ = build_problem(spec.own_start, spec.intruder_start, 0, intruder_plan(spec), spec.mpc)
res = solve(problem, cold_start(spec.mpc), spec.mpc.solver)
print(res.z_star.tobytes().hex(), res.inner_iters_total, res.status)
"""


def test_solve_is_the_same_whichever_imports_scipy_optimize_first():
    """The crossing's first step is a conflict step that runs L-BFGS-B iterations."""
    scenario = SCENARIOS / "reference_crossing.json"
    before, after = (run_python(CROSSING_SOLVE, str(scenario), order).split() for order in ("before", "after"))
    spec = load_scenario(scenario)
    problem, _ = build_problem(spec.own_start, spec.intruder_start, 0, intruder_plan(spec), spec.mpc)
    res = solve(problem, cold_start(spec.mpc), spec.mpc.solver)
    assert res.inner_iters_total > 0
    assert before == after == [res.z_star.tobytes().hex(), str(res.inner_iters_total), res.status]


def test_missing_extension_names_the_directory_and_the_floor(tmp_path):
    (tmp_path / "optimize").mkdir()
    (tmp_path / "optimize" / "_lbfgsb.py").write_text("")  # a source module is not the extension
    with pytest.raises(ImportError, match=r"scipy>=1\.15") as err:
        solver._load_lbfgsb(str(tmp_path))
    assert str(tmp_path / "optimize") in str(err.value)
