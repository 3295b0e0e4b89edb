"""What importing and running the package loads, how it finds L-BFGS-B, and
the threads scipy's BLAS gets.

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
from intentmpc.scenario_io import load_scenario, trace_to_csv
from intentmpc.sim import intruder_plan, run_closed_loop
from test_io import quick_doc

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
NEVER_LOADED = ("scipy.optimize", "scipy.linalg", "scipy.sparse", "scipy.special", "xml.sax", "urllib.request")


def run_python(code: str, *args: str, **env: str) -> str:
    """stdout of `python -c code args` with src on the path, in this session's
    environment without the *_NUM_THREADS variables, as a user runs it, plus env."""
    inherited = {key: value for key, value in os.environ.items() if not key.endswith("_NUM_THREADS")}
    environ = {**inherited, "PYTHONPATH": str(ROOT / "src"), **env}
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
    stdout = run_python(COMMANDS, str(scenario), str(tmp_path))
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
from intentmpc.scenario_io import load_scenario, trace_to_csv
from intentmpc.sim import intruder_plan, run_closed_loop
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


BLAS_THREADS = r"""
import ctypes, json, os, re, sys
from intentmpc import cli
libs = set(re.findall(r"\S*/libscipy_openblas-[^/\s]*$", open("/proc/self/maps").read(), re.M))
threads = ctypes.CDLL(libs.pop()).scipy_openblas_get_num_threads() if libs else None
variable = os.environ.get("OPENBLAS_NUM_THREADS")
assert cli.main(["simulate", "--scenario", sys.argv[1], "--out", sys.argv[2]]) == 0
print(json.dumps([threads, variable]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="finds scipy's OpenBLAS in /proc/self/maps")
@pytest.mark.parametrize("preset", [None, "2"])
def test_scipy_blas_runs_on_one_thread_unless_the_user_sets_it(tmp_path, preset):
    """Importing intentmpc loads scipy's OpenBLAS on one thread, leaves os.environ
    as it was, and keeps a thread count the user set; the run is unchanged."""
    scenario = tmp_path / "quick.json"
    scenario.write_text(json.dumps(quick_doc()))
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    stdout = run_python(BLAS_THREADS, str(scenario), str(tmp_path / "sim"), **env)
    threads, variable = json.loads(stdout.splitlines()[-1])
    if threads is None:
        pytest.skip("this scipy build maps no libscipy_openblas")
    # OpenBLAS runs on no more threads than the CPUs it may use.
    assert (threads, variable) == ((1, None) if preset is None else (min(2, len(os.sched_getaffinity(0))), "2"))
    written = (tmp_path / "sim" / "trace.csv").read_text(encoding="utf-8")
    in_session = trace_to_csv(run_closed_loop(load_scenario(scenario)))
    # solve_ms, the last column, is measured wall time.
    assert [row.rsplit(",", 1)[0] for row in written.split("\n")] == [
        row.rsplit(",", 1)[0] for row in in_session.split("\n")
    ]
