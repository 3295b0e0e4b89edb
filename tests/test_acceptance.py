"""Acceptance suite: one test per criterion, printed as PASS/FAIL lines.

Expensive closed-loop runs are shared across criteria through module-scoped
fixtures; their wall times are recorded so the stated runtime budgets are
asserted alongside the behavioral checks.
"""

import itertools
import math
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from intentmpc import (
    ControlBounds,
    Disturbance,
    MpcMode,
    Pose,
    ScenarioSpec,
    build_problem,
    build_scenario_tree,
    control_schedule,
    metrics,
    run_closed_loop,
    run_monte_carlo,
    shortest_path,
    solve,
    step,
)
from intentmpc.scenario_io import dump_json, load_scenario, summary_doc, trace_to_csv
from intentmpc.sim import intruder_plan
from intentmpc.solver import SolverConfig
from oracle_derivatives import check_gradient
from oracle_dubins import oracle_shortest_lengths
from oracle_dynamics import branch_index
from test_solver import circle_constrained_linear, clipped_quadratic, rosenbrock

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DEG = math.pi / 180.0

_timings: dict[str, float] = {}


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL: criterion {number} — {label}")
        raise
    print(f"PASS: criterion {number} — {label}")


def _timed_run(name: str, spec: ScenarioSpec):
    start = time.perf_counter()
    trace = run_closed_loop(spec)
    _timings[name] = time.perf_counter() - start
    return trace


@pytest.fixture(scope="module")
def reference_spec() -> ScenarioSpec:
    return load_scenario(SCENARIOS / "reference_crossing.json")


@pytest.fixture(scope="module")
def intent_spec() -> ScenarioSpec:
    return load_scenario(SCENARIOS / "intent_comparison.json")


def _undisturbed(spec: ScenarioSpec, mode: MpcMode) -> ScenarioSpec:
    return replace(spec, mpc=replace(spec.mpc, mode=mode), disturbance=Disturbance())


@pytest.fixture(scope="module")
def unconstrained_trace(reference_spec):
    return _timed_run("unconstrained", _undisturbed(reference_spec, MpcMode.UNCONSTRAINED))


@pytest.fixture(scope="module")
def classic_trace(reference_spec):
    return _timed_run("classic", _undisturbed(reference_spec, MpcMode.CLASSIC))


@pytest.fixture(scope="module")
def tree_trace(reference_spec):
    return _timed_run("tree", _undisturbed(reference_spec, MpcMode.SCENARIO_TREE))


def _mc(reference_spec, level_deg: float):
    spec = replace(reference_spec, disturbance=Disturbance("uniform", -level_deg * DEG, level_deg * DEG))
    start = time.perf_counter()
    report = run_monte_carlo(spec, runs=20, max_workers=min(2, os.cpu_count() or 1))
    _timings[f"mc_{level_deg}"] = time.perf_counter() - start
    return report


@pytest.fixture(scope="module")
def mc_half_deg(reference_spec):
    return _mc(reference_spec, 0.5)


@pytest.fixture(scope="module")
def mc_quarter_deg(reference_spec):
    return _mc(reference_spec, 0.25)


@pytest.fixture(scope="module")
def mc_twentieth_deg(reference_spec):
    return _mc(reference_spec, 0.05)


def test_criterion_1_dubins_oracle_equivalence():
    with criterion(1, "Dubins shortest paths match the brute-force oracle on 1000 pose pairs"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        n = 1000
        radius = 142.857
        starts = np.column_stack(
            [rng.uniform(-500, 500, n), rng.uniform(-500, 500, n), rng.uniform(-math.pi, math.pi, n)]
        )
        goals = np.column_stack(
            [rng.uniform(-500, 500, n), rng.uniform(-500, 500, n), rng.uniform(-math.pi, math.pi, n)]
        )
        expected = oracle_shortest_lengths(starts, goals, radius)
        got = np.array(
            [shortest_path(Pose(*s), Pose(*g), radius).total_length for s, g in zip(starts, goals)]
        )
        elapsed = time.perf_counter() - start
        assert np.all(np.isfinite(expected))
        assert float(np.max(np.abs(got - expected))) <= 1e-4
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_scenario_tree_structure():
    with criterion(2, "scenario trees cover every branch tuple once with shared prefixes"):
        start = time.perf_counter()
        bounds = ControlBounds(v_min=10.0, v_max=10.0, u_min=-0.07, u_max=0.07)
        schedule = control_schedule(
            shortest_path(Pose(0, 0, 0), Pose(600, 100, 0.4), 10.0 / 0.07), 10.0, 1.0
        )
        nominal = [schedule.rate_at(2 + k) for k in range(8)]
        for n_r in (1, 2, 3):
            tree = build_scenario_tree(Pose(0, 0, 0), nominal, n_r, bounds, 1.0)
            assert len(tree.trajectories) == 3**n_r
            tuples = [tuple(branch_index(j, k, n_r, 8) for k in range(n_r)) for j in range(1, 3**n_r + 1)]
            assert sorted(tuples) == sorted(itertools.product((0, 1, 2), repeat=n_r))
            for a, b in itertools.combinations(range(3**n_r), 2):
                agree = True
                for k in range(8):
                    agree = agree and branch_index(a + 1, k, n_r, 8) == branch_index(b + 1, k, n_r, 8)
                    shared = np.array_equal(tree.rates[a, : k + 1], tree.rates[b, : k + 1])
                    assert shared == agree
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_solver_sanity(reference_spec):
    with criterion(3, "solver reaches known optima; adjoint gradients match finite differences"):
        start = time.perf_counter()
        res = solve(clipped_quadratic(), np.array([0.0]))
        assert res.status == "converged" and abs(res.z_star[0] - 1.0) <= 1e-4
        res = solve(circle_constrained_linear(), np.array([0.5, -0.3]))
        assert res.status == "converged"
        assert np.max(np.abs(res.z_star - (-math.sqrt(0.5)))) <= 1e-4
        res = solve(rosenbrock(), np.array([-1.2, 1.0]), SolverConfig(inner_max_iters=500))
        assert res.status == "converged" and np.max(np.abs(res.z_star - 1.0)) <= 1e-4

        schedule = intruder_plan(reference_spec)
        problem, _ = build_problem(
            reference_spec.own_start,
            reference_spec.intruder_start,
            0,
            schedule,
            reference_spec.mpc,
        )
        rng = np.random.default_rng(99)
        for _ in range(10):
            z = rng.uniform(problem.lower, problem.upper)
            assert check_gradient(problem, z) <= 1e-5
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_4_nominal_violation(unconstrained_trace):
    with criterion(4, "unconstrained flight through the reference crossing violates the floor"):
        m = metrics(unconstrained_trace)
        rho = unconstrained_trace.spec.mpc.min_separation
        assert m["min_separation"] < rho, f"min separation {m['min_separation']:.2f} vs rho {rho}"
        assert _timings["unconstrained"] < 30.0


def test_criterion_5_both_controllers_safe(classic_trace, tree_trace):
    with criterion(5, "classic and scenario-tree controllers stay safe and reach the target"):
        rho = classic_trace.spec.mpc.min_separation
        for name, trace in (("classic", classic_trace), ("scenario-tree", tree_trace)):
            m = metrics(trace)
            assert m["min_separation"] >= rho - 1e-3, f"{name} min separation {m['min_separation']:.4f}"
            assert trace.arrived, f"{name} did not reach the target disc"
        assert _timings["classic"] < 300.0
        assert _timings["tree"] < 300.0


def test_criterion_6_conservatism_ordering(classic_trace, tree_trace):
    with criterion(6, "scenario-tree keeps at least classic separation before the crossing"):
        seps_classic = [s.separation for s in classic_trace.steps]
        seps_tree = [s.separation for s in tree_trace.steps]
        t_min = int(np.argmin(seps_classic))
        assert t_min < len(seps_tree)
        for k in range(t_min + 1):
            assert seps_tree[k] >= seps_classic[k], (
                f"stage {k}: tree {seps_tree[k]:.3f} < classic {seps_classic[k]:.3f}"
            )
        gap = seps_tree[t_min] - seps_classic[t_min]
        assert gap >= 1.0, f"gap at the minimum-separation stage is only {gap:.3f} m"


def test_criterion_7_intent_value(intent_spec):
    with criterion(7, "knowing the intruder's intent shortens the ownship path by at least 1%"):
        rho = intent_spec.mpc.min_separation
        lengths = {}
        for mode in (MpcMode.SCENARIO_TREE, MpcMode.CLASSIC, MpcMode.NO_INTENT):
            trace = run_closed_loop(replace(intent_spec, mpc=replace(intent_spec.mpc, mode=mode)))
            m = metrics(trace)
            assert trace.arrived, f"{mode.value} did not arrive"
            assert m["min_separation"] >= rho - 1e-3, f"{mode.value} unsafe"
            lengths[mode] = m["path_length"]
        for mode in (MpcMode.SCENARIO_TREE, MpcMode.CLASSIC):
            ratio = lengths[mode] / lengths[MpcMode.NO_INTENT]
            assert ratio <= 0.99, f"{mode.value} only {100 * (1 - ratio):.2f}% shorter"


def test_criterion_8_monte_carlo_robustness(mc_half_deg):
    with criterion(8, "all 20 disturbed runs respect the separation floor"):
        rho = mc_half_deg.spec.mpc.min_separation
        assert all(t.error is None for t in mc_half_deg.runs)
        per_run = [metrics(t)["min_separation"] for t in mc_half_deg.runs]
        assert len(per_run) == 20
        assert min(per_run) >= rho, f"worst run min separation {min(per_run):.3f}"
        assert mc_half_deg.aggregate["violation_runs"] == 0
        assert _timings["mc_0.5"] < 1800.0


def test_criterion_9_disturbance_propagation(mc_twentieth_deg, mc_quarter_deg, mc_half_deg):
    with criterion(9, "terminal intruder spread grows with the disturbance level"):
        spreads = [
            mc_twentieth_deg.aggregate["terminal_spread"]["max"],
            mc_quarter_deg.aggregate["terminal_spread"]["max"],
            mc_half_deg.aggregate["terminal_spread"]["max"],
        ]
        assert spreads[0] > 0.0
        assert spreads[0] < spreads[1] < spreads[2], f"spreads not monotone: {spreads}"
        assert mc_half_deg.aggregate["terminal_spread"]["common_step_index"] >= 60
        assert 10.0 <= spreads[2] <= 200.0, f"spread at ±0.5°/s is {spreads[2]:.1f} m"


def test_criterion_10_control_saturation(tree_trace):
    with criterion(10, "applied angular rates sit at a bound or zero at least 80% of the time"):
        bounds = tree_trace.spec.mpc.own_bounds
        rates = [s.applied.angular_rate for s in tree_trace.steps]
        anchors = (bounds.u_min, 0.0, bounds.u_max)
        near = [r for r in rates if min(abs(r - a) for a in anchors) <= 0.005]
        fraction = len(near) / len(rates)
        remainder = len(rates) - len(near)
        # The remainder reflects the finite-horizon approximation of the
        # infinite-horizon objective (transition and approach stages).
        print(
            f"saturation: {len(near)}/{len(rates)} = {fraction:.3f} "
            f"({remainder} interior rates from finite-horizon transients)"
        )
        assert fraction >= 0.80, f"only {fraction:.3f} of rates near {{u_min, 0, u_max}}"


def test_criterion_11_determinism_and_replay(reference_spec):
    with criterion(11, "fixed seeds reproduce byte-identical outputs and traces replay exactly"):
        # solve_ms is measured wall time, the one non-deterministic CSV
        # column; everything else must match byte for byte.
        def stable_csv(trace) -> str:
            return "\n".join(",".join(row.split(",")[:-1]) for row in trace_to_csv(trace).split("\n"))

        a = run_closed_loop(reference_spec)
        b = run_closed_loop(reference_spec)
        assert stable_csv(a) == stable_csv(b)
        assert dump_json(summary_doc(a)).encode() == dump_json(summary_doc(b)).encode()

        pose = reference_spec.own_start
        for s in a.steps:
            assert (pose.x, pose.y, pose.heading) == (s.own.x, s.own.y, s.own.heading)
            pose = step(pose, s.applied, reference_spec.mpc.dt)
        assert (pose.x, pose.y, pose.heading) == (a.own_final.x, a.own_final.y, a.own_final.heading)

        intr = reference_spec.intruder_start
        for s in a.steps:
            assert (intr.x, intr.y, intr.heading) == (s.intruder.x, s.intruder.y, s.intruder.heading)
            intr = step(intr, s.intruder_applied, reference_spec.mpc.dt)
