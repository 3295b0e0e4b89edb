"""Tests for the closed-loop simulation and Monte-Carlo batches."""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import intentmpc.mpc as mpc_module
import intentmpc.sim as sim_module
from intentmpc import (
    ControlBounds,
    ControlInput,
    Disturbance,
    MpcConfig,
    MpcMode,
    MpcWeights,
    Pose,
    ScenarioSpec,
    build_scenario_tree,
    metrics,
    run_closed_loop,
    run_monte_carlo,
    step,
)
from intentmpc.scenario_io import load_scenario, report_doc, trace_to_csv
from intentmpc.sim import SimStep, SimTrace, SimulationAborted, intruder_plan
from intentmpc.solver import NumericalDomainError, SolverConfig

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
OWN_BOUNDS = ControlBounds(v_min=6.0, v_max=9.0, u_min=-0.1, u_max=0.1)
INTRUDER_BOUNDS = ControlBounds(v_min=10.0, v_max=10.0, u_min=-0.07, u_max=0.07)
FAST_SOLVER = SolverConfig(outer_max_iters=8, inner_max_iters=120, optimality_tol=1e-3)
MPC_FIELDS = {f.name for f in fields(MpcConfig)}


def fail_at_step(monkeypatch, t_fail: int) -> None:
    """Make the simulator's solve_step raise a domain error at step t_fail."""
    real = sim_module.solve_step

    def failing(own, intruder, t, *args):
        if t == t_fail:
            raise NumericalDomainError("objective", np.zeros(1), np.ones(1, dtype=bool))
        return real(own, intruder, t, *args)

    monkeypatch.setattr(sim_module, "solve_step", failing)


def _spec(base: dict, overrides: dict) -> ScenarioSpec:
    """ScenarioSpec from flat settings; those of MpcConfig go into `mpc`."""
    base.update(overrides)
    mpc = MpcConfig(**{name: base.pop(name) for name in MPC_FIELDS & base.keys()})
    return ScenarioSpec(mpc=mpc, **base)


def quiet_spec(**overrides) -> ScenarioSpec:
    """Short run with the intruder far away (no conflict)."""
    base = dict(
        own_start=Pose(0, 0, 0),
        target=Pose(120, 0, 0),
        target_radius=20.0,
        intruder_start=Pose(5000, 5000, 0.0),
        intruder_target=Pose(6000, 5000, 0.0),
        own_bounds=OWN_BOUNDS,
        intruder_bounds=INTRUDER_BOUNDS,
        min_separation=50.0,
        horizon=8,
        robust_horizon=2,
        dt=1.0,
        weights=MpcWeights((0.01, 0.01, 0.0), (1, 1, 0.1), 3.0),
        mode=MpcMode.CLASSIC,
        disturbance=Disturbance(),
        max_steps=30,
        rng_seed=11,
        solver=FAST_SOLVER,
    )
    return _spec(base, overrides)


def conflict_spec(**overrides) -> ScenarioSpec:
    """Head-on mini encounter that violates separation when unconstrained."""
    base = dict(
        own_start=Pose(0, 0, 0),
        target=Pose(220, 0, 0),
        target_radius=25.0,
        intruder_start=Pose(120, 0, math.pi),
        intruder_target=Pose(-600, 0, math.pi),
        own_bounds=OWN_BOUNDS,
        intruder_bounds=INTRUDER_BOUNDS,
        min_separation=60.0,
        horizon=10,
        robust_horizon=2,
        dt=1.0,
        weights=MpcWeights((0.01, 0.01, 0.0), (1, 1, 0.1), 3.0),
        mode=MpcMode.UNCONSTRAINED,
        disturbance=Disturbance(),
        max_steps=40,
        rng_seed=5,
        solver=FAST_SOLVER,
    )
    return _spec(base, overrides)


def prefix_spec(**overrides) -> ScenarioSpec:
    """Classic head-on encounter whose first 8 steps are screened (no row can bind)."""
    return conflict_spec(**{"mode": MpcMode.CLASSIC, "intruder_start": Pose(400, 0, math.pi), **overrides})


def masked_csv(trace: SimTrace) -> list[str]:
    """The trace CSV's rows without the measured solve_ms column."""
    return [row.rsplit(",", 1)[0] for row in trace_to_csv(trace).split("\n")]


class TestClosedLoop:
    def test_quiet_run_arrives_straight(self):
        trace = run_closed_loop(quiet_spec())
        assert trace.arrived
        assert trace.terminal_status == "arrived"
        m = metrics(trace)
        assert m["violation_stages"] == 0
        # Distance to the 20 m arrival disc is 100 m; the path cannot be
        # shorter, and the straight run should not wander.
        assert 100.0 - 1e-6 <= m["path_length"] <= 9.0 * len(trace.steps) + 1e-6

    def test_replay_reproduces_poses_bitwise(self):
        trace = run_closed_loop(conflict_spec())
        pose = trace.spec.own_start
        for s in trace.steps:
            assert (pose.x, pose.y, pose.heading) == (s.own.x, s.own.y, s.own.heading)
            pose = step(pose, s.applied, trace.spec.mpc.dt)
        assert (pose.x, pose.y, pose.heading) == (
            trace.own_final.x,
            trace.own_final.y,
            trace.own_final.heading,
        )

    def test_intruder_matches_nominal_scenario_bitwise(self):
        spec = conflict_spec()
        trace = run_closed_loop(spec)
        schedule = intruder_plan(spec)
        rates = [schedule.rate_at(k) for k in range(len(trace.steps))]
        tree = build_scenario_tree(spec.intruder_start, rates, 0, spec.mpc.intruder_bounds, spec.mpc.dt)
        nominal = tree.trajectories[0].tolist()
        for s in trace.steps:
            assert [s.intruder.x, s.intruder.y, s.intruder.heading] == nominal[s.t]

    @pytest.mark.parametrize("scenario", ["reference_crossing.json", "intent_comparison.json"])
    def test_intruder_plan_stops_at_the_last_rate_a_run_reads(self, scenario):
        spec = load_scenario(SCENARIOS / scenario)
        cap = spec.max_steps + spec.mpc.horizon
        # The shipped schedules end before the cap, so capping them moves no output.
        assert len(intruder_plan(spec).angular_rates) < cap
        far = replace(spec, intruder_target=Pose(-1e9, 0.0, math.pi))
        assert len(intruder_plan(far).angular_rates) == cap

    def test_unconstrained_conflict_violates(self):
        trace = run_closed_loop(conflict_spec())
        m = metrics(trace)
        assert m["min_separation"] < 60.0
        assert m["violation_stages"] > 0
        assert trace.terminal_status == "violation_flagged"
        assert trace.arrived  # it still reaches the target disc

    def test_fixed_seed_bitwise_reproducible(self):
        deg = math.pi / 180.0
        spec = conflict_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg))
        a = run_closed_loop(spec)
        b = run_closed_loop(spec)
        mask = [",".join(row.split(",")[:-1]) for row in trace_to_csv(a).split("\n")]
        mask_b = [",".join(row.split(",")[:-1]) for row in trace_to_csv(b).split("\n")]
        assert mask == mask_b

    def test_disturbance_draws_are_clamped(self):
        spec = conflict_spec(disturbance=Disturbance("uniform", -10.0, 10.0))
        trace = run_closed_loop(spec)
        for s in trace.steps:
            assert INTRUDER_BOUNDS.u_min <= s.intruder_applied.angular_rate <= INTRUDER_BOUNDS.u_max

    @pytest.mark.parametrize("lo, hi", [(0.0, math.inf), (-math.inf, -math.inf), (-1e308, 1e308)])
    def test_disturbance_needs_a_finite_range(self, lo, hi):
        # numpy's uniform(lo, hi) would raise OverflowError at the first step, which no run catches;
        # the message starts with a field name, so the scenario parser can name the key.
        with pytest.raises(ValueError, match=r"^lo and hi must span a finite range"):
            Disturbance("uniform", lo, hi)

    def test_prearrived_start_has_no_steps(self):
        trace = run_closed_loop(quiet_spec(own_start=Pose(110, 0, 0)))
        assert trace.arrived and not trace.steps

    def test_domain_error_aborts_with_partial_trace(self, monkeypatch):
        fail_at_step(monkeypatch, 2)
        with pytest.raises(SimulationAborted, match="step 2") as err:
            run_closed_loop(quiet_spec())
        assert [s.t for s in err.value.trace.steps] == [0, 1]
        assert not err.value.trace.arrived
        assert err.value.trace.error == str(err.value)

    def test_no_conflict_min_separation_matches_nominal_geometry(self):
        # Receding intruder: separation is minimal at t=0 for any ownship
        # policy, so the closed loop must report exactly the value a
        # pure-Dubins ownship rollout would.
        from intentmpc import control_schedule, separation, shortest_path
        from intentmpc.sim import intruder_plan

        spec = quiet_spec()
        trace = run_closed_loop(spec)
        m = metrics(trace)

        cfg = spec.mpc
        own_radius = cfg.own_bounds.v_max / cfg.own_bounds.u_max
        own_path = shortest_path(spec.own_start, cfg.target, own_radius)
        own_sched = control_schedule(own_path, cfg.own_bounds.v_max, cfg.dt)
        own_nominal = [spec.own_start]
        for rate in own_sched.angular_rates:
            own_nominal.append(step(own_nominal[-1], ControlInput(cfg.own_bounds.v_max, rate), cfg.dt))
        intr_sched = intruder_plan(spec)
        intr_nominal = [spec.intruder_start]
        for k in range(len(own_nominal) - 1):
            intr_nominal.append(
                step(intr_nominal[-1], ControlInput(cfg.intruder_bounds.v_max, intr_sched.rate_at(k)), cfg.dt)
            )
        oracle = min(separation(a, b) for a, b in zip(own_nominal, intr_nominal))
        assert m["min_separation"] == oracle
        assert m["min_separation_time"] == 0
        assert trace.arrived


class TestMetrics:
    def _synthetic(self, poses_own, poses_intr, speeds, rho=100.0) -> SimTrace:
        spec = quiet_spec(min_separation=rho)
        steps = [
            SimStep(
                t=k,
                own=poses_own[k],
                intruder=poses_intr[k],
                applied=ControlInput(speeds[k], 0.0),
                intruder_applied=ControlInput(10.0, 0.0),
                separation=math.hypot(
                    poses_own[k].x - poses_intr[k].x, poses_own[k].y - poses_intr[k].y
                ),
                solver_status="converged",
                solve_seconds=0.0,
                inner_iters=1,
            )
            for k in range(len(poses_own))
        ]
        return SimTrace(
            spec=spec,
            steps=steps,
            own_final=poses_own[-1],
            intruder_final=poses_intr[-1],
            arrived=False,
            terminal_status="max_steps",
        )

    def test_two_step_path_length(self):
        trace = self._synthetic(
            [Pose(0, 0, 0), Pose(10, 0, 0)],
            [Pose(500, 0, 0), Pose(490, 0, 0)],
            [10.0, 10.0],
        )
        assert metrics(trace)["path_length"] == 20.0

    def test_three_four_five_separation(self):
        trace = self._synthetic(
            [Pose(0, 0, 0), Pose(0, 0, 0)],
            [Pose(400, 0, 0), Pose(3, 4, 0)],
            [10.0, 10.0],
        )
        m = metrics(trace)
        assert m["min_separation"] == 5.0
        assert m["min_separation_time"] == 1
        assert m["violation_stages"] == 1

    def test_violation_count_zero_iff_min_above_rho(self):
        trace = self._synthetic(
            [Pose(0, 0, 0), Pose(10, 0, 0)],
            [Pose(200, 0, 0), Pose(150, 0, 0)],
            [10.0, 10.0],
        )
        m = metrics(trace)
        assert m["violation_stages"] == 0
        assert m["min_separation"] >= trace.spec.mpc.min_separation

    def test_empty_trace_rejected(self):
        trace = run_closed_loop(quiet_spec(own_start=Pose(110, 0, 0)))
        with pytest.raises(ValueError):
            metrics(trace)


class TestMonteCarlo:
    def test_single_run_matches_closed_loop(self):
        spec = quiet_spec()
        report = run_monte_carlo(spec, runs=1)
        solo = run_closed_loop(replace(spec, rng_seed=spec.rng_seed + 0))
        assert metrics(report.runs[0]) == metrics(solo)
        assert report.aggregate["min_min_separation"] == metrics(solo)["min_separation"]

    def test_seed_determinism(self):
        deg = math.pi / 180.0
        spec = conflict_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg))
        a = run_monte_carlo(spec, runs=3)
        b = run_monte_carlo(spec, runs=3)
        assert report_doc(a) == report_doc(b)

    def test_runs_use_derived_seeds(self):
        deg = math.pi / 180.0
        spec = conflict_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg))
        report = run_monte_carlo(spec, runs=3)
        assert [t.spec.rng_seed for t in report.runs] == [spec.rng_seed, spec.rng_seed + 1, spec.rng_seed + 2]
        third = run_closed_loop(replace(spec, rng_seed=spec.rng_seed + 2))
        assert metrics(report.runs[2]) == metrics(third)

    def test_spread_grows_with_disturbance(self):
        deg = math.pi / 180.0
        small = conflict_spec(disturbance=Disturbance("uniform", -0.05 * deg, 0.05 * deg))
        large = conflict_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg))
        r_small = run_monte_carlo(small, runs=4)
        r_large = run_monte_carlo(large, runs=4)
        assert r_large.aggregate["terminal_spread"]["max"] > r_small.aggregate["terminal_spread"]["max"]

    def test_parallel_matches_serial(self):
        deg = math.pi / 180.0
        spec = conflict_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg))
        # An odd run count leaves the two workers uneven shares.
        serial = run_monte_carlo(spec, runs=3, max_workers=1)
        parallel = run_monte_carlo(spec, runs=3, max_workers=2)
        assert report_doc(serial) == report_doc(parallel)

    @pytest.mark.parametrize(
        "workers, runs, pending, started",
        [(50, 2, 3, [3]), (2, 20, 21, [2]), (2, 20, 1, [1]), (2, 20, 0, []), (1, 20, 21, [])],
        ids=["50-2-3", "2-20-21", "2-20-1", "2-20-0", "1-20-21"],
    )
    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch, workers, runs, pending, started):
        # Fork starts every worker at once; the fake pool starts none.  The
        # pool's tasks are the runs that leave the shared prefix: the first
        # `pending` runs, the nominal run first.  One worker runs them all
        # to the end in this process.
        requested, pooled = [], []
        deg = math.pi / 180.0
        spec = quiet_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg))

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        def fake_run(s, memo=None, screened_only=False):
            task = 0 if s.disturbance.kind == "none" else s.rng_seed - spec.rng_seed + 1
            if task < pending:
                if screened_only:
                    return None
                pooled.append(task)
            return SimTrace(s, [], s.own_start, s.intruder_start, False, "max_steps")

        monkeypatch.setattr(sim_module, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(sim_module, "run_closed_loop", fake_run)
        report = sim_module.run_monte_carlo(spec, runs=runs, max_workers=workers)
        assert requested == started
        assert pooled == list(range(pending))
        assert len(report.runs) == runs
        assert [t.spec.rng_seed for t in report.runs] == [spec.rng_seed + i for i in range(runs)]
        assert report.nominal.spec.disturbance.kind == "none"

    @pytest.mark.parametrize(
        "make_spec, workers, started",
        [(quiet_spec, 1, []), (quiet_spec, 2, []), (prefix_spec, 1, []), (prefix_spec, 2, [2])],
        ids=["screened-1", "screened-2", "prefix-1", "prefix-2"],
    )
    def test_batch_runs_equal_runs_without_a_memo(self, monkeypatch, make_spec, workers, started):
        # Every quiet step is screened, so its runs never leave the shared
        # prefix and no pool starts; the head-on runs leave it at step 8.
        deg = math.pi / 180.0
        spec = make_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg))
        requested = []

        class RecordingPool(sim_module.ProcessPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(sim_module, "ProcessPoolExecutor", RecordingPool)
        report = run_monte_carlo(spec, runs=3, max_workers=workers)
        assert requested == started
        batch = [report.nominal, *report.runs]
        solo = [run_closed_loop(t.spec) for t in batch]
        for got, want in zip(batch, solo):
            assert masked_csv(got) == masked_csv(want)
        assert report_doc(report) == report_doc(sim_module.MonteCarloReport(spec, solo[1:], solo[0]))

    def test_shared_steps_are_solved_once(self, monkeypatch):
        # Every quiet step is screened, so the four runs share every step.
        deg = math.pi / 180.0
        solves = []
        real = mpc_module.solve
        monkeypatch.setattr(mpc_module, "solve", lambda *args: solves.append(args) or real(*args))
        report = run_monte_carlo(quiet_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg)), runs=3)
        assert len(solves) == len(report.nominal.steps)
        assert all(len(t.steps) == len(solves) for t in report.runs)

    def test_failed_runs_recorded_batch_continues(self, monkeypatch):
        spec = quiet_spec()
        real = sim_module.run_closed_loop
        calls = {"n": 0}

        def flaky(s, *args):
            calls["n"] += 1
            if s.rng_seed == spec.rng_seed + 1:
                raise SimulationAborted("boom", real(replace(s, max_steps=2)))
            return real(s, *args)

        monkeypatch.setattr(sim_module, "run_closed_loop", flaky)
        report = sim_module.run_monte_carlo(spec, runs=3)
        assert [t.error for t in report.runs] == [None, "boom", None]
        assert report.aggregate["min_min_separation"] > 0.0

    def test_nominal_abort_is_recorded_and_blocks_the_aggregate(self, monkeypatch):
        real = sim_module.run_closed_loop

        def nominal_aborts(s, *args):
            if s.disturbance.kind == "none":
                raise SimulationAborted("boom", real(replace(s, max_steps=2)))
            return real(s, *args)

        monkeypatch.setattr(sim_module, "run_closed_loop", nominal_aborts)
        deg = math.pi / 180.0
        report = sim_module.run_monte_carlo(quiet_spec(disturbance=Disturbance("uniform", -0.5 * deg, 0.5 * deg)), runs=2)
        assert [t.error for t in report.runs] == [None, None]
        assert report.nominal.error == "boom" and len(report.nominal.steps) == 2
        with pytest.raises(RuntimeError, match="nominal run failed"):
            report.aggregate
