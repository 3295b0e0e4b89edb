"""Tests for the receding-horizon transcription and its modes."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import intentmpc.mpc as mpc_module
from intentmpc import (
    ControlInput,
    ControlBounds,
    ControlSchedule,
    MpcConfig,
    MpcMode,
    MpcWeights,
    Pose,
    build_problem,
    control_schedule,
    separation,
    shortest_path,
    solve_step,
)
from intentmpc.mpc import MpcSolution, cold_start, shift_warm_start, wrap_angles
from intentmpc.scenario_io import load_scenario
from intentmpc.sim import intruder_plan
from intentmpc.solver import NumericalDomainError, SolverConfig, SolverResult, _rank, solve
from oracle_derivatives import check_gradient, jacobian
from oracle_dynamics import rollout

OWN_BOUNDS = ControlBounds(v_min=6.0, v_max=9.0, u_min=-0.1, u_max=0.1)
INTRUDER_BOUNDS = ControlBounds(v_min=10.0, v_max=10.0, u_min=-0.07, u_max=0.07)
INTRUDER_RADIUS = INTRUDER_BOUNDS.v_max / INTRUDER_BOUNDS.u_max
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# Position-dominant tracking with terminal heading alignment.
DEFAULT_WEIGHTS = MpcWeights((0.01, 0.01, 0.0), (1.0, 1.0, 10.0), 100.0)


def config(mode=MpcMode.SCENARIO_TREE, horizon=30, robust_horizon=3, weights=DEFAULT_WEIGHTS):
    return MpcConfig(
        horizon=horizon,
        robust_horizon=robust_horizon,
        dt=1.0,
        min_separation=150.0,
        weights=weights,
        own_bounds=OWN_BOUNDS,
        intruder_bounds=INTRUDER_BOUNDS,
        mode=mode,
        target=Pose(900.0, 0.0, 0.0),
        solver=SolverConfig(outer_max_iters=12, inner_max_iters=200, optimality_tol=5e-4),
    )


def crossing_schedule():
    h = 3 * math.pi / 4
    path = shortest_path(Pose(800, -350, h), Pose(800 - 636.4, -350 + 636.4, h), INTRUDER_RADIUS)
    return control_schedule(path, INTRUDER_BOUNDS.v_max, 1.0)


def count_tree_calls(monkeypatch) -> list:
    """Record every build_scenario_tree call that mpc makes."""
    calls = []
    real = mpc_module.build_scenario_tree
    monkeypatch.setattr(mpc_module, "build_scenario_tree", lambda *args: calls.append(args) or real(*args))
    return calls


Q, QF, R = (1.0, 1.0, 0.0), (1.0, 1.0, 1.0), 1.0
NAN, INF = math.nan, math.inf


class TestWeights:
    @pytest.mark.parametrize(
        "q, qf, r, field",
        [
            ((NAN, 1.0, 0.0), QF, R, "state_weight"),
            ((1.0, INF, 0.0), QF, R, "state_weight"),
            ((-0.1, 1.0, 0.0), QF, R, "state_weight"),
            (np.eye(3), QF, R, "state_weight"),
            (Q, (1.0, NAN, 1.0), R, "terminal_weight"),
            (Q, (INF, 1.0, 1.0), R, "terminal_weight"),
            (Q, (1.0, 1.0, 0.0), R, "terminal_weight"),
            (Q, QF, NAN, "rate_smoothing"),
            (Q, QF, INF, "rate_smoothing"),
            (Q, QF, 0.0, "rate_smoothing"),
            (Q, QF, -1.0, "rate_smoothing"),
        ],
        ids=["Q-nan", "Q-inf", "Q-negative", "Q-matrix", "Qf-nan", "Qf-inf", "Qf-zero", "R-nan", "R-inf", "R-zero", "R-negative"],
    )
    def test_rejects_invalid_entry_by_name(self, q, qf, r, field):
        with pytest.raises(ValueError, match=field):
            MpcWeights(q, qf, r)


class TestConfig:
    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_must_be_positive(self, horizon):
        # Rejected on construction, not at the first solve_step's tree build.
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            config(horizon=horizon, robust_horizon=0)

    @pytest.mark.parametrize("value", [INF, -INF, NAN], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", ["dt", "min_separation"])
    @pytest.mark.parametrize("mode", [MpcMode.SCENARIO_TREE, MpcMode.UNCONSTRAINED], ids=lambda m: m.value)
    def test_rejects_non_finite_value_by_name(self, mode, name, value):
        # The name leads the message, so the scenario parser can point at its key.
        with pytest.raises(ValueError, match=f"^{name} must be"):
            replace(config(mode), **{name: value})


class TestBuildProblem:
    def test_scenario_tree_dimensions(self):
        problem, tree = build_problem(Pose(0, 0, 0), Pose(800, -350, 2.0), 0, crossing_schedule(), config())
        assert problem.lower.shape == problem.upper.shape == (60,)
        z = cold_start(config())
        assert problem.constraints(z).size == 27 * 31
        assert len(tree.trajectories) == 27

    def test_classic_single_scenario(self):
        cfg = config(mode=MpcMode.CLASSIC)
        problem, tree = build_problem(Pose(0, 0, 0), Pose(800, -350, 2.0), 0, crossing_schedule(), cfg)
        assert problem.constraints(cold_start(cfg)).size == 31
        assert len(tree.trajectories) == 1

    def test_unconstrained_has_no_constraints(self, monkeypatch):
        # No scenario and no tree built: the counter sees only the classic call.
        calls = count_tree_calls(monkeypatch)
        cfg = config(mode=MpcMode.UNCONSTRAINED)
        problem, tree = build_problem(Pose(0, 0, 0), Pose(10, 10, 0), 0, crossing_schedule(), cfg)
        assert problem.constraints(cold_start(cfg)).size == 0
        assert tree.trajectories.shape == (0, 31, 3) and tree.rates.shape == (0, 30)
        build_problem(Pose(0, 0, 0), Pose(10, 10, 0), 0, crossing_schedule(), config(MpcMode.CLASSIC))
        assert len(calls) == 1

    def test_nominal_indexes_absolute_time(self):
        cfg = config(mode=MpcMode.CLASSIC, horizon=5, robust_horizon=0)
        schedule = ControlSchedule(angular_rates=(0.01, 0.02, 0.03))
        _, tree = build_problem(Pose(0, 0, 0), Pose(0, 0, 0), 2, schedule, cfg)
        # Index 2 of the schedule first, then zeros past the end.
        assert tree.rates[0].tolist() == [0.03, 0.0, 0.0, 0.0, 0.0]

    def test_rejects_negative_step(self):
        with pytest.raises(ValueError, match="absolute step"):
            build_problem(Pose(0, 0, 0), Pose(10, 10, 0), -1, crossing_schedule(), config())

    def test_no_intent_predicts_straight_ray(self):
        cfg = config(mode=MpcMode.NO_INTENT)
        intruder = Pose(500.0, 100.0, 2.5)
        _, tree = build_problem(Pose(0, 0, 0), intruder, 4, crossing_schedule(), cfg)
        assert len(tree.trajectories) == 1
        traj = tree.trajectories[0].tolist()
        assert all(heading == intruder.heading for _, _, heading in traj)
        for k, (x, y, _) in enumerate(traj):
            assert x == pytest.approx(intruder.x + 10.0 * k * math.cos(intruder.heading), abs=1e-9)
            assert y == pytest.approx(intruder.y + 10.0 * k * math.sin(intruder.heading), abs=1e-9)

    def test_box_bounds_are_ownship_bounds(self):
        problem, _ = build_problem(Pose(0, 0, 0), Pose(800, 0, 2.0), 0, crossing_schedule(), config())
        n = 30
        assert np.all(problem.lower[:n] == OWN_BOUNDS.u_min) and np.all(problem.upper[:n] == OWN_BOUNDS.u_max)
        assert np.all(problem.lower[n:] == OWN_BOUNDS.v_min) and np.all(problem.upper[n:] == OWN_BOUNDS.v_max)

    @pytest.mark.parametrize("mode", list(MpcMode), ids=lambda m: m.value)
    def test_gradients_match_finite_differences(self, mode):
        problem, _ = build_problem(Pose(100, 20, 0.1), Pose(600, -150, 2.3), 5, crossing_schedule(), config(mode))
        rng = np.random.default_rng(3)
        for _ in range(3):
            z = rng.uniform(problem.lower, problem.upper)
            assert check_gradient(problem, z) <= 1e-5

    def test_objective_includes_constant_stage_zero_term(self):
        cfg = config(mode=MpcMode.UNCONSTRAINED)
        own = Pose(0.0, 0.0, 0.0)
        problem, _ = build_problem(own, Pose(1e4, 1e4, 0), 0, crossing_schedule(), cfg)
        z = cold_start(cfg)
        # Stage-0 error is fixed by the initial state; verify it is priced in.
        e0 = np.array([own.x - 900.0, own.y, 0.0])
        base = float(np.dot(e0 * cfg.weights.state_weight, e0))
        assert problem.objective(z) >= base


CALLABLES = ("objective", "objective_grad", "constraints", "constraints_weighted_grad")


def row_count(args):
    """Constraint rows of the instance build_problem(*args), counted on a
    separate instance so that no problem under test evaluates an extra z."""
    problem, _ = build_problem(*args)
    return problem.constraints(problem.lower).size


def evaluate(problem, rows, name, z):
    if name == "constraints_weighted_grad":
        w = np.random.default_rng(1).uniform(0.0, 2.0, rows)
        w[::2] = 0.0
        return problem.constraints_weighted_grad(z, w)
    return getattr(problem, name)(z)


@st.composite
def call_sequences(draw):
    """A mode, horizon, pool of z vectors and a call sequence over them.

    Each call names a pool entry (so entries are revisited), a callable, and
    whether to toggle one of the entry's first two coordinates in place first
    (so an array also returns to bytes it had before).
    """
    mode = draw(st.sampled_from(list(MpcMode)))
    horizon = draw(st.integers(1, 12))
    pool_size = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    calls = st.tuples(st.integers(0, pool_size - 1), st.sampled_from(CALLABLES), st.sampled_from((None, 0, 1)))
    return mode, horizon, pool_size, seed, draw(st.lists(calls, min_size=1, max_size=20))


def poses():
    coord = st.floats(-1500.0, 1500.0)
    return st.builds(Pose, coord, coord, st.floats(-math.pi, math.pi))


@st.composite
def encounters(draw, max_horizon=12):
    """A config (mode, horizon, dt, weights, target), ownship and intruder poses, a step and a seed for z."""
    pose = poses()
    mode = draw(st.sampled_from(list(MpcMode)))
    horizon = draw(st.integers(1, max_horizon))
    diag = st.tuples(*[st.floats(0.01, 10.0)] * 3)
    weights = MpcWeights(draw(diag), draw(diag), draw(st.floats(0.01, 100.0)))
    cfg = replace(
        config(mode, horizon, draw(st.integers(0, min(3, horizon)))),
        dt=draw(st.floats(0.1, 2.0)),
        weights=weights,
        target=draw(pose),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return cfg, draw(pose), draw(pose), draw(st.integers(0, 40)), seed


class TestSharedRecord:
    @settings(max_examples=60, deadline=None)
    @given(call_sequences())
    def test_every_call_matches_a_fresh_problem(self, case):
        mode, horizon, pool_size, seed, calls = case
        args = (Pose(100, 20, 0.1), Pose(300, -60, 2.3), 5, crossing_schedule(), config(mode, horizon, min(2, horizon)))
        problem, _ = build_problem(*args)
        rows = row_count(args)
        rng = np.random.default_rng(seed)
        pool = [rng.uniform(problem.lower, problem.upper) for _ in range(pool_size)]
        toggled = [rng.uniform(problem.lower, problem.upper) for _ in range(pool_size)]
        for i, name, flip in calls:
            if flip is not None:
                z, other = pool[i], toggled[i]
                z[flip], other[flip] = other[flip], z[flip]
            fresh, _ = build_problem(*args)
            assert np.array_equal(evaluate(problem, rows, name, pool[i]), evaluate(fresh, rows, name, pool[i].copy()))

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(MpcMode)), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_returned_arrays_are_fresh(self, mode, horizon, seed):
        # The solver (and scipy, which keeps the gradient by reference) may
        # hold or scribble on what a callable returns: neither may reach the
        # record or another call's result.
        args = (Pose(100, 20, 0.1), Pose(300, -60, 2.3), 5, crossing_schedule(), config(mode, horizon, min(2, horizon)))
        problem, _ = build_problem(*args)
        rows = row_count(args)
        rng = np.random.default_rng(seed)
        z0, z1 = rng.uniform(problem.lower, problem.upper), rng.uniform(problem.lower, problem.upper)
        for z in (z0, z0, z1, z0):
            kept = []
            for name in CALLABLES[1:]:
                fresh, _ = build_problem(*args)
                got = evaluate(problem, rows, name, z)
                assert np.array_equal(got, evaluate(fresh, rows, name, z.copy()))
                kept.append((got, got.copy()))
            for got, snapshot in kept:
                assert np.array_equal(got, snapshot)
                got.fill(np.nan)

    @settings(max_examples=60, deadline=None)
    @given(encounters())
    def test_interleaved_and_cut_short_evaluations_match_a_fresh_problem(self, case):
        # The workspace is refilled in place at each new z, and the gradient
        # and J^T w each pull back their own costate block.  J^T w at two
        # weights around the gradient at one z, revisits of an earlier z, a
        # solve stopped by a NumericalDomainError at a non-finite z, and a fill
        # cut short by a floating-point error must each leave every later call
        # equal, byte for byte, to the same call on a fresh problem.
        cfg, own, intruder, t, seed = case
        args = (own, intruder, t, crossing_schedule(), cfg)
        problem, _ = build_problem(*args)
        rows = row_count(args)
        rng = np.random.default_rng(seed)
        z0, z1 = (rng.uniform(problem.lower, problem.upper) for _ in range(2))
        w0, w1 = (rng.uniform(0.0, 2.0, rows) * (rng.random(rows) < 0.5) for _ in range(2))

        def check(name, z, *w):
            fresh, _ = build_problem(*args)
            assert np.array_equal(getattr(problem, name)(z, *w), getattr(fresh, name)(z.copy(), *w))

        check("objective_grad", z0)
        check("constraints_weighted_grad", z0, w0)
        check("objective_grad", z0)
        check("constraints_weighted_grad", z0, w1)
        check("objective", z1)
        check("constraints", z1)
        check("constraints_weighted_grad", z1, w0)
        check("constraints_weighted_grad", z0, w1)
        check("objective_grad", z0)
        check("objective", z0)

        spoilt = z1.copy()
        spoilt[rng.integers(spoilt.size)] = NAN
        with pytest.raises(NumericalDomainError):
            solve(problem, spoilt, cfg.solver)
        check("objective_grad", z0)
        check("constraints_weighted_grad", z0, w0)
        check("constraints", z0)

        # cos(inf) raises here after the headings are overwritten; z0 was the last z filled.
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            problem.objective(np.full_like(z0, INF))
        check("objective", z0)
        check("objective_grad", z0)
        check("constraints", z0)
        check("constraints_weighted_grad", z0, w1)


class TestPoseByPoseOracle:
    """The cumulative-sum transcription against a direct evaluation: the
    ownship rolled out pose by pose with `rollout`, tracking errors taken per
    pose and separation rows per scenario and stage."""

    @settings(max_examples=60, deadline=None)
    @given(encounters())
    def test_objective_and_constraints_match(self, case):
        cfg, own, intruder, t, seed = case
        problem, tree = build_problem(own, intruder, t, crossing_schedule(), cfg)
        n = cfg.horizon
        z = np.random.default_rng(seed).uniform(problem.lower, problem.upper)
        poses = rollout(own, [ControlInput(speed=z[n + k], angular_rate=z[k]) for k in range(n)], cfg.dt)

        target = cfg.target
        errors = np.array([(p.x - target.x, p.y - target.y, p.heading - target.heading) for p in poses])
        errors[:, 2] = wrap_angles(errors[:, 2])
        weights = cfg.weights
        expected = sum(float(np.sum(weights.state_weight * e**2)) for e in errors[:n])
        expected += float(np.sum(weights.terminal_weight * errors[n] ** 2))
        expected += weights.rate_smoothing * sum((z[k + 1] - z[k]) ** 2 for k in range(n - 1))
        assert problem.objective(z) == pytest.approx(expected, rel=1e-9)

        if cfg.mode is MpcMode.UNCONSTRAINED:
            assert problem.constraints(z).size == 0
            return
        rho_sq = cfg.min_separation**2
        dist_sq = np.array(
            [[(p.x - x) ** 2 + (p.y - y) ** 2 for p, (x, y, _) in zip(poses, scenario)] for scenario in tree.trajectories.tolist()]
        ).ravel()
        # Rows are differences of two squares; the tolerance is relative to the larger one.
        error = np.abs(problem.constraints(z) - (rho_sq - dist_sq))
        assert np.all(error <= 1e-9 * (rho_sq + dist_sq)), error.max()


class TestGradientsOnRandomEncounters:
    @pytest.mark.parametrize("mode", list(MpcMode), ids=lambda m: m.value)
    @settings(max_examples=25, deadline=None)
    @given(encounters(max_horizon=30))
    def test_check_gradient_passes(self, mode, case):
        cfg, own, intruder, t, seed = case
        problem, _ = build_problem(own, intruder, t, crossing_schedule(), replace(cfg, mode=mode))
        z = np.random.default_rng(seed).uniform(problem.lower, problem.upper)
        assert check_gradient(problem, z) <= 1e-5


EPS = float(np.finfo(float).eps)
FD_STEP = EPS ** (1.0 / 3.0)  # check_gradient's step per max(1, |z_i|)


def with_error(problem, name, row, entry):
    """The problem with one derivative off in one entry by 1e-4 of that
    gradient's magnitude, floored at 1: the output of `name`, or for name
    "jacobian" entry (row, entry) of J, which J^T w then carries as that
    error times w[row]."""
    if name == "jacobian":
        jtw = problem.constraints_weighted_grad

        def wrong_row(z, w):
            unit = np.zeros(w.size)
            unit[row] = 1.0
            size = 1e-4 * max(1.0, float(np.max(np.abs(jtw(z, unit)))))
            out = np.array(jtw(z, w), dtype=float)
            out[entry] += size * w[row]
            return out

        return replace(problem, constraints_weighted_grad=wrong_row)
    fn = getattr(problem, name)

    def wrong(z, *w):
        out = np.array(fn(z, *w), dtype=float)
        out[entry] += 1e-4 * max(1.0, float(np.max(np.abs(out))))
        return out

    return replace(problem, **{name: wrong})


def remembering_rows(problem):
    """The problem with `constraints` and J^T w computed once per argument and
    then read back: the oracle's Jacobian rows and FD Jacobian at one z serve
    every mutation that leaves them unchanged, and the rest build on them."""
    memo = {}

    def remember(fn):
        def remembered(z, *w):
            key = (fn.__name__, z.tobytes(), *(x.tobytes() for x in w))
            if key not in memo:
                memo[key] = np.array(fn(z, *w), dtype=float)
                memo[key].flags.writeable = False
            return memo[key]

        return remembered

    return replace(
        problem, constraints=remember(problem.constraints), constraints_weighted_grad=remember(problem.constraints_weighted_grad)
    )


def unresolved(values, grads, z):
    """Per function and entry, whether the FD roundoff check_gradient forgives,
    eps * |f| / h_i, exceeds 4e-5 of the gradient's magnitude: there a 1e-4
    error can hide in roundoff, since no central difference at that step resolves it."""
    scale = np.maximum(1.0, np.max(np.abs(grads), axis=1))
    allowance = np.multiply.outer(np.abs(values), EPS / (FD_STEP * np.maximum(1.0, np.abs(z))))
    return allowance > 4e-5 * scale[:, None]


class TestCheckGradientResolution:
    """check_gradient forgives the FD roundoff of a large function, and still
    flags a 1e-4 error in one entry wherever the FD resolves it."""

    def test_small_gradient_of_a_large_objective_passes(self):
        # Horizon 1, target far off the heading: f is about 2.5e6 and its
        # gradient about 1, so the central difference's roundoff, about
        # eps^(2/3) * |f| = 9e-5, is more than 1e-5 of the gradient.
        weights = MpcWeights((1.8, 9.5, 1.4), (1.7, 9.2, 3.2), 1.0)
        cfg = replace(config(MpcMode.SCENARIO_TREE, 1, 1), dt=0.109, weights=weights, target=Pose(0, -122, -1.32))
        problem, _ = build_problem(Pose(2, 241, 0), Pose(0, 0, 0), 0, crossing_schedule(), cfg)
        z = cold_start(cfg)
        g = problem.objective_grad(z)
        h = FD_STEP * np.maximum(1.0, np.abs(z))
        fd = [(problem.objective(z + hi * e) - problem.objective(z - hi * e)) / (2.0 * hi) for hi, e in zip(h, np.eye(2))]
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(g))) > 1e-5  # the discrepancy is roundoff
        assert check_gradient(problem, z) <= 1e-5

    def test_error_in_any_entry_is_flagged_on_the_crossing(self):
        spec = load_scenario(SCENARIOS / "reference_crossing.json")
        problem = remembering_rows(build_problem(spec.own_start, spec.intruder_start, 0, intruder_plan(spec), spec.mpc)[0])
        z = np.random.default_rng(99).uniform(problem.lower, problem.upper)
        assert check_gradient(problem, z) <= 1e-5
        # Every entry of the objective's and every row's gradient is resolved here.
        jac = jacobian(problem, z)
        assert not unresolved([problem.objective(z)], [problem.objective_grad(z)], z).any()
        assert not unresolved(problem.constraints(z), jac, z).any()
        rows, n = jac.shape
        for entry in range(n):
            assert check_gradient(with_error(problem, "objective_grad", 0, entry), z) > 1e-5
            assert check_gradient(with_error(problem, "constraints_weighted_grad", 0, entry), z) > 1e-5
        for row in range(0, rows, 28):  # 30 rows spread over the scenarios and stages
            entry = row % n
            assert check_gradient(with_error(problem, "jacobian", row, entry), z) > 1e-5

    @settings(max_examples=60, deadline=None)
    @given(encounters(), st.sampled_from(["objective_grad", "jacobian"]), st.data())
    def test_error_in_any_resolved_entry_is_flagged(self, case, name, data):
        cfg, own, intruder, t, seed = case
        problem, _ = build_problem(own, intruder, t, crossing_schedule(), cfg)
        z = np.random.default_rng(seed).uniform(problem.lower, problem.upper)
        if name == "objective_grad":
            values, grads = [problem.objective(z)], [problem.objective_grad(z)]
        else:
            values, grads = problem.constraints(z), jacobian(problem, z)
        assume(len(values) > 0)  # unconstrained: no row
        row = data.draw(st.integers(0, len(values) - 1))
        entry = data.draw(st.integers(0, z.size - 1))
        assume(not unresolved(values, grads, z)[row, entry])
        assert check_gradient(with_error(problem, name, row, entry), z) > 1e-5


class TestModesShareTheTranscription:
    @settings(max_examples=40, deadline=None)
    @given(encounters())
    def test_unconstrained_is_classic_without_rows(self, case):
        cfg, own, intruder, t, seed = case
        free, _ = build_problem(own, intruder, t, crossing_schedule(), replace(cfg, mode=MpcMode.UNCONSTRAINED))
        classic, _ = build_problem(own, intruder, t, crossing_schedule(), replace(cfg, mode=MpcMode.CLASSIC))
        z = np.random.default_rng(seed).uniform(free.lower, free.upper)
        assert free.constraints(z).shape == (0,)
        assert free.objective(z) == classic.objective(z)
        assert free.objective_grad(z).tobytes() == classic.objective_grad(z).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(encounters())
    def test_no_intent_is_classic_on_an_all_zero_schedule(self, case):
        cfg, own, intruder, t, seed = case
        straight = ControlSchedule(angular_rates=(0.0,) * (t + cfg.horizon))
        no_intent, _ = build_problem(own, intruder, t, crossing_schedule(), replace(cfg, mode=MpcMode.NO_INTENT))
        classic, _ = build_problem(own, intruder, t, straight, replace(cfg, mode=MpcMode.CLASSIC))
        rng = np.random.default_rng(seed)
        z = rng.uniform(classic.lower, classic.upper)
        w = rng.uniform(0.0, 2.0, cfg.horizon + 1)
        assert no_intent.objective(z) == classic.objective(z)
        assert no_intent.objective_grad(z).tobytes() == classic.objective_grad(z).tobytes()
        assert no_intent.constraints(z).tobytes() == classic.constraints(z).tobytes()
        jtw = no_intent.constraints_weighted_grad(z, w)
        assert jtw.tobytes() == classic.constraints_weighted_grad(z, w).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(encounters())
    def test_tree_without_robust_stages_is_classic(self, case):
        cfg, own, intruder, t, seed = case
        tree, _ = build_problem(own, intruder, t, crossing_schedule(), replace(cfg, mode=MpcMode.SCENARIO_TREE, robust_horizon=0))
        classic, _ = build_problem(own, intruder, t, crossing_schedule(), replace(cfg, mode=MpcMode.CLASSIC))
        z = np.random.default_rng(seed).uniform(tree.lower, tree.upper)
        assert tree.constraints(z).tobytes() == classic.constraints(z).tobytes()


class TestSolveKeepsTheBest:
    @settings(max_examples=100, deadline=None)
    @given(encounters())
    def test_never_ranked_after_the_projected_start(self, case):
        # A start already within rho has a stage-0 row no z can change; see ROADMAP item 7.
        cfg, own, intruder, t, seed = case
        assume(separation(own, intruder) > cfg.min_separation)
        problem, _ = build_problem(own, intruder, t, crossing_schedule(), cfg)
        lo, hi = problem.lower, problem.upper
        z0 = np.random.default_rng(seed).uniform(lo - (hi - lo), hi + (hi - lo))
        start = problem.project(z0)
        violation = float(np.max(problem.constraints(start), initial=0.0))
        ranked = SolverResult(start, float(problem.objective(start)), violation, 0.0, 0, 0, "start")
        assert not _rank(ranked) < _rank(solve(problem, z0, cfg.solver))


class TestSolveStep:
    def test_far_intruder_flies_straight_at_max_speed(self):
        sol = solve_step(Pose(0, 0, 0), Pose(10000, 10000, 0), 0, crossing_schedule(), config())
        assert sol.solver.status == "converged"
        assert sol.first_input.speed == pytest.approx(9.0, abs=1e-6)
        assert abs(sol.first_input.angular_rate) <= 1e-3

    def test_warm_start_matches_cold_and_is_cheaper(self):
        # Drive the head-on encounter for a few steps the way the simulator
        # does, then compare a warm re-solve against a cold one at the state
        # actually reached mid-avoidance.
        from intentmpc import step

        h = math.pi
        path = shortest_path(Pose(480, 0, h), Pose(-420, 0, h), INTRUDER_RADIUS)
        sched = control_schedule(path, INTRUDER_BOUNDS.v_max, 1.0)
        own, intr = Pose(0, 0, 0), Pose(480, 0, h)
        cfg = config()
        previous = None
        for t in range(8):
            previous = solve_step(own, intr, t, sched, cfg, warm=previous)
            own = step(own, previous.first_input, 1.0)
            intr = step(intr, ControlInput(10.0, sched.rate_at(t)), 1.0)
        warm = solve_step(own, intr, 8, sched, cfg, warm=previous)
        cold = solve_step(own, intr, 8, sched, cfg)
        assert warm.solver.inner_iters_total <= cold.solver.inner_iters_total
        # The transcription is nonconvex: the cold solve may settle in a
        # different (possibly worse) basin.  Warm-starting must never lose.
        scale = max(1.0, abs(cold.solver.objective_value))
        assert warm.solver.objective_value <= cold.solver.objective_value + 1e-6 * scale
        assert warm.solver.max_violation <= 1e-3
        assert cold.solver.max_violation <= 1e-3

    def test_first_input_always_within_bounds(self):
        # Target behind forces aggressive turning; the applied input must be
        # exactly inside the box after projection.
        cfg = config(mode=MpcMode.UNCONSTRAINED)
        cfg = MpcConfig(**{**cfg.__dict__, "target": Pose(-500.0, 200.0, math.pi)})
        sol = solve_step(Pose(0, 0, 0), Pose(1e4, 1e4, 0), 0, crossing_schedule(), cfg)
        assert OWN_BOUNDS.u_min <= sol.first_input.angular_rate <= OWN_BOUNDS.u_max
        assert OWN_BOUNDS.v_min <= sol.first_input.speed <= OWN_BOUNDS.v_max

    def test_tree_optimum_is_classic_feasible(self):
        # The nominal scenario is one of the 27, so classic constraints must
        # hold at the scenario-tree optimum, and the classic optimum can only
        # be cheaper.
        own, intr = Pose(200, 0, 0), Pose(560, -140, 2.6)
        sched = crossing_schedule()
        tree_sol = solve_step(own, intr, 12, sched, config())
        classic_cfg = config(mode=MpcMode.CLASSIC)
        classic_problem, _ = build_problem(own, intr, 12, sched, classic_cfg)
        violations = classic_problem.constraints(tree_sol.solver.z_star)
        assert float(np.max(violations)) <= 1e-3
        classic_sol = solve_step(own, intr, 12, sched, classic_cfg)
        classic_cost, tree_cost = classic_sol.solver.objective_value, tree_sol.solver.objective_value
        assert classic_cost <= tree_cost + 1e-3 * max(1.0, abs(tree_cost))

    def test_shift_warm_start_layout(self):
        z = np.concatenate((np.arange(5.0), 10.0 + np.arange(5.0)))
        shifted = shift_warm_start(z, 5)
        assert np.array_equal(shifted, np.array([1, 2, 3, 4, 4, 11, 12, 13, 14, 14.0]))

    def test_outer_violation_progress(self):
        # Across outer iterations the max violation may not grow by more than
        # a factor of two (floored at the tolerance) on reference instances.
        h = math.pi
        path = shortest_path(Pose(480, 0, h), Pose(-420, 0, h), INTRUDER_RADIUS)
        sched = control_schedule(path, INTRUDER_BOUNDS.v_max, 1.0)
        states = [
            (Pose(0, 0, 0), Pose(480, 0, h), 0),
            (Pose(90, -20, -0.2), Pose(380, 0, h), 10),
            (Pose(200, -120, 0.1), Pose(270, 0, h), 22),
        ]
        for own, intr, t in states:
            result = solve_step(own, intr, t, sched, config()).solver
            history = result.violation_history
            assert history, "no outer iterations recorded"
            for before, after in zip(history, history[1:]):
                assert after <= max(2.0 * before, 1e-4), f"violation grew {before} -> {after}"


CONSTRAINED = [MpcMode.SCENARIO_TREE, MpcMode.CLASSIC, MpcMode.NO_INTENT]


class UntouchableMemo(dict):
    """A memo that fails the test on any read or write."""

    def _touched(self, *args):
        pytest.fail("the memo was touched")

    __contains__ = __getitem__ = __setitem__ = get = setdefault = _touched


def random_warm_start(cfg, seed) -> MpcSolution:
    """A previous solution whose z_star is drawn uniformly from the control box."""
    n = cfg.horizon
    b = cfg.own_bounds
    z = np.random.default_rng(seed).uniform(np.repeat((b.u_min, b.v_min), n), np.repeat((b.u_max, b.v_max), n))
    return MpcSolution(ControlInput(speed=z[n], angular_rate=z[0]), SolverResult(z, 0.0, 0.0, 0.0, 0, 0, "converged"))


class TestScreen:
    """solve_step solves a step where no separation row can bind without the tree or its rows."""

    @settings(max_examples=40, deadline=None)
    @given(encounters(), st.sampled_from(CONSTRAINED))
    def test_screened_step_equals_the_full_problem(self, case, mode):
        cfg, own, intruder, t, seed = case
        cfg = replace(cfg, mode=mode)
        schedule = crossing_schedule()
        assume(not mpc_module._rows_can_bind(own, intruder, t, schedule, cfg))
        full, _ = build_problem(own, intruder, t, schedule, cfg)
        # Every row is negative over the box: at its corners and inside.
        rng = np.random.default_rng(seed)
        for z in (full.lower, full.upper, *rng.uniform(full.lower, full.upper, (4, full.lower.size))):
            assert np.all(full.constraints(z) < 0.0)
        expected = solve(full, cold_start(cfg), cfg.solver)

        with pytest.MonkeyPatch.context() as patch:
            calls = count_tree_calls(patch)
            got = solve_step(own, intruder, t, schedule, cfg).solver
        assert calls == []
        assert got.z_star.tobytes() == expected.z_star.tobytes()
        assert got.objective_value == expected.objective_value
        assert got.projected_grad_norm == expected.projected_grad_norm
        assert (got.status, got.outer_iters, got.inner_iters_total) == (
            expected.status,
            expected.outer_iters,
            expected.inner_iters_total,
        )

    @pytest.mark.parametrize("mode", CONSTRAINED)
    def test_start_inside_rho_keeps_its_rows(self, monkeypatch, mode):
        # Already in conflict at stage 0, which no control can change.
        cfg = config(mode)
        own, intruder = Pose(0, 0, 0), Pose(100, 0, math.pi)
        assert mpc_module._rows_can_bind(own, intruder, 0, crossing_schedule(), cfg)
        calls = count_tree_calls(monkeypatch)
        solve_step(own, intruder, 0, crossing_schedule(), cfg)
        assert len(calls) == 1
        # Stopping at the first step that keeps its rows solves nothing.
        assert solve_step(own, intruder, 0, crossing_schedule(), cfg, screened_only=True) is None
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(encounters(), st.sampled_from(CONSTRAINED), st.data())
    def test_memo_serves_a_screened_step_at_another_intruder_and_time(self, case, mode, data):
        # A screened step reads only the ownship pose, z0 and the config.
        cfg, own, intruder, t, seed = case
        cfg = replace(cfg, mode=mode)
        schedule = crossing_schedule()
        other, t_other = data.draw(poses()), data.draw(st.integers(0, 40))
        assume(not mpc_module._rows_can_bind(own, intruder, t, schedule, cfg))
        assume(not mpc_module._rows_can_bind(own, other, t_other, schedule, cfg))
        warm = random_warm_start(cfg, seed)
        memo = {}
        stored = solve_step(own, intruder, t, schedule, cfg, warm, memo)
        assert [id(sol) for sol in memo.values()] == [id(stored)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mpc_module, "solve", lambda *args: pytest.fail("a step in the memo was solved"))
            served = solve_step(own, other, t_other, schedule, cfg, warm, memo)
        fresh = solve_step(own, other, t_other, schedule, cfg, warm).solver
        assert served is stored
        assert served.solver.z_star.tobytes() == fresh.z_star.tobytes()
        assert (served.solver.status, served.solver.outer_iters, served.solver.inner_iters_total) == (
            fresh.status,
            fresh.outer_iters,
            fresh.inner_iters_total,
        )
        # Another z0 or heading at the same position is another problem.
        turned = Pose(own.x, own.y, own.heading + 1e-3)
        assume(not mpc_module._rows_can_bind(turned, other, t_other, schedule, cfg))
        for pose, start in ((own, random_warm_start(cfg, seed + 1)), (turned, warm)):
            got = solve_step(pose, other, t_other, schedule, cfg, start, memo)
            assert got.solver.z_star.tobytes() == solve_step(pose, other, t_other, schedule, cfg, start).solver.z_star.tobytes()
        assert len(memo) == 3

    @settings(max_examples=20, deadline=None)
    @given(encounters(), st.sampled_from(CONSTRAINED), st.data())
    def test_a_step_whose_rows_can_bind_never_touches_the_memo(self, case, mode, data):
        cfg, own, _, t, seed = case
        cfg = replace(cfg, mode=mode)
        schedule = crossing_schedule()
        # An intruder within 400 m, so that most draws keep their rows.
        offset = st.floats(-400.0, 400.0)
        intruder = Pose(own.x + data.draw(offset), own.y + data.draw(offset), data.draw(st.floats(-math.pi, math.pi)))
        assume(mpc_module._rows_can_bind(own, intruder, t, schedule, cfg))
        warm = random_warm_start(cfg, seed)
        got = solve_step(own, intruder, t, schedule, cfg, warm, UntouchableMemo())
        fresh = solve_step(own, intruder, t, schedule, cfg, warm)
        assert got.solver.z_star.tobytes() == fresh.solver.z_star.tobytes()
        assert solve_step(own, intruder, t, schedule, cfg, warm, UntouchableMemo(), screened_only=True) is None

    def test_intruder_only_the_ownship_can_reach_keeps_its_rows(self, monkeypatch):
        # The intruder flies north, never nearer than 300 m to the ownship's
        # start, but the ownship flying straight on at v_max meets it within rho.
        cfg = config(MpcMode.NO_INTENT)
        own, intruder = Pose(0, 0, 0), Pose(300, -150, math.pi / 2)
        full, _ = build_problem(own, intruder, 0, crossing_schedule(), cfg)
        assert np.max(full.constraints(cold_start(cfg))) > 0.0
        calls = count_tree_calls(monkeypatch)
        solve_step(own, intruder, 0, crossing_schedule(), cfg)
        assert len(calls) == 1

    def test_intruder_only_a_branch_brings_back_keeps_its_rows(self, monkeypatch):
        # The nominal intruder flies straight away east, faster than the
        # ownship; the upper branch turns 3 rad over the robust horizon and
        # comes back head-on.
        cfg = replace(config(MpcMode.SCENARIO_TREE), intruder_bounds=ControlBounds(10.0, 10.0, -1.0, 1.0))
        own, intruder, straight = Pose(0, 0, 0), Pose(200, 0, 0), ControlSchedule(angular_rates=())
        full, _ = build_problem(own, intruder, 0, straight, cfg)
        assert np.max(full.constraints(cold_start(cfg))) > 0.0
        calls = count_tree_calls(monkeypatch)
        solve_step(own, intruder, 0, straight, cfg)
        assert len(calls) == 1
