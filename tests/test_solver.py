"""Tests for the augmented-Lagrangian solver on known problems."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, minimize
from scipy.optimize._lbfgsb import setulb

from intentmpc import NlpProblem, NumericalDomainError, SolverConfig, build_problem, solve
from intentmpc import solver
from intentmpc.mpc import cold_start
from intentmpc.scenario_io import load_scenario
from intentmpc.sim import intruder_plan
from intentmpc.solver import STATUS_CONVERGED
from oracle_derivatives import check_gradient

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# The rows of a problem without constraints: none, and J^T w = 0.
NO_ROWS = dict(constraints=lambda z: np.zeros(0), constraints_weighted_grad=lambda z, w: np.zeros(z.size))


def projected_grad_norm(lower: np.ndarray, upper: np.ndarray, z: np.ndarray, grad: np.ndarray) -> float:
    """Infinity norm of the projected gradient, bit-exact with L-BFGS-B's `projgr`."""
    if not z.size:
        return 0.0
    pg = np.where(grad < 0.0, np.maximum(z - upper, grad), np.minimum(z - lower, grad))
    return float(np.max(np.abs(pg)))


def clipped_quadratic() -> NlpProblem:
    return NlpProblem(
        dimension=1,
        objective=lambda z: (z[0] - 3.0) ** 2,
        objective_grad=lambda z: np.array([2.0 * (z[0] - 3.0)]),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
        **NO_ROWS,
    )


def circle_constrained_linear() -> NlpProblem:
    return NlpProblem(
        dimension=2,
        objective=lambda z: z[0] + z[1],
        objective_grad=lambda z: np.array([1.0, 1.0]),
        constraints=lambda z: np.array([z[0] ** 2 + z[1] ** 2 - 1.0]),
        constraints_weighted_grad=lambda z, w: w[0] * np.array([2.0 * z[0], 2.0 * z[1]]),
        lower=np.array([-2.0, -2.0]),
        upper=np.array([2.0, 2.0]),
    )


def rosenbrock() -> NlpProblem:
    def f(z):
        return (1.0 - z[0]) ** 2 + 100.0 * (z[1] - z[0] ** 2) ** 2

    def g(z):
        return np.array(
            [
                -2.0 * (1.0 - z[0]) - 400.0 * z[0] * (z[1] - z[0] ** 2),
                200.0 * (z[1] - z[0] ** 2),
            ]
        )

    return NlpProblem(
        dimension=2,
        objective=f,
        objective_grad=g,
        lower=np.array([-5.0, -5.0]),
        upper=np.array([5.0, 5.0]),
        **NO_ROWS,
    )


def infeasible_bound() -> NlpProblem:
    # x >= 2 is impossible inside the box [-1, 1].
    return NlpProblem(
        dimension=1,
        objective=lambda z: z[0] ** 2,
        objective_grad=lambda z: np.array([2.0 * z[0]]),
        constraints=lambda z: np.array([2.0 - z[0]]),
        constraints_weighted_grad=lambda z, w: -w,
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )


class TestSolve:
    def test_clipped_quadratic(self):
        res = solve(clipped_quadratic(), np.array([0.0]))
        assert res.status == STATUS_CONVERGED
        assert res.z_star[0] == pytest.approx(1.0, abs=1e-8)

    def test_circle_constrained_linear(self):
        res = solve(circle_constrained_linear(), np.array([0.5, -0.3]))
        assert res.status == STATUS_CONVERGED
        assert res.z_star == pytest.approx([-math.sqrt(0.5), -math.sqrt(0.5)], abs=1e-4)
        assert res.objective_value == pytest.approx(-math.sqrt(2.0), abs=1e-4)

    def test_rosenbrock(self):
        res = solve(rosenbrock(), np.array([-1.2, 1.0]), SolverConfig(inner_max_iters=500))
        assert res.status == STATUS_CONVERGED
        assert res.z_star == pytest.approx([1.0, 1.0], abs=1e-4)

    def test_projects_infeasible_start(self):
        res = solve(clipped_quadratic(), np.array([10.0]))
        assert res.z_star[0] == pytest.approx(1.0, abs=1e-8)

    def test_deterministic_bitwise(self):
        a = solve(circle_constrained_linear(), np.array([0.5, -0.3]))
        b = solve(circle_constrained_linear(), np.array([0.5, -0.3]))
        assert np.array_equal(a.z_star, b.z_star)
        assert a.objective_value == b.objective_value
        assert (a.outer_iters, a.inner_iters_total) == (b.outer_iters, b.inner_iters_total)

    def test_converged_respects_tolerances(self):
        res = solve(circle_constrained_linear(), np.array([0.5, -0.3]))
        assert res.max_violation <= 1e-4
        assert res.projected_grad_norm <= 1e-4

    def test_complementary_slackness_on_converged(self):
        res = solve(circle_constrained_linear(), np.array([0.5, -0.3]))
        problem = circle_constrained_linear()
        c = problem.constraints(res.z_star)
        assert np.all(np.abs(res.multipliers * c) <= 10 * 1e-4)

    def test_infeasible_problem_reports_least_violation(self):
        res = solve(infeasible_bound(), np.array([0.0]), SolverConfig(outer_max_iters=8))
        assert res.status == "infeasible_stationary"
        assert res.z_star[0] == pytest.approx(1.0, abs=1e-6)
        assert res.max_violation == pytest.approx(1.0, abs=1e-6)

    def test_nonfinite_objective_raises_with_coordinates(self):
        problem = NlpProblem(
            dimension=2,
            objective=lambda z: float("nan"),
            objective_grad=lambda z: np.zeros(2),
            lower=np.full(2, -1.0),
            upper=np.full(2, 1.0),
            **NO_ROWS,
        )
        with pytest.raises(NumericalDomainError) as err:
            solve(problem, np.zeros(2))
        assert str(err.value).startswith("objective non-finite")
        assert err.value.bad_indices.tolist() == [0]

    def test_domain_error_accepts_lists(self):
        err = NumericalDomainError("objective", [0.0, 1.0], [False, True])
        assert err.bad_indices.tolist() == [1]
        assert str(err) == "objective non-finite at indices [1] for decision vector [0.0, 1.0]"

    @pytest.mark.parametrize(
        "what, bad, callables",
        [
            (
                "objective gradient",
                [1],
                dict(objective_grad=lambda z: np.array([0.0, np.nan]), **NO_ROWS),
            ),
            (
                "constraints",
                [0],
                dict(
                    constraints=lambda z: np.array([np.inf, 0.0]),
                    constraints_weighted_grad=lambda z, w: np.zeros(2),
                ),
            ),
            (
                # The constraint is active at z = 0 (c = 1), so J^T w is evaluated.
                "constraint gradient",
                [0],
                dict(
                    constraints=lambda z: np.array([1.0 - z[0]]),
                    constraints_weighted_grad=lambda z, w: np.array([np.nan, 0.0]),
                ),
            ),
        ],
        ids=["objective-gradient", "constraints", "constraint-gradient"],
    )
    def test_nonfinite_source_is_named(self, what, bad, callables):
        fields = dict(
            dimension=2,
            objective=lambda z: float(z @ z),
            objective_grad=lambda z: 2.0 * z,
            lower=np.full(2, -1.0),
            upper=np.full(2, 1.0),
        )
        problem = NlpProblem(**{**fields, **callables})
        with pytest.raises(NumericalDomainError) as err:
            solve(problem, np.zeros(2))
        assert str(err.value).startswith(f"{what} non-finite")
        assert err.value.bad_indices.tolist() == bad

    def test_missing_objective_gradient_rejected(self):
        with pytest.raises(TypeError, match="objective_grad"):
            NlpProblem(dimension=1, objective=lambda z: z[0] ** 2, lower=np.array([-1.0]), upper=np.array([1.0]), **NO_ROWS)

    def test_constraints_without_weighted_gradient_rejected(self):
        with pytest.raises(TypeError, match="constraints_weighted_grad"):
            NlpProblem(
                dimension=1,
                objective=lambda z: z[0] ** 2,
                objective_grad=lambda z: 2.0 * z,
                constraints=lambda z: np.array([1.0 - z[0]]),
                lower=np.array([-1.0]),
                upper=np.array([1.0]),
            )

    def test_best_iterate_returned_on_budget_exhaustion(self):
        res = solve(rosenbrock(), np.array([-1.2, 1.0]), SolverConfig(outer_max_iters=1, inner_max_iters=5))
        assert res.status == "max_iters"
        assert np.isfinite(res.objective_value)

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["outer_max_iters", "inner_max_iters"])
    def test_iteration_budgets_must_be_positive(self, name, value):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: value})


# The L-BFGS-B options `solve` applies under the default SolverConfig, as
# scipy.optimize.minimize takes them.
LBFGSB_OPTIONS = {
    "maxiter": SolverConfig().inner_max_iters,
    "maxcor": solver.LBFGSB_CORRECTIONS,
    "ftol": solver.LBFGSB_FTOL,
    "gtol": solver.INNER_GTOL_FRACTION * SolverConfig().optimality_tol,
    "maxls": solver.LBFGSB_MAX_LINE_SEARCH,
    "maxfun": solver.LBFGSB_MAX_EVALS,
}
GTOL = LBFGSB_OPTIONS["gtol"]
PGTOL_MESSAGE = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"


def finite_choice(values):
    return st.sampled_from([float(v) for v in values if math.isfinite(v)])


@st.composite
def box_starts(draw):
    """(lower, upper, z, g): a box, a start on, next to or inside its bounds, and
    the gradient there, drawn around the start test's edges (|g| = gtol, g = z - l)."""
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        centre = draw(st.floats(-100.0, 100.0))
        widths = st.sampled_from([0.0, GTOL, 1.0, math.inf]) | st.floats(0.0, 50.0)
        below, above = draw(widths), draw(widths)
        lo, hi = centre - below, centre + above
        near = (lo, hi, np.nextafter(lo, math.inf), np.nextafter(hi, -math.inf), lo + GTOL, hi - GTOL, centre)
        z = min(max(draw(finite_choice(near)), lo), hi)
        edge = draw(finite_choice((GTOL, np.nextafter(GTOL, 0.0), np.nextafter(GTOL, 1.0), z - lo, z - hi, 0.0)))
        g = draw(st.sampled_from([edge, -edge]) | st.floats(-1e-3, 1e-3) | st.floats(-10.0, 10.0))
        rows.append((lo, hi, z, g))
    lower, upper, z, g = (np.array(col) for col in zip(*rows))
    # `solve` holds only projected starts, np.clip over the bound arrays, as scipy
    # also clips x0; that clip turns a -0.0 on a [-0.0, 0.0] box into 0.0.
    return lower, upper, np.clip(z, lower, upper), g


class TestStartTest:
    """`solve` keeps a start whose projected gradient passes L-BFGS-B's own start test."""

    @settings(max_examples=300, deadline=None)
    @given(box_starts(), st.floats(0.1, 10.0))
    # |pg| equal to gtol, and one ulp above it, on an interior coordinate.
    @example((np.array([0.0]), np.array([1.0]), np.array([0.5]), np.array([GTOL])), 1.0)
    @example((np.array([0.0]), np.array([1.0]), np.array([0.5]), np.array([-np.nextafter(GTOL, 1.0)])), 1.0)
    # The distance to the lower bound, not g, sets |pg|.
    @example((np.array([0.0]), np.array([1.0]), np.array([GTOL]), np.array([5.0])), 1.0)
    def test_matches_lbfgsb_at_its_start(self, case, curvature):
        lower, upper, z, g = case
        assume(np.any(lower < upper))  # scipy does not run L-BFGS-B on a fully fixed box
        # A quadratic whose gradient at z is exactly g.
        problem = NlpProblem(
            dimension=z.size,
            objective=lambda x: 0.5 * curvature * float(np.dot(x - z, x - z)) + float(np.dot(g, x - z)),
            objective_grad=lambda x: curvature * (x - z) + g,
            lower=lower,
            upper=upper,
            **NO_ROWS,
        )
        res = minimize(
            lambda x: (problem.objective(x), problem.objective_grad(x)),
            z,
            jac=True,
            method="L-BFGS-B",
            bounds=Bounds(lower, upper),
            options=LBFGSB_OPTIONS,
        )
        stopped_at_start = res.nit == 0 and res.message == PGTOL_MESSAGE
        if projected_grad_norm(lower, upper, z, g) <= GTOL:
            assert stopped_at_start
            assert res.x.tobytes() == z.tobytes()
        else:
            assert not stopped_at_start

    def test_stationary_start_is_returned_without_lbfgsb(self):
        # L-BFGS-B stops at a start that passes its test: no iteration, and
        # no evaluation beyond the start's own.
        grad_calls = 0
        base = clipped_quadratic()

        def counted_grad(z):
            nonlocal grad_calls
            grad_calls += 1
            return base.objective_grad(z)

        z0 = np.array([1.0])  # the minimizer, on the upper bound
        res = solve(replace(base, objective_grad=counted_grad), z0)
        assert res.z_star.tobytes() == z0.tobytes()
        assert (res.inner_iters_total, res.outer_iters, res.status) == (0, 1, STATUS_CONVERGED)
        assert grad_calls == 1

    def test_start_is_evaluated_once(self, monkeypatch):
        grad_calls = 0
        base = infeasible_bound()

        def counted_grad(z):
            nonlocal grad_calls
            grad_calls += 1
            return base.objective_grad(z)

        # Points at which each driver call evaluated the AL itself.
        fresh: list[list] = []
        driver = solver._lbfgsb

        def recording(fg, *args):
            points = []
            fresh.append(points)
            return driver(lambda x: points.append(x) or fg(x), *args)

        monkeypatch.setattr(solver, "_lbfgsb", recording)
        res = solve(replace(base, objective_grad=counted_grad), np.array([0.0]), SolverConfig(outer_max_iters=8))
        assert len(fresh) == res.outer_iters
        # The first outer iteration moves; later ones start on the upper bound
        # with the multiplier pushing into it, and stop at their start.
        assert fresh[0] and not all(fresh)
        # One evaluation per outer start, handed to the driver, plus the
        # driver's own at points other than the last one evaluated.
        assert grad_calls == res.outer_iters + sum(len(points) for points in fresh)


def quadratic(a: np.ndarray, b: np.ndarray):
    return lambda x: (0.5 * float(x @ a @ x) - float(b @ x), a @ x - b)


def chained_rosenbrock(x: np.ndarray) -> tuple[float, np.ndarray]:
    r, s = x[1:] - x[:-1] ** 2, 1.0 - x[:-1]
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * s
    g[1:] += 200.0 * r
    return float(100.0 * r @ r + s @ s), g


def wrong_gradient(a: np.ndarray, b: np.ndarray):
    """The quadratic's value with the gradient's sign flipped: L-BFGS-B's first
    line search climbs, fails and ends ABNORMAL, restoring its start."""
    return lambda x: (0.5 * float(x @ a @ x) - float(b @ x), b - a @ x)


@st.composite
def box_problems(draw):
    """(fg, lower, upper, x0): a convex quadratic, a chained Rosenbrock or a
    wrong-gradient function on a box with finite, one-sided and infinite bounds."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["both", "lower", "upper", "none", "fixed"]), min_size=n, max_size=n))
    assume(any(k != "fixed" for k in kinds))  # scipy does not run L-BFGS-B on a fully fixed box
    centre, width = rng.uniform(-2.0, 2.0, n), rng.uniform(0.0, 3.0, n)
    lower = np.where(np.isin(kinds, ["both", "lower"]), centre - width, -np.inf)
    upper = np.where(np.isin(kinds, ["both", "upper"]), centre + width, np.inf)
    fixed = np.array(kinds) == "fixed"
    lower[fixed] = upper[fixed] = centre[fixed]
    m = rng.normal(size=(n, n))
    a, b = m @ m.T + 0.1 * np.eye(n), rng.normal(size=n)
    fg = draw(st.sampled_from([quadratic(a, b), chained_rosenbrock, wrong_gradient(a, b)]))
    return fg, lower, upper, rng.uniform(-3.0, 3.0, n)


def driver_and_scipy(fg, lower, upper, x0, max_iters):
    """(x, projected-gradient norm, iterations, evaluations) from solver._lbfgsb
    and from scipy's minimize(method="L-BFGS-B") on the same problem, both from
    x0 clipped to the box; scipy's norm is the oracle's at its x and gradient."""
    x0 = np.clip(x0, lower, upper)
    fresh = 0

    def counted(x):
        nonlocal fresh
        fresh += 1
        return fg(x)

    f0, g0 = fg(x0)
    x, pg_norm, nit = solver._lbfgsb(counted, x0, f0, g0, lower, upper, max_iters, GTOL)
    res = minimize(fg, x0, jac=True, method="L-BFGS-B", bounds=Bounds(lower, upper), options={**LBFGSB_OPTIONS, "maxiter": max_iters})
    # The driver is handed the start's evaluation; scipy counts it.
    theirs = (res.x.tobytes(), projected_grad_norm(lower, upper, res.x, res.jac), res.nit, res.nfev)
    return (x.tobytes(), pg_norm, nit, 1 + fresh), theirs, res


class TestLbfgsbDriver:
    """`_lbfgsb` runs scipy's own L-BFGS-B loop around the private `setulb`:
    the same point, iteration and evaluation counts, bit for bit, and as the
    norm L-BFGS-B's own, which equals the oracle's at scipy's point and gradient."""

    @settings(max_examples=300, deadline=None)
    @given(box_problems(), st.integers(1, 200))
    def test_matches_scipy_minimize(self, problem, max_iters):
        ours, theirs, _ = driver_and_scipy(*problem, max_iters)
        assert ours == theirs

    def test_wrong_gradient_ends_abnormal(self):
        a, b = np.diag([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 0.5])
        lower, upper = np.full(3, -5.0), np.full(3, 5.0)
        ours, theirs, res = driver_and_scipy(wrong_gradient(a, b), lower, upper, np.array([1.0, 1.0, 1.0]), 200)
        assert res.message.startswith("ABNORMAL")
        assert ours == theirs

    def test_setulb_never_gets_an_evaluated_gradient(self, monkeypatch):
        # After a failed line search setulb writes the previous gradient back
        # into its g in place; that must not reach the driver's last point.
        returned = []

        def fg(x):
            value, g = chained_rosenbrock(x)
            returned.append(g)
            return value, g

        handed = []
        monkeypatch.setattr(solver, "setulb", lambda *args: handed.append(args[6]) or setulb(*args))
        x0 = np.array([-1.2, 1.0, 0.5])
        _, _, nit = solver._lbfgsb(fg, x0, *fg(x0), np.full(3, -2.0), np.full(3, 2.0), 200, GTOL)
        assert nit > 0 and len(returned) > 1
        assert not any(h is r for h in handed for r in returned)

    def test_matches_scipy_on_a_crossing_augmented_lagrangian(self):
        """The crossing's first step is a conflict: the cold start violates
        separation rows, which give the multipliers their nonzero entries."""
        spec = load_scenario(SCENARIOS / "reference_crossing.json")
        problem, _ = build_problem(spec.own_start, spec.intruder_start, 0, intruder_plan(spec)[1], spec.mpc)
        z0 = cold_start(spec.mpc)
        penalty = solver.INITIAL_PENALTY * solver.PENALTY_GROWTH
        lam = np.maximum(0.0, solver.INITIAL_PENALTY * problem.constraints(z0))
        assert lam.any()

        def augmented_lagrangian(z):
            w = np.maximum(0.0, lam + penalty * problem.constraints(z))
            value = problem.objective(z) + (w @ w - lam @ lam) / (2.0 * penalty)
            return value, problem.objective_grad(z) + problem.constraints_weighted_grad(z, w)

        ours, theirs, res = driver_and_scipy(augmented_lagrangian, problem.lower, problem.upper, z0, 200)
        assert res.nit > 0
        assert ours == theirs


class TestCheckGradient:
    def test_quadratic_near_exact(self):
        z = np.array([0.3])
        assert check_gradient(clipped_quadratic(), z) <= 1e-7

    def test_circle_problem(self):
        z = np.array([0.4, -0.2])
        assert check_gradient(circle_constrained_linear(), z) <= 1e-7

    def test_detects_wrong_gradient(self):
        problem = NlpProblem(
            dimension=1,
            objective=lambda z: z[0] ** 2,
            objective_grad=lambda z: np.array([3.0 * z[0] + 1.0]),
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
            **NO_ROWS,
        )
        assert check_gradient(problem, np.array([0.5])) > 1e-2

    def test_detects_wrong_weighted_constraint_gradient(self):
        # J^T w, the product the solver uses, is wrong: its second entry
        # ignores z[1], and so does the second entry of every row J^T e_i.
        problem = replace(
            circle_constrained_linear(),
            constraints_weighted_grad=lambda z, w: w[0] * np.array([2.0 * z[0], 2.0 * z[0]]),
        )
        assert check_gradient(problem, np.array([0.4, -0.2])) > 1e-2
