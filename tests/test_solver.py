"""Tests for the augmented-Lagrangian solver on known problems."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, minimize

from intentmpc import NlpProblem, NumericalDomainError, SolverConfig, check_gradient, solve
from intentmpc import solver
from intentmpc.solver import STATUS_CONVERGED, _projected_grad_norm


def clipped_quadratic() -> NlpProblem:
    return NlpProblem(
        dimension=1,
        objective=lambda z: (z[0] - 3.0) ** 2,
        objective_grad=lambda z: np.array([2.0 * (z[0] - 3.0)]),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )


def circle_constrained_linear() -> NlpProblem:
    return NlpProblem(
        dimension=2,
        objective=lambda z: z[0] + z[1],
        objective_grad=lambda z: np.array([1.0, 1.0]),
        constraints=lambda z: np.array([z[0] ** 2 + z[1] ** 2 - 1.0]),
        constraints_jac=lambda z: np.array([[2.0 * z[0], 2.0 * z[1]]]),
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
    )


def infeasible_bound() -> NlpProblem:
    # x >= 2 is impossible inside the box [-1, 1].
    return NlpProblem(
        dimension=1,
        objective=lambda z: z[0] ** 2,
        objective_grad=lambda z: np.array([2.0 * z[0]]),
        constraints=lambda z: np.array([2.0 - z[0]]),
        constraints_jac=lambda z: np.array([[-1.0]]),
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
                dict(objective_grad=lambda z: np.array([0.0, np.nan])),
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
            NlpProblem(dimension=1, objective=lambda z: z[0] ** 2, lower=np.array([-1.0]), upper=np.array([1.0]))

    def test_constraints_without_weighted_gradient_rejected(self):
        with pytest.raises(ValueError, match="constraints_weighted_grad"):
            NlpProblem(
                dimension=1,
                objective=lambda z: z[0] ** 2,
                objective_grad=lambda z: 2.0 * z,
                constraints=lambda z: np.array([1.0 - z[0]]),
                constraints_jac=lambda z: np.array([[-1.0]]),
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


def recorded_minimize(monkeypatch) -> list:
    """Route the solver's L-BFGS-B calls through scipy, recording (kwargs, result) of each."""
    calls = []

    def recording(*args, **kwargs):
        res = minimize(*args, **kwargs)
        calls.append((kwargs, res))
        return res

    monkeypatch.setattr(solver, "minimize", recording)
    return calls


@pytest.fixture(scope="module")
def lbfgsb_options() -> dict:
    """The options `solve` passes to L-BFGS-B under the default SolverConfig."""
    with pytest.MonkeyPatch.context() as mp:
        calls = recorded_minimize(mp)
        solve(clipped_quadratic(), np.array([0.0]))
    return calls[0][0]["options"]


GTOL = 0.3 * SolverConfig().optimality_tol
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
    def test_matches_lbfgsb_at_its_start(self, lbfgsb_options, case, curvature):
        lower, upper, z, g = case
        assume(np.any(lower < upper))  # scipy does not run L-BFGS-B on a fully fixed box
        # A quadratic whose gradient at z is exactly g.
        problem = NlpProblem(
            dimension=z.size,
            objective=lambda x: 0.5 * curvature * float(np.dot(x - z, x - z)) + float(np.dot(g, x - z)),
            objective_grad=lambda x: curvature * (x - z) + g,
            lower=lower,
            upper=upper,
        )
        res = minimize(
            lambda x: (problem.objective(x), problem.objective_grad(x)),
            z,
            jac=True,
            method="L-BFGS-B",
            bounds=Bounds(lower, upper),
            options=lbfgsb_options,
        )
        stopped_at_start = res.nit == 0 and res.message == PGTOL_MESSAGE
        if _projected_grad_norm(problem, z, g) <= lbfgsb_options["gtol"]:
            assert stopped_at_start
            assert res.x.tobytes() == z.tobytes()
        else:
            assert not stopped_at_start

    def test_stationary_start_is_returned_without_lbfgsb(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("L-BFGS-B called at a stationary start")

        monkeypatch.setattr(solver, "minimize", refuse)
        z0 = np.array([1.0])  # the minimizer, on the upper bound
        res = solve(clipped_quadratic(), z0)
        assert res.z_star.tobytes() == z0.tobytes()
        assert (res.inner_iters_total, res.outer_iters, res.status) == (0, 1, STATUS_CONVERGED)

    def test_start_is_evaluated_once(self, monkeypatch):
        grad_calls = 0
        base = infeasible_bound()

        def counted_grad(z):
            nonlocal grad_calls
            grad_calls += 1
            return base.objective_grad(z)

        calls = recorded_minimize(monkeypatch)
        res = solve(replace(base, objective_grad=counted_grad), np.array([0.0]), SolverConfig(outer_max_iters=8))
        # The first outer iteration runs L-BFGS-B; later ones start on the
        # upper bound with the multiplier pushing into it, and skip it.
        skips = res.outer_iters - len(calls)
        assert calls and skips
        # One evaluation per outer start; L-BFGS-B's first, at the start, is that one.
        assert grad_calls == skips + sum(inner.nfev for _, inner in calls)


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
        )
        assert check_gradient(problem, np.array([0.5])) > 1e-2

    def test_detects_wrong_weighted_constraint_gradient(self):
        # The dense Jacobian is right; only J^T w, the product the solver
        # uses, is wrong (its second entry ignores z[1]).
        problem = replace(
            circle_constrained_linear(),
            constraints_weighted_grad=lambda z, w: w[0] * np.array([2.0 * z[0], 2.0 * z[0]]),
        )
        assert check_gradient(problem, np.array([0.4, -0.2])) > 1e-2
