"""Tests for the augmented-Lagrangian solver on known problems."""

import math
from dataclasses import replace

import numpy as np
import pytest

from intentmpc import NlpProblem, NumericalDomainError, SolverConfig, check_gradient, solve
from intentmpc.solver import STATUS_CONVERGED


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
        # x >= 2 is impossible inside the box [-1, 1].
        problem = NlpProblem(
            dimension=1,
            objective=lambda z: z[0] ** 2,
            objective_grad=lambda z: np.array([2.0 * z[0]]),
            constraints=lambda z: np.array([2.0 - z[0]]),
            constraints_jac=lambda z: np.array([[-1.0]]),
            constraints_weighted_grad=lambda z, w: -w,
            lower=np.array([-1.0]),
            upper=np.array([1.0]),
        )
        res = solve(problem, np.array([0.0]), SolverConfig(outer_max_iters=8))
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
