"""Central-difference oracle for the derivatives an `NlpProblem` hands the solver.

The solver reads the objective gradient and the constraint Jacobian J only
through the product J^T w.  The oracle reads row i of J through that same
callable, as J^T e_i, and compares every row and J^T w for a fixed w with
central differences of the functions themselves.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from intentmpc import NlpProblem


def central_diff(fn: Callable[[np.ndarray], np.ndarray], z: np.ndarray, step: float) -> np.ndarray:
    """Central differences of fn at z: shape (n,) for a scalar fn, (m, n) for an m-vector fn."""
    h = step * np.maximum(1.0, np.abs(z))
    cols = []
    for i in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[i] += h[i]
        zm[i] -= h[i]
        cols.append((fn(zp) - fn(zm)) / (2.0 * h[i]))
    return np.array(cols).T


def jacobian(problem: NlpProblem, z: np.ndarray) -> np.ndarray:
    """The (m, n) constraint Jacobian at z, row i read as J^T e_i."""
    unit = np.eye(np.asarray(problem.constraints(z)).size)
    return np.array([problem.constraints_weighted_grad(z, e) for e in unit], dtype=float).reshape(len(unit), z.size)


def check_gradient(problem: NlpProblem, z: np.ndarray) -> float:
    """Worst relative discrepancy between analytic and central-FD derivatives.

    Each gradient (objective, each constraint row, and J^T w for a fixed
    nonnegative weight vector w) is compared in the infinity norm relative to
    its own magnitude, floored at 1.  The FD step h_i = eps^(1/3) *
    max(1, |z_i|) balances truncation against roundoff.  A function of value
    f is evaluated to about eps * |f|, so entry i of its difference quotient
    carries a roundoff of about eps * |f| / h_i; that much of each entry's
    discrepancy is forgiven, so a small gradient of a large function does not
    read as an error.
    """
    z = np.asarray(z, dtype=float)
    if not z.size:
        return 0.0
    eps = float(np.finfo(float).eps)
    step = eps ** (1.0 / 3.0)
    roundoff = eps / (step * np.maximum(1.0, np.abs(z)))  # entry i's, per unit |f|

    def worst_row(a: np.ndarray, b: np.ndarray, values: np.ndarray) -> float:
        """Worst over rows of the row's discrepancy beyond roundoff, relative to the row's magnitude."""
        scale = np.maximum(1.0, np.maximum(np.max(np.abs(a), axis=1), np.max(np.abs(b), axis=1)))
        excess = np.maximum(np.abs(a - b) - np.multiply.outer(np.abs(values), roundoff), 0.0)
        return float(np.max(np.max(excess, axis=1) / scale, initial=0.0))

    f = float(problem.objective(z))
    g_fd = central_diff(problem.objective, z, step)
    worst = worst_row(np.asarray(problem.objective_grad(z), dtype=float)[None], g_fd[None], np.array([f]))

    c = np.asarray(problem.constraints(z), dtype=float)
    j_fd = central_diff(problem.constraints, z, step)
    worst = max(worst, worst_row(jacobian(problem, z), j_fd, c))
    w = np.random.default_rng(0).uniform(1.0, 2.0, size=c.size)
    jtw = np.asarray(problem.constraints_weighted_grad(z, w), dtype=float)
    return max(worst, worst_row(jtw[None], (j_fd.T @ w)[None], np.array([w @ np.abs(c)])))
