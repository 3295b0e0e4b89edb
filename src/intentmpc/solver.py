"""Augmented-Lagrangian solver for smooth inequality-constrained NLPs on a box.

Inequality constraints c(z) <= 0 are folded into a Powell-Hestenes-Rockafellar
augmented Lagrangian; each outer iteration minimizes it over the box with
L-BFGS-B, then updates multipliers and, when the violation stalls, the
penalty.  The solver drives L-BFGS-B's reverse-communication loop itself.
Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, replace
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import Callable

import numpy as np

LBFGSB_MODULE = "scipy.optimize._lbfgsb"


def _load_lbfgsb(scipy_dir: str):
    """scipy's compiled L-BFGS-B module, loaded from the scipy package at scipy_dir.

    Importing it by name would first run scipy/optimize/__init__, which loads
    scipy.linalg, sparse, special and more: about two thirds of the CLI's
    import time and modules.  The extension needs only numpy.  scipy 1.15
    ported L-BFGS-B to C as optimize/_lbfgsb and gave `setulb` its present
    (..., maxls, ln_task) signature, hence the floor scipy>=1.15.

    Loading the extension loads scipy's OpenBLAS, which reads its thread count
    then and only then.  Its extra threads spin between the solver's small
    calls, so it is loaded with OPENBLAS_NUM_THREADS=1 unless the variable is
    set; the environment is then left as it was.
    """
    directory = os.path.join(scipy_dir, "optimize")
    spec = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(LBFGSB_MODULE)
    if spec is None:
        raise ImportError(f"no {LBFGSB_MODULE} extension in {directory}; intentmpc needs scipy>=1.15",
                          name=LBFGSB_MODULE, path=directory)
    imported = LBFGSB_MODULE in sys.modules
    preset = "OPENBLAS_NUM_THREADS" in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        module = module_from_spec(spec)
    finally:
        if not preset:
            del os.environ["OPENBLAS_NUM_THREADS"]
    if not imported:
        # A single-phase C extension enters itself in sys.modules as it is
        # created; take it out, so that no scipy module is registered without
        # its package and a later `import scipy.optimize` loads its own.
        sys.modules.pop(LBFGSB_MODULE, None)
    spec.loader.exec_module(module)
    return module


setulb = _load_lbfgsb(find_spec("scipy").submodule_search_locations[0]).setulb

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_INFEASIBLE = "infeasible_stationary"

# Fixed augmented-Lagrangian schedule: a point is feasible when no constraint
# exceeds CONSTRAINT_TOL; the penalty starts at INITIAL_PENALTY and grows by
# PENALTY_GROWTH whenever the violation failed to shrink by VIOLATION_SHRINK.
CONSTRAINT_TOL = 1e-4
INITIAL_PENALTY = 10.0
PENALTY_GROWTH = 10.0
VIOLATION_SHRINK = 4.0

# L-BFGS-B stops at a projected-gradient norm of INNER_GTOL_FRACTION *
# optimality_tol or a relative f reduction of LBFGSB_FTOL; the rest are scipy's defaults.
INNER_GTOL_FRACTION = 0.3
LBFGSB_CORRECTIONS = 10
LBFGSB_FTOL = 1e-15
LBFGSB_MAX_LINE_SEARCH = 20
LBFGSB_MAX_EVALS = 15000


class NumericalDomainError(RuntimeError):
    """Objective or constraint produced a non-finite value."""

    def __init__(self, what: str, z: np.ndarray, bad: np.ndarray):
        self.z = np.array(z)
        self.bad_indices = np.flatnonzero(bad)
        super().__init__(
            f"{what} non-finite at indices {self.bad_indices.tolist()} for decision vector {self.z.tolist()}"
        )


@dataclass(frozen=True)
class NlpProblem:
    """Box-constrained NLP with smooth inequality constraints c(z) <= 0.

    The solver calls `objective`, `objective_grad`, `constraints` (the
    stacked constraint values, zero or more) and `constraints_weighted_grad(z,
    w)` = J(z)^T w, the only Jacobian product the augmented Lagrangian needs.
    All four are required; a problem without constraints returns an empty
    array and J^T w = 0.
    """

    objective: Callable[[np.ndarray], float]
    lower: np.ndarray
    upper: np.ndarray
    objective_grad: Callable[[np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraints_weighted_grad: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # Nothing sets it; kept only because perfbench/tracing.py looks it up by name.
    constraints_jac: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError(f"bounds must be 1-D and of one length, got shapes {lo.shape} and {hi.shape}")
        if np.any(lo > hi):
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def project(self, z: np.ndarray) -> np.ndarray:
        return np.clip(z, self.lower, self.upper)


@dataclass(frozen=True)
class SolverConfig:
    """Iteration budgets and the stationarity tolerance; the rest of the
    augmented-Lagrangian schedule is fixed by the module constants."""

    outer_max_iters: int = 50
    inner_max_iters: int = 200
    optimality_tol: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("outer_max_iters", "inner_max_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        # NaN would never pass the stopping test, and inf would pass it at any point.
        if not (math.isfinite(self.optimality_tol) and self.optimality_tol > 0):
            raise ValueError("optimality_tol must be finite and positive")


@dataclass
class SolverResult:
    z_star: np.ndarray
    objective_value: float
    max_violation: float
    projected_grad_norm: float
    outer_iters: int
    inner_iters_total: int
    status: str
    multipliers: np.ndarray = field(default_factory=lambda: np.zeros(0))
    # Max violation after each outer iteration, for progress diagnostics.
    violation_history: list[float] = field(default_factory=list)


def _checked(what: str, z: np.ndarray, value) -> np.ndarray:
    """value as a float array; NumericalDomainError naming `what` if any entry is non-finite."""
    arr = np.asarray(value, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise NumericalDomainError(what, z, ~finite)
    return arr


def _lbfgsb(fg: Callable[[np.ndarray], tuple[float, np.ndarray]], z: np.ndarray,
            lower: np.ndarray, upper: np.ndarray, max_iters: int, gtol: float) -> tuple[np.ndarray, float, int]:
    """L-BFGS-B over the box from z; returns (x, projected-gradient norm at x, iterations).

    scipy 1.17's `_minimize_lbfgsb` loop around the reverse-communication `setulb`
    (Zhu, Byrd, Lu & Nocedal 1997, ACM TOMS 23, Alg. 778), without the wrapper.  As
    in scipy, fg runs only at an x other than the last point's, and setulb gets a
    copy of g: after a failed line search it writes the previous gradient back into g.
    The norm is L-BFGS-B's own sbgnrm, dsave(13): the infinity norm of the
    projected gradient at x, which it computes for its own stopping test.
    """
    n, m = z.size, LBFGSB_CORRECTIONS
    has_lo, has_hi = ~np.isinf(lower), ~np.isinf(upper)
    nbd = np.where(has_lo, np.where(has_hi, 2, 1), np.where(has_hi, 3, 0)).astype(np.int32)
    low, up = np.where(has_lo, lower, 0.0), np.where(has_hi, upper, 0.0)
    factr = LBFGSB_FTOL / np.finfo(float).eps
    x, f, g = np.array(z, dtype=np.float64), 0.0, np.zeros(n)
    wa, iwa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, np.int32)
    task, ln_task, lsave, isave = (np.zeros(k, np.int32) for k in (2, 2, 4, 44))
    dsave = np.zeros(29)
    last_x = None  # setulb asks for f and g at z first
    evals, iters = 0, 0
    while True:
        setulb(m, x, low, up, nbd, f, g, factr, gtol, wa, iwa, task, lsave, isave, dsave, LBFGSB_MAX_LINE_SEARCH, ln_task)
        if task[0] == 3:  # FG: wants f and g at x
            if last_x is None or not np.array_equal(x, last_x):
                last_x = x.copy()
                last_f, last_g = fg(last_x)
                evals += 1
            f, g = last_f, last_g.copy()
        elif task[0] == 1:  # NEW_X: an iteration ended
            iters += 1
            if iters >= max_iters:
                task[:] = 5, 504  # STOP: iteration limit
            elif evals > LBFGSB_MAX_EVALS:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return x, float(dsave[12]), iters


def solve(problem: NlpProblem, z0: np.ndarray, config: SolverConfig | None = None) -> SolverResult:
    """Minimize the problem from z0 (projected into the box if outside).

    Returns the best iterate found: the least-objective feasible point when
    one exists, otherwise the least-violation point with status
    `infeasible_stationary`.  L-BFGS-B evaluates each outer iteration's
    augmented Lagrangian first at its start, and stops there without an
    iteration when the start passes its projected-gradient test.
    """
    config = config or SolverConfig()
    gtol = INNER_GTOL_FRACTION * config.optimality_tol

    def objective(zz: np.ndarray) -> float:
        f = float(problem.objective(zz))
        if not math.isfinite(f):
            raise NumericalDomainError("objective", zz, [True])
        return f

    def constraints(zz: np.ndarray) -> np.ndarray:
        return _checked("constraints", zz, problem.constraints(zz))

    z = problem.project(np.asarray(z0, dtype=float))
    n_cons = constraints(z).size

    lam, lam_sq = np.zeros(n_cons), 0.0
    penalty = INITIAL_PENALTY
    inner_total = 0
    prev_violation = np.inf
    best: SolverResult | None = None
    violation_history: list[float] = []

    def al_value_and_grad(zz: np.ndarray) -> tuple[float, np.ndarray]:
        f = objective(zz)
        g = _checked("objective gradient", zz, problem.objective_grad(zz))
        if n_cons == 0:
            return f, g
        w = penalty * constraints(zz)
        w += lam
        np.maximum(0.0, w, out=w)
        value = f + (np.dot(w, w) - lam_sq) / (2.0 * penalty)
        if w.any():
            g = g + _checked("constraint gradient", zz, problem.constraints_weighted_grad(zz, w))
        return value, g

    outer_done = 0
    seen_states: set[bytes] = set()
    for outer in range(config.outer_max_iters):
        x, pg_norm, nit = _lbfgsb(al_value_and_grad, z, problem.lower, problem.upper, config.inner_max_iters, gtol)
        z = problem.project(x)
        inner_total += nit
        outer_done = outer + 1

        f = objective(z)
        c = constraints(z)
        violation = float(np.max(np.maximum(c, 0.0))) if n_cons else 0.0
        violation_history.append(violation)
        lam_next = np.maximum(0.0, lam + penalty * c)

        feasible = violation <= CONSTRAINT_TOL
        converged = feasible and pg_norm <= config.optimality_tol
        candidate = SolverResult(
            z_star=z.copy(),
            objective_value=f,
            max_violation=violation,
            projected_grad_norm=pg_norm,
            outer_iters=outer_done,
            inner_iters_total=inner_total,
            status=STATUS_CONVERGED if converged else STATUS_MAX_ITERS if feasible else STATUS_INFEASIBLE,
            multipliers=lam_next.copy(),
            violation_history=violation_history,
        )
        if converged:
            return candidate
        if best is None or _rank(candidate) < _rank(best):
            best = candidate

        lam, lam_sq = lam_next, np.dot(lam_next, lam_next)
        if not feasible and violation > prev_violation / VIOLATION_SHRINK:
            penalty *= PENALTY_GROWTH
        prev_violation = violation

        # A repeated (iterate, multipliers, penalty) state is a fixed point of
        # the outer loop; further iterations cannot move.
        state = z.tobytes() + lam.tobytes() + np.float64(penalty).tobytes()
        if state in seen_states:
            break
        seen_states.add(state)

    return replace(best, outer_iters=outer_done, inner_iters_total=inner_total)


def _rank(r: SolverResult) -> tuple[bool, float, float]:
    """Sort key of the iterates: feasible first, then the least violation, then the least objective."""
    infeasible = r.max_violation > CONSTRAINT_TOL
    return infeasible, r.max_violation if infeasible else 0.0, r.objective_value
