"""Span tracing of the program from outside, for the per-layer metrics.

`install` replaces public functions with timing wrappers at the names their
callers look up (e.g. `intentmpc.mpc.build_problem`, not
`intentmpc.build_problem`), and re-wraps the callables of every `NlpProblem`
that `build_problem` returns.  Spans (name, start, end, parent, encounter id)
stay in memory until the benchmark writes them out.

Monte-Carlo runs execute in pool workers.  The pool class that
`intentmpc.sim` looks up is replaced by one that runs each task under the
worker's own tracer and sends its spans back with the result, so a traced
batch keeps its worker count.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

from stats import summarize_spans

# Module-level because forked pool workers must find the tracer their parent
# installed; nothing else reads it.
_ACTIVE: Tracer | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict = defaultdict(float)
        self.encounter = -1
        self.next_encounter = 0
        self._undo: list = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.encounter])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> float:
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[sid]
        span[2] = end
        return end - span[1]

    def wrap(self, name: str, fn, after=None):
        """fn inside a span; after(result, args, kwargs) may count what it returned."""

        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module, attr: str, make) -> None:
        """Replace module.attr by make(original) until `uninstall`."""
        original = getattr(module, attr)
        self._undo.append((module, attr, original))
        setattr(module, attr, make(original))

    def uninstall(self) -> None:
        global _ACTIVE
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()
        _ACTIVE = None

    def merge(self, spans: list, counters: dict, parent: int) -> None:
        """Adopt spans recorded elsewhere; their roots become children of `parent`."""
        base = len(self.spans)
        for name, start, end, p, enc in spans:
            self.spans.append([name, start, end, parent if p < 0 else base + p, enc])
        for key, value in counters.items():
            self.counters[key] += value


def _encounter_scope(tracer: Tracer, fn):
    """run_closed_loop under a fresh encounter id, counting steps and nominal runs."""
    from intentmpc.sim import DISTURBANCE_NONE, SimulationAborted

    def traced(spec, *args, **kwargs):
        outer = tracer.encounter
        tracer.encounter = tracer.next_encounter
        tracer.next_encounter += 1
        sid = tracer.open("sim.run_closed_loop")
        trace = None
        try:
            trace = fn(spec, *args, **kwargs)
            return trace
        except SimulationAborted as err:
            trace = err.trace
            raise
        finally:
            seconds = tracer.close(sid)
            tracer.encounter = outer
            if trace is not None:
                tracer.counters["sim.steps"] += len(trace.steps)
            if spec.disturbance.kind == DISTURBANCE_NONE:
                tracer.counters["sim.nominal_runs"] += 1
                tracer.counters["sim.nominal_seconds"] += seconds

    traced.__wrapped__ = fn
    return traced


def _problem_wrapper(tracer: Tracer, fn):
    """build_problem whose returned NlpProblem has traced callables."""

    def traced(*args, **kwargs):
        sid = tracer.open("mpc.build_problem")
        try:
            problem, tree = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        swaps = {}
        for field, name in (
            ("objective", "mpc.objective"),
            ("objective_grad", "mpc.objective_grad"),
            ("constraints_jac", "mpc.constraints_jac"),
            ("constraints_weighted_grad", "mpc.jtw"),
        ):
            if getattr(problem, field) is not None:
                swaps[field] = tracer.wrap(name, getattr(problem, field))
        if problem.constraints is not None:
            swaps["constraints"] = _rows_counted(tracer, tracer.wrap("mpc.constraints", problem.constraints))
        return dataclasses.replace(problem, **swaps), tree

    traced.__wrapped__ = fn
    return traced


def _rows_counted(tracer: Tracer, constraints):
    """Count the constraint rows of a problem on its first evaluation."""
    counted = False

    def traced(z):
        nonlocal counted
        c = constraints(z)
        if not counted:
            counted = True
            tracer.counters["mpc.problems"] += 1
            tracer.counters["mpc.constraint_rows"] += len(c)
        return c

    return traced


def _count_tree(tracer: Tracer):
    def after(tree, args, kwargs):
        tracer.counters["dynamics.scenarios"] += len(tree.trajectories)

    return after


def _count_solve(tracer: Tracer):
    from intentmpc.solver import STATUS_MAX_ITERS, SolverConfig

    def after(result, args, kwargs):
        config = args[2] if len(args) > 2 else kwargs.get("config")
        outer_max = (config or SolverConfig()).outer_max_iters
        status = result.status
        # The repeated-state break reports max_iters before the outer budget is spent.
        if status == STATUS_MAX_ITERS and result.outer_iters < outer_max:
            status = "stalled"
        tracer.counters[f"solver.status.{status}"] += 1
        tracer.counters["solver.inner_iters"] += result.inner_iters_total
        tracer.counters["solver.outer_iters"] += result.outer_iters

    return after


class _TracedPool(ProcessPoolExecutor):
    """Pool that runs each task under the worker's tracer and returns its spans."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(max_workers, *args, **kwargs)
        _ACTIVE.counters["sim.workers"] = max(_ACTIVE.counters["sim.workers"], max_workers or 1)

    def map(self, fn, *iterables, **kwargs):
        tracer = _ACTIVE
        sid = tracer.open("sim.pool")
        try:
            items = list(zip(*iterables))
            tasks = [(fn, item, tracer.next_encounter + i) for i, item in enumerate(items)]
            tracer.next_encounter += len(items)
            results = []
            for result, spans, counters in super().map(_pool_task, tasks, **kwargs):
                tracer.merge(spans, counters, sid)
                results.append(result)
        finally:
            tracer.close(sid)
        return iter(results)


def _pool_task(task):
    """Worker side of _TracedPool: one task, traced from a clean slate."""
    fn, args, encounter = task
    tracer = _ACTIVE if _ACTIVE is not None else install()
    tracer.spans, tracer.stack, tracer.counters = [], [], defaultdict(float)
    tracer.encounter = tracer.next_encounter = encounter
    sid = tracer.open("sim.pool_task")
    try:
        result = fn(*args)
    finally:
        tracer.close(sid)
    return result, tracer.spans, dict(tracer.counters)


def install() -> Tracer:
    """Wrap the program's public functions where their callers look them up."""
    global _ACTIVE
    import intentmpc.cli as cli
    import intentmpc.mpc as mpc
    import intentmpc.sim as sim

    t = Tracer()

    def span(name, after=None):
        return lambda fn: t.wrap(name, fn, after)

    t.patch(cli, "load_scenario", span("scenario_io.load_scenario"))
    for attr in ("trace_to_csv", "summary_doc", "report_doc", "dump_json"):
        t.patch(cli, attr, span(f"scenario_io.{attr}"))
    for attr in (
        "plot_trajectories",
        "plot_separation",
        "plot_controls",
        "plot_monte_carlo_trajectories",
        "plot_monte_carlo_separation",
    ):
        t.patch(cli, attr, span(f"plots.{attr}"))
    t.patch(cli, "run_monte_carlo", span("sim.run_monte_carlo"))
    for module in (cli, sim):
        t.patch(module, "run_closed_loop", lambda fn: _encounter_scope(t, fn))
    t.patch(sim, "shortest_path", span("dubins.shortest_path"))
    t.patch(sim, "control_schedule", span("dubins.control_schedule"))
    t.patch(sim, "solve_step", span("mpc.solve_step"))
    t.patch(sim, "ProcessPoolExecutor", lambda cls: _TracedPool)
    t.patch(mpc, "build_problem", lambda fn: _problem_wrapper(t, fn))
    t.patch(mpc, "build_scenario_tree", span("dynamics.build_scenario_tree", _count_tree(t)))
    t.patch(mpc, "solve", span("solver.solve", _count_solve(t)))
    _ACTIVE = t
    return t


# name: (unit, description).  Counts are totals over the traced body; *_ms and
# *_us are means per call unless the description says otherwise.
LAYER_METRICS = {
    "dynamics.tree_ms": ("ms", "build_scenario_tree time per call"),
    "dynamics.tree_calls": ("count", "build_scenario_tree calls"),
    "dynamics.scenarios": ("count", "scenarios per tree"),
    "dynamics.tree_share": ("1", "tree time / solve_step time"),
    "mpc.build_ms": ("ms", "build_problem self time per call, tree excluded"),
    "mpc.constraint_rows": ("count", "separation rows per problem"),
    "mpc.step_self_ms": ("ms", "solve_step self time per call: warm start, rollout, packaging"),
    "mpc.objective_us": ("us", "NlpProblem.objective per call"),
    "mpc.objective_grad_us": ("us", "NlpProblem.objective_grad per call"),
    "mpc.constraints_us": ("us", "NlpProblem.constraints per call"),
    "mpc.jtw_us": ("us", "NlpProblem.constraints_weighted_grad (J^T w) per call"),
    "mpc.evals": ("count", "AL evaluations (objective_grad calls)"),
    "mpc.evals_per_solve": ("count", "AL evaluations per solve"),
    "mpc.jtw_active_frac": ("1", "share of AL evaluations with an active constraint (J^T w called)"),
    "solver.solve_ms": ("ms", "solve per call"),
    "solver.self_ms": ("ms", "solve self time per call: L-BFGS-B and AL bookkeeping"),
    "solver.inner_iters": ("count", "L-BFGS-B iterations"),
    "solver.outer_iters": ("count", "AL outer iterations"),
    "solver.evals_per_inner": ("count", "AL evaluations per inner iteration"),
    "solver.converged": ("count", "solves with status converged"),
    "solver.max_iters": ("count", "solves with status max_iters that spent the outer budget"),
    "solver.stalled": ("count", "solves with status max_iters that broke early on a repeated state"),
    "solver.infeasible": ("count", "solves with status infeasible_stationary"),
    "sim.steps": ("count", "closed-loop steps"),
    "sim.loop_self_us": ("us", "run_closed_loop self time per step, outside solve_step and planning"),
    "sim.nominal_s": ("s", "disturbance-free serial run_closed_loop per call (the whole encounter on crossings)"),
    "sim.pool_efficiency": ("1", "sum of encounter busy time / (workers x command wall)"),
    "dubins.plan_ms": ("ms", "shortest_path + control_schedule per encounter"),
    "scenario_io.load_ms": ("ms", "load_scenario per call"),
    "scenario_io.csv_ms": ("ms", "trace_to_csv per CSV"),
    "scenario_io.report_ms": ("ms", "summary_doc/report_doc/dump_json per command"),
    "plots.svg_ms": ("ms", "SVG plot per call"),
    "cli.write_ms": ("ms", "cli.main self time per command: argument parsing and file writes"),
    "trace.overhead_s": ("s", "traced command wall minus untraced command wall"),
}


def layer_metrics(spans: list, counters: dict, overhead_s: float) -> dict:
    """The per-layer metrics of LAYER_METRICS from one traced body."""
    by = summarize_spans(spans)

    def calls(name):
        return by.get(name, {}).get("calls", 0)

    def total(*names):
        return sum(by.get(n, {}).get("total", 0.0) for n in names)

    def own(*names):
        return sum(by.get(n, {}).get("self", 0.0) for n in names)

    def per(value, count):
        return value / count if count else 0.0

    tree_calls = calls("dynamics.build_scenario_tree")
    solves = calls("solver.solve")
    evals = calls("mpc.objective_grad")
    inner = counters.get("solver.inner_iters", 0.0)
    steps = counters.get("sim.steps", 0.0)
    commands = calls("cli.main")
    encounters = calls("sim.run_closed_loop")
    plots = [n for n in by if n.startswith("plots.")]
    docs = ("scenario_io.summary_doc", "scenario_io.report_doc", "scenario_io.dump_json")
    pooled = calls("sim.pool_task") > 0
    busy = total("sim.pool_task") if pooled else total("sim.run_closed_loop")
    workers = counters.get("sim.workers", 0.0) or 1.0

    values = {
        "dynamics.tree_ms": 1e3 * per(total("dynamics.build_scenario_tree"), tree_calls),
        "dynamics.tree_calls": tree_calls,
        "dynamics.scenarios": per(counters.get("dynamics.scenarios", 0.0), tree_calls),
        "dynamics.tree_share": per(total("dynamics.build_scenario_tree"), total("mpc.solve_step")),
        "mpc.build_ms": 1e3 * per(own("mpc.build_problem"), calls("mpc.build_problem")),
        "mpc.constraint_rows": per(counters.get("mpc.constraint_rows", 0.0), counters.get("mpc.problems", 0.0)),
        "mpc.step_self_ms": 1e3 * per(own("mpc.solve_step"), calls("mpc.solve_step")),
        "mpc.objective_us": 1e6 * per(own("mpc.objective"), calls("mpc.objective")),
        "mpc.objective_grad_us": 1e6 * per(own("mpc.objective_grad"), evals),
        "mpc.constraints_us": 1e6 * per(own("mpc.constraints"), calls("mpc.constraints")),
        "mpc.jtw_us": 1e6 * per(own("mpc.jtw"), calls("mpc.jtw")),
        "mpc.evals": evals,
        "mpc.evals_per_solve": per(evals, solves),
        "mpc.jtw_active_frac": per(calls("mpc.jtw"), evals),
        "solver.solve_ms": 1e3 * per(total("solver.solve"), solves),
        "solver.self_ms": 1e3 * per(own("solver.solve"), solves),
        "solver.inner_iters": inner,
        "solver.outer_iters": counters.get("solver.outer_iters", 0.0),
        "solver.evals_per_inner": per(evals, inner),
        "solver.converged": counters.get("solver.status.converged", 0.0),
        "solver.max_iters": counters.get("solver.status.max_iters", 0.0),
        "solver.stalled": counters.get("solver.status.stalled", 0.0),
        "solver.infeasible": counters.get("solver.status.infeasible_stationary", 0.0),
        "sim.steps": steps,
        "sim.loop_self_us": 1e6 * per(own("sim.run_closed_loop"), steps),
        "sim.nominal_s": per(counters.get("sim.nominal_seconds", 0.0), counters.get("sim.nominal_runs", 0.0)),
        "sim.pool_efficiency": per(busy, workers * total("cli.main")),
        "dubins.plan_ms": 1e3 * per(total("dubins.shortest_path", "dubins.control_schedule"), encounters),
        "scenario_io.load_ms": 1e3 * per(total("scenario_io.load_scenario"), calls("scenario_io.load_scenario")),
        "scenario_io.csv_ms": 1e3 * per(total("scenario_io.trace_to_csv"), calls("scenario_io.trace_to_csv")),
        "scenario_io.report_ms": 1e3 * per(total(*docs), commands),
        "plots.svg_ms": 1e3 * per(total(*plots), sum(calls(n) for n in plots)),
        "cli.write_ms": 1e3 * per(own("cli.main"), commands),
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": float(values[name]), "unit": unit} for name, (unit, _) in LAYER_METRICS.items()}
