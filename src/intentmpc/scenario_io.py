"""Scenario-file parsing (strict JSON schema), CSV traces, and summaries.

Scenario documents mirror ScenarioSpec and its MpcConfig; unknown keys are
rejected with the offending JSON path so authoring mistakes surface instead
of silently acquiring defaults.  Angles are radians; disturbance bounds are
degrees/second (converted here).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

from .dubins import Pose
from .dynamics import ControlBounds
from .mpc import MpcConfig, MpcMode, MpcWeights
from .sim import (
    DISTURBANCE_UNIFORM,
    Disturbance,
    MonteCarloReport,
    ScenarioSpec,
    SimTrace,
    _within_target,
    metrics,
)
from .solver import STATUS_INFEASIBLE, SolverConfig

DEG = math.pi / 180.0

CSV_HEADER = "t,own_x,own_y,own_heading,intr_x,intr_y,intr_heading,v,u,separation,solver_status,solve_ms"

MODES = {m.value: m for m in MpcMode}
# The scenario key each checked field is read from.  The constructors' value
# errors start with the field's name, which this table turns into the key.
_FIELD_KEYS = {
    "horizon": "mpc.N",
    "robust_horizon": "mpc.N_r",
    "min_separation": "mpc.rho",
    "state_weight": "mpc.Q",
    "terminal_weight": "mpc.Qf",
    "rate_smoothing": "mpc.R",
    "intruder_bounds": "intruder.bounds.u",
    "kind": "disturbance.kind",
    "lo": "disturbance.lo_deg_s",
    "max_steps": "sim.max_steps",
    "target_radius": "sim.target_radius",
    "rng_seed": "sim.seed",
}

# Every scenario runs at dt = 1 s.  Receding-horizon solves need
# feasibility, not tight stationarity: the optimality tolerance is loosened
# to match the cost scale (~1e5 m^2) and the outer budget trimmed, since the
# next re-solve corrects any slack.
CLOSED_LOOP_SOLVER = SolverConfig(outer_max_iters=12, inner_max_iters=200, optimality_tol=5e-4)


class ScenarioError(ValueError):
    """Scenario document rejected; `path` names the offending JSON node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_keys(doc: dict, path: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(doc, dict):
        raise ScenarioError(path, f"expected an object, got {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise ScenarioError(f"{path}.{key}" if path else key, "missing required key")
    for key in doc:
        if key not in required and key not in optional:
            raise ScenarioError(f"{path}.{key}" if path else key, "unknown key")


def _number(doc, path: str) -> float:
    if isinstance(doc, bool) or not isinstance(doc, (int, float)):
        raise ScenarioError(path, f"expected a number, got {type(doc).__name__}")
    value = float(doc)
    if not math.isfinite(value):
        raise ScenarioError(path, "must be finite")
    return value


def _integer(doc, path: str) -> int:
    if isinstance(doc, bool) or not isinstance(doc, int):
        raise ScenarioError(path, f"expected an integer, got {type(doc).__name__}")
    return doc


def _pose(doc, path: str) -> Pose:
    if not isinstance(doc, list) or len(doc) != 3:
        raise ScenarioError(path, "expected [x, y, heading]")
    return Pose(*(_number(v, f"{path}[{i}]") for i, v in enumerate(doc)))


def _pair(doc, path: str) -> tuple[float, float]:
    if not isinstance(doc, list) or len(doc) != 2:
        raise ScenarioError(path, "expected [min, max]")
    return _number(doc[0], f"{path}[0]"), _number(doc[1], f"{path}[1]")


def _triple(doc, path: str) -> tuple[float, float, float]:
    if not isinstance(doc, list) or len(doc) != 3:
        raise ScenarioError(path, "expected three diagonal entries")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(doc))  # type: ignore[return-value]


def _build(cls, path: str, **fields):
    """cls(**fields); a ValueError becomes a ScenarioError at the key of the field it names, or at `path`."""
    try:
        return cls(**fields)
    except ValueError as err:
        raise ScenarioError(_FIELD_KEYS.get(str(err).split(" ", 1)[0], path), str(err)) from err


def _bounds(doc, path: str) -> ControlBounds:
    _require_keys(doc, path, ("v", "u"))
    v = _pair(doc["v"], f"{path}.v")
    u = _pair(doc["u"], f"{path}.u")
    return _build(ControlBounds, path, v_min=v[0], v_max=v[1], u_min=u[0], u_max=u[1])


def _aircraft(doc, path: str) -> tuple[Pose, Pose, ControlBounds]:
    _require_keys(doc, path, ("start", "target", "bounds"))
    return (
        _pose(doc["start"], f"{path}.start"),
        _pose(doc["target"], f"{path}.target"),
        _bounds(doc["bounds"], f"{path}.bounds"),
    )


def parse_scenario(doc: dict) -> ScenarioSpec:
    """Validate a scenario document into a ScenarioSpec (strict schema)."""
    _require_keys(doc, "", ("ownship", "intruder", "mpc", "disturbance", "sim"))
    own_start, own_target, own_bounds = _aircraft(doc["ownship"], "ownship")
    intr_start, intr_target, intr_bounds = _aircraft(doc["intruder"], "intruder")

    mpc = doc["mpc"]
    _require_keys(mpc, "mpc", ("N", "N_r", "Q", "Qf", "R", "rho", "mode"))
    n = _integer(mpc["N"], "mpc.N")
    n_r = _integer(mpc["N_r"], "mpc.N_r")
    rho = _number(mpc["rho"], "mpc.rho")
    q, qf, r = _triple(mpc["Q"], "mpc.Q"), _triple(mpc["Qf"], "mpc.Qf"), _number(mpc["R"], "mpc.R")
    mode_name = mpc["mode"]
    if not isinstance(mode_name, str) or mode_name not in MODES:
        raise ScenarioError("mpc.mode", f"expected one of {sorted(MODES)}, got {mode_name!r}")
    config = _build(
        MpcConfig,
        "mpc",
        horizon=n,
        robust_horizon=n_r,
        dt=1.0,
        min_separation=rho,
        weights=_build(MpcWeights, "mpc", state_weight=q, terminal_weight=qf, rate_smoothing=r),
        own_bounds=own_bounds,
        intruder_bounds=intr_bounds,
        mode=MODES[mode_name],
        target=own_target,
        solver=CLOSED_LOOP_SOLVER,
    )

    dist = doc["disturbance"]
    _require_keys(dist, "disturbance", ("kind",), ("lo_deg_s", "hi_deg_s"))
    limits = {}
    if dist["kind"] == DISTURBANCE_UNIFORM:
        if "lo_deg_s" not in dist or "hi_deg_s" not in dist:
            raise ScenarioError("disturbance", "uniform disturbance needs lo_deg_s and hi_deg_s")
        limits = {bound: _number(dist[f"{bound}_deg_s"], f"disturbance.{bound}_deg_s") * DEG for bound in ("lo", "hi")}
    disturbance = _build(Disturbance, "disturbance", kind=dist["kind"], **limits)

    sim = doc["sim"]
    _require_keys(sim, "sim", ("max_steps", "target_radius", "seed"))
    spec = _build(
        ScenarioSpec,
        "",
        max_steps=_integer(sim["max_steps"], "sim.max_steps"),
        target_radius=_number(sim["target_radius"], "sim.target_radius"),
        own_start=own_start,
        intruder_start=intr_start,
        intruder_target=intr_target,
        mpc=config,
        disturbance=disturbance,
        rng_seed=_integer(sim["seed"], "sim.seed"),
    )
    if _within_target(own_start, spec):
        raise ScenarioError("ownship.start", "lies within sim.target_radius of ownship.target, so no step would run")
    return spec


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ScenarioError("", f"not valid JSON: {err}") from err
    return parse_scenario(doc)


def _fmt(value: float) -> str:
    return format(float(value), ".9g")


def trace_to_csv(trace: SimTrace) -> str:
    """One row per applied step; floats carry 9 significant digits, LF endings.

    Every column except solve_ms is a deterministic function of the scenario
    and seed; solve_ms is measured wall time.
    """
    lines = [CSV_HEADER]
    for s in trace.steps:
        lines.append(
            ",".join(
                (
                    str(s.t),
                    _fmt(s.own.x),
                    _fmt(s.own.y),
                    _fmt(s.own.heading),
                    _fmt(s.intruder.x),
                    _fmt(s.intruder.y),
                    _fmt(s.intruder.heading),
                    _fmt(s.applied.speed),
                    _fmt(s.applied.angular_rate),
                    _fmt(s.separation),
                    s.solver_status,
                    _fmt(s.solve_seconds * 1000.0),
                )
            )
        )
    return "\n".join(lines) + "\n"


def summary_doc(trace: SimTrace) -> dict:
    """Deterministic per-run summary (no timing)."""
    m = metrics(trace)
    return {
        "mode": trace.spec.mpc.mode.value,
        "rho": trace.spec.mpc.min_separation,
        "steps": len(trace.steps),
        "arrived": trace.arrived,
        "terminal_status": trace.terminal_status,
        "metrics": asdict(m),
        "flagged_steps": sum(1 for s in trace.steps if s.solver_status == STATUS_INFEASIBLE),
        "seed": trace.spec.rng_seed,
    }


def report_doc(report: MonteCarloReport) -> dict:
    """Deterministic Monte-Carlo report document."""
    runs = []
    for index, outcome in enumerate(report.runs):
        entry: dict = {"index": index, "seed": outcome.trace.spec.rng_seed}
        if outcome.trace.steps:
            entry.update(summary_doc(outcome.trace))
        if outcome.error is not None:
            entry["error"] = outcome.error
        runs.append(entry)
    agg = report.aggregate
    return {
        "runs": runs,
        "nominal": summary_doc(report.nominal),
        "aggregate": {
            "min_min_separation": agg.min_min_separation,
            "violation_runs": agg.violation_runs,
            "path_length": {
                "min": agg.path_length_min,
                "mean": agg.path_length_mean,
                "max": agg.path_length_max,
            },
            "terminal_spread": {
                "max": agg.terminal_spread_max,
                "mean": agg.terminal_spread_mean,
                "common_step_index": agg.common_step_index,
            },
        },
    }


def dump_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
