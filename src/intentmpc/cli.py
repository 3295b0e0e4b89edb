"""Command-line entry points: simulate, montecarlo, dubins.

Exit codes: 0 success, 2 invalid scenario or arguments (stderr names the
offending JSON path or option; an unreadable scenario file or an --out that
is a file exits 2 before any run), 3 solver numerical failure (partial
outputs are still written).  A Monte-Carlo batch solves the steps its runs
share in this process, and pools the runs that leave that shared prefix over
the CPUs this process may run on (`taskset` narrows them).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .dubins import Pose, control_schedule, shortest_path
from .plots import (
    plot_controls,
    plot_monte_carlo_separation,
    plot_monte_carlo_trajectories,
    plot_separation,
    plot_trajectories,
)
from .scenario_io import MODES, ScenarioError, dump_json, load_scenario, report_doc, summary_doc, trace_to_csv
from .sim import SimulationAborted, run_closed_loop, run_monte_carlo

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_SOLVER_FAILURE = 3


def _inputs(args):
    if args.seed is not None and args.seed < 0:
        raise argparse.ArgumentTypeError(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    if out.exists() and not out.is_dir():
        raise argparse.ArgumentTypeError(f"--out {out} exists and is not a directory")
    try:
        spec = load_scenario(args.scenario)
    except (OSError, UnicodeDecodeError) as err:
        raise argparse.ArgumentTypeError(f"--scenario {args.scenario} cannot be read: {err}") from err
    if args.mode is not None:
        spec = replace(spec, mpc=replace(spec.mpc, mode=MODES[args.mode]))
    if args.seed is not None:
        spec = replace(spec, rng_seed=args.seed)
    return spec, out


def _write(path: Path, content: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(content)


def _write_run_outputs(out: Path, trace) -> None:
    _write(out / "trace.csv", trace_to_csv(trace))
    _write(out / "summary.json", dump_json(summary_doc(trace)))
    _write(out / "traj.svg", plot_trajectories(trace))
    _write(out / "distance.svg", plot_separation(trace))
    _write(out / "controls.svg", plot_controls(trace))


def cmd_simulate(args) -> int:
    spec, out = _inputs(args)
    try:
        trace = run_closed_loop(spec)
    except SimulationAborted as err:
        print(f"solver failure: {err}", file=sys.stderr)
        if err.trace.steps:
            _write_run_outputs(out, err.trace)
        return EXIT_SOLVER_FAILURE
    _write_run_outputs(out, trace)
    print(f"wrote trace.csv, summary.json and plots to {out}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    if args.runs < 1:
        raise argparse.ArgumentTypeError(f"--runs must be at least 1, got {args.runs}")
    spec, out = _inputs(args)
    # The CPUs this process may run on, not every CPU of the machine.
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    report = run_monte_carlo(spec, runs=args.runs, max_workers=workers)
    failures = 0
    for index, trace in enumerate(report.runs):
        if trace.steps:
            _write(out / f"run_{index:03d}.csv", trace_to_csv(trace))
        if trace.error is not None:
            failures += 1
            print(f"run {index} failed: {trace.error}", file=sys.stderr)
    if report.nominal.steps:
        _write(out / "nominal.csv", trace_to_csv(report.nominal))
    # The report and overlays need the whole nominal run and at least one completed run.
    if report.nominal.error is not None:
        print(f"nominal run failed: {report.nominal.error}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    if failures == len(report.runs):
        print(f"no run completed; wrote the run CSVs to {out}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    _write(out / "report.json", dump_json(report_doc(report)))
    _write(out / "overlay_traj.svg", plot_monte_carlo_trajectories(report))
    _write(out / "overlay_distance.svg", plot_monte_carlo_separation(report))
    print(f"wrote {args.runs} run CSVs, report.json and overlays to {out}")
    return EXIT_SOLVER_FAILURE if failures else EXIT_OK


def cmd_dubins(args) -> int:
    try:
        path = shortest_path(Pose(*args.start), Pose(*args.goal), args.radius)
        schedule = control_schedule(path, args.speed, args.dt)
    except ValueError as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    # Full-precision floats so the output round-trips exactly.
    print(f"word,{path.word.name}")
    print(f"seg_lengths,{path.seg_lengths[0]!r},{path.seg_lengths[1]!r},{path.seg_lengths[2]!r}")
    print(f"total_length,{path.total_length!r}")
    print("step,angular_rate")
    for k, rate in enumerate(schedule.angular_rates):
        print(f"{k},{rate!r}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="intent-mpc", description="Intent-aware scenario-tree MPC collision avoidance")
    sub = parser.add_subparsers(dest="command", required=True)

    encounter = argparse.ArgumentParser(add_help=False)
    encounter.add_argument("--scenario", required=True, help="scenario JSON file")
    encounter.add_argument("--out", required=True, help="output directory")
    encounter.add_argument("--mode", choices=sorted(MODES), help="override the scenario's controller mode")
    encounter.add_argument("--seed", type=int, help="override the scenario's RNG seed")
    sub.add_parser("simulate", parents=[encounter], help="run one closed-loop encounter").set_defaults(fn=cmd_simulate)
    mc = sub.add_parser("montecarlo", parents=[encounter], help="run a seeded Monte-Carlo batch")
    mc.add_argument("--runs", type=int, default=20)
    mc.set_defaults(fn=cmd_montecarlo)

    du = sub.add_parser("dubins", help="print the shortest path and control schedule between two poses")
    du.add_argument("--start", nargs=3, type=float, required=True, metavar=("X", "Y", "H"))
    du.add_argument("--goal", nargs=3, type=float, required=True, metavar=("X", "Y", "H"))
    du.add_argument("--radius", type=float, required=True)
    du.add_argument("--speed", type=float, required=True)
    du.add_argument("--dt", type=float, default=1.0)
    du.set_defaults(fn=cmd_dubins)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except argparse.ArgumentTypeError as err:
        print(f"invalid arguments: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ScenarioError as err:
        print(f"invalid scenario: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
