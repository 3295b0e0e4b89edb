"""The measured part of one benchmark run, in a process of its own.

`run.py` starts this script; it is not meant to be run by hand.  It drives
the program only through `intentmpc.cli.main`, reads back the files the
command wrote, checks them, and writes its raw measurements as JSON.

    body.py --probe SCENARIO
        import the CLI, load and validate SCENARIO, plan the intruder's
        Dubins intent, print "ready" and exit (one set-up sample).
    body.py --workload W --scenario S --out DIR --seconds T --trace 0|1 --result FILE
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from stats import csv_digest, encounter_failed  # noqa: E402

# Per-step medians are taken over as many runs of the command as --seconds
# allows, but never fewer than MIN_REPEATS.
MIN_REPEATS = 3


def probe(scenario: str) -> None:
    import intentmpc.cli  # noqa: F401  (the import a CLI user pays)
    from intentmpc.scenario_io import load_scenario
    from intentmpc.sim import intruder_plan

    intruder_plan(load_scenario(scenario))
    print("ready", flush=True)


def command(workload: str, scenario: str, out: Path) -> list[str]:
    if workload == "intent-mc":
        return ["montecarlo", "--scenario", scenario, "--out", str(out), "--runs", "20"]
    return ["simulate", "--scenario", scenario, "--out", str(out)]


def read_outputs(workload: str, out: Path, rho: float, exit_code: int) -> dict:
    """Encounters, per-step latencies, digest and check failures of one command."""
    problems = []
    if exit_code != 0:
        problems.append(f"command exited with {exit_code}")
    csvs = sorted(out.glob("*.csv"))
    texts = [(p.name, p.read_text(encoding="utf-8")) for p in csvs]
    steps: dict = {}
    for name, text in texts:
        rows = text.strip().split("\n")
        header = rows[0].split(",")
        t_col, ms_col, status_col = header.index("t"), header.index("solve_ms"), header.index("solver_status")
        for row in rows[1:]:
            cells = row.split(",")
            steps[f"{name}:{cells[t_col]}"] = (float(cells[ms_col]), cells[status_col])

    encounters = []
    if workload == "intent-mc":
        doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for run in doc["runs"] + [doc["nominal"]]:
            aborted = "error" in run or "metrics" not in run
            m = run.get("metrics", {})
            encounters.append(
                {
                    "arrived": bool(run.get("arrived", False)),
                    "aborted": aborted,
                    "min_separation": m.get("min_separation", float("-inf")),
                    "path_length": m.get("path_length", 0.0),
                }
            )
        agg = doc["aggregate"]
        if agg["violation_runs"] != 0:
            problems.append(f"violation_runs = {agg['violation_runs']}")
        if not agg["terminal_spread"]["max"] > 0.0:
            problems.append("terminal_spread_max is 0: the disturbance had no effect")
    else:
        summary_path = out / "summary.json"
        doc = json.loads(summary_path.read_text(encoding="utf-8")) if summary_path.exists() else {}
        m = doc.get("metrics", {})
        encounters.append(
            {
                "arrived": bool(doc.get("arrived", False)),
                "aborted": exit_code != 0,
                "min_separation": m.get("min_separation", float("-inf")),
                "path_length": m.get("path_length", 0.0),
            }
        )
    for e in encounters:
        e["failed"] = encounter_failed(e["arrived"], e["aborted"], e["min_separation"], rho)
    failed = sum(e["failed"] for e in encounters)
    if failed:
        problems.append(f"{failed} of {len(encounters)} encounters failed")
    return {
        "encounters": encounters,
        "latency_ms": {k: v[0] for k, v in steps.items()},
        "status": {k: v[1] for k, v in steps.items()},
        "digest": csv_digest(texts),
        "problems": problems,
    }


def run_command(cli, workload: str, scenario: str, out: Path, rho: float, main=None) -> dict:
    if out.exists():
        shutil.rmtree(out)
    argv = command(workload, scenario, out)
    start = time.perf_counter()
    code = (main or cli.main)(argv)
    wall = time.perf_counter() - start
    result = read_outputs(workload, out, rho, code)
    result["wall_s"] = wall
    return result


def traced_command(cli, workload: str, scenario: str, out: Path, rho: float) -> tuple[dict, list, dict]:
    tracer = tracing.install()
    try:
        result = run_command(cli, workload, scenario, out, rho, main=tracer.wrap("cli.main", cli.main))
    finally:
        tracer.uninstall()
    return result, tracer.spans, dict(tracer.counters)


def span_cost_seconds(calls: int = 20000) -> float:
    """Seconds one traced call adds.  Span count times this estimates the tracing
    overhead, which one traced-minus-untraced wall difference can lose in noise."""
    tracer = tracing.Tracer()
    noop = tracer.wrap("noop", lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (time.perf_counter() - start) / calls


def write_spans(path: Path, spans: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,encounter\n")
        for i, (name, start, end, parent, enc) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent},{enc}\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe")
    parser.add_argument("--workload")
    parser.add_argument("--scenario")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--result")
    args = parser.parse_args()
    if args.probe:
        probe(args.probe)
        return 0

    import numpy
    import scipy

    import intentmpc.cli as cli

    rho = json.loads(Path(args.scenario).read_text(encoding="utf-8"))["mpc"]["rho"]
    work = Path(args.out)
    record: dict = {
        "env": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }

    if args.trace:
        plain = run_command(cli, args.workload, args.scenario, work / "untraced", rho)
        traced, spans, counters = traced_command(cli, args.workload, args.scenario, work / "traced", rho)
        write_spans(work / "spans.csv", spans)
        if traced["digest"] != plain["digest"]:
            traced["problems"].append("traced CSV digest differs from the untraced one")
        record["repeats"] = [plain, traced]
        record["layers"] = tracing.layer_metrics(spans, counters, traced["wall_s"] - plain["wall_s"])
        record["span_count"] = len(spans)
        record["span_cost_s"] = span_cost_seconds()
        record["traced_workers"] = int(counters.get("sim.workers", 0) or 1)
    else:
        repeats: list[dict] = []
        start = time.perf_counter()
        while True:
            repeats.append(run_command(cli, args.workload, args.scenario, work / "out", rho))
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall_s"] for r in repeats)
            if len(repeats) >= MIN_REPEATS and elapsed + typical > args.seconds:
                break
        if len({r["digest"] for r in repeats}) != 1:
            repeats[-1]["problems"].append("repeats of the same inputs wrote different CSVs")
        record["repeats"] = repeats

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    record["peak_rss_mb"] = (own + workers) / 1024.0
    Path(args.result).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
