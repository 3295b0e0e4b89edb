"""Closed-loop benchmark of intentmpc: three encounter workloads.

    python3 perfbench/run.py --workload crossing-tree --seed 1 --seconds 42 --trace 0

Run from the root of a source checkout; nothing is installed.  Workloads:

  crossing-tree     reference_crossing.json, scenario-tree mode (N=30, N_r=3:
                    27 scenarios, 837 rows), disturbance off.  The most
                    evaluation and solver work per step.
  crossing-classic  the same encounter in classic mode: one scenario, 31 rows,
                    about as much solver work.  The bypass for row-count changes.
  intent-mc         `montecarlo --runs 20` on intent_comparison.json with a
                    +-0.5 deg/s uniform intruder-rate disturbance, scenario-tree
                    mode, min(2, nproc) workers.  Tree and problem building, the
                    process pool and output writing dominate; the solver idles.

Each run is a closed loop: one command at a time, the next one started when
the previous returns.  The command is repeated for as long as another repeat
would end within --seconds, and at least three times.
The seed sets the scenario's RNG seed; the crossings have the disturbance off,
so their inputs and outputs are the same for every seed.

`--workload all` runs the three in turn, each printing its own report and
result line.

--trace 0 prints the end-to-end metrics, measured untraced.  --trace 1 runs the
command once untraced and once traced (see tracing.py) and prints the
per-layer metrics, including the tracing overhead.  Every run checks the
outputs: each encounter arrives without an abort and keeps its separation
>= rho - 1e-3 m; on intent-mc no run violates rho and the disturbance spread
the intruders; repeats and the traced run write byte-identical trace CSVs
apart from solve_ms.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import harrell_davis, tail_percentile, per_step_median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

# name: (shipped scenario, controller mode, disturbance).  The shipped crossing
# has a disturbance, which the crossings switch off so that every repeat is the
# same encounter; the shipped intent comparison has none, and a batch without
# one would repeat one run twenty times.
WORKLOADS = {
    "crossing-tree": ("reference_crossing.json", "scenario-tree", {"kind": "none"}),
    "crossing-classic": ("reference_crossing.json", "classic", {"kind": "none"}),
    "intent-mc": ("intent_comparison.json", "scenario-tree", {"kind": "uniform", "lo_deg_s": -0.5, "hi_deg_s": 0.5}),
}

# Set-up is sampled this many times in fresh processes; the median is reported.
SETUP_SAMPLES = 5
# A run must end within 180 s; leave room for set-up and reporting.
BODY_TIMEOUT_S = 150.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_p50_ms": "ms",
    "solve_p90_ms": "ms",
    "converged_frac": "1",
    "success_frac": "1",
    "path_length_m": "m",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def make_scenario(workload: str, seed: int, path: Path) -> None:
    """The workload's scenario file, with its RNG seed drawn from the benchmark seed."""
    name, mode, disturbance = WORKLOADS[workload]
    doc = json.loads((ROOT / "scenarios" / name).read_text(encoding="utf-8"))
    doc["mpc"]["mode"] = mode
    doc["disturbance"] = disturbance
    doc["sim"]["seed"] = random.Random(seed).randrange(2**31)
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def child_env(workers: int) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["INTENT_MPC_THREADS"] = str(workers)
    return env


def setup_seconds(scenario: Path, env: dict) -> list[float]:
    """Process start until the first encounter could start, in fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "body.py"), "--probe", str(scenario)],
                              stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return samples


def run_body(args, scenario: Path, work: Path, env: dict) -> dict:
    result = work / "body.json"
    cmd = [sys.executable, str(HERE / "body.py"), "--workload", args.workload, "--scenario", str(scenario),
           "--out", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", str(result)]
    with open(work / "body.log", "w", encoding="utf-8") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT, start_new_session=True)
        try:
            code = proc.wait(timeout=BODY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"body exceeded {BODY_TIMEOUT_S:.0f} s; see {work / 'body.log'}")
        finally:
            # On a timeout, an interrupt or SIGTERM, the body and its pool
            # workers end with this process.
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if code != 0:
        raise RuntimeError(f"body exited with {code}; see {work / 'body.log'}")
    return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(record: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics, and the sample counts behind the percentiles.

    The worst step's latency goes with the counts, not the metrics: it is one
    sample with none beyond it, and on a shared host it spreads between runs
    of the same code by about as much as any bound allows.
    """
    repeats = record["repeats"]
    steps = per_step_median([r["latency_ms"] for r in repeats])
    latencies = list(steps.values())
    _, beyond = tail_percentile(latencies, 0.9)
    statuses = repeats[0]["status"]
    encounters = repeats[0]["encounters"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in repeats),
        "solve_p50_ms": statistics.median(latencies),
        "solve_p90_ms": harrell_davis(latencies, 0.9),
        "converged_frac": sum(s == "converged" for s in statuses.values()) / len(statuses),
        "success_frac": 1.0 - sum(e["failed"] for r in repeats for e in r["encounters"])
        / sum(len(r["encounters"]) for r in repeats),
        "path_length_m": statistics.mean(e["path_length"] for e in encounters),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    counts = {"steps": len(latencies), "repeats": len(repeats), "p90_beyond": beyond, "setup_samples": len(setup),
              "solve_max_ms": max(latencies)}
    return {k: {"value": float(values[k]), "unit": u} for k, u in END_TO_END.items()}, counts


def digest_reference(workload: str, seed: int, digest: str) -> str:
    refs = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    ref = refs.get(workload)
    if isinstance(ref, dict):
        ref = ref.get(str(seed))
    if ref is None:
        return "no reference"
    return "matches reference" if ref == digest else f"DRIFT from reference {ref}"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run(args) -> int:
    """One workload: measure, check, print the report and the result line."""
    missing = [p for p in ("src/intentmpc/cli.py", "scenarios/reference_crossing.json",
                           "scenarios/intent_comparison.json") if not (ROOT / p).is_file()]
    if missing:
        return fail(f"not a source checkout of intentmpc: missing {', '.join(missing)}")

    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    scenario = work / "scenario.json"
    make_scenario(args.workload, args.seed, scenario)
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(2, nproc) if args.workload == "intent-mc" else 1
    env = child_env(workers)

    try:
        setup = [] if args.trace else setup_seconds(scenario, env)
        record = run_body(args, scenario, work, env)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        return fail(str(err))

    repeats = record["repeats"]
    problems = [p for r in repeats for p in r["problems"]]
    attempted = sum(len(r["encounters"]) for r in repeats)
    failed = sum(e["failed"] for r in repeats for e in r["encounters"])
    env_info = dict(record["env"], cpu=cpu_model(), nproc=nproc, workers=workers,
                    blas_threads=1, traced_workers=record.get("traced_workers"))
    digest = repeats[0]["digest"]

    if args.trace:
        metrics = record["layers"]
        counts = {"spans": record["span_count"], "traced_workers": record["traced_workers"],
                  "span_cost_us": 1e6 * record["span_cost_s"],
                  "estimated_overhead_s": record["span_count"] * record["span_cost_s"]}
    else:
        try:
            metrics, counts = end_to_end(record, setup)
        except ValueError as err:
            problems.append(str(err))
            metrics, counts = {}, {}

    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env_info, "counts": counts,
        "digest": digest, "digest_reference": digest_reference(args.workload, args.seed, digest),
        "walls_s": [r["wall_s"] for r in repeats], "problems": problems,
    }
    (work / "result.json").write_text(json.dumps(dict(summary, metrics=metrics), indent=2) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env_info))
    print("counts " + json.dumps(counts))
    print(f"csv digest (solve_ms removed) {digest}: {summary['digest_reference']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    result = {"correct": not problems and bool(metrics), "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        code = run(argparse.Namespace(**dict(vars(args), workload=workload)))
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
