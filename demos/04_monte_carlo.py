"""Robustness of the scenario-tree controller under intruder rate noise.

Reruns the reference encounter with bounded uniform angular-rate disturbance
on the intruder (one seed per run), reports per-run minima against the
separation floor, and writes the overlay plots.  Pass a run count to override
the quick default, e.g. `python demos/04_monte_carlo.py 20`.
"""

import sys
import time
from pathlib import Path

from intentmpc import metrics, run_monte_carlo
from intentmpc.plots import plot_monte_carlo_separation, plot_monte_carlo_trajectories
from intentmpc.scenario_io import dump_json, load_scenario, report_doc

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "reference_crossing.json"
OUT = Path(__file__).resolve().parent / "out" / "monte_carlo"


def main() -> None:
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    spec = load_scenario(SCENARIO)
    lo, hi = spec.disturbance.lo, spec.disturbance.hi
    print(f"{runs} runs, intruder rate noise uniform [{lo:+.4f}, {hi:+.4f}] rad/s, floor {spec.mpc.min_separation:g} m")

    start = time.perf_counter()
    report = run_monte_carlo(spec, runs=runs)
    print(f"finished in {time.perf_counter() - start:.0f}s\n")

    print("run  seed        min sep   arrived")
    for index, trace in enumerate(report.runs):
        m = metrics(trace)
        print(f"{index:3d}  {trace.spec.rng_seed:<10d} {m['min_separation']:8.2f}   {trace.arrived}")
    agg = report.aggregate
    spread = agg["terminal_spread"]
    print(f"\nworst min separation over runs: {agg['min_min_separation']:.2f} m")
    print(f"runs violating the floor:       {agg['violation_runs']}")
    print(f"intruder terminal spread:       max {spread['max']:.1f} m, "
          f"mean {spread['mean']:.1f} m (at step {spread['common_step_index']})")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "overlay_traj.svg").write_text(plot_monte_carlo_trajectories(report))
    (OUT / "overlay_distance.svg").write_text(plot_monte_carlo_separation(report))
    (OUT / "report.json").write_text(dump_json(report_doc(report)))
    print(f"\noverlays and report written under {OUT}")


if __name__ == "__main__":
    main()
