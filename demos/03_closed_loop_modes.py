"""The reference head-on encounter under all four controller modes.

Runs the shipped crossing scenario, disturbance-free, with the intruder
prediction handled four ways: full scenario tree, single nominal prediction
(classic), straight-line prediction (no intent), and no separation
constraints at all.  Prints the safety/efficiency comparison and writes the
trajectory, separation, and control plots for each mode.
"""

import time
from dataclasses import replace
from pathlib import Path

from intentmpc import Disturbance, MpcMode, metrics, run_closed_loop
from intentmpc.plots import plot_controls, plot_separation, plot_trajectories
from intentmpc.scenario_io import load_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "reference_crossing.json"
OUT = Path(__file__).resolve().parent / "out" / "closed_loop"


def main() -> None:
    base = replace(load_scenario(SCENARIO), disturbance=Disturbance())
    rho = base.mpc.min_separation
    print(f"reference crossing, rho = {rho:g} m, disturbance off\n")
    print(f"{'mode':16s} {'steps':>5s} {'arrived':>8s} {'min sep':>9s} {'@t':>4s} {'path':>8s} {'solve':>7s}")

    for mode in (MpcMode.UNCONSTRAINED, MpcMode.NO_INTENT, MpcMode.CLASSIC, MpcMode.SCENARIO_TREE):
        start = time.perf_counter()
        trace = run_closed_loop(replace(base, mpc=replace(base.mpc, mode=mode)))
        elapsed = time.perf_counter() - start
        m = metrics(trace)
        flag = "" if m["min_separation"] >= rho - 1e-3 else "  <- violates"
        print(
            f"{mode.value:16s} {len(trace.steps):5d} {str(trace.arrived):>8s} "
            f"{m['min_separation']:9.2f} {m['min_separation_time']:4d} {m['path_length']:8.1f} {elapsed:6.1f}s{flag}"
        )
        out = OUT / mode.value
        out.mkdir(parents=True, exist_ok=True)
        (out / "traj.svg").write_text(plot_trajectories(trace))
        (out / "distance.svg").write_text(plot_separation(trace))
        (out / "controls.svg").write_text(plot_controls(trace))

    print(f"\nplots written under {OUT}")
    print("the scenario tree stays farther from the intruder than classic until the")
    print("crossing, at the price of a slightly longer path.")


if __name__ == "__main__":
    main()
