"""Shortest curvature-bounded paths and their per-step turn schedules.

Solves all six candidate words for a few pose pairs, shows which one wins,
and discretizes the winner into the angular-velocity schedule the predictor
feeds to the plant model.
"""

import math

from intentmpc import DubinsWord, Pose, control_schedule, sample_pose, shortest_path, solve_word

RADIUS = 10.0 / 0.07  # intruder speed over max turn rate
CASES = [
    ("straight ahead", Pose(0, 0, 0), Pose(400, 0, 0)),
    ("U-turn", Pose(0, 0, 0), Pose(0, 350, math.pi)),
    ("oblique crossing", Pose(0, 0, 0.3), Pose(600, -250, -1.2)),
    ("tight comeback", Pose(0, 0, 0), Pose(60, 40, 2.8)),
]


def main() -> None:
    for label, start, goal in CASES:
        print(f"\n=== {label}: {start} -> {goal}, radius {RADIUS:.1f} m ===")
        for word in DubinsWord:
            path = solve_word(start, goal, RADIUS, word)
            if path is None:
                print(f"  {word.name}: infeasible")
            else:
                segs = ", ".join(f"{l:8.2f}" for l in path.seg_lengths)
                print(f"  {word.name}: segments [{segs}]  total {path.total_length:9.2f} m")
        best = shortest_path(start, goal, RADIUS)
        print(f"  -> shortest: {best.word.name} at {best.total_length:.2f} m")

        end = sample_pose(best, best.total_length)
        print(f"     endpoint check: ({end.x:.3f}, {end.y:.3f}, {end.heading:.4f})")

        sched = control_schedule(best, 10.0, 1.0)
        shown = ", ".join(f"{r:+.3f}" for r in sched.angular_rates[:8])
        print(f"     schedule: {len(sched.angular_rates)} steps at 10 m/s; first rates [{shown}, ...]")


if __name__ == "__main__":
    main()
