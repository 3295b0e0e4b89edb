"""How intruder uncertainty becomes a scenario tree.

Branches over {upper rate, lower rate, nominal rate} for the robust horizon,
then follows the nominal Dubins schedule.  Prints the branch tuples, checks
the shared-prefix (non-anticipativity) structure, and shows how wide the
predicted position fan grows along the horizon.
"""

import math

from intentmpc import (
    BRANCH_NOMINAL,
    ControlBounds,
    Pose,
    branch_table,
    build_scenario_tree,
    control_schedule,
    shortest_path,
)

BOUNDS = ControlBounds(v_min=10.0, v_max=10.0, u_min=-0.07, u_max=0.07)
LABEL = {0: "upper", 1: "lower", 2: "nominal"}


def main() -> None:
    robust_horizon, horizon = 3, 30
    print(f"m=3, robust horizon={robust_horizon} -> {3**robust_horizon} scenarios")

    # Row j-1 holds scenario j's branch at every stage.
    table = branch_table(robust_horizon, horizon).tolist()
    print("\nbranch tuples (scenario -> first three stages):")
    for j, row in enumerate(table, start=1):
        tup, tail = row[:robust_horizon], row[robust_horizon]
        print(f"  j={j:2d}: ({', '.join(LABEL[b] for b in tup)}), then {LABEL[tail]} for the rest")

    intruder = Pose(480.0, 0.0, math.pi)
    path = shortest_path(intruder, Pose(-420.0, 0.0, math.pi), BOUNDS.v_max / BOUNDS.u_max)
    schedule = control_schedule(path, BOUNDS.v_max, 1.0)
    nominal = [schedule.rate_at(k) for k in range(horizon)]
    tree = build_scenario_tree(intruder, nominal, robust_horizon, BOUNDS, 1.0)

    print("\npredicted position fan (max pairwise distance between scenarios):")
    for k in (1, 3, 10, 20, 30):
        xy = tree.trajectories[:, k, :2].tolist()
        spread = max(math.hypot(ax - bx, ay - by) for ax, ay in xy for bx, by in xy)
        print(f"  stage {k:2d}: {spread:7.1f} m")

    nominal = [j for j, row in enumerate(table, start=1) if all(b == BRANCH_NOMINAL for b in row[:robust_horizon])]
    print(f"\nscenario {nominal[0]} is the all-nominal branch: it reproduces the Dubins schedule exactly.")


if __name__ == "__main__":
    main()
