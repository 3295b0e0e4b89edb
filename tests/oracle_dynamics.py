"""Pose-by-pose references for the array code: the Euler rollout and the
branch of one scenario at one stage, written the direct way.

The program integrates trees and the ownship as cumulative sums over arrays
and reads branches from `branch_table`; these are what those must equal.
"""

from __future__ import annotations

import math

from intentmpc import BRANCH_NOMINAL, ControlInput, Pose, step
from intentmpc.dynamics import BRANCH_COUNT


def rollout(initial: Pose, inputs: list[ControlInput] | tuple[ControlInput, ...], dt: float) -> tuple[Pose, ...]:
    """Iterate `step`; element 0 is the initial pose."""
    if len(inputs) == 0:
        raise ValueError("rollout requires at least one input")
    poses = [initial]
    for inp in inputs:
        poses.append(step(poses[-1], inp, dt))
    return tuple(poses)


def branch_index(j: int, k: int, robust_horizon: int, horizon: int) -> int:
    """Branch taken by scenario j (1-based) at stage k of a tree whose first
    `robust_horizon` of `horizon` stages branch.

    Over the robust horizon this is digit k of j-1 in base 3, most significant
    first; afterwards every scenario follows the nominal branch.
    """
    count = BRANCH_COUNT**robust_horizon
    if not 1 <= j <= count:
        raise ValueError(f"scenario id {j} outside 1..{count}")
    if not 0 <= k < horizon:
        raise ValueError(f"stage {k} outside 0..{horizon - 1}")
    if k >= robust_horizon:
        return BRANCH_NOMINAL
    return (math.ceil(j / BRANCH_COUNT ** (robust_horizon - 1 - k)) - 1) % BRANCH_COUNT
