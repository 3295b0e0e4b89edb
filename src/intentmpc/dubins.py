"""Shortest curvature-bounded (Dubins) paths between oriented planar poses.

A path is a sequence of at most three primitives: maximum-rate left arc (L),
straight segment (S), maximum-rate right arc (R).  The six candidate words
LSL, RSR, LSR, RSL, RLR, LRL are solved in closed form from the tangent
geometry of the start/goal turning circles; the shortest feasible word is the
shortest path.  Paths are discretized into per-step angular-velocity
schedules for the discrete-time plant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

TWO_PI = 2.0 * math.pi


def mod2pi(angle: float) -> float:
    """Reduce an angle to [0, 2*pi): a tiny negative angle, which % rounds up to 2*pi, gives 0."""
    reduced = angle % TWO_PI
    return 0.0 if reduced == TWO_PI else reduced


@dataclass(frozen=True)
class Pose:
    """Planar position and heading. Heading accumulates without wrapping;
    compare headings modulo 2*pi."""

    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.heading)):
            raise ValueError(f"pose components must be finite, got {(self.x, self.y, self.heading)}")


class DubinsWord(Enum):
    """The six segment triples, ordered for deterministic tie-breaking."""

    LSL = ("L", "S", "L")
    RSR = ("R", "S", "R")
    LSR = ("L", "S", "R")
    RSL = ("R", "S", "L")
    RLR = ("R", "L", "R")
    LRL = ("L", "R", "L")

    @property
    def segments(self) -> tuple[str, str, str]:
        return self.value


# Turn direction per segment kind: +1 counterclockwise, -1 clockwise, 0 straight.
_TURN_DIR = {"L": 1.0, "R": -1.0, "S": 0.0}


@dataclass(frozen=True)
class DubinsPath:
    """A solved three-segment path. Segment lengths are arclengths in meters."""

    word: DubinsWord
    start: Pose
    goal: Pose
    turn_radius: float
    seg_lengths: tuple[float, float, float]

    @property
    def total_length(self) -> float:
        return self.seg_lengths[0] + self.seg_lengths[1] + self.seg_lengths[2]


@dataclass(frozen=True)
class ControlSchedule:
    """Per-step angular rates realizing a path at the speed and dt it was
    discretized with (`control_schedule`).

    Rate k is the average turn rate over [k*dt, (k+1)*dt), so integrating the
    schedule reproduces the continuous-path heading exactly at step
    boundaries.  Indices past the end of the path read as zero (fly straight).
    """

    angular_rates: tuple[float, ...]

    def rate_at(self, k: int) -> float:
        if k < 0:
            raise ValueError(f"schedule index must be non-negative, got {k}")
        if k >= len(self.angular_rates):
            return 0.0
        return self.angular_rates[k]


def _turn_center(x: float, y: float, heading: float, direction: float, radius: float) -> tuple[float, float]:
    return x - direction * radius * math.sin(heading), y + direction * radius * math.cos(heading)


def _advance(x: float, y: float, heading: float, kind: str, length: float, radius: float) -> tuple[float, float, float]:
    """Advance a pose along one segment; heading accumulates unwrapped."""
    if kind == "S":
        return x + length * math.cos(heading), y + length * math.sin(heading), heading
    d = _TURN_DIR[kind]
    cx, cy = _turn_center(x, y, heading, d, radius)
    h = heading + d * length / radius
    return cx + d * radius * math.sin(h), cy - d * radius * math.cos(h), h


def _solve_csc(start: Pose, goal: Pose, radius: float, word: DubinsWord) -> tuple[float, float, float] | None:
    """Tangent-line construction for the four arc-straight-arc words.

    Returns normalized (first arc angle, straight length in meters, last arc
    angle) or None when the inner tangent does not exist.
    """
    kinds = word.segments
    d1, d3 = _TURN_DIR[kinds[0]], _TURN_DIR[kinds[2]]
    c1x, c1y = _turn_center(start.x, start.y, start.heading, d1, radius)
    c3x, c3y = _turn_center(goal.x, goal.y, goal.heading, d3, radius)
    dx, dy = c3x - c1x, c3y - c1y
    dist = math.hypot(dx, dy)

    if d1 == d3:
        # Outer tangent parallel to the center line; degenerate same-circle
        # case takes the single-arc convention (t, 0, 0).
        if dist < 1e-9 * max(radius, 1.0):
            return mod2pi(d1 * (goal.heading - start.heading)), 0.0, 0.0
        theta = math.atan2(dy, dx)
        return mod2pi(d1 * (theta - start.heading)), dist, mod2pi(d3 * (goal.heading - theta))

    # Inner tangent requires the circles not to overlap.
    disc = dist * dist - 4.0 * radius * radius
    if disc < 0.0:
        if disc < -1e-9 * 4.0 * radius * radius:
            return None
        disc = 0.0
    straight = math.sqrt(disc)
    theta = math.atan2(dy, dx) + d1 * math.atan2(2.0 * radius, straight)
    return mod2pi(d1 * (theta - start.heading)), straight, mod2pi(d3 * (goal.heading - theta))


def _solve_ccc(start: Pose, goal: Pose, radius: float, word: DubinsWord) -> tuple[float, float, float] | None:
    """Three-arc construction: the middle circle must touch both end circles.

    Its center lies on the intersection of radius-2R circles around the end
    centers, giving two mirror candidates.  Returns the shorter one as
    normalized (first arc angle, middle arc length in meters, last arc
    angle), or None when no middle circle exists.
    """
    kinds = word.segments
    d1 = _TURN_DIR[kinds[0]]
    d2 = -d1
    c1x, c1y = _turn_center(start.x, start.y, start.heading, d1, radius)
    c3x, c3y = _turn_center(goal.x, goal.y, goal.heading, d1, radius)
    dx, dy = c3x - c1x, c3y - c1y
    dist = math.hypot(dx, dy)
    if dist > 4.0 * radius or dist < 1e-9 * max(radius, 1.0):
        # Beyond 4R no middle circle exists; coincident end circles admit a
        # continuum of three-arc paths, all dominated by the single-arc word.
        return None

    half = 0.5 * dist
    offset = math.sqrt(max(4.0 * radius * radius - half * half, 0.0))
    mx, my = c1x + 0.5 * dx, c1y + 0.5 * dy
    nx, ny = -dy / dist, dx / dist

    best: tuple[float, float, float] | None = None
    for sign in (1.0, -1.0):
        c2x, c2y = mx + sign * offset * nx, my + sign * offset * ny
        # Tangent points halve the center-to-center segments.
        t1x, t1y = 0.5 * (c1x + c2x), 0.5 * (c1y + c2y)
        t2x, t2y = 0.5 * (c2x + c3x), 0.5 * (c2y + c3y)
        a0 = math.atan2(start.y - c1y, start.x - c1x)
        a1 = math.atan2(t1y - c1y, t1x - c1x)
        b1 = math.atan2(t1y - c2y, t1x - c2x)
        b2 = math.atan2(t2y - c2y, t2x - c2x)
        g2 = math.atan2(t2y - c3y, t2x - c3x)
        g3 = math.atan2(goal.y - c3y, goal.x - c3x)
        t = mod2pi(d1 * (a1 - a0))
        p = mod2pi(d2 * (b2 - b1))
        q = mod2pi(d1 * (g3 - g2))
        if best is None or t + p + q < best[0] + best[1] + best[2]:
            best = (t, p, q)
    return best[0], best[1] * radius, best[2]


def solve_word(start: Pose, goal: Pose, turn_radius: float, word: DubinsWord) -> DubinsPath | None:
    """Solve one word exactly; None when it is geometrically infeasible."""
    if not (math.isfinite(turn_radius) and turn_radius > 0.0):
        raise ValueError(f"turn radius must be finite and positive, got {turn_radius}")
    sol = (_solve_csc if word.segments[1] == "S" else _solve_ccc)(start, goal, turn_radius, word)
    if sol is None:
        return None
    lengths = (sol[0] * turn_radius, sol[1], sol[2] * turn_radius)
    return DubinsPath(word=word, start=start, goal=goal, turn_radius=turn_radius, seg_lengths=lengths)


def shortest_path(start: Pose, goal: Pose, turn_radius: float) -> DubinsPath:
    """Shortest path over all six words; ties resolve in DubinsWord declaration order."""
    best: DubinsPath | None = None
    for word in DubinsWord:
        path = solve_word(start, goal, turn_radius, word)
        if path is not None and (best is None or path.total_length < best.total_length):
            best = path
    if best is None:
        raise RuntimeError(f"no Dubins word feasible for {start} -> {goal} at radius {turn_radius}")
    return best


def sample_pose(path: DubinsPath, arclength: float) -> Pose:
    """Exact pose at a given arclength from the start; heading unwrapped."""
    if arclength < -1e-9 or arclength > path.total_length + 1e-9:
        raise ValueError(f"arclength {arclength} outside [0, {path.total_length}]")
    remaining = min(max(arclength, 0.0), path.total_length)
    x, y, h = path.start.x, path.start.y, path.start.heading
    for kind, length in zip(path.word.segments, path.seg_lengths):
        if remaining == 0.0:
            break
        if remaining <= length:
            return Pose(*_advance(x, y, h, kind, remaining, path.turn_radius))
        x, y, h = _advance(x, y, h, kind, length, path.turn_radius)
        remaining -= length
    return Pose(x, y, h)


def control_schedule(path: DubinsPath, speed: float, dt: float, max_steps: int | None = None) -> ControlSchedule:
    """Discretize a path into time-averaged angular rates per step, at most
    `max_steps` of them; ValueError when the step count is not finite and
    `max_steps` does not bound it."""
    if not (math.isfinite(speed) and speed > 0.0):
        raise ValueError(f"speed must be finite and positive, got {speed}")
    if not (math.isfinite(dt) and dt > 0.0 and speed * dt > 0.0):
        raise ValueError(f"dt must be finite and positive, with speed * dt > 0, got {dt}")
    total = path.total_length
    step_len = speed * dt
    steps = total / step_len - 1e-12
    if max_steps is not None:
        steps = min(steps, max_steps)
    if not math.isfinite(steps):
        raise ValueError(f"a path of {total} m takes {steps} steps of speed * dt = {step_len} m")
    steps = max(math.ceil(steps), 0)
    rates = []
    h_prev = path.start.heading
    for k in range(steps):
        s_next = min((k + 1) * step_len, total)
        h_next = sample_pose(path, s_next).heading
        rates.append((h_next - h_prev) / dt)
        h_prev = h_next
    return ControlSchedule(angular_rates=tuple(rates))
