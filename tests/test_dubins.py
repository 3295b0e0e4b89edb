"""Tests for Dubins words, shortest paths, sampling, and schedules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intentmpc import (
    DubinsWord,
    Pose,
    control_schedule,
    sample_pose,
    shortest_path,
    solve_word,
)
from intentmpc.mpc import wrap_angles
from oracle_dubins import oracle_shortest_lengths, oracle_word

RADIUS_INTRUDER = 142.857  # 10 m/s at 0.07 rad/s


def random_poses(rng, n, box=500.0):
    return np.column_stack(
        [rng.uniform(-box, box, n), rng.uniform(-box, box, n), rng.uniform(-math.pi, math.pi, n)]
    )


def seeded_pairs(seed, n):
    """n (start, goal) pairs drawn uniformly, as tuples."""
    rng = np.random.default_rng(seed)
    starts, goals = random_poses(rng, n), random_poses(rng, n)
    return [(tuple(s), tuple(g)) for s, g in zip(starts, goals)]


POSES = st.tuples(st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-math.pi, math.pi))


class TestSolveWord:
    def test_collinear_degenerates_to_straight(self):
        path = solve_word(Pose(0, 0, 0), Pose(200, 0, 0), 100.0, DubinsWord.LSL)
        assert path is not None
        assert path.seg_lengths == pytest.approx((0.0, 200.0, 0.0), abs=1e-12)
        assert path.total_length == pytest.approx(200.0, abs=1e-12)

    def test_semicircle_left_turn(self):
        path = solve_word(Pose(0, 0, 0), Pose(0, 200, math.pi), 100.0, DubinsWord.LSL)
        assert path is not None
        assert path.seg_lengths == pytest.approx((100 * math.pi, 0.0, 0.0), abs=1e-9)

    def test_rlr_matches_bruteforce_oracle(self):
        start, goal = (0.0, 0.0, 0.0), (50.0, 30.0, 1.0)
        expected = oracle_word(start, goal, RADIUS_INTRUDER, "RLR")
        path = solve_word(Pose(*start), Pose(*goal), RADIUS_INTRUDER, DubinsWord.RLR)
        assert path is not None and expected is not None
        assert path.seg_lengths == pytest.approx(expected, abs=1e-4)

    def test_inner_tangent_infeasible_when_circles_overlap(self):
        # Goal well inside the start's left turning circle.
        assert solve_word(Pose(0, 0, 0), Pose(10, 30, 0.5), 100.0, DubinsWord.LSR) is None

    def test_seg_lengths_nonnegative_and_arcs_bounded(self):
        rng = np.random.default_rng(3)
        starts, goals = random_poses(rng, 50), random_poses(rng, 50)
        for s, g in zip(starts, goals):
            for word in DubinsWord:
                path = solve_word(Pose(*s), Pose(*g), RADIUS_INTRUDER, word)
                if path is None:
                    continue
                assert all(l >= 0.0 for l in path.seg_lengths)
                assert path.total_length == pytest.approx(sum(path.seg_lengths), rel=1e-9)
                if word.segments[1] == "S":
                    limit = 2 * math.pi * RADIUS_INTRUDER
                    assert path.seg_lengths[0] < limit and path.seg_lengths[2] < limit

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            solve_word(Pose(0, 0, 0), Pose(1, 1, 0), 0.0, DubinsWord.LSL)


class TestShortestPath:
    def test_straight_line(self):
        path = shortest_path(Pose(0, 0, 0), Pose(200, 0, 0), 100.0)
        assert path.word is DubinsWord.LSL
        assert path.total_length == pytest.approx(200.0, abs=1e-12)

    def test_identity(self):
        path = shortest_path(Pose(0, 0, 0), Pose(0, 0, 0), 100.0)
        assert path.total_length == 0.0

    def test_never_beats_any_word(self):
        rng = np.random.default_rng(11)
        starts, goals = random_poses(rng, 100), random_poses(rng, 100)
        for s, g in zip(starts, goals):
            best = shortest_path(Pose(*s), Pose(*g), RADIUS_INTRUDER)
            for word in DubinsWord:
                path = solve_word(Pose(*s), Pose(*g), RADIUS_INTRUDER, word)
                if path is not None:
                    assert best.total_length <= path.total_length + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(st.floats(10.0, 500.0), st.lists(st.tuples(POSES, POSES), min_size=1, max_size=50))
    @example(RADIUS_INTRUDER, seeded_pairs(17, 200))
    # The straight word's arcs here are -2e-79 rad, which % 2*pi rounds up to a full turn.
    @example(14.0, [((0.0, 0.0, 2e-79), (4.0, 0.0, 2e-79))])
    def test_matches_oracle_minimum(self, radius, pairs):
        starts, goals = (np.array(side) for side in zip(*pairs))
        expected = oracle_shortest_lengths(starts, goals, radius)
        got = np.array([shortest_path(Pose(*s), Pose(*g), radius).total_length for s, g in pairs])
        np.testing.assert_allclose(got, expected, atol=1e-4)

    def test_mirror_and_reversal_symmetries(self):
        # Reflecting both poses across the x-axis (L/R words swap) preserves
        # length, as does traversing the encounter backwards (swap the poses
        # and rotate both headings by pi).
        rng = np.random.default_rng(23)
        starts, goals = random_poses(rng, 100), random_poses(rng, 100)
        for s, g in zip(starts, goals):
            direct = shortest_path(Pose(*s), Pose(*g), RADIUS_INTRUDER).total_length
            mirrored = shortest_path(
                Pose(s[0], -s[1], -s[2]), Pose(g[0], -g[1], -g[2]), RADIUS_INTRUDER
            ).total_length
            reversed_ = shortest_path(
                Pose(g[0], g[1], g[2] + math.pi), Pose(s[0], s[1], s[2] + math.pi), RADIUS_INTRUDER
            ).total_length
            assert mirrored == pytest.approx(direct, rel=1e-9, abs=1e-9)
            assert reversed_ == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_rigid_transform_invariance(self):
        rng = np.random.default_rng(29)
        starts, goals = random_poses(rng, 100), random_poses(rng, 100)
        for s, g in zip(starts, goals):
            base = shortest_path(Pose(*s), Pose(*g), RADIUS_INTRUDER).total_length
            angle, tx, ty = rng.uniform(-math.pi, math.pi), rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3)
            ca, sa = math.cos(angle), math.sin(angle)

            def move(p):
                return Pose(ca * p[0] - sa * p[1] + tx, sa * p[0] + ca * p[1] + ty, p[2] + angle)

            moved = shortest_path(move(s), move(g), RADIUS_INTRUDER).total_length
            assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestSamplePose:
    def test_endpoints(self):
        rng = np.random.default_rng(31)
        starts, goals = random_poses(rng, 50), random_poses(rng, 50)
        for s, g in zip(starts, goals):
            path = shortest_path(Pose(*s), Pose(*g), RADIUS_INTRUDER)
            at_start = sample_pose(path, 0.0)
            assert (at_start.x, at_start.y, at_start.heading) == (s[0], s[1], s[2])
            at_end = sample_pose(path, path.total_length)
            assert math.hypot(at_end.x - g[0], at_end.y - g[1]) < 1e-6
            assert abs(wrap_angles(np.array([at_end.heading - g[2]]))[0]) < 1e-8

    def test_straight_midpoint(self):
        path = solve_word(Pose(0, 0, 0), Pose(200, 0, 0), 100.0, DubinsWord.LSL)
        mid = sample_pose(path, 50.0)
        assert (mid.x, mid.y, mid.heading) == (50.0, 0.0, 0.0)

    def test_out_of_range_rejected(self):
        path = solve_word(Pose(0, 0, 0), Pose(200, 0, 0), 100.0, DubinsWord.LSL)
        with pytest.raises(ValueError):
            sample_pose(path, -1.0)
        with pytest.raises(ValueError):
            sample_pose(path, 201.0)

    def test_arc_curvature_exact(self):
        # Heading rate along an arc equals +/- 1/radius.
        path = solve_word(Pose(0, 0, 0), Pose(0, 200, math.pi), 100.0, DubinsWord.LSL)
        h0 = sample_pose(path, 10.0).heading
        h1 = sample_pose(path, 11.0).heading
        assert h1 - h0 == pytest.approx(1.0 / 100.0, rel=1e-12)


class TestControlSchedule:
    def test_semicircle_constant_rate(self):
        path = solve_word(Pose(0, 0, 0), Pose(0, 200, math.pi), 100.0, DubinsWord.LSL)
        sched = control_schedule(path, 10.0, 1.0)
        # All fully-in-path steps turn at exactly speed/radius.
        assert len(sched.angular_rates) == math.ceil(path.total_length / 10.0)
        for rate in sched.angular_rates[:-1]:
            assert rate == pytest.approx(0.1, rel=1e-12)

    def test_straight_path_zero_rates(self):
        path = solve_word(Pose(0, 0, 0), Pose(200, 0, 0), 100.0, DubinsWord.LSL)
        sched = control_schedule(path, 10.0, 1.0)
        assert len(sched.angular_rates) == 20
        assert all(r == 0.0 for r in sched.angular_rates)

    def test_step_rates_match_sampled_headings(self):
        # LSR with a segment boundary inside a step: the rate is the averaged
        # heading change, recomputed here from sample_pose directly.
        path = solve_word(Pose(0, 0, 0), Pose(400, 250, -0.6), RADIUS_INTRUDER, DubinsWord.LSR)
        assert path is not None
        speed, dt = 10.0, 1.0
        sched = control_schedule(path, speed, dt)
        for k in range(len(sched.angular_rates)):
            s0 = min(k * speed * dt, path.total_length)
            s1 = min((k + 1) * speed * dt, path.total_length)
            expected = (sample_pose(path, s1).heading - sample_pose(path, s0).heading) / dt
            assert sched.angular_rates[k] == pytest.approx(expected, abs=1e-12)

    def test_rate_bound(self):
        rng = np.random.default_rng(37)
        starts, goals = random_poses(rng, 50), random_poses(rng, 50)
        for s, g in zip(starts, goals):
            path = shortest_path(Pose(*s), Pose(*g), RADIUS_INTRUDER)
            sched = control_schedule(path, 10.0, 1.0)
            for rate in sched.angular_rates:
                assert abs(rate) <= 10.0 / RADIUS_INTRUDER + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(st.floats(5.0, 40.0), st.floats(0.25, 2.0), st.integers(0, 2**32 - 1))
    @example(10.0, 1.0, 41)
    def test_cumulative_heading_identity(self, speed, dt, seed):
        rng = np.random.default_rng(seed)
        starts, goals = random_poses(rng, 30), random_poses(rng, 30)
        for s, g in zip(starts, goals):
            path = shortest_path(Pose(*s), Pose(*g), RADIUS_INTRUDER)
            sched = control_schedule(path, speed, dt)
            heading = s[2]
            for k in range(len(sched.angular_rates) + 1):
                expected = sample_pose(path, min(k * speed * dt, path.total_length)).heading
                assert heading == pytest.approx(expected, abs=1e-9)
                if k < len(sched.angular_rates):
                    heading += dt * sched.angular_rates[k]

    @settings(max_examples=100, deadline=None)
    @given(
        st.builds(Pose, st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-10.0, 10.0)),
        st.builds(Pose, st.floats(-500.0, 500.0), st.floats(-500.0, 500.0), st.floats(-10.0, 10.0)),
        st.floats(10.0, 300.0),
        st.floats(5.0, 40.0),
        st.floats(0.25, 2.0),
    )
    def test_schedule_integrates_to_the_end_heading(self, start, goal, radius, speed, dt):
        heading = start.heading
        for rate in control_schedule(shortest_path(start, goal, radius), speed, dt).angular_rates:
            heading += dt * rate
        assert abs(math.remainder(heading - goal.heading, 2.0 * math.pi)) <= 1e-9

    def test_capped_schedule_is_the_uncapped_prefix(self):
        path = shortest_path(Pose(0.0, 0.0, 0.0), Pose(1e4, -300.0, 2.0), RADIUS_INTRUDER)
        assert path.total_length > 1e4
        full = np.array(control_schedule(path, 10.0, 1.0).angular_rates)
        for cap in (0, 1, 230, len(full), len(full) + 7):
            capped = np.array(control_schedule(path, 10.0, 1.0, cap).angular_rates)
            assert capped.tobytes() == full[:cap].tobytes()

    def test_step_count_must_be_finite_or_capped(self):
        path = shortest_path(Pose(0.0, 0.0, 0.0), Pose(1e20, 0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match="steps"):
            control_schedule(path, 1e-300, 1.0)
        assert len(control_schedule(path, 1e-300, 1.0, 5).angular_rates) == 5
        # speed * dt underflows to zero.
        with pytest.raises(ValueError, match="speed \\* dt"):
            control_schedule(path, 1e-300, 1e-300, 5)

    def test_past_the_end_reads_zero(self):
        path = solve_word(Pose(0, 0, 0), Pose(200, 0, 0), 100.0, DubinsWord.LSL)
        sched = control_schedule(path, 10.0, 1.0)
        assert sched.rate_at(len(sched.angular_rates)) == 0.0
        assert sched.rate_at(len(sched.angular_rates) + 500) == 0.0
        with pytest.raises(ValueError):
            sched.rate_at(-1)
