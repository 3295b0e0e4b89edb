"""Tests for the Euler plant, branch indexing, and scenario trees."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intentmpc import (
    BRANCH_LOWER,
    BRANCH_NOMINAL,
    BRANCH_UPPER,
    ControlBounds,
    ControlInput,
    Pose,
    branch_table,
    build_scenario_tree,
    control_schedule,
    sample_pose,
    shortest_path,
    step,
)
from intentmpc.dynamics import scenario_reach
from oracle_dynamics import branch_index, rollout

INTRUDER_BOUNDS = ControlBounds(v_min=10.0, v_max=10.0, u_min=-0.07, u_max=0.07)


class TestStep:
    def test_straight(self):
        out = step(Pose(0, 0, 0), ControlInput(10.0, 0.0), 1.0)
        assert (out.x, out.y, out.heading) == (10.0, 0.0, 0.0)

    def test_turn_uses_pre_update_heading(self):
        out = step(Pose(0, 0, 0), ControlInput(10.0, 0.07), 1.0)
        assert (out.x, out.y, out.heading) == (10.0, 0.0, 0.07)

    def test_north_with_negative_rate(self):
        out = step(Pose(0, 0, math.pi / 2), ControlInput(8.0, -0.1), 1.0)
        assert out.x == pytest.approx(0.0, abs=1e-15)
        assert out.y == pytest.approx(8.0)
        assert out.heading == pytest.approx(math.pi / 2 - 0.1)

    def test_closed_form_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, y, h = rng.uniform(-100, 100, 3)
            v, u, dt = rng.uniform(1, 20), rng.uniform(-0.1, 0.1), rng.uniform(0.1, 2)
            out = step(Pose(x, y, h), ControlInput(v, u), dt)
            assert out.x == x + dt * v * math.cos(h)
            assert out.y == y + dt * v * math.sin(h)
            assert out.heading == h + dt * u


class TestRollout:
    def test_three_straight_steps(self):
        poses = rollout(Pose(0, 0, 0), [ControlInput(10.0, 0.0)] * 3, 1.0)
        assert [p.x for p in poses] == [0.0, 10.0, 20.0, 30.0]
        assert all(p.y == 0.0 for p in poses)

    def test_constant_rate_heading_accumulates(self):
        eps = 1e-3
        poses = rollout(Pose(0, 0, 0), [ControlInput(10.0, eps)] * 40, 1.0)
        assert poses[-1].heading == pytest.approx(40 * eps, rel=1e-12)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            rollout(Pose(0, 0, 0), [], 1.0)

    def test_dubins_schedule_reaches_sampled_headings(self):
        # Integrating the schedule reproduces the continuous-path heading at
        # every step boundary (cross-check against sample_pose).
        start, goal = Pose(0, 0, 0.3), Pose(600, -300, -1.0)
        path = shortest_path(start, goal, 142.857)
        sched = control_schedule(path, 10.0, 1.0)
        inputs = [ControlInput(10.0, r) for r in sched.angular_rates]
        poses = rollout(start, inputs, 1.0)
        for k, pose in enumerate(poses):
            expected = sample_pose(path, min(k * 10.0, path.total_length)).heading
            assert pose.heading == pytest.approx(expected, abs=1e-9)


class TestBranchIndex:
    def test_first_scenario_all_upper(self):
        assert [branch_index(1, k, 3, 30) for k in range(3)] == [BRANCH_UPPER] * 3

    def test_last_scenario_all_nominal(self):
        assert [branch_index(27, k, 3, 30) for k in range(3)] == [BRANCH_NOMINAL] * 3

    def test_beyond_robust_horizon_nominal(self):
        for j in range(1, 28):
            assert branch_index(j, 5, 3, 30) == BRANCH_NOMINAL

    def test_covers_all_tuples_once(self):
        tuples = {tuple(branch_index(j, k, 3, 30) for k in range(3)) for j in range(1, 28)}
        assert tuples == set(itertools.product((0, 1, 2), repeat=3))

    def test_range_checks(self):
        with pytest.raises(ValueError):
            branch_index(0, 0, 2, 10)
        with pytest.raises(ValueError):
            branch_index(10, 0, 2, 10)
        with pytest.raises(ValueError):
            branch_index(1, 10, 2, 10)


class TestScenarioTree:
    def test_degenerate_all_nominal(self):
        tree = build_scenario_tree(Pose(0, 0, 0), np.zeros(10), 0, INTRUDER_BOUNDS, 1.0)
        assert tree.rates.shape == (1, 10)
        assert (tree.rates[0] == 0.0).all()

    def test_branch_rates_and_straight_scenario(self):
        tree = build_scenario_tree(Pose(0, 0, 0), np.zeros(10), 3, INTRUDER_BOUNDS, 1.0)
        assert len(tree.rates) == 27
        # Scenario 1 turns at the upper rate for 3 steps, then nominal (0).
        rates = tree.rates[0].tolist()
        assert rates[:3] == [0.07] * 3 and all(r == 0.0 for r in rates[3:])
        # Scenario 27 is all-nominal: straight throughout.
        assert (tree.rates[26] == 0.0).all()
        # Hand rollout of scenario 1 agrees with the stored trajectory.
        expected = rollout(Pose(0, 0, 0), [ControlInput(INTRUDER_BOUNDS.v_max, u) for u in rates], 1.0)
        assert np.array_equal(tree.trajectories[0], [(p.x, p.y, p.heading) for p in expected])

    def test_covers_branch_tuples_exactly_once(self):
        tree = build_scenario_tree(Pose(0, 0, 0), np.zeros(6), 3, INTRUDER_BOUNDS, 1.0)
        seen = set()
        for row in tree.rates.tolist():
            key = tuple(row[:3])
            assert key not in seen
            seen.add(key)
        assert len(seen) == 27

    def test_prefix_property(self):
        # Controls agree at stage k iff branch tuples agree through stage k.
        nominal = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06)
        tree = build_scenario_tree(Pose(0, 0, 0), nominal, 3, INTRUDER_BOUNDS, 1.0)
        for a in range(1, 28):
            for b in range(a + 1, 28):
                agree = True
                for k in range(len(nominal)):
                    agree = agree and branch_index(a, k, 3, 6) == branch_index(b, k, 3, 6)
                    same_controls = np.array_equal(tree.rates[a - 1, : k + 1], tree.rates[b - 1, : k + 1])
                    assert same_controls == agree

    def test_tree_sizes(self):
        for n_r in (0, 1, 2, 3):
            tree = build_scenario_tree(Pose(0, 0, 0), np.zeros(8), n_r, INTRUDER_BOUNDS, 1.0)
            assert len(tree.trajectories) == 3**n_r

    def test_speeds_pinned_at_max(self):
        tree = build_scenario_tree(Pose(0, 0, 0), np.zeros(8), 2, INTRUDER_BOUNDS, 1.0)
        steps = np.diff(tree.trajectories[..., :2], axis=1)
        assert np.allclose(np.hypot(steps[..., 0], steps[..., 1]), INTRUDER_BOUNDS.v_max, rtol=1e-12)

    def test_length_builds_no_poses(self, monkeypatch):
        tree = build_scenario_tree(Pose(0, 0, 0), np.zeros(30), 3, INTRUDER_BOUNDS, 1.0)

        def no_pose(*args):
            raise AssertionError("Pose built")

        monkeypatch.setattr("intentmpc.dynamics.Pose", no_pose)
        assert len(tree.trajectories) == 27
        assert len(tree.rates) == 27

    @pytest.mark.parametrize(
        "nominal, robust_horizon, dt",
        [
            ((0.0,) * 5, 2, 0.0),
            ((0.0,) * 5, 2, -1.0),
            ((), 0, 1.0),
            ((0.0,) * 5, -1, 1.0),
            ((0.0,) * 5, 6, 1.0),
            ((0.0, math.nan, 0.0, 0.0, 0.0), 0, 1.0),
            ((0.0, 0.0, math.inf, 0.0, 0.0), 2, 1.0),
        ],
        ids=["dt-zero", "dt-negative", "horizon-zero", "robust-negative", "robust-past-horizon", "rate-nan", "rate-inf"],
    )
    def test_rejects_invalid_input(self, nominal, robust_horizon, dt):
        with pytest.raises(ValueError):
            build_scenario_tree(Pose(0, 0, 0), nominal, robust_horizon, INTRUDER_BOUNDS, dt)


finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def tree_cases(draw):
    horizon = draw(st.integers(1, 40))
    robust_horizon = draw(st.integers(0, min(4, horizon)))
    nominal = draw(st.lists(st.floats(-0.2, 0.2, **finite), min_size=horizon, max_size=horizon))
    v_max = draw(st.floats(1.0, 300.0, **finite))
    bounds = ControlBounds(v_max, v_max, draw(st.floats(-0.3, 0.0, **finite)), draw(st.floats(0.0, 0.3, **finite)))
    start = Pose(
        draw(st.floats(-1e4, 1e4, **finite)), draw(st.floats(-1e4, 1e4, **finite)), draw(st.floats(-10, 10, **finite))
    )
    dt = draw(st.floats(0.05, 2.0, **finite))
    return start, nominal, robust_horizon, bounds, dt


class TestTreeMatchesSequentialReference:
    """The array tree against the per-pose `step`/`rollout` and `branch_index`."""

    @settings(max_examples=80, deadline=None)
    @given(tree_cases())
    def test_states_equal_rollout_bitwise(self, case):
        start, nominal, robust_horizon, bounds, dt = case
        tree = build_scenario_tree(start, nominal, robust_horizon, bounds, dt)
        assert tree.trajectories.shape == (3**robust_horizon, len(nominal) + 1, 3)
        for j, rates in enumerate(tree.rates.tolist()):
            poses = rollout(start, [ControlInput(bounds.v_max, u) for u in rates], dt)
            assert np.array_equal(tree.trajectories[j], [(p.x, p.y, p.heading) for p in poses])

    @settings(max_examples=80, deadline=None)
    @given(tree_cases())
    def test_branch_table_matches_branch_index(self, case):
        start, nominal, robust_horizon, bounds, dt = case
        horizon = len(nominal)
        table = branch_table(robust_horizon, horizon)
        tree = build_scenario_tree(start, nominal, robust_horizon, bounds, dt)
        rate_of = {BRANCH_UPPER: bounds.u_max, BRANCH_LOWER: bounds.u_min}
        for j in range(1, 3**robust_horizon + 1):
            for k in range(horizon):
                branch = branch_index(j, k, robust_horizon, horizon)
                assert table[j - 1, k] == branch
                assert tree.rates[j - 1, k] == rate_of.get(branch, nominal[k])


class TestScenarioReach:
    """`scenario_reach` against the tree it bounds without building."""

    @settings(max_examples=80, deadline=None)
    @given(tree_cases())
    def test_every_scenario_lies_within_its_disc(self, case):
        start, nominal, robust_horizon, bounds, dt = case
        tree = build_scenario_tree(start, nominal, robust_horizon, bounds, dt)
        centres, radii = scenario_reach(start, nominal, robust_horizon, bounds, dt)
        assert centres.shape == (len(nominal) + 1, 2) and radii.shape == (len(nominal) + 1,)
        # The centres are the all-nominal scenario, the tree's last row.
        assert np.array_equal(centres, tree.trajectories[-1, :, :2])
        offset = tree.trajectories[..., :2] - centres
        distance = np.hypot(offset[..., 0], offset[..., 1])
        # Rounding of the two rollouts, relative to the largest coordinate.
        rounding = 1e-12 * (abs(start.x) + abs(start.y) + len(nominal) * dt * bounds.v_max)
        assert np.all(distance <= radii + rounding)

    def test_radius_grows_only_through_the_robust_horizon(self):
        # Straight nominal, N_r = 2, rates +-0.07 at 10 m/s: heading spreads
        # 0, 0.07, 0.14, then stays 0.14; each step adds 10 * spread.
        _, radii = scenario_reach(Pose(0, 0, 0), np.zeros(5), 2, INTRUDER_BOUNDS, 1.0)
        assert radii == pytest.approx([0.0, 0.0, 0.7, 2.1, 3.5, 4.9])
        _, nominal_only = scenario_reach(Pose(0, 0, 0), np.zeros(5), 0, INTRUDER_BOUNDS, 1.0)
        assert not nominal_only.any()
