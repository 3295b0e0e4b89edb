"""Tests of the benchmark's own arithmetic: python3 -m pytest perfbench"""

import pytest

from stats import (
    MIN_BEYOND,
    csv_digest,
    encounter_failed,
    harrell_davis,
    per_step_median,
    percentile,
    self_times,
    summarize_spans,
    tail_percentile,
)


def test_percentile_nearest_rank_and_samples_beyond():
    values = list(range(1, 105))  # 104 samples, as one crossing encounter has steps
    assert percentile(values, 0.5) == (52, 52)
    assert percentile(values, 0.9) == (94, 10)
    assert percentile(values, 1.0) == (104, 0)
    assert percentile([7.0], 0.5) == (7.0, 0)


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 0.6) == (3, 2)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(100)), 0.9) == (89, MIN_BEYOND)
    with pytest.raises(ValueError, match="only 9 beyond"):
        tail_percentile(list(range(99)), 0.9)


def test_harrell_davis_is_a_smooth_quantile():
    values = list(range(100))
    assert 89.0 < harrell_davis(values, 0.9) < 90.0
    assert harrell_davis([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert harrell_davis([4.0] * 7, 0.9) == pytest.approx(4.0)
    assert harrell_davis([2 * v + 1 for v in values], 0.9) == pytest.approx(2 * harrell_davis(values, 0.9) + 1)
    assert harrell_davis(values[::-1], 0.9) == pytest.approx(harrell_davis(values, 0.9))
    assert harrell_davis(values, 0.5) < harrell_davis(values, 0.8) < harrell_davis(values, 0.9)


def test_harrell_davis_weighs_neighbours_of_a_gap():
    # A gap at the nearest-rank position: that value is 1 or 100 depending on
    # one sample; the estimate lies between them.
    low, high = [1.0] * 94, [100.0] * 10
    assert percentile(low + high, 0.9)[0] == 1.0
    assert 1.0 < harrell_davis(low + high, 0.9) < 100.0
    with pytest.raises(ValueError):
        harrell_davis([], 0.9)
    with pytest.raises(ValueError):
        harrell_davis([1.0], 1.0)


def test_percentile_rejects_empty_and_bad_quantile():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)


def test_per_step_median_over_repeats():
    repeats = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 30.0}, {"a": 100.0, "b": 20.0}]
    assert per_step_median(repeats) == {"a": 3.0, "b": 20.0}
    assert per_step_median([{"a": 1.0}, {"a": 2.0}]) == {"a": 1.5}


def test_per_step_median_rejects_repeats_over_different_steps():
    with pytest.raises(ValueError):
        per_step_median([{"a": 1.0}, {"b": 1.0}])


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("child", 1.0, 4.0, 0, 0),
        ("grandchild", 2.0, 3.5, 1, 0),
        ("child", 5.0, 6.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 1.5, 1.0])
    by = summarize_spans(spans)
    assert by["child"] == {"calls": 2, "total": pytest.approx(4.0), "self": pytest.approx(2.5)}


def test_failure_boundary_is_rho_minus_a_millimetre():
    rho = 150.0
    assert not encounter_failed(True, False, rho - 1e-3, rho)
    assert not encounter_failed(True, False, rho - 7.7e-9, rho)  # classic on the crossing
    assert encounter_failed(True, False, rho - 1e-3 - 1e-9, rho)
    assert encounter_failed(False, False, 200.0, rho)
    assert encounter_failed(True, True, 200.0, rho)


def test_digest_ignores_solve_ms_and_nothing_else():
    header = "t,x,solver_status,solve_ms"
    a = f"{header}\n0,1.5,converged,12.3\n1,2.5,max_iters,45.6\n"
    b = f"{header}\n0,1.5,converged,99.9\n1,2.5,max_iters,0.1\n"
    c = f"{header}\n0,1.5,converged,12.3\n1,2.50000001,max_iters,45.6\n"
    assert csv_digest([("trace.csv", a)]) == csv_digest([("trace.csv", b)])
    assert csv_digest([("trace.csv", a)]) != csv_digest([("trace.csv", c)])
    assert csv_digest([("run_000.csv", a)]) != csv_digest([("run_001.csv", a)])
    assert csv_digest([("x.csv", a), ("y.csv", c)]) == csv_digest([("y.csv", c), ("x.csv", a)])
