"""Tests of the benchmark's own metric code.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import calibrate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from killdiff import crosscheck, fpe, montecarlo  # noqa: E402
from killdiff.model import BoundaryKind, KillingMeasure, interval  # noqa: E402
from killdiff.montecarlo import McConfig  # noqa: E402
from killdiff.numerics import AccuracyError  # noqa: E402


# --- the tail rule -------------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    assert metrics.tail(list(range(10))) is None
    value, pct, n = metrics.tail(list(range(11)))
    assert (value, n) == (0, 11)
    assert pct == pytest.approx(100 / 11)


def test_tail_is_p99_of_a_thousand_and_p50_of_twenty():
    values = list(range(1, 1001))
    value, pct, n = metrics.tail(values[::-1])
    assert (value, pct, n) == (990, 99.0, 1000)
    assert sum(v > value for v in values) == 10
    assert metrics.tail(list(range(1, 21)))[:2] == (10, 50.0)


# --- self time from nested spans -------------------------------------------------

def span(i, start, end, parent=None):
    return spans.Span(i, f"s{i}", start, end, parent, "item")


def test_self_time_subtracts_direct_children_only():
    tree = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),
        span(2, 2.0, 3.0, parent=1),  # grandchild: already inside span 1
        span(3, 6.0, 7.5, parent=0),
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 1.5)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == own[3] - 0.5 == pytest.approx(1.0)


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert spans.covered_length([], 0, 1) == 0.0


def test_tracer_records_nesting_and_items():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    outer_leaf = tracer.wrap("leaf", leaf)
    outer = tracer.wrap("outer", lambda: outer_leaf() + outer_leaf())
    tracer.begin_item("a")
    assert outer() == 2
    tracer.end_item()
    item, out, l1, l2 = tracer.spans
    assert [s.name for s in tracer.spans] == ["item", "outer", "leaf", "leaf"]
    assert out.parent == item.id and l1.parent == l2.parent == out.id
    assert {s.item for s in tracer.spans} == {"a"}
    own = spans.self_times(tracer.spans)
    assert own[out.id] == out.duration - l1.duration - l2.duration


def test_install_wraps_every_binding_and_uninstall_restores():
    original, run_matrix = fpe.split_statistics, crosscheck.run_matrix
    assert crosscheck.split_statistics is original
    tracer = spans.Tracer()
    replaced = spans.install(tracer, {})
    try:
        assert fpe.split_statistics is not original
        assert crosscheck.split_statistics is fpe.split_statistics
        # crosscheck is traced at its entry point only
        assert not hasattr(crosscheck.default_matrix, "__wrapped__")
        assert crosscheck.run_matrix.__wrapped__ is run_matrix
    finally:
        spans.uninstall(replaced)
    assert fpe.split_statistics is original and crosscheck.split_statistics is original


# --- MC work counts ---------------------------------------------------------------

def test_worker_split_matches_simulate_outcomes():
    assert metrics.worker_counts(5, 2) == [3, 2]
    assert metrics.worker_counts(1, 3) == [1]


def test_mc_counts_from_known_times():
    dt = 0.01
    times = [s * dt for s in (1, 3, 2, 5, 1)]
    counts = metrics.mc_counts(times, dt, 5, 2)
    assert counts == {"traj_steps": 12, "loop_iters": 8, "worker_iters": [3, 5]}


def test_every_trajectory_killed_in_its_first_step():
    # exp(-k dt) = exp(-1000): every trajectory dies at step 1
    cfg = McConfig(dt=1e-3, n_trajectories=50, seed=3)
    out = montecarlo.simulate_outcomes(interval(1.0), KillingMeasure.uniform(1e6), 0.5, cfg)
    counts = metrics.mc_counts(out.time, cfg.dt, cfg.n_trajectories, cfg.workers)
    assert counts == {"traj_steps": 50, "loop_iters": 1, "worker_iters": [1]}


@pytest.mark.parametrize("workers", [1, 2])
def test_loop_iterations_match_the_simulators_step_limit(workers):
    """A worker stops with AccuracyError when it would need more than
    max_steps iterations, so the counted iterations are exactly the smallest
    max_steps that lets the run finish."""
    model, killing = interval(1.0), KillingMeasure.uniform(1.0)
    cfg = McConfig(dt=1e-3, n_trajectories=64, seed=11, workers=workers)
    out = montecarlo.simulate_outcomes(model, killing, 0.5, cfg)
    counts = metrics.mc_counts(out.time, cfg.dt, cfg.n_trajectories, workers)
    longest = max(counts["worker_iters"])
    assert len(counts["worker_iters"]) == workers
    assert math.isclose(counts["traj_steps"] * cfg.dt, float(out.time.sum()), rel_tol=1e-9)
    fits = McConfig(dt=1e-3, n_trajectories=64, seed=11, workers=workers, max_steps=longest)
    montecarlo.simulate_outcomes(model, killing, 0.5, fits)
    short = McConfig(dt=1e-3, n_trajectories=64, seed=11, workers=workers, max_steps=longest - 1)
    with pytest.raises(AccuracyError):
        montecarlo.simulate_outcomes(model, killing, 0.5, short)


def test_mc_counts_reject_a_wrong_trajectory_count():
    with pytest.raises(ValueError):
        metrics.mc_counts([0.1, 0.2], 0.1, 3, 1)


# --- calibration and pooling ---------------------------------------------------------

def test_calibrator_samples_at_most_once_per_interval():
    now = [0.0]
    cal = calibrate.Calibrator(run_kernel=lambda: 0.02, clock=lambda: now[0])
    step = calibrate.INTERVAL_S
    for t in (0.0, 0.4 * step, 1.2 * step, 1.6 * step, 2.4 * step):
        now[0] = t
        cal.sample()
    assert cal.samples == [0.02, 0.02, 0.02]  # at 0, 1.2 and 2.4 intervals
    assert cal.scale() == pytest.approx(calibrate.REFERENCE_S / 0.02)


def test_calibration_drift_is_in_run_median_over_baseline():
    kernel_s = iter([0.010] * calibrate.BASELINE_SAMPLES + [0.012, 0.020, 0.014])
    now = [0.0]
    cal = calibrate.Calibrator(run_kernel=lambda: next(kernel_s), clock=lambda: now[0])
    cal.take_baseline()
    for _ in range(3):
        now[0] += 1.0
        cal.sample()
    assert cal.baseline == [0.010] * calibrate.BASELINE_SAMPLES
    assert cal.drift() == pytest.approx(1.4)


def test_scale_uses_the_samples_in_the_span_or_the_nearest():
    n = calibrate.ITEM_NEAREST
    now = [0.0]
    kernel_s = iter([0.010] * n + [0.020] * n)
    cal = calibrate.Calibrator(run_kernel=lambda: next(kernel_s), clock=lambda: now[0])
    for _ in range(2 * n):
        now[0] += 1.0
        cal.sample()
    # samples end at t = 1..n (10 ms) and n+1..2n (20 ms)
    assert cal.scale_between(0.5, n + 0.5) == pytest.approx(calibrate.REFERENCE_S / 0.010)
    assert cal.scale_between(n + 0.5, 2 * n + 0.5) == pytest.approx(calibrate.REFERENCE_S / 0.020)
    # a short span near the end takes the nearest samples
    assert cal.scale_between(2 * n - 0.1, 2 * n + 0.1) == pytest.approx(calibrate.REFERENCE_S / 0.020)
    # at the switch, half of each
    assert cal.scale_between(n + 0.4, n + 0.6) == pytest.approx(calibrate.REFERENCE_S / 0.015)


def test_item_scales_weight_a_pass_by_item_time():
    item = lambda seconds: workloads.ItemResult("x", seconds, [])
    p = run.Pass(4.0, [item(1.0), item(3.0)])
    assert run.pass_scale(p, [2.0, 1.0]) == pytest.approx(1.25)


def test_pass_groups_are_whole_consecutive_groups():
    assert run.pass_groups(list(range(7)), 3) == [[0, 1, 2], [3, 4, 5]]
    assert run.pass_groups([0, 1, 2], 1) == [[0], [1], [2]]
    assert run.pass_groups([0, 1], 3) == [[0, 1]]


# --- the Euler exit-bias reference -----------------------------------------------------

def test_within_span_takes_either_order_of_references():
    assert workloads.within_span(1.05, (1.0, 1.2), 0.0)
    assert workloads.within_span(0.95, (1.2, 1.0), 0.05)
    assert not workloads.within_span(1.26, (1.2, 1.0), 0.05)


def test_euler_shift_moves_absorbing_ends_only():
    dt, D = 1e-3, 0.5
    shift = workloads.BETA * math.sqrt(2 * D * dt)
    model = interval(1.0, diffusion=D)
    spots = KillingMeasure.dirac([(0.3, 2.0)])
    moved, killing, y = workloads.euler_shifted(model, spots, 0.5, dt)
    assert moved.domain.length == pytest.approx(1.0 + 2 * shift)
    assert killing.spots == ((pytest.approx(0.3 + shift), 2.0),)
    assert y == pytest.approx(0.5 + shift)
    half = interval(1.0, "reflecting", "absorbing", diffusion=D)
    moved, killing, y = workloads.euler_shifted(half, KillingMeasure.piecewise([0.5], [1.0, 2.0]), 0.5, dt)
    assert moved.domain.length == pytest.approx(1.0 + shift)
    assert moved.domain.left.kind is BoundaryKind.REFLECTING
    assert (killing.breakpoints, y) == ((0.5,), 0.5)
