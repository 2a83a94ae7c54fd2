import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from killdiff import analytic, crosscheck, fpe, montecarlo
from killdiff.analytic import PI
from killdiff.fpe import GridSpec
from killdiff.model import BoundaryKind, InitialCondition, KillingMeasure, interval
from killdiff.montecarlo import FATE_ABSORBED, FATE_KILLED, McConfig
from killdiff.numerics import AccuracyError


def cfg(**kw):
    base = dict(dt=1e-3, n_trajectories=2000, seed=3)
    base.update(kw)
    return McConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        McConfig(dt=0.0, n_trajectories=10)
    with pytest.raises(ValueError):
        McConfig(dt=1e-3, n_trajectories=0)
    with pytest.raises(ValueError):
        McConfig(dt=1e-3, n_trajectories=10, workers=0)


def test_every_trajectory_terminates_with_a_fate():
    out = montecarlo.simulate_outcomes(interval(PI), KillingMeasure(), 1.0, cfg())
    assert out.n == 2000
    assert np.all(out.absorbed)
    assert np.all((out.position == 0.0) | (out.position == PI))
    assert np.all(out.time > 0)


def test_split_probabilities_sum_to_one_exactly():
    stats = montecarlo.simulate_split(
        interval(2.0), KillingMeasure.uniform(1.0), 0.7, cfg()
    )
    assert stats.p_killed + stats.p_absorbed == 1.0


def test_same_seed_is_bit_identical():
    model = interval(2.0)
    killing = KillingMeasure.uniform(1.0)
    a = montecarlo.simulate_outcomes(model, killing, 0.7, cfg())
    b = montecarlo.simulate_outcomes(model, killing, 0.7, cfg())
    assert np.array_equal(a.fate, b.fate)
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.position, b.position)


def test_multiworker_run_is_reproducible():
    model = interval(2.0)
    killing = KillingMeasure.uniform(1.0)
    a = montecarlo.simulate_outcomes(model, killing, 0.7, cfg(workers=2, n_trajectories=500))
    b = montecarlo.simulate_outcomes(model, killing, 0.7, cfg(workers=2, n_trajectories=500))
    assert np.array_equal(a.time, b.time)
    assert np.array_equal(a.fate, b.fate)


def test_different_seeds_differ():
    model = interval(2.0)
    killing = KillingMeasure.uniform(1.0)
    a = montecarlo.simulate_outcomes(model, killing, 0.7, cfg(seed=1))
    b = montecarlo.simulate_outcomes(model, killing, 0.7, cfg(seed=2))
    assert not np.array_equal(a.time, b.time)


def test_reflecting_box_kill_time_is_exponential():
    model = interval(1.0, "reflecting", "reflecting")
    stats = montecarlo.simulate_split(model, KillingMeasure.uniform(2.0), 0.5, cfg(n_trajectories=4000))
    assert stats.p_killed == 1.0
    assert stats.mean_kill_time == pytest.approx(0.5, abs=3 * stats.mean_kill_time_se + 0.01)


def test_split_matches_pde_for_uniform_killing():
    model = interval(2.0)
    killing = KillingMeasure.uniform(1.0)
    mc = montecarlo.simulate_split(model, killing, 0.7, cfg(n_trajectories=8000))
    pde = fpe.split_statistics(model, killing, InitialCondition.point(0.7), GridSpec(200, 1e-3, 8.0))
    assert mc.p_killed == pytest.approx(pde.p_killed, abs=3 * mc.p_killed_se + 0.01)


def test_nonterminating_problem_rejected():
    model = interval(1.0, "reflecting", "reflecting")
    with pytest.raises(ValueError, match="never terminate"):
        montecarlo.simulate_outcomes(model, KillingMeasure(), 0.5, cfg())


@pytest.mark.parametrize("left,right,y", [("absorbing", "reflecting", 0.0), ("reflecting", "absorbing", 1.0)])
def test_start_on_an_absorbing_end_rejected(left, right, y):
    with pytest.raises(ValueError, match="on an absorbing end"):
        montecarlo.simulate_outcomes(interval(1.0, left, right), KillingMeasure.uniform(1.0), y, cfg())


def test_max_steps_guard():
    model = interval(1.0, "reflecting", "reflecting")
    with pytest.raises(AccuracyError, match="max_steps"):
        montecarlo.simulate_outcomes(
            model, KillingMeasure.uniform(1e-4), 0.5, cfg(max_steps=10, n_trajectories=100)
        )


def test_kill_histogram_concentrates_at_spot():
    # every kill sits on the spot: the bins still span [0, L], and all the
    # mass is in the spot's bin
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 5.0)])
    out = montecarlo.simulate_outcomes(model, killing, 1.0, cfg(n_trajectories=4000))
    edges, density = montecarlo.kill_location_histogram(out, PI)
    assert (edges[0], edges[-1], edges.size) == (0.0, PI, 51)
    spot = np.searchsorted(edges, 2.0, side="right") - 1
    assert density[spot] * (edges[spot + 1] - edges[spot]) == pytest.approx(1.0, rel=1e-12)
    assert not np.delete(density, spot).any()


def test_simulate_rs_matches_closed_form():
    model = interval(1.0, "absorbing", "injection", phi=1.0)
    ratio, se = montecarlo.simulate_rs(
        model, KillingMeasure.uniform(4.0), cfg(dt=2e-4, n_trajectories=4000)
    )
    expected = analytic.ratio_rs_uniform(1.0, 4.0, 1.0)
    assert ratio == pytest.approx(expected, abs=3 * se + 0.02)


def test_simulate_rs_requires_injection_geometry():
    with pytest.raises(ValueError, match="injection"):
        montecarlo.simulate_rs(interval(1.0), KillingMeasure.uniform(1.0), cfg())


def test_survival_curve_monotone_and_bounded():
    model = interval(2.0)
    out = montecarlo.simulate_outcomes(model, KillingMeasure.uniform(1.0), 0.7, cfg())
    times, s, se = montecarlo.survival_curve(out, 4)
    assert np.all(np.diff(s) <= 0)
    assert np.all((s >= 0) & (s <= 1))
    assert np.all(se >= 0)


def test_survival_curve_point_count_ends_at_the_last_termination():
    out = montecarlo.simulate_outcomes(interval(2.0), KillingMeasure.uniform(1.0), 0.7, cfg())
    last = round(out.time.max() / out.dt)
    times, s, _ = montecarlo.survival_curve(out, np.int64(4))
    assert times.tolist() == [math.ceil(last * i / 4) * out.dt for i in (1, 2, 3, 4)]
    assert s[-1] == 0.0


def test_survival_curve_takes_at_most_one_point_per_step():
    out = montecarlo.TrajectoryOutcomes(
        np.zeros(4, dtype=np.uint8), np.array([1, 2, 3, 3]) * 0.1, np.zeros(4), 0.1
    )
    times, s, _ = montecarlo.survival_curve(out, 50)
    assert times == pytest.approx([0.1, 0.2, 0.3])
    assert s.tolist() == [0.75, 0.5, 0.0]


def test_survival_curve_allocates_no_more_points_than_steps():
    # 10**13 candidate points would take 73 TiB; at most one per step are kept
    out = montecarlo.simulate_outcomes(interval(2.0), KillingMeasure.uniform(1.0), 0.7, cfg())
    last = round(out.time.max() / out.dt)
    huge, every = montecarlo.survival_curve(out, 10**13), montecarlo.survival_curve(out, last)
    assert all(np.array_equal(a, b) for a, b in zip(huge, every))
    assert huge[0].size == last


@given(
    steps=st.lists(st.integers(1, 60), min_size=1, max_size=300),
    points=st.integers(1, 100),
    dt=st.sampled_from([1e-3, 0.05, 0.1]),
)
@example(steps=[1] * 7, points=3, dt=0.1)  # every event at step 1
@example(steps=[2, 5, 5, 9], points=40, dt=1e-3)  # more points than steps
@settings(max_examples=200, deadline=None)
def test_survival_curve_is_the_count_past_each_point(steps, points, dt):
    steps = np.array(steps)
    out = montecarlo.TrajectoryOutcomes(
        np.zeros(steps.size, dtype=np.uint8), steps * dt, np.zeros(steps.size), dt
    )
    times, s, se = montecarlo.survival_curve(out, points)
    at = sorted({math.ceil(steps.max() * i / points) for i in range(1, points + 1)})
    assert np.array_equal(times, np.array(at) * dt)
    expected = np.array([np.count_nonzero(steps > k) for k in at]) / steps.size
    assert np.array_equal(s, expected)
    assert np.array_equal(se, np.sqrt(expected * (1 - expected) / steps.size))


def test_survival_curve_is_the_exponential_law_at_a_large_step():
    # uniform killing far from the ends of a wide line: S(t) = exp(-v0 t)
    v0, dt = 1.0, 0.05
    out = montecarlo.simulate_outcomes(
        interval(40.0), KillingMeasure.uniform(v0), 20.0, cfg(dt=dt, n_trajectories=20000)
    )
    times, s, _ = montecarlo.survival_curve(out, 40)
    exact = np.exp(-v0 * times)
    assert np.all(np.abs(s - exact) <= 3 * np.sqrt(exact * (1 - exact) / out.n))


def test_huge_spot_still_leaves_survivors():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 500.0)])
    stats = montecarlo.simulate_split(model, killing, 1.0, cfg())
    assert stats.ratio_rinf >= 0
    assert stats.p_absorbed > 0


def test_two_spots_kill_only_at_their_sites():
    killing = KillingMeasure.dirac([(0.3, 2.0), (0.7, 3.0)])
    out = montecarlo.simulate_outcomes(interval(1.0), killing, 0.5, cfg(dt=4e-3))
    sites, counts = np.unique(out.position[out.killed], return_counts=True)
    assert sites.tolist() == [0.3, 0.7]
    assert counts.min() > 100


# --- the bridge decisions of one step ------------------------------------------


def local_time_kill_probability(x0, x1, xs, k, D, dt):
    """E[1 - exp(-kappa l)] by quadrature over the Brownian-bridge local-time
    law P(l > u | a, b) = exp(-((|a| + |b| + u)^2 - (b - a)^2) / (2 dt)),
    in the units of a standard motion: a = (x0 - xs)/sqrt(2D), b likewise,
    kappa = k/sqrt(2D)."""
    from scipy.integrate import quad

    s = math.sqrt(2 * D)
    a, b, kappa = (x0 - xs) / s, (x1 - xs) / s, k / s

    def tail(u):
        return math.exp(-((abs(a) + abs(b) + u) ** 2 - (b - a) ** 2) / (2 * dt))

    value, _ = quad(lambda u: kappa * math.exp(-kappa * u) * tail(u), 0, math.inf, epsabs=1e-14)
    return value


def spot_law(xs, k, D, dt):
    return montecarlo._KillLaw(KillingMeasure.dirac([(xs, k)]), D, dt)


@pytest.mark.parametrize("D", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("dt", [1e-3, 0.04])
@pytest.mark.parametrize("k", [0.3, 5.0, 60.0])
def test_spot_probability_is_the_local_time_law(k, dt, D):
    xs = 0.5
    spread = math.sqrt(2 * D * dt)
    ends = [(0.5, 0.5), (0.45, 0.52), (0.5 - spread, 0.5 + 2 * spread), (0.4, 0.45), (0.6, 0.5 + spread)]
    x0, x1 = (np.array(v) for v in zip(*ends))
    got = spot_law(xs, k, D, dt).cumulative(x0, x1)[-1]
    expected = [local_time_kill_probability(a, b, xs, k, D, dt) for a, b in ends]
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-15)


def test_spot_probability_limits():
    D, dt, xs = 1.0, 0.01, 0.0
    rng = np.random.default_rng(1)
    x0 = rng.normal(0.0, 0.2, 400)
    x1 = x0 + rng.normal(0.0, math.sqrt(2 * D * dt), 400)
    strengths = [0.1, 1.0, 10.0, 100.0, 1e4, 1e9]
    p = np.array([np.zeros(x0.size)] + [spot_law(xs, k, D, dt).cumulative(x0, x1)[-1] for k in strengths])
    assert np.all((p >= 0.0) & (p <= 1.0))
    # strength 0 kills with probability 0: the law drops such a spot, and
    # beside another it changes no probability
    beside = montecarlo._KillLaw(KillingMeasure.dirac([(xs, 0.0), (xs, 0.1)]), D, dt)
    assert np.array_equal(beside.cumulative(x0, x1)[-1], p[1])
    assert np.all(np.diff(p, axis=0) >= 0.0)
    # an infinitely strong spot kills exactly the bridges that reach it:
    # exp(-2 max(ab, 0)/dt) with a, b in units of sqrt(2D)
    a, b = x0 / math.sqrt(2 * D), x1 / math.sqrt(2 * D)
    np.testing.assert_allclose(p[-1], np.exp(-2 * np.maximum(a * b, 0.0) / dt), rtol=1e-6, atol=1e-12)


@given(
    k=st.floats(1e-3, 1e7),
    D=st.floats(1e-3, 1e3),
    dt=st.floats(1e-6, 1.0),
    # the ends in units of sqrt(D dt) from the spot: the hit factor
    # exp(-max(ab, 0)/(D dt)) is subnormal for ab/(D dt) in (708, 745)
    ends=st.lists(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)), min_size=1, max_size=20),
)
@example(k=1e6, D=1.0, dt=0.1, ends=[(0.0, 0.0), (0.5, -0.5), (3.0, 2.0)])  # k dt >> sqrt(D dt)
@example(k=5.0, D=1.0, dt=8e-3, ends=[(27.0, 27.0), (26.8, 27.5), (27.2, 27.3), (40.0, 40.0)])
@settings(max_examples=300, deadline=None)
def test_spot_bound_is_at_least_the_kill_probability(k, D, dt, ends):
    scale = math.sqrt(D * dt)
    x0, x1 = (np.array(v) * scale + 0.5 for v in zip(*ends))
    spot = spot_law(0.5, k, D, dt)
    assert np.all(spot.cumulative(x0, x1, bound=True)[-1] >= spot.cumulative(x0, x1)[-1])
    # a rate and a second spot combine their bounds as their probabilities
    pumps = montecarlo._KillLaw(KillingMeasure(rates=(1.0,), spots=((0.5, k), (0.5 + scale, 2.0))), D, dt)
    assert np.all(pumps.cumulative(x0, x1, bound=True)[-1] >= pumps.cumulative(x0, x1)[-1])


def test_crossing_time_lies_in_the_step_and_follows_the_bridge():
    from scipy.integrate import quad

    D, dt = 1.0, 0.02
    rng = np.random.default_rng(4)
    d0 = rng.uniform(1e-6, 0.4, 20000)
    d1 = rng.uniform(-0.4, 0.4, 20000)
    tau = montecarlo._crossing_time(rng, d0, d1, D, dt)
    assert np.all((tau > 0.0) & (tau <= dt))

    # one bridge that crossed: the sample mean against the first-passage
    # density t^-3/2 (dt - t)^-1/2 exp(-d0^2/(4Dt) - d1^2/(4D(dt - t)))
    a, b = 0.1, -0.05
    tau = montecarlo._crossing_time(rng, np.full(40000, a), np.full(40000, b), D, dt)

    def density(t):
        return t**-1.5 * (dt - t) ** -0.5 * math.exp(-a * a / (4 * D * t) - b * b / (4 * D * (dt - t)))

    mass, _ = quad(density, 0, dt, limit=200)
    mean, _ = quad(lambda t: t * density(t), 0, dt, limit=200)
    assert abs(tau.mean() - mean / mass) <= 4 * tau.std() / math.sqrt(tau.size)


def test_hit_probability_is_one_once_crossed():
    p = montecarlo._hit_probability(np.array([0.1, 0.1, 0.0]), np.array([-0.2, 0.0, 0.3]), 1.0, 0.01)
    assert p.tolist() == [1.0, 1.0, 1.0]
    far = montecarlo._hit_probability(np.array([1.0]), np.array([1.0]), 1.0, 0.01)
    assert far[0] == math.exp(-100.0)


def test_kill_probability_of_a_rate_field():
    dt = 0.01
    uniform = montecarlo._KillLaw(KillingMeasure.uniform(3.0), 1.0, dt)
    assert uniform.cumulative(np.zeros(2), np.ones(2))[-1] == -math.expm1(-3.0 * dt)
    piecewise = montecarlo._KillLaw(KillingMeasure.piecewise([0.5], [1.0, 5.0]), 1.0, dt)
    x0, x1 = np.array([0.2, 0.7, 0.45]), np.array([0.3, 0.6, 0.55])
    expected = -np.expm1(-dt * np.array([1.0, 5.0, 3.0]))
    np.testing.assert_allclose(piecewise.cumulative(x0, x1)[-1], expected, rtol=1e-15)
    # a step killed by the rate dies at the in-step time of its trapezoid mean rate
    u = np.array([0.002, 0.03, 0.01])
    s, site = piecewise.locate(x0, x1, u)
    np.testing.assert_allclose(s, -np.log1p(-u) / [1.0, 5.0, 3.0], rtol=1e-15)
    assert np.isnan(site).all()


# --- statistical checks at large steps -------------------------------------------


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.04])
def test_point_killing_split_has_no_step_bias(dt):
    model, killing, y = interval(PI), KillingMeasure.dirac([(2.0, 1.0)]), 1.0
    exact, _ = crosscheck.analytic_split_dirac(model, killing, y)
    stats = montecarlo.simulate_split(model, killing, y, cfg(dt=dt, n_trajectories=40000))
    assert abs(stats.p_killed - exact) <= 3 * stats.p_killed_se


@pytest.mark.parametrize(
    "killing",
    [
        KillingMeasure(rates=(1.0,), spots=((0.6, 2.0),)),
        KillingMeasure((0.3, 0.6), (0.5, 3.0, 1.0), ((0.2, 2.0), (0.7, 3.0))),
    ],
    ids=["rate-plus-spot", "piecewise-plus-two-spots"],
)
def test_a_rate_plus_spots_agrees_with_the_pde(killing):
    model, y = interval(1.0), 0.4
    pde = fpe.split_statistics(model, killing, InitialCondition.point(y), GridSpec(400, 1e-3, 1.0))
    mc = montecarlo.simulate_split(model, killing, y, cfg(dt=4e-3, n_trajectories=20000, seed=11))
    for obs in ("p_killed", "mean_kill_time", "mean_absorb_time"):
        assert abs(getattr(mc, obs) - getattr(pde, obs)) <= 4 * getattr(mc, obs + "_se"), obs


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.04, 0.08])
def test_bridged_exits_give_the_mean_exit_time(dt):
    # a start away from the ends: no exit near t = 0, so the midpoint leaves no bias
    L, y, D = PI, 1.0, 1.0
    stats = montecarlo.simulate_split(interval(L), KillingMeasure(), y, cfg(dt=dt, n_trajectories=40000))
    exact = y * (L - y) / (2 * D)
    assert abs(stats.mean_absorb_time - exact) <= 3 * stats.mean_absorb_time_se


def test_midpoint_kill_time_at_a_large_step():
    # uniform killing in a reflecting box: T ~ Exp(v0), and the midpoint
    # estimator of E[T] is high by (dt^2/12) f(0+) = dt^2 v0/12
    v0, dt = 2.0, 0.08
    model = interval(1.0, "reflecting", "reflecting")
    stats = montecarlo.simulate_split(model, KillingMeasure.uniform(v0), 0.5, cfg(dt=dt, n_trajectories=40000))
    assert abs(stats.mean_kill_time - 1 / v0) <= 3 * stats.mean_kill_time_se + dt * dt * v0 / 12


def test_split_takes_each_event_at_its_step_midpoint():
    fate = np.array([FATE_KILLED, FATE_KILLED, FATE_ABSORBED, FATE_ABSORBED, FATE_ABSORBED], dtype=np.uint8)
    steps = np.array([1, 3, 2, 4, 9])
    out = montecarlo.TrajectoryOutcomes(fate, steps * 0.25, np.zeros(5), 0.25)
    stats = montecarlo.split_from_outcomes(out)
    assert stats.mean_kill_time == pytest.approx((0.125 + 0.625) / 2)
    assert stats.mean_absorb_time == pytest.approx((0.375 + 0.875 + 2.125) / 3)
    assert stats.mean_kill_time_se == pytest.approx(np.std([0.25, 0.75], ddof=1) / math.sqrt(2))


# --- the per-step kernel against a straightforward statement of it ---------------


def _reference_kill(killing, x0, x1, D, dt):
    """Per step, the cumulative kill probability over the sources of
    killing, one row each: the rate (its trapezoid mean over the step, also
    returned), then each spot of positive strength, straight from the
    formulas of the module docstring."""
    from scipy.special import erfcx

    rate = (killing.smooth_rate(x0) + killing.smooth_rate(x1)) / 2
    probabilities = [-np.expm1(-rate * dt)] if max(killing.rates) > 0 else []
    for xs, k in killing.spots:
        if k > 0:
            a, b = x0 - xs, x1 - xs
            probabilities.append(
                k / 2 * math.sqrt(PI * dt / D)
                * np.exp(-np.maximum(a * b, 0.0) / (D * dt))
                * erfcx((np.abs(a) + np.abs(b) + k * dt) / (2 * math.sqrt(D * dt)))
            )
    return 1.0 - np.cumprod(1.0 - np.array(probabilities), axis=0), rate


def _reference_worker(args):
    """One step per loop pass, every array rebuilt and every decision taken
    from the formulas: the kernel that `montecarlo._simulate_worker` must
    reproduce draw for draw."""
    model, killing, y0, cfg, n, worker = args
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, worker], dtype=np.uint64))
    )
    dom = model.domain
    L = dom.length
    D = model.diffusion
    dt = cfg.dt
    sigma = math.sqrt(2 * D * dt)
    shift = model.drift * dt
    has_kill = not killing.is_zero
    left_abs = dom.left.kind is BoundaryKind.ABSORBING
    right_abs = dom.right.kind is BoundaryKind.ABSORBING
    exits = left_abs or right_abs

    x = np.full(n, y0, dtype=float)
    fate = np.full(n, FATE_ABSORBED, dtype=np.uint8)
    t_end = np.empty(n, dtype=float)
    x_end = np.empty(n, dtype=float)
    alive = np.arange(n)

    step = 0
    while alive.size:
        if step >= cfg.max_steps:
            raise AccuracyError(
                f"{alive.size / n:.3%} of trajectories still alive after "
                f"{cfg.max_steps} steps; raise max_steps or check termination"
            )
        step += 1
        m = alive.size
        x0 = x
        x1 = sigma * rng.standard_normal(m) + shift + x0
        if not left_abs:
            x1 = np.where(x1 < 0.0, -x1, x1)
        if not right_abs:
            x1 = np.where(x1 > L, 2 * L - x1, x1)
        if not exits:
            x1 = np.clip(x1, 0.0, L)
        u = rng.random((int(exits) + int(has_kill)) * m)
        u_exit, u_kill = (u[:m], u[m:]) if exits else (None, u)

        none = np.zeros(m, dtype=bool)
        left = u_exit < np.exp(-np.maximum(x0 * x1, 0.0) / (D * dt)) if left_abs else none
        right = (
            u_exit > 1.0 - np.exp(-np.maximum((L - x0) * (L - x1), 0.0) / (D * dt))
            if right_abs else none
        )
        exited = left | right
        killed = none
        if has_kill:
            cumulative, rate = _reference_kill(killing, x0, x1, D, dt)
            killed = u_kill < cumulative[-1]
            # the sources kill in turn: the first whose cumulative probability exceeds u
            source = np.count_nonzero(cumulative <= u_kill, axis=0)
            rated = max(killing.rates) > 0
            sites = np.array([math.nan] * rated + [xs for xs, k in killing.spots if k > 0])
            by_rate = killed & (source == 0) & rated
            s = np.full(m, dt / 2)
            s[by_rate] = -np.log1p(-u_kill[by_rate]) / rate[by_rate]
            # a kill and an exit in one step: the earlier ends it
            both = killed & exited
            if both.any():
                d0 = np.where(left, x0, L - x0)[both]
                d1 = np.where(left, x1, L - x1)[both]
                mean, shape = d0 / np.abs(d1), d0 * d0 / (2 * D * dt)
                # where either underflows (a start a subnormal distance
                # from the end), the crossing is at 0 and nothing is drawn
                drawn = (mean > 0) & (shape > 0)
                tau = np.zeros(d0.size)
                v = rng.wald(mean[drawn], shape[drawn])
                tau[drawn] = dt * v / (1 + v)
                killed[both] = s[both] < tau
            if killed.any():
                pos = sites[source[killed]]
                bridged = np.isnan(pos)
                if bridged.any():
                    sk = s[killed][bridged]
                    spread = np.sqrt(2 * D * sk * (dt - sk) / dt)
                    a, b = x0[killed][bridged], x1[killed][bridged]
                    pos[bridged] = a + (b - a) * (sk / dt) + spread * rng.standard_normal(sk.size)
                idx = alive[killed]
                fate[idx] = FATE_KILLED
                x_end[idx] = np.clip(pos, 0.0, L)

        ended = exited | killed
        absorbed = exited & ~killed
        x_end[alive[absorbed]] = np.where(left, 0.0, L)[absorbed]
        t_end[alive[ended]] = step * dt
        x = x1[~ended]
        alive = alive[~ended]

    return fate, t_end, x_end


KILLINGS = {
    "zero": KillingMeasure(),
    "uniform": KillingMeasure.uniform(3.0),
    "one-spot": KillingMeasure.dirac([(0.4, 2.0)]),
    "overlapping-spots": KillingMeasure.dirac([(0.45, 2.0), (0.5, 3.0)]),
    "piecewise": KillingMeasure.piecewise([0.3, 0.6], [0.5, 3.0, 1.0]),
    # the paper's pumps on a background that also kills
    "rate-plus-spot": KillingMeasure(rates=(1.0,), spots=((0.6, 2.0),)),
    "piecewise-plus-two-spots": KillingMeasure((0.3, 0.6), (0.5, 3.0, 1.0), ((0.2, 2.0), (0.7, 3.0))),
}


def _assert_same_outcomes(out, ref):
    fate, time, position = ref
    assert np.array_equal(out.fate, fate)
    assert np.array_equal(out.time, time)
    assert np.array_equal(out.position, position)


# every end-kind pair and killing kind, except the one that never terminates
TERMINATING = [
    (left, right, kill)
    for left in ("absorbing", "reflecting")
    for right in ("absorbing", "reflecting")
    for kill in KILLINGS
    if "absorbing" in (left, right) or kill != "zero"
]

# (length, y, left, right, killing, drift, dt): on [0, 1] at every end-kind
# pair and killing kind, the large step making a kill and an exit in one step
# common; then sources of strength 0 beside live ones, which the law drops,
# one end pair each; then on [0, 40] at dt 0.08, where an end is screened
# (not computed) while every trajectory stays sqrt(746 D dt) = 7.7 from it
DRAW_FOR_DRAW = [
    pytest.param(1.0, 0.35, left, right, KILLINGS[kill], drift, dt, id=f"{left}-{right}-{kill}-{drift}-{dt}")
    for left, right, kill in TERMINATING
    for drift in (0.0, 1.5)
    for dt in (5e-3, 0.04)
] + [
    pytest.param(1.0, 0.35, left, right, killing, 1.5, dt, id=f"{name}-{dt}")
    for name, left, right, killing in [
        ("zero-rates-plus-spot", "absorbing", "absorbing", KillingMeasure((0.5,), (0.0, 0.0), ((0.4, 2.0),))),
        ("zero-spot-beside-a-spot", "absorbing", "reflecting", KillingMeasure.dirac([(0.3, 0.0), (0.6, 2.0)])),
        ("zero-then-rate-plus-spot", "reflecting", "absorbing", KillingMeasure((0.5,), (0.0, 3.0), ((0.3, 2.0),))),
        ("uniform-plus-zero-spot", "reflecting", "reflecting", KillingMeasure(rates=(2.0,), spots=((0.5, 0.0),))),
    ]
    for dt in (5e-3, 0.04)
] + [
    pytest.param(40.0, 20.0, "absorbing", "absorbing", killing, 0.0, 0.08, id=f"wide-{name}")
    for name, killing in [
        ("uniform", KillingMeasure.uniform(0.5)),
        ("spot", KillingMeasure.dirac([(20.5, 2.0)])),
        ("rate-plus-two-spots", KillingMeasure(rates=(0.05,), spots=((19.0, 2.0), (21.5, 3.0)))),
    ]
] + [
    # a start near one end: that end is in reach, the other is screened
    pytest.param(40.0, 3.0, "absorbing", "absorbing", KillingMeasure.uniform(0.2), 0.0, 0.08, id="near-left"),
    pytest.param(40.0, 36.0, "reflecting", "absorbing", KillingMeasure.dirac([(35.0, 1.0)]), 0.0, 0.08,
                 id="near-right-spot"),
    # drift carries the population into reach of one end, then the other
    pytest.param(40.0, 20.0, "absorbing", "absorbing", KillingMeasure.uniform(0.05), -4.0, 0.08, id="drift-left"),
    pytest.param(40.0, 20.0, "reflecting", "absorbing", KillingMeasure(), 3.0, 0.08, id="drift-right"),
    # a first step that drifts 9.6 away from a start next to an end: the step's
    # start, not its end, keeps that end in reach
    pytest.param(40.0, 0.01, "absorbing", "absorbing", KillingMeasure(), 120.0, 0.08, id="drift-away"),
    # a start a subnormal distance from an end: every trajectory exits in the
    # first step, and the kills in it tie with an exit whose crossing time
    # has a shape d0^2 / (2 D dt) that underflows to 0
    pytest.param(1.0, 1e-200, "absorbing", "absorbing", KillingMeasure.uniform(1.0), 0.0, 0.01, id="subnormal-start"),
]


@pytest.mark.parametrize("length,y,left,right,killing,drift,dt", DRAW_FOR_DRAW)
def test_worker_is_draw_for_draw_the_reference(length, y, left, right, killing, drift, dt):
    model = interval(length, left, right, drift=drift)
    config = cfg(dt=dt, n_trajectories=300, seed=5)
    args = (model, killing, y, config, config.n_trajectories, 1)
    out = montecarlo.TrajectoryOutcomes(*montecarlo._simulate_worker(args), config.dt)
    _assert_same_outcomes(out, _reference_worker(args))


def _reference_outcomes(model, killing, y, config, counts):
    """The reference workers' outcomes, worker w running counts[w]
    trajectories, concatenated in worker order."""
    parts = [_reference_worker((model, killing, y, config, n, w)) for w, n in enumerate(counts)]
    return [np.concatenate(p) for p in zip(*parts)]


@pytest.mark.parametrize("length,y", [(1.0, 1e-200), (1e-300, 5e-301)])
def test_a_start_a_subnormal_distance_from_an_end_is_absorbed(length, y):
    # the crossing of a kill/exit tie is at tau = 0, before any kill time
    stats = montecarlo.simulate_split(interval(length), KillingMeasure.uniform(1.0), y, cfg(dt=0.01))
    assert (stats.p_killed, stats.p_absorbed) == (0.0, 1.0)


def test_erfcx_is_imported_by_a_spot_simulation_only():
    script = textwrap.dedent("""
        import sys
        import killdiff
        from killdiff import montecarlo
        from killdiff.model import KillingMeasure, interval
        config = montecarlo.McConfig(1e-2, 50)
        montecarlo.simulate_outcomes(interval(1.0), KillingMeasure.piecewise([0.5], [1.0, 2.0]), 0.4, config)
        assert "scipy.special" not in sys.modules
        montecarlo.simulate_outcomes(interval(1.0), KillingMeasure.dirac([(0.5, 2.0)]), 0.4, config)
        assert "scipy.special" in sys.modules
        assert "scipy.linalg" not in sys.modules
    """)
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr


def test_two_workers_match_the_reference():
    model, killing = interval(2.0, drift=-0.5), KillingMeasure.piecewise([1.2], [0.4, 2.5])
    config = cfg(dt=2e-2, n_trajectories=501, seed=9, workers=2)
    out = montecarlo.simulate_outcomes(model, killing, 0.7, config)
    _assert_same_outcomes(out, _reference_outcomes(model, killing, 0.7, config, (251, 250)))


def test_steady_ratio_matches_the_reference():
    model = interval(1.0, "absorbing", "injection", phi=1.0)
    killing = KillingMeasure.uniform(4.0)
    config = cfg(dt=1e-2, n_trajectories=800, seed=2)
    ratio, se = montecarlo.simulate_rs(model, killing, config)
    reflected = interval(1.0, "absorbing", "reflecting")
    ref = _reference_worker((reflected, killing, 1.0, config, config.n_trajectories, 0))
    expected = montecarlo.split_from_outcomes(montecarlo.TrajectoryOutcomes(*ref, config.dt))
    assert (ratio, se) == (expected.ratio_rinf, expected.ratio_rinf_se)


# --- the worker pool, forked once per process and reused ---------------------------

POOL_MODEL, POOL_Y = interval(2.0, drift=-0.5), 0.7
POOL_KILLING = KillingMeasure.piecewise([1.2], [0.4, 2.5])


def pool_simulation(workers=2, n_trajectories=101):
    """A small multi-worker simulation, checked against the reference
    workers draw for draw; returns the pids of the pool's workers."""
    config = cfg(dt=2e-2, n_trajectories=n_trajectories, seed=9, workers=workers)
    out = montecarlo.simulate_outcomes(POOL_MODEL, POOL_KILLING, POOL_Y, config)
    counts = [n_trajectories // workers + (w < n_trajectories % workers) for w in range(workers)]
    _assert_same_outcomes(out, _reference_outcomes(POOL_MODEL, POOL_KILLING, POOL_Y, config, counts))
    return worker_pids()


def worker_pids():
    pid, _, pool = montecarlo._pool
    assert pid == os.getpid()
    return set(pool._processes)


def test_consecutive_simulations_reuse_the_workers():
    first = pool_simulation()
    assert len(first) == 2
    assert pool_simulation() == first


def test_pool_has_a_worker_per_job_with_work():
    # 3 trajectories over 4 workers: three jobs, three workers
    assert len(pool_simulation(workers=4, n_trajectories=3)) == 3


def test_pool_is_replaced_for_another_number_of_jobs():
    two = pool_simulation(workers=2)
    old = montecarlo._pool[2]  # alive or not, its workers must be joined
    three = pool_simulation(workers=3)
    assert len(three) == 3
    assert not two & three
    assert montecarlo._pool[2] is not old
    for pid in two:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_pool_is_replaced_in_a_forked_child():
    parent = pool_simulation()
    receive, send = multiprocessing.Pipe(duplex=False)

    def child():
        try:
            send.send(sorted(pool_simulation()))
        except BaseException as exc:
            send.send(repr(exc))
        finally:
            montecarlo._pool[2].shutdown()

    proc = multiprocessing.get_context("fork").Process(target=child)
    proc.start()
    try:
        assert receive.poll(60), "the forked child sent nothing"
        pids = receive.recv()
    finally:
        proc.join(30)
        if proc.is_alive():
            proc.kill()
    assert proc.exitcode == 0
    assert isinstance(pids, list) and len(pids) == 2, pids
    assert not parent & set(pids)
    assert pool_simulation() == parent


def test_pool_is_replaced_after_a_worker_is_killed():
    before = pool_simulation()
    os.kill(min(before), signal.SIGKILL)
    # the executor's manager thread marks the pool broken once it sees the
    # death; a job submitted before that could still run on the live worker
    deadline = time.monotonic() + 10
    while not montecarlo._pool[2]._broken and time.monotonic() < deadline:
        time.sleep(0.01)
    with pytest.raises(BrokenProcessPool):
        pool_simulation()
    assert montecarlo._pool is None
    after = pool_simulation()
    assert len(after) == 2
    assert not before & after


def test_pool_is_reused_after_a_worker_raises():
    before = pool_simulation()
    config = cfg(max_steps=10, n_trajectories=100, workers=2)
    with pytest.raises(AccuracyError, match="max_steps"):
        montecarlo.simulate_outcomes(
            interval(1.0, "reflecting", "reflecting"), KillingMeasure.uniform(1e-4), 0.5, config
        )
    assert pool_simulation() == before


def test_process_with_a_pool_exits_and_leaves_no_worker():
    script = textwrap.dedent("""
        from killdiff import montecarlo
        from killdiff.model import KillingMeasure, interval
        from killdiff.montecarlo import McConfig
        montecarlo.simulate_outcomes(
            interval(1.0), KillingMeasure.uniform(1.0), 0.5, McConfig(1e-2, 100, workers=2)
        )
        print(*montecarlo._pool[2]._processes)
    """)
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=30, env=env
    )
    assert done.returncode == 0, done.stderr
    pids = [int(p) for p in done.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
