import math

import numpy as np
import pytest

from killdiff import analytic, crosscheck, fpe, montecarlo
from killdiff.analytic import PI
from killdiff.fpe import GridSpec
from killdiff.model import BoundaryKind, InitialCondition, KillingKind, KillingMeasure, interval
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
    out = montecarlo.simulate_outcomes(interval(PI), KillingMeasure.zero(), 1.0, cfg())
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
        montecarlo.simulate_outcomes(model, KillingMeasure.zero(), 0.5, cfg())


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


def test_kill_histogram_requires_events():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 0.01)])
    out = montecarlo.simulate_outcomes(model, killing, 1.0, cfg(n_trajectories=50))
    with pytest.raises(AccuracyError, match="kill events"):
        montecarlo.kill_location_histogram(out, min_events=100)


def test_kill_histogram_concentrates_at_spot():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 5.0)])
    out = montecarlo.simulate_outcomes(model, killing, 1.0, cfg(n_trajectories=4000))
    edges, density = montecarlo.kill_location_histogram(out, bins=np.linspace(0, PI, 64))
    centers = (edges[:-1] + edges[1:]) / 2
    peak = centers[np.argmax(density)]
    assert abs(peak - 2.0) < 0.1


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
    times, s, _ = montecarlo.survival_curve(out, np.int64(4))
    assert times.tolist() == [out.time.max() * i / 4 for i in (1, 2, 3, 4)]
    assert s[-1] == 0.0


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


@pytest.mark.parametrize("D", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("dt", [1e-3, 0.04])
@pytest.mark.parametrize("k", [0.3, 5.0, 60.0])
def test_spot_probability_is_the_local_time_law(k, dt, D):
    xs = 0.5
    spread = math.sqrt(2 * D * dt)
    ends = [(0.5, 0.5), (0.45, 0.52), (0.5 - spread, 0.5 + 2 * spread), (0.4, 0.45), (0.6, 0.5 + spread)]
    x0, x1 = (np.array(v) for v in zip(*ends))
    got = montecarlo._spot_kill_probability(x0, x1, xs, k, D, dt)
    expected = [local_time_kill_probability(a, b, xs, k, D, dt) for a, b in ends]
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-15)


def test_spot_probability_limits():
    D, dt, xs = 1.0, 0.01, 0.0
    rng = np.random.default_rng(1)
    x0 = rng.normal(0.0, 0.2, 400)
    x1 = x0 + rng.normal(0.0, math.sqrt(2 * D * dt), 400)
    strengths = [0.0, 0.1, 1.0, 10.0, 100.0, 1e4, 1e9]
    p = np.array([montecarlo._spot_kill_probability(x0, x1, xs, k, D, dt) for k in strengths])
    assert np.all((p >= 0.0) & (p <= 1.0))
    assert np.all(p[0] == 0.0)
    assert np.all(np.diff(p, axis=0) >= 0.0)
    # an infinitely strong spot kills exactly the bridges that reach it:
    # exp(-2 max(ab, 0)/dt) with a, b in units of sqrt(2D)
    a, b = x0 / math.sqrt(2 * D), x1 / math.sqrt(2 * D)
    np.testing.assert_allclose(p[-1], np.exp(-2 * np.maximum(a * b, 0.0) / dt), rtol=1e-6, atol=1e-12)


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
    uniform = montecarlo._kill_law(KillingMeasure.uniform(3.0), 1.0, dt)
    assert uniform.probability(np.zeros(2), np.ones(2)) == -math.expm1(-3.0 * dt)
    piecewise = montecarlo._kill_law(KillingMeasure.piecewise([0.5], [1.0, 5.0]), 1.0, dt)
    x0, x1 = np.array([0.2, 0.7, 0.45]), np.array([0.3, 0.6, 0.55])
    expected = -np.expm1(-dt * np.array([1.0, 5.0, 3.0]))
    np.testing.assert_allclose(piecewise.probability(x0, x1), expected, rtol=1e-15)


# --- statistical checks at large steps -------------------------------------------


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.04])
def test_point_killing_split_has_no_step_bias(dt):
    model, killing, y = interval(PI), KillingMeasure.dirac([(2.0, 1.0)]), 1.0
    exact, _ = crosscheck.analytic_split_dirac(model, killing, y)
    stats = montecarlo.simulate_split(model, killing, y, cfg(dt=dt, n_trajectories=40000))
    assert abs(stats.p_killed - exact) <= 3 * stats.p_killed_se


@pytest.mark.parametrize("dt", [0.01, 0.02, 0.04])
def test_bridged_exits_give_the_mean_exit_time(dt):
    L, y, D = PI, 1.0, 1.0
    stats = montecarlo.simulate_split(interval(L), KillingMeasure.zero(), y, cfg(dt=dt, n_trajectories=40000))
    exact = y * (L - y) / (2 * D)
    # events are recorded at the end of their step: at most dt/2 late on average
    assert abs(stats.mean_absorb_time - exact) <= 3 * stats.mean_absorb_time_se + dt / 2


# --- the per-step kernel against a straightforward statement of it ---------------


def _reference_kill(killing, x0, x1, D, dt):
    """Per step, the cumulative kill probability over the spots (one row for
    a rate field), straight from the formulas of the module docstring."""
    from scipy.special import erfcx

    if killing.kind is KillingKind.DIRAC:
        survive = np.ones_like(x0)
        rows = []
        for xs, k in killing.spots:
            a, b = x0 - xs, x1 - xs
            p = (
                k / 2 * math.sqrt(PI * dt / D)
                * np.exp(-np.maximum(a * b, 0.0) / (D * dt))
                * erfcx((np.abs(a) + np.abs(b) + k * dt) / (2 * math.sqrt(D * dt)))
            )
            survive = survive * (1.0 - p)
            rows.append(1.0 - survive)
        return np.array(rows)
    rate = (killing.smooth_rate(x0) + killing.smooth_rate(x1)) / 2
    return -np.expm1(-rate * dt)[None, :]


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
            cumulative = _reference_kill(killing, x0, x1, D, dt)
            killed = u_kill < cumulative[-1]
            if killing.kind is KillingKind.UNIFORM:
                s = -np.log1p(-u_kill) / killing.v0
            else:
                s = np.full(m, dt / 2)
            # a kill and an exit in one step: the earlier ends it
            both = killed & exited
            if both.any():
                d0 = np.where(left, x0, L - x0)[both]
                d1 = np.where(left, x1, L - x1)[both]
                v = rng.wald(d0 / np.abs(d1), d0 * d0 / (2 * D * dt))
                tau = dt * v / (1 + v)
                killed[both] = s[both] < tau
            if killed.any():
                if killing.kind is KillingKind.DIRAC:
                    sites = np.array([xs for xs, _ in killing.spots])
                    pos = sites[np.count_nonzero(cumulative[:, killed] <= u_kill[killed], axis=0)]
                else:
                    sk = s[killed]
                    spread = np.sqrt(2 * D * sk * (dt - sk) / dt)
                    a, b = x0[killed], x1[killed]
                    pos = a + (b - a) * (sk / dt) + spread * rng.standard_normal(sk.size)
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
    "zero": KillingMeasure.zero(),
    "uniform": KillingMeasure.uniform(3.0),
    "one-spot": KillingMeasure.dirac([(0.4, 2.0)]),
    "overlapping-spots": KillingMeasure.dirac([(0.45, 2.0), (0.5, 3.0)]),
    "piecewise": KillingMeasure.piecewise([0.3, 0.6], [0.5, 3.0, 1.0]),
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


# the large step makes a kill and an exit in one step common
@pytest.mark.parametrize("dt", [5e-3, 0.04])
@pytest.mark.parametrize("drift", [0.0, 1.5])
@pytest.mark.parametrize("left,right,kill", TERMINATING)
def test_worker_is_draw_for_draw_the_reference(left, right, kill, drift, dt):
    killing = KILLINGS[kill]
    model = interval(1.0, left, right, drift=drift)
    config = cfg(dt=dt, n_trajectories=300, seed=5)
    args = (model, killing, 0.35, config, config.n_trajectories, 1)
    out = montecarlo.TrajectoryOutcomes(*montecarlo._simulate_worker(args))
    _assert_same_outcomes(out, _reference_worker(args))


def test_two_workers_match_the_reference():
    model, killing = interval(2.0, drift=-0.5), KillingMeasure.piecewise([1.2], [0.4, 2.5])
    config = cfg(dt=2e-2, n_trajectories=501, seed=9, workers=2)
    out = montecarlo.simulate_outcomes(model, killing, 0.7, config)
    parts = [_reference_worker((model, killing, 0.7, config, n, w)) for w, n in enumerate((251, 250))]
    _assert_same_outcomes(out, [np.concatenate(p) for p in zip(*parts)])


def test_steady_ratio_matches_the_reference():
    model = interval(1.0, "absorbing", "injection", phi=1.0)
    killing = KillingMeasure.uniform(4.0)
    config = cfg(dt=1e-2, n_trajectories=800, seed=2)
    ratio, se = montecarlo.simulate_rs(model, killing, config)
    reflected = interval(1.0, "absorbing", "reflecting")
    ref = _reference_worker((reflected, killing, 1.0, config, config.n_trajectories, 0))
    expected = montecarlo.split_from_outcomes(montecarlo.TrajectoryOutcomes(*ref))
    assert (ratio, se) == (expected.ratio_rinf, expected.ratio_rinf_se)
