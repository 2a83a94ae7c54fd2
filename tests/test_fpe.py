import logging
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import expm
from scipy.linalg.lapack import dgttrf

from killdiff import analytic, crosscheck, fpe
from killdiff.analytic import PI
from killdiff.cli import parse_config
from killdiff.fpe import GridSpec
from killdiff.model import InitialCondition, InputError, KillingMeasure, interval

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
DECAYING = (
    "conditional_mfpt", "convergence_uniform", "dirac_reference", "drift",
    "free_interval", "green_rinf", "piecewise_rates",
)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 1e-3, 1.0)
    with pytest.raises(ValueError):
        GridSpec(100, -1e-3, 1.0)


def test_point_source_has_unit_mass():
    res = fpe.evolve(
        interval(PI), KillingMeasure(), InitialCondition.point(1.0), GridSpec(100, 1e-3, 1e-3)
    )
    assert res.series.survival[0] == pytest.approx(1.0, abs=1e-12)


def test_discrete_conservation_is_exact():
    # d/dt survival = -(kill rate) - (boundary flux), checked on their
    # integrals over an infinite horizon
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 1.0)])
    stats = fpe.split_statistics(model, killing, InitialCondition.point(1.0), GridSpec(200, 1e-3, 14.0))
    assert stats.p_killed + stats.p_absorbed == pytest.approx(1.0, abs=1e-6)


def test_uniform_killing_reflecting_survival_is_exponential():
    model = interval(1.0, "reflecting", "reflecting")
    res = fpe.evolve(
        model, KillingMeasure.uniform(2.0), InitialCondition.point(0.5), GridSpec(64, 1e-3, 3.0)
    )
    s = res.series
    # killing commutes with diffusion in a closed box: S(t) = exp(-v0 t)
    expected = np.exp(-2.0 * s.times)
    assert np.max(np.abs(s.survival - expected)) < 1e-6


def test_survival_matches_eigenfunction_series():
    res = fpe.evolve(
        interval(PI), KillingMeasure(), InitialCondition.point(PI / 2), GridSpec(400, 5e-4, 2.0)
    )
    s = res.series
    for t in (0.5, 1.0, 2.0):
        i = int(round(t / 5e-4))
        assert s.survival[i] == pytest.approx(analytic.survival_series_free(t, PI / 2), abs=5e-5)


def test_split_statistics_free_exit_time():
    stats = fpe.split_statistics(
        interval(PI), KillingMeasure(), InitialCondition.point(PI / 2), GridSpec(200, 1e-3, 12.0)
    )
    assert stats.p_absorbed == pytest.approx(1.0, abs=1e-6)
    assert stats.p_killed == pytest.approx(0.0, abs=1e-9)
    assert stats.mean_absorb_time == pytest.approx(PI**2 / 8, abs=2e-4)
    assert math.isnan(stats.mean_kill_time)
    assert math.isinf(stats.ratio_rinf)


def test_split_statistics_matches_closed_form_dirac():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 1.0)])
    stats = fpe.split_statistics(model, killing, InitialCondition.point(1.0), GridSpec(400, 1e-3, 14.0))
    g_y = analytic.green_laplace_closed(2.0, 1.0, 0.0)
    g_xx = analytic.green_laplace_closed(2.0, 2.0, 0.0)
    pk = g_y / (1 + g_xx)
    assert stats.p_killed == pytest.approx(pk, abs=5e-4)
    mfpt = analytic.conditional_mean_kill_time_dirac(1.0, 2.0, 1.0)
    assert stats.mean_kill_time == pytest.approx(mfpt.derived_value, abs=2e-3)


def test_split_statistics_is_the_infinite_horizon_sum_of_the_scheme():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 1.0)])
    ic = InitialCondition.point(1.0)
    # exact for every dt and independent of the horizon
    splits = {
        (dt, t_max): fpe.split_statistics(model, killing, ic, GridSpec(100, dt, t_max))
        for dt in (5e-3, 5e-2, 0.5)
        for t_max in (0.5, 16.0)
    }
    assert len(set(splits.values())) == 1
    stats = splits[5e-3, 16.0]

    # the integrals of the rates of e^(At) u0: trapezoid sums of `evolve`'s
    # rates over a horizon that leaves no mass behind, at a step where the
    # rule's own error is below the bound (it was 7e-14 and 2e-13 here, and
    # 3e-10 and 2e-9 at dt 1e-2)
    dt = 1e-3
    s = fpe.evolve(model, killing, ic, GridSpec(100, dt, 30.0)).series
    assert abs(s.survival[-1]) < 1e-12
    assert stats.p_killed == pytest.approx(np.trapezoid(s.kill_rate, dx=dt), abs=1e-11)
    assert stats.p_absorbed == pytest.approx(np.trapezoid(s.boundary_flux, dx=dt), abs=1e-11)


def test_split_statistics_wide_interval_absorb_time():
    # the few absorbed particles leave late, long after most are killed;
    # a time-stepped sum needs t_max = 60 to reach this value
    sc = next(s for s in crosscheck.default_matrix(0) if s.name == "uniform-wide")
    stats = fpe.split_statistics(sc.model, sc.killing, InitialCondition.point(sc.y), sc.grid)
    assert stats.mean_absorb_time == pytest.approx(9.98752, abs=1e-5)


def test_split_statistics_rejects_injection():
    model = interval(1.0, "absorbing", "injection", phi=1.0)
    with pytest.raises(ValueError, match="injection"):
        fpe.split_statistics(
            model, KillingMeasure.uniform(1.0), InitialCondition.point(0.5), GridSpec(100, 1e-3, 1.0)
        )


def test_steady_state_flux_balance_and_ratio():
    model = interval(1.0, "absorbing", "injection", phi=1.0)
    sol = fpe.steady_state(model, KillingMeasure.uniform(4.0), GridSpec(800, 1e-3, 1.0))
    assert sol.absorbed_flux + sol.kill_integral == pytest.approx(sol.injected_flux, abs=1e-10)
    assert sol.ratio_rs == pytest.approx(analytic.ratio_rs_uniform(1.0, 4.0, 1.0), rel=1e-5)
    assert np.all(sol.density >= 0)


def test_steady_state_dirac_spot_ratio():
    model = interval(1.0, "absorbing", "injection", phi=1.0)
    sol = fpe.steady_state(model, KillingMeasure.dirac([(0.4, 2.0)]), GridSpec(800, 1e-3, 1.0))
    assert sol.ratio_rs == pytest.approx(analytic.ratio_rs_dirac(1.0, 2.0, 0.4), rel=1e-4)


def test_steady_state_flux_scales_linearly():
    model1 = interval(1.0, "absorbing", "injection", phi=1.0)
    model3 = interval(1.0, "absorbing", "injection", phi=3.0)
    killing = KillingMeasure.uniform(2.0)
    s1 = fpe.steady_state(model1, killing, GridSpec(200, 1e-3, 1.0))
    s3 = fpe.steady_state(model3, killing, GridSpec(200, 1e-3, 1.0))
    assert s3.ratio_rs == pytest.approx(s1.ratio_rs, rel=1e-12)
    assert s3.kill_integral == pytest.approx(3 * s1.kill_integral, rel=1e-10)


def test_steady_state_needs_injection_and_absorption():
    with pytest.raises(ValueError):
        fpe.steady_state(interval(1.0), KillingMeasure.uniform(1.0), GridSpec(100, 1e-3, 1.0))


def test_green_steady_reference_ratio():
    gr = fpe.green_steady(
        interval(1.0), KillingMeasure.dirac([(0.25, 1.0)]), 0.75, GridSpec(800, 1e-3, 1.0)
    )
    assert gr.ratio_rinf == pytest.approx(18.0, rel=1e-6)
    assert gr.absorbed_flux + gr.kill_integral == pytest.approx(1.0, abs=1e-9)


def test_green_steady_agrees_with_time_integrated_route():
    model = interval(1.0)
    killing = KillingMeasure.dirac([(0.3, 2.0), (0.7, 3.0)])
    gr = fpe.green_steady(model, killing, 0.5, GridSpec(400, 2e-4, 2.0))
    stats = fpe.split_statistics(model, killing, InitialCondition.point(0.5), GridSpec(400, 2e-4, 2.0))
    assert gr.ratio_rinf == pytest.approx(stats.ratio_rinf, rel=1e-3)


def test_decay_rate_free_interval():
    lam = fpe.decay_rate(interval(PI), KillingMeasure(), 400)
    assert lam == pytest.approx(1.0, abs=1e-3)


def test_decay_rate_shifted_exactly_by_uniform_killing():
    lam0 = fpe.decay_rate(interval(PI), KillingMeasure(), 200)
    lam2 = fpe.decay_rate(interval(PI), KillingMeasure.uniform(2.0), 200)
    assert lam2 - lam0 == pytest.approx(2.0, abs=1e-9)


def test_decay_rate_reflecting_box_is_killing_rate():
    lam = fpe.decay_rate(interval(1.0, "reflecting", "reflecting"), KillingMeasure.uniform(3.0), 100)
    assert lam == pytest.approx(3.0, abs=1e-9)


@pytest.mark.parametrize("drift,cells", [(-29.4, 100), (-29.4, 400), (-29.4, 1600), (-21.1, 100)])
def test_unresolvable_decay_rate_is_refused(drift, cells):
    # mass trapped against the reflecting end: the rate, about 1/T ~ 7e-16 at
    # drift -29.4, is far below the bisection's error of about eps |A|, which
    # returned -4.5e-13, -2.2e-11 and -5.8e-10, and +5.2e-11 at drift -21.1
    model = interval(1.0, "reflecting", "absorbing", diffusion=0.7, drift=drift)
    with pytest.raises(InputError, match="decay rate .* below what the eigenvalue solve resolves"):
        fpe.decay_rate(model, KillingMeasure(), cells)


@pytest.mark.parametrize("cells", [100, 400, 1600])
def test_resolvable_small_decay_rate_is_returned(cells):
    # drift a < 0 towards the reflecting end at 0: lam = D (c^2 - kappa^2),
    # c = |a|/2D, tanh(kappa L) = kappa/c.  Second order (the error was
    # 17/cells^2) until the bisection's error, ~eps |A|, nears 1e-5 of it
    from scipy.optimize import brentq

    D, a = 0.7, -10.0
    c = abs(a) / (2 * D)
    kappa = brentq(lambda k: math.tanh(k) - k / c, 1.0, c * (1 - 1e-15), xtol=1e-15)
    exact = D * (c * c - kappa * kappa)  # 8.93e-5
    model = interval(1.0, "reflecting", "absorbing", diffusion=D, drift=a)
    rate = fpe.decay_rate(model, KillingMeasure(), cells)
    assert rate == pytest.approx(exact, rel=18 / cells**2 + 1e-5)


def test_drift_pushes_exit_to_downstream_boundary():
    sym = fpe.split_statistics(
        interval(2.0), KillingMeasure.uniform(1.0), InitialCondition.point(1.0), GridSpec(100, 1e-3, 10.0)
    )
    # with drift, more probability should be absorbed overall before killing
    # acts (faster exit) -> shorter mean absorb time
    drifted = fpe.split_statistics(
        interval(2.0, drift=1.5), KillingMeasure.uniform(1.0), InitialCondition.point(1.0),
        GridSpec(100, 1e-3, 10.0),
    )
    assert drifted.mean_absorb_time < sym.mean_absorb_time
    assert drifted.p_absorbed > sym.p_absorbed


ENDS = ("absorbing", "reflecting", "injection")


@pytest.mark.parametrize("cells", [8, 9])
@pytest.mark.parametrize("right", ENDS)
@pytest.mark.parametrize("left", ENDS)
def test_operator_is_the_finite_volume_stencil(left, right, cells):
    D, a, L, phi, xs, ks = 0.7, -1.3, 1.0, 0.4, 0.43, 2.0
    model = interval(L, left, right, diffusion=D, drift=a, phi=phi)
    disc = fpe._Discretization(model, KillingMeasure.dirac([(xs, ks)]), cells)

    # node balance h_i dp_i/dt = F_{i-1} - F_i - h_i k_i p_i on all nodes,
    # F_i = (D/dx) [B(-P) p_i - B(P) p_{i+1}] the Scharfetter-Gummel face
    # flux, B(x) = x / (e^x - 1), P = a dx / D; an end face carries no flux
    # (reflecting) or phi inward (injection)
    n, dx = cells, L / cells
    P = a * dx / D
    fwd, bwd = D / dx * -P / math.expm1(-P), D / dx * P / math.expm1(P)
    h = np.full(n + 1, dx)
    h[0] = h[n] = dx / 2
    k = np.zeros(n + 1)
    j = int(xs / dx)
    theta = xs / dx - j
    k[j] += ks * (1 - theta) / h[j]
    k[j + 1] += ks * theta / h[j + 1]
    full = np.zeros((n + 1, n + 1))
    source = np.zeros(n + 1)
    for i in range(n + 1):
        if i > 0:  # inflow F_{i-1} from the left face
            full[i, i - 1] += fwd
            full[i, i] -= bwd
        elif left == "injection":
            source[i] += phi
        if i < n:  # outflow F_i through the right face
            full[i, i] -= fwd
            full[i, i + 1] += bwd
        elif right == "injection":
            source[i] += phi
        full[i] /= h[i]
        full[i, i] -= k[i]
        source[i] /= h[i]
    lo = 1 if left == "absorbing" else 0
    hi = n if right == "absorbing" else n + 1
    expected = full[lo:hi, lo:hi]

    got = np.diag(disc.diag) + np.diag(disc.lower, -1) + np.diag(disc.upper, 1)
    np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13 * np.abs(expected).max())
    np.testing.assert_allclose(disc.source, source[lo:hi], rtol=1e-13, atol=0)

    # observable weights on the unknown nodes: survival sum h p, kill rate
    # sum h k p, and the outward flux -F_0 + F_(n-1) through the absorbing
    # end faces, whose outer node holds p = 0
    outward = np.zeros(n + 1)
    if left == "absorbing":
        outward[1] = bwd
    if right == "absorbing":
        outward[n - 1] = fwd
    weights = np.array([h, h * k, outward])[:, lo:hi]
    np.testing.assert_allclose(disc.weights, weights, rtol=1e-13, atol=0)


def dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)


@given(n=st.integers(3, 30), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_lu_solve_on_systems_that_pivot(n, seed):
    # off-diagonals larger than the diagonal: not diagonally dominant, and
    # |diag[0]| < |lower[0]| swaps the first two rows
    rng = np.random.default_rng(seed)
    lower = rng.choice([-1.0, 1.0], n - 1) * rng.uniform(1, 3, n - 1)
    diag = rng.uniform(-0.5, 0.5, n)
    upper = rng.uniform(-3, 3, n - 1)
    rhs = rng.uniform(-5, 5, n)
    lu = dgttrf(lower, diag, upper)
    assert lu[4][0] == 2
    matrix = dense(lower, diag, upper)
    cond = np.linalg.cond(matrix)
    assume(cond < 1e8)
    expected = np.linalg.solve(matrix, rhs)
    error = np.linalg.norm(fpe._lu_solve(lu, rhs) - expected)
    assert error <= 1e-13 * cond * np.linalg.norm(expected)


@pytest.mark.parametrize("peclet", [0.0, 0.5, 5.0, -5.0])
@pytest.mark.parametrize("right", ENDS)
@pytest.mark.parametrize("left", ENDS)
def test_lu_solve_on_the_operator_and_the_crank_nicolson_matrix(left, right, peclet):
    # -A and I - dt/2 A at cell Peclet |a| dx / (2 D) up to 5; uniform
    # killing keeps -A invertible between closed ends
    cells, D, dt = 16, 0.5, 1e-2
    model = interval(1.0, left, right, diffusion=D, drift=2 * D * cells * peclet, phi=1.0)
    disc = fpe._Discretization(model, KillingMeasure.uniform(1.0), cells)
    assert abs(model.drift) * disc.dx / (2 * D) == pytest.approx(abs(peclet))
    a = dense(disc.lower, disc.diag, disc.upper)
    cn = dgttrf(-dt / 2 * disc.lower, 1 - dt / 2 * disc.diag, -dt / 2 * disc.upper)
    rhs = np.random.default_rng(0).uniform(0.5, 1.5, disc.m)
    for lu, matrix in ((disc.neg_lu, -a), (cn, np.eye(disc.m) - dt / 2 * a)):
        np.testing.assert_allclose(fpe._lu_solve(lu, rhs), np.linalg.solve(matrix, rhs), rtol=1e-12)


def test_an_exactly_singular_system_is_refused():
    # two equal rows, [1, 1, 0]: the last pivot is exactly zero
    lu = dgttrf(np.ones(2), np.ones(3), np.array([1.0, 0.0]))
    assert lu[-1] == 3
    assert np.isnan(fpe._lu_solve(lu, np.ones(3))).all()
    # drift 500 against a reflecting end on 100 cells: -A is exactly singular
    # in double precision
    model = interval(1.0, "absorbing", "reflecting", drift=500.0)
    disc = fpe._Discretization(model, KillingMeasure(), 100)
    assert disc.neg_lu[-1] > 0
    assert np.isnan(fpe._lu_solve(disc.neg_lu, np.ones(disc.m))).all()
    with pytest.raises(InputError, match=r"\(not finite\)"):
        disc.solve(disc.initial_vector(InitialCondition.point(0.5)))


# 199 and 200 unknowns: _BLOCK // m = 20 systems a block, so 25 nodes end in
# a partial block of 5; 98 unknowns take 41 a block, so 26 and 34 points fit
# one block and 50 and 66 end in a partial one, all from one operator
@pytest.mark.parametrize(
    "right, cells, rules",
    [("absorbing", 200, (24,)), ("injection", 200, (24,)), ("absorbing", 99, (24, 32, 48, 64))],
    ids=["partial-block", "source", "block-sizes"],
)
def test_resolvent_is_a_dense_solve_of_each_node(right, cells, rules):
    model = interval(1.0, "absorbing", right, drift=3.0, phi=0.5)
    disc = fpe._Discretization(model, KillingMeasure.dirac([(0.43, 2.0)]), cells)
    assert disc.source.any() == (right == "injection")
    u0 = disc.initial_vector(InitialCondition.point(0.3))
    A = dense(disc.lower, disc.diag, disc.upper)
    for nodes in rules:
        u = fpe._STEP / nodes * np.arange(nodes + 1)  # `_contour`'s points at t0 = 0.01
        z = fpe._SHIFT * nodes / fpe._WINDOW / 0.01 * (1 + 1j * u) ** 2
        assert z.size % (fpe._BLOCK // disc.m) or z.size < fpe._BLOCK // disc.m
        got = fpe._resolvent(disc, u0, z)
        expected = np.array(
            [disc.weights @ np.linalg.solve(zk * np.eye(disc.m) - A, u0 + disc.source / zk) for zk in z]
        ).T
        np.testing.assert_allclose(got, expected, rtol=1e-11, atol=1e-13 * np.abs(expected).max())


def exponential_reference(model, killing, ic, grid, steps):
    """The semi-discrete solution u(t) = e^(At) u0 + int_0^t e^(As) source ds
    on all nodes at t = n dt for each n of the sorted steps: dense expm of
    [[A, source], [0, 0]], whose exponential carries (u, 1) to (u(t), 1)
    with no steady state, one per distinct gap between the steps.  Also the
    discretization."""
    disc = fpe._Discretization(model, killing, grid.cell_count)
    a = np.zeros((disc.m + 1, disc.m + 1))
    a[:-1, :-1] = dense(disc.lower, disc.diag, disc.upper)
    a[:-1, -1] = disc.source
    z = np.append(disc.initial_vector(ic), 1.0)
    states, last, gaps = {}, 0, {}
    for n in steps:
        if n > last:
            if n - last not in gaps:
                gaps[n - last] = expm(a * ((n - last) * grid.dt))
            z = gaps[n - last] @ z
        states[n], last = disc.full(z[:-1]), n
    return states, disc


def beside_the_exponential(res, args, stride, every):
    """res, run at stride, beside the dense e^(At) at every `every`-th step
    (a multiple of stride): the times, res's three observables and the
    reference's (3 x times each), and the discretization."""
    grid = args[-1]
    checked = range(0, round(grid.t_max / grid.dt) + 1, every)
    states, disc = exponential_reference(*args, checked)
    names = ("survival", "kill_rate", "boundary_flux")
    got = np.array([getattr(res.series, q)[:: every // stride] for q in names])
    ref = np.array([disc.weights @ states[n][disc.unknowns] for n in checked]).T
    return np.array(checked) * grid.dt, got, ref, disc


def assert_is_the_exponential(res, args, stride, every):
    """Within 1e-9 of the largest reference value, at every `every`-th step."""
    _, got, ref, _ = beside_the_exponential(res, args, stride, every)
    atol = 1e-9 * max(1.0, np.abs(ref).max())
    np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


@pytest.mark.parametrize("ini", DECAYING + ("steady_uniform", "steady_dirac"))
def test_evolve_is_the_exponential_of_the_operator(ini):
    # at every step at stride 1, and at a stride of 1/16 of the horizon,
    # whose first window starts later; the dense reference holds at most 400
    # cells (expm took 1.4 s on green_rinf's 799 unknowns)
    cfg = parse_config(os.path.join(SCENARIOS, f"{ini}.ini"))
    grid = replace(cfg.grid, cell_count=min(cfg.grid.cell_count, 400))
    args = (cfg.model, cfg.killing, InitialCondition.point(cfg.y), grid)
    coarse = max(1, round(grid.t_max / grid.dt) // 16)
    for stride in (1, coarse):
        res = fpe.evolve(*args, stride=stride)
        assert res.error_estimate <= 1e-10
        assert_is_the_exponential(res, args, stride, stride)


@pytest.mark.parametrize("ini", DECAYING + ("steady_uniform",))
def test_stride_reports_every_stride_th_step(ini):
    # each reported time is summed over the same window and nodes at every
    # stride
    cfg = parse_config(os.path.join(SCENARIOS, f"{ini}.ini"))
    args = (cfg.model, cfg.killing, InitialCondition.point(cfg.y), cfg.grid)
    dt, n_steps = cfg.grid.dt, round(cfg.grid.t_max / cfg.grid.dt)
    every = fpe.evolve(*args)
    for stride in (7, 10):
        res = fpe.evolve(*args, stride=stride)
        np.testing.assert_array_equal(res.series.times, np.arange(0, n_steps + 1, stride) * dt)
        for q in ("survival", "kill_rate", "boundary_flux"):
            got, sliced = getattr(res.series, q), getattr(every.series, q)[::stride]
            atol = 1e-12 * max(1.0, np.abs(sliced).max())
            np.testing.assert_allclose(got, sliced, rtol=0, atol=atol, err_msg=q)


def test_stride_reports_every_stride_th_step_at_strong_drift():
    # drift 60 raises N in some windows; every stride sums the same chain
    # of windows, from dt / 4 up, so each raises N in the same ones
    args = (
        interval(1.0, drift=60.0), KillingMeasure.uniform(1.0), InitialCondition.point(0.2),
        GridSpec(400, 1e-3, 1.0),
    )
    every = fpe.evolve(*args)
    for stride in (7, 10):
        res = fpe.evolve(*args, stride=stride)
        for q in ("survival", "kill_rate", "boundary_flux"):
            got, sliced = getattr(res.series, q), getattr(every.series, q)[::stride]
            atol = 1e-12 * max(1.0, np.abs(sliced).max())
            np.testing.assert_allclose(got, sliced, rtol=0, atol=atol, err_msg=f"{q} at {stride}")


@pytest.mark.parametrize("cells, dt", [(200, 0.05), (200, 0.01), (200, 1e-3), (800, 0.5), (3200, 0.05)])
def test_survival_is_exact_in_time_at_any_step(cells, dt):
    # [0, 1], both ends absorbing, uniform killing 1, start 0.3, to t_max
    # 0.2, which dt 0.5 rounds to one step at t = 0.5: S(t) = e^-t S_free,
    # S_free the survival without killing from the series on [0, pi] at
    # pi^2 t and pi y; S(0.2) = 0.1171509807.  e^(At) missed it by 2.35e-6
    # at 200 cells at every dt, the spatial error alone, second order in
    # the cells.  Crank-Nicolson missed it by -2.4e-2, -2.2e-4 and -1.6e-7
    # at 200 cells, and its density rang down to -9.16, -32.8 and -0.122;
    # it missed the other two rows by 0.45 and 4.4e-2.  The rates of e^(At)
    # keep their sign; the dense reference is checked at 200 cells only
    args = (
        interval(1.0), KillingMeasure.uniform(1.0), InitialCondition.point(0.3),
        GridSpec(cells, dt, 0.2),
    )
    res = fpe.evolve(*args, stride=1)
    t = res.series.times[-1]
    exact = math.exp(-t) * analytic.survival_series_free(PI**2 * t, PI * 0.3)
    assert abs(res.series.survival[-1] - exact) <= 3e-6 * (200 / cells) ** 2
    if cells == 200:
        assert_within_rounding_of_the_exponential(res, args, 1)


@pytest.mark.parametrize("stride", [0, -3, 2.5])
def test_stride_must_be_a_positive_integer(stride):
    with pytest.raises(InputError, match="stride"):
        fpe.evolve(
            interval(PI), KillingMeasure(), InitialCondition.point(1.0),
            GridSpec(100, 1e-2, 0.1), stride=stride,
        )


@pytest.mark.parametrize("drift", [5.0, 60.0])
def test_drift_is_the_exponential_of_the_operator(drift, caplog):
    # drift 60 makes the operator far from normal: the eigenmode sums once
    # cancelled there and Crank-Nicolson was stepped instead, up to 2.5e-2
    # off in survival; the contour needs more nodes there (N = 32 or 48), and
    # nothing is logged
    args = (
        interval(1.0, drift=drift), KillingMeasure.uniform(1.0), InitialCondition.point(0.2),
        GridSpec(400, 1e-3, 1.0),
    )
    with caplog.at_level(logging.DEBUG, logger="killdiff"):
        res = fpe.evolve(*args)
    assert not caplog.records
    model, _, _, grid = args
    cell_peclet = abs(model.drift) * model.domain.length / grid.cell_count / (2 * model.diffusion)
    assert cell_peclet == pytest.approx(drift / 800)
    assert res.error_estimate <= 1e-10
    assert_is_the_exponential(res, args, 1, 50)


@pytest.mark.parametrize("drift", [0.0, 28.0, 40.0, 60.0])
def test_error_estimate_covers_the_miss(drift):
    # mass is conserved between reflecting ends whatever the drift; the
    # eigenmode sums once took survival 3.4e-6 off at drift 60.  The
    # contour's estimate, where its windows meet, was 5.6e-14 to 6.8e-14
    # and the miss against dense expm 2.8e-13 to 3.2e-13, within the 1e-12
    # that both carry in round-off
    args = (
        interval(1.0, "reflecting", "reflecting", drift=drift), KillingMeasure(),
        InitialCondition.point(0.0625), GridSpec(16, 0.0625, 1.25),
    )
    res = fpe.evolve(*args)
    _, got, ref, _ = beside_the_exponential(res, args, 1, 1)
    assert np.abs(got[0] - ref[0]).max() <= res.error_estimate + 1e-12


def test_injection_without_steady_state_grows_linearly():
    # reflecting far end and no killing: A is singular and every injected
    # particle stays, so S grows by phi t; the source enters the contour as
    # source / z, with no special case.  The miss was 2.3e-11, under 1.4
    # times the estimate
    res = fpe.evolve(
        interval(1.0, "reflecting", "injection", phi=0.5), KillingMeasure(),
        InitialCondition.point(0.3), GridSpec(64, 1e-2, 2.0),
    )
    s = res.series
    np.testing.assert_allclose(s.survival, 1 + 0.5 * s.times, rtol=0, atol=4 * res.error_estimate)


# strong drift on [0, 2], D = 1, from y = 0.7: a = 200 puts the cell Peclet
# number a dx / 2D at 4 on 50 cells.  Without killing every particle leaves,
# after the mean exit time (L P_R(y) - y) / a, P_R the right-exit
# probability; the Scharfetter-Gummel flux is exact for constant drift
DRIFT = dict(length=2.0, drift=200.0, y=0.7)


def drift_split(killing, cells):
    model = interval(DRIFT["length"], drift=DRIFT["drift"])
    return fpe.split_statistics(
        model, killing, InitialCondition.point(DRIFT["y"]), GridSpec(cells, 1e-3, 1.0)
    )


def drift_mean_exit_time():
    L, a, y = DRIFT["length"], DRIFT["drift"], DRIFT["y"]
    p_right = math.expm1(-a * y) / math.expm1(-a * L)
    return (L * p_right - y) / a


def drift_absorption_probability(v0):
    # u'' + a u' - v0 u = 0 with u = 1 at both ends, D = 1
    L, a, y = DRIFT["length"], DRIFT["drift"], DRIFT["y"]
    r = (-a + np.array([1, -1]) * math.sqrt(a * a + 4 * v0)) / 2
    coef = np.linalg.solve([[1.0, 1.0], np.exp(r * L)], [1.0, 1.0])
    return float(coef @ np.exp(r * y))


@pytest.mark.parametrize("cells", [50, 100, 200])
def test_split_past_cell_peclet_one_meets_the_drift_closed_forms(cells):
    free = drift_split(KillingMeasure(), cells)
    assert free.p_absorbed == pytest.approx(1.0, abs=1e-13)
    assert free.mean_absorb_time == pytest.approx(drift_mean_exit_time(), rel=1e-12)
    # second order: the error was 1.2e-3, 1.7e-3 and 2.0e-3 over cells^2
    killed = drift_split(KillingMeasure.uniform(1.0), cells)
    assert abs(killed.p_absorbed - drift_absorption_probability(1.0)) <= 2.5e-3 / cells**2


def test_evolve_past_cell_peclet_one_sums_to_the_mean_exit_time():
    # the integral of survival over a horizon that outlasts every particle
    # is h.(-A)^-1 u0, the mean exit time; its trapezoid sum at this dt
    # missed it by 9e-13 relative.  |a| L / D = 400 makes A far from normal:
    # the contour's windows missed by 2.8e-7 with 48 nodes and 3.7e-12 with
    # 64.  At drift 800 they still miss with 64, and the problem is refused
    model = interval(DRIFT["length"], drift=DRIFT["drift"])
    res = fpe.evolve(
        model, KillingMeasure(), InitialCondition.point(DRIFT["y"]), GridSpec(50, 1e-4, 0.1)
    )
    assert abs(model.drift) * DRIFT["length"] / 50 / (2 * model.diffusion) == pytest.approx(4.0)
    s = res.series.survival
    assert abs(s[-1]) < 1e-12
    integral = 1e-4 * (s.sum() - (s[0] + s[-1]) / 2)
    assert integral == pytest.approx(drift_mean_exit_time(), rel=1e-10)
    with pytest.raises(InputError, match="the contour sums miss by .* with 64 nodes"):
        fpe.evolve(
            interval(DRIFT["length"], drift=800.0), KillingMeasure.uniform(1.0),
            InitialCondition.point(0.5), GridSpec(50, 1e-3, 0.1),
        )


@pytest.mark.parametrize("cells", [16, 32, 64])
def test_steady_ratio_past_cell_peclet_one_is_second_order(cells):
    # drift -60 toward the absorbing end, uniform killing 1, D = L = 1: the
    # steady density is C (e^(s1 x) - e^(s2 x)), s = (a +- sqrt(a^2 + 4 v0)) / 2
    a, v0 = -60.0, 1.0
    sol = fpe.steady_state(
        interval(1.0, "absorbing", "injection", drift=a, phi=1.0),
        KillingMeasure.uniform(v0), GridSpec(cells, 1e-3, 1.0),
    )
    s1, s2 = (a + np.array([1, -1]) * math.sqrt(a * a + 4 * v0)) / 2
    ratio = (s1 - s2) / (v0 * (math.expm1(s1) / s1 - math.expm1(s2) / s2))
    # the relative error was 4.4, 5.0 and 5.1 times dx^2
    assert abs(sol.ratio_rs / ratio - 1) <= 6.0 / cells**2


@pytest.mark.parametrize("drift", [32.0, 60.0])
def test_decay_rate_past_cell_peclet_one_is_the_schemes_eigenvalue(drift):
    # both ends absorbing, uniform killing: the operator is Toeplitz, and its
    # top eigenvalue is v0 + (D/dx^2) [P coth(P/2) - P cos(pi/n) / sinh(P/2)],
    # P = a dx / D, which tends to v0 + a^2/4D + D pi^2/L^2; cell Peclet 1
    # and 1.875 on 16 cells
    n, v0 = 16, 1.0
    P = drift / n
    discrete = v0 + n**2 * (P / math.tanh(P / 2) - P * math.cos(math.pi / n) / math.sinh(P / 2))
    model, killing = interval(1.0, drift=drift), KillingMeasure.uniform(v0)
    assert fpe.decay_rate(model, killing, n) == pytest.approx(discrete, rel=1e-13)
    # second order on finer grids: the error was 18e-3 and 4.6e-3 at drift 60
    exact = v0 + drift**2 / 4 + PI**2
    e1, e2 = (abs(fpe.decay_rate(model, killing, k * n) / exact - 1) for k in (4, 8))
    assert e1 < 0.02
    assert 3.6 <= e1 / e2 <= 4.4


# mass that drift holds against a closed end, with nothing to drain it
# there, grows like exp(|a| L / D); the steady solve is then refused (at 16
# cells it once failed outright), but the contour needs none
@pytest.mark.parametrize("cells", [16, 64])
def test_evolve_when_its_steady_solve_is_refused(cells):
    args = (
        interval(1.0, "reflecting", "injection", drift=80.0, phi=1.0),
        KillingMeasure.dirac([(0.5, 1.0)]), InitialCondition.point(0.3), GridSpec(cells, 1e-3, 1.0),
    )
    res = fpe.evolve(*args)
    assert np.all(np.isfinite(res.series.survival))
    assert_within_rounding_of_the_exponential(res, args, 1)


# the balance round-off grows like eps n^2: at 10^5 cells it was up to
# 5.7e-7 on these problems, whose mass leaves within a diffusion time, under
# the bound 16 eps n^2 = 3.6e-5 there; trapped mass still misses by 1
@pytest.mark.parametrize("length", [0.1, 4.0])
def test_fine_grids_are_not_refused(length):
    grid = GridSpec(100_000, 1e-3, 1.0)
    sol = fpe.steady_state(
        interval(length, "absorbing", "injection", phi=1.0), KillingMeasure.uniform(4.0), grid
    )
    assert sol.ratio_rs == pytest.approx(analytic.ratio_rs_uniform(1.0, 4.0, length), rel=1e-8)
    s = fpe.split_statistics(
        interval(length, "reflecting", "absorbing"), KillingMeasure.uniform(1e-3),
        InitialCondition.point(0.05 * length), grid,
    )
    assert s.p_killed + s.p_absorbed == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(InputError, match="misses the mass put in by 1 relative"):
        fpe.split_statistics(
            interval(length, "reflecting", "absorbing", diffusion=0.7, drift=-29.4 / length),
            KillingMeasure(), InitialCondition.point(0.5 * length), grid,
        )


@st.composite
def valid_problems(draw):
    length = draw(st.floats(0.5, 4.0))
    diffusion = draw(st.floats(0.2, 2.0))
    # |a| L / 2D up to 60: cell Peclet numbers up to 3.75 on 16 cells
    drift = 2 * diffusion * draw(st.floats(-60.0, 60.0)) / length
    left, right = draw(st.sampled_from([
        ("absorbing", "absorbing"), ("absorbing", "reflecting"), ("reflecting", "reflecting"),
        ("injection", "absorbing"), ("reflecting", "injection"),
    ]))
    kind = draw(st.sampled_from(["zero", "uniform", "dirac", "piecewise", "pumps"]))
    rate = st.floats(0.1, 5.0)
    spot = st.tuples(st.floats(0.05, 0.95).map(lambda u: u * length), rate)
    if kind == "zero":
        killing = KillingMeasure()
    elif kind == "uniform":
        killing = KillingMeasure.uniform(draw(rate))
    elif kind == "dirac":
        killing = KillingMeasure.dirac([draw(spot)])
    elif kind == "piecewise":
        killing = KillingMeasure.piecewise([length / 2], [draw(st.floats(0.0, 5.0)), draw(rate)])
    else:  # pumps on a killing background: a rate plus one or two spots
        spots = draw(st.lists(spot, min_size=1, max_size=2))
        killing = KillingMeasure(rates=(draw(rate),), spots=tuple(spots))
    model = interval(
        length, left, right, diffusion=diffusion, drift=drift, phi=draw(st.floats(0.1, 2.0))
    )
    dt = draw(st.floats(1e-3, 0.1))
    grid = GridSpec(draw(st.integers(16, 96)), dt, dt * draw(st.integers(20, 200)))
    return model, killing, InitialCondition.point(draw(st.floats(0.05, 0.95)) * length), grid


def is_trapped(model, killing, cells):
    """Mass stays about 1/lam, lam the slowest decay rate, so a solve's
    round-off is about eps |A| / lam.  Drift that holds mass against an end
    nothing drains makes lam small like exp(-|a| L / D), or too small for
    `decay_rate` to resolve, until that passes the 1e-8 balance bound (its
    grid term 16 eps n^2 is smaller on these grids); weak drift never does."""
    try:
        lam = fpe.decay_rate(model, killing, cells)
    except InputError:
        return True  # lam is below eps |A| / 1e-2, unresolvable
    norm_a = 2 * np.abs(fpe._Discretization(model, killing, cells).diag).max()
    return not lam * 1e-8 > np.finfo(float).eps * norm_a


def decay_time(model, killing, cells):
    """1 / the slowest decay rate; inf where `decay_rate` finds none to resolve."""
    try:
        return 1 / fpe.decay_rate(model, killing, cells)
    except InputError:
        return math.inf


def exponential_tolerance(res, disc, times, memory):
    """How far the contour sums and the dense e^(At) may part at each time t,
    in survival units, memory = 1 / the slowest decay rate lam.  Both carry
    backward errors of about eps |A|: the reference's, about eps |A| dt per
    step, add up over the decaying state to at most eps |A| min(t, 1 / lam),
    and each resolvent solve's is amplified by the resolvent's norm, at most
    about 1 / max(|z|, lam) with |z| ~ 1/t.  So min(t, memory) eps |A| of
    the largest survival, on top of the contour's own `error_estimate` and
    the reference's eps max S."""
    norm_a = 2 * np.abs(disc.diag).max()
    eps = np.finfo(float).eps
    scale = eps * max(1.0, np.abs(res.series.survival).max()) + res.error_estimate
    return 64 * (1 + np.minimum(times, memory) * norm_a) * scale


def assert_within_rounding_of_the_exponential(res, args, stride):
    """At every reported step, rates in per-step probability (times dt).
    e^(At) of the M-matrix A keeps the state nonnegative and the weight rows
    are nonnegative, so both rates are at least minus that rounding and,
    without injection, survival does not grow by more than it."""
    times, got, ref, disc = beside_the_exponential(res, args, stride, stride)
    model, killing, _, grid = args
    tol = exponential_tolerance(res, disc, times, decay_time(model, killing, grid.cell_count))
    per_step = np.array([1.0, grid.dt, grid.dt])[:, None]
    assert np.all(np.abs(got - ref) * per_step <= tol)
    assert np.all(got[1:] * per_step[1:] >= -tol)
    if not disc.source.any():
        assert np.all(np.diff(got[0]) <= tol[1:])


@given(valid_problems())
@settings(max_examples=40, deadline=None)
def test_evolve_is_within_rounding_of_the_exponential(problem):
    # at every drawn step, whatever the drift: none of these is refused
    assert_within_rounding_of_the_exponential(fpe.evolve(*problem), problem, 1)


@given(valid_problems())
# mass held like e^(|a| L / D) = e^16 against the injection end: at the
# stride of 68 million steps the contour misses and evolve refuses
@example((
    interval(1.5, "injection", "absorbing", diffusion=2.0, drift=-64 / 3, phi=1.0),
    KillingMeasure(),
    InitialCondition.point(0.75),
    GridSpec(72, 0.0332738533, 20 * 0.0332738533),
))
@settings(max_examples=40, deadline=None)
def test_evolve_is_exact_in_time_and_nonnegative_at_a_coarse_stride(problem):
    # at a stride that puts e^(At) below e^-50 at the first reported step:
    # every reported step after step 0 is then the steady state, zero
    # without injection, within the rounding of the exponential.  |e^(At)|
    # is at most e^(-lam t) times the condition of the symmetrizing
    # similarity, e^(|a| L / 2D), lam the slowest decay rate
    model, killing, ic, grid = problem
    try:
        slowest = fpe.decay_rate(model, killing, grid.cell_count)
    except InputError:
        return  # no absorbing end and no killing, or too slow to resolve
    spread = abs(model.drift) * model.domain.length / (2 * model.diffusion)
    stride = math.ceil((50 + spread) / (slowest * grid.dt))
    coarse = replace(grid, t_max=3 * stride * grid.dt)
    try:
        res = fpe.evolve(model, killing, ic, coarse, stride=stride)
    except InputError as exc:
        # only mass that drift holds against a closed end may be refused
        assert "too far from normal" in str(exc)
        assert is_trapped(model, killing, grid.cell_count)
        return
    assert res.series.times.size >= 3  # t_max / dt may round a few steps short of 3 stride
    times, got, ref, disc = beside_the_exponential(res, (model, killing, ic, coarse), stride, stride)
    a = dense(disc.lower, disc.diag, disc.upper)
    steady = disc.weights @ np.linalg.solve(-a, disc.source) if disc.source.any() else np.zeros(3)
    tol = exponential_tolerance(res, disc, times, 1 / slowest)
    per_step = np.array([1.0, coarse.dt, coarse.dt])[:, None]
    assert np.all(np.abs(got[:, 1:] - steady[:, None]) * per_step <= tol[1:])
    assert_within_rounding_of_the_exponential(res, (model, killing, ic, coarse), stride)


@given(valid_problems())
@settings(max_examples=40, deadline=None)
def test_split_is_a_probability_and_the_steady_state_balances(problem):
    # without injection every particle is killed or absorbed; with one
    # injection and one absorbing end the injected flux leaves as kill or
    # absorption.  Either balance is h.(A u + b) = 0 for the solved u, so
    # its round-off is that of the solve's residual, eps |A| h.u, where
    # h.u is the mean exit time or the steady mass
    model, killing, ic, grid = problem
    kinds = (model.domain.left.kind.value, model.domain.right.kind.value)
    norm_a = 2 * np.abs(fpe._Discretization(model, killing, grid.cell_count).diag).max()
    eps = np.finfo(float).eps
    try:
        if "injection" not in kinds:
            assume("absorbing" in kinds or not killing.is_zero)
            s = fpe.split_statistics(model, killing, ic, grid)
        else:
            assume("absorbing" in kinds)
            sol = fpe.steady_state(model, killing, grid)
    except InputError as exc:
        # only mass that drift holds against a closed end may be refused
        assert "kill + absorption misses" in str(exc)
        assert is_trapped(model, killing, grid.cell_count)
        return
    if "injection" not in kinds:
        mean_exit = sum(
            p * t for p, t in ((s.p_killed, s.mean_kill_time), (s.p_absorbed, s.mean_absorb_time))
            if p > 0
        )
        tol = 16 * eps * (1 + norm_a * mean_exit)
        assert abs(s.p_killed + s.p_absorbed - 1) <= tol
        assert 0 <= s.p_killed <= 1 + tol
        assert 0 <= s.p_absorbed <= 1 + tol
    else:
        mass = np.trapezoid(sol.density, sol.x)
        tol = 16 * eps * (sol.injected_flux + norm_a * mass)
        assert abs(sol.absorbed_flux + sol.kill_integral - sol.injected_flux) <= tol
