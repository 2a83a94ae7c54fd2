import math

import numpy as np
import pytest

from killdiff import analytic, crosscheck, fpe
from killdiff.analytic import PI
from killdiff.fpe import GridSpec
from killdiff.model import InitialCondition, KillingMeasure, interval


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(4, 1e-3, 1.0)
    with pytest.raises(ValueError):
        GridSpec(100, -1e-3, 1.0)


def test_point_source_has_unit_mass():
    res = fpe.evolve(
        interval(PI), KillingMeasure.zero(), InitialCondition.point(1.0), GridSpec(100, 1e-3, 1e-3)
    )
    assert res.series.survival[0] == pytest.approx(1.0, abs=1e-12)


def test_density_stays_nonnegative():
    res = fpe.evolve(
        interval(PI),
        KillingMeasure.dirac([(2.0, 1.0)]),
        InitialCondition.point(1.0),
        GridSpec(200, 1e-3, 0.5),
        frame_times=[0.1, 0.5],
    )
    for frame in res.frames:
        assert np.all(frame.density >= -1e-10)


def test_discrete_conservation_is_exact():
    # d/dt survival = -(kill rate) - (boundary flux), checked on the CN
    # midpoint rates over a macroscopic window
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
        interval(PI), KillingMeasure.zero(), InitialCondition.point(PI / 2), GridSpec(400, 5e-4, 2.0)
    )
    s = res.series
    for t in (0.5, 1.0, 2.0):
        i = int(round(t / 5e-4))
        assert s.survival[i] == pytest.approx(analytic.survival_series_free(t, PI / 2), abs=5e-5)


def test_split_statistics_free_exit_time():
    stats = fpe.split_statistics(
        interval(PI), KillingMeasure.zero(), InitialCondition.point(PI / 2), GridSpec(200, 1e-3, 12.0)
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

    # the stepped scheme stays the reference: trapezoid sums of its rates
    # over a horizon that leaves no mass behind
    dt = 1e-2
    s = fpe.evolve(model, killing, ic, GridSpec(100, dt, 30.0)).series
    assert s.survival[-1] < 1e-12
    assert stats.p_killed == pytest.approx(np.trapezoid(s.kill_rate, dx=dt), abs=1e-11)
    assert stats.p_absorbed == pytest.approx(np.trapezoid(s.boundary_flux, dx=dt), abs=1e-11)


def test_split_statistics_wide_interval_absorb_time():
    # the few absorbed particles leave late, long after most are killed;
    # the stepped scheme needs t_max = 60 to reach this value
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
    lam = fpe.decay_rate(interval(PI), KillingMeasure.zero(), 400)
    assert lam == pytest.approx(1.0, abs=1e-3)


def test_decay_rate_shifted_exactly_by_uniform_killing():
    lam0 = fpe.decay_rate(interval(PI), KillingMeasure.zero(), 200)
    lam2 = fpe.decay_rate(interval(PI), KillingMeasure.uniform(2.0), 200)
    assert lam2 - lam0 == pytest.approx(2.0, abs=1e-9)


def test_decay_rate_reflecting_box_is_killing_rate():
    lam = fpe.decay_rate(interval(1.0, "reflecting", "reflecting"), KillingMeasure.uniform(3.0), 100)
    assert lam == pytest.approx(3.0, abs=1e-9)


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


def test_observable_series_ratio_handles_zero_kill_rate():
    res = fpe.evolve(
        interval(PI), KillingMeasure.zero(), InitialCondition.point(1.0), GridSpec(100, 1e-2, 0.1)
    )
    assert np.all(np.isinf(res.series.ratio_rt))


def test_frames_are_emitted_at_requested_times():
    res = fpe.evolve(
        interval(PI), KillingMeasure.zero(), InitialCondition.point(1.0),
        GridSpec(100, 1e-2, 1.0), frame_times=[0.25, 0.5],
    )
    assert len(res.frames) == 2
    assert [f.time for f in res.frames] == pytest.approx([0.25, 0.5])
