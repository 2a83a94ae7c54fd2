import numpy as np
import pytest

from killdiff import analytic, fpe, montecarlo
from killdiff.analytic import PI
from killdiff.fpe import GridSpec
from killdiff.model import InitialCondition, KillingMeasure, interval
from killdiff.montecarlo import McConfig
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
    with pytest.raises(ValueError):
        McConfig(dt=1e-3, n_trajectories=10, dirac_width=0.0)


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


def test_narrow_spot_width_warns():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 1.0)])
    with pytest.warns(UserWarning, match="dirac_width"):
        montecarlo.simulate_outcomes(model, killing, 1.0, cfg(dirac_width=0.01, n_trajectories=50))


def test_nonterminating_problem_rejected():
    model = interval(1.0, "reflecting", "reflecting")
    with pytest.raises(ValueError, match="never terminate"):
        montecarlo.simulate_outcomes(model, KillingMeasure.zero(), 0.5, cfg())


def test_max_steps_guard():
    model = interval(1.0, "reflecting", "reflecting")
    with pytest.raises(AccuracyError, match="max_steps"):
        montecarlo.simulate_outcomes(
            model, KillingMeasure.uniform(1e-4), 0.5, cfg(max_steps=10, n_trajectories=100)
        )


def test_kill_histogram_requires_events():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 0.01)])
    out = montecarlo.simulate_outcomes(model, killing, 1.0, cfg(n_trajectories=50, dirac_width=0.09))
    with pytest.raises(AccuracyError, match="kill events"):
        montecarlo.kill_location_histogram(out, min_events=100)


def test_kill_histogram_concentrates_at_spot():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 5.0)])
    out = montecarlo.simulate_outcomes(
        model, killing, 1.0, cfg(n_trajectories=4000, dirac_width=0.09)
    )
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


def test_bridge_correction_shortens_exit_times():
    # crossing-probability correction catches within-step boundary hits, so
    # exits happen no later on average
    model = interval(PI)
    plain = montecarlo.simulate_split(model, KillingMeasure.zero(), PI / 2, cfg(dt=5e-3))
    bridged = montecarlo.simulate_split(
        model, KillingMeasure.zero(), PI / 2, cfg(dt=5e-3, bridge_correction=True)
    )
    assert bridged.mean_absorb_time < plain.mean_absorb_time
    # and moves the estimate toward the exact mean exit time pi^2/8
    exact = PI**2 / 8
    assert abs(bridged.mean_absorb_time - exact) < abs(plain.mean_absorb_time - exact)


def test_huge_spot_still_leaves_survivors():
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 500.0)])
    stats = montecarlo.simulate_split(model, killing, 1.0, cfg(dirac_width=0.09))
    assert stats.ratio_rinf >= 0
    assert stats.p_absorbed > 0
