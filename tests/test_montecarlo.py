import math

import numpy as np
import pytest

from killdiff import analytic, fpe, montecarlo
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


# --- the per-step kernel against the straightforward one it replaced ----------


def _reference_rate_field(killing, width):
    """Vectorized killing-rate field with top-hat regularized spots."""
    if killing.kind is KillingKind.DIRAC:
        spots = np.array([x for x, _ in killing.spots])
        heights = np.array([k for _, k in killing.spots]) / width

        def rate(x: np.ndarray) -> np.ndarray:
            r = np.zeros_like(x)
            for xs, hgt in zip(spots, heights):
                r += np.where(np.abs(x - xs) < width / 2, hgt, 0.0)
            return r

        return rate
    return killing.smooth_rate


def _reference_worker(args):
    """One step per loop pass, every array rebuilt: the kernel that
    `montecarlo._simulate_worker` must reproduce draw for draw."""
    model, killing, y0, cfg, n, worker = args
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, worker], dtype=np.uint64))
    )
    dom = model.domain
    L = dom.length
    D = model.diffusion
    a = model.drift
    dt = cfg.dt
    sigma = math.sqrt(2 * D * dt)
    rate = _reference_rate_field(killing, cfg.dirac_width)
    has_rate = not killing.is_zero
    left_abs = dom.left.kind is BoundaryKind.ABSORBING
    right_abs = dom.right.kind is BoundaryKind.ABSORBING

    x = np.full(n, y0, dtype=float)
    fate = np.empty(n, dtype=np.uint8)
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
        t_now = step * dt

        if has_rate:
            k_here = rate(x)
            u = rng.random(x.size)
            killed = u < -np.expm1(-k_here * dt)
            if np.any(killed):
                idx = alive[killed]
                fate[idx] = FATE_KILLED
                t_end[idx] = t_now
                x_end[idx] = x[killed]
                keep = ~killed
                x = x[keep]
                alive = alive[keep]
                if not alive.size:
                    break

        x_old = x
        x = x + a * dt + sigma * rng.standard_normal(x.size)

        done = np.zeros(x.size, dtype=bool)
        hit_pos = np.empty(x.size, dtype=float)
        if left_abs:
            hit = x <= 0.0
            done |= hit
            hit_pos[hit] = 0.0
        else:
            x = np.where(x < 0.0, -x, x)
        if right_abs:
            hit = (~done) & (x >= L)
            done |= hit
            hit_pos[hit] = L
        else:
            x = np.where(x > L, 2 * L - x, x)
            # a reflected step can only leave [0, L] for absurdly large dt;
            # clamp as a guard
            np.clip(x, 0.0, L, out=x)

        if cfg.bridge_correction:
            live = ~done
            if left_abs and np.any(live):
                p_cross = np.exp(-np.maximum(x_old * x, 0.0)[live] / (D * dt))
                bridged = rng.random(p_cross.size) < p_cross
                sel = np.flatnonzero(live)[bridged]
                done[sel] = True
                hit_pos[sel] = 0.0
            live = ~done
            if right_abs and np.any(live):
                p_cross = np.exp(
                    -np.maximum((L - x_old) * (L - x), 0.0)[live] / (D * dt)
                )
                bridged = rng.random(p_cross.size) < p_cross
                sel = np.flatnonzero(live)[bridged]
                done[sel] = True
                hit_pos[sel] = L

        if np.any(done):
            idx = alive[done]
            fate[idx] = FATE_ABSORBED
            t_end[idx] = t_now
            x_end[idx] = hit_pos[done]
            keep = ~done
            x = x[keep]
            alive = alive[keep]

    return fate, t_end, x_end


KILLINGS = {
    "zero": KillingMeasure.zero(),
    "uniform": KillingMeasure.uniform(3.0),
    "one-spot": KillingMeasure.dirac([(0.4, 2.0)]),
    "overlapping-spots": KillingMeasure.dirac([(0.45, 2.0), (0.5, 3.0)]),
    "piecewise": KillingMeasure.piecewise([0.3, 0.6], [0.5, 3.0, 1.0]),
}


def test_kill_probability_tables_give_the_per_position_bits():
    rates = np.random.default_rng(0).uniform(0.0, 50.0, 2000)
    dt = 1e-3
    expected = -np.expm1(-rates * dt)
    uniform = [montecarlo._kill_probability(KillingMeasure.uniform(v), 0.1, dt)(None) for v in rates]
    assert np.array_equal(uniform, expected)
    breaks = np.arange(1, rates.size) / rates.size
    piecewise = montecarlo._kill_probability(KillingMeasure.piecewise(breaks, rates), 0.1, dt)
    x = (np.arange(rates.size) + 0.5) / rates.size
    assert np.array_equal(piecewise(x), expected)


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


@pytest.mark.parametrize("bridge", [False, True], ids=["euler", "bridge"])
@pytest.mark.parametrize("drift", [0.0, 1.5])
@pytest.mark.parametrize("left,right,kill", TERMINATING)
def test_worker_is_draw_for_draw_the_reference(left, right, kill, drift, bridge):
    killing = KILLINGS[kill]
    model = interval(1.0, left, right, drift=drift)
    config = cfg(dt=5e-3, n_trajectories=300, seed=5, dirac_width=0.1, bridge_correction=bridge)
    args = (model, killing, 0.35, config, config.n_trajectories, 1)
    out = montecarlo.TrajectoryOutcomes(*montecarlo._simulate_worker(args))
    _assert_same_outcomes(out, _reference_worker(args))


def test_two_workers_match_the_reference():
    model, killing = interval(2.0, drift=-0.5), KillingMeasure.piecewise([1.2], [0.4, 2.5])
    config = cfg(dt=2e-3, n_trajectories=501, seed=9, workers=2)
    out = montecarlo.simulate_outcomes(model, killing, 0.7, config)
    parts = [_reference_worker((model, killing, 0.7, config, n, w)) for w, n in enumerate((251, 250))]
    _assert_same_outcomes(out, [np.concatenate(p) for p in zip(*parts)])


def test_steady_ratio_matches_the_reference():
    model = interval(1.0, "absorbing", "injection", phi=1.0)
    killing = KillingMeasure.uniform(4.0)
    config = cfg(dt=2e-3, n_trajectories=800, seed=2)
    ratio, se = montecarlo.simulate_rs(model, killing, config)
    reflected = interval(1.0, "absorbing", "reflecting")
    ref = _reference_worker((reflected, killing, 1.0, config, config.n_trajectories, 0))
    expected = montecarlo.split_from_outcomes(montecarlo.TrajectoryOutcomes(*ref))
    assert (ratio, se) == (expected.ratio_rinf, expected.ratio_rinf_se)
