import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.differentiate import derivative
from scipy.integrate import quad

from killdiff import analytic
from killdiff.analytic import PI, UnitScaling

interior = st.floats(0.05, PI - 0.05)


def direct_sine_sum(x, y, power, n_terms=200_000):
    n = np.arange(1, n_terms + 1, dtype=float)
    return (2 / PI) * float(np.sum(np.sin(n * x) * np.sin(n * y) / n**power))


def test_kill_site_density_normalized():
    c = math.sqrt(2.0 / 0.5)
    xs = np.linspace(-40, 40, 200001)
    vals = [analytic.kill_site_density_const(x, 0.0, 0.5, 2.0) for x in xs]
    assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-6)
    assert analytic.kill_site_density_const(0.0, 0.0, 0.5, 2.0) == pytest.approx(c / 2)


@given(x=interior, y=interior)
@settings(max_examples=25, deadline=None)
def test_sine_sum_n2_matches_partial_sums(x, y):
    assert analytic.sine_sum_n2(x, y) == pytest.approx(direct_sine_sum(x, y, 2), abs=1e-4)


@given(x=interior, y=interior)
@settings(max_examples=25, deadline=None)
def test_sine_sum_n4_matches_partial_sums(x, y):
    assert analytic.sine_sum_n4(x, y) == pytest.approx(direct_sine_sum(x, y, 4), abs=1e-10)


def test_sine_sum_n4_solves_poisson_recursion():
    # -d^2/dx^2 of the n^-4 sum is the n^-2 sum; check by central differences
    y = 1.1
    h = 1e-4
    for x in (0.7, 1.6, 2.8):
        second = (
            analytic.sine_sum_n4(x - h, y)
            - 2 * analytic.sine_sum_n4(x, y)
            + analytic.sine_sum_n4(x + h, y)
        ) / h**2
        assert -second == pytest.approx(analytic.sine_sum_n2(x, y), abs=1e-6)


def test_green_series_short_time_is_heat_kernel():
    # far from boundaries and at short time the series approaches the free kernel
    v = analytic.green_series(1.5, 1.6, 0.01)
    free = math.exp(-0.01 / (4 * 0.01)) / (2 * math.sqrt(PI * 0.01))
    assert v == pytest.approx(free, rel=1e-6)


def test_green_series_reference_value():
    # frozen from a 10^6-term direct summation
    assert analytic.green_series(PI / 2, PI / 2, 1.0) == pytest.approx(0.2342779, abs=1e-6)


@given(x=interior, y=interior, q=st.floats(0.0, 30.0))
@example(x=1.0, y=1.0, q=5e-324)  # subnormal q: the sinh product used to underflow
@settings(max_examples=40, deadline=None)
def test_resolvent_series_equals_closed_form(x, y, q):
    assert analytic.green_laplace_series(x, y, q) == pytest.approx(
        analytic.green_laplace_closed(x, y, q), abs=1e-9
    )


@given(x=interior, y=interior, q=st.floats(0.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_resolvent_symmetric_in_arguments(x, y, q):
    assert analytic.green_laplace_closed(x, y, q) == pytest.approx(
        analytic.green_laplace_closed(y, x, q), rel=1e-12
    )


def test_resolvent_large_q_overflow_guard():
    v = analytic.green_laplace_closed(1.0, 2.0, 2e4)
    assert math.isfinite(v)
    assert v > 0
    # extreme q underflows gracefully instead of overflowing in sinh
    assert analytic.green_laplace_closed(1.0, 2.0, 1e6) >= 0.0


def test_resolvent_time_domain_consistency():
    # integral of the heat series e^{-qt} G(t) dt equals the resolvent
    x, y, q = 1.0, 2.0, 1.0
    ts = np.linspace(1e-4, 30.0, 30000)
    g = [analytic.green_series(x, y, t) * math.exp(-q * t) for t in ts]
    quad = np.trapezoid(g, ts)
    assert quad == pytest.approx(analytic.green_laplace_closed(x, y, q), abs=1e-4)


@pytest.mark.parametrize("y", [PI / 4, PI / 2, 3 * PI / 4])
def test_mean_exit_time_from_transform_at_zero(y):
    assert analytic.survival_laplace_free(y, 0.0) == pytest.approx(y * (PI - y) / 2, abs=1e-6)


def test_survival_transform_midpoint_value():
    assert analytic.survival_laplace_free(PI / 2, 0.0) == pytest.approx(PI**2 / 8, abs=1e-6)


@pytest.mark.parametrize("q", [0.5, 1.0, 4.0])
def test_survival_transform_is_the_laplace_integral_of_survival(q):
    y = 1.2
    integral, _ = quad(lambda t: math.exp(-q * t) * analytic.survival_series_free(t, y), 0.0, math.inf)
    assert integral == pytest.approx(analytic.survival_laplace_free(y, q), abs=1e-6)


def test_dirac_survival_reduces_to_free_at_zero_strength():
    assert analytic.survival_laplace_dirac(1.0, 0.7, 2.0, 0.0) == pytest.approx(
        analytic.survival_laplace_free(1.0, 0.7), rel=1e-12
    )


def test_dirac_survival_below_free():
    free = analytic.survival_laplace_free(1.0, 0.5)
    killed = analytic.survival_laplace_dirac(1.0, 0.5, 2.0, 3.0)
    assert 0 < killed < free


@given(x1=interior, y=interior, V=st.floats(0.0, 20.0))
@settings(max_examples=25, deadline=None)
def test_conditional_mfpt_matches_derivative_oracle(x1, y, V):
    res = analytic.conditional_mean_kill_time_dirac(y, x1, V)

    def log_kill_transform(q):
        g = analytic.green_laplace_closed(x1, y, q)
        return math.log(g / (1 + V * analytic.green_laplace_closed(x1, x1, q)))

    d = derivative(np.vectorize(log_kill_transform), 0.0, step_direction=1, initial_step=0.02)
    assert d.success
    assert res.derived_value == pytest.approx(-d.df, abs=1e-6)
    assert res.derived_value == pytest.approx(-(res.alpha + res.beta), rel=1e-12)


def test_conditional_mfpt_symmetric_midpoint_zero_strength():
    res = analytic.conditional_mean_kill_time_dirac(PI / 2, PI / 2, 0.0)
    assert res.derived_value == pytest.approx(PI**2 / 12, rel=1e-12)


def test_ratio_rs_dirac_scaling():
    assert analytic.ratio_rs_dirac(1.0, 2.0, 0.4) == pytest.approx(1.25)
    assert analytic.ratio_rs_dirac(2.0, 2.0, 0.4) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        analytic.ratio_rs_dirac(1.0, 0.0, 0.4)


def test_ratio_rs_uniform_values():
    assert analytic.ratio_rs_uniform(1.0, 4.0, 1.0) == pytest.approx(
        1.0 / (math.cosh(2.0) - 1.0), rel=1e-12
    )
    # shallow killing: ratio grows like 2D/(v0 L^2)
    v = analytic.ratio_rs_uniform(1.0, 1e-4, 1.0)
    assert v == pytest.approx(2.0 / 1e-4, rel=1e-3)


def test_ratio_rinf_reference_case():
    res = analytic.ratio_rinf_dirac_interval(1.0, 1.0, 1.0, 0.75, 0.25)
    assert res.derived_value == pytest.approx(18.0, rel=1e-12)
    assert res.paper_value * res.derived_value == pytest.approx(1.0, abs=1e-9)


@given(
    y=st.floats(0.05, 0.4),
    x1=st.floats(0.45, 0.95),
    k=st.floats(0.1, 10.0),
)
@settings(max_examples=30, deadline=None)
def test_ratio_rinf_paper_is_reciprocal(y, x1, k):
    res = analytic.ratio_rinf_dirac_interval(1.0, k, 1.0, x1, y)
    assert res.paper_value * res.derived_value == pytest.approx(1.0, abs=1e-9)


def test_q_polynomial_variants_disagree():
    y = 1.0
    assert analytic.paper_q_polynomial(y) != pytest.approx(analytic.series_q_polynomial(y))
    assert analytic.series_q_polynomial(y) == pytest.approx(
        6 * PI * analytic.survival_laplace_free(y, 0.0), abs=1e-4
    )


@given(length=st.floats(0.1, 50.0), d=st.floats(0.1, 10.0), t=st.floats(0.01, 100.0))
@settings(max_examples=30, deadline=None)
def test_unit_scaling_time_roundtrip(length, d, t):
    sc = UnitScaling(length, d)
    assert sc.from_unit_time(sc.to_unit_time(t)) == pytest.approx(t, rel=1e-12)
    assert sc.to_unit_position(length) == pytest.approx(PI, rel=1e-12)


def test_unit_scaling_preserves_dimensionless_groups():
    # p_killed for a single spot is scale invariant: compare two realizations
    def pk(length, d, frac_spot, frac_y, k_phys):
        sc = UnitScaling(length, d)
        x1 = sc.to_unit_position(frac_spot * length)
        y = sc.to_unit_position(frac_y * length)
        v = sc.to_unit_dirac_strength(k_phys)
        g_y = analytic.green_laplace_closed(x1, y, 0.0)
        g_xx = analytic.green_laplace_closed(x1, x1, 0.0)
        return v * g_y / (1 + v * g_xx)

    # k L / D identical in both -> identical kill probability
    assert pk(1.0, 1.0, 0.6, 0.3, 5.0) == pytest.approx(pk(2.0, 4.0, 0.6, 0.3, 10.0), rel=1e-12)


@pytest.mark.parametrize("D,v0,L,y", [(1.0, 1.0, 2.0, 0.7), (0.5, 3.0, 1.0, 0.2), (1.0, 1.0, 40.0, 20.0)])
def test_absorption_probability_uniform_is_the_sinh_form(D, v0, L, y):
    c = math.sqrt(v0 / D)
    sinh_form = (math.sinh(c * y) + math.sinh(c * (L - y))) / math.sinh(c * L)
    p = analytic.absorption_probability_uniform(D, v0, L, y)
    assert p == pytest.approx(sinh_form, rel=1e-13)
    assert p == pytest.approx(analytic.absorption_probability_uniform(D, v0, L, L - y), rel=1e-13)


def test_absorption_probability_uniform_past_sinh_overflow():
    # sinh(c L) overflows at c L = 2000; the probability is exp(-c y) to
    # within exp(-2 c y) there
    p = analytic.absorption_probability_uniform(1.0, 1.0, 2000.0, 300.0)
    assert p == pytest.approx(math.exp(-300.0), rel=1e-12)
    assert analytic.absorption_probability_uniform(1.0, 1.0, 2.0, 0.0) == 1.0
