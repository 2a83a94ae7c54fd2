import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from killdiff.numerics import (
    AccuracyError,
    SeriesControl,
    SingularSystemError,
    banded_form,
    derivative_at_zero,
    solve_tridiagonal,
    sum_with_tail_bound,
)


def test_series_control_validation():
    with pytest.raises(ValueError):
        SeriesControl(max_terms=0)
    with pytest.raises(ValueError):
        SeriesControl(tail_tolerance=0.0)


def test_basel_series_with_integral_tail_bound():
    ctl = SeriesControl(max_terms=20_000_000, tail_tolerance=1e-7)
    value, bound = sum_with_tail_bound(
        lambda n: 1.0 / n.astype(float) ** 2, lambda n: 1.0 / n, ctl
    )
    assert bound <= 1e-7
    assert value == pytest.approx(math.pi**2 / 6, abs=2e-7)


def test_series_raises_when_budget_too_small():
    ctl = SeriesControl(max_terms=100, tail_tolerance=1e-12)
    with pytest.raises(AccuracyError):
        sum_with_tail_bound(lambda n: 1.0 / n.astype(float) ** 2, lambda n: 1.0 / n, ctl)


def test_tridiagonal_known_solution():
    # -u'' = 1 on (0,1), u(0)=u(1)=0 -> u = x(1-x)/2, exact for 2nd differences
    n = 9
    dx = 1.0 / (n + 1)
    lower = np.full(n - 1, -1.0 / dx**2)
    diag = np.full(n, 2.0 / dx**2)
    upper = np.full(n - 1, -1.0 / dx**2)
    u = solve_tridiagonal(lower, diag, upper, np.ones(n))
    x = dx * np.arange(1, n + 1)
    assert np.allclose(u, x * (1 - x) / 2, atol=1e-12)


def test_tridiagonal_size_mismatch():
    with pytest.raises(ValueError):
        solve_tridiagonal(np.ones(3), np.ones(3), np.ones(2), np.ones(3))


def test_singular_system_raises():
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(np.zeros(1), np.zeros(2), np.zeros(1), np.ones(2))


@given(
    n=st.integers(3, 30),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_tridiagonal_residual_on_dominant_systems(n, seed):
    rng = np.random.default_rng(seed)
    lower = rng.uniform(-1, 1, n - 1)
    upper = rng.uniform(-1, 1, n - 1)
    diag = 3.0 + rng.uniform(0, 1, n)  # strictly diagonally dominant
    rhs = rng.uniform(-5, 5, n)
    u = solve_tridiagonal(lower, diag, upper, rhs)
    residual = diag * u
    residual[:-1] += upper * u[1:]
    residual[1:] += lower * u[:-1]
    assert np.allclose(residual, rhs, atol=1e-10)


def test_banded_form_layout():
    ab = banded_form(np.array([4.0, 5.0]), np.array([1.0, 2.0, 3.0]), np.array([6.0, 7.0]))
    assert ab.shape == (3, 3)
    assert list(ab[1]) == [1.0, 2.0, 3.0]
    assert list(ab[0]) == [0.0, 6.0, 7.0]
    assert list(ab[2]) == [4.0, 5.0, 0.0]


@pytest.mark.parametrize("coeffs", [(0.0, 1.0), (2.0, -3.0, 1.0), (1.0, 0.5, -2.0, 4.0, 0.25)])
def test_derivative_at_zero_exact_on_polynomials(coeffs):
    # Richardson extrapolation is exact (to round-off) for low-degree polynomials
    def f(q):
        return sum(c * q**k for k, c in enumerate(coeffs))

    d, err = derivative_at_zero(f)
    assert d == pytest.approx(coeffs[1], abs=1e-9)
    assert err < 1e-8


def test_derivative_at_zero_one_sided():
    # f is only defined for q >= 0; must not be evaluated at negative arguments
    def f(q):
        assert q >= 0
        return math.sqrt(1 + q)

    d, _ = derivative_at_zero(f)
    assert d == pytest.approx(0.5, abs=1e-8)
