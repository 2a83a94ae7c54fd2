import math

import pytest

from killdiff import numerics
from killdiff.numerics import AccuracyError, derivative_at_zero, sum_with_tail_bound


def test_series_with_integral_tail_bound():
    # sum 1/n^4 = pi^4/90; the tail after n terms is below 1/(3 n^3)
    value, bound = sum_with_tail_bound(
        lambda n: 1.0 / n.astype(float) ** 4, lambda n: 1.0 / (3.0 * n**3)
    )
    assert bound <= 1e-10
    assert value == pytest.approx(math.pi**4 / 90, abs=2e-10)


def test_series_raises_when_budget_too_small(monkeypatch):
    monkeypatch.setattr(numerics, "SERIES_MAX_TERMS", 100)
    with pytest.raises(AccuracyError):
        sum_with_tail_bound(lambda n: 1.0 / n.astype(float) ** 4, lambda n: 1.0 / (3.0 * n**3))


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
