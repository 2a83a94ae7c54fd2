import math

import pytest

from killdiff import numerics
from killdiff.numerics import AccuracyError, sum_with_tail_bound


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

