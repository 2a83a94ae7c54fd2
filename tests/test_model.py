import numpy as np
import pytest
from hypothesis import given, strategies as st

from killdiff.model import (
    BoundaryBehavior,
    BoundaryKind,
    DiffusionModel,
    Domain1D,
    InitialCondition,
    KillingKind,
    KillingMeasure,
    interval,
    require_valid,
    validate_problem,
)


def test_interval_constructor_defaults():
    m = interval(2.0)
    assert m.domain.length == 2.0
    assert m.domain.left.kind is BoundaryKind.ABSORBING
    assert m.domain.right.kind is BoundaryKind.ABSORBING
    assert m.diffusion == 1.0
    assert m.drift == 0.0


def test_interval_injection_carries_flux():
    m = interval(1.0, "absorbing", "injection", phi=2.5)
    assert m.domain.right.kind is BoundaryKind.INJECTION
    assert m.domain.right.phi == 2.5
    assert m.domain.left.phi == 0.0


def test_valid_problem_reports_ok():
    ic = InitialCondition.point(0.5)
    assert validate_problem(interval(1.0), KillingMeasure.uniform(1.0), ic) == ()


@pytest.mark.parametrize(
    "model,killing,expect",
    [
        (interval(-1.0), KillingMeasure(), "length"),
        (interval(1.0, diffusion=0.0), KillingMeasure(), "diffusion"),
        (interval(1.0), KillingMeasure.uniform(-1.0), "non-negative"),
        (interval(1.0), KillingMeasure.dirac([(1.5, 1.0)]), "inside the interval"),
        (interval(1.0), KillingMeasure.dirac([(0.5, -1.0)]), "non-negative"),
        (interval(1.0), KillingMeasure.piecewise([0.5], [1.0]), "one rate per interval"),
        (interval(1.0), KillingMeasure.piecewise([0.6, 0.4], [1.0, 1.0, 1.0]), "increasing"),
        (interval(1.0), KillingMeasure.piecewise([0.5, 1.5], [1.0, 1.0, 1.0]), "inside the interval"),
        (interval(1.0), KillingMeasure.piecewise([0.5], [1.0, float("nan")]), "non-negative"),
        (interval(1.0), KillingMeasure(rates=(1.0,), spots=((0.5, -1.0),)), "non-negative"),
        (interval(1.0, "absorbing", "injection", phi=0.0), KillingMeasure(), "flux"),
    ],
)
def test_invalid_problems_are_flagged(model, killing, expect):
    violations = validate_problem(model, killing)
    assert any(expect in v for v in violations)


@pytest.mark.parametrize(
    "killing",
    [
        KillingMeasure.uniform(0.0),
        KillingMeasure.dirac([]),
        KillingMeasure.dirac([(0.3, 0.0), (0.6, 0.0)]),
        KillingMeasure.piecewise([0.5], [0.0, 0.0]),
    ],
)
def test_a_measure_that_kills_nowhere_is_zero_killing(killing):
    # once refused as "use zero killing instead" and "needs at least one spot"
    assert not validate_problem(interval(1.0), killing)
    assert killing.is_zero and killing.kind is KillingKind.ZERO
    assert np.all(killing.smooth_rate(np.linspace(0.0, 1.0, 5)) == 0.0)


def test_validation_never_raises_and_collects_everything():
    violations = validate_problem(interval(-1.0, diffusion=-2.0), KillingMeasure.uniform(-3.0))
    assert len(violations) >= 3


def test_point_ic_on_boundary_rejected():
    assert validate_problem(interval(1.0), KillingMeasure(), InitialCondition.point(0.0))


def test_require_valid_raises_with_all_violations():
    with pytest.raises(ValueError, match="invalid problem"):
        require_valid(interval(-1.0), KillingMeasure.uniform(-1.0))


def test_two_injection_boundaries_rejected():
    inject = BoundaryBehavior(BoundaryKind.INJECTION, 1.0)
    model = DiffusionModel(Domain1D(1.0, inject, inject), 1.0)
    violations = validate_problem(model, KillingMeasure())
    assert any("at most one" in v for v in violations)


@given(
    length=st.floats(0.1, 100.0),
    y=st.floats(0.01, 0.99),
    v0=st.floats(0.01, 50.0),
)
def test_valid_triples_always_pass(length, y, v0):
    assert not validate_problem(
        interval(length), KillingMeasure.uniform(v0), InitialCondition.point(y * length)
    )


@given(xs=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=4, unique=True))
def test_interior_spots_always_pass(xs):
    killing = KillingMeasure.dirac([(x, 1.0) for x in xs])
    assert not validate_problem(interval(1.0), killing)


def test_piecewise_rate_lookup():
    killing = KillingMeasure.piecewise([0.5], [0.5, 2.0])
    x = np.array([0.1, 0.49, 0.51, 0.9])
    assert np.allclose(killing.smooth_rate(x), [0.5, 0.5, 2.0, 2.0])


def test_dirac_measure_has_no_smooth_rate():
    killing = KillingMeasure.dirac([(0.5, 3.0)])
    assert np.all(killing.smooth_rate(np.linspace(0.1, 0.9, 5)) == 0.0)
    assert killing.kind is KillingKind.DIRAC
    assert not killing.is_zero


def test_uniform_and_point_constructors_state_one_shape():
    assert KillingMeasure() == KillingMeasure.uniform(0.0) == KillingMeasure.dirac([])
    assert KillingMeasure.uniform(2.0) == KillingMeasure.piecewise([], [2.0])
    assert KillingMeasure.uniform(2.0).kind is KillingKind.UNIFORM
    assert KillingMeasure.piecewise([0.5], [0.0, 2.0]).kind is KillingKind.PIECEWISE


def test_rate_plus_spots_is_one_valid_measure_without_a_kind():
    killing = KillingMeasure(breakpoints=(0.5,), rates=(1.0, 0.0), spots=((0.6, 2.0),))
    assert not validate_problem(interval(1.0), killing)
    assert not killing.is_zero
    assert np.allclose(killing.smooth_rate(np.array([0.2, 0.6])), [1.0, 0.0])
    with pytest.raises(ValueError, match="no single kind"):
        killing.kind
