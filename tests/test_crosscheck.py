import csv
import dataclasses

import numpy as np
import pytest

from killdiff import crosscheck, montecarlo
from killdiff.analytic import PI
from killdiff.crosscheck import Scenario, default_matrix, run_matrix
from killdiff.fpe import GridSpec, split_statistics
from killdiff.model import InitialCondition, InputError, KillingMeasure, interval, validate_problem
from killdiff.montecarlo import McConfig


def small_scenarios(seed=0):
    return [
        Scenario(
            "mini-uniform",
            "split",
            interval(2.0),
            KillingMeasure.uniform(1.0),
            y=0.7,
            grid=GridSpec(100, 2e-3, 8.0),
            mc=McConfig(dt=1e-3, n_trajectories=1500, seed=seed),
            mc_bias=0.02,
        ),
        Scenario(
            "mini-steady",
            "steady",
            interval(1.0, "absorbing", "injection", phi=1.0),
            KillingMeasure.uniform(4.0),
            grid=GridSpec(400, 1e-3, 1.0),
            mc=McConfig(dt=5e-4, n_trajectories=1500, seed=seed + 1),
            mc_bias=0.05,
        ),
    ]


def test_empty_scenario_list_gives_empty_report():
    report = run_matrix(scenarios=[])
    assert report.rows == ()
    assert report.all_passed
    assert len(report.discrepancies) == 5


def test_small_matrix_passes():
    report = run_matrix(scenarios=small_scenarios())
    assert report.rows
    assert report.all_passed, report.summary()


def test_errors_are_recorded_not_raised():
    bad = Scenario(
        "broken",
        "steady",
        interval(1.0),  # wrong boundary setup for a steady solve
        KillingMeasure.uniform(1.0),
        grid=GridSpec(100, 1e-3, 1.0),
        mc=McConfig(dt=1e-3, n_trajectories=100),
    )
    report = run_matrix(scenarios=[bad])
    assert len(report.rows) == 1
    assert not report.rows[0].passed
    assert "InputError" in report.rows[0].note


def test_report_csv_quotes_a_note_that_holds_a_comma(tmp_path):
    # drift that traps the mass against the reflecting end: the PDE refuses
    # the split with a note that holds commas
    trapped = Scenario(
        "trapped",
        "split",
        interval(1.0, "reflecting", "absorbing", diffusion=0.7, drift=-29.4),
        KillingMeasure.zero(),
        y=0.5,
        mc=McConfig(dt=1e-3, n_trajectories=100),
    )
    report = run_matrix(scenarios=[trapped])
    (row,) = report.rows
    assert "misses the mass put in" in row.note and "," in row.note
    path = tmp_path / "report.csv"
    report.write_csv(path)
    with open(path, newline="") as f:
        cells = list(csv.reader(f))
    assert [len(r) for r in cells] == [10, 10]
    assert cells[1][-1] == row.note


def test_default_matrix_spans_killing_kinds():
    names = {s.killing.kind.value for s in default_matrix()}
    assert names == {"zero", "uniform", "dirac", "piecewise"}
    assert len(default_matrix()) == 12


def test_green_rinf_band_is_a_few_sigma():
    (sc,) = [s for s in default_matrix(seed=0) if s.name == "green-rinf"]
    (row,) = [r for r in run_matrix(scenarios=[sc]).rows if r.method_b == "mc"]
    assert row.passed
    assert row.tol / row.sigma <= 4


def test_report_csv_is_deterministic(tmp_path):
    report = run_matrix(scenarios=small_scenarios())
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    report.write_csv(p1)
    run_matrix(scenarios=small_scenarios()).write_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_discrepancy_table_documents_conflicts():
    table = {d.name: d for d in crosscheck.build_discrepancy_table()}
    rinf = table["rinf(D=1;k=1;L=1;x1=0.75;y=0.25)"]
    assert rinf.paper_value * rinf.derived_value == pytest.approx(1.0, abs=1e-9)
    decay = table["survival_decay_rate(y=pi/2)"]
    assert decay.derived_value == 1.0
    assert decay.paper_value != pytest.approx(1.0, abs=0.05)
    res = table["resolvent(x=1;y=2;q=1)"]
    assert abs(res.paper_value - res.derived_value) > 1.0


def test_paper_resolvent_formula_rejects_nonpositive_q():
    with pytest.raises(ValueError):
        crosscheck.paper_resolvent_cosine_sum(1.0, 2.0, 0.0)


def test_adjudication_single_verdict():
    verdict = crosscheck.adjudicate_conditional_mfpt()
    assert verdict.sign_combination == "-(alpha+beta)"
    assert len(verdict.table) == 27


def test_adjudication_midpoint_oracle_value():
    verdict = crosscheck.adjudicate_conditional_mfpt(points=[(PI / 2, PI / 2, 0.0)])
    (_, _, _, oracle, values) = verdict.table[0]
    assert oracle == pytest.approx(PI**2 / 12, abs=1e-8)
    assert values["-(alpha+beta)"] == pytest.approx(oracle, abs=1e-8)


def test_adjudication_inconclusive_on_empty_margin():
    # a single V=0 point cannot separate the sign of beta from its negation,
    # but the alpha sign is still pinned; the verdict requires a full sweep
    verdict = crosscheck.adjudicate_conditional_mfpt(
        points=[(PI / 2, PI / 2, 0.0), (PI / 2, PI / 2, 1.0)]
    )
    assert verdict.sign_combination == "-(alpha+beta)"


def test_analytic_split_dirac_requires_single_spot():
    with pytest.raises(ValueError):
        crosscheck.analytic_split_dirac(
            interval(1.0), KillingMeasure.dirac([(0.3, 1.0), (0.6, 1.0)]), 0.5
        )


@pytest.mark.parametrize("kind,y", [("split", 0.3), ("green", 0.8)])
def test_drift_scenario_has_no_analytic_rows(kind, y):
    sc = Scenario(
        "drift-spot",
        kind,
        interval(1.0, drift=1.0),
        KillingMeasure.dirac([(0.6, 5.0)]),
        y=y,
        grid=GridSpec(100, 1e-3, 1.0),
        mc=McConfig(dt=1e-3, n_trajectories=200),
        mc_bias=0.1,
    )
    rows = run_matrix(scenarios=[sc]).rows
    assert rows and all(r.observable != "error" for r in rows)
    assert not any("analytic" in r.method_a for r in rows)


def test_closed_forms_need_no_drift():
    model, killing = interval(PI), KillingMeasure.dirac([(2.0, 1.0)])
    forms = crosscheck.closed_forms(model, killing, 2.5)
    assert list(forms) == [
        "p_killed", "p_absorbed", "mean_kill_time", "ratio_rinf",
        "ratio_rinf_derived", "ratio_rinf_paper",
    ]
    assert crosscheck.closed_forms(interval(PI, drift=0.1), killing, 2.5) == {}
    steady = interval(1.0, "absorbing", "injection", phi=1.0)
    assert list(crosscheck.closed_forms(steady, KillingMeasure.uniform(4.0), 0.0)) == ["ratio_rs"]
    drifting = interval(1.0, "absorbing", "injection", drift=3.0, phi=1.0)
    assert crosscheck.closed_forms(drifting, KillingMeasure.uniform(4.0), 0.0) == {}


def test_steady_scenario_without_closed_form_holds_pde_against_mc():
    sc = Scenario(
        "steady-drift",
        "steady",
        interval(1.0, "absorbing", "injection", drift=1.0, phi=1.0),
        KillingMeasure.uniform(4.0),
        grid=GridSpec(400, 1e-3, 1.0),
        mc=McConfig(dt=5e-4, n_trajectories=2000, seed=1),
        mc_bias=0.02,
    )
    rows = run_matrix(scenarios=[sc]).rows
    assert [(r.observable, r.method_a, r.method_b) for r in rows] == [
        ("conservation", "pde", "exact"), ("ratio_rs", "pde", "mc"),
    ]
    assert all(r.passed for r in rows)
    assert rows[1].tol == 3 * rows[1].sigma + 0.02 * abs(rows[1].value_a)


@pytest.mark.parametrize(
    "killing,diffusion,length,y",
    [
        (KillingMeasure.zero(), 1.0, PI, 1.0),
        (KillingMeasure.zero(), 0.4, 2.0, 1.5),
        (KillingMeasure.uniform(1.0), 1.0, 2.0, 0.7),
        (KillingMeasure.uniform(3.0), 0.5, 1.0, 0.2),
    ],
)
def test_absorbing_interval_closed_forms_match_the_pde_split(killing, diffusion, length, y):
    model = interval(length, diffusion=diffusion)
    forms = crosscheck.closed_forms(model, killing, y)
    pde = split_statistics(model, killing, InitialCondition.point(y), GridSpec(400, 1e-3, 1.0))
    assert forms["p_killed"] + forms["p_absorbed"] == 1.0
    assert forms["p_killed"] == pytest.approx(pde.p_killed, abs=2e-4)
    assert forms["ratio_rinf"] == pytest.approx(pde.ratio_rinf, rel=1e-3)
    if killing.is_zero:
        assert list(forms) == ["p_killed", "p_absorbed", "mean_absorb_time", "ratio_rinf"]
        assert forms["mean_absorb_time"] == pytest.approx(pde.mean_absorb_time, rel=1e-4)
    else:
        assert list(forms) == ["p_killed", "p_absorbed", "ratio_rinf"]


def _outcome(call):
    """What call() returns, a dataclass as its fields, or the InputError it raises."""
    try:
        value = call()
    except InputError as exc:
        return str(exc)
    return dataclasses.astuple(value) if dataclasses.is_dataclass(value) else value


ENDS = ("absorbing", "reflecting", "injection")


@pytest.mark.parametrize("left,right", [(a, b) for a in ENDS for b in ENDS if a != b or a != "injection"])
@pytest.mark.parametrize(
    "killing",
    [
        KillingMeasure.uniform(0.0),
        KillingMeasure.dirac([]),
        KillingMeasure.dirac([(0.4, 0.0)]),
        KillingMeasure.piecewise([0.5], [0.0, 0.0]),
    ],
    ids=["uniform-0", "no-spots", "spot-of-strength-0", "piecewise-0"],
)
def test_a_measure_that_kills_nowhere_is_zero_killing(killing, left, right):
    model, y, zero = interval(1.0, left, right, phi=1.0), 0.3, KillingMeasure.zero()
    ic, grid = InitialCondition.point(y), GridSpec(50, 1e-3, 1.0)
    config = McConfig(dt=1e-2, n_trajectories=50, seed=4)
    for route in (
        lambda k: validate_problem(model, k, ic),
        lambda k: crosscheck.closed_forms(model, k, y),
        lambda k: split_statistics(model, k, ic, grid),
        lambda k: montecarlo.simulate_outcomes(model, k, y, config),
    ):
        np.testing.assert_equal(_outcome(lambda: route(killing)), _outcome(lambda: route(zero)))
