import csv
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from killdiff import analytic, crosscheck, montecarlo
from killdiff.analytic import PI
from killdiff.crosscheck import Scenario, default_matrix, run_matrix
from killdiff.fpe import GridSpec, decay_rate, split_statistics, steady_state
from killdiff.model import InitialCondition, InputError, KillingMeasure, interval, validate_problem
from killdiff.montecarlo import McConfig
from killdiff.numerics import AccuracyError


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
        KillingMeasure(),
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


CSV_CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(),
    st.booleans(),
    st.text(st.sampled_from('ab ,"\n\r')),
)


def written(v):
    if isinstance(v, bool):
        return str(int(v))
    return repr(float(v)) if isinstance(v, float) else str(v)


@given(rows=st.lists(st.lists(CSV_CELLS, min_size=1, max_size=4), max_size=6))
@settings(max_examples=300, deadline=None)
def test_write_rows_reads_back_as_each_cell_printed(tmp_path_factory, rows):
    # floats and np.float64 (nan, +-inf, -0.0, subnormals) read back as
    # repr(float(v)), bools as 0/1, text holding commas, quotes, line feeds or
    # carriage returns intact
    path = tmp_path_factory.getbasetemp() / "rows.csv"
    crosscheck.write_rows(path, ("a", "b"), rows)
    with open(path, newline="") as f:
        back = list(csv.reader(f))
    assert back == [["a", "b"]] + [[written(v) for v in row] for row in rows]


def test_only_a_row_holding_a_carriage_return_quotes_its_text(tmp_path):
    # the csv module before Python 3.13 leaves "a\rb" bare under a "\n"
    # lineterminator, and it reads back as two rows; the other rows keep their bytes
    path = tmp_path / "rows.csv"
    rows = [("a", 1.5, True), ("a\rb", 1.5, True), (0.25, 2, -0.0)]
    crosscheck.write_rows(path, ("a", "b", "c"), rows)
    assert path.read_bytes() == b'a,b,c\na,1.5,1\n"a\rb",1.5,1\n0.25,2,-0.0\n'


@pytest.mark.parametrize("va, vb, passed", [
    (np.inf, np.inf, True), (np.inf, -np.inf, False), (-np.inf, -np.inf, True),
    (np.nan, np.nan, False),
])
@pytest.mark.parametrize("tol", [0.0, 1.0, np.nan])
def test_compare_passes_only_equal_infinities(va, vb, passed, tol):
    assert crosscheck._passed(va, vb, tol) is passed


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


def test_adjudication_refuses_an_oracle_that_does_not_converge(monkeypatch):
    # log g = sqrt(q) has no one-sided derivative at 0
    monkeypatch.setattr(analytic, "green_laplace_closed", lambda x, y, q: math.exp(math.sqrt(q)))
    with pytest.raises(AccuracyError):
        crosscheck.adjudicate_conditional_mfpt(points=[(PI / 2, PI / 2, 0.0)])


def test_import_killdiff_does_not_load_the_derivative():
    # nor any other SciPy module, the process pool or the scenario reader's
    # configparser: each loads at its first use
    src = os.path.dirname(os.path.dirname(crosscheck.__file__))
    code = (
        "import sys, killdiff; sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] in "
        "('scipy', 'multiprocessing', 'configparser') or m == 'concurrent.futures.process') or None)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr


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


def test_an_unknown_scenario_kind_is_refused():
    with pytest.raises(ValueError, match="'bogus'"):
        Scenario("bogus-kind", "bogus", interval(1.0), KillingMeasure.uniform(1.0), y=0.5)


# the solver and MC calls each kind makes, in order
KIND_CALLS = {
    "split": ["split_statistics", "simulate_split"],
    "steady": ["steady_state", "simulate_rs"],
    "green": ["green_steady", "split_statistics", "simulate_split"],
}


@pytest.fixture(scope="module")
def band_runs():
    """(scenario, rows, solver and MC calls) for default_matrix(seed=0) and
    the steady-drift and drift-spot scenarios above."""
    scenarios = default_matrix(seed=0) + [
        Scenario(
            "steady-drift",
            "steady",
            interval(1.0, "absorbing", "injection", drift=1.0, phi=1.0),
            KillingMeasure.uniform(4.0),
            grid=GridSpec(400, 1e-3, 1.0),
            mc=McConfig(dt=5e-4, n_trajectories=2000, seed=1),
            mc_bias=0.02,
        )
    ] + [
        Scenario(
            "drift-spot",
            kind,
            interval(1.0, drift=1.0),
            KillingMeasure.dirac([(0.6, 5.0)]),
            y=y,
            grid=GridSpec(100, 1e-3, 1.0),
            mc=McConfig(dt=1e-3, n_trajectories=200),
            mc_bias=0.1,
        )
        for kind, y in (("split", 0.3), ("green", 0.8))
    ]
    calls, runs = [], []

    def counted(name, call):
        def counted_call(*args):
            calls.append(name)
            return call(*args)
        return counted_call

    with pytest.MonkeyPatch.context() as mp:
        for name in {name for names in KIND_CALLS.values() for name in names}:
            mp.setattr(crosscheck, name, counted(name, getattr(crosscheck, name)))
        for sc in scenarios:
            calls.clear()
            runs.append((sc, run_matrix(scenarios=[sc]).rows, list(calls)))
    return runs


def _keys(rows):
    return [(r.observable, r.method_a, r.method_b) for r in rows]


def test_every_row_is_a_band_in_band_table_order(band_runs):
    order = list(crosscheck.BANDS)
    for sc, rows, _ in band_runs:
        assert rows and all(key in crosscheck.BANDS for key in _keys(rows)), sc.name
        positions = [order.index(key) for key in _keys(rows)]
        assert positions == sorted(set(positions)), sc.name


def test_every_band_makes_a_row_somewhere(band_runs):
    assert {key for _, rows, _ in band_runs for key in _keys(rows)} == set(crosscheck.BANDS)


def test_each_kind_makes_its_solver_and_mc_calls_once_in_order(band_runs):
    for sc, _, calls in band_runs:
        assert calls == KIND_CALLS[sc.kind], sc.name


@pytest.mark.parametrize(
    "killing,diffusion,length,y",
    [
        (KillingMeasure(), 1.0, PI, 1.0),
        (KillingMeasure(), 0.4, 2.0, 1.5),
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
END_PAIRS = [(a, b) for a in ENDS for b in ENDS if a != b or a != "injection"]


@pytest.mark.parametrize("left,right", END_PAIRS)
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
    model, y, zero = interval(1.0, left, right, phi=1.0), 0.3, KillingMeasure()
    ic, grid = InitialCondition.point(y), GridSpec(50, 1e-3, 1.0)
    config = McConfig(dt=1e-2, n_trajectories=50, seed=4)
    for route in (
        lambda k: validate_problem(model, k, ic),
        lambda k: crosscheck.closed_forms(model, k, y),
        lambda k: split_statistics(model, k, ic, grid),
        lambda k: montecarlo.simulate_outcomes(model, k, y, config),
    ):
        np.testing.assert_equal(_outcome(lambda: route(killing)), _outcome(lambda: route(zero)))


@pytest.mark.parametrize("left,right", END_PAIRS)
@pytest.mark.parametrize(
    "killing",
    [KillingMeasure(), KillingMeasure.uniform(1.0), KillingMeasure.dirac([(0.4, 2.0)])],
    ids=["zero", "rate", "spot"],
)
def test_pde_and_mc_accept_and_refuse_alike(killing, left, right):
    # the split, the steady ratio and termination: each route pair answers
    # the same problems, and an injection end reflects a point start on both
    model, y = interval(1.0, left, right, phi=1.0), 0.3
    ic, grid = InitialCondition.point(y), GridSpec(50, 1e-3, 1.0)
    config = McConfig(dt=1e-2, n_trajectories=50, seed=4)
    pairs = {
        "split": (
            lambda m: split_statistics(m, killing, ic, grid),
            lambda m: montecarlo.simulate_split(m, killing, y, config),
        ),
        "steady": (
            lambda m: steady_state(m, killing, grid).ratio_rs,
            lambda m: montecarlo.simulate_rs(m, killing, config)[0],
        ),
        "termination": (
            lambda m: decay_rate(m, killing, grid.cell_count),
            lambda m: montecarlo.simulate_outcomes(m, killing, y, config),
        ),
    }
    for name, (pde, mc) in pairs.items():
        a, b = _outcome(lambda: pde(model)), _outcome(lambda: mc(model))
        assert isinstance(a, str) == isinstance(b, str), (name, a, b)
    if model.domain.is_channel and killing.is_zero:
        assert pairs["steady"][0](model) == pairs["steady"][1](model) == math.inf
    twin = interval(1.0, *("reflecting" if end == "injection" else end for end in (left, right)))
    for route in (pairs["split"][0], pairs["termination"][1]):
        np.testing.assert_equal(_outcome(lambda: route(model)), _outcome(lambda: route(twin)))
