"""Acceptance suite: one test per release criterion, each emitting a single
pass/fail line.  Tolerances are fixed here and nowhere else; run with
`pytest -s tests/test_acceptance.py` to see the lines."""

import math

import numpy as np
import pytest

from killdiff import analytic, crosscheck, fpe, montecarlo
from killdiff.analytic import PI
from killdiff.cli import main
from killdiff.crosscheck import run_matrix
from killdiff.fpe import GridSpec
from killdiff.model import InitialCondition, KillingMeasure, interval
from killdiff.montecarlo import McConfig


def verdict_line(num, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


@pytest.fixture(scope="module")
def matrix_report(tmp_path_factory):
    report = run_matrix(seed=0)
    path = tmp_path_factory.mktemp("crosscheck") / "report.csv"
    report.write_csv(path)
    return report, path.read_bytes()


def test_criterion_1_constant_killing_law():
    # uniform killing in a wide interval: exponential survival and a
    # two-sided exponential kill-site profile
    model = interval(40.0)
    cfg = McConfig(dt=5e-2, n_trajectories=100_000, seed=7)
    out = montecarlo.simulate_outcomes(model, KillingMeasure.uniform(1.0), 20.0, cfg)

    ok = True
    n = out.n
    steps = np.rint(out.time / cfg.dt)
    for t in (0.5, 1.0, 2.0):
        # an event at step j fell in ((j - 1) dt, j dt]: exact at multiples of dt
        s = np.count_nonzero(steps > round(t / cfg.dt)) / n
        se = math.sqrt(s * (1 - s) / n)
        ok = ok and abs(s - math.exp(-t)) <= 3 * se

    pos = out.position[out.killed]
    edges = np.linspace(10.0, 30.0, 81)
    counts, _ = np.histogram(pos, bins=edges)
    emp = counts / np.count_nonzero(out.killed)

    def cdf(x):
        z = x - 20.0
        return 0.5 * math.exp(z) if z < 0 else 1 - 0.5 * math.exp(-z)

    exact = np.array([cdf(b) - cdf(a) for a, b in zip(edges[:-1], edges[1:])])
    l1 = float(np.abs(emp - exact).sum() + (1 - exact.sum()))
    ok = ok and l1 < 0.05
    verdict_line(1, f"survival within 3 sigma of exp(-t) and kill-site L1 {l1:.4f} < 0.05", ok)


def test_criterion_2_conservation(matrix_report):
    report, _ = matrix_report
    rows = [r for r in report.rows if r.observable == "pk+pa"]
    ok = bool(rows) and all(r.passed for r in rows)
    ok = ok and all(r.tol <= 1e-6 for r in rows)
    mc_rows = [r for r in rows if r.method_a == "mc"]
    ok = ok and all(r.value_a == 1.0 for r in mc_rows)
    verdict_line(2, "p_killed + p_absorbed = 1 within 1e-6 (PDE) and exactly (MC) across the matrix", ok)


def test_criterion_3_resolvent_identity():
    # Laplace quadrature of the PDE survival curve must reproduce the
    # rank-one closed form of the transformed survival
    model = interval(PI)
    killing = KillingMeasure.dirac([(2.0, 1.0)])
    res = fpe.evolve(model, killing, InitialCondition.point(1.0), GridSpec(400, 1e-3, 14.0))
    s = res.series
    lam = fpe.decay_rate(model, killing, 400)
    ok = True
    for q in (0.5, 1.0, 2.0):
        quad = float(np.trapezoid(s.survival * np.exp(-q * s.times), s.times))
        quad += s.survival[-1] * math.exp(-q * s.times[-1]) / (q + lam)
        exact = analytic.survival_laplace_dirac(1.0, q, 2.0, 1.0)
        ok = ok and abs(quad - exact) / exact < 1e-3
    verdict_line(3, "transformed PDE survival matches the closed form to 1e-3 at q in {0.5, 1, 2}", ok)


def test_criterion_4_mean_exit_time_adjudication():
    ok = all(
        abs(analytic.survival_laplace_free(y, 0.0) - y * (PI - y) / 2) < 1e-6
        for y in (PI / 4, PI / 2, 3 * PI / 4)
    )
    # and the report must flag the printed polynomial as inconsistent
    table = {d.name: d for d in crosscheck.build_discrepancy_table()}
    flag = table["survival_transform_at_zero(y=1)"]
    ok = ok and abs(flag.paper_value - flag.derived_value) > 1.0
    verdict_line(4, "transform at zero equals y(pi-y)/2 to 1e-6; inconsistent polynomial flagged", ok)


def test_criterion_5_steady_ratio_closed_forms():
    ok = True
    # point killing: 3x3 grid in (strength, position), with one refinement
    for k in (1.0, 2.0, 4.0):
        for xs in (0.25, 0.5, 0.75):
            model = interval(1.0, "absorbing", "injection", phi=1.0)
            killing = KillingMeasure.dirac([(xs, k)])
            exact = analytic.ratio_rs_dirac(1.0, k, xs)
            err = [
                abs(fpe.steady_state(model, killing, GridSpec(n, 1e-3, 1.0)).ratio_rs - exact) / exact
                for n in (400, 800)
            ]
            converged = err[1] <= err[0] or max(err) < 1e-10  # round-off floor
            ok = ok and err[0] < 1e-3 and err[1] < 1e-3 and converged
    # uniform killing: 3x3 grid in (rate, length), with one refinement
    for v0 in (1.0, 4.0, 9.0):
        for L in (0.5, 1.0, 2.0):
            model = interval(L, "absorbing", "injection", phi=1.0)
            killing = KillingMeasure.uniform(v0)
            exact = analytic.ratio_rs_uniform(1.0, v0, L)
            err = [
                abs(fpe.steady_state(model, killing, GridSpec(n, 1e-3, 1.0)).ratio_rs - exact) / exact
                for n in (400, 800)
            ]
            converged = err[1] <= err[0] or max(err) < 1e-10  # round-off floor
            ok = ok and err[0] < 1e-3 and err[1] < 1e-3 and converged
    # Monte Carlo agreement on two of the uniform cells
    for v0, L in ((4.0, 1.0), (1.0, 1.0)):
        model = interval(L, "absorbing", "injection", phi=1.0)
        ratio, se = montecarlo.simulate_rs(
            model, KillingMeasure.uniform(v0), McConfig(dt=3.2e-2, n_trajectories=8000, seed=21)
        )
        ok = ok and abs(ratio - analytic.ratio_rs_uniform(1.0, v0, L)) <= 3 * se
    verdict_line(5, "steady ratios match closed forms to 1e-3 on both 3x3 grids; MC within 3 sigma", ok)


def test_criterion_6_rinf_adjudication():
    D, k, L, x1, y = 1.0, 1.0, 1.0, 0.75, 0.25
    res = analytic.ratio_rinf_dirac_interval(D, k, L, x1, y)
    model = interval(L)
    killing = KillingMeasure.dirac([(y, k)])
    gr = fpe.green_steady(model, killing, x1, GridSpec(800, 1e-3, 1.0))
    stats = fpe.split_statistics(model, killing, InitialCondition.point(x1), GridSpec(800, 1e-4, 1.5))
    ok = abs(res.derived_value - 18.0) < 1e-9
    ok = ok and abs(gr.ratio_rinf - res.derived_value) / res.derived_value < 1e-3
    ok = ok and abs(stats.ratio_rinf - res.derived_value) / res.derived_value < 1e-3
    ok = ok and abs(res.paper_value * res.derived_value - 1.0) < 1e-9
    mc = montecarlo.simulate_split(
        model, killing, x1,
        McConfig(dt=8e-3, n_trajectories=20000, seed=0),
    )
    ok = ok and abs(mc.ratio_rinf - res.derived_value) <= 3 * mc.ratio_rinf_se
    verdict_line(6, "absorbed/killed ratio 18.0 via all routes; printed variant is its reciprocal", ok)


def test_criterion_7_conditional_mfpt_adjudication():
    verdict = crosscheck.adjudicate_conditional_mfpt()
    ok = verdict.sign_combination == "-(alpha+beta)"
    for _, _, _, oracle, values in verdict.table:
        ok = ok and abs(values[verdict.sign_combination] - oracle) <= 1e-4 * max(1.0, abs(oracle))
    model = interval(PI)
    for x1, y, V in ((PI / 2, PI / 4, 1.0), (PI / 2, PI / 4, 10.0), (3 * PI / 4, PI / 2, 1.0)):
        closed = analytic.conditional_mean_kill_time_dirac(y, x1, V).derived_value
        stats = montecarlo.simulate_split(
            model, KillingMeasure.dirac([(x1, V)]),
            y, McConfig(dt=8e-2, n_trajectories=8000, seed=11),
        )
        ok = ok and abs(stats.mean_kill_time - closed) <= 3 * stats.mean_kill_time_se
    verdict_line(7, "single sign verdict -(alpha+beta); oracle to 1e-4 and MC means within 3 sigma", ok)


def test_criterion_8_spectral_decay():
    errs = [abs(fpe.decay_rate(interval(PI), KillingMeasure(), n) - 1.0) for n in (200, 400)]
    ok = errs[0] < 1e-3 and errs[1] < 1e-3 and errs[1] < errs[0]
    for v0 in (0.5, 2.0):
        shift = fpe.decay_rate(interval(PI), KillingMeasure.uniform(v0), 200) - fpe.decay_rate(
            interval(PI), KillingMeasure(), 200
        )
        ok = ok and abs(shift - v0) < 1e-9
    table = {d.name: d for d in crosscheck.build_discrepancy_table()}
    conflict = table["survival_decay_rate(y=pi/2)"]
    ok = ok and conflict.derived_value == 1.0 and abs(conflict.paper_value - 1.0) > 0.05
    verdict_line(8, "decay rate 1.0 under refinement, shifted exactly by v0; conflicting claim documented", ok)


def test_criterion_9_convergence_orders():
    # PDE: halving dx reduces observable errors about fourfold
    model = interval(2.0)
    killing = KillingMeasure.uniform(1.0)
    ic = InitialCondition.point(0.7)
    ref = fpe.split_statistics(model, killing, ic, GridSpec(800, 2.5e-4, 8.0))
    coarse = fpe.split_statistics(model, killing, ic, GridSpec(100, 2e-3, 8.0))
    fine = fpe.split_statistics(model, killing, ic, GridSpec(200, 1e-3, 8.0))
    ok = True
    for obs in ("p_killed", "mean_kill_time", "mean_absorb_time"):
        e_c = abs(getattr(coarse, obs) - getattr(ref, obs))
        e_f = abs(getattr(fine, obs) - getattr(ref, obs))
        ok = ok and 3.0 <= e_c / e_f <= 5.0
    # MC: exact bridge killing leaves no step bias in the point-killing split
    m2 = interval(PI)
    k2 = KillingMeasure.dirac([(2.0, 1.0)])
    pk_exact, _ = crosscheck.analytic_split_dirac(m2, k2, 1.0)
    for dt in (8e-3, 4e-3, 2e-3):
        stats = montecarlo.simulate_split(
            m2, k2, 1.0, McConfig(dt=dt, n_trajectories=100_000, seed=13)
        )
        ok = ok and abs(stats.p_killed - pk_exact) <= 3 * stats.p_killed_se
    verdict_line(9, "PDE error ratio in [3, 5] per refinement; MC p_killed within 3 sigma at every dt", ok)


def test_criterion_10_determinism(matrix_report):
    _, first_bytes = matrix_report
    second = run_matrix(seed=0)
    import os, tempfile

    with tempfile.NamedTemporaryFile(suffix=".csv", delete=False) as f:
        path = f.name
    try:
        second.write_csv(path)
        with open(path, "rb") as f:
            ok = f.read() == first_bytes
    finally:
        os.unlink(path)
    verdict_line(10, "repeated cross-validation runs with the same seed are byte-identical", ok)


def test_the_crosscheck_command_writes_the_matrix_report(matrix_report, tmp_path, monkeypatch, capsys):
    # run from a directory that holds no scenarios/: the matrix reads the
    # files shipped with the package
    monkeypatch.chdir(tmp_path)
    assert main(["--seed", "0", "crosscheck"]) == 0
    report, report_bytes = matrix_report
    assert (tmp_path / "report.csv").read_bytes() == report_bytes
    summary = report.summary() + "\n"
    assert (tmp_path / "summary.txt").read_text() == summary == capsys.readouterr().out
    discrepancies = (tmp_path / "discrepancies.csv").read_text().splitlines()
    assert len(discrepancies) == 1 + len(report.discrepancies)
