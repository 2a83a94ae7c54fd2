"""Adjudication harness: runs closed forms, the PDE solver and Monte Carlo
on a scenario matrix, compares every observable pairwise, resolves the
formula variants that disagree with their own series, and emits a
machine-readable report."""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from . import analytic
from .analytic import PI, UnitScaling
from .fpe import GridSpec, green_steady, split_statistics, steady_state
from .model import (
    BoundaryKind,
    DiffusionModel,
    InitialCondition,
    KillingMeasure,
    interval,
)
from .montecarlo import McConfig, simulate_rs, simulate_split
from .numerics import derivative_at_zero


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # "split" | "steady" | "green"
    model: DiffusionModel
    killing: KillingMeasure
    y: float = 0.0
    grid: GridSpec = GridSpec(200, 2e-3, 12.0)
    mc: McConfig = McConfig(dt=1e-3, n_trajectories=4000)
    mc_bias: float = 0.0  # documented discretization-bias allowance for MC bands


@dataclass(frozen=True)
class Comparison:
    scenario: str
    observable: str
    method_a: str
    value_a: float
    method_b: str
    value_b: float
    sigma: float
    tol: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class Discrepancy:
    name: str
    paper_value: float
    derived_value: float
    note: str


@dataclass(frozen=True)
class ComparisonReport:
    rows: Tuple[Comparison, ...]
    discrepancies: Tuple[Discrepancy, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def summary(self) -> str:
        lines = []
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            lines.append(
                f"[{status}] {r.scenario} / {r.observable}: {r.method_a}={r.value_a!r} "
                f"vs {r.method_b}={r.value_b!r} (tol {r.tol:g})"
            )
        n_fail = sum(not r.passed for r in self.rows)
        lines.append(f"{len(self.rows) - n_fail}/{len(self.rows)} comparisons passed")
        return "\n".join(lines)

    def write_csv(self, path: str) -> None:
        write_rows(path, [f.name for f in fields(Comparison)], map(astuple, self.rows))

    def write_discrepancies_csv(self, path: str) -> None:
        write_rows(path, [f.name for f in fields(Discrepancy)], map(astuple, self.discrepancies))


def write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV file: the header, then one line per row.  A float cell
    (np.float64 too) is written as repr(float(v)), a bool as 0 or 1 and any
    other cell as str(v); a cell holding a comma, quote or newline is
    quoted.  Every CSV file the package writes goes through here."""
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(header)
        out.writerows(
            [
                repr(float(v)) if isinstance(v, float)
                else int(v) if isinstance(v, bool)
                else str(v)
                for v in row
            ]
            for row in rows
        )


def _compare(
    scenario: str,
    observable: str,
    a: str,
    va: float,
    b: str,
    vb: float,
    tol: float,
    sigma: float = 0.0,
) -> Comparison:
    passed = (math.isinf(va) and math.isinf(vb)) or bool(abs(va - vb) <= tol)
    return Comparison(scenario, observable, a, va, b, vb, sigma, tol, passed)


def analytic_split_dirac(
    model: DiffusionModel, killing: KillingMeasure, y: float
) -> Tuple[float, float]:
    """(p_killed, mean kill time) in closed form for a single point killing
    with both ends absorbing, via rescaling to the reference interval."""
    if killing.is_zero or len(killing.spots) != 1 or any(killing.rates):
        raise ValueError("closed form available for a single point killing only")
    xs, ks = killing.spots[0]
    sc = UnitScaling(model.domain.length, model.diffusion)
    x1u, yu = sc.to_unit_position(xs), sc.to_unit_position(y)
    vu = sc.to_unit_dirac_strength(ks)
    g_y = analytic.green_laplace_closed(x1u, yu, 0.0)
    g_xx = analytic.green_laplace_closed(x1u, x1u, 0.0)
    p_killed = vu * g_y / (1 + vu * g_xx)
    mfpt = analytic.conditional_mean_kill_time_dirac(yu, x1u, vu)
    return p_killed, sc.from_unit_time(mfpt.derived_value)


def closed_forms(model: DiffusionModel, killing: KillingMeasure, y: float) -> Dict[str, float]:
    """Every closed-form observable of the problem started at y, by name;
    empty when none applies.  All of them assume no drift.

    - one injection and one absorbing end, uniform or single point killing:
      ratio_rs;
    - both ends absorbing, single point killing: p_killed, p_absorbed,
      mean_kill_time, ratio_rinf, and with the spot below y also
      ratio_rinf_derived and the printed ratio_rinf_paper;
    - both ends absorbing, no killing: p_killed = 0, p_absorbed = 1, the
      mean exit time mean_absorb_time = y(L - y)/2D, ratio_rinf = inf;
    - both ends absorbing, uniform killing: p_killed, p_absorbed =
      (sinh(cy) + sinh(c(L - y)))/sinh(cL) with c = sqrt(v0/D), ratio_rinf;
    - both ends reflecting, uniform killing (killing commutes with
      diffusion): p_killed = 1, p_absorbed = 0, mean_kill_time = 1/v0,
      ratio_rinf = 0."""
    if model.drift != 0:
        return {}
    dom = model.domain
    kinds = (dom.left.kind, dom.right.kind)
    D, L = model.diffusion, dom.length
    # zero killing first: a spot of strength 0 is no single point killing
    uniform = not killing.is_zero and len(killing.rates) == 1 and not killing.spots
    one_spot = not killing.is_zero and len(killing.spots) == 1 and not any(killing.rates)
    if kinds.count(BoundaryKind.INJECTION) == 1 and kinds.count(BoundaryKind.ABSORBING) == 1:
        if uniform:
            return {"ratio_rs": analytic.ratio_rs_uniform(D, killing.rates[0], L)}
        if one_spot:
            xs, ks = killing.spots[0]
            d_abs = xs if dom.left.kind is BoundaryKind.ABSORBING else L - xs
            return {"ratio_rs": analytic.ratio_rs_dirac(D, ks, d_abs)}
        return {}
    if set(kinds) == {BoundaryKind.REFLECTING} and uniform:
        return {
            "p_killed": 1.0, "p_absorbed": 0.0,
            "mean_kill_time": 1.0 / killing.rates[0], "ratio_rinf": 0.0,
        }
    if set(kinds) != {BoundaryKind.ABSORBING}:
        return {}
    if killing.is_zero:
        return {
            "p_killed": 0.0, "p_absorbed": 1.0,
            "mean_absorb_time": y * (L - y) / (2 * D), "ratio_rinf": math.inf,
        }
    if uniform:
        pa = analytic.absorption_probability_uniform(D, killing.rates[0], L, y)
        pk = 1 - pa
        return {
            "p_killed": pk, "p_absorbed": pa, "ratio_rinf": pa / pk if pk > 0 else math.inf,
        }
    if not one_spot:
        return {}
    pk, mk = analytic_split_dirac(model, killing, y)
    forms = {
        "p_killed": pk, "p_absorbed": 1 - pk,
        "mean_kill_time": mk, "ratio_rinf": (1 - pk) / pk if pk > 0 else math.inf,
    }
    xs, ks = killing.spots[0]
    if xs < y:
        res = analytic.ratio_rinf_dirac_interval(D, ks, L, y, xs)
        forms["ratio_rinf_derived"] = res.derived_value
        forms["ratio_rinf_paper"] = res.paper_value
    return forms


def default_matrix(seed: int = 0, workers: int = 1) -> List[Scenario]:
    """Twelve scenarios spanning zero, uniform, point, two-spot and piecewise
    killing, steady injection, the steady Green-function ratio, and drift.

    Each scenario's MC dt is the largest of 2, 4 or 8 times the step it
    had while mean times were taken at step ends (1e-3...1e-2) at which,
    over seeds 1000-1079, the mean z of every MC row of that scenario
    stays within +-0.3.  Where that is less than 8 times (two-spots,
    steady-dirac, green-rinf), what limits it is one of the in-step
    approximations of `montecarlo`: several spots taken as independent, a
    spot that ignores a reflecting end, the midpoint kill time of a
    kill/exit tie."""

    def mc(dt, n=4000, i=0):
        return McConfig(dt=dt, n_trajectories=n, seed=seed + i, workers=workers)

    return [
        Scenario(
            "zero-absorbing",
            "split",
            interval(PI),
            KillingMeasure.zero(),
            y=PI / 2,
            grid=GridSpec(200, 2e-3, 10.0),
            mc=mc(8e-2, i=1),
            mc_bias=0.02,
        ),
        Scenario(
            "uniform-wide",
            "split",
            interval(40.0),
            KillingMeasure.uniform(1.0),
            y=20.0,
            grid=GridSpec(400, 5e-3, 16.0),
            mc=mc(8e-2, i=2),
            mc_bias=0.01,
        ),
        Scenario(
            "uniform-reflecting",
            "split",
            interval(1.0, "reflecting", "reflecting"),
            KillingMeasure.uniform(1.0),
            y=0.5,
            grid=GridSpec(64, 2e-3, 16.0),
            mc=mc(8e-2, i=3),
            mc_bias=0.01,
        ),
        Scenario(
            "uniform-absorbing",
            "split",
            interval(2.0),
            KillingMeasure.uniform(1.0),
            y=0.7,
            grid=GridSpec(200, 1e-3, 8.0),
            mc=mc(4e-2, i=4),
            mc_bias=0.01,
        ),
        Scenario(
            "dirac-reference",
            "split",
            interval(PI),
            KillingMeasure.dirac([(2.0, 1.0)]),
            y=1.0,
            grid=GridSpec(400, 1e-3, 14.0),
            mc=mc(8e-2, n=6000, i=5),
            mc_bias=0.02,
        ),
        Scenario(
            "dirac-unit",
            "split",
            interval(1.0),
            KillingMeasure.dirac([(0.6, 5.0)]),
            y=0.3,
            grid=GridSpec(400, 2e-4, 2.0),
            mc=mc(8e-3, n=6000, i=6),
            mc_bias=0.02,
        ),
        Scenario(
            "two-spots",
            "green",
            interval(1.0),
            KillingMeasure.dirac([(0.3, 2.0), (0.7, 3.0)]),
            y=0.5,
            grid=GridSpec(400, 2e-4, 2.0),
            mc=mc(8e-3, n=6000, i=7),
            mc_bias=0.1,
        ),
        Scenario(
            "piecewise",
            "split",
            interval(1.0),
            KillingMeasure.piecewise([0.5], [0.5, 2.0]),
            y=0.4,
            grid=GridSpec(200, 2e-4, 2.0),
            mc=mc(8e-3, i=8),
            mc_bias=0.01,
        ),
        Scenario(
            "steady-dirac",
            "steady",
            interval(1.0, "absorbing", "injection", phi=1.0),
            KillingMeasure.dirac([(0.4, 2.0)]),
            grid=GridSpec(800, 1e-3, 1.0),
            mc=mc(1.6e-2, n=6000, i=9),
            mc_bias=0.05,
        ),
        Scenario(
            "steady-uniform",
            "steady",
            interval(1.0, "absorbing", "injection", phi=1.0),
            KillingMeasure.uniform(4.0),
            grid=GridSpec(800, 1e-3, 1.0),
            mc=mc(3.2e-2, n=6000, i=10),
            mc_bias=0.01,
        ),
        Scenario(
            "green-rinf",
            "green",
            interval(1.0),
            KillingMeasure.dirac([(0.25, 1.0)]),
            y=0.75,
            grid=GridSpec(800, 1e-4, 1.5),
            mc=mc(8e-3, n=20000, i=11),
            mc_bias=0.02,
        ),
        Scenario(
            "drift",
            "split",
            interval(2.0, diffusion=1.0, drift=0.5),
            KillingMeasure.uniform(1.0),
            y=0.7,
            grid=GridSpec(200, 1e-3, 8.0),
            mc=mc(4e-2, i=12),
            mc_bias=0.01,
        ),
    ]


def _run_split(sc: Scenario) -> List[Comparison]:
    rows: List[Comparison] = []
    ic = InitialCondition.point(sc.y)
    pde = split_statistics(sc.model, sc.killing, ic, sc.grid)
    mc = simulate_split(sc.model, sc.killing, sc.y, sc.mc)

    rows.append(
        _compare(sc.name, "pk+pa", "pde", pde.p_killed + pde.p_absorbed, "exact", 1.0, 1e-6)
    )
    rows.append(
        _compare(sc.name, "pk+pa", "mc", mc.p_killed + mc.p_absorbed, "exact", 1.0, 1e-12)
    )

    for obs, v_pde, v_mc, se in (
        ("p_killed", pde.p_killed, mc.p_killed, mc.p_killed_se),
        ("mean_kill_time", pde.mean_kill_time, mc.mean_kill_time, mc.mean_kill_time_se),
        ("mean_absorb_time", pde.mean_absorb_time, mc.mean_absorb_time, mc.mean_absorb_time_se),
    ):
        if math.isnan(v_pde) or math.isnan(v_mc):
            continue  # conditional mean undefined for at least one method
        tol = max(3 * se + sc.mc_bias * max(1.0, abs(v_pde)), 1e-6)
        rows.append(_compare(sc.name, obs, "pde", v_pde, "mc", v_mc, tol, sigma=se))

    forms = closed_forms(sc.model, sc.killing, sc.y)
    if "mean_kill_time" in forms:
        mk = forms["mean_kill_time"]
        if sc.killing.spots:  # a single spot's forms
            pk = forms["p_killed"]
            rows.append(_compare(sc.name, "p_killed", "analytic", pk, "pde", pde.p_killed, 2e-3))
            tol = 5e-3 * max(1.0, mk)
        else:
            tol = 1e-4  # E[T] = 1/v0 holds exactly on a closed domain
        rows.append(
            _compare(sc.name, "mean_kill_time", "analytic", mk, "pde", pde.mean_kill_time, tol)
        )
    return rows


def _run_steady(sc: Scenario) -> List[Comparison]:
    rows: List[Comparison] = []
    sol = steady_state(sc.model, sc.killing, sc.grid)
    rows.append(
        _compare(
            sc.name,
            "conservation",
            "pde",
            sol.absorbed_flux + sol.kill_integral,
            "exact",
            sol.injected_flux,
            1e-10,
        )
    )
    mc_ratio, mc_se = simulate_rs(sc.model, sc.killing, sc.mc)
    ref = closed_forms(sc.model, sc.killing, sc.y).get("ratio_rs")
    if ref is None:
        # no closed form (drift, piecewise or several spots): PDE against MC
        tol = 3 * mc_se + sc.mc_bias * abs(sol.ratio_rs)
        rows.append(
            _compare(sc.name, "ratio_rs", "pde", sol.ratio_rs, "mc", mc_ratio, tol, sigma=mc_se)
        )
        return rows
    rows.append(
        _compare(sc.name, "ratio_rs", "analytic", ref, "pde", sol.ratio_rs, 1e-3 * ref)
    )
    tol = 3 * mc_se + sc.mc_bias * ref
    rows.append(
        _compare(sc.name, "ratio_rs", "analytic", ref, "mc", mc_ratio, tol, sigma=mc_se)
    )
    return rows


def _run_green(sc: Scenario) -> List[Comparison]:
    rows: List[Comparison] = []
    gr = green_steady(sc.model, sc.killing, sc.y, sc.grid)
    pde = split_statistics(sc.model, sc.killing, InitialCondition.point(sc.y), sc.grid)
    rows.append(
        _compare(
            sc.name,
            "ratio_rinf",
            "green_steady",
            gr.ratio_rinf,
            "split_stats",
            pde.ratio_rinf,
            1e-3 * max(1.0, abs(gr.ratio_rinf)),
        )
    )
    mc = simulate_split(sc.model, sc.killing, sc.y, sc.mc)
    tol = 3 * mc.ratio_rinf_se + sc.mc_bias * max(1.0, abs(gr.ratio_rinf))
    rows.append(
        _compare(
            sc.name,
            "ratio_rinf",
            "green_steady",
            gr.ratio_rinf,
            "mc",
            mc.ratio_rinf,
            tol,
            sigma=mc.ratio_rinf_se,
        )
    )
    forms = closed_forms(sc.model, sc.killing, sc.y)
    if "ratio_rinf_derived" in forms:
        derived = forms["ratio_rinf_derived"]
        rows.append(
            _compare(
                sc.name, "ratio_rinf", "analytic_derived", derived,
                "green_steady", gr.ratio_rinf, 1e-3 * derived,
            )
        )
        rows.append(
            _compare(
                sc.name, "paper*derived", "analytic", forms["ratio_rinf_paper"] * derived,
                "exact", 1.0, 1e-9,
            )
        )
    return rows


def paper_resolvent_cosine_sum(x: float, y: float, q: float) -> float:
    """The source text's cosh/tanh cosine-sum resolvent, kept verbatim for
    the discrepancy table (it does not reproduce its own series)."""
    if q <= 0:
        raise ValueError("paper formula quoted for q > 0")
    s = math.sqrt(q)

    def su(z: float) -> float:
        return (math.cosh(s * z) / math.tanh(s * PI) - 1.0 / (s * PI)) * PI / (2 * s)

    return (su(x - y) - su(x + y)) / PI


def build_discrepancy_table() -> Tuple[Discrepancy, ...]:
    y, x1, q = 1.0, 2.0, 1.0
    mfpt = analytic.conditional_mean_kill_time_dirac(y, x1, 1.0)
    rinf = analytic.ratio_rinf_dirac_interval(1.0, 1.0, 1.0, 0.75, 0.25)
    return (
        Discrepancy(
            "survival_transform_at_zero(y=1)",
            analytic.paper_q_polynomial(y) / (6 * PI),
            y * (PI - y) / 2,
            "printed Q(y)/(6 pi) vs what the resolvent series sums to",
        ),
        Discrepancy(
            "resolvent(x=1;y=2;q=1)",
            paper_resolvent_cosine_sum(1.0, 2.0, q),
            analytic.green_laplace_closed(1.0, 2.0, q),
            "printed cosh/tanh cosine sum vs sinh-product form matching the series",
        ),
        Discrepancy(
            "conditional_mfpt(x1=2;y=1;V=1)",
            mfpt.paper_value,
            mfpt.derived_value,
            "printed closed form (misprinted n^-4 sum) vs -(alpha+beta) with corrected sum",
        ),
        Discrepancy(
            "rinf(D=1;k=1;L=1;x1=0.75;y=0.25)",
            rinf.paper_value,
            rinf.derived_value,
            "printed ratio is the exact reciprocal of absorbed/killed",
        ),
        Discrepancy(
            "survival_decay_rate(y=pi/2)",
            6 * PI / analytic.series_q_polynomial(PI / 2),
            1.0,
            "claimed 6 pi/Q(y) decay rate vs the y-independent spectral rate",
        ),
    )


def run_matrix(
    scenarios: Optional[Sequence[Scenario]] = None,
    seed: int = 0,
    workers: int = 1,
) -> ComparisonReport:
    if scenarios is None:
        scenarios = default_matrix(seed=seed, workers=workers)
    rows: List[Comparison] = []
    for sc in scenarios:
        runner = {"split": _run_split, "steady": _run_steady, "green": _run_green}[sc.kind]
        try:
            rows.extend(runner(sc))
        except Exception as exc:  # record per-scenario errors, not fatal
            rows.append(
                Comparison(
                    sc.name, "error", "-", math.nan, "-", math.nan, 0.0, 0.0, False,
                    note=f"{type(exc).__name__}: {exc}",
                )
            )
    return ComparisonReport(tuple(rows), build_discrepancy_table())


@dataclass(frozen=True)
class MfptVerdict:
    sign_combination: str  # e.g. "-(alpha+beta)" or "inconclusive"
    table: Tuple[Tuple[float, float, float, float, Dict[str, float]], ...]
    # rows of (x1, y, V, oracle, candidate values)


def adjudicate_conditional_mfpt(
    points: Optional[Sequence[Tuple[float, float, float]]] = None,
    tol: float = 1e-4,
) -> MfptVerdict:
    """Decide which sign combination of (alpha, beta) reproduces the
    Laplace-derivative oracle for the conditional mean kill time."""
    if points is None:
        points = [
            (x1, y, V)
            for x1 in (PI / 4, PI / 2, 3 * PI / 4)
            for y in (PI / 4, PI / 2, 3 * PI / 4)
            for V in (0.0, 1.0, 10.0)
        ]
    combos: Dict[str, Callable[[float, float], float]] = {
        "alpha+beta": lambda a, b: a + b,
        "-alpha+beta": lambda a, b: -a + b,
        "alpha-beta": lambda a, b: a - b,
        "-(alpha+beta)": lambda a, b: -(a + b),
    }
    hits = {name: 0 for name in combos}
    table = []
    for x1, y, V in points:
        def log_kill_transform(q: float) -> float:
            g = analytic.green_laplace_closed(x1, y, q)
            return math.log(g / (1 + V * analytic.green_laplace_closed(x1, x1, q)))

        d, _ = derivative_at_zero(log_kill_transform, h0=0.02, levels=9)
        oracle = -d
        res = analytic.conditional_mean_kill_time_dirac(y, x1, V)
        values = {name: f(res.alpha, res.beta) for name, f in combos.items()}
        for name, v in values.items():
            if abs(v - oracle) <= tol * max(1.0, abs(oracle)):
                hits[name] += 1
        table.append((x1, y, V, oracle, values))
    n = len(points)
    winners = [name for name, h in hits.items() if h >= 0.9 * n]
    # degenerate combos can tie at V=0 only; require a full-grid winner
    exact = [name for name in winners if hits[name] == n]
    verdict = exact[0] if len(exact) >= 1 else "inconclusive"
    return MfptVerdict(verdict, tuple(table))
