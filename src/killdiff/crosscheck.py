"""Adjudication harness: runs closed forms, the PDE solver and Monte Carlo
on a scenario matrix, compares every observable pairwise, resolves the
formula variants that disagree with their own series, and emits a
machine-readable report.  `route_table` gives each route's observables by
name, and `BANDS`, the band table, is the one place a row's band lives."""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields
from itertools import groupby
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import analytic
from .analytic import PI, UnitScaling
from .fpe import GridSpec, green_steady, split_statistics, steady_state
from .model import (
    BoundaryKind,
    DiffusionModel,
    InitialCondition,
    KillingMeasure,
    SplitStatistics,
    interval,
)
from .montecarlo import McConfig, simulate_rs, simulate_split
from .numerics import AccuracyError


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

    def __post_init__(self):
        if self.kind not in ("split", "steady", "green"):
            raise ValueError(f"unknown scenario kind {self.kind!r}: not split, steady or green")


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


# cells the csv module writes as str(v), which is repr(v), and never quotes
_PLAIN_CELLS = frozenset((float, int))


def write_rows(path: str, header: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """Write a CSV file: the header, then one line per row.  A float cell
    (np.float64 too) is written as repr(float(v)), a bool as 0 or 1 and any
    other cell as str(v); a cell holding a comma, quote or newline is
    quoted, and so is every text cell of a row whose text holds a carriage
    return, which the csv module before Python 3.13 leaves bare.  Every CSV
    file the package writes goes through here.

    Each run of rows whose cells are all float or int is written in one
    batch of lines ",".join(map(repr, row)): the bytes the csv module
    writes for them, without its per-cell work.  Every other row goes
    through the csv module with its bools converted; the csv module writes
    str(v) for the rest, which for np.float64 is already repr(float(v))."""
    with open(path, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        quoted = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_NONNUMERIC)
        out.writerow(header)
        for plain, run in groupby(rows, lambda row: _PLAIN_CELLS.issuperset(map(type, row))):
            if plain:
                f.write("\n".join([",".join(map(repr, row)) for row in run]) + "\n")
                continue
            for row in run:
                row = [int(v) if isinstance(v, bool) else v for v in row]
                crlf = any(isinstance(v, str) and "\r" in v for v in row)
                (quoted if crlf else out).writerow(row)


def _passed(va: float, vb: float, tol: float) -> bool:
    return (math.isinf(va) and va == vb) or bool(abs(va - vb) <= tol)


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
    kinds = set(dom.ends)
    D, L = model.diffusion, dom.length
    # zero killing first: a spot of strength 0 is no single point killing
    uniform = not killing.is_zero and len(killing.rates) == 1 and not killing.spots
    one_spot = not killing.is_zero and len(killing.spots) == 1 and not any(killing.rates)
    if dom.is_channel:
        if uniform:
            return {"ratio_rs": analytic.ratio_rs_uniform(D, killing.rates[0], L)}
        if one_spot:
            xs, ks = killing.spots[0]
            d_abs = xs if dom.left.kind is BoundaryKind.ABSORBING else L - xs
            return {"ratio_rs": analytic.ratio_rs_dirac(D, ks, d_abs)}
        return {}
    if kinds == {BoundaryKind.REFLECTING} and uniform:
        return {
            "p_killed": 1.0, "p_absorbed": 0.0,
            "mean_kill_time": 1.0 / killing.rates[0], "ratio_rinf": 0.0,
        }
    if kinds != {BoundaryKind.ABSORBING}:
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
            KillingMeasure(),
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


Route = Dict[str, Tuple[float, float]]  # observable -> (value, sigma)


def _split_route(stats: SplitStatistics) -> Route:
    route = {"pk+pa": (stats.p_killed + stats.p_absorbed, 0.0)}  # an identity: no sigma
    for name in ("p_killed", "mean_kill_time", "mean_absorb_time", "ratio_rinf"):
        route[name] = (getattr(stats, name), getattr(stats, name + "_se"))
    return route


def route_table(sc: Scenario) -> Dict[str, Route]:
    """Each route's observables, {route: {observable: (value, sigma)}}.  The
    kind sets the solver and MC calls, in this order: split runs
    split_statistics as `pde`, then simulate_split as `mc`; green runs
    green_steady, then the same two with `pde` named `split_stats`; steady
    runs steady_state as `pde`, then simulate_rs as `mc`.  `exact` holds the
    values the kind's identities must take, and `analytic` and
    `analytic_derived` what closed_forms returns."""
    if sc.kind == "steady":
        sol = steady_state(sc.model, sc.killing, sc.grid)
        conservation = (sol.absorbed_flux + sol.kill_integral, 0.0)
        routes = {
            "pde": {"conservation": conservation, "ratio_rs": (sol.ratio_rs, 0.0)},
            "exact": {"conservation": (sol.injected_flux, 0.0)},
            "mc": {"ratio_rs": simulate_rs(sc.model, sc.killing, sc.mc)},
        }
    else:
        green = sc.kind == "green"
        routes = {}
        if green:
            gr = green_steady(sc.model, sc.killing, sc.y, sc.grid)
            routes["green_steady"] = {"ratio_rinf": (gr.ratio_rinf, 0.0)}
        pde = split_statistics(sc.model, sc.killing, InitialCondition.point(sc.y), sc.grid)
        routes["split_stats" if green else "pde"] = _split_route(pde)
        routes["mc"] = _split_route(simulate_split(sc.model, sc.killing, sc.y, sc.mc))
        routes["exact"] = {"paper*derived" if green else "pk+pa": (1.0, 0.0)}
    forms = closed_forms(sc.model, sc.killing, sc.y)
    routes["analytic"] = {name: (value, 0.0) for name, value in forms.items()}
    if "ratio_rinf_derived" in forms:
        derived = forms["ratio_rinf_derived"]
        routes["analytic_derived"] = {"ratio_rinf": (derived, 0.0)}
        routes["analytic"]["paper*derived"] = (forms["ratio_rinf_paper"] * derived, 0.0)
    return routes


def _mc_band(ref: float, sigma: float, sc: Scenario) -> float:
    return max(3 * sigma + sc.mc_bias * max(1.0, abs(ref)), 1e-6)


def _steady_mc_band(ref: float, sigma: float, sc: Scenario) -> float:
    return 3 * sigma + sc.mc_bias * abs(ref)


# Every row the report can hold, in report order, and its band: (observable,
# route a, route b) -> (tol, when).  A scenario makes the row where both routes
# hold the observable, neither value is NaN (a conditional mean of no events;
# an observable a route does not hold reads NaN) and `when` is None or holds of
# (scenario, routes).  tol may be tol(value a, sigma, scenario).
BANDS: Dict[Tuple[str, str, str], Tuple[Union[float, Callable], Optional[Callable]]] = {
    ("pk+pa", "pde", "exact"): (1e-6, None),
    ("pk+pa", "mc", "exact"): (1e-12, None),
    ("p_killed", "pde", "mc"): (_mc_band, None),
    ("mean_kill_time", "pde", "mc"): (_mc_band, None),
    ("mean_absorb_time", "pde", "mc"): (_mc_band, None),
    # a single spot's forms only: the one form with a spot that kills
    ("p_killed", "analytic", "pde"): (2e-3, lambda sc, _: any(k > 0 for _, k in sc.killing.spots)),
    # E[T] = 1/v0 holds exactly on a closed box, the one form without a spot
    ("mean_kill_time", "analytic", "pde"): (
        lambda mk, _, sc: 5e-3 * max(1.0, mk) if sc.killing.spots else 1e-4, None
    ),
    ("conservation", "pde", "exact"): (1e-10, None),
    # only without a closed form (drift, piecewise or several spots)
    ("ratio_rs", "pde", "mc"): (_steady_mc_band, lambda _, r: "ratio_rs" not in r["analytic"]),
    ("ratio_rs", "analytic", "pde"): (lambda ref, *_: 1e-3 * abs(ref), None),
    ("ratio_rs", "analytic", "mc"): (_steady_mc_band, None),
    ("ratio_rinf", "green_steady", "split_stats"): (lambda ref, *_: 1e-3 * max(1.0, abs(ref)), None),
    ("ratio_rinf", "green_steady", "mc"): (_mc_band, None),
    ("ratio_rinf", "analytic_derived", "green_steady"): (lambda ref, *_: 1e-3 * abs(ref), None),
    ("paper*derived", "analytic", "exact"): (1e-9, None),
}


def _rows(sc: Scenario, routes: Dict[str, Route]) -> List[Comparison]:
    rows = []
    for (obs, a, b), (tol, when) in BANDS.items():
        va, sa = routes.get(a, {}).get(obs, (math.nan, 0.0))
        vb, sb = routes.get(b, {}).get(obs, (math.nan, 0.0))
        if math.isnan(va) or math.isnan(vb) or (when and not when(sc, routes)):
            continue
        sigma = math.hypot(sa, sb)  # the routes' errors are independent
        tol = tol(va, sigma, sc) if callable(tol) else tol
        rows.append(Comparison(sc.name, obs, a, va, b, vb, sigma, tol, _passed(va, vb, tol)))
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
        try:
            rows.extend(_rows(sc, route_table(sc)))
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
    Laplace-derivative oracle for the conditional mean kill time: minus the
    one-sided q-derivative at 0 of the log kill transform, by SciPy's
    `derivative` (imported here, so `import killdiff` does not load it)."""
    from scipy.differentiate import derivative

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

        d = derivative(np.vectorize(log_kill_transform), 0.0, step_direction=1, initial_step=0.02)
        if not d.success:
            raise AccuracyError(f"the q-derivative at x1={x1:.4g}, y={y:.4g}, V={V:.4g} did not converge")
        oracle = -float(d.df)
        res = analytic.conditional_mean_kill_time_dirac(y, x1, V)
        values = {name: f(res.alpha, res.beta) for name, f in combos.items()}
        for name, v in values.items():
            if abs(v - oracle) <= tol * max(1.0, abs(oracle)):
                hits[name] += 1
        table.append((x1, y, V, oracle, values))
    # degenerate combos can tie at V=0 only; require a full-grid winner
    exact = [name for name, h in hits.items() if h == len(points)]
    return MfptVerdict(exact[0] if exact else "inconclusive", tuple(table))
