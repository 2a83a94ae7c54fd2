"""Command-line interface: scenario config parsing, one subcommand per
solver, parameter sweeps, and the cross-validation run.

Scenario configs are INI files with sections:

    [domain]     length, left, right (absorbing|reflecting|injection), phi
    [diffusion]  d, drift
    [killing]    kind (zero|uniform|dirac|piecewise), v0,
                 spots = "x:strength, x:strength", breakpoints, rates
    [initial]    y
    [method]     method (analytic|pde|mc|all), cells, dt, t_max,
                 mc_dt, mc_n, mc_seed, mc_workers
    [output]     dir

Unknown sections or keys are rejected.  All quantities are dimensionless;
supply consistent units (d in length^2/time, rates in 1/time, spot
strengths in length/time).  `dt` and `t_max` set the steps of `pde`
evolution only: `split --method pde` is the exact infinite-horizon sum of
the Crank-Nicolson scheme and depends on `cells` alone.

The MC worker count is `--workers`, else the KILLDIFF_WORKERS environment
variable, else the config's `mc_workers`; it must be an integer >= 1.

CSV schemas (stable):
    survival.csv   t,survival,stderr
    split.csv      method,p_killed,p_absorbed,mean_kill_time,
                   mean_absorb_time,ratio_rinf,(same)_se
    steady.csv     quantity,value          (injected/absorbed/kill/ratio_rs)
    green.csv      quantity,value          (absorbed/kill/ratio_rinf)
    analytic.csv   name,value
    sweep.csv      param,value,observable,method,result
    histogram.csv  bin_left,bin_right,density
    report.csv     scenario,observable,method_a,value_a,method_b,value_b,
                   sigma,tol,passed,note

Every subcommand parses its config, calls the library and writes the
result.  `analytic` and `split --method analytic` write what
`crosscheck.closed_forms` returns (the split writes NaN for a mean time it
has no form for); closed forms hold only without drift.
`mc` runs one simulation and takes the survival curve, the kill-location
histogram (skipped when nothing was killed) and the split from it.

`[initial] y` is the point every route starts from; no other initial
condition exists.  `sweep --param v0` sets uniform killing at each value and
so refuses a scenario whose killing is dirac or piecewise; `sweep --param y`
refuses a steady scenario, whose injected state has no start point.
`mc --points` and `pde --stride` must be positive integers.

Exit codes: 0 success, 1 failed row in `crosscheck`, 2 config or usage
error (including a count below 1), no closed form, or an input the library
refuses with a `model.InputError` (e.g. the wrong ends for
`pde --mode steady|green`, or a grid too coarse for the drift: cell Peclet
number |drift|*dx/(2d) not below 1); `sweep` names the swept value that was
refused.  Any other exception is a fault and keeps its traceback.  Identical
invocations with identical seeds and worker counts produce byte-identical
output files.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import crosscheck, fpe, montecarlo
from .fpe import GridSpec
from .model import (
    BoundaryKind,
    DiffusionModel,
    InitialCondition,
    InputError,
    KillingKind,
    KillingMeasure,
    SplitStatistics,
    interval,
    require_valid,
    validate_problem,
)
from .montecarlo import McConfig


class ConfigError(Exception):
    pass


_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "domain": ("length", "left", "right", "phi"),
    "diffusion": ("d", "drift"),
    "killing": ("kind", "v0", "spots", "breakpoints", "rates"),
    "initial": ("y",),
    "method": (
        "method", "cells", "dt", "t_max", "mc_dt", "mc_n", "mc_seed", "mc_workers",
    ),
    "output": ("dir",),
}


@dataclass(frozen=True)
class ScenarioConfig:
    model: DiffusionModel
    killing: KillingMeasure
    y: float
    method: str
    grid: GridSpec
    mc: McConfig
    out_dir: str


def _floats(text: str) -> List[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def parse_config(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    if not cp.read(path):
        raise ConfigError(f"cannot read config file {path!r}")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        return _build_config(cp)
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc


def _build_config(cp: configparser.ConfigParser) -> ScenarioConfig:
    if "domain" not in cp:
        raise ConfigError("missing required section [domain]")
    dom = cp["domain"]
    length = float(dom["length"])
    diff = cp["diffusion"] if "diffusion" in cp else {}
    model = interval(
        length,
        dom.get("left", "absorbing"),
        dom.get("right", "absorbing"),
        diffusion=float(diff.get("d", 1.0)),
        drift=float(diff.get("drift", 0.0)),
        phi=float(dom.get("phi", 0.0)),
    )

    ks = cp["killing"] if "killing" in cp else {"kind": "zero"}
    kind = ks.get("kind", "zero")
    if kind == "zero":
        killing = KillingMeasure.zero()
    elif kind == "uniform":
        killing = KillingMeasure.uniform(float(ks["v0"]))
    elif kind == "dirac":
        spots = []
        for item in ks["spots"].split(","):
            pos, _, strength = item.partition(":")
            if not strength:
                raise ConfigError(f"spot {item.strip()!r} must be 'position:strength'")
            spots.append((float(pos), float(strength)))
        killing = KillingMeasure.dirac(spots)
    elif kind == "piecewise":
        killing = KillingMeasure.piecewise(_floats(ks["breakpoints"]), _floats(ks["rates"]))
    else:
        raise ConfigError(f"unknown killing kind {kind!r}")

    y = float(cp["initial"]["y"]) if "initial" in cp and "y" in cp["initial"] else length / 2

    m = cp["method"] if "method" in cp else {}
    method = m.get("method", "all")
    if method not in ("analytic", "pde", "mc", "all"):
        raise ConfigError(f"unknown method {method!r}")
    grid = GridSpec(
        int(m.get("cells", 200)), float(m.get("dt", 1e-3)), float(m.get("t_max", 10.0))
    )
    mc = McConfig(
        dt=float(m.get("mc_dt", 1e-3)),
        n_trajectories=int(m.get("mc_n", 10000)),
        seed=int(m.get("mc_seed", 0)),
        workers=int(m.get("mc_workers", 1)),
    )
    out_dir = cp["output"]["dir"] if "output" in cp and "dir" in cp["output"] else "."

    report = validate_problem(model, killing, InitialCondition.point(y))
    if not report.ok:
        raise ConfigError("; ".join(report.violations))
    return ScenarioConfig(model, killing, y, method, grid, mc, out_dir)


# --- output helpers --------------------------------------------------------

def _out_path(cfg_dir: str, args, name: str) -> str:
    d = args.out if args.out else cfg_dir
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)


def _write_rows(path: str, header: str, rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", newline="") as f:
        f.write(header + "\n")
        for row in rows:
            cells = (repr(float(v)) if isinstance(v, float) else str(v) for v in row)
            f.write(",".join(cells) + "\n")
    print(f"wrote {path}")


def _workers(args, default: int) -> int:
    """MC worker count: --workers, else KILLDIFF_WORKERS, else default."""
    if args.workers is not None:
        value, source = args.workers, "--workers"
    else:
        text = os.environ.get("KILLDIFF_WORKERS", "")
        if not text:
            return default
        source = "KILLDIFF_WORKERS"
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{source} must be an integer, got {text!r}") from None
    if value < 1:
        raise ConfigError(f"{source} must be at least 1, got {value}")
    return value


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    mc = cfg.mc
    if args.seed is not None:
        mc = replace(mc, seed=args.seed)
    mc = replace(mc, workers=_workers(args, mc.workers))
    return replace(cfg, mc=mc)


def _split_rows(cfg: ScenarioConfig) -> List[Tuple[str, SplitStatistics]]:
    rows: List[Tuple[str, SplitStatistics]] = []
    methods = ("analytic", "pde", "mc") if cfg.method == "all" else (cfg.method,)
    for m in methods:
        if m == "analytic":
            forms = crosscheck.closed_forms(cfg.model, cfg.killing, cfg.y)
            if "p_killed" not in forms:
                if cfg.method == "analytic":
                    raise ConfigError("no closed-form split statistics for this scenario")
                continue
            stats = SplitStatistics(
                forms["p_killed"], forms["p_absorbed"],
                forms.get("mean_kill_time", math.nan),
                forms.get("mean_absorb_time", math.nan), forms["ratio_rinf"],
            )
        elif m == "pde":
            stats = fpe.split_statistics(
                cfg.model, cfg.killing, InitialCondition.point(cfg.y), cfg.grid
            )
        else:
            stats = montecarlo.simulate_split(cfg.model, cfg.killing, cfg.y, cfg.mc)
        rows.append((m, stats))
    return rows


# --- subcommands -----------------------------------------------------------

def _cmd_analytic(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    forms = crosscheck.closed_forms(cfg.model, cfg.killing, cfg.y)
    if not forms:
        raise ConfigError("no closed form applies to this scenario")
    _write_rows(_out_path(cfg.out_dir, args, "analytic.csv"), "name,value", list(forms.items()))
    return 0


def _cmd_pde(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    if args.mode == "steady":
        sol = fpe.steady_state(cfg.model, cfg.killing, cfg.grid)
        _write_rows(
            _out_path(cfg.out_dir, args, "steady.csv"),
            "quantity,value",
            [
                ("injected_flux", sol.injected_flux),
                ("absorbed_flux", sol.absorbed_flux),
                ("kill_integral", sol.kill_integral),
                ("ratio_rs", sol.ratio_rs),
            ],
        )
        return 0
    if args.mode == "green":
        gr = fpe.green_steady(cfg.model, cfg.killing, cfg.y, cfg.grid)
        _write_rows(
            _out_path(cfg.out_dir, args, "green.csv"),
            "quantity,value",
            [
                ("absorbed_flux", gr.absorbed_flux),
                ("kill_integral", gr.kill_integral),
                ("ratio_rinf", gr.ratio_rinf),
            ],
        )
        return 0
    res = fpe.evolve(cfg.model, cfg.killing, InitialCondition.point(cfg.y), cfg.grid)
    s = res.series
    rows = [(t, sv, 0.0) for t, sv in zip(s.times[::args.stride], s.survival[::args.stride])]
    _write_rows(_out_path(cfg.out_dir, args, "survival.csv"), "t,survival,stderr", rows)
    return 0


def _cmd_mc(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    out = montecarlo.simulate_outcomes(cfg.model, cfg.killing, cfg.y, cfg.mc)
    times, surv, se = montecarlo.survival_curve(out, args.points)
    _write_rows(
        _out_path(cfg.out_dir, args, "survival.csv"),
        "t,survival,stderr",
        list(zip(times, surv, se)),
    )
    if args.histogram and out.killed.any():
        edges, density = montecarlo.kill_location_histogram(out, min_events=1)
        _write_rows(
            _out_path(cfg.out_dir, args, "histogram.csv"),
            "bin_left,bin_right,density",
            list(zip(edges, edges[1:], density)),
        )
    _write_rows(
        _out_path(cfg.out_dir, args, "split.csv"),
        _SPLIT_HEADER,
        [_split_row("mc", montecarlo.split_from_outcomes(out))],
    )
    return 0


_SPLIT_HEADER = (
    "method,p_killed,p_absorbed,mean_kill_time,mean_absorb_time,ratio_rinf,"
    "p_killed_se,p_absorbed_se,mean_kill_time_se,mean_absorb_time_se,ratio_rinf_se"
)


def _split_row(method: str, s: SplitStatistics) -> Tuple[object, ...]:
    return (
        method, s.p_killed, s.p_absorbed, s.mean_kill_time, s.mean_absorb_time,
        s.ratio_rinf, s.p_killed_se, s.p_absorbed_se, s.mean_kill_time_se,
        s.mean_absorb_time_se, s.ratio_rinf_se,
    )


def _cmd_split(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    if args.method:
        cfg = replace(cfg, method=args.method)
    rows = [_split_row(m, s) for m, s in _split_rows(cfg)]
    _write_rows(_out_path(cfg.out_dir, args, "split.csv"), _SPLIT_HEADER, rows)
    return 0


_SWEEPABLE = ("length", "y", "v0", "spot_position", "drift", "diffusion")


def _with_param(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    model, killing, y = cfg.model, cfg.killing, cfg.y
    if param == "length":
        model = DiffusionModel(
            replace(model.domain, length=value), model.diffusion, model.drift
        )
    elif param == "y":
        y = value
    elif param == "v0":
        if killing.kind not in (KillingKind.ZERO, KillingKind.UNIFORM):
            raise ConfigError(f"v0 sweep needs zero or uniform killing, not {killing.kind.value}")
        killing = KillingMeasure.uniform(value)
    elif param == "spot_position":
        if killing.kind is not KillingKind.DIRAC or len(killing.spots) != 1:
            raise ConfigError("spot_position sweep needs a single-spot point killing")
        killing = KillingMeasure.dirac([(value, killing.spots[0][1])])
    elif param == "drift":
        model = DiffusionModel(model.domain, model.diffusion, value)
    elif param == "diffusion":
        model = DiffusionModel(model.domain, value, model.drift)
    else:
        raise ConfigError(f"sweep parameter must be one of {_SWEEPABLE}")
    return replace(cfg, model=model, killing=killing, y=y)


def _cmd_sweep(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    try:
        values = _floats(args.values)
    except ValueError as exc:
        raise ConfigError(f"bad --values: {exc}") from exc
    if not values:
        raise ConfigError("--values is empty")
    dom = cfg.model.domain
    steady = (dom.left.kind, dom.right.kind).count(BoundaryKind.INJECTION) == 1
    rows = []
    for v in values:
        try:
            sub = _with_param(cfg, args.param, v)
            if steady and args.param == "y":
                raise ConfigError("the steady state has no start point to sweep")
            if steady:
                sol = fpe.steady_state(sub.model, sub.killing, sub.grid)
                rows.append((args.param, v, "ratio_rs", "pde", sol.ratio_rs))
            else:
                require_valid(sub.model, sub.killing, InitialCondition.point(sub.y))
                for m, s in _split_rows(sub):
                    rows.append((args.param, v, "ratio_rinf", m, s.ratio_rinf))
                    rows.append((args.param, v, "p_killed", m, s.p_killed))
        except (ConfigError, InputError) as exc:
            raise ConfigError(f"{args.param}={v}: {exc}") from exc
    _write_rows(
        _out_path(cfg.out_dir, args, "sweep.csv"),
        "param,value,observable,method,result",
        rows,
    )
    return 0


def _cmd_crosscheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    report = crosscheck.run_matrix(seed=seed, workers=_workers(args, 1))
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    report.write_csv(os.path.join(out, "report.csv"))
    report.write_discrepancies_csv(os.path.join(out, "discrepancies.csv"))
    summary = report.summary()
    with open(os.path.join(out, "summary.txt"), "w") as f:
        f.write(summary + "\n")
    print(summary)
    return 0 if report.all_passed else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="killdiff",
        description="Killed diffusion in an interval: closed forms, PDE solver, Monte Carlo.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the MC seed")
    parser.add_argument(
        "--workers", type=int, default=None,
        help="MC worker count (default: KILLDIFF_WORKERS env var or config)",
    )
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="evaluate applicable closed forms")
    p.add_argument("config")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("pde", help="Fokker-Planck solve (evolve, steady or green)")
    p.add_argument("config")
    p.add_argument("--mode", choices=("evolve", "steady", "green"), default="evolve")
    p.add_argument("--stride", type=_positive_int, default=10, help="survival output stride")
    p.set_defaults(func=_cmd_pde)

    p = sub.add_parser("mc", help="Monte Carlo simulation")
    p.add_argument("config")
    p.add_argument(
        "--points", type=_positive_int, default=50, help="survival curve sample count"
    )
    p.add_argument("--histogram", action="store_true", help="emit kill-location histogram")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("split", help="absorbed/killed split statistics")
    p.add_argument("config")
    p.add_argument("--method", choices=("analytic", "pde", "mc", "all"), default=None)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("sweep", help="sweep one parameter and tabulate observables")
    p.add_argument("config")
    p.add_argument("--param", required=True, choices=_SWEEPABLE)
    p.add_argument("--values", required=True, help="comma/space separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("crosscheck", help="run the cross-validation scenario matrix")
    p.set_defaults(func=_cmd_crosscheck)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
