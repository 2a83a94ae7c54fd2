"""Command-line interface: scenario config parsing, one subcommand per
solver, parameter sweeps, and the cross-validation run.

Scenario configs are INI files with sections:

    [domain]     length, left, right (absorbing|reflecting|injection), phi
    [diffusion]  d, drift
    [killing]    rates, breakpoints, spots = "x:strength, x:strength"
    [initial]    y
    [method]     method (analytic|pde|mc|all), cells, dt, t_max,
                 mc_dt, mc_n, mc_seed
    [output]     dir

`[killing]` states the one killing measure, `model.KillingMeasure`: a rate
that is constant between breakpoints (one more rate than breakpoints;
default one rate, 0, and no breakpoints) plus point spots (default none).
With no positive rate or strength it is zero killing.  Unknown sections
(`[DEFAULT]` among them) or keys, and numbers that are not finite, are
rejected.  The file is read as UTF-8, and values as written: a `%` is a
plain character, not interpolation.  All quantities are dimensionless;
supply consistent units (d in length^2/time, rates in 1/time, spot
strengths in length/time).  `dt` and `t_max` set the reported times of
`pde` evolution only: `split --method pde` is the exact infinite-horizon
integral of the semi-discrete solution and depends on `cells` alone.

The MC worker count is `--workers` (a positive integer, default 1).

CSV schemas (stable; `crosscheck.write_rows` writes every file):
    survival.csv   t,survival,stderr
    split.csv      method, then the fields of `model.SplitStatistics`
    steady.csv     quantity,value: the scalar fields of `model.SteadyStateSolution`
    green.csv      quantity,value: the scalar fields of `fpe.GreenSteadyResult`
    analytic.csv   name,value
    sweep.csv      param,value,observable,method,result
    histogram.csv  bin_left,bin_right,density
    report.csv     the fields of `crosscheck.Comparison`
    discrepancies.csv  the fields of `crosscheck.Discrepancy`

`main` parses the config once, applies `--seed` and `--workers`, and writes
each table a subcommand returns, under `--out` or else `[output] dir`,
printing `wrote <path>` for each; a subcommand only calls the library.
`crosscheck` has no config and writes its own report.  `analytic`,
`split --method analytic` and the analytic rows of a steady `sweep` write
what `crosscheck.closed_forms` returns (the split writes NaN for a mean
time it has no form for); closed forms hold only without drift.
`mc` runs one simulation and takes the survival curve (at up to `--points`
multiples of `mc_dt`), the kill-location histogram (skipped when nothing
was killed) and the split from it.

`[initial] y` is the point every route starts from; no other initial
condition exists.  An injection end reflects that particle on every route;
its inflow enters `pde` time evolution and the steady solves alone.  An
absorbed/killed ratio is inf when nothing is killed.  A sweep edits one
field of the measure and keeps the rest: `sweep --param v0` sets the one
rate and keeps the spots, so it refuses a measure with breakpoints;
`sweep --param spot_position` moves the one spot and keeps the rate, so it
refuses any other number of spots.  `sweep --param y` refuses a steady
scenario, which has no start point.  `pde --stride` sets the steps whose
survival `pde` computes and writes: every stride-th (default 10), from
t = 0.  `mc --points` and `pde --stride` must be positive integers.

`main` may be called any number of times in one process; each call
parses its own arguments against the one parser `build_parser` builds.

Exit codes: 0 success, 1 failed row in `crosscheck`, 2 usage error
(including a count below 1) or refused input.  Every refused input is a
`model.InputError`, raised by the config parser (an unreadable or malformed
file, unknown keys, values out of range or not finite), by a subcommand (no
closed form, a sweep that cannot edit its field) or by the library (e.g.
the wrong ends for `pde --mode steady|green`, or drift that traps the mass
at a closed end beyond double precision); `sweep` names the swept value
that was refused.  Any other exception is a fault and keeps its traceback.
Identical invocations with identical seeds and worker counts produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys
from dataclasses import astuple, dataclass, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from . import crosscheck, fpe, montecarlo
from .fpe import GridSpec
from .model import (
    BoundaryKind,
    DiffusionModel,
    InitialCondition,
    InputError,
    KillingMeasure,
    SplitStatistics,
    interval,
    require_valid,
)
from .montecarlo import McConfig


_SCHEMA: Dict[str, Tuple[str, ...]] = {
    "domain": ("length", "left", "right", "phi"),
    "diffusion": ("d", "drift"),
    "killing": ("rates", "breakpoints", "spots"),
    "initial": ("y",),
    "method": (
        "method", "cells", "dt", "t_max", "mc_dt", "mc_n", "mc_seed",
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


def _floats(text: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in text.replace(",", " ").split())


def parse_config(path: str) -> ScenarioConfig:
    # no header can name the empty section, so a [DEFAULT] section is an
    # ordinary one, refused as unknown like any other
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        if not cp.read(path, encoding="utf-8"):
            raise InputError(f"cannot read config file {path!r}")
        for section in cp.sections():
            if section not in _SCHEMA:
                raise InputError(f"unknown section [{section}]")
            for key in cp[section]:
                if key not in _SCHEMA[section]:
                    raise InputError(f"unknown key {key!r} in section [{section}]")
        return _build_config(cp)
    except (ValueError, configparser.Error) as exc:  # a UnicodeDecodeError is a ValueError
        raise InputError(str(exc)) from exc


def _build_config(cp: configparser.ConfigParser) -> ScenarioConfig:
    if "domain" not in cp:
        raise InputError("missing required section [domain]")
    length = cp.getfloat("domain", "length")
    model = interval(
        length,
        cp.get("domain", "left", fallback="absorbing"),
        cp.get("domain", "right", fallback="absorbing"),
        diffusion=cp.getfloat("diffusion", "d", fallback=1.0),
        drift=cp.getfloat("diffusion", "drift", fallback=0.0),
        phi=cp.getfloat("domain", "phi", fallback=0.0),
    )

    spots = []
    for item in filter(str.strip, cp.get("killing", "spots", fallback="").split(",")):
        pos, _, strength = item.partition(":")
        if not strength:
            raise InputError(f"spot {item.strip()!r} must be 'position:strength'")
        spots.append((float(pos), float(strength)))
    killing = KillingMeasure(
        _floats(cp.get("killing", "breakpoints", fallback="")),
        _floats(cp.get("killing", "rates", fallback="0")),
        tuple(spots),
    )
    y = cp.getfloat("initial", "y", fallback=length / 2)

    method = cp.get("method", "method", fallback="all")
    if method not in ("analytic", "pde", "mc", "all"):
        raise InputError(f"unknown method {method!r}")
    grid = GridSpec(
        cp.getint("method", "cells", fallback=200),
        cp.getfloat("method", "dt", fallback=1e-3),
        cp.getfloat("method", "t_max", fallback=10.0),
    )
    mc = McConfig(
        dt=cp.getfloat("method", "mc_dt", fallback=1e-3),
        n_trajectories=cp.getint("method", "mc_n", fallback=10000),
        seed=cp.getint("method", "mc_seed", fallback=0),
    )
    require_valid(model, killing, InitialCondition.point(y))
    return ScenarioConfig(model, killing, y, method, grid, mc, cp.get("output", "dir", fallback="."))


def _split_rows(cfg: ScenarioConfig) -> List[Tuple[str, SplitStatistics]]:
    rows: List[Tuple[str, SplitStatistics]] = []
    methods = ("analytic", "pde", "mc") if cfg.method == "all" else (cfg.method,)
    for m in methods:
        if m == "analytic":
            forms = crosscheck.closed_forms(cfg.model, cfg.killing, cfg.y)
            if "p_killed" not in forms:
                if cfg.method == "analytic":
                    raise InputError("no closed-form split statistics for this scenario")
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


# --- subcommands: each returns its (file name, header, rows) in write order

Table = Tuple[str, Sequence[str], Sequence[Sequence[object]]]


def _cmd_analytic(cfg: ScenarioConfig, args) -> List[Table]:
    forms = crosscheck.closed_forms(cfg.model, cfg.killing, cfg.y)
    if not forms:
        raise InputError("no closed form applies to this scenario")
    return [("analytic.csv", ("name", "value"), list(forms.items()))]


def _cmd_pde(cfg: ScenarioConfig, args) -> List[Table]:
    if args.mode == "evolve":
        res = fpe.evolve(
            cfg.model, cfg.killing, InitialCondition.point(cfg.y), cfg.grid, stride=args.stride
        )
        s = res.series
        rows = [(t, sv, 0.0) for t, sv in zip(s.times.tolist(), s.survival.tolist())]
        return [("survival.csv", ("t", "survival", "stderr"), rows)]
    if args.mode == "steady":
        result = fpe.steady_state(cfg.model, cfg.killing, cfg.grid)
    else:
        result = fpe.green_steady(cfg.model, cfg.killing, cfg.y, cfg.grid)
    values = [(f.name, getattr(result, f.name)) for f in fields(result)]
    rows = [(name, v) for name, v in values if isinstance(v, float)]
    return [(f"{args.mode}.csv", ("quantity", "value"), rows)]


def _cmd_mc(cfg: ScenarioConfig, args) -> List[Table]:
    out = montecarlo.simulate_outcomes(cfg.model, cfg.killing, cfg.y, cfg.mc)
    times, surv, se = montecarlo.survival_curve(out, args.points)
    tables = [("survival.csv", ("t", "survival", "stderr"), list(zip(times, surv, se)))]
    if args.histogram and out.killed.any():
        edges, density = montecarlo.kill_location_histogram(out, cfg.model.domain.length)
        header = ("bin_left", "bin_right", "density")
        tables.append(("histogram.csv", header, list(zip(edges, edges[1:], density))))
    split = ("mc", *astuple(montecarlo.split_from_outcomes(out)))
    return tables + [("split.csv", _SPLIT_HEADER, [split])]


_SPLIT_HEADER = ("method", *(f.name for f in fields(SplitStatistics)))


def _cmd_split(cfg: ScenarioConfig, args) -> List[Table]:
    if args.method:
        cfg = replace(cfg, method=args.method)
    return [("split.csv", _SPLIT_HEADER, [(m, *astuple(s)) for m, s in _split_rows(cfg)])]


_SWEEPABLE = ("length", "y", "v0", "spot_position", "drift", "diffusion")


def _with_param(cfg: ScenarioConfig, param: str, value: float) -> ScenarioConfig:
    model, killing, y = cfg.model, cfg.killing, cfg.y
    if param == "length":
        model = replace(model, domain=replace(model.domain, length=value))
    elif param == "y":
        y = value
    elif param == "v0":
        if killing.breakpoints:
            raise InputError("v0 sweep sets one rate everywhere, so it refuses breakpoints")
        killing = replace(killing, rates=(value,))
    elif param == "spot_position":
        if len(killing.spots) != 1:
            raise InputError("spot_position sweep needs exactly one spot")
        killing = replace(killing, spots=((value, killing.spots[0][1]),))
    elif param == "drift":
        model = replace(model, drift=value)
    else:  # diffusion; the parser admits only _SWEEPABLE
        model = replace(model, diffusion=value)
    return replace(cfg, model=model, killing=killing, y=y)


def _cmd_sweep(cfg: ScenarioConfig, args) -> List[Table]:
    try:
        values = _floats(args.values)
    except ValueError as exc:
        raise InputError(f"bad --values: {exc}") from exc
    if not values:
        raise InputError("--values is empty")
    steady = BoundaryKind.INJECTION in cfg.model.domain.ends
    rows = []
    for v in values:
        try:
            sub = _with_param(cfg, args.param, v)
            if steady and args.param == "y":
                raise InputError("the steady state has no start point to sweep")
            if steady:
                sol = fpe.steady_state(sub.model, sub.killing, sub.grid)
                closed = crosscheck.closed_forms(sub.model, sub.killing, sub.y)
                if "ratio_rs" in closed:
                    rows.append((args.param, v, "ratio_rs", "analytic", closed["ratio_rs"]))
                rows.append((args.param, v, "ratio_rs", "pde", sol.ratio_rs))
            else:
                require_valid(sub.model, sub.killing, InitialCondition.point(sub.y))
                for m, s in _split_rows(sub):
                    rows.append((args.param, v, "ratio_rinf", m, s.ratio_rinf))
                    rows.append((args.param, v, "p_killed", m, s.p_killed))
        except InputError as exc:
            raise InputError(f"{args.param}={v}: {exc}") from exc
    return [("sweep.csv", ("param", "value", "observable", "method", "result"), rows)]


def _cmd_crosscheck(args) -> int:
    seed = args.seed if args.seed is not None else 0
    report = crosscheck.run_matrix(seed=seed, workers=args.workers)
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


@functools.cache  # parse_args keeps no state and returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="killdiff",
        description="Killed diffusion in an interval: closed forms, PDE solver, Monte Carlo.",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the MC seed")
    parser.add_argument(
        "--workers", type=_positive_int, default=1, help="MC worker count (default 1)"
    )
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analytic", help="evaluate applicable closed forms")
    p.add_argument("config")
    p.set_defaults(func=_cmd_analytic)

    p = sub.add_parser("pde", help="Fokker-Planck solve (evolve, steady or green)")
    p.add_argument("config")
    p.add_argument("--mode", choices=("evolve", "steady", "green"), default="evolve")
    p.add_argument(
        "--stride", type=_positive_int, default=10,
        help="compute and write survival at every stride-th step (default 10)",
    )
    p.set_defaults(func=_cmd_pde)

    p = sub.add_parser("mc", help="Monte Carlo simulation")
    p.add_argument("config")
    p.add_argument(
        "--points", type=_positive_int, default=50,
        help="survival curve sample count (at most one per MC step)",
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

    sub.add_parser("crosscheck", help="run the cross-validation scenario matrix")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "crosscheck":
            return _cmd_crosscheck(args)
        cfg = parse_config(args.config)
        seed = cfg.mc.seed if args.seed is None else args.seed
        cfg = replace(cfg, mc=replace(cfg.mc, seed=seed, workers=args.workers))
        tables = args.func(cfg, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    for name, header, rows in tables:
        path = os.path.join(out, name)
        crosscheck.write_rows(path, header, rows)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
