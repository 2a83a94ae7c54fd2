"""Command-line interface: scenario config parsing, one subcommand per
solver, parameter sweeps, and the cross-validation run.

Scenario configs are INI files with sections:

    [domain]     length, left, right (absorbing|reflecting|injection), phi
    [diffusion]  d, drift
    [killing]    kind (zero|uniform|dirac|piecewise), v0,
                 spots = "x:strength, x:strength", breakpoints, rates
    [initial]    y
    [method]     method (analytic|pde|mc|all), cells, dt, t_max,
                 mc_dt, mc_n, mc_seed
    [output]     dir

Each killing kind states a piecewise-constant rate plus point spots; with
no positive rate or strength (v0 = 0, say) it is zero killing.  Unknown
sections or keys are rejected.  All quantities are dimensionless; supply
consistent units (d in length^2/time, rates in 1/time, spot strengths in
length/time).  `dt` and `t_max` set the steps of `pde` evolution only:
`split --method pde` is the exact infinite-horizon sum of the
Crank-Nicolson scheme and depends on `cells` alone.

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

Every subcommand parses its config, calls the library and writes the
result.  `analytic`, `split --method analytic` and the analytic rows of a
steady `sweep` write what `crosscheck.closed_forms` returns (the split
writes NaN for a mean time it has no form for); closed forms hold only
without drift.
`mc` runs one simulation and takes the survival curve (at up to `--points`
multiples of `mc_dt`), the kill-location histogram (skipped when nothing
was killed) and the split from it.

`[initial] y` is the point every route starts from; no other initial
condition exists.  `sweep --param v0` sets uniform killing at each value,
zero killing at 0, and so refuses a dirac or piecewise scenario;
`sweep --param y` refuses a steady scenario, which has no start point.
`pde --stride` sets the steps whose survival `pde` computes and writes:
every stride-th (default 10), from t = 0.  `mc --points` and `pde --stride`
must be positive integers.

Exit codes: 0 success, 1 failed row in `crosscheck`, 2 config or usage
error (including a count below 1), no closed form, or an input the library
refuses with a `model.InputError` (e.g. the wrong ends for
`pde --mode steady|green`, or drift that traps the mass at a closed end
beyond double precision); `sweep` names the swept value that was
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
    )
    out_dir = cp["output"]["dir"] if "output" in cp and "dir" in cp["output"] else "."

    violations = validate_problem(model, killing, InitialCondition.point(y))
    if violations:
        raise ConfigError("; ".join(violations))
    return ScenarioConfig(model, killing, y, method, grid, mc, out_dir)


# --- output helpers --------------------------------------------------------

def _out_path(cfg_dir: str, args, name: str) -> str:
    d = args.out if args.out else cfg_dir
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, name)


def _write_rows(path: str, header: Sequence[str], rows: Sequence[Sequence[object]]) -> None:
    crosscheck.write_rows(path, header, rows)
    print(f"wrote {path}")


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    mc = replace(cfg.mc, workers=args.workers)
    if args.seed is not None:
        mc = replace(mc, seed=args.seed)
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
    path = _out_path(cfg.out_dir, args, "analytic.csv")
    _write_rows(path, ("name", "value"), list(forms.items()))
    return 0


def _cmd_pde(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    if args.mode == "evolve":
        res = fpe.evolve(
            cfg.model, cfg.killing, InitialCondition.point(cfg.y), cfg.grid, stride=args.stride
        )
        s = res.series
        rows = [(t, sv, 0.0) for t, sv in zip(s.times.tolist(), s.survival.tolist())]
        _write_rows(
            _out_path(cfg.out_dir, args, "survival.csv"), ("t", "survival", "stderr"), rows
        )
        return 0
    if args.mode == "steady":
        result = fpe.steady_state(cfg.model, cfg.killing, cfg.grid)
    else:
        result = fpe.green_steady(cfg.model, cfg.killing, cfg.y, cfg.grid)
    values = [(f.name, getattr(result, f.name)) for f in fields(result)]
    _write_rows(
        _out_path(cfg.out_dir, args, f"{args.mode}.csv"),
        ("quantity", "value"),
        [(name, v) for name, v in values if isinstance(v, float)],
    )
    return 0


def _cmd_mc(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    out = montecarlo.simulate_outcomes(cfg.model, cfg.killing, cfg.y, cfg.mc)
    times, surv, se = montecarlo.survival_curve(out, args.points)
    _write_rows(
        _out_path(cfg.out_dir, args, "survival.csv"),
        ("t", "survival", "stderr"),
        list(zip(times, surv, se)),
    )
    if args.histogram and out.killed.any():
        edges, density = montecarlo.kill_location_histogram(out, min_events=1)
        _write_rows(
            _out_path(cfg.out_dir, args, "histogram.csv"),
            ("bin_left", "bin_right", "density"),
            list(zip(edges, edges[1:], density)),
        )
    _write_rows(
        _out_path(cfg.out_dir, args, "split.csv"),
        _SPLIT_HEADER,
        [("mc", *astuple(montecarlo.split_from_outcomes(out)))],
    )
    return 0


_SPLIT_HEADER = ("method", *(f.name for f in fields(SplitStatistics)))


def _cmd_split(args) -> int:
    cfg = _apply_overrides(parse_config(args.config), args)
    if args.method:
        cfg = replace(cfg, method=args.method)
    rows = [(m, *astuple(s)) for m, s in _split_rows(cfg)]
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
        if not killing.is_zero and (killing.spots or len(killing.rates) != 1):
            refused = "dirac" if killing.spots else "piecewise"
            raise ConfigError(f"v0 sweep needs zero or uniform killing, not {refused}")
        killing = KillingMeasure.uniform(value)
    elif param == "spot_position":
        if len(killing.spots) != 1 or any(killing.rates):
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
                closed = crosscheck.closed_forms(sub.model, sub.killing, sub.y)
                if "ratio_rs" in closed:
                    rows.append((args.param, v, "ratio_rs", "analytic", closed["ratio_rs"]))
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
        ("param", "value", "observable", "method", "result"),
        rows,
    )
    return 0


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
