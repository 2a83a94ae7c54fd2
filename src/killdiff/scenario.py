"""The scenario format: one INI file states one problem, its grid and its
Monte Carlo settings.  The CLI reads every config through `parse_config`,
and so does `crosscheck.default_matrix` for its twelve shipped files.

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
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from typing import Dict, Tuple

from .fpe import GridSpec
from .model import (
    DiffusionModel,
    InitialCondition,
    InputError,
    KillingMeasure,
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
