"""The four benchmark workloads.  Each is a closed loop with one caller: an
item starts when the previous one returns.  An item is one public call that
produces one scenario's observables; it fails if it raises, if the command
exits non-zero, or if its output fails its reference check.

- matrix: `crosscheck.run_matrix` over the 12-scenario default matrix, one
  MC worker.  Items are the scenarios, timed as `run_matrix` pulls them.
- pde-decay: `killdiff pde` and `killdiff split --method pde` on the
  decaying-start INIs.  Only the Crank-Nicolson time loops.
- mc-parallel: `killdiff --workers 2 split --method mc` on the INIs with MC
  settings, plus `killdiff --workers 2 mc --histogram` on the 100k-trajectory
  line.  Only Monte Carlo, through the process pool.
- channel-sweep: direct steady, Green-function and decay-rate solves over
  channel length, each against its closed form.  No time loop.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from killdiff import analytic, cli, crosscheck, fpe
from killdiff.analytic import UnitScaling
from killdiff.model import BoundaryKind, DiffusionModel, InitialCondition, KillingKind, KillingMeasure

import pins
from calibrate import Calibrator
from spans import bound_arguments

# crosscheck tolerances reused by the reference checks
P_TOL = 2e-3  # analytic vs pde probability
TIME_RTOL = 5e-3  # analytic vs pde mean time, relative to max(1, value)
SUM_TOL_PDE = 1e-6  # p_killed + p_absorbed = 1
SUM_TOL_MC = 1e-12
SWEEP_RTOL = 1e-3  # channel-sweep: relative to the closed form

# mc-parallel: the default-matrix scenario whose documented MC bias
# allowance (`mc_bias`) applies to each INI's split observables
MC_BIAS_FROM = {
    "conditional_mfpt": "dirac-reference",
    "constant_killing_line": "uniform-wide",
    "dirac_reference": "dirac-reference",
    "drift": "drift",
    "free_interval": "zero-absorbing",
    "green_rinf": "dirac-unit",
    "piecewise_rates": "piecewise",
}
SPLIT_OBSERVABLES = ("p_killed", "mean_kill_time", "mean_absorb_time")


@dataclass
class ItemResult:
    label: str
    seconds: float
    problems: List[str]
    work: dict = field(default_factory=dict)
    start: float = 0.0  # clock reading when the item began, for its calibration


def sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def close_to(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol


def within_span(value: float, refs: Sequence[float], tol: float) -> bool:
    """value within tol of the interval spanned by refs."""
    return min(refs) - tol <= value <= max(refs) + tol


# Euler exit bias.  The MC step checks the absorbing ends only at the end of
# each step, so it misses excursions past an end within a step.  To first
# order in sqrt(dt) that is the same as monitoring continuously an end moved
# outward by BETA * sqrt(2 D dt), BETA = -zeta(1/2) / sqrt(2 pi)
# (Broadie, Glasserman & Kou 1997; Gobet 2000).
BETA = 0.5825971579390107


def euler_shifted(model: DiffusionModel, killing: KillingMeasure, y: float, mc_dt: float):
    """(model, killing, y) with each absorbing end moved outward by the Euler
    exit shift of an MC step mc_dt; positions move with the left end."""
    dom = model.domain
    shift = BETA * math.sqrt(2 * model.diffusion * mc_dt)
    left = shift if dom.left.kind is BoundaryKind.ABSORBING else 0.0
    right = shift if dom.right.kind is BoundaryKind.ABSORBING else 0.0
    if killing.kind is KillingKind.DIRAC:
        killing = KillingMeasure.dirac([(x + left, k) for x, k in killing.spots])
    elif killing.kind is KillingKind.PIECEWISE:
        killing = KillingMeasure.piecewise([b + left for b in killing.breakpoints], killing.rates)
    shifted = DiffusionModel(replace(dom, length=dom.length + left + right), model.diffusion, model.drift)
    return shifted, killing, y + left


def euler_split(model: DiffusionModel, killing: KillingMeasure, y: float, grid, mc_dt: float):
    """PDE split statistics of the problem an Euler MC step mc_dt solves to
    first order: what the MC values tend to at that step, where the PDE
    value is what they tend to as the step goes to 0."""
    shifted, killing, y = euler_shifted(model, killing, y, mc_dt)
    return fpe.split_statistics(shifted, killing, InitialCondition.point(y), grid)


class Workload:
    name = ""
    # the tail latency pools the items of this many consecutive passes, so
    # the percentile and sample count are the same in every run; it is also
    # the minimum number of passes
    pool_passes = 2

    def __init__(self, root: str, seed: int, tracer, scratch: str, calibrator: Calibrator):
        self.root = root
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.calibrator = calibrator
        self.info: dict = {}
        self.problems: List[str] = []  # run-level, beyond any one item
        # MC values outside the program's own band by its Euler exit bias
        # alone, from the first pass (a seed repeats its values)
        self.band_misses: List[dict] = []
        # item label -> first traced simulate_outcomes call of that item
        self.captured: Dict[str, tuple] = {}

    def scenario_path(self, ini: str) -> str:
        return os.path.join(self.root, "scenarios", ini + ".ini")

    def build(self) -> None:
        """Make the inputs; timed as set-up, several times per run."""

    def prepare(self) -> None:
        """Reference values for the checks; untimed, once per run."""

    def cached(self, compute: Callable[[], object]) -> object:
        """compute(), a JSON value that depends on no seed, kept under
        .bench_out/ keyed by the package, benchmark and scenario sources,
        so that only the first run in a checkout pays for it."""
        key = hashlib.sha256(self.name.encode())
        for sub in ("src/killdiff", "bench", "scenarios"):
            folder = os.path.join(self.root, sub)
            for f in sorted(os.listdir(folder)):
                if f.endswith((".py", ".ini")):
                    key.update(f.encode())
                    with open(os.path.join(folder, f), "rb") as fh:
                        key.update(fh.read())
        path = os.path.join(self.root, ".bench_out", f"refs-{self.name}-{key.hexdigest()[:20]}.json")
        try:
            with open(path) as f:
                return json.load(f)
        except (OSError, ValueError):
            pass
        value = compute()
        with open(path + ".tmp", "w") as f:
            json.dump(value, f)
        os.replace(path + ".tmp", path)
        return value

    def run_pass(self, index: int) -> List[ItemResult]:
        """One pass over every item, checked.  The caller times it."""
        raise NotImplementedError

    def capture_mc(self, fn, args, kwargs, result) -> None:
        """Keep an MC call made at more than one worker, to rerun at one."""
        cfg = bound_arguments(fn, args, kwargs)["cfg"]
        if cfg.workers > 1 and self.tracer.item not in self.captured:
            self.captured[self.tracer.item] = (fn, args, kwargs, result)

    def worker_count_mismatch(self) -> List[dict]:
        """Rerun each captured MC call at one worker and compare.  The
        package promises identical outcomes at any worker count; today they
        differ, which this records for a later fix in `montecarlo`."""
        rows = []
        for label, (fn, args, kwargs, out) in self.captured.items():
            bound = bound_arguments(fn, args, kwargs)
            one = fn(**dict(bound, cfg=replace(bound["cfg"], workers=1)))
            same = all(
                np.array_equal(getattr(out, a), getattr(one, a)) for a in ("fate", "time", "position")
            )
            rows.append({
                "item": label,
                "workers": bound["cfg"].workers,
                "identical_to_1_worker": bool(same),
                "p_killed": float(np.mean(out.killed)),
                "p_killed_1_worker": float(np.mean(one.killed)),
            })
        return rows

    def timed(self, label: str, call: Callable[[], object]) -> Tuple[object, float, float, Optional[str]]:
        """(result, start clock, seconds, error) of one item."""
        self.calibrator.sample()
        self.tracer.begin_item(label)
        t0 = time.perf_counter()
        try:
            return call(), t0, time.perf_counter() - t0, None
        except Exception as exc:  # one failed item must not stop the run
            return None, t0, time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
        finally:
            self.tracer.end_item()


# --- matrix ------------------------------------------------------------------

class Matrix(Workload):
    name = "matrix"

    def build(self) -> None:
        self.scenarios = crosscheck.default_matrix(seed=self.seed, workers=1)

    def prepare(self) -> None:
        self.euler: Dict[str, Dict[str, float]] = self.cached(self.euler_references)

    def euler_references(self) -> Dict[str, Dict[str, float]]:
        """The MC rows' Euler-shifted references at the pinned MC step, each
        by the route of the row's own reference: the PDE split, the steady
        solve, or the steady Green function."""
        euler = {}
        for sc in self.scenarios:
            dt = pins.MATRIX_MC_DT[sc.name]
            if sc.kind == "split":
                st = euler_split(sc.model, sc.killing, sc.y, sc.grid, dt)
                euler[sc.name] = {obs: getattr(st, obs) for obs in SPLIT_OBSERVABLES}
                continue
            model, killing, y = euler_shifted(sc.model, sc.killing, sc.y, dt)
            if sc.kind == "steady":
                euler[sc.name] = {"ratio_rs": fpe.steady_state(model, killing, sc.grid).ratio_rs}
            elif sc.kind == "green":
                euler[sc.name] = {"ratio_rinf": fpe.green_steady(model, killing, y, sc.grid).ratio_rinf}
        return euler

    def run_pass(self, index: int) -> List[ItemResult]:
        latencies: List[Tuple[float, float]] = []  # (start, seconds)
        tracer = self.tracer

        def feed():
            # run_matrix pulls one scenario at a time; a scenario's latency
            # runs from its pull to the next pull
            for sc in self.scenarios:
                self.calibrator.sample()
                start = time.perf_counter()
                tracer.begin_item(sc.name)
                yield sc
                tracer.end_item()
                latencies.append((start, time.perf_counter() - start))

        gen = feed()
        try:
            report = crosscheck.run_matrix(gen, seed=self.seed, workers=1)
            error = None
        except Exception as exc:
            report, error = None, f"{type(exc).__name__}: {exc}"
            gen.close()
        rows: Dict[str, list] = {}
        for r in report.rows if report else ():
            rows.setdefault(r.scenario, []).append(r)
        items = []
        for i, sc in enumerate(self.scenarios):
            start, seconds = latencies[i] if i < len(latencies) else (0.0, 0.0)
            problems, misses = ([error], []) if error else self.check(sc, rows.get(sc.name, []))
            if index == 0:
                self.band_misses += misses
            items.append(ItemResult(sc.name, seconds, problems, self.work(sc, rows.get(sc.name, [])), start))
        if index == 0 and report is not None:
            self.problems += [f"pinned scenario {n} missing" for n in set(pins.MATRIX) - set(rows)]
            path = os.path.join(self.scratch, "report.csv")
            report.write_csv(path)
            self.info["report_csv_sha256"] = sha256(path)
            self.info["rows"] = len(report.rows)
        return items

    @staticmethod
    def work(sc, rows) -> dict:
        return {
            "cells": sc.grid.cell_count,
            "steps": max(1, round(sc.grid.t_max / sc.grid.dt)),
            "trajectories": sc.mc.n_trajectories,
            "mc_dt": sc.mc.dt,
            "rows": [[r.observable, r.method_a, r.method_b, r.sigma] for r in rows],
        }

    def check(self, sc, rows) -> Tuple[List[str], List[dict]]:
        """(problems, band misses).  A row fails outside its own band, except
        an MC row, whose band is taken around the span from its reference to
        the reference of the Euler-shifted problem (see euler_split): the
        crosscheck's bands allow for no Euler exit bias, so at some seeds
        its MC rows miss them by that bias alone (ROADMAP item 4).  Such a
        row is returned as a band miss, not a problem."""
        problems, misses = [], []
        euler = self.euler.get(sc.name, {})
        for r in rows:
            if r.observable == "error":
                problems.append(f"error row: {r.note}")
                continue
            if r.passed:
                continue
            shifted = euler.get(r.observable) if r.method_b == "mc" else None
            if shifted is not None and within_span(r.value_b, (r.value_a, shifted), r.tol):
                misses.append({
                    "scenario": sc.name, "observable": r.observable, r.method_a: r.value_a,
                    "mc": r.value_b, "euler_shifted": shifted, "tol": r.tol, "sigma": r.sigma,
                })
                continue
            problems.append(
                f"{r.observable} {r.method_a}={r.value_a!r} vs {r.method_b}={r.value_b!r} "
                f"outside tol {r.tol!r}" + (f" (Euler-shifted {shifted!r})" if shifted is not None else "")
            )
        pin = pins.MATRIX.get(sc.name)
        if pin is None:
            return problems + ["scenario not in the pinned matrix"], misses
        w = Matrix.work(sc, rows)
        if w["cells"] < pin.cells or w["steps"] < pin.steps:
            problems.append(f"grid cut to {w['cells']} cells x {w['steps']} steps")
        if w["trajectories"] < pin.trajectories:
            problems.append(f"MC cut to {w['trajectories']} trajectories")
        got = {(r.observable, r.method_a, r.method_b): r.sigma for r in rows}
        for obs, a, b, sigma in pin.rows:
            if (obs, a, b) not in got:
                problems.append(f"row {obs} {a}/{b} missing")
            elif got[(obs, a, b)] > pins.SIGMA_CEILING * sigma + 1e-15:
                problems.append(f"row {obs} {a}/{b} sigma {got[(obs, a, b)]!r} above pinned {sigma!r}")
        return problems, misses


# --- the INI-driven CLI workloads ---------------------------------------------

class CliWorkload(Workload):
    def run_cli(self, argv: Sequence[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def run_item(self, label: str, argv: Sequence[str]) -> Tuple[Optional[int], float, float, Optional[str]]:
        return self.timed(label, lambda: self.run_cli(argv))

    def out_dir(self, index: int, label: str) -> str:
        path = os.path.join(self.scratch, f"pass{index}", label.replace(":", "-"))
        os.makedirs(path, exist_ok=True)
        return path


def closed_split(cfg) -> Dict[str, float]:
    """Closed-form split observables where the package or a textbook has
    one: point killing (crosscheck.analytic_split_dirac), no killing (mean
    exit time y(L-y)/2D) and uniform killing (absorption probability)."""
    dom = cfg.model.domain
    both_absorbing = dom.left.kind is dom.right.kind is BoundaryKind.ABSORBING
    if not both_absorbing or cfg.model.drift != 0:
        return {}
    D, L, y = cfg.model.diffusion, dom.length, cfg.y
    k = cfg.killing
    if k.kind is KillingKind.DIRAC and len(k.spots) == 1:
        pk, mk = crosscheck.analytic_split_dirac(cfg.model, k, y)
        return {"p_killed": pk, "mean_kill_time": mk}
    if k.kind is KillingKind.ZERO:
        return {"p_killed": 0.0, "mean_absorb_time": y * (L - y) / (2 * D)}
    if k.kind is KillingKind.UNIFORM:
        c = math.sqrt(k.v0 / D)
        pa = (math.sinh(c * y) + math.sinh(c * (L - y))) / math.sinh(c * L)
        return {"p_killed": 1.0 - pa}
    return {}


def closed_survival(cfg) -> Optional[Callable[[float], float]]:
    """S(t) in closed form for zero or uniform killing without drift."""
    dom = cfg.model.domain
    if dom.left.kind is not BoundaryKind.ABSORBING or dom.right.kind is not BoundaryKind.ABSORBING:
        return None
    if cfg.model.drift != 0 or cfg.killing.kind not in (KillingKind.ZERO, KillingKind.UNIFORM):
        return None
    sc = UnitScaling(dom.length, cfg.model.diffusion)
    v0 = cfg.killing.v0 if cfg.killing.kind is KillingKind.UNIFORM else 0.0
    yu = sc.to_unit_position(cfg.y)
    return lambda t: math.exp(-v0 * t) * analytic.survival_series_free(sc.to_unit_time(t), yu)


def split_row(out: str, method: str) -> Dict[str, float]:
    rows = [r for r in read_csv(os.path.join(out, "split.csv")) if r["method"] == method]
    if len(rows) != 1:
        raise ValueError(f"expected one {method} row in split.csv, found {len(rows)}")
    return {k: float(v) for k, v in rows[0].items() if k != "method"}


class PdeDecay(CliWorkload):
    name = "pde-decay"
    SURVIVAL_STRIDE = 10  # `killdiff pde` default
    SURVIVAL_CHECKS = 25  # closed-form S(t) checks per curve

    def build(self) -> None:
        # no random inputs: the seed only orders the items
        order = sorted(pins.PDE_INIS)
        random.Random(self.seed).shuffle(order)
        self.cases = [(ini, self.scenario_path(ini)) for ini in order]
        self.configs = {ini: cli.parse_config(path) for ini, path in self.cases}

    def run_pass(self, index: int) -> List[ItemResult]:
        items = []
        for ini, path in self.cases:
            cfg = self.configs[ini]
            for label, argv, check in (
                (f"pde:{ini}", ["pde", path], self.check_evolve),
                (f"split-pde:{ini}", ["split", path, "--method", "pde"], self.check_split),
            ):
                out = self.out_dir(index, label)
                rc, start, seconds, error = self.run_item(label, ["--out", out] + argv)
                problems = [error] if error else ([f"exit status {rc}"] if rc else [])
                if not problems:
                    try:
                        problems = check(cfg, out)
                    except (OSError, ValueError, KeyError) as exc:
                        problems = [f"unreadable output: {exc}"]
                cells, steps = pins.PDE_INIS[ini]
                work = {"cells": cfg.grid.cell_count, "steps": max(1, round(cfg.grid.t_max / cfg.grid.dt))}
                if work["cells"] < cells or work["steps"] < steps:
                    problems.append(f"grid cut to {work['cells']} cells x {work['steps']} steps")
                items.append(ItemResult(label, seconds, problems, work, start))
        return items

    def check_evolve(self, cfg, out: str) -> List[str]:
        rows = read_csv(os.path.join(out, "survival.csv"))
        t = [float(r["t"]) for r in rows]
        s = [float(r["survival"]) for r in rows]
        steps = max(1, round(cfg.grid.t_max / cfg.grid.dt))
        expected = len(range(0, steps + 1, self.SURVIVAL_STRIDE))
        problems = []
        if len(rows) != expected:
            return [f"{len(rows)} survival rows, expected {expected} for {steps} steps"]
        if any(abs(ti - i * self.SURVIVAL_STRIDE * cfg.grid.dt) > 1e-9 * max(1.0, ti) for i, ti in enumerate(t)):
            problems.append("survival times off the step grid")
        if abs(s[0] - 1.0) > 1e-9:
            problems.append(f"S(0) = {s[0]!r}")
        if any(b > a + 1e-12 for a, b in zip(s, s[1:])):
            problems.append("survival increases")
        exact = closed_survival(cfg)
        if exact is not None:
            every = max(1, len(t) // self.SURVIVAL_CHECKS)
            for ti, si in list(zip(t, s))[every::every]:
                ref = exact(ti)
                if not close_to(si, ref, P_TOL):
                    problems.append(f"S({ti!r}) = {si!r}, closed form {ref!r}")
                    break
        return problems

    def check_split(self, cfg, out: str) -> List[str]:
        row = split_row(out, "pde")
        problems = []
        total = row["p_killed"] + row["p_absorbed"]
        if not close_to(total, 1.0, SUM_TOL_PDE):
            problems.append(f"p_killed + p_absorbed = {total!r}")
        for obs, ref in closed_split(cfg).items():
            tol = P_TOL if obs == "p_killed" else TIME_RTOL * max(1.0, abs(ref))
            if not close_to(row[obs], ref, tol):
                problems.append(f"{obs} = {row[obs]!r}, closed form {ref!r} (tol {tol:g})")
        return problems


class McParallel(CliWorkload):
    name = "mc-parallel"
    pool_passes = 3  # 8 items a pass: 24 pooled puts the tail at p58
    WORKERS = 2
    HISTOGRAM_INI = "constant_killing_line"

    def build(self) -> None:
        self.cases = [(ini, self.scenario_path(ini)) for ini in sorted(pins.MC_INIS)]
        self.configs = {ini: cli.parse_config(path) for ini, path in self.cases}
        common = ["--seed", str(self.seed), "--workers", str(self.WORKERS)]
        self.items = [
            (f"split-mc:{ini}", ini, common, ["split", path, "--method", "mc"])
            for ini, path in self.cases
        ]
        self.items.append(
            (f"mc-hist:{self.HISTOGRAM_INI}", self.HISTOGRAM_INI, common,
             ["mc", self.scenario_path(self.HISTOGRAM_INI), "--histogram"])
        )
        self.first_outputs: Dict[str, Dict[str, str]] = {}

    def prepare(self) -> None:
        self.bias = {sc.name: sc.mc_bias for sc in crosscheck.default_matrix()}
        self.refs: Dict[str, List[Tuple[str, float, float, float]]] = self.cached(self.references)

    def references(self) -> Dict[str, list]:
        """The closed form where one exists, else the PDE value on the INI's
        own grid, and the PDE value of the Euler-shifted problem (see
        euler_split); the band is 3 sigma plus the matrix's bias allowance
        for the analogous scenario, around the span of the two."""
        bias, refs_by_ini = self.bias, {}
        for ini, cfg in self.configs.items():
            closed = closed_split(cfg)
            pde = fpe.split_statistics(cfg.model, cfg.killing, InitialCondition.point(cfg.y), cfg.grid)
            euler = euler_split(cfg.model, cfg.killing, cfg.y, cfg.grid, pins.INI_MC_DT[ini])
            b = bias[MC_BIAS_FROM[ini]]
            refs = [
                (obs, closed.get(obs, getattr(pde, obs)), getattr(euler, obs), b)
                for obs in SPLIT_OBSERVABLES
            ]
            if ini == "green_rinf":
                # the matrix's green-rinf row: ratio against its closed form
                (xs, k), = cfg.killing.spots
                ratio = analytic.ratio_rinf_dirac_interval(
                    cfg.model.diffusion, k, cfg.model.domain.length, cfg.y, xs
                ).derived_value
                refs.append(("ratio_rinf", ratio, euler.ratio_rinf, bias["green-rinf"]))
            refs_by_ini[ini] = refs
        return refs_by_ini

    def run_pass(self, index: int) -> List[ItemResult]:
        items = []
        for label, ini, common, argv in self.items:
            out = self.out_dir(index, label)
            rc, start, seconds, error = self.run_item(label, common + ["--out", out] + argv)
            problems = [error] if error else ([f"exit status {rc}"] if rc else [])
            work = {}
            if not problems:
                try:
                    problems, work = self.check(label, ini, out)
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"unreadable output: {exc}"]
            items.append(ItemResult(label, seconds, problems, work, start))
        return items

    def check(self, label: str, ini: str, out: str) -> Tuple[List[str], dict]:
        cfg = self.configs[ini]
        row = split_row(out, "mc")
        first_pass = label not in self.first_outputs
        problems = []
        total = row["p_killed"] + row["p_absorbed"]
        if not close_to(total, 1.0, SUM_TOL_MC):
            problems.append(f"p_killed + p_absorbed = {total!r}")
        sigmas = {}
        for obs, ref, shifted, bias in self.refs[ini]:
            value, se = row[obs], row[obs + "_se"]
            sigmas[obs] = se
            if math.isnan(value) or math.isnan(ref):
                continue  # conditional mean undefined for one route
            tol = 3 * se + bias * max(1.0, abs(ref))
            if not within_span(value, (ref, shifted), tol):
                problems.append(
                    f"{obs} = {value!r}, reference {ref!r}, Euler-shifted {shifted!r} (tol {tol:g})"
                )
            elif first_pass and not close_to(value, ref, tol):
                self.band_misses.append({
                    "item": label, "observable": obs, "reference": ref, "mc": value,
                    "euler_shifted": shifted, "tol": tol, "sigma": se,
                })

        # work: trajectories read back from the binomial standard errors
        n_pin = pins.MC_INIS[ini]
        work = {"trajectories": cfg.mc.n_trajectories, "mc_dt": cfg.mc.dt, "sigma": sigmas}
        n_eff = []
        if 0 < row["p_killed"] < 1:
            n_eff.append(row["p_killed"] * row["p_absorbed"] / row["p_killed_se"] ** 2)
        if label.startswith("mc-hist:"):
            problems += self.check_histogram(cfg, out, row["p_killed"], self.bias["uniform-wide"])
            for r in read_csv(os.path.join(out, "survival.csv")):
                s, se = float(r["survival"]), float(r["stderr"])
                if 0 < s < 1 and se > 0:
                    n_eff.append(s * (1 - s) / se**2)
        if n_eff:
            work["trajectories_from_sigma"] = round(statistics.median(n_eff))
        if cfg.mc.n_trajectories < n_pin:
            problems.append(f"MC cut to {cfg.mc.n_trajectories} trajectories")
        if n_eff and work["trajectories_from_sigma"] < n_pin * (1 - 1e-6):
            problems.append(f"sigma implies {work['trajectories_from_sigma']} trajectories, pinned {n_pin}")

        # two passes at the same (seed, workers) must write the same bytes
        digests = {f: sha256(os.path.join(out, f)) for f in sorted(os.listdir(out))}
        first = self.first_outputs.setdefault(label, digests)
        if digests != first:
            problems.append(f"output differs from the first pass at seed {self.seed}, {self.WORKERS} workers")
        return problems, work

    @staticmethod
    def check_histogram(cfg, out: str, p_killed: float, bias: float) -> List[str]:
        """Kill-site density against (c/2) exp(-c|x - y|), bin by bin, with
        a binomial 3-sigma band plus the uniform-wide bias allowance."""
        D, v0, y = cfg.model.diffusion, cfg.killing.v0, cfg.y
        c = math.sqrt(v0 / D)

        def cdf(x: float) -> float:
            return 0.5 * math.exp(c * (x - y)) if x < y else 1.0 - 0.5 * math.exp(-c * (x - y))

        n_killed = cfg.mc.n_trajectories * p_killed
        for r in read_csv(os.path.join(out, "histogram.csv")):
            lo, hi, density = float(r["bin_left"]), float(r["bin_right"]), float(r["density"])
            w = hi - lo
            p = cdf(hi) - cdf(lo)
            ref = p / w
            sigma = math.sqrt(p * (1 - p) / n_killed) / w
            tol = 3 * sigma + bias * max(1.0, ref)
            if not close_to(density, ref, tol):
                return [f"kill density {density!r} on [{lo:.3g}, {hi:.3g}], closed form {ref!r}"]
        return []


# --- channel-sweep -------------------------------------------------------------

def stratified(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """One uniform draw in each of n equal strata: the seed moves the
    points, the total work stays nearly the same."""
    return [lo + (hi - lo) * (i + rng.random()) / n for i in range(n)]


def with_length(model: DiffusionModel, length: float) -> DiffusionModel:
    return DiffusionModel(replace(model.domain, length=length), model.diffusion, model.drift)


def dirac_decay_rate(D: float, k: float, L: float, xs: float) -> float:
    """Leading eigenvalue of -D d2/dx2 + k delta(x - xs) on [0, L] with
    absorbing ends.  On the unit interval [0, pi], lambda = s^2 with
    s sin(s pi) + V sin(s x) sin(s (pi - x)) = 0, the pole of the resolvent
    1 / (1 + V G(x, x; -s^2)); the root lies in [1, 2]."""
    sc = UnitScaling(L, D)
    V, x = sc.to_unit_dirac_strength(k), sc.to_unit_position(xs)
    s = brentq(
        lambda s: s * math.sin(s * math.pi) + V * math.sin(s * x) * math.sin(s * (math.pi - x)),
        1.0, 2.0, xtol=1e-15,
    )
    return s * s * sc.time


class ChannelSweep(Workload):
    name = "channel-sweep"
    pool_passes = 1  # 160 items a pass put the tail at p93.75
    PER_KIND = 40
    # (INI, length range) per kind.  Every length keeps the INI's own cell
    # count, as scripts/sweep_neck_length.py and `killdiff sweep --param
    # length` do, so the grid coarsens as the channel grows.
    KINDS = {
        "steady-uniform": ("steady_uniform", 0.25, 3.0),
        "steady-dirac": ("steady_dirac", 0.5, 3.0),
        "green": ("green_rinf", 0.5, 3.0),
        "decay": ("dirac_reference", 0.5, 2 * math.pi),
    }

    def build(self) -> None:
        rng = random.Random(self.seed)
        self.items = []
        for kind, (ini, lo, hi) in self.KINDS.items():
            cfg = cli.parse_config(self.scenario_path(ini))
            L0 = cfg.model.domain.length
            for L in stratified(rng, lo, hi, self.PER_KIND):
                model = with_length(cfg.model, L)
                killing = cfg.killing
                if killing.kind is KillingKind.DIRAC:
                    # point geometry scales with the channel, so a spot stays
                    # on the grid node it has in the INI
                    killing = KillingMeasure.dirac([(x * L / L0, k) for x, k in killing.spots])
                call = getattr(self, kind.replace("-", "_"))
                args = (model, killing, cfg.y * L / L0, cfg.grid)
                work = {"length": L, "cells": cfg.grid.cell_count}
                self.items.append((f"{kind}:L={L:.6f}", call, args, work))

    def prepare(self) -> None:
        # the decay rate's reference is a root the benchmark finds itself,
        # so it is computed here rather than inside the timed item
        self.refs = {}
        for label, call, (model, killing, y, grid), work in self.items:
            if label.startswith("decay:"):
                (xs, k), = killing.spots
                self.refs[label] = dirac_decay_rate(model.diffusion, k, model.domain.length, xs)

    def run_pass(self, index: int) -> List[ItemResult]:
        items = []
        for label, call, args, work in self.items:
            pairs, start, seconds, error = self.timed(label, lambda: call(*args))
            problems = [error] if error else self.check(label, pairs)
            items.append(ItemResult(label, seconds, problems, work, start))
        return items

    def check(self, label: str, pairs) -> List[str]:
        problems = []
        for obs, got, ref in pairs:
            if ref is None:
                ref = self.refs[label]
            if not abs(got - ref) <= SWEEP_RTOL * abs(ref):
                problems.append(f"{obs} = {got!r}, closed form {ref!r}")
        return problems

    @staticmethod
    def steady_uniform(model, killing, y, grid):
        sol = fpe.steady_state(model, killing, grid)
        ref = analytic.ratio_rs_uniform(model.diffusion, killing.v0, model.domain.length)
        return [("ratio_rs", sol.ratio_rs, ref)]

    @staticmethod
    def steady_dirac(model, killing, y, grid):
        sol = fpe.steady_state(model, killing, grid)
        (xs, k), = killing.spots
        dom = model.domain
        d_abs = xs if dom.left.kind is BoundaryKind.ABSORBING else dom.length - xs
        return [("ratio_rs", sol.ratio_rs, analytic.ratio_rs_dirac(model.diffusion, k, d_abs))]

    @staticmethod
    def green(model, killing, y, grid):
        """Steady Green function from a source at y: the absorbed/killed ratio,
        and the mean lifetime (its integral), the Laplace survival at q = 0."""
        gr = fpe.green_steady(model, killing, y, grid)
        (xs, k), = killing.spots
        D, L = model.diffusion, model.domain.length
        ratio = analytic.ratio_rinf_dirac_interval(D, k, L, y, xs).derived_value
        sc = UnitScaling(L, D)
        lifetime = sc.from_unit_time(
            analytic.survival_laplace_dirac(
                sc.to_unit_position(y), 0.0, sc.to_unit_position(xs), sc.to_unit_dirac_strength(k)
            )
        )
        dx = L / grid.cell_count
        integral = dx * (float(gr.green.sum()) - 0.5 * float(gr.green[0] + gr.green[-1]))
        return [("ratio_rinf", gr.ratio_rinf, ratio), ("lifetime", integral, lifetime)]

    @staticmethod
    def decay(model, killing, y, grid):
        # reference: dirac_decay_rate, found in prepare
        return [("decay_rate", fpe.decay_rate(model, killing, grid.cell_count), None)]


WORKLOADS = {w.name: w for w in (Matrix, PdeDecay, McParallel, ChannelSweep)}
