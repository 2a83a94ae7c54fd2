"""Trajectory-level Euler-Maruyama simulation of killed diffusion.

The independent stochastic oracle: every observable is estimated from
termination events of simulated trajectories.  Point killings are
regularized as top-hats of width `dirac_width`; the per-step kill decision
uses the exact factor 1 - exp(-k dt).  Worker streams are counter-based
(Philox keyed by (seed, worker index)) and reduced in worker order, so
results are bit-identical for a fixed configuration regardless of
scheduling.

Cost of a step.  A worker moves all its live trajectories one step per loop
pass.  A pass costs the Philox draws (a uniform per trajectory when there is
killing, then a normal) plus a fixed number of whole-array NumPy calls: the
kill test against 1 - exp(-k dt) precomputed once per worker, the move and
the reflections in place, one exit mask, and the removal of the trajectories
that ended.  The crosscheck scenarios keep only about 800 trajectories live
per step, so each call's fixed cost weighs as much as its arithmetic: the
crosscheck matrix takes about 37 ns per trajectory-step, more than half of
it the draws (54 ns when every step rebuilt its arrays and its rate field;
both from `bench/run.py --workload matrix --trace 1`, in reference ns).
Batching steps or another bit generator would be cheaper, but would change
every draw.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .model import (
    BoundaryKind,
    DiffusionModel,
    InputError,
    KillingKind,
    KillingMeasure,
    SplitStatistics,
    require_valid,
)
from .numerics import AccuracyError

FATE_KILLED = 0
FATE_ABSORBED = 1


@dataclass(frozen=True)
class McConfig:
    dt: float
    n_trajectories: int
    seed: int = 0
    workers: int = 1
    dirac_width: float = 0.05
    bridge_correction: bool = False
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not self.dirac_width > 0:
            raise ValueError("dirac_width must be positive")


@dataclass(frozen=True)
class TrajectoryOutcomes:
    """Per-trajectory fate (killed/absorbed), termination time and position."""

    fate: np.ndarray  # uint8, FATE_KILLED or FATE_ABSORBED
    time: np.ndarray
    position: np.ndarray

    @property
    def n(self) -> int:
        return self.fate.size

    @property
    def killed(self) -> np.ndarray:
        return self.fate == FATE_KILLED

    @property
    def absorbed(self) -> np.ndarray:
        return self.fate == FATE_ABSORBED


def _kill_probability(killing: KillingMeasure, width: float, dt: float):
    """x -> 1 - exp(-k(x) dt), the probability of a kill in one step from
    each position in x (a float for uniform killing), with point spots as
    top-hats of `width`; None without killing.

    Built once per worker.  Each value is NumPy's `-expm1(-k * dt)`, which
    gives the same bits from a one-element table as from a per-position
    array (`math.expm1` differs from it in the last bit for some k)."""
    if killing.kind is KillingKind.ZERO:
        return None
    if killing.kind is KillingKind.UNIFORM:
        p = float(-np.expm1(-np.array([killing.v0]) * dt)[0])
        return lambda x: p
    if killing.kind is KillingKind.PIECEWISE:
        breaks = np.asarray(killing.breakpoints)
        table = -np.expm1(-np.asarray(killing.rates, dtype=float) * dt)
        return lambda x: table[np.searchsorted(breaks, x, side="right")]
    half = width / 2
    heights = np.array([k for _, k in killing.spots]) / width
    if len(killing.spots) == 1:
        xs = killing.spots[0][0]
        p_spot = -np.expm1(-heights * dt)[0]
        return lambda x: np.where(np.abs(x - xs) < half, p_spot, 0.0)
    spots = [xs for xs, _ in killing.spots]

    def probability(x: np.ndarray) -> np.ndarray:
        rate = np.zeros_like(x)
        for xs, hgt in zip(spots, heights):
            rate += np.where(np.abs(x - xs) < half, hgt, 0.0)
        return -np.expm1(-rate * dt)

    return probability


def _simulate_worker(args) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    model, killing, y0, cfg, n, worker = args
    rng = np.random.Generator(
        np.random.Philox(key=np.array([cfg.seed & 0xFFFFFFFFFFFFFFFF, worker], dtype=np.uint64))
    )
    dom = model.domain
    L = dom.length
    D = model.diffusion
    dt = cfg.dt
    sigma = math.sqrt(2 * D * dt)
    shift = model.drift * dt
    p_kill = _kill_probability(killing, cfg.dirac_width, dt)
    left_abs = dom.left.kind is BoundaryKind.ABSORBING
    right_abs = dom.right.kind is BoundaryKind.ABSORBING

    x = np.full(n, y0, dtype=float)
    fate = np.full(n, FATE_ABSORBED, dtype=np.uint8)
    t_end = np.empty(n, dtype=float)
    x_end = np.empty(n, dtype=float)
    alive = np.arange(n)

    step = 0
    while alive.size:
        if step >= cfg.max_steps:
            raise AccuracyError(
                f"{alive.size / n:.3%} of trajectories still alive after "
                f"{cfg.max_steps} steps; raise max_steps or check termination"
            )
        step += 1
        t_now = step * dt

        if p_kill is not None:
            killed = rng.random(x.size) < p_kill(x)
            if np.count_nonzero(killed):
                idx = alive[killed]
                fate[idx] = FATE_KILLED
                t_end[idx] = t_now
                x_end[idx] = x[killed]
                keep = ~killed
                x = x[keep]
                alive = alive[keep]
                if not alive.size:
                    break

        # (x + a dt) + sigma z in place; without drift x + 0.0 == x
        x_old = x.copy() if cfg.bridge_correction else None
        z = rng.standard_normal(x.size)
        z *= sigma
        if shift:
            x += shift
        x += z

        if left_abs:
            done = x <= 0.0
        else:
            np.negative(x, out=x, where=x < 0.0)
        if right_abs:
            if left_abs:
                done |= x >= L
            else:
                done = x >= L
        else:
            np.subtract(2 * L, x, out=x, where=x > L)
            # a reflected step can only leave [0, L] for absurdly large dt;
            # clamp as a guard
            np.clip(x, 0.0, L, out=x)
        if not (left_abs or right_abs):
            continue

        if cfg.bridge_correction:
            live = ~done
            if left_abs and np.any(live):
                p_cross = np.exp(-np.maximum(x_old * x, 0.0)[live] / (D * dt))
                bridged = rng.random(p_cross.size) < p_cross
                sel = np.flatnonzero(live)[bridged]
                done[sel] = True
                x[sel] = 0.0  # the end crossed, read back as the exit position
            live = ~done
            if right_abs and np.any(live):
                p_cross = np.exp(
                    -np.maximum((L - x_old) * (L - x), 0.0)[live] / (D * dt)
                )
                bridged = rng.random(p_cross.size) < p_cross
                sel = np.flatnonzero(live)[bridged]
                done[sel] = True
                x[sel] = L

        if np.count_nonzero(done):
            idx = alive[done]
            t_end[idx] = t_now
            if left_abs and right_abs:
                x_end[idx] = np.where(x[done] <= 0.0, 0.0, L)
            else:
                x_end[idx] = 0.0 if left_abs else L
            keep = ~done
            x = x[keep]
            alive = alive[keep]

    return fate, t_end, x_end


def simulate_outcomes(
    model: DiffusionModel, killing: KillingMeasure, y: float, cfg: McConfig
) -> TrajectoryOutcomes:
    """Run all trajectories from the start position y and collect outcomes."""
    require_valid(model, killing)
    dom = model.domain
    if not (0 <= y <= dom.length):
        raise InputError("start position outside the interval")
    has_absorbing = BoundaryKind.ABSORBING in (dom.left.kind, dom.right.kind)
    if not has_absorbing and killing.is_zero:
        raise InputError("trajectories would never terminate")
    if killing.kind is KillingKind.DIRAC:
        recommended = 2 * math.sqrt(2 * model.diffusion * cfg.dt)
        if cfg.dirac_width < recommended:
            warnings.warn(
                f"dirac_width {cfg.dirac_width:.3g} below the recommended "
                f"2*sqrt(2 D dt) = {recommended:.3g}; spot kill counts may be noisy",
                stacklevel=2,
            )

    counts = [cfg.n_trajectories // cfg.workers] * cfg.workers
    for w in range(cfg.n_trajectories % cfg.workers):
        counts[w] += 1
    jobs = [
        (model, killing, y, cfg, counts[w], w) for w in range(cfg.workers) if counts[w] > 0
    ]
    if cfg.workers == 1 or len(jobs) == 1:
        parts = [_simulate_worker(job) for job in jobs]
    else:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            parts = list(pool.map(_simulate_worker, jobs))
    fate = np.concatenate([p[0] for p in parts])
    time = np.concatenate([p[1] for p in parts])
    pos = np.concatenate([p[2] for p in parts])
    return TrajectoryOutcomes(fate, time, pos)


def split_from_outcomes(out: TrajectoryOutcomes) -> SplitStatistics:
    n = out.n
    nk = int(np.count_nonzero(out.killed))
    na = n - nk
    pk = nk / n
    pa = na / n
    p_se = math.sqrt(pk * pa / n)

    def cond_mean(mask: np.ndarray):
        cnt = int(np.count_nonzero(mask))
        if cnt == 0:
            return math.nan, 0.0
        vals = out.time[mask]
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(cnt)) if cnt > 1 else 0.0
        return mean, se

    mk, mk_se = cond_mean(out.killed)
    ma, ma_se = cond_mean(out.absorbed)
    if nk > 0:
        ratio = pa / pk
        ratio_se = p_se / pk**2  # delta method on R = p/(1-p)
    else:
        ratio, ratio_se = math.inf, 0.0
    return SplitStatistics(pk, pa, mk, ma, ratio, p_se, p_se, mk_se, ma_se, ratio_se)


def simulate_split(
    model: DiffusionModel, killing: KillingMeasure, y: float, cfg: McConfig
) -> SplitStatistics:
    return split_from_outcomes(simulate_outcomes(model, killing, y, cfg))


def kill_location_histogram(
    out: TrajectoryOutcomes, bins: np.ndarray | int = 50, min_events: int = 100
) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized histogram (edges, density) of the kill positions."""
    pos = out.position[out.killed]
    if pos.size < min_events:
        raise AccuracyError(f"only {pos.size} kill events; need at least {min_events}")
    density, edges = np.histogram(pos, bins=bins, density=True)
    return edges, density


def simulate_rs(
    model: DiffusionModel, killing: KillingMeasure, cfg: McConfig
) -> Tuple[float, float]:
    """Steady-injection absorbed/killed ratio with its standard error.

    Each trajectory starts at the injection end, which is reflecting for the
    live particle; the fate split of injected particles reproduces the
    steady flux ratio by linearity."""
    require_valid(model, killing)
    dom = model.domain
    kinds = (dom.left.kind, dom.right.kind)
    if kinds.count(BoundaryKind.INJECTION) != 1 or kinds.count(BoundaryKind.ABSORBING) != 1:
        raise InputError("R_s simulation needs exactly one injection and one absorbing end")
    y0 = 0.0 if dom.left.kind is BoundaryKind.INJECTION else dom.length
    # the injection boundary behaves as reflecting for the live particle
    reflect = DiffusionModel(
        dom.__class__(
            dom.length,
            dom.left if dom.left.kind is not BoundaryKind.INJECTION else dom.left.reflecting(),
            dom.right if dom.right.kind is not BoundaryKind.INJECTION else dom.right.reflecting(),
        ),
        model.diffusion,
        model.drift,
    )
    out = simulate_outcomes(reflect, killing, y0, cfg)
    nk = int(np.count_nonzero(out.killed))
    if nk == 0:
        raise AccuracyError("no kill events; the ratio estimator is undefined")
    stats = split_from_outcomes(out)
    return stats.ratio_rinf, stats.ratio_rinf_se


def survival_curve(
    out: TrajectoryOutcomes, points: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical survivor function of min(T, tau) at `points` evenly spaced
    times up to the last termination, with pointwise binomial standard
    errors."""
    times = float(out.time.max()) * np.arange(1, points + 1) / points
    n = out.n
    s = np.array([np.count_nonzero(out.time > t) / n for t in times])
    se = np.sqrt(s * (1 - s) / n)
    return times, s, se
