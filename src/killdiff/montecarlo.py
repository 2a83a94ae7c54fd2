"""Trajectory-level simulation of killed diffusion with exact bridge
decisions.

The independent stochastic oracle: every observable is estimated from
termination events of simulated trajectories.  A step of length dt moves a
trajectory from x0 to x1 by the exact Gaussian increment of the drifted
motion; given both endpoints, the path in between is a Brownian bridge of
diffusivity D (the drift drops out), and the kill and exit decisions are
made for that bridge:

- an absorbing end at signed distance d0 before the step and d1 after it
  (d1 <= 0 once crossed) is reached with probability
  exp(-max(d0 d1, 0) / (D dt)) (Gobet 2000).  One uniform serves both ends:
  the left end is hit if u < p_L, the right end if u > 1 - p_R;
- a point spot xs of strength k kills with the probability that the
  bridge's local time at xs exceeds an Exp(k) threshold (Borodin &
  Salminen, Handbook of Brownian Motion):
  (k/2) sqrt(pi dt/D) exp(-max(ab, 0)/(D dt)) erfcx((|a| + |b| + k dt) /
  (2 sqrt(D dt))) with a = x0 - xs, b = x1 - xs; several spots kill with
  1 - prod(1 - P_i), and the kill position is the spot;
- uniform killing kills with 1 - exp(-v0 dt), at the in-step time
  -log1p(-u)/v0 of the same uniform; piecewise killing with the trapezoid
  1 - exp(-dt (k(x0) + k(x1))/2), at the step midpoint (exact unless the
  step straddles a breakpoint).  Their kill position is the bridge point at
  the kill time;
- a step with both a kill and an exit (rare) ends with the earlier: the
  crossing time tau = dt V/(1 + V), V inverse Gaussian with mean d0/|d1|
  and shape d0^2/(2 D dt), against the kill time (the midpoint for spots).

Ignored within a step: the interaction of a spot or of the killing with a
reflecting end (x1 is reflected first, and the bridge runs to the reflected
point) and, for several spots, the dependence of their local times.  Every
event is recorded at the end of its step (time step*dt), so a mean time is
high by at most dt/2.

Worker streams are counter-based (Philox keyed by (seed, worker index)) and
reduced in worker order, so results are bit-identical for a fixed
configuration regardless of scheduling.

Cost of a step.  A worker moves all its live trajectories one step per loop
pass: a normal per trajectory, a uniform per trajectory for the ends and
one for the killing, and a fixed number of whole-array NumPy calls written
into buffers allocated once per worker.  The crossing times, kill times and
kill positions are computed only on the few trajectories with an event.
At about 700 live trajectories each call's fixed cost weighs as much as its
arithmetic, so a trajectory-step costs about twice the plain Euler step
with end checks at the step's end (158 vs 77 raw ns on a shared 2-core
host, `bench/run.py --workload matrix --trace 1`); the exact decisions pay for it by
allowing steps 5-20 times larger at the same accuracy (5.0 million
trajectory-steps on the crosscheck matrix instead of 63 million).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple, Tuple

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
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


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


def _hit_probability(d0, d1, D: float, dt: float, out=None) -> np.ndarray:
    """exp(-max(d0 d1, 0) / (D dt)): the probability that a Brownian bridge
    of diffusivity D over a step dt reaches a point that lies at signed
    distance d0 from its start and d1 from its end (1 once it crossed)."""
    q = np.multiply(d0, d1, out=out)
    np.maximum(q, 0.0, out=q)
    q *= -1.0 / (D * dt)
    return np.exp(q, out=q)


def _spot_kill_probability(x0, x1, xs: float, k: float, D: float, dt: float) -> np.ndarray:
    """Probability that a spot at xs of strength k kills the Brownian bridge
    from x0 to x1 over dt: E[1 - exp(-k L)] for its local time L at xs,
    from the bridge's local-time law."""
    from scipy.special import erfcx

    a = np.subtract(x0, xs)
    b = np.subtract(x1, xs)
    p = _hit_probability(a, b, D, dt)
    np.abs(a, out=a)
    a += np.abs(b, out=b)
    a += k * dt
    a *= 0.5 / math.sqrt(D * dt)
    p *= erfcx(a, out=a)
    p *= 0.5 * k * math.sqrt(math.pi * dt / D)
    return p


def _crossing_time(rng: np.random.Generator, d0, d1, D: float, dt: float) -> np.ndarray:
    """First time, within a step dt, that a Brownian bridge reaches a point
    at distance d0 > 0 from its start and signed distance d1 from its end,
    given that it does: tau / (dt - tau) is inverse Gaussian with mean
    d0/|d1| and shape d0^2/(2 D dt)."""
    v = rng.wald(d0 / np.abs(d1), d0 * d0 / (2 * D * dt))
    return dt * v / (1 + v)


def _bridge_point(rng: np.random.Generator, x0, x1, s, D: float, dt: float) -> np.ndarray:
    """A draw of the Brownian bridge from x0 to x1 over dt at times s."""
    spread = np.sqrt(2 * D * s * (dt - s) / dt)
    return x0 + (x1 - x0) * (s / dt) + spread * rng.standard_normal(np.size(s))


class _KillLaw(NamedTuple):
    probability: Callable  # (x0, x1) -> kill probability of each step
    time: Callable  # u -> in-step kill time of the steps killed with uniform u
    position: Callable  # (rng, x0, x1, s, u) -> kill position of those steps


def _kill_law(killing: KillingMeasure, D: float, dt: float):
    """The kill decision of one step, exact for the Brownian bridge between
    its endpoints (module docstring); None without killing."""
    if killing.kind is KillingKind.ZERO:
        return None

    def midpoint(u):
        return np.full(np.size(u), dt / 2)

    def on_bridge(rng, x0, x1, s, u):
        return _bridge_point(rng, x0, x1, s, D, dt)

    if killing.kind is KillingKind.UNIFORM:
        v0 = killing.v0
        p = -math.expm1(-v0 * dt)
        return _KillLaw(lambda x0, x1: p, lambda u: -np.log1p(-u) / v0, on_bridge)
    if killing.kind is KillingKind.PIECEWISE:
        breaks = np.asarray(killing.breakpoints)
        half_rates = np.asarray(killing.rates, dtype=float) * (-dt / 2)

        def trapezoid(x0, x1):
            r = half_rates[np.searchsorted(breaks, x0, side="right")]
            r += half_rates[np.searchsorted(breaks, x1, side="right")]
            return np.negative(np.expm1(r, out=r), out=r)

        return _KillLaw(trapezoid, midpoint, on_bridge)
    spots = killing.spots
    if len(spots) == 1:
        (xs, k), = spots
        return _KillLaw(
            lambda x0, x1: _spot_kill_probability(x0, x1, xs, k, D, dt),
            midpoint,
            lambda rng, x0, x1, s, u: np.full(np.size(u), xs),
        )
    sites = np.array([xs for xs, _ in spots])

    def killed_by(x0, x1):
        """Per spot, the probability that it or a spot before it kills the step."""
        q = [1.0 - _spot_kill_probability(x0, x1, xs, k, D, dt) for xs, k in spots]
        return 1.0 - np.cumprod(q, axis=0)

    def at_spot(rng, x0, x1, s, u):
        # the spots kill in turn: the first whose cumulative probability exceeds u
        return sites[np.count_nonzero(killed_by(x0, x1) <= u, axis=0)]

    return _KillLaw(lambda x0, x1: killed_by(x0, x1)[-1], midpoint, at_spot)


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
    kill = _kill_law(killing, D, dt)
    left_abs = dom.left.kind is BoundaryKind.ABSORBING
    right_abs = dom.right.kind is BoundaryKind.ABSORBING
    exits = left_abs or right_abs
    n_uniform = int(exits) + int(kill is not None)

    fate = np.full(n, FATE_ABSORBED, dtype=np.uint8)
    t_end = np.empty(n, dtype=float)
    x_end = np.empty(n, dtype=float)
    alive = np.arange(n)
    # per-step buffers; a step uses the first m entries, m live trajectories.
    # x0 and x1 trade buffers after a step that ends no trajectory.
    x0_buf = np.full(n, y0, dtype=float)
    x1_buf = np.empty(n, dtype=float)
    u_buf = np.empty(n_uniform * n, dtype=float)
    p_left = np.empty(n, dtype=float)
    p_right = np.empty(n, dtype=float)
    d0_right = np.empty(n, dtype=float)
    d1_right = np.empty(n, dtype=float)

    step = 0
    m = n
    while m:
        if step >= cfg.max_steps:
            raise AccuracyError(
                f"{m / n:.3%} of trajectories still alive after "
                f"{cfg.max_steps} steps; raise max_steps or check termination"
            )
        step += 1
        x0 = x0_buf[:m]
        x1 = rng.standard_normal(out=x1_buf[:m])
        x1 *= sigma
        if shift:
            x1 += shift
        x1 += x0
        if not left_abs:
            np.negative(x1, out=x1, where=x1 < 0.0)
        if not right_abs:
            np.subtract(2 * L, x1, out=x1, where=x1 > L)
        if not exits:
            # a reflected step can only leave [0, L] for absurdly large dt;
            # clamp as a guard
            np.clip(x1, 0.0, L, out=x1)
        u = rng.random(out=u_buf[: n_uniform * m])
        u_exit, u_kill = (u[:m], u[m:]) if exits else (None, u)

        if left_abs:
            left = u_exit < _hit_probability(x0, x1, D, dt, out=p_left[:m])
            events = left
        if right_abs:
            p = _hit_probability(
                np.subtract(L, x0, out=d0_right[:m]), np.subtract(L, x1, out=d1_right[:m]),
                D, dt, out=p_right[:m],
            )
            right = u_exit > np.subtract(1.0, p, out=p)
            events = left | right if left_abs else right
        if kill is not None:
            killed = u_kill < kill.probability(x0, x1)
            events = events | killed if exits else killed
        ev = events.nonzero()[0]
        if not ev.size:
            x0_buf, x1_buf = x1_buf, x0_buf
            continue

        idx = alive[ev]
        t_end[idx] = step * dt
        if left_abs and right_abs:
            x_end[idx] = np.where(left[ev], 0.0, L)
        elif exits:
            x_end[idx] = 0.0 if left_abs else L
        dead = ev[killed[ev]] if kill is not None else ev[:0]
        if dead.size:
            s = kill.time(u_kill[dead])
            if exits:
                # a kill and an exit in one step: the earlier ends it
                at_left = left[dead] if left_abs else np.zeros(dead.size, dtype=bool)
                both = at_left | right[dead] if right_abs else at_left
                if both.any():
                    b = dead[both]
                    d0 = np.where(at_left[both], x0[b], L - x0[b])
                    d1 = np.where(at_left[both], x1[b], L - x1[b])
                    first = ~both
                    first[both] = s[both] < _crossing_time(rng, d0, d1, D, dt)
                    dead, s = dead[first], s[first]
            idx = alive[dead]
            fate[idx] = FATE_KILLED
            x_end[idx] = np.clip(kill.position(rng, x0[dead], x1[dead], s, u_kill[dead]), 0.0, L)
        keep = ~events
        m -= ev.size
        x0_buf = x1[keep]
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
    if (y, BoundaryKind.ABSORBING) in ((0, dom.left.kind), (dom.length, dom.right.kind)):
        raise InputError("start position on an absorbing end")
    has_absorbing = BoundaryKind.ABSORBING in (dom.left.kind, dom.right.kind)
    if not has_absorbing and killing.is_zero:
        raise InputError("trajectories would never terminate")

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
