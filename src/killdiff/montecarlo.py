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
- the rate kills with 1 - exp(-r dt), r = (k(x0) + k(x1))/2 its trapezoid
  mean over the step (exact unless the step straddles a breakpoint), at the
  in-step time -log1p(-u)/r of the same uniform u, at the bridge point then;
- a point spot xs of strength k kills with the probability that the
  bridge's local time at xs exceeds an Exp(k) threshold (Borodin &
  Salminen, Handbook of Brownian Motion):
  (k/2) sqrt(pi dt/D) exp(-max(ab, 0)/(D dt)) erfcx((|a| + |b| + k dt) /
  (2 sqrt(D dt))) with a = x0 - xs, b = x1 - xs, at the step midpoint and
  at the spot.  The rate and then each spot kill with 1 - prod(1 - P_i):
  the first whose cumulative probability exceeds u kills;
- a step with both a kill and an exit (rare) ends with the earlier: the
  crossing time tau = dt V/(1 + V), V inverse Gaussian with mean d0/|d1|
  and shape d0^2/(2 D dt), against the kill time (the midpoint for spots).

Ignored within a step: the interaction of a spot or of the killing with a
reflecting end (x1 is reflected first, and the bridge runs to the reflected
point) and, for several sources, the dependence between them.  That limits
the step: at dt 1.6e-2 it biases p_killed where several sources lie within
a step's reach (mean z -4.7 and -3.0 over 4 seeds of 100k trajectories for
three rates plus two spots and for the matrix's `two-spots`), while at 8e-3
every such entry lies within +-0.83, so the matrix and
`scenarios/pumps_on_background.ini` use 8e-3 there.

Every event is recorded at the end of its step (`TrajectoryOutcomes.time`
= step*dt), so it lies in (time - dt, time].  The estimators use that:
`split_from_outcomes` takes each event at its step's midpoint, time - dt/2,
which leaves mean times high by about (dt^2/12) f(0+), f(0+) the density of
event times at t = 0 (the rate k(y) for a start y away from the ends and
spots); `survival_curve` evaluates S only at multiples of dt,
where counting step ends is exact.

Worker streams are counter-based (Philox keyed by (seed, worker index)) and
reduced in worker order, so results are bit-identical for a fixed
configuration regardless of scheduling.  A multi-worker simulation runs one
job per worker with trajectories on a pool forked at the first such call
and reused by every later one in the process (`_run_on_pool`); the outputs
do not depend on that.  Workers run the module as it was when the pool was
forked: a test that monkeypatches the kernel must simulate with one worker,
which runs in the calling process.

Cost of a step.  A worker moves all its live trajectories one step per loop
pass: a normal per trajectory, a uniform per trajectory for the ends and
one for the killing, and a fixed number of whole-array NumPy calls written
into buffers allocated once per worker.  The exact laws run only where they
can change a decision, behind two screens that are conservative in floating
point, so every draw and decision is the one the full laws give:

- an absorbing end at least sqrt(746 D dt) from both ends of every live
  step is hit with probability exp(-746) = 0.0, so its law is skipped while
  the range of this step's and the last step's ends stays that far from it
  (the exit uniforms are still drawn).  Only an interval longer than that
  reach tests the range;
- a spot's kill probability is at most its hit factor times
  (k/2) sqrt(pi dt/D) erfcx(z0) (1 + 1e-9), z0 = k dt/(2 sqrt(D dt)), since
  erfcx decreases; a step whose kill uniform exceeds that bound (several
  sources combine their bounds as their probabilities) is not killed, and
  erfcx runs on the other steps alone.

The crossing times, kill times and kill positions are computed only on the
few trajectories with an event.  At about 700 live trajectories each call's
fixed cost weighs as much as its arithmetic: a trajectory-step costs 115 ns
on the crosscheck matrix (131 without the screens; a shared 2-core host,
`bench/run.py --workload matrix --trace 1`), and about 45 ns on
`scenarios/constant_killing_line.ini` (100k trajectories, one worker), of
which the normal and the two uniforms take about 36.  The exact decisions
and the midpoint estimator pay for it by allowing steps 20-80 times larger
at the same accuracy (0.88 million trajectory-steps on the crosscheck
matrix instead of 63 million).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .model import (
    BoundaryKind,
    DiffusionModel,
    InputError,
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
        if not 0 < self.dt < math.inf:
            raise ValueError("the MC step (mc_dt) must be positive and finite")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass(frozen=True)
class TrajectoryOutcomes:
    """Per-trajectory fate (killed/absorbed), termination time and position.

    `time` is the end of the step in which the event fell: the event lies in
    (time - dt, time]."""

    fate: np.ndarray  # uint8, FATE_KILLED or FATE_ABSORBED
    time: np.ndarray
    position: np.ndarray
    dt: float  # the simulation step

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
    # (x0, x1, u) -> (in-step kill time, kill site) of the steps killed with
    # uniform u; a NaN site marks a rate kill, at a bridge point
    locate: Callable
    # (x0, x1) -> an upper bound on the probability, cheaper to compute; None
    # where the probability is as cheap
    bound: Optional[Callable] = None

    def kills(self, x0, x1, u) -> np.ndarray:
        """Whether each step is killed, u < probability.  A step with u above
        the bound is not; the probability is computed for the others only."""
        if self.bound is None:
            return u < self.probability(x0, x1)
        killed = u <= self.bound(x0, x1)
        c = killed.nonzero()[0]
        if c.size:
            killed[c] = u[c] < self.probability(x0[c], x1[c])
        return killed


def _spot_law(xs: float, k: float, D: float, dt: float) -> _KillLaw:
    """The kill law of a spot at xs of strength k for the Brownian bridge
    from x0 to x1 over dt: E[1 - exp(-k L)] for its local time L at xs,
    from the bridge's local-time law.

    Its bound replaces erfcx(z), z >= z0 = k dt / (2 sqrt(D dt)), by
    erfcx(z0) (1 + 1e-9), erfcx being decreasing, and multiplies in the
    probability's own order: floating-point rounding is monotone, so the
    bound is at least the probability as computed, element by element."""
    from scipy.special import erfcx

    scale = 0.5 / math.sqrt(D * dt)
    factor = 0.5 * k * math.sqrt(math.pi * dt / D)
    top = float(erfcx(k * dt * scale)) * (1 + 1e-9)

    def probability(x0, x1):
        a = np.subtract(x0, xs)
        b = np.subtract(x1, xs)
        p = _hit_probability(a, b, D, dt)
        np.abs(a, out=a)
        a += np.abs(b, out=b)
        a += k * dt
        a *= scale
        p *= erfcx(a, out=a)
        p *= factor
        return p

    def bound(x0, x1):
        a = np.subtract(x0, xs)
        p = _hit_probability(a, np.subtract(x1, xs), D, dt, out=a)
        p *= top
        p *= factor
        return p

    def locate(x0, x1, u):
        return np.full(np.size(u), dt / 2), np.full(np.size(u), xs)

    return _KillLaw(probability, locate, bound)


def _kill_law(killing: KillingMeasure, D: float, dt: float) -> Optional[_KillLaw]:
    """The kill decision of one step, exact for the Brownian bridge between
    its endpoints (module docstring); None without killing."""
    rates = np.asarray(killing.rates, dtype=float)
    spots = [(xs, k) for xs, k in killing.spots if k > 0]
    if rates.size == 1:  # uniform: one kill probability for every step
        v0, p = rates[0], -math.expm1(-rates[0] * dt)
        probability, mean_rate = (lambda x0, x1: p), (lambda x0, x1: v0)
    else:
        piece = partial(np.asarray(killing.breakpoints).searchsorted, side="right")
        half = rates / 2

        def mean_rate(x0, x1):
            """The trapezoid (k(x0) + k(x1))/2 of the rate over the step."""
            r = half[piece(x0)]
            r += half[piece(x1)]
            return r

        def probability(x0, x1):
            r = mean_rate(x0, x1)
            r *= -dt
            return np.negative(np.expm1(r, out=r), out=r)

    def rate_kill(x0, x1, u):
        return -np.log1p(-u) / mean_rate(x0, x1), np.full(np.size(u), math.nan)

    rated = bool((rates > 0).any())
    sources = [_KillLaw(probability, rate_kill)] * rated + [
        _spot_law(xs, k, D, dt) for xs, k in spots
    ]
    if len(sources) < 2:  # a single source decides with its own law
        return sources[0] if sources else None
    sites = np.array([math.nan] * rated + [xs for xs, _ in spots])

    def killed_by(x0, x1):
        """Per source, the probability that it or a source before it kills the step."""
        q = np.empty((len(sources), np.size(x0)))
        for row, law in zip(q, sources):
            np.subtract(1.0, law.probability(x0, x1), out=row)
        return np.subtract(1.0, np.cumprod(q, axis=0, out=q), out=q)

    def bound(x0, x1):
        """killed_by's last row with each spot's bound for its probability,
        combined in the same order, so again at least that row."""
        q = np.ones(np.size(x0))
        for law in sources:
            q *= np.subtract(1.0, (law.bound or law.probability)(x0, x1))
        return np.subtract(1.0, q, out=q)

    def locate(x0, x1, u):
        """The site of the first source whose cumulative probability exceeds
        u, and the in-step time of that source's kill."""
        site = sites[np.count_nonzero(killed_by(x0, x1) <= u, axis=0)]
        s = np.full(np.size(u), dt / 2)
        r = np.isnan(site)
        s[r] = rate_kill(x0[r], x1[r], u[r])[0]
        return s, site

    return _KillLaw(lambda x0, x1: killed_by(x0, x1)[-1], locate, bound)


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
    # an end out of reach of every live step is not computed (module docstring)
    reach = math.sqrt(746 * D * dt)
    screen = exits and L > reach
    lo = hi = y0  # the range of the last step's ends

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
        near_left, near_right = left_abs, right_abs
        if screen:
            lo_step, hi_step = x1.min(), x1.max()
            near_left = left_abs and min(lo, lo_step) < reach
            near_right = right_abs and L - max(hi, hi_step) < reach
            lo, hi = lo_step, hi_step

        events = None
        if near_left:
            left = u_exit < _hit_probability(x0, x1, D, dt, out=p_left[:m])
            events = left
        if near_right:
            p = _hit_probability(
                np.subtract(L, x0, out=d0_right[:m]), np.subtract(L, x1, out=d1_right[:m]),
                D, dt, out=p_right[:m],
            )
            right = u_exit > np.subtract(1.0, p, out=p)
            events = right if events is None else left | right
        if kill is not None:
            killed = kill.kills(x0, x1, u_kill)
            events = killed if events is None else events | killed
        ev = events.nonzero()[0] if events is not None else alive[:0]
        if not ev.size:
            x0_buf, x1_buf = x1_buf, x0_buf
            continue

        idx = alive[ev]
        t_end[idx] = step * dt
        if near_left and near_right:
            x_end[idx] = np.where(left[ev], 0.0, L)
        elif near_left or near_right:
            x_end[idx] = 0.0 if near_left else L
        dead = ev[killed[ev]] if kill is not None else ev[:0]
        if dead.size:
            a, b = x0[dead], x1[dead]
            s, site = kill.locate(a, b, u_kill[dead])
            if near_left or near_right:
                # a kill and an exit in one step: the earlier ends it
                at_left = left[dead] if near_left else np.zeros(dead.size, dtype=bool)
                both = at_left | right[dead] if near_right else at_left
                if both.any():
                    d0 = np.where(at_left[both], a[both], L - a[both])
                    d1 = np.where(at_left[both], b[both], L - b[both])
                    first = ~both
                    first[both] = s[both] < _crossing_time(rng, d0, d1, D, dt)
                    dead, a, b, s, site = dead[first], a[first], b[first], s[first], site[first]
            r = np.flatnonzero(np.isnan(site))
            if r.size:  # rate kills, at a bridge point
                site[r] = _bridge_point(rng, a[r], b[r], s[r], D, dt)
            idx = alive[dead]
            fate[idx] = FATE_KILLED
            x_end[idx] = np.clip(site, 0.0, L)
        keep = ~events
        m -= ev.size
        x0_buf = x1[keep]
        alive = alive[keep]

    return fate, t_end, x_end


# the worker pool of this process, as (pid that forked it, workers, pool):
# forked at the first multi-worker simulation and kept for the later ones
_pool: Optional[Tuple[int, int, ProcessPoolExecutor]] = None


def _run_on_pool(jobs: list) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Run each job on its own worker of the process's pool, in job order.
    The pool is replaced in a process that did not fork it (a fork of this
    one), for another number of jobs, and after it broke: a worker that
    died takes the map down with BrokenProcessPool, which is raised."""
    global _pool
    key = (os.getpid(), len(jobs))
    if _pool is None or _pool[:2] != key:
        if _pool is not None and _pool[0] == key[0]:
            _pool[2].shutdown()
        _pool = (*key, ProcessPoolExecutor(max_workers=len(jobs)))
    try:
        return list(_pool[2].map(_simulate_worker, jobs))
    except BrokenProcessPool:
        _pool = None
        raise


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
    if len(jobs) == 1:
        parts = [_simulate_worker(jobs[0])]
    else:
        parts = _run_on_pool(jobs)
    fate = np.concatenate([p[0] for p in parts])
    time = np.concatenate([p[1] for p in parts])
    pos = np.concatenate([p[2] for p in parts])
    return TrajectoryOutcomes(fate, time, pos, cfg.dt)


def split_from_outcomes(out: TrajectoryOutcomes) -> SplitStatistics:
    """Split statistics of the outcomes.  The conditional mean times take
    each event at the midpoint of its step, time - dt/2."""
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
        mean = float(np.mean(vals)) - out.dt / 2
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


def kill_location_histogram(out: TrajectoryOutcomes, length: float) -> Tuple[np.ndarray, np.ndarray]:
    """Normalized histogram (edges, density) of the kill positions in 50
    bins over [0, length]; at least one trajectory must have been killed."""
    density, edges = np.histogram(out.position[out.killed], bins=50, range=(0.0, length), density=True)
    return edges, density


def simulate_rs(
    model: DiffusionModel, killing: KillingMeasure, cfg: McConfig
) -> Tuple[float, float]:
    """Steady-injection absorbed/killed ratio with its standard error.

    Each trajectory starts at the injection end, which reflects the live
    particle as every end that is not absorbing does; the fate split of
    injected particles reproduces the steady flux ratio by linearity."""
    dom = model.domain
    kinds = (dom.left.kind, dom.right.kind)
    if kinds.count(BoundaryKind.INJECTION) != 1 or kinds.count(BoundaryKind.ABSORBING) != 1:
        raise InputError("R_s simulation needs exactly one injection and one absorbing end")
    y0 = 0.0 if dom.left.kind is BoundaryKind.INJECTION else dom.length
    out = simulate_outcomes(model, killing, y0, cfg)
    if not out.killed.any():
        raise AccuracyError("no kill events; the ratio estimator is undefined")
    stats = split_from_outcomes(out)
    return stats.ratio_rinf, stats.ratio_rinf_se


def survival_curve(
    out: TrajectoryOutcomes, points: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical survivor function of min(T, tau) at up to `points` evenly
    spaced multiples of dt, at most one per step, ending at the last
    termination, with pointwise binomial standard errors.

    An event at step j (time j*dt) fell in ((j - 1) dt, j dt], so the
    fraction of step counts above k is exactly S(k dt); steps are counted as
    whole numbers, so round-off cannot move an event across a point."""
    steps = np.rint(out.time / out.dt).astype(np.int64)
    last = int(steps.max())
    points = min(points, last)  # at points >= last, ceil(last i / points) covers 1..last
    at = np.unique(-(-last * np.arange(1, points + 1) // points))  # ceil(last i / points)
    n = out.n
    s = (n - np.cumsum(np.bincount(steps))[at]) / n  # n minus the events by step k
    se = np.sqrt(s * (1 - s) / n)
    return at * out.dt, s, se
