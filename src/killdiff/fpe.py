"""Finite-difference Fokker-Planck solver with a killing reaction term.

Discretization: node-centered finite volumes on [0, L] (half cells at
reflecting/injection ends), face fluxes J = -D dp/dx + a p in the
Scharfetter-Gummel form (exact for constant drift), Crank-Nicolson in
time with the killing rate folded implicitly into the diagonal.  Point
killings, point sources and the point start are split position-weighted
across the two bracketing nodes.  States live on the unknown nodes (an
absorbing end node holds zero) and are padded to all nodes only where a
density is returned.  Survival, kill rate and absorbed flux are the three
rows of one weight matrix applied to a state, on every route.  The scheme's
discrete conservation identity dS/dt = -killRate - boundaryFlux holds to
round-off, which is what makes the absorbed/killed bookkeeping in
`split_statistics` exact; each solve checks it (`_Discretization.solve`).

At every drift a diagonal similarity S makes the operator A symmetric,
and a Crank-Nicolson step multiplies eigenmode j by
r_j = (1 + dt lam_j/2) / (1 - dt lam_j/2).  `evolve` uses this: survival,
kill rate and absorbed flux are each const + sum_j w_j r_j^n, summed only at
the K steps it reports (every `stride`-th).  On m unknown nodes that costs
O(m^2) for the eigenvectors, plus the powers r_j^n and 3 m K products.
Strong drift makes S far from the identity and those sums cancel; where
their round-off estimate is too large, `evolve` steps the scheme, one solve
per step with I - dt/2 A factored once.  `decay_rate` is the top
eigenvalue of the same symmetric form.  `split_statistics` does not step
either: the Crank-Nicolson midpoint sums over an infinite horizon are, for
every dt, (-A)^-1 u0 and A^-2 u0, so the split is two solves with one
factorization of -A and is the exact infinite-horizon sum of the stepped
scheme.  Every solve applies LU factors with partial pivoting (LAPACK
gttrf), made once per matrix, with LAPACK gttrs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dgttrf, dgttrs, dstein

from .model import (
    BoundaryKind,
    DiffusionModel,
    InitialCondition,
    InputError,
    KillingMeasure,
    SplitStatistics,
    SteadyStateSolution,
    require_valid,
)
from .numerics import AccuracyError

_log = logging.getLogger("killdiff")

# eigenvectors per inverse-iteration call: no m x m array is ever formed
_EIG_BLOCK = 64
# most reported steps per table product when summing the modes
_CHUNK = 128
# the spectral route runs when its round-off estimate is at most this times S(0)
_SPECTRAL_ROUNDOFF = 1e-10
# a solve's balance kill + absorbed = inflow misses by round-off, eps |A| T
# for mass staying a time T: 4 eps n^2 on n cells if T ~ L^2/D.  A miss
# over 1e-8 and 16 eps n^2 marks mass held far longer: drift traps it
_BALANCE_BOUND, _BALANCE_ROUNDOFF = 1e-8, 16.0
# decay rates below this times eps |A|_inf are refused: the bisection's
# absolute error, about eps |A|, would be over 1% of them
_DECAY_RESOLUTION = 100.0
# widest log-range of the similarity that keeps S, S^-1 and the mode weights
# finite; sums over so non-normal an operator would fail the bound anyway
_MAX_LOG_SIMILARITY = 600.0


@dataclass(frozen=True)
class GridSpec:
    cell_count: int
    dt: float
    t_max: float

    def __post_init__(self):
        if self.cell_count < 8:
            raise ValueError("cell_count must be at least 8")
        if not (self.dt > 0 and self.t_max > 0):
            raise ValueError("dt and t_max must be positive")


@dataclass(frozen=True)
class DensityFrame:
    time: float
    x: np.ndarray
    density: np.ndarray


@dataclass(frozen=True)
class ObservableSeries:
    times: np.ndarray
    survival: np.ndarray
    kill_rate: np.ndarray
    boundary_flux: np.ndarray
    ratio_rt: np.ndarray


@dataclass(frozen=True)
class FpeResult:
    x: np.ndarray
    series: ObservableSeries
    frames: Tuple[DensityFrame, ...]
    final_density: np.ndarray
    route: str  # "spectral" (eigenbasis propagation) or "stepped"
    roundoff_bound: float  # of the spectral sums; inf when they cannot be formed
    cell_peclet: float  # |a| dx / (2 D)


@dataclass(frozen=True)
class GreenSteadyResult:
    x: np.ndarray
    green: np.ndarray
    absorbed_flux: float
    kill_integral: float
    ratio_rinf: float


def _bernoulli(x: float) -> float:
    """B(x) = x / (e^x - 1), B(0) = 1, without overflow at large x."""
    if x > 0:
        return x * math.exp(-x) / -math.expm1(-x)
    return x / math.expm1(x) if x else 1.0


def _lu_solve(lu: tuple, rhs: np.ndarray) -> np.ndarray:
    """The solution x of M x = rhs from lu = dgttrf(lower, diag, upper), the
    LU factors with partial pivoting of the tridiagonal M, by LAPACK gttrs;
    all NaN when the factorization met an exactly zero pivot."""
    *factors, info = lu
    if info:
        return np.full(rhs.size, math.nan)
    return dgttrs(*factors, rhs)[0]


class _Discretization:
    """Spatial operator dp/dt = A p + s on the unknown nodes."""

    def __init__(self, model: DiffusionModel, killing: KillingMeasure, n_cells: int):
        dom = model.domain
        L, D, a = dom.length, model.diffusion, model.drift
        self.n = n_cells
        self.dx = dx = L / n_cells
        self.x = np.linspace(0.0, L, n_cells + 1)
        self.left_kind = dom.left.kind
        self.right_kind = dom.right.kind
        self.peclet = abs(a) * dx / (2 * D)

        # trapezoid / finite-volume node weights
        self.h = np.full(n_cells + 1, dx)
        self.h[0] = self.h[-1] = dx / 2

        # killing rate per node; point spots become k/dx-style sinks split
        # over the bracketing nodes so that sum(h * k * p) reproduces k*p(xs)
        self.k = killing.smooth_rate(self.x)
        for xs, ks in killing.spots:
            self.k += self.point_mass(xs, ks)

        i0 = 1 if self.left_kind is BoundaryKind.ABSORBING else 0
        i1 = n_cells - 1 if self.right_kind is BoundaryKind.ABSORBING else n_cells
        self.unknowns = slice(i0, i1 + 1)
        self.m = i1 - i0 + 1
        if self.m < 3:
            raise InputError("grid too coarse for the boundary configuration")

        # the Scharfetter-Gummel face flux F = fwd p_left - bwd p_right is
        # exact for constant drift and keeps A an M-matrix with
        # lower * upper > 0 at any drift.  The interior stencil, then the
        # half-cell row of a reflecting or injection end: no flux, or the
        # prescribed inward flux as a source
        pe = a * dx / D
        fwd, bwd = D / dx * _bernoulli(-pe), D / dx * _bernoulli(pe)
        lo = np.full(self.m - 1, fwd / dx)
        di = np.full(self.m, -D / dx**2 * (_bernoulli(pe) + _bernoulli(-pe)))
        up = np.full(self.m - 1, bwd / dx)
        self.source = np.zeros(self.m)
        # the observables are weights @ u for u on the unknown nodes:
        # survival sum h u, kill rate sum h k u, and the outward flux
        # through the absorbing end faces, whose outer node holds zero
        self.weights = np.zeros((3, self.m))
        self.weights[0] = self.h[self.unknowns]
        self.weights[1] = (self.h * self.k)[self.unknowns]
        if self.left_kind is BoundaryKind.ABSORBING:
            self.weights[2, 0] = bwd
        else:
            h = self.h[0]
            di[0] = -fwd / h
            up[0] = bwd / h
            if self.left_kind is BoundaryKind.INJECTION:
                self.source[0] = dom.left.phi / h
        if self.right_kind is BoundaryKind.ABSORBING:
            self.weights[2, -1] = fwd
        else:
            h = self.h[-1]
            di[-1] = -bwd / h
            lo[-1] = fwd / h
            if self.right_kind is BoundaryKind.INJECTION:
                self.source[-1] = dom.right.phi / h
        di -= self.k[self.unknowns]
        self.lower, self.diag, self.upper = lo, di, up

    def symmetric_form(self) -> Tuple[np.ndarray, np.ndarray]:
        """(e, log s): S A S^-1 with S = diag(s) is the symmetric tridiagonal
        matrix with diagonal `diag` and off-diagonal e = sqrt(lower * upper)."""
        e = np.sqrt(self.lower * self.upper)
        log_s = np.concatenate(([0.0], np.cumsum(0.5 * np.log(self.upper / self.lower))))
        return e, log_s

    def point_mass(self, pos: float, strength: float = 1.0) -> np.ndarray:
        """Nodal density of mass `strength` at pos, split linearly over the
        two bracketing nodes (hat weights), on all n + 1 nodes."""
        p = np.zeros(self.n + 1)
        j = min(int(pos / self.dx), self.n - 1)
        theta = pos / self.dx - j
        for node, w in ((j, 1 - theta), (j + 1, theta)):
            p[node] += strength * w / self.h[node]
        return p

    def full(self, u: np.ndarray) -> np.ndarray:
        p = np.zeros(self.n + 1)
        p[self.unknowns] = u
        return p

    @cached_property
    def neg_lu(self) -> tuple:
        """The LU factors of -A, made at the first solve."""
        return dgttrf(-self.lower, -self.diag, -self.upper)

    def solve(self, rhs: np.ndarray) -> Tuple[np.ndarray, list]:
        """u = (-A)^-1 rhs on the unknown nodes, from the factors neg_lu,
        and weights @ u.  Refused when kill plus absorption misses the mass
        rhs puts in by over the balance bound (drift holds mass
        exp(|a| L / D) at an undrained end) or is not finite (an exactly
        zero pivot)."""
        u = _lu_solve(self.neg_lu, rhs)
        _, kill, absorbed = obs = (self.weights @ u).tolist()
        inflow = float(self.weights[0] @ rhs)
        residual = abs(kill + absorbed - inflow) / inflow
        bound = max(_BALANCE_BOUND, _BALANCE_ROUNDOFF * np.finfo(float).eps * self.n**2)
        if not residual <= bound:
            miss = f"by {residual:.3g} relative" if math.isfinite(residual) else "(not finite)"
            raise InputError(
                f"kill + absorption misses the mass put in {miss}, bound {bound:.3g}: "
                "drift traps the mass against a closed end"
            )
        return u, obs

    def initial_vector(self, ic: InitialCondition) -> np.ndarray:
        """Unit mass at ic.y on the unknown nodes."""
        return self.point_mass(ic.y)[self.unknowns]


def evolve(
    model: DiffusionModel,
    killing: KillingMeasure,
    ic: InitialCondition,
    grid: GridSpec,
    frame_times: Sequence[float] = (),
    stride: int = 1,
) -> FpeResult:
    """Crank-Nicolson evolution, returning the observable time series at
    steps 0, stride, 2 stride, ... up to the last step, and density frames at
    the requested times (nearest step).

    The iterates are propagated in the eigenbasis of the symmetrized
    operator (`_eigenmodes`, `_mode_sums`): O(m^2) for the eigenvectors on m
    unknown nodes, plus the powers r_j^n and 3 m K products for the K
    reported steps.  Where drift makes the operator so far from normal that
    the round-off estimate of those sums exceeds 1e-10 S(0), or an injection
    problem has no steady state, the scheme is stepped instead (`_step`),
    one solve per step with I - dt/2 A factored once.  Both routes give the
    iterates of the same scheme; `FpeResult.route` says which one ran.  The
    frames, the final density, the route and the round-off estimate do not
    depend on stride."""
    require_valid(model, killing, ic)
    if stride < 1 or stride != int(stride):
        raise InputError(f"stride must be a positive integer, got {stride!r}")
    stride = int(stride)
    disc = _Discretization(model, killing, grid.cell_count)
    dt = grid.dt
    n_steps = max(1, int(round(grid.t_max / dt)))
    frame_steps = sorted({min(n_steps, max(0, int(round(t / dt)))) for t in frame_times})
    keep = sorted(set(frame_steps) | {n_steps})
    u0 = disc.initial_vector(ic)

    modes = _eigenmodes(disc, u0, dt, keep)
    bound = modes.bound if modes else math.inf
    limit = _SPECTRAL_ROUNDOFF * float(disc.weights[0] @ u0)
    if bound <= limit:
        route = "spectral"
        obs = _mode_sums(modes.r, modes.weights, n_steps, stride)
        obs += modes.steady_observables[:, None]
        kept = modes.kept
    else:
        route = "stepped"
        _log.debug(
            "evolve: stepping %d steps on %d cells (spectral round-off estimate %.3g > %.3g)",
            n_steps, disc.n, bound, limit,
        )
        obs, kept = _step(disc, u0, dt, n_steps, keep, stride)

    times = np.arange(0, n_steps + 1, stride) * dt
    surv, krate, brate = obs
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(krate > 0, brate / np.maximum(krate, 1e-300), np.inf)
    series = ObservableSeries(times, surv, krate, brate, ratio)
    densities = {n: disc.full(u) for n, u in kept.items()}
    frames = tuple(
        DensityFrame(n * dt, disc.x.copy(), densities[n].copy()) for n in frame_steps
    )
    return FpeResult(disc.x, series, frames, densities[n_steps], route, bound, disc.peclet)


class _Modes(NamedTuple):
    r: np.ndarray  # per-step factor of each mode
    weights: np.ndarray  # m x 3: each mode's share of survival, kill rate, absorbed flux
    steady_observables: np.ndarray  # the three observables of the steady state
    kept: Dict[int, np.ndarray]  # the iterate at each kept step
    bound: float


def _eigenmodes(
    disc: _Discretization, u0: np.ndarray, dt: float, keep: Sequence[int]
) -> Optional[_Modes]:
    """The Crank-Nicolson iterates in the eigenbasis of the symmetrized
    operator.  With S A S^-1 = V diag(lam) V^T and u* = (-A)^-1 source the
    steady state, u_n = u* + S^-1 V diag(r^n) V^T S (u_0 - u*) with
    r = (1 + dt lam/2) / (1 - dt lam/2), so each observable c.u_n is
    c.u* + sum_j w_j r_j^n with w_j = (V^T S^-1 c)_j (V^T S (u_0 - u*))_j.

    The eigenvectors are found in blocks by inverse iteration and never held
    together.  Their round-off is estimated by eps |S^-1 c| |S (u_0 - u*)|,
    the rates' scaled by dt to a per-step probability: at least
    eps sum_j |w_j|, large when drift makes S far from the identity, and an
    estimate, not a bound: against the stepped scheme it held up to an
    absolute floor of 1.6e-13 from the eigenvectors' orthogonality.  None
    when no similarity is representable, the steady state does not exist or
    inverse iteration fails."""
    e, log_s = disc.symmetric_form()
    if np.ptp(log_s) > _MAX_LOG_SIMILARITY:
        return None
    if disc.source.any():
        try:
            steady, steady_obs = disc.solve(disc.source)
        except InputError:
            return None  # the injected mass grows without bound, or beyond double precision
    else:
        steady, steady_obs = np.zeros(disc.m), [0.0] * 3
    s = np.exp(log_s - (log_s.max() + log_s.min()) / 2)
    c = disc.weights
    lam = eigvalsh_tridiagonal(disc.diag, e)
    r = (1 + dt / 2 * lam) / (1 - dt / 2 * lam)

    c_s = (c / s).T
    z_s = s * (u0 - steady)
    powers = np.asarray(keep)
    c_modes = np.empty((disc.m, 3))
    z_modes = np.empty(disc.m)
    z_kept = np.zeros((disc.m, powers.size))
    # one unreduced block: every off-diagonal of the symmetric form is positive
    iblock = np.ones(disc.m, dtype=np.int32)
    isplit = np.full(disc.m, disc.m, dtype=np.int32)
    for j in range(0, disc.m, _EIG_BLOCK):
        blk = slice(j, j + _EIG_BLOCK)
        v, info = dstein(disc.diag, e, lam[blk], iblock, isplit)
        if info:
            return None
        c_modes[blk] = v.T @ c_s
        z_modes[blk] = v.T @ z_s
        z_kept += v @ (z_modes[blk, None] * r[blk, None] ** powers)
    weights = c_modes * z_modes[:, None]
    scale = np.linalg.norm(c_s, axis=0) * np.linalg.norm(z_s) * (1.0, dt, dt)
    bound = float(np.finfo(float).eps * np.max(scale))
    kept = {int(n): steady + z_kept[:, i] / s for i, n in enumerate(powers)}
    return _Modes(r, weights, np.array(steady_obs), kept, bound)


def _mode_sums(r: np.ndarray, weights: np.ndarray, n_steps: int, stride: int) -> np.ndarray:
    """sum_j weights[j] r_j^n for n = 0, stride, 2 stride, ... <= n_steps, one
    row per column of weights: one (3 x m)(m x chunk) product per chunk of
    reported steps against a fixed table of r^(stride i), i < chunk.  The
    table and the chunk offsets take m (chunk + K / chunk) powers for K
    reported steps, fewest at a chunk of sqrt(K).  The chunk is held between
    _CHUNK / stride and _CHUNK: the table never outgrows m x _CHUNK, and
    stride 1 keeps the chunk of _CHUNK steps, so its sums stay the same."""
    k = n_steps // stride + 1
    chunk = min(_CHUNK, max(_CHUNK // stride, math.isqrt(k)))
    table = r[:, None] ** (stride * np.arange(chunk))
    out = np.empty((weights.shape[1], k))
    for i0 in range(0, k, chunk):
        i1 = min(i0 + chunk, k)
        out[:, i0:i1] = (weights * r[:, None] ** (i0 * stride)).T @ table[:, : i1 - i0]
    return out


def _step(
    disc: _Discretization, u0: np.ndarray, dt: float, n_steps: int, keep: Sequence[int],
    stride: int,
) -> Tuple[np.ndarray, Dict[int, np.ndarray]]:
    """The Crank-Nicolson step loop: the observables (3 x reported steps) at
    every stride-th step and the iterate at the steps in keep."""
    lu = dgttrf(-dt / 2 * disc.lower, 1 - dt / 2 * disc.diag, -dt / 2 * disc.upper)
    m2_lo = dt / 2 * disc.lower
    m2_di = 1 + dt / 2 * disc.diag
    m2_up = dt / 2 * disc.upper

    kept_steps = set(keep)
    u = u0
    obs = np.empty((3, n_steps // stride + 1))
    kept: Dict[int, np.ndarray] = {}
    for step in range(n_steps + 1):
        if step:
            rhs = m2_di * u + dt * disc.source
            rhs[:-1] += m2_up * u[1:]
            rhs[1:] += m2_lo * u[:-1]
            u = _lu_solve(lu, rhs)
            if step % 200 == 0 and not np.all(np.isfinite(u)):
                raise AccuracyError(f"solution blew up at t={step * dt}")
        if step % stride == 0:
            obs[:, step // stride] = disc.weights @ u
        if step in kept_steps:
            kept[step] = u
    return obs, kept


def split_statistics(
    model: DiffusionModel,
    killing: KillingMeasure,
    ic: InitialCondition,
    grid: GridSpec,
) -> SplitStatistics:
    """Absorbed/killed split probabilities, conditional mean times and the
    absorbed-to-killed ratio: the exact infinite-horizon sums of the
    Crank-Nicolson scheme that `evolve` steps.

    With u_n the CN iterates, the midpoint sums sum dt (u_{n-1} + u_n)/2 and
    sum (n - 1/2) dt dt (u_{n-1} + u_n)/2 telescope to y1 = (-A)^-1 u0 and
    y2 = (-A)^-1 y1 for every dt, so only grid.cell_count matters; dt and
    t_max do not.  The kill and absorption rates of y1 give the split
    probabilities, those of y2 the time moments; p_killed + p_absorbed =
    S(0) holds to round-off, or the solve is refused, and is normalized to 1."""
    require_valid(model, killing, ic)
    dom = model.domain
    has_absorbing = BoundaryKind.ABSORBING in (dom.left.kind, dom.right.kind)
    if not has_absorbing and killing.is_zero:
        raise InputError("split statistics need an absorbing boundary or nonzero killing")
    if BoundaryKind.INJECTION in (dom.left.kind, dom.right.kind):
        raise InputError("split statistics are defined for problems without injection")

    disc = _Discretization(model, killing, grid.cell_count)
    u0 = disc.initial_vector(ic)
    y1, obs1 = disc.solve(u0)
    obs2 = disc.solve(y1)[1]
    s0 = float(disc.weights[0] @ u0)  # normalizes away any initial-hat mass defect
    _, p_killed, p_absorbed = (o / s0 for o in obs1)
    _, t_killed, t_absorbed = (o / s0 for o in obs2)

    mean_kill = t_killed / p_killed if p_killed > 0 else math.nan
    mean_abs = t_absorbed / p_absorbed if p_absorbed > 0 else math.nan
    ratio = p_absorbed / p_killed if p_killed > 0 else math.inf
    return SplitStatistics(p_killed, p_absorbed, mean_kill, mean_abs, ratio)


def steady_state(
    model: DiffusionModel, killing: KillingMeasure, grid: GridSpec
) -> SteadyStateSolution:
    """Steady density under a constant injected flux at one end and
    absorption at the other; ratio_rs = absorbed flux / kill integral."""
    require_valid(model, killing)
    dom = model.domain
    kinds = (dom.left.kind, dom.right.kind)
    if kinds.count(BoundaryKind.INJECTION) != 1 or kinds.count(BoundaryKind.ABSORBING) != 1:
        raise InputError("steady state needs exactly one injection and one absorbing end")
    disc = _Discretization(model, killing, grid.cell_count)
    u, (_, kill, absorbed) = disc.solve(disc.source)
    injected = dom.left.phi if dom.left.kind is BoundaryKind.INJECTION else dom.right.phi
    ratio = absorbed / kill if kill > 0 else math.inf
    return SteadyStateSolution(disc.x, disc.full(u), injected, absorbed, kill, ratio)


def green_steady(
    model: DiffusionModel,
    killing: KillingMeasure,
    source: float,
    grid: GridSpec,
) -> GreenSteadyResult:
    """Steady Green function for a unit point source with both ends
    absorbing; ratio_rinf = boundary flux / kill integral."""
    require_valid(model, killing)
    dom = model.domain
    if dom.left.kind is not BoundaryKind.ABSORBING or dom.right.kind is not BoundaryKind.ABSORBING:
        raise InputError("green_steady needs both ends absorbing")
    if not (0 < source < dom.length):
        raise InputError("source must be strictly inside the interval")
    disc = _Discretization(model, killing, grid.cell_count)
    g, (_, kill, absorbed) = disc.solve(disc.point_mass(source)[disc.unknowns])
    ratio = absorbed / kill if kill > 0 else math.inf
    return GreenSteadyResult(disc.x, disc.full(g), absorbed, kill, ratio)


def decay_rate(model: DiffusionModel, killing: KillingMeasure, cell_count: int) -> float:
    """Leading (smallest) eigenvalue of the discretized -L + k operator, the
    top eigenvalue of its symmetric form by bisection; the true asymptotic
    decay rate of survival.  The bisection is accurate to about eps |A|
    absolute, so a rate below _DECAY_RESOLUTION eps |A|_inf, over 1% wrong,
    is refused: drift holding mass against an undrained end makes it
    small like exp(-|a| L / D)."""
    require_valid(model, killing)
    dom = model.domain
    has_absorbing = BoundaryKind.ABSORBING in (dom.left.kind, dom.right.kind)
    if not has_absorbing and killing.is_zero:
        raise InputError("decay rate needs an absorbing boundary or nonzero killing")
    disc = _Discretization(model, killing, cell_count)
    e, _ = disc.symmetric_form()
    # bisection to full relative accuracy needs the smallest tolerance
    top = eigvalsh_tridiagonal(
        disc.diag, e, select="i", select_range=(disc.m - 1, disc.m - 1),
        tol=2 * np.finfo(float).tiny,
    )
    rate = float(-top[0])
    norm = np.abs(disc.diag)
    norm[1:] += np.abs(disc.lower)
    norm[:-1] += np.abs(disc.upper)
    bound = _DECAY_RESOLUTION * np.finfo(float).eps * float(norm.max())
    if not rate >= bound:
        raise InputError(
            f"decay rate {rate:.3g} is below what the eigenvalue solve resolves, "
            f"{bound:.3g}: drift traps the mass against a closed end, or killing is too weak"
        )
    return rate
