"""Finite-difference Fokker-Planck solver with a killing reaction term.

Discretization: node-centered finite volumes on [0, L] (half cells at
reflecting/injection ends), face fluxes J = -D dp/dx + a p in the
Scharfetter-Gummel form (exact for constant drift), the killing rate on
the diagonal.  Point killings, point sources and the point start are split
position-weighted across the two bracketing nodes; the share of a start or
source on an absorbing end node, which holds no unknown, counts as absorbed
at t = 0 (`_Discretization.start`).  States live on the unknown nodes (an
absorbing end node holds zero) and are padded to all nodes only where a
steady density is returned.  Survival, kill rate and
absorbed flux are the three rows of one weight matrix applied to a state,
on every route.  The scheme's discrete conservation identity
dS/dt = -killRate - boundaryFlux holds to round-off, which is what makes
the absorbed/killed bookkeeping in `split_statistics` exact; each solve
checks it (`_Discretization.solve`).

`evolve` sums each observable of the semi-discrete solution at each
reported time on its own, exact in time: the inverse Laplace transform of
c.(zI - A)^-1 (u0 + source/z) by the trapezoid rule on a parabolic contour,
one complex tridiagonal solve per node, with no eigenproblem and no step;
where its time windows meet, their difference estimates the error.  The
windows and their node counts come from the grid alone, not the stride.
`decay_rate` is the top eigenvalue of the symmetric form S A S^-1, S
diagonal.  `split_statistics` is (-A)^-1 u0 and A^-2 u0, the time integrals
of e^(At) u0 and t e^(At) u0: two solves with one factorization of -A, by
LU factors with partial pivoting (LAPACK gttrf, applied with gttrs).

SciPy's linear algebra is imported by the calls that use it, at the first
solve, not with the module: `import killdiff` and the routes that make no
solve (the closed forms, Monte Carlo) do not load `scipy.linalg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .model import (
    BoundaryKind,
    DiffusionModel,
    InitialCondition,
    InputError,
    KillingMeasure,
    SplitStatistics,
    SteadyStateSolution,
    require_terminating,
    require_valid,
)

# `evolve`'s contour z = mu (1 + iu)^2, u = k h, |k| <= N, h = _STEP / N,
# mu = _SHIFT N / (_WINDOW t0) for t in [t0, _WINDOW t0] (Weideman &
# Trefethen, Math. Comp. 2007).  Drift far from normal needs more nodes, but
# the round-off grows like e^(mu _WINDOW t0) = e^(N / 6), past 1e-9 at N = 96
_NODES = (24, 32, 48, 64)
_WINDOW = 4
_STEP = 5.0
_SHIFT = 0.1665
_CONTOUR_TOL = 1e-10
# unknowns per block solve: the block's arrays stay in cache
_BLOCK = 4096
# a solve's balance kill + absorbed = inflow misses by round-off, eps |A| T
# for mass staying a time T: 4 eps n^2 on n cells if T ~ L^2/D.  A miss
# over 1e-8 and 16 eps n^2 marks mass held far longer: drift traps it
_BALANCE_BOUND, _BALANCE_ROUNDOFF = 1e-8, 16.0
# decay rates below this times eps |A|_inf are refused: the bisection's
# absolute error, about eps |A|, would be over 1% of them
_DECAY_RESOLUTION = 100.0


def _rule(nodes: int) -> tuple:
    """z t0 at the nodes k >= 0, their weights and e^(z t0 s) at the window's
    ends s = 1, _WINDOW: z t0 = mu t0 (1 + iu)^2 and h/(2 pi i) dz/du t0 =
    (h mu t0 / pi)(1 + iu), doubled for the conjugate node at -k but at 0."""
    h, mu_t0 = _STEP / nodes, _SHIFT * nodes / _WINDOW
    u = h * np.arange(nodes + 1)
    zt0, weight = mu_t0 * (1 + 1j * u) ** 2, (2 * h * mu_t0 / math.pi) * (1 + 1j * u)
    weight[0] /= 2
    return zt0, weight, np.exp(np.outer(zt0, (1, _WINDOW)))


# one rule per N of _NODES, read by the level a window has reached
_RULES = tuple(_rule(nodes) for nodes in _NODES)


@dataclass(frozen=True)
class GridSpec:
    cell_count: int
    dt: float
    t_max: float

    def __post_init__(self):
        if self.cell_count < 8:
            raise ValueError("cell_count must be at least 8")
        if not (0 < self.dt < math.inf and 0 < self.t_max < math.inf):
            raise ValueError("dt and t_max must be positive and finite")


@dataclass(frozen=True)
class ObservableSeries:
    times: np.ndarray
    survival: np.ndarray
    kill_rate: np.ndarray
    boundary_flux: np.ndarray


@dataclass(frozen=True)
class FpeResult:
    series: ObservableSeries
    error_estimate: float  # where the contour's windows meet, in survival units


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
    from scipy.linalg.lapack import dgttrs

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
        if not (0 < dx * dx < math.inf and 0 < D / (dx * dx) < math.inf):
            raise InputError(
                f"cell width {dx:.3g} with diffusion {D:.3g} puts D/dx^2 outside the doubles: "
                "choose another length, diffusion or cell count"
            )
        self.x = np.linspace(0.0, L, n_cells + 1)
        self.left_kind = dom.left.kind
        self.right_kind = dom.right.kind

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

    @cached_property
    def norm(self) -> float:
        """|A|_inf, the largest absolute row sum."""
        rows = np.abs(self.diag)
        rows[1:] += np.abs(self.lower)
        rows[:-1] += np.abs(self.upper)
        return float(rows.max())

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
        from scipy.linalg.lapack import dgttrf

        return dgttrf(-self.lower, -self.diag, -self.upper)

    @cached_property
    def joined_off(self) -> np.ndarray:
        """The off-diagonals of zI - A, -lower and -upper, for max(1, _BLOCK
        // m) systems joined into one tridiagonal matrix by zeros, as complex
        rows; fewer systems take a prefix of each row."""
        off = np.zeros((2, max(1, _BLOCK // self.m), self.m), complex)
        off[0, :, :-1], off[1, :, :-1] = -self.lower, -self.upper
        return off.reshape(2, -1)[:, :-1]

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

    def start(self, pos: float) -> Tuple[float, np.ndarray]:
        """A unit mass at pos as (delta, u): delta is its hat weight on an
        absorbing end node, which no unknown holds, so it counts as absorbed
        at t = 0; u is a unit mass on the unknown nodes that carries the
        rest, 1 - delta.  Outside the end cells delta is 0 and u the hat
        weights; in one, u is all on the cell's other node, so that a delta
        close to 1 leaves no tiny mass to underflow in a solve."""
        j = min(int(pos / self.dx), self.n - 1)
        theta = pos / self.dx - j
        if j == 0 and self.left_kind is BoundaryKind.ABSORBING:
            delta, node = 1 - theta, 1
        elif j == self.n - 1 and self.right_kind is BoundaryKind.ABSORBING:
            delta, node = theta, j
        else:
            return 0.0, self.point_mass(pos)[self.unknowns]
        u = np.zeros(self.m)
        u[node - self.unknowns.start] = 1 / self.h[node]
        return delta, u


def evolve(
    model: DiffusionModel,
    killing: KillingMeasure,
    ic: InitialCondition,
    grid: GridSpec,
    stride: int = 1,
) -> FpeResult:
    """Survival, kill rate and absorbed flux of u' = A u + source from u0 at
    steps 0, stride, 2 stride, ... up to the last step, and an estimate of
    their error.  Each time after 0 is summed on its own (`_contour`), exact
    in time, over the same window and node count at every stride."""
    require_valid(model, killing, ic)
    if stride < 1 or stride != int(stride):
        raise InputError(f"stride must be a positive integer, got {stride!r}")
    disc = _Discretization(model, killing, grid.cell_count)
    n_steps = max(1, int(round(grid.t_max / grid.dt)))
    steps = np.arange(0, n_steps + 1, int(stride))
    delta, u0 = disc.start(ic.y)
    u0 = (1 - delta) * u0  # the share delta is absorbed at t = 0
    obs = np.empty((3, steps.size))
    obs[:, 0] = disc.weights @ u0
    obs[:, 1:], estimate = _contour(disc, u0, steps[1:], grid.dt)
    return FpeResult(ObservableSeries(steps * grid.dt, *obs), estimate)


def _contour(
    disc: _Discretization, u0: np.ndarray, steps: np.ndarray, dt: float
) -> Tuple[np.ndarray, float]:
    """The observables at t = n dt for the steps n, the positive multiples
    of one stride in order, and the largest miss where two windows meet.

    Each is (1/2 pi i) int e^(zt) c.(zI - A)^-1 (u0 + source / z) dz, summed
    over window w, [t0, _WINDOW t0] with t0 = dt _WINDOW^(w - 1), that holds
    it; the node at -k is the conjugate of the node at k.  The chain of
    windows runs from t0 = dt / _WINDOW to the one holding the last step at
    every stride, so the windows and their node counts depend on the
    operator, dt and the last step alone.  Where windows meet, their
    difference, a rate's times t, estimates the error of both; the two take
    the next N of _NODES until it is within (_CONTOUR_TOL + eps |A| t)
    max S, or the problem is refused."""
    obs = np.empty((3, steps.size))
    if not steps.size:
        return obs, 0.0
    # window w holds the steps in [edges[w], edges[w + 1]); the edges run past the last step
    edges = float(_WINDOW) ** np.arange(-1, int(math.log(steps[-1], _WINDOW)) + 3)
    cuts = np.searchsorted(steps, edges)
    count = int(np.searchsorted(edges, steps[-1], side="right"))
    meet = dt * edges[1:count]
    level, todo = np.zeros(count, int), range(count)
    ends = np.empty((count, 3, 2))  # window w at t0, _WINDOW t0
    while True:
        for w in todo:
            (zt0, weight, at_ends), t0 = _RULES[level[w]], dt * edges[w]
            g = weight / t0 * _resolvent(disc, u0, zt0 / t0)
            lo, hi = cuts[w], cuts[w + 1]
            if hi > lo:
                obs[:, lo:hi] = _sums(zt0, g, steps[lo] * dt / t0, steps[0] * dt / t0, hi - lo)
            ends[w] = g.real @ at_ends.real - g.imag @ at_ends.imag
        miss = np.abs(ends[:-1, :, 1] - ends[1:, :, 0])
        miss[:, 1:] *= meet[:, None]
        tol = max(1.0, np.abs(obs[0]).max()) * (_CONTOUR_TOL + np.finfo(float).eps * disc.norm * meet)
        bad = np.flatnonzero(~np.all(miss <= tol[:, None], axis=1))
        if not bad.size:
            return obs, float(miss.max())
        todo = np.union1d(bad, bad + 1)
        todo = todo[level[todo] < len(_NODES) - 1]
        if not todo.size:
            break
        level[todo] += 1
    worst = bad[np.argmax(miss[bad].max(axis=1) / tol[bad])]
    raise InputError(
        f"the contour sums miss by {miss[worst].max():.3g} at t = {meet[worst]:.3g} with "
        f"{_NODES[-1]} nodes, tolerance {tol[worst]:.3g}: drift makes A too far from normal"
    )


def _resolvent(disc: _Discretization, u0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """c.(zI - A)^-1 (u0 + source / z) for each z (3 x z.size).  Each LAPACK
    gtsv call solves up to _BLOCK unknowns of these systems as the blocks
    of one tridiagonal matrix, joined by zeros that pivoting never crosses.
    The joined off-diagonals are built once per operator (`joined_off`), and
    each block is solved in place, over its diagonal and right-hand side."""
    from scipy.linalg.lapack import zgtsv

    per = min(z.size, max(1, _BLOCK // disc.m))
    lower, upper = disc.joined_off
    x = np.empty((z.size, disc.m), complex)
    x[:] = u0
    if disc.source.any():
        x += disc.source / z[:, None]
    for i in range(0, z.size, per):
        zi, xi = z[i : i + per, None], x[i : i + per]
        k = xi.size - 1
        d = (zi - disc.diag).ravel()
        if zgtsv(lower[:k], d, upper[:k], xi.reshape(-1), overwrite_d=1, overwrite_b=1)[-1]:
            xi[:] = math.nan  # an exactly zero pivot
    # real products: OpenBLAS's complex one took up to 1000 times as long
    return disc.weights @ x.real.T + 1j * (disc.weights @ x.imag.T)


def _sums(zt0: np.ndarray, g: np.ndarray, start: float, step: float, count: int) -> np.ndarray:
    """Re sum_k g[:, k] e^(zt0_k s) at s = start + i step, i < count, from
    e^(zt0 (start + a b step)) e^(zt0 c step), i = a b + c, c < b ~ sqrt(count)."""
    b = math.isqrt(count - 1) + 1
    a = -(-count // b)
    p = (g[:, None, :] * np.exp((start + step * b * np.arange(a))[:, None] * zt0)).reshape(3 * a, -1)
    q = np.exp(zt0[:, None] * (step * np.arange(b)))
    return (p.real @ q.real - p.imag @ q.imag).reshape(3, a * b)[:, :count]


def split_statistics(
    model: DiffusionModel,
    killing: KillingMeasure,
    ic: InitialCondition,
    grid: GridSpec,
) -> SplitStatistics:
    """Absorbed/killed split probabilities, conditional mean times and the
    absorbed-to-killed ratio: the exact infinite-horizon integrals of the
    semi-discrete solution e^(At) u0 that `evolve` sums.

    They are y1 = (-A)^-1 u0 and y2 = (-A)^-1 y1, the integrals over
    [0, inf) of e^(At) u0 and t e^(At) u0, so only grid.cell_count matters;
    dt and t_max do not.  The kill and absorption rates of y1 give the split
    probabilities, those of y2 the time moments; p_killed + p_absorbed =
    S(0) holds to round-off, or the solve is refused, and is normalized to 1.
    An injection end reflects the particle, as on every route: its inflow
    enters `evolve` and the steady solves alone."""
    require_valid(model, killing, ic)
    require_terminating(model, killing)
    disc = _Discretization(model, killing, grid.cell_count)
    delta, u0 = disc.start(ic.y)
    y1, obs1 = disc.solve(u0)
    obs2 = disc.solve(y1)[1]
    s0 = float(disc.weights[0] @ u0)  # normalizes away any initial-hat mass defect
    # the share delta absorbed at t = 0 adds to p_absorbed and to no time
    _, p_killed, p_absorbed = ((1 - delta) * o / s0 for o in obs1)
    _, t_killed, t_absorbed = ((1 - delta) * o / s0 for o in obs2)
    p_absorbed += delta

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
    if not dom.is_channel:
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
    require_valid(model, killing, InitialCondition(source))
    if set(model.domain.ends) != {BoundaryKind.ABSORBING}:
        raise InputError("green_steady needs both ends absorbing")
    disc = _Discretization(model, killing, grid.cell_count)
    delta, rhs = disc.start(source)
    g, (_, kill, absorbed) = disc.solve(rhs)
    # the share delta of the source on an absorbing end node is absorbed there
    g, kill, absorbed = (1 - delta) * g, (1 - delta) * kill, delta + (1 - delta) * absorbed
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
    require_terminating(model, killing)
    from scipy.linalg import eigvalsh_tridiagonal

    disc = _Discretization(model, killing, cell_count)
    # S A S^-1 has off-diagonal sqrt(lower * upper); bisection to full
    # relative accuracy needs the smallest tolerance
    top = eigvalsh_tridiagonal(
        disc.diag, np.sqrt(disc.lower * disc.upper), select="i",
        select_range=(disc.m - 1, disc.m - 1), tol=2 * np.finfo(float).tiny,
    )
    rate = float(-top[0])
    bound = _DECAY_RESOLUTION * np.finfo(float).eps * disc.norm
    if not rate >= bound:
        raise InputError(
            f"decay rate {rate:.3g} is below what the eigenvalue solve resolves, "
            f"{bound:.3g}: drift traps the mass against a closed end, or killing is too weak"
        )
    return rate
