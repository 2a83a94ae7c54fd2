"""Finite-difference Fokker-Planck solver with a killing reaction term.

Discretization: node-centered finite volumes on [0, L] (half cells at
reflecting/injection ends), face fluxes J = -D dp/dx + a p, Crank-Nicolson in
time with the killing rate folded implicitly into the diagonal.  Point
killings and point sources are split position-weighted across the two
bracketing nodes.  The scheme's discrete conservation identity
dS/dt = -killRate - boundaryFlux holds to round-off, which is what makes the
absorbed/killed bookkeeping in `split_statistics` exact.

`evolve` steps the scheme in time.  `split_statistics` does not: the
Crank-Nicolson midpoint sums over an infinite horizon are, for every dt,
(-A)^-1 u0 and A^-2 u0, so the split is two tridiagonal solves and is the
exact infinite-horizon sum of the stepped scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_banded

from .model import (
    BoundaryKind,
    DiffusionModel,
    InitialCondition,
    InitialKind,
    KillingMeasure,
    SplitStatistics,
    SteadyStateSolution,
    require_valid,
)
from .numerics import AccuracyError, SingularSystemError, banded_form, solve_tridiagonal


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
    flux: np.ndarray


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


@dataclass(frozen=True)
class GreenSteadyResult:
    x: np.ndarray
    green: np.ndarray
    absorbed_flux: float
    kill_integral: float
    ratio_rinf: float


class _Discretization:
    """Spatial operator dp/dt = A p + s on the unknown nodes."""

    def __init__(self, model: DiffusionModel, killing: KillingMeasure, n_cells: int):
        dom = model.domain
        self.L = dom.length
        self.n = n_cells
        self.dx = self.L / n_cells
        self.x = np.linspace(0.0, self.L, n_cells + 1)
        self.left_kind = dom.left.kind
        self.right_kind = dom.right.kind
        self.D = model.diffusion
        self.a = model.drift

        # trapezoid / finite-volume node weights
        self.h = np.full(n_cells + 1, self.dx)
        self.h[0] = self.h[-1] = self.dx / 2

        # killing rate per node; point spots become k/dx-style sinks split
        # over the bracketing nodes so that sum(h * k * p) reproduces k*p(xs)
        self.k = killing.smooth_rate(self.x)
        for xs, ks in killing.spots:
            self.k += self.point_mass(xs, ks)

        self.i0 = 1 if self.left_kind is BoundaryKind.ABSORBING else 0
        self.i1 = n_cells - 1 if self.right_kind is BoundaryKind.ABSORBING else n_cells
        self.unknowns = slice(self.i0, self.i1 + 1)
        self.m = self.i1 - self.i0 + 1
        if self.m < 3:
            raise ValueError("grid too coarse for the boundary configuration")

        D, a, dx = self.D, self.a, self.dx
        lo = np.zeros(self.m - 1)
        di = np.zeros(self.m)
        up = np.zeros(self.m - 1)
        self.source = np.zeros(self.m)
        for r, i in enumerate(range(self.i0, self.i1 + 1)):
            h = self.h[i]
            if i == 0:
                # no flux through the left face (reflecting) or prescribed
                # inward flux (injection, constant source)
                di[r] = (-D / dx - a / 2) / h
                up[r] = (D / dx - a / 2) / h
                if self.left_kind is BoundaryKind.INJECTION:
                    self.source[r] = dom.left.phi / h
            elif i == self.n:
                di[r] = (-D / dx + a / 2) / h
                lo[r - 1] = (D / dx + a / 2) / h
                if self.right_kind is BoundaryKind.INJECTION:
                    self.source[r] = dom.right.phi / h
            else:
                di[r] = -2 * D / dx**2
                if i - 1 >= self.i0:
                    lo[r - 1] = (D / dx + a / 2) / dx
                if i + 1 <= self.i1:
                    up[r] = (D / dx - a / 2) / dx
            di[r] -= self.k[i]
        self.lower, self.diag, self.upper = lo, di, up

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

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(-A)^-1 rhs on the unknown nodes, returned on all nodes."""
        try:
            u = solve_tridiagonal(-self.lower, -self.diag, -self.upper, rhs)
        except SingularSystemError as exc:  # pragma: no cover - valid problems are nonsingular
            raise AccuracyError(f"tridiagonal solve failed: {exc}") from exc
        return self.full(u)

    def survival(self, p: np.ndarray) -> float:
        return float(np.dot(self.h, p))

    def kill_rate(self, p: np.ndarray) -> float:
        return float(np.dot(self.h * self.k, p))

    def face_flux(self, p: np.ndarray, i: int) -> float:
        # flux through the face between nodes i and i+1
        return float(
            -self.D * (p[i + 1] - p[i]) / self.dx + self.a * (p[i] + p[i + 1]) / 2
        )

    def absorbed_rate(self, p: np.ndarray) -> float:
        """Outward flux through the absorbing ends, in the discretely
        conservative face-flux form."""
        out = 0.0
        if self.left_kind is BoundaryKind.ABSORBING:
            out -= self.face_flux(p, 0)
        if self.right_kind is BoundaryKind.ABSORBING:
            out += self.face_flux(p, self.n - 1)
        return out

    def nodal_flux(self, p: np.ndarray) -> np.ndarray:
        dpdx = np.gradient(p, self.dx, edge_order=2)
        return -self.D * dpdx + self.a * p

    def initial_vector(self, ic: InitialCondition) -> np.ndarray:
        if ic.kind is InitialKind.POINT:
            p = self.point_mass(ic.y)
        else:
            vals = np.asarray(ic.grid_values, dtype=float)
            xi = np.linspace(0.0, self.L, vals.size)
            p = np.interp(self.x, xi, vals)
        if self.left_kind is BoundaryKind.ABSORBING:
            p[0] = 0.0
        if self.right_kind is BoundaryKind.ABSORBING:
            p[-1] = 0.0
        return p


def evolve(
    model: DiffusionModel,
    killing: KillingMeasure,
    ic: InitialCondition,
    grid: GridSpec,
    frame_times: Sequence[float] = (),
) -> FpeResult:
    """Crank-Nicolson evolution, returning the observable time series and
    density frames at the requested times (nearest step)."""
    require_valid(model, killing, ic)
    disc = _Discretization(model, killing, grid.cell_count)
    dt = grid.dt
    n_steps = max(1, int(round(grid.t_max / dt)))

    m1 = banded_form(-dt / 2 * disc.lower, 1 - dt / 2 * disc.diag, -dt / 2 * disc.upper)
    m2_lo = dt / 2 * disc.lower
    m2_di = 1 + dt / 2 * disc.diag
    m2_up = dt / 2 * disc.upper

    p = disc.initial_vector(ic)
    u = p[disc.unknowns].copy()

    times = np.empty(n_steps + 1)
    surv = np.empty(n_steps + 1)
    krate = np.empty(n_steps + 1)
    brate = np.empty(n_steps + 1)

    frame_steps = {min(n_steps, max(0, int(round(t / dt)))) for t in frame_times}
    frames: List[DensityFrame] = []

    def record(step: int, pfull: np.ndarray) -> None:
        times[step] = step * dt
        surv[step] = disc.survival(pfull)
        krate[step] = disc.kill_rate(pfull)
        brate[step] = disc.absorbed_rate(pfull)
        if step in frame_steps:
            frames.append(
                DensityFrame(step * dt, disc.x.copy(), pfull.copy(), disc.nodal_flux(pfull))
            )

    record(0, p)
    for step in range(1, n_steps + 1):
        rhs = m2_di * u + dt * disc.source
        rhs[:-1] += m2_up * u[1:]
        rhs[1:] += m2_lo * u[:-1]
        u = solve_banded((1, 1), m1, rhs, check_finite=False)
        p = disc.full(u)
        record(step, p)
        if step % 200 == 0 and not np.all(np.isfinite(u)):
            raise AccuracyError(f"solution blew up at t={step * dt}")

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(krate > 0, brate / np.maximum(krate, 1e-300), np.inf)
    series = ObservableSeries(times, surv, krate, brate, ratio)
    return FpeResult(disc.x, series, tuple(frames), p)


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
    S(0) holds to round-off and is normalized to 1."""
    require_valid(model, killing, ic)
    dom = model.domain
    has_absorbing = BoundaryKind.ABSORBING in (dom.left.kind, dom.right.kind)
    if not has_absorbing and killing.is_zero:
        raise ValueError("split statistics need an absorbing boundary or nonzero killing")
    if BoundaryKind.INJECTION in (dom.left.kind, dom.right.kind):
        raise ValueError("split statistics are defined for problems without injection")

    disc = _Discretization(model, killing, grid.cell_count)
    p0 = disc.initial_vector(ic)
    y1 = disc.solve(p0[disc.unknowns])
    y2 = disc.solve(y1[disc.unknowns])

    # normalize away any initial-hat mass defect
    s0 = disc.survival(p0)
    norm = s0 if s0 > 0 else 1.0
    p_killed = disc.kill_rate(y1) / norm
    p_absorbed = disc.absorbed_rate(y1) / norm
    t_killed = disc.kill_rate(y2) / norm
    t_absorbed = disc.absorbed_rate(y2) / norm

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
        raise ValueError("steady state needs exactly one injection and one absorbing end")
    disc = _Discretization(model, killing, grid.cell_count)
    p = disc.solve(disc.source)
    injected = dom.left.phi if dom.left.kind is BoundaryKind.INJECTION else dom.right.phi
    absorbed = disc.absorbed_rate(p)
    kill = disc.kill_rate(p)
    ratio = absorbed / kill if kill > 0 else math.inf
    return SteadyStateSolution(disc.x, p, absorbed, injected, kill, ratio)


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
        raise ValueError("green_steady needs both ends absorbing")
    if not (0 < source < dom.length):
        raise ValueError("source must be strictly inside the interval")
    disc = _Discretization(model, killing, grid.cell_count)
    g = disc.solve(disc.point_mass(source)[disc.unknowns])
    absorbed = disc.absorbed_rate(g)
    kill = disc.kill_rate(g)
    ratio = absorbed / kill if kill > 0 else math.inf
    return GreenSteadyResult(disc.x, g, absorbed, kill, ratio)


def decay_rate(
    model: DiffusionModel,
    killing: KillingMeasure,
    cell_count: int,
    rtol: float = 1e-12,
    max_iter: int = 10_000,
) -> float:
    """Leading (smallest) eigenvalue of the discretized -L + k operator, by
    inverse power iteration; the true asymptotic decay rate of survival."""
    require_valid(model, killing)
    dom = model.domain
    has_absorbing = BoundaryKind.ABSORBING in (dom.left.kind, dom.right.kind)
    if not has_absorbing and killing.is_zero:
        raise ValueError("decay rate needs an absorbing boundary or nonzero killing")
    disc = _Discretization(model, killing, cell_count)
    b_lo, b_di, b_up = -disc.lower, -disc.diag, -disc.upper
    v = np.sin(np.pi * (np.arange(disc.m) + 1) / (disc.m + 1))  # deterministic start
    v /= np.linalg.norm(v)
    lam_old = math.inf
    for _ in range(max_iter):
        w = solve_tridiagonal(b_lo, b_di, b_up, v)
        lam = float(np.dot(w, v) / np.dot(w, w))
        v = w / np.linalg.norm(w)
        if abs(lam - lam_old) <= rtol * abs(lam):
            return lam
        lam_old = lam
    raise AccuracyError("inverse power iteration did not converge")
