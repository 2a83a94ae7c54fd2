"""Problem definitions shared by the analytic, PDE and Monte Carlo solvers.

A problem is an interval with a boundary behavior at each end, a constant
diffusion coefficient (optionally with constant drift), a killing measure
inside the interval (a piecewise-constant rate plus point spots), and a
start: unit mass at a point y.  All quantities are dimensionless; users
must supply consistent units (D in length^2/time, rates in 1/time, spot
strengths in length/time).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Tuple

import numpy as np


class InputError(ValueError):
    """A problem, or a problem-method pairing, that the solvers refuse."""


class BoundaryKind(Enum):
    ABSORBING = "absorbing"
    REFLECTING = "reflecting"
    INJECTION = "injection"


@dataclass(frozen=True)
class BoundaryBehavior:
    kind: BoundaryKind
    phi: float = 0.0  # inward probability flux, 1/time; only for INJECTION


@dataclass(frozen=True)
class Domain1D:
    length: float
    left: BoundaryBehavior
    right: BoundaryBehavior


@dataclass(frozen=True)
class DiffusionModel:
    domain: Domain1D
    diffusion: float
    drift: float = 0.0


class KillingKind(Enum):
    ZERO = "zero"
    UNIFORM = "uniform"
    DIRAC = "dirac"
    PIECEWISE = "piecewise"


@dataclass(frozen=True)
class KillingMeasure:
    """A rate that is constant between breakpoints (rates[i] on the i-th
    piece, one more rate than breakpoints) plus point spots.  zero, uniform,
    dirac and piecewise are constructors of this one shape; a measure with
    no positive rate and no positive spot is zero killing however it is
    stated."""

    breakpoints: Tuple[float, ...] = ()
    rates: Tuple[float, ...] = (0.0,)
    # (position, strength) pairs; strength has units length/time
    spots: Tuple[Tuple[float, float], ...] = ()

    @staticmethod
    def zero() -> "KillingMeasure":
        return KillingMeasure()

    @staticmethod
    def uniform(v0: float) -> "KillingMeasure":
        return KillingMeasure(rates=(float(v0),))

    @staticmethod
    def dirac(spots: Sequence[Tuple[float, float]]) -> "KillingMeasure":
        return KillingMeasure(spots=tuple((float(x), float(k)) for x, k in spots))

    @staticmethod
    def piecewise(breakpoints: Sequence[float], rates: Sequence[float]) -> "KillingMeasure":
        return KillingMeasure(tuple(float(b) for b in breakpoints), tuple(float(r) for r in rates))

    @property
    def is_zero(self) -> bool:
        return not any(r > 0 for r in self.rates) and not any(k > 0 for _, k in self.spots)

    @property
    def kind(self) -> KillingKind:
        """The constructor that states this measure.  Kept for `bench/`
        until its next change (ROADMAP item 1); a rate mixed with spots,
        which no scenario file states, has none."""
        if self.is_zero:
            return KillingKind.ZERO
        if not any(r > 0 for r in self.rates):
            return KillingKind.DIRAC
        if self.spots:
            raise ValueError("a rate mixed with spots has no single kind")
        return KillingKind.UNIFORM if len(self.rates) == 1 else KillingKind.PIECEWISE

    @property
    def v0(self) -> float:
        """The rate of a one-piece measure, else 0.  Kept for `bench/`
        until its next change (ROADMAP item 1)."""
        return self.rates[0] if len(self.rates) == 1 else 0.0

    def smooth_rate(self, x: np.ndarray) -> np.ndarray:
        """Rate field at positions x, excluding the spots (those carry no
        pointwise rate; handle them through `spots`)."""
        idx = np.searchsorted(np.asarray(self.breakpoints), x, side="right")
        return np.asarray(self.rates, dtype=float)[idx]


@dataclass(frozen=True)
class InitialCondition:
    y: float  # every route starts from a unit point mass at y

    @staticmethod
    def point(y: float) -> "InitialCondition":
        return InitialCondition(y)


@dataclass(frozen=True)
class SplitStatistics:
    p_killed: float
    p_absorbed: float
    mean_kill_time: float
    mean_absorb_time: float
    ratio_rinf: float  # math.inf when nothing is killed
    p_killed_se: float = 0.0
    p_absorbed_se: float = 0.0
    mean_kill_time_se: float = 0.0
    mean_absorb_time_se: float = 0.0
    ratio_rinf_se: float = 0.0


@dataclass(frozen=True)
class SteadyStateSolution:
    x: np.ndarray
    density: np.ndarray
    injected_flux: float
    absorbed_flux: float
    kill_integral: float
    ratio_rs: float  # math.inf when the kill integral vanishes


def validate_problem(
    model: DiffusionModel,
    killing: KillingMeasure,
    ic: Optional[InitialCondition] = None,
) -> Tuple[str, ...]:
    """Every violated invariant of the (model, killing, ic) triple, as a
    message each.  Never raises; an empty tuple means all three solver
    modules accept the problem without further errors.
    """
    bad = []
    dom = model.domain
    L = dom.length
    if not (L > 0):
        bad.append("domain length must be positive")
    if not (model.diffusion > 0):
        bad.append("diffusion coefficient must be positive")
    n_inject = 0
    for side, b in (("left", dom.left), ("right", dom.right)):
        if b.kind is BoundaryKind.INJECTION:
            n_inject += 1
            if not (b.phi > 0):
                bad.append(f"{side} injection flux must be positive")
        elif b.phi != 0.0:
            bad.append(f"{side} boundary carries a flux but is not an injection boundary")
    if n_inject > 1:
        bad.append("at most one boundary may be an injection boundary")

    bps, rates = killing.breakpoints, killing.rates
    if len(rates) != len(bps) + 1:
        bad.append("killing needs exactly one rate per interval between breakpoints")
    if not all(r >= 0 for r in rates):
        bad.append("killing rates must be non-negative")
    if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
        bad.append("killing breakpoints must be strictly increasing")
    if L > 0 and bps and not (0 <= bps[0] and bps[-1] <= L):
        bad.append("killing breakpoints must lie inside the interval")
    if not all(k >= 0 for _, k in killing.spots):
        bad.append("spot strengths must be non-negative")
    for x, _ in killing.spots:
        if L > 0 and not (0 < x < L):
            bad.append(f"spot at {x} not strictly inside the interval (0, {L})")

    if ic is not None and L > 0 and not (0 < ic.y < L):
        bad.append(f"point source at {ic.y} not strictly inside the interval (0, {L})")

    return tuple(bad)


def require_valid(model: DiffusionModel, killing: KillingMeasure, ic: Optional[InitialCondition] = None) -> None:
    violations = validate_problem(model, killing, ic)
    if violations:
        raise InputError("invalid problem: " + "; ".join(violations))


def interval(
    length: float,
    left: str = "absorbing",
    right: str = "absorbing",
    diffusion: float = 1.0,
    drift: float = 0.0,
    phi: float = 0.0,
) -> DiffusionModel:
    """Convenience constructor used throughout tests and scripts."""

    def bb(name: str) -> BoundaryBehavior:
        kind = BoundaryKind(name)
        return BoundaryBehavior(kind, phi if kind is BoundaryKind.INJECTION else 0.0)

    return DiffusionModel(Domain1D(length, bb(left), bb(right)), diffusion, drift)
