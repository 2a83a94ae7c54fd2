"""Closed-form expressions for killed Brownian motion, as pure functions.

The spectral formulas live on the reference interval [0, pi] with unit
diffusion coefficient; `UnitScaling` maps arbitrary (L, D) problems onto it.
Where two inconsistent closed forms exist for the same quantity, both a
"paper" and a "derived" variant are returned; the crosscheck module
adjudicates between them against independent numerical routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SERIES_TAIL_TOLERANCE, AccuracyError, sum_with_tail_bound

PI = math.pi


def kill_site_density_const(x: float, y: float, D: float, v0: float) -> float:
    """Density of the eventual kill position on the line, constant rate v0."""
    if D <= 0:
        raise ValueError("D must be positive")
    if v0 <= 0:
        raise ValueError("v0 must be strictly positive: with no killing the kill site is undefined")
    c = math.sqrt(v0 / D)
    return 0.5 * c * math.exp(-c * abs(x - y))


def _check_unit_interval(*positions: float) -> None:
    for p in positions:
        if not (0 < p < PI):
            raise ValueError(f"position {p} must lie strictly inside (0, pi)")


def sine_sum_n2(x: float, y: float) -> float:
    """(2/pi) * sum sin(nx) sin(ny) / n^2 in closed form: min*(pi-max)/pi."""
    _check_unit_interval(x, y)
    lo, hi = min(x, y), max(x, y)
    return lo * (PI - hi) / PI


def sine_sum_n4(x: float, y: float) -> float:
    """(2/pi) * sum sin(nx) sin(ny) / n^4 in closed form.

    Obtained by solving -g'' = sine_sum_n2 with Dirichlet ends (the sum is
    the iterated Dirichlet Green function).  The corresponding display in
    the source text is misprinted; see `conditional_mean_kill_time_dirac`.
    """
    _check_unit_interval(x, y)
    a, b = min(x, y), max(x, y)
    pb = PI - b
    slope = b * pb * (b * b - pb * pb) / (6 * PI * PI) + b * pb * pb / (2 * PI)
    return slope * a - pb * a**3 / (6 * PI)


def green_series(x: float, y: float, t: float) -> float:
    """Heat-kernel eigenfunction series on [0, pi] with absorbing ends, D=1."""
    _check_unit_interval(x, y)
    if t <= 0:
        raise ValueError("t must be positive")

    def term(n):
        return (2 / PI) * np.sin(n * x) * np.sin(n * y) * np.exp(-(n.astype(float) ** 2) * t)

    def tail(n):
        # ratio of consecutive |terms| bounds is exp(-(2n+3)t)
        lead = (2 / PI) * math.exp(-((n + 1) ** 2) * t)
        return lead / (1.0 - math.exp(-(2 * n + 3) * t))

    value, _ = sum_with_tail_bound(term, tail)
    return value


def survival_series_free(t: float, y: float) -> float:
    """Survival probability on [0, pi], absorbing ends, no killing, D=1."""
    _check_unit_interval(y)
    if t <= 0:
        raise ValueError("t must be positive")

    def term(n):
        m = 2 * n.astype(float) - 1
        return (4 / PI) * np.sin(m * y) / m * np.exp(-(m**2) * t)

    def tail(n):
        m = 2 * n + 1
        lead = (4 / PI) / m * math.exp(-(m**2) * t)
        return lead / (1.0 - math.exp(-4 * (m + 1) * t))

    value, _ = sum_with_tail_bound(term, tail)
    return value


def green_laplace_series(x: float, y: float, q: float) -> float:
    """Resolvent series (2/pi) sum sin(nx) sin(ny)/(q + n^2), Kummer-accelerated.

    The 1/n^2 and 1/n^4 parts are summed in closed form; the residual series
    converges like n^-6 and carries the explicit tail bound."""
    _check_unit_interval(x, y)
    if q < 0:
        raise ValueError("q must be non-negative")
    head = sine_sum_n2(x, y) - q * sine_sum_n4(x, y)
    if q == 0:
        return head

    def term(n):
        nf = n.astype(float)
        return (2 * q * q / PI) * np.sin(n * x) * np.sin(n * y) / (nf**4 * (nf**2 + q))

    def tail(n):
        return (2 * q * q / PI) / (5 * n**5)

    residual, _ = sum_with_tail_bound(term, tail)
    return head + residual


def green_laplace_closed(x: float, y: float, q: float) -> float:
    """Dirichlet resolvent on [0, pi] in product form:
    sinh(sqrt(q) x_<) sinh(sqrt(q) (pi - x_>)) / (sqrt(q) sinh(sqrt(q) pi)).

    The cosh/tanh cosine-sum display in the source text is misprinted; this
    form is what the (accelerated) series actually sums to."""
    _check_unit_interval(x, y)
    if q < 0:
        raise ValueError("q must be non-negative")
    lo, hi = min(x, y), max(x, y)
    if q == 0:
        return lo * (PI - hi) / PI
    s = math.sqrt(q)
    if s * PI > 350:
        # avoid overflow: sinh(a)sinh(b)/sinh(c) = ~ exp(a+b-c)/2 for large args
        return math.exp(s * (lo + (PI - hi) - PI)) / (2 * s)
    # grouped so that no intermediate leaves the normal range: for subnormal
    # q the plain product sinh * sinh underflows
    return (math.sinh(s * lo) / s) * (math.sinh(s * (PI - hi)) / math.sinh(s * PI))


def green_laplace(x: float, y: float, q: float) -> float:
    """Resolvent with internal series-vs-closed-form consistency check."""
    series = green_laplace_series(x, y, q)
    closed = green_laplace_closed(x, y, q)
    scale = max(abs(closed), 1.0)
    if abs(series - closed) > max(SERIES_TAIL_TOLERANCE * scale, 1e-12):
        raise AccuracyError(
            f"resolvent series {series!r} and closed form {closed!r} disagree beyond tolerance"
        )
    return closed


def survival_laplace_free(y: float, q: float) -> float:
    """Laplace transform of the free survival probability on [0, pi]:
    (4/pi) sum sin((2n-1)y) / ((2n-1)(q+(2n-1)^2))."""
    _check_unit_interval(y)
    if q < 0:
        raise ValueError("q must be non-negative")

    def term(n):
        m = 2 * n.astype(float) - 1
        return (4 / PI) * np.sin(m * y) / (m * (q + m**2))

    def tail(n):
        # sum over odd m > 2n-1 of 1/m^3, integral bound
        return (1 / PI) / (2 * n - 1) ** 2

    value, _ = sum_with_tail_bound(term, tail)
    return value


def survival_laplace_dirac(y: float, q: float, x1: float, V: float) -> float:
    """Laplace-domain survival with a point killing of strength V at x1:
    S0(q|y) - V G(x1,q|y) S0(q|x1) / (1 + V G(x1,q|x1))."""
    _check_unit_interval(y, x1)
    if V < 0:
        raise ValueError("V must be non-negative")
    s0_y = survival_laplace_free(y, q)
    if V == 0:
        return s0_y
    g_xy = green_laplace(x1, y, q)
    g_xx = green_laplace(x1, x1, q)
    s0_x1 = survival_laplace_free(x1, q)
    return s0_y - V * g_xy * s0_x1 / (1 + V * g_xx)


@dataclass(frozen=True)
class ConditionalMfpt:
    """Mean time to be killed, conditioned on killing, for a point killing.

    `paper_value` is the closed form printed in the source text (built on a
    misprinted n^-4 sine sum); `derived_value` uses the corrected sum and
    equals -(alpha + beta).  alpha is the q-log-derivative at zero of the
    spot-to-source resolvent, beta that of the rank-one denominator
    1 + V G(x1, q | x1)."""

    paper_value: float
    derived_value: float
    alpha: float
    beta: float


def conditional_mean_kill_time_dirac(y: float, x1: float, V: float) -> ConditionalMfpt:
    _check_unit_interval(y, x1)
    if V < 0:
        raise ValueError("V must be non-negative")
    t2 = sine_sum_n2(x1, y)
    t4 = sine_sum_n4(x1, y)
    t2_spot = sine_sum_n2(x1, x1)
    t4_spot = sine_sum_n4(x1, x1)
    alpha = -t4 / t2
    beta = V * t4_spot / (1 + V * t2_spot)
    derived = -(alpha + beta)
    paper = (
        (x1 * y * (x1**2 + y**2 + 2 * PI**2) - PI * (x1**3 + y**3))
        / (6 * (PI - x1) * y)
        * PI
        / (PI + V * (PI - x1) * y)
    )
    return ConditionalMfpt(paper, derived, alpha, beta)


def ratio_rs_dirac(D: float, k: float, d_abs: float) -> float:
    """Steady injected-flux ratio R_s for a point killing: D / (k * d_abs),
    with d_abs the distance from the spot to the absorbing boundary."""
    if D <= 0 or d_abs <= 0:
        raise ValueError("D and d_abs must be positive")
    if k <= 0:
        raise ValueError("k must be strictly positive: with no killing the ratio is undefined")
    return D / (k * d_abs)


def ratio_rs_uniform(D: float, v0: float, L: float) -> float:
    """Steady injected-flux ratio R_s for a uniform killing rate:
    1 / (cosh(sqrt(v0/D) L) - 1)."""
    if D <= 0 or L <= 0:
        raise ValueError("D and L must be positive")
    if v0 <= 0:
        raise ValueError("v0 must be strictly positive")
    return 1.0 / (math.cosh(math.sqrt(v0 / D) * L) - 1.0)


def absorption_probability_uniform(D: float, v0: float, L: float, y: float) -> float:
    """Probability that a walker started at y on [0, L], both ends absorbing,
    is absorbed before a uniform killing at rate v0 takes it:
    (sinh(c y) + sinh(c (L - y))) / sinh(c L) with c = sqrt(v0/D), each
    ratio written as exp(a - cL) (1 - exp(-2a)) / (1 - exp(-2cL)) so that
    no sinh overflows."""
    if D <= 0 or L <= 0:
        raise ValueError("D and L must be positive")
    if v0 <= 0:
        raise ValueError("v0 must be strictly positive")
    if not 0 <= y <= L:
        raise ValueError("y must lie in [0, L]")
    c = math.sqrt(v0 / D)

    def sinh_ratio(a: float) -> float:
        return math.exp(a - c * L) * math.expm1(-2 * a) / math.expm1(-2 * c * L)

    return sinh_ratio(c * y) + sinh_ratio(c * (L - y))


@dataclass(frozen=True)
class RinfDiracInterval:
    """Absorbed-to-killed ratio on [0, L], both ends absorbing, source at x1,
    point sink of strength k at y_kill < x1.

    `derived_value` (authoritative, absorbed/killed) comes from the piecewise
    linear steady Green-function solve; `paper_value` is the source text's
    final display, which is its exact reciprocal."""

    paper_value: float
    derived_value: float


def ratio_rinf_dirac_interval(
    D: float, k: float, L: float, x1: float, y_kill: float
) -> RinfDiracInterval:
    if D <= 0 or k <= 0:
        raise ValueError("D and k must be positive")
    if not (0 < y_kill < x1 < L):
        raise ValueError("positions must satisfy 0 < y_kill < x1 < L")
    kappa = k / D
    derived = (L + kappa * y_kill * (x1 - y_kill)) / (kappa * y_kill * (L - x1))
    paper = (L - x1) * k / (D * (1 + (L - y_kill) / y_kill - k * (y_kill - x1) / D))
    return RinfDiracInterval(paper, derived)


# --- documented discrepancy constants -------------------------------------

def paper_q_polynomial(y: float) -> float:
    """Q(y) as printed in the source text (claimed 6*pi*S0_hat(0|y)).

    Kept only for the discrepancy report; it is inconsistent with the text's
    own resolvent series, which sums to y(pi-y)/2 at q=0."""
    return -3 * PI**2 * y - 3 * PI * y**2 + y**3


def series_q_polynomial(y: float) -> float:
    """6*pi*S0_hat(0|y) as the series actually sums: 3*pi*y*(pi-y)."""
    return 3 * PI * y * (PI - y)


# --- rescaling ------------------------------------------------------------

@dataclass(frozen=True)
class UnitScaling:
    """Maps an interval [0, L] with diffusion coefficient D onto the
    reference problem on [0, pi] with D = 1.

    positions: x' = pi x / L; times: t' = pi^2 D t / L^2.  Rates transform
    with 1/time, point-spot strengths with length/time."""

    length: float
    diffusion: float

    @property
    def space(self) -> float:
        return PI / self.length

    @property
    def time(self) -> float:
        return PI**2 * self.diffusion / self.length**2

    def to_unit_position(self, x: float) -> float:
        return x * self.space

    def to_unit_time(self, t: float) -> float:
        return t * self.time

    def from_unit_time(self, t_unit: float) -> float:
        return t_unit / self.time

    def to_unit_dirac_strength(self, k: float) -> float:
        # strength has units length/time
        return k * self.space / self.time
