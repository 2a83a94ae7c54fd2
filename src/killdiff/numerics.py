"""Shared numerical kernels: bounded series summation, tridiagonal solves,
one-sided differentiation at zero, and numerical Laplace inversion."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy.linalg import solve_banded


class AccuracyError(RuntimeError):
    """A requested tolerance could not be certified."""


class SingularSystemError(RuntimeError):
    pass


@dataclass(frozen=True)
class SeriesControl:
    max_terms: int = 100_000_000
    tail_tolerance: float = 1e-10

    def __post_init__(self):
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        if not self.tail_tolerance > 0:
            raise ValueError("tail_tolerance must be positive")


def sum_with_tail_bound(
    term_fn: Callable[[np.ndarray], np.ndarray],
    tail_bound_fn: Callable[[int], float],
    ctl: SeriesControl,
) -> Tuple[float, float]:
    """Sum term_fn(1) + term_fn(2) + ... until tail_bound_fn(n), a valid bound
    on the absolute remainder after n terms, drops below ctl.tail_tolerance.

    term_fn is evaluated on index arrays (chunked, geometrically growing) so
    slowly converging series remain affordable.  Returns (value, achieved
    bound).  Raises AccuracyError when max_terms is insufficient.
    """
    total = 0.0
    n = 0
    chunk = 64
    while n < ctl.max_terms:
        hi = min(n + chunk, ctl.max_terms)
        idx = np.arange(n + 1, hi + 1, dtype=np.int64)
        total += float(np.sum(term_fn(idx)))
        n = hi
        bound = float(tail_bound_fn(n))
        if bound <= ctl.tail_tolerance:
            return total, bound
        chunk = min(chunk * 2, 1 << 22)
    raise AccuracyError(
        f"series tail bound {tail_bound_fn(n):.3g} after {n} terms exceeds "
        f"tolerance {ctl.tail_tolerance:.3g}"
    )


def solve_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a tridiagonal system with `scipy.linalg.solve_banded`, which for
    (1, 1) bands is LAPACK gtsv: Gaussian elimination with partial pivoting.

    lower has length n-1 (sub-diagonal), diag length n, upper length n-1.
    Raises SingularSystemError when elimination meets an exactly zero pivot.
    """
    diag = np.asarray(diag, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.size
    if lower.size != n - 1 or upper.size != n - 1 or rhs.size != n:
        raise ValueError("inconsistent tridiagonal system sizes")
    ab = banded_form(lower, diag, upper)
    try:
        return solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(str(exc)) from exc


def banded_form(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Pack a tridiagonal system into scipy's (1, 1) banded layout."""
    n = len(diag)
    ab = np.zeros((3, n))
    ab[0, 1:] = upper
    ab[1, :] = diag
    ab[2, :-1] = lower
    return ab


def derivative_at_zero(
    f: Callable[[float], float],
    steps: Sequence[float] = (),
    h0: float = 0.05,
    ratio: float = 0.5,
    levels: int = 10,
) -> Tuple[float, float]:
    """One-sided derivative f'(0+) by Richardson extrapolation of forward
    differences on a geometrically shrinking step schedule.

    Only evaluates f at 0 and at positive arguments.  Returns (derivative,
    error estimate); raises AccuracyError when the extrapolation table does
    not settle.
    """
    if steps:
        hs = list(steps)
        if any(h <= 0 for h in hs) or any(h2 >= h1 for h1, h2 in zip(hs, hs[1:])):
            raise ValueError("steps must be positive and strictly decreasing")
        ratio = hs[1] / hs[0] if len(hs) > 1 else 0.5
    else:
        hs = [h0 * ratio**k for k in range(levels)]
    f0 = f(0.0)
    col = [(f(h) - f0) / h for h in hs]
    best = col[-1]
    best_err = math.inf
    j = 0
    while len(col) > 1:
        j += 1
        r = ratio**j
        col = [(col[i + 1] - r * col[i]) / (1.0 - r) for i in range(len(col) - 1)]
        err = abs(col[-1] - best)
        if err < best_err:
            best_err = err
            best = col[-1]
    if not math.isfinite(best) or not math.isfinite(best_err):
        raise AccuracyError("Richardson extrapolation did not converge")
    return best, best_err


def _stehfest_weights(n: int) -> np.ndarray:
    if n % 2 or n < 2:
        raise ValueError("Gaver-Stehfest order must be a positive even number")
    half = n // 2
    v = np.zeros(n)
    for k in range(1, n + 1):
        s = 0.0
        for j in range((k + 1) // 2, min(k, half) + 1):
            s += (
                j**half
                * math.factorial(2 * j)
                / (
                    math.factorial(half - j)
                    * math.factorial(j)
                    * math.factorial(j - 1)
                    * math.factorial(k - j)
                    * math.factorial(2 * j - k)
                )
            )
        v[k - 1] = (-1) ** (k + half) * s
    return v


def invert_laplace(
    f_hat: Callable[[float], float],
    t: float,
    tol: float = 1e-5,
    orders: Sequence[int] = (12, 14, 16),
) -> Tuple[float, float]:
    """Gaver-Stehfest inversion of a Laplace transform at time t > 0.

    Only requires f_hat on the positive real axis.  The error estimate is the
    difference between successive orders (heuristic); raises AccuracyError
    when it stays above tol.  Crosscheck tool, never on the acceptance path.
    """
    if not t > 0:
        raise ValueError("t must be positive")
    ln2_t = math.log(2.0) / t
    values = []
    for n in orders:
        w = _stehfest_weights(n)
        q = ln2_t * np.arange(1, n + 1)
        values.append(ln2_t * float(np.dot(w, [f_hat(float(qi)) for qi in q])))
    best = values[-1]
    est = min(abs(b - a) for a, b in zip(values, values[1:]))
    # keep the order whose neighbor agreement is tightest
    for a, b in zip(values, values[1:]):
        if abs(b - a) == est:
            best = b
            break
    if est > tol:
        raise AccuracyError(f"Laplace inversion error estimate {est:.3g} exceeds {tol:.3g}")
    return best, est
