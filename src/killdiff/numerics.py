"""Shared numerical kernels: bounded series summation, tridiagonal solves
and one-sided differentiation at zero."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

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
    f: Callable[[float], float], h0: float = 0.05, levels: int = 10
) -> Tuple[float, float]:
    """One-sided derivative f'(0+) by Richardson extrapolation of forward
    differences at the steps h0, h0/2, h0/4, ... (`levels` of them).

    Only evaluates f at 0 and at positive arguments.  Returns (derivative,
    error estimate); raises AccuracyError when the extrapolation table does
    not settle.
    """
    hs = [h0 * 0.5**k for k in range(levels)]
    f0 = f(0.0)
    col = [(f(h) - f0) / h for h in hs]
    best = col[-1]
    best_err = math.inf
    j = 0
    while len(col) > 1:
        j += 1
        r = 0.5**j
        col = [(col[i + 1] - r * col[i]) / (1.0 - r) for i in range(len(col) - 1)]
        err = abs(col[-1] - best)
        if err < best_err:
            best_err = err
            best = col[-1]
    if not math.isfinite(best) or not math.isfinite(best_err):
        raise AccuracyError("Richardson extrapolation did not converge")
    return best, best_err
