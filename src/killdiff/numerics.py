"""Shared numerical kernels: bounded series summation and one-sided
differentiation at zero."""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

# a series is summed until its tail bound is at most SERIES_TAIL_TOLERANCE,
# within SERIES_MAX_TERMS terms
SERIES_TAIL_TOLERANCE = 1e-10
SERIES_MAX_TERMS = 100_000_000


class AccuracyError(RuntimeError):
    """A requested tolerance could not be certified."""


def sum_with_tail_bound(
    term_fn: Callable[[np.ndarray], np.ndarray],
    tail_bound_fn: Callable[[int], float],
) -> Tuple[float, float]:
    """Sum term_fn(1) + term_fn(2) + ... until tail_bound_fn(n), a valid bound
    on the absolute remainder after n terms, drops to SERIES_TAIL_TOLERANCE.

    term_fn is evaluated on index arrays (chunked, geometrically growing) so
    slowly converging series remain affordable.  Returns (value, achieved
    bound).  Raises AccuracyError when SERIES_MAX_TERMS terms are not enough.
    """
    total = 0.0
    n = 0
    chunk = 64
    while n < SERIES_MAX_TERMS:
        hi = min(n + chunk, SERIES_MAX_TERMS)
        idx = np.arange(n + 1, hi + 1, dtype=np.int64)
        total += float(np.sum(term_fn(idx)))
        n = hi
        bound = float(tail_bound_fn(n))
        if bound <= SERIES_TAIL_TOLERANCE:
            return total, bound
        chunk = min(chunk * 2, 1 << 22)
    raise AccuracyError(
        f"series tail bound {tail_bound_fn(n):.3g} after {n} terms exceeds "
        f"tolerance {SERIES_TAIL_TOLERANCE:.3g}"
    )


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
