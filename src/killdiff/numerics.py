"""Shared numerical kernels: series summation to a certified tail bound,
and the error raised when a tolerance cannot be certified."""

from __future__ import annotations

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

