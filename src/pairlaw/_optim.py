"""Scalar maximization: a grid bracket, then bisection of an exact slope."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import UnimodalityError

#: A second interior grid mode within this value gap of the best means the
#: single-peak assumption behind the slope bisection does not hold; fail
#: loudly.
MODE_GUARD = 1e-12


def bracket_peak(f: Callable[[np.ndarray], Sequence[float]], lo: float,
                 hi: float, grid: int) -> tuple[float, float]:
    """Bracket the global maximum of f on the open interval (lo, hi).

    Calls f once, on the array of `grid` midpoints, and returns the grid
    neighbours of the best one (an interval end stands in for a missing
    neighbour; the first of tied bests wins).  Raises UnimodalityError if
    any other strict interior grid mode comes within MODE_GUARD of the
    best.
    """
    span = hi - lo
    xs = lo + span * (np.arange(grid) + 0.5) / grid
    vs = np.asarray(f(xs), dtype=float)
    best = int(np.argmax(vs))
    inner = np.arange(1, grid - 1)
    rival = ((np.abs(inner - best) > 1) & (vs[1:-1] > vs[:-2])
             & (vs[1:-1] > vs[2:]) & (vs[1:-1] >= vs[best] - MODE_GUARD))
    if rival.any():
        at = float(xs[inner[rival][0]])
        raise UnimodalityError(f"competing mode near argument {at!r}")
    return (float(xs[best - 1]) if best > 0 else lo,
            float(xs[best + 1]) if best < grid - 1 else hi)


def maximize_scalar(f: Callable[[float], float],
                    scan: Callable[[np.ndarray], Sequence[float]],
                    slope: Callable[[float], float], lo: float, hi: float,
                    grid: int,
                    ) -> tuple[float, float, tuple[float, float], int]:
    """Maximize f on the open interval (lo, hi) at the root of its slope.

    A bracket_peak scan (f over an array) on `grid` points brackets the
    peak.  The slope must be positive at the bracket's left end and
    negative at its right (an edge peak is a UnimodalityError); bisection
    on its sign narrows the bracket to adjacent floats, the right one the
    argmax.  Returns (argmax, value, bracket, evaluations), counting the
    scan, both end slopes, one slope per step and the value.
    """
    lo, hi = bracket_peak(scan, lo, hi, grid)
    if not slope(lo) > 0.0 > slope(hi):
        raise UnimodalityError(
            f"the slope does not change sign across [{lo!r}, {hi!r}]")
    evals = grid + 2
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if slope(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        evals += 1
        mid = 0.5 * (lo + hi)
    return hi, f(hi), (lo, hi), evals + 1
