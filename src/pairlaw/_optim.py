"""Scalar maximization: grid bracket, golden section, parabolic polish."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import UnimodalityError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: A second interior grid mode within this value gap of the best means the
#: single-peak assumption behind golden section does not hold; fail loudly.
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


def maximize_scalar(f: Callable[[float], float], lo: float, hi: float,
                    bracket: tuple[float, float], *, scanned: int,
                    width: float, step: float,
                    ) -> tuple[float, float, tuple[float, float], int]:
    """Maximize f on the open interval (lo, hi), given a bracket of its
    global maximum from a bracket_peak scan of `scanned` points.

    Golden section narrows the bracket to `width`, and one three-point
    parabolic fit at spacing `step` pulls the argmax below the flat-top
    noise floor that value comparisons alone cannot resolve.

    Returns (argmax, value, bracket, evaluations); the evaluations count
    the scan.
    """
    evals = scanned

    def counted(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    a, b = bracket
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = counted(c)
    fd = counted(d)
    while h > width:
        if fc > fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = counted(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = counted(d)
    x0 = c if fc > fd else d

    if lo < x0 - step and x0 + step < hi:
        fm = counted(x0 - step)
        f0 = counted(x0)
        fp = counted(x0 + step)
        curvature = fm - 2.0 * f0 + fp
        if curvature < 0.0:
            shift = 0.5 * step * (fm - fp) / curvature
            # the true peak is inside the golden bracket, far closer than
            # one step; a larger fitted shift is noise, so cap it
            x0 += max(-step, min(step, shift))
    value = counted(x0)
    return x0, value, (min(a, x0), max(b, x0)), evals
