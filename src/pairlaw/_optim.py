"""Scalar maximization: grid bracket, golden section, parabolic polish."""

from __future__ import annotations

import math
from typing import Callable

from .errors import UnimodalityError

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0

#: A second interior grid mode within this value gap of the best means the
#: single-peak assumption behind golden section does not hold; fail loudly.
MODE_GUARD = 1e-12


def bracket_peak(f: Callable[[float], float], lo: float, hi: float,
                 grid: int) -> tuple[float, float]:
    """Bracket the global maximum of f on the open interval (lo, hi).

    Scans f at `grid` midpoints and returns the grid neighbours of the
    best one (an interval end stands in for a missing neighbour).  Raises
    UnimodalityError if any other strict interior grid mode comes within
    MODE_GUARD of the best.
    """
    span = hi - lo
    xs = [lo + span * (i + 0.5) / grid for i in range(grid)]
    vs = [f(x) for x in xs]
    best = max(range(grid), key=vs.__getitem__)
    for i in range(1, grid - 1):
        if (abs(i - best) > 1 and vs[i] > vs[i - 1] and vs[i] > vs[i + 1]
                and vs[i] >= vs[best] - MODE_GUARD):
            raise UnimodalityError(f"competing mode near argument {xs[i]!r}")
    return (xs[best - 1] if best > 0 else lo,
            xs[best + 1] if best < grid - 1 else hi)


def maximize_scalar(f: Callable[[float], float], lo: float, hi: float, *,
                    grid: int, width: float, step: float,
                    ) -> tuple[float, float, tuple[float, float], int]:
    """Maximize f on the open interval (lo, hi).

    bracket_peak brackets the global maximum.  Golden section then
    narrows the bracket to `width`, and one three-point parabolic fit at
    spacing `step` pulls the argmax below the flat-top noise floor that
    value comparisons alone cannot resolve.

    Returns (argmax, value, bracket, evaluations).
    """
    evals = grid

    def counted(x: float) -> float:
        nonlocal evals
        evals += 1
        return f(x)

    a, b = bracket_peak(f, lo, hi, grid)
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
