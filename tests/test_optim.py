"""The shared scalar maximizer: bracketing, slope bisection, the tie guard."""

import math

import numpy as np
import pytest

from pairlaw import UnimodalityError
from pairlaw._optim import bracket_peak, maximize_scalar


def _maximize(f, slope, lo, hi, *, grid):
    # one f for the scan's arrays and the final float
    return maximize_scalar(f, f, slope, lo, hi, grid)


def test_quadratic_is_nailed():
    argmax, value, bracket, evals = _maximize(
        lambda x: -(x - 2.0) ** 2, lambda x: -2.0 * (x - 2.0), 0.0, 5.0,
        grid=64)
    assert abs(argmax - 2.0) <= 4 * math.ulp(2.0)
    assert abs(value) < 1e-16
    assert bracket[0] <= argmax <= bracket[1]
    assert bracket[1] == math.nextafter(bracket[0], math.inf)
    assert evals >= 64


def test_flat_top_quartic():
    # fourth-order top: value comparisons bottom out near eps^(1/4), but
    # the slope's sign has no flat-top noise floor
    argmax, _, _, _ = _maximize(
        lambda x: -(x - 1.0) ** 4, lambda x: -4.0 * (x - 1.0) ** 3, 0.0, 3.0,
        grid=64)
    assert abs(argmax - 1.0) <= 4 * math.ulp(1.0)


def test_equal_twin_peaks_refused():
    f = lambda x: -np.minimum(abs(x - 0.6), abs(x - 1.4)) ** 2
    slope = lambda x: -2.0 * (x - (0.6 if x < 1.0 else 1.4))
    # the rival's location is reported as a plain float
    with pytest.raises(UnimodalityError, match=r"argument 1\.4$"):
        _maximize(f, slope, 0.0, 2.0, grid=5)


def test_lopsided_twin_peaks_accepted():
    # a clearly lower second hump is not a tie; the guard must stay quiet
    f = lambda x: np.maximum(-(x - 0.6) ** 2, -0.5 - (x - 1.4) ** 2)
    slope = lambda x: -2.0 * (x - (0.6 if x < 1.3125 else 1.4))
    argmax, _, _, _ = _maximize(f, slope, 0.0, 2.0, grid=64)
    assert abs(argmax - 0.6) <= 4 * math.ulp(0.6)


def test_bracket_peak_scans_the_grid_once():
    calls = []

    def f(xs):
        calls.append(xs)
        return -(xs - 2.0) ** 2

    lo, hi = bracket_peak(f, 0.0, 5.0, 32)
    assert len(calls) == 1
    assert calls[0].tolist() == [5.0 * (i + 0.5) / 32 for i in range(32)]
    assert lo < 2.0 < hi
    assert hi - lo == pytest.approx(2 * 5.0 / 32)
    # the driver scans once too; past the scan it evaluates the two end
    # slopes, one slope per bisection step and the value, and counts them
    scans, slopes, values = [], [], []

    def scan(xs):
        scans.append(xs)
        return -(xs - 2.0) ** 2

    def slope(x):
        slopes.append(x)
        return -2.0 * (x - 2.0)

    def value(x):
        values.append(x)
        return -(x - 2.0) ** 2

    argmax, _, bracket, evals = maximize_scalar(value, scan, slope,
                                                0.0, 5.0, 32)
    assert len(scans) == 1 and scans[0].tolist() == calls[0].tolist()
    assert slopes[:2] == [lo, hi]
    assert values == [argmax]
    assert evals == 32 + 2 + (len(slopes) - 2) + 1
    assert lo <= bracket[0] < bracket[1] <= hi
    assert argmax == bracket[1]


def test_maximum_at_the_edge():
    # an edge peak has no slope sign change inside the bracket
    with pytest.raises(UnimodalityError, match="does not change sign"):
        _maximize(lambda x: -x, lambda x: -1.0, 0.0, 1.0, grid=16)
