"""The shared scalar maximizer: bracketing, refinement, the tie guard."""

import numpy as np
import pytest

from pairlaw import UnimodalityError
from pairlaw._optim import bracket_peak, maximize_scalar


def _maximize(f, lo, hi, *, grid, width, step):
    # the array scan brackets, the scalar refiner narrows: family_argmax's
    # pipeline, with one f that takes both arrays and floats
    bracket = bracket_peak(f, lo, hi, grid)
    return maximize_scalar(f, lo, hi, bracket, scanned=grid, width=width,
                           step=step)


def test_quadratic_is_nailed():
    argmax, value, bracket, evals = _maximize(
        lambda x: -(x - 2.0) ** 2, 0.0, 5.0, grid=64, width=1e-12, step=1e-5)
    assert abs(argmax - 2.0) < 1e-8
    assert abs(value) < 1e-16
    assert bracket[0] <= argmax <= bracket[1]
    assert evals >= 64


def test_flat_top_quartic():
    # fourth-order top: value comparisons alone bottom out around eps^(1/4),
    # the parabolic polish must not make things worse
    argmax, _, _, _ = _maximize(
        lambda x: -(x - 1.0) ** 4, 0.0, 3.0, grid=64, width=1e-12, step=1e-5)
    assert abs(argmax - 1.0) < 1e-3


def test_equal_twin_peaks_refused():
    f = lambda x: -np.minimum(abs(x - 0.6), abs(x - 1.4)) ** 2
    # the rival's location is reported as a plain float
    with pytest.raises(UnimodalityError, match=r"argument 1\.4$"):
        _maximize(f, 0.0, 2.0, grid=5, width=1e-10, step=1e-4)


def test_lopsided_twin_peaks_accepted():
    # a clearly lower second hump is not a tie; the guard must stay quiet
    f = lambda x: np.maximum(-(x - 0.6) ** 2, -0.5 - (x - 1.4) ** 2)
    argmax, _, _, _ = _maximize(f, 0.0, 2.0, grid=64, width=1e-10, step=1e-4)
    assert abs(argmax - 0.6) < 1e-6


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
    # the refiner evaluates past the scan only, and counts the scan too
    scalar_calls = []

    def g(x):
        scalar_calls.append(x)
        return -(x - 2.0) ** 2

    argmax, _, _, evals = maximize_scalar(
        g, 0.0, 5.0, (lo, hi), scanned=32, width=1e-10, step=1e-5)
    assert evals == 32 + len(scalar_calls)
    assert abs(argmax - 2.0) < 1e-8


def test_maximum_at_the_edge():
    # no polish room near the boundary; the bracket end is the answer
    argmax, value, _, _ = _maximize(
        lambda x: -x, 0.0, 1.0, grid=16, width=1e-10, step=1e-2)
    assert argmax < 0.05
    assert value == -argmax
