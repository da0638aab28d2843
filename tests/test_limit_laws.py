"""Limit curves: quadrature accuracy, maxima, finite-size convergence."""

import math

import numpy as np
import pytest

from pairlaw import (DomainError, NonPositiveC, NonPositiveParameter,
                     QuadratureResult, ToleranceNotMet, convergence_check, ell,
                     ell_argmax, ell_shoes, ell_shoes_diag_argmax)
from pairlaw.family_opt import OptResult
from pairlaw.limit_laws import (_adaptive_simpson, _ell_closed, _ell_shoes_closed,
                                _ell_shoes_diag_slope, _ell_slope)

ELL_MAX_C = 1.5139940757525916
ELL_MAX_VALUE = 0.1832000624087106
SHOES_DIAG_MAX_A = 1.5622394444551926
SHOES_DIAG_MAX_VALUE = 0.1998086740531225

#: The roots of both slopes and the curves there, by mpmath.findroot and
#: mpmath.quad at 40 digits.
EXACT_C = 1.5139940721324004
EXACT_ELL = 0.18320006240871061
EXACT_A = 1.5622394409147175
EXACT_DIAG = 0.19980867405313229


def _simpson_reference(f, upper, panels=1 << 20):
    # brute-force composite Simpson, independent of the adaptive code path
    xs = np.linspace(0.0, upper, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(upper / panels / 3.0 * np.dot(w, f(xs)))


def test_ell_against_brute_force():
    for c in (0.3, 1.514, 5.0):
        ref = c * c / (1.0 + c * c) - _simpson_reference(
            lambda t: c * c * t * np.exp(-c * t - 0.5 * t * t), 40.0)
        got = ell(c)
        assert isinstance(got, QuadratureResult)
        assert abs(got.value - ref) < 1e-10
        assert got.abs_error_estimate <= 1e-12
        assert got.subdivisions > 0


def test_ell_shoes_against_brute_force():
    for a, b in ((1.5622, 1.5622), (0.5, 2.0), (3.0, 0.2)):
        ab = a * b
        ref = ab / (1.0 + ab) - _simpson_reference(
            lambda t: (a * np.exp(-a * t) + b * np.exp(-b * t)
                       - (a + b) * np.exp(-(a + b) * t)) * np.exp(-t * t),
            70.0)
        assert abs(ell_shoes(a, b).value - ref) < 1e-10


def test_ell_tails_vanish():
    assert 0.0 <= ell(1e-3).value < 1e-5
    assert 0.0 <= ell(1e3).value < 1e-2
    assert ell_shoes(0.01, 0.01).value < 1e-3
    assert ell_shoes(100.0, 100.0).value < 0.01


def test_ell_input_validation():
    with pytest.raises(NonPositiveC):
        ell(0.0)
    with pytest.raises(NonPositiveC):
        ell(-1.5)
    with pytest.raises(DomainError):
        ell(1.0, tol=1e-15)
    with pytest.raises(NonPositiveParameter):
        ell_shoes(1.0, 0.0)
    with pytest.raises(NonPositiveParameter):
        ell_shoes(-2.0, 1.0)


def test_parameters_whose_products_overflow_are_rejected():
    # c * c = inf once turned the integrand to NaN
    with pytest.raises(NonPositiveC):
        ell(1e160)
    with pytest.raises(NonPositiveParameter):
        ell_shoes(1e200, 1e200)
    with pytest.raises(NonPositiveParameter):
        ell_shoes(1e300, 1e10)
    with pytest.raises(NonPositiveParameter):
        ell_shoes(1e308, 1e308)  # the sum overflows as well


def test_non_finite_error_estimate_fails_fast():
    # without the check, each pass would double the NaN intervals; the
    # size guard turns such a regression into a failure, not a memory drain
    def flat(value):
        def f(t):
            assert t.size < 10_000
            return np.full_like(t, value)
        return f

    for bad in (np.nan, np.inf):
        with pytest.raises(ToleranceNotMet), np.errstate(invalid="ignore"):
            _adaptive_simpson(flat(bad), 12.0, 1e-12, 1.0)


def test_tolerance_is_honored_and_consistent():
    loose = ell(1.514, tol=1e-6)
    tight = ell(1.514, tol=1e-13)
    assert loose.abs_error_estimate <= 1e-6
    assert tight.abs_error_estimate <= 1e-13
    assert abs(loose.value - tight.value) < 1e-6
    assert loose.subdivisions <= tight.subdivisions


def test_ell_shoes_symmetry_is_exact():
    # the integrand is literally symmetric, so the two calls run the same
    # panel sequence and return bit-identical results
    for a, b in ((0.5, 2.0), (1.2, 3.4), (0.07, 11.0)):
        assert ell_shoes(a, b) == ell_shoes(b, a)


def test_ell_argmax_frozen_constants():
    r = ell_argmax()
    assert abs(r.argmax - ELL_MAX_C) < 1e-6
    assert abs(r.value - ELL_MAX_VALUE) < 1e-10
    assert r.bracket[0] <= r.argmax <= r.bracket[1]
    # local-maximum sanity around the reported point
    assert r.value >= ell(r.argmax - 0.01).value
    assert r.value >= ell(r.argmax + 0.01).value


def test_shoes_diag_argmax_frozen_constants():
    r = ell_shoes_diag_argmax()
    assert abs(r.argmax - SHOES_DIAG_MAX_A) < 1e-6
    assert abs(r.value - SHOES_DIAG_MAX_VALUE) < 1e-10
    assert r.value >= ell_shoes(r.argmax - 0.01, r.argmax - 0.01).value


def test_argmax_tolerance_floor():
    with pytest.raises(DomainError):
        ell_argmax(tol=1e-13)
    with pytest.raises(DomainError):
        ell_shoes_diag_argmax(tol=1e-13)


def test_limit_constants_to_full_precision():
    for argmax, where, peak in ((ell_argmax, EXACT_C, EXACT_ELL),
                                (ell_shoes_diag_argmax, EXACT_A, EXACT_DIAG)):
        r = argmax()
        assert abs(r.argmax - where) < 1e-12
        assert abs(r.value - peak) < 1e-15
        assert r.evaluations > 256
        # the tolerance is only floor-checked: the point is the same
        assert argmax(tol=1e-6) == r


def test_argmaxes_are_pinned_to_the_bit():
    # the shared scan-and-bisect driver's points, values, brackets and
    # evaluation counts (256 scanned + 2 end slopes + steps + 1 value)
    assert ell_argmax() == OptResult(
        1.5139940721324001, 0.18320006240871056,
        (1.5139940721324, 1.5139940721324001), 310)
    assert ell_shoes_diag_argmax() == OptResult(
        1.562239440914718, 0.19980867405313235,
        (1.5622394409147178, 1.562239440914718), 309)


def test_closed_forms_match_the_quadrature():
    # the adaptive quadrature shares no code with the Mills-ratio forms
    for c in np.geomspace(0.01, 50.0, 49):
        assert abs(_ell_closed(c) - ell(c).value) < 1e-12, c
    grid = np.geomspace(0.01, 50.0, 9)
    pairs = [(a, b) for a in grid for b in grid] + [(0.07, 11.0), (40.0, 45.0)]
    for a, b in pairs:
        assert abs(_ell_shoes_closed(a, b) - ell_shoes(a, b).value) < 1e-12, (a, b)


def test_slopes_are_derivatives_of_the_closed_forms():
    h = 1e-5
    for x in (0.05, 0.7, 1.0, 1.5, 3.0, 12.0, 40.0):
        quotient = (_ell_closed(x + h) - _ell_closed(x - h)) / (2 * h)
        assert abs(quotient - _ell_slope(x)) < 1e-9, x
        quotient = (_ell_shoes_closed(x + h, x + h)
                    - _ell_shoes_closed(x - h, x - h)) / (2 * h)
        assert abs(quotient - _ell_shoes_diag_slope(x)) < 1e-9, x


def test_slope_changes_sign_across_each_argmax():
    for argmax, slope in ((ell_argmax, _ell_slope),
                          (ell_shoes_diag_argmax, _ell_shoes_diag_slope)):
        r = argmax()
        lo, hi = r.bracket
        assert lo <= r.argmax <= hi and hi == math.nextafter(lo, math.inf)
        assert slope(lo) > 0.0 >= slope(hi)
        assert slope(r.argmax - 1e-9) > 0.0 > slope(r.argmax + 1e-9)


def test_witness_family_climbs_the_limit_surface():
    # witness_family(n) sits at (a, b) = (n^(1/4), n^(-1/6)) on the surface
    values = [ell_shoes(n ** 0.25, n ** (-1 / 6)).value
              for n in (10 ** 2, 10 ** 3, 10 ** 4)]
    assert values[0] < values[1] < values[2]
    for got, want in zip(values, (0.297, 0.408, 0.514)):
        assert abs(got - want) < 1e-3


def test_convergence_gaps_shrink():
    rows = convergence_check(1.514, [10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])
    gaps = [r.gap for r in rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    # the gap decays like n^(-1/2): one decade of n buys about sqrt(10)
    for a, b in zip(gaps, gaps[1:]):
        assert 2.0 < a / b < 5.0
    for r in rows:
        assert abs(r.value + r.gap - ell(1.514).value) < 1e-14  # value < limit here


def test_convergence_frozen_values():
    rows = convergence_check(1.514, [10 ** 2, 10 ** 4, 10 ** 6])
    assert abs(rows[0].gap - 2.0975952794106e-02) < 1e-10
    assert abs(rows[1].gap - 1.8734331109387e-03) < 1e-10
    assert abs(rows[2].gap - 1.8515366425143e-04) < 1e-10


def test_convergence_domain_checks():
    with pytest.raises(NonPositiveC):
        convergence_check(0.0, [100])
    with pytest.raises(DomainError):
        convergence_check(1.514, [1])  # n must exceed c^2
    with pytest.raises(DomainError):
        convergence_check(0.001, [100])  # n c^2 must exceed 1
