"""Limit curves: quadrature accuracy, maxima, finite-size convergence."""

import math

import mpmath as mp
import numpy as np
import pytest

from pairlaw import (DomainError, InputError, NonPositiveC, NonPositiveParameter,
                     QuadratureResult, ToleranceNotMet, convergence_check, ell,
                     ell_argmax, ell_shoes, ell_shoes_diag_argmax)
from pairlaw.family_opt import OptResult
from pairlaw.limit_laws import (_adaptive_simpson, _ell_closed, _ell_shoes_closed,
                                _ell_shoes_diag_slope, _ell_slope,
                                ell_shoes_value, ell_value)

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


def test_limit_constants_to_full_precision():
    for argmax, where, peak in ((ell_argmax, EXACT_C, EXACT_ELL),
                                (ell_shoes_diag_argmax, EXACT_A, EXACT_DIAG)):
        r = argmax()
        assert abs(r.argmax - where) < 1e-12
        assert abs(r.value - peak) < 1e-15
        assert r.evaluations > 256


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


def _mp_i1(x):
    """I_1(x) = 1 - x R(x) in mpmath, R the scaled Mills ratio."""
    return 1 - x * mp.sqrt(mp.pi / 2) * mp.exp(x * x / 2) * mp.erfc(x / mp.sqrt(2))


def test_closed_forms_match_mpmath_across_the_range():
    # the same identities at 60 digits: at c = 1e8, ell ~ 2 / c^2 after
    # about 32 digits cancel, which still leaves some 28
    worst = 0.0
    with mp.workdps(60):
        for c in np.geomspace(1e-8, 1e8, 300).tolist():
            cc = mp.mpf(c) ** 2
            want = cc / (1 + cc) - cc * _mp_i1(mp.mpf(c))
            worst = max(worst, abs(_ell_closed(c) - float(want)))
        grid = np.geomspace(1e-6, 1e6, 49).tolist()
        half = mp.sqrt(mp.mpf(0.5))
        alone = {x: _mp_i1(x * half) for x in grid}
        for a in grid:
            for b in grid:
                want = (alone[a] + alone[b] - _mp_i1((mp.mpf(a) + b) * half)
                        - 1 / (1 + mp.mpf(a) * b))
                worst = max(worst, abs(_ell_shoes_closed(a, b) - float(want)))
    assert worst < 1e-15


#: c, and (a, b), that the quadrature refuses.
SOCKS_REFUSED = [0.0, -1.5, math.nan, -math.inf, math.inf, 1e160]
SHOES_REFUSED = [(1.0, 0.0), (-2.0, 1.0), (math.nan, 1.0), (1.0, math.nan),
                 (math.inf, 1.0), (1e200, 1e200), (1e300, 1e10),
                 (1e308, 1e308)]


def _refusal(call, *args):
    with pytest.raises(InputError) as exc:
        call(*args)
    return type(exc.value)


@pytest.mark.parametrize("c", SOCKS_REFUSED)
def test_closed_form_refuses_what_the_quadrature_refuses(c):
    kind = _refusal(ell, c)
    assert _refusal(ell_value, c) is kind
    assert _refusal(convergence_check, c, [100]) is kind


@pytest.mark.parametrize("a, b", SHOES_REFUSED)
def test_closed_surface_refuses_what_the_quadrature_refuses(a, b):
    assert _refusal(ell_shoes_value, a, b) is _refusal(ell_shoes, a, b)


def test_closed_form_entry_points_are_the_closed_forms():
    for x in (1e-8, 0.3, 1.0, 1.514, 40.0, 1e8):
        assert ell_value(x) == _ell_closed(x)
        assert ell_shoes_value(x, 2.0) == _ell_shoes_closed(x, 2.0)


def test_closed_form_is_relative_exact_for_large_c():
    # ell ~ 2 / c^2 there, where a subtraction of two terms near 1 would
    # print round-off near 1e-16 in its place.  Substituting u = c t and
    # integrating by parts, ell(c) = 1 / (1 + c^2) times the integral over
    # u > 0 of u^2 exp(-u - u^2 / (2 c^2)): a reference with no cancellation
    with mp.workdps(30):
        for c in (60.0, 1e4, 1e8, 1e10, 1e100, 1e150, 1e154):
            cc = mp.mpf(c) ** 2
            want = mp.quad(lambda u: u * u * mp.exp(-u - u * u / (2 * cc)),
                           [0, mp.inf]) / (1 + cc)
            assert abs(_ell_closed(c) - want) <= 1e-15 * want, c


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
