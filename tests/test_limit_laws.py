"""Limit curves: quadrature accuracy, maxima, finite-size convergence."""

import math

import mpmath as mp
import numpy as np
import pytest

import pairlaw.limit_laws as limit_laws
from pairlaw import (DomainError, FamilyPoint, InputError, NonPositiveC,
                     NonPositiveParameter, QuadratureResult, ToleranceNotMet,
                     convergence_check, ell, ell_argmax, ell_shoes,
                     ell_shoes_diag_argmax, family_discrepancy)
from pairlaw.family_opt import OptResult
from pairlaw.limit_laws import (_MILLS_TERMS, ARGMAX_GRID, MAX_DEPTH,
                                MILLS_SWITCH,
                                SEARCH_HI, _adaptive_simpson, _ell_closed,
                                _SQRT_HALF, _ell_shoes_closed,
                                _ell_shoes_diag_slope, _ell_slope,
                                _mills_moments, _mills_ratios,
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


def _scalar_mills_ratios(x):
    # the continued fraction as a loop over int k that shuffles a tuple,
    # frozen here as the float-table loop's bit-for-bit reference
    r1 = r2 = r3 = 0.0
    for k in range(16 + int(512.0 / (x * x)), 0, -1):
        r1, r2, r3 = k / (x + r1), r1, r2
    return r1, r2, r3


def test_mills_ratios_match_the_tuple_loop_bit_for_bit():
    xs = np.geomspace(MILLS_SWITCH, 1e6, 2000).tolist()
    for at in (1.0, SEARCH_HI):
        xs += [math.nextafter(at, 0.0), at, math.nextafter(at, math.inf)]
    for x in xs:
        got, want = _mills_ratios(x), _scalar_mills_ratios(x)
        assert [v.hex() for v in got] == [v.hex() for v in want], x


def test_mills_table_holds_every_term_from_the_switch():
    # a slice past the table's start would drop the largest k silently
    x = MILLS_SWITCH
    assert len(_MILLS_TERMS) >= 16 + int(512.0 / (x * x))
    assert _MILLS_TERMS == tuple(float(k) for k in
                                 range(len(_MILLS_TERMS), 0, -1))


def _two_evaluation_diagonal(a):
    # the closed surface at (a, a) as it stood before the diagonal took
    # I_1(a / sqrt 2) once: the oracle the shared form must match
    return (_mills_moments(a * _SQRT_HALF)[1] + _mills_moments(a * _SQRT_HALF)[1]
            - _mills_moments((a + a) * _SQRT_HALF)[1] - 1.0 / (1.0 + a * a))


def test_diagonal_matches_the_surface_bit_for_bit():
    # the diagonal argmax's scan grid, and the ticks of the default
    # shoes-diag curve (--lo 0.1 --hi 10 --points 64) and a finer one
    grid = SEARCH_HI * (np.arange(ARGMAX_GRID) + 0.5) / ARGMAX_GRID
    ticks = [0.1 + (10.0 - 0.1) * i / (points - 1)
             for points in (64, 10 ** 4) for i in range(points)]
    for a in grid.tolist() + ticks + [0.3, 1.0, 1.562239440914718, 1e6,
                                      1e-300, 1e150]:
        want = _two_evaluation_diagonal(a).hex()
        assert _ell_shoes_closed(a, a).hex() == want, a
        assert ell_shoes_value(a, a).hex() == want, a
    for a in (0.0, -1.0, math.nan, math.inf, 1e200):
        with pytest.raises(NonPositiveParameter):
            ell_shoes_value(a, a)


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


def test_family_gap_falls_at_the_rate_of_its_expansion():
    # D_n(c / sqrt n) = ell(c) + kappa_1(c) / sqrt n + O(1 / n), with
    # kappa_1 = 2c^3 / (1 + c^2)^2 - c^3 I_3(c) - (c^2 / 3) I_4(c) and
    # I_4 = 3 I_2 - c I_3.  The O(1 / n) term's coefficient,
    # (sqrt(n) gap - kappa_1) sqrt(n), reads -0.2427 +- 0.0003 from n = 10^4
    # to 10^8 at c = 1.514; a wrong kappa_1 would drift it by sqrt(n).
    c = 1.514
    _, _, i2, i3 = _mills_moments(c)
    kappa1 = (2.0 * c ** 3 / (1.0 + c * c) ** 2 - c ** 3 * i3
              - c * c / 3.0 * (3.0 * i2 - c * i3))
    assert abs(kappa1 + 0.18491097441309) < 1e-13
    limit = ell_value(c)
    for n in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8):
        root = math.sqrt(n)
        scaled = root * (family_discrepancy(FamilyPoint(n, c / root)) - limit)
        assert -0.3 < (scaled - kappa1) * root < -0.2, n


def test_convergence_domain_checks():
    with pytest.raises(NonPositiveC):
        convergence_check(0.0, [100])
    with pytest.raises(DomainError):
        convergence_check(1.514, [1])  # n must exceed c^2
    with pytest.raises(DomainError):
        convergence_check(0.001, [100])  # n c^2 must exceed 1
    # sizes that are not finite, or past the series cap before n c^2 is
    # formed (10^400 c^2 overflows a float)
    for n in (math.nan, math.inf, -math.inf, 10 ** 400, 2 ** 53):
        with pytest.raises(DomainError):
            convergence_check(1.5, [n])


def _two_call_simpson(f, upper, tol, scale):
    """_adaptive_simpson as it was before a pass built its children as one
    array, frozen as its oracle: f is called on the edges and midpoints
    apart, then twice a pass, and the kept intervals are concatenated
    array by array."""
    first = min(scale, upper) / 8.0
    edges = [0.0, first]
    while edges[-1] < upper:
        edges.append(min(upper, edges[-1] * 2.0))
    a = np.asarray(edges[:-1])
    b = np.asarray(edges[1:])
    fa = f(a)
    fb = f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    budget = np.full(a.shape, tol / a.size)
    total = 0.0
    err_total = 0.0
    splits = 0
    for _ in range(MAX_DEPTH):
        if a.size == 0:
            return total, err_total, splits
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = (left + right - whole) / 15.0
        size = np.abs(err)
        if not math.isfinite(size.sum()):
            raise ToleranceNotMet(
                f"quadrature error estimate is not finite at tol {tol!r}")
        done = size <= budget
        total += float(np.sum(left[done] + right[done] + err[done]))
        err_total += float(np.sum(size[done]))
        keep = ~done
        splits += int(np.count_nonzero(keep))
        a = np.concatenate([a[keep], m[keep]])
        b = np.concatenate([m[keep], b[keep]])
        fa = np.concatenate([fa[keep], fm[keep]])
        fb = np.concatenate([fm[keep], fb[keep]])
        fm = np.concatenate([flm[keep], frm[keep]])
        whole = np.concatenate([left[keep], right[keep]])
        half = budget[keep] / 2.0
        budget = np.concatenate([half, half])
    raise ToleranceNotMet(
        f"quadrature hit the {MAX_DEPTH}-split depth cap at tol {tol!r}")


def _outcome(call, *args):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call(*args)
    except (InputError, ToleranceNotMet) as exc:
        return type(exc).__name__, str(exc)


def test_one_call_passes_match_the_two_call_passes_bit_for_bit(monkeypatch):
    # ell and ell_shoes on log-uniform points and tolerances, with the
    # frozen passes swapped in for the second run of each case
    rng = np.random.default_rng(2026)
    cases = []
    for i in range(320):
        tol = float(10.0 ** rng.uniform(-14.0, -3.0))
        if i % 2:
            cases.append((ell, float(10.0 ** rng.uniform(-3.0, 3.0)), tol))
        else:
            cases.append((ell_shoes, *(10.0 ** rng.uniform(-3.0, 3.0, 2)).tolist(),
                          tol))
    cases += [(ell, 1.514, 1e-14), (ell_shoes, 1e-300, 2.0, 1e-12),
              (ell, 1e-300, 1e-12), (ell_shoes, 1.5, 1.5, 1e-13)]
    got = [_outcome(call, *args) for call, *args in cases]
    monkeypatch.setattr(limit_laws, "_adaptive_simpson", _two_call_simpson)
    want = [_outcome(call, *args) for call, *args in cases]
    assert got == want
    assert sum(isinstance(r, QuadratureResult) for r in got) >= 300


def test_one_call_passes_refuse_as_the_two_call_passes_do():
    def step(t):  # a jump no panel resolves to a tolerance this small
        return (t > 1.0 / 3.0).astype(float)

    def late_nan(t):  # finite on the ladder, not finite at a child midpoint
        return np.where((t > 0.3) & (t < 0.33), np.nan, np.exp(-t))

    def kink(t):  # resolved, after many splits around t = 1/3
        return np.sqrt(np.abs(t - 1.0 / 3.0))

    def flat(value):
        return lambda t: np.full_like(t, value)

    with np.errstate(invalid="ignore"):
        for f, tol in ((step, 1e-300), (late_nan, 1e-12), (flat(np.nan), 1e-12),
                       (flat(np.inf), 1e-12), (kink, 1e-9), (np.exp, 1e-12)):
            got = _outcome(_adaptive_simpson, f, 12.0, tol, 1.0)
            want = _outcome(_two_call_simpson, f, 12.0, tol, 1.0)
            assert got == want, (f, tol)
    calls = []  # the edges and midpoints, then one call a pass to the cap

    def counted(t):
        calls.append(t.size)
        return step(t)

    assert _outcome(_adaptive_simpson, counted, 12.0, 1e-300, 1.0)[1] \
        .startswith("quadrature hit the")
    assert len(calls) == 1 + MAX_DEPTH
