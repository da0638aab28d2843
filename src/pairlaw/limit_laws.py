"""Limit discrepancy curves and their universal constants.

Along the one-heavy-color family with head mass x = c / sqrt(n), the
discrepancy converges as n grows to a function ell(c) given by a
Gaussian-damped integral; the alternating left/right variant has an
analogous two-parameter surface ell(a, b).  Both integrals have closed
forms in the scaled Gaussian Mills ratio, and so do their slopes.  The
closed forms serve every value-only table (ell_value and ell_shoes_value
behind the CLI's curves and grids, and the limit in convergence_check),
and the maxima c* = 1.513994072132 and a* = 1.562239440915 (diagonal
a = b) are the roots of the slopes, bisected to adjacent floats.  ell and
ell_shoes evaluate the integrals by adaptive quadrature to a requested
tolerance with an error estimate: they serve single points and are the
closed forms' independent check.  Both routes refuse the same c, a and b
with the same errors; only the quadrature takes a tolerance, and neither
argmax does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ._optim import maximize_scalar
from .errors import (DomainError, NonPositiveC, NonPositiveParameter,
                     ToleranceNotMet)
from .family_opt import FamilyPoint, OptResult, family_discrepancy

DEFAULT_TOL = 1e-12
#: Below this the Richardson error estimate is round-off, not truncation.
MIN_TOL = 1e-14

#: Both limit curves are single-peaked with their maxima well inside
#: (0, 50); beyond, they decay like 1/c^2 toward zero.
SEARCH_HI = 50.0
ARGMAX_GRID = 256

#: The Mills ratio comes from erfc below this argument and from its
#: continued fraction above, where 16 + 512 / x^2 terms reach full
#: precision.  Above it, erfc's few-ulp error would grow through the
#: forward recurrence (7e-15 relative in I_3 at x = 1.5) and erfc itself
#: underflows past x = 38.
MILLS_SWITCH = 1.0

#: Past this t the Gaussian damping of either integrand, e^{-t^2 / 2} or
#: e^{-t^2}, is below 1e-300, so the quadrature's range stops here however
#: small c, a or b make max(12, 12 / c); it also keeps t * t finite.
DAMPED_CUTOFF = 38.0

#: Interval-split depth cap of the adaptive quadrature.
MAX_DEPTH = 50

_SQRT_HALF = math.sqrt(0.5)
_SQRT_TWO = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)


@dataclass(frozen=True)
class QuadratureResult:
    """A quadrature value with its accumulated error estimate."""

    value: float
    abs_error_estimate: float
    subdivisions: int


def _adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], upper: float,
                      tol: float, scale: float) -> tuple[float, float, int]:
    """Integral of f over [0, upper] by adaptive Simpson subdivision.

    Panels start on a geometric ladder with the first edge at scale / 8,
    so an integrand concentrated near zero at width `scale` is always
    probed inside its support; a uniform first split cannot miss it.  All
    pending intervals advance one Richardson step per pass as flat arrays;
    accepted intervals contribute value plus correction, and the error
    budget halves with each split, keeping the total additive below tol.
    """
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
        if not math.isfinite(size.sum()):  # it would split forever
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


def _check_tol(tol: float) -> None:
    """tol at or above MIN_TOL (NaN fails)."""
    if not tol >= MIN_TOL:
        raise DomainError(f"tolerance {tol!r} below the {MIN_TOL} floor")


def _check_c(c: float) -> float:
    """c squared, once c passes the check that the quadrature and the
    closed form share: c positive with a finite square (NaN fails)."""
    cc = c * c
    if not (0.0 < c and cc < math.inf):
        raise NonPositiveC(f"c must be positive with a finite square, got {c!r}")
    return cc


def _check_ab(a: float, b: float) -> float:
    """a b, once a and b pass the check that the quadrature and the closed
    form share: both positive with a finite product and sum (NaN fails)."""
    ab = a * b
    if not (0.0 < a and 0.0 < b and ab < math.inf and a + b < math.inf):
        raise NonPositiveParameter(
            f"need positive a, b with finite a*b and a+b, got {a!r}, {b!r}")
    return ab


def ell(c: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The one-sequence limit curve.

    ell(c) = c^2 / (1 + c^2) - integral over t > 0 of
    c^2 t exp(-c t - t^2 / 2) dt: the first term is the limiting
    conditioned-pair head weight, the integral the limiting one-at-a-time
    head weight.  The integrand is the second-arrival density of a rate-c
    Poisson process damped by the no-tail-pair factor exp(-t^2 / 2); past
    max(12, 12 / c) that factor alone is below 1e-31, so the tail is cut
    there, or at DAMPED_CUTOFF if that comes first.
    """
    cc = _check_c(c)
    _check_tol(tol)

    def integrand(t: np.ndarray) -> np.ndarray:
        return cc * t * np.exp(-c * t - 0.5 * t * t)

    value, err, splits = _adaptive_simpson(
        integrand, min(max(12.0, 12.0 / c), DAMPED_CUTOFF), tol,
        scale=min(1.0, 1.0 / c))
    return QuadratureResult(cc / (1.0 + cc) - value, err, splits)


def ell_shoes(a: float, b: float, tol: float = DEFAULT_TOL) -> QuadratureResult:
    """The alternating-pairs limit surface.

    ell(a, b) = a b / (1 + a b) - integral over t > 0 of
    (a e^{-a t} + b e^{-b t} - (a + b) e^{-(a+b) t}) e^{-t^2} dt.
    Symmetric in (a, b) by construction: the integrand is literally
    unchanged under swapping them, so no symmetrization step is needed.
    The range is cut at max(12, 12 / min(a, b)) or DAMPED_CUTOFF, whichever
    comes first.
    """
    ab = _check_ab(a, b)
    _check_tol(tol)

    def integrand(t: np.ndarray) -> np.ndarray:
        return (a * np.exp(-a * t) + b * np.exp(-b * t)
                - (a + b) * np.exp(-(a + b) * t)) * np.exp(-t * t)

    upper = min(max(12.0, 12.0 / min(a, b)), DAMPED_CUTOFF)
    value, err, splits = _adaptive_simpson(
        integrand, upper, tol, scale=min(1.0, 1.0 / (a + b)))
    return QuadratureResult(ab / (1.0 + ab) - value, err, splits)


def _mills_moments(x: float) -> tuple[float, float, float, float]:
    """I_k(x) = integral over s > 0 of s^k exp(-x s - s^2 / 2) ds, k = 0..3.

    I_0 = R(x) = sqrt(pi / 2) e^{x^2 / 2} erfc(x / sqrt(2)) is the scaled
    Gaussian Mills ratio.  Integration by parts against
    d/ds e^{-x s - s^2/2} = -(x + s) e^{-x s - s^2/2} gives I_1 = 1 - x I_0
    and I_{k+1} = k I_{k-1} - x I_k, so the ratios rho_k = I_k / I_{k-1}
    obey rho_k = k / (x + rho_{k+1}): the continued fraction
    R(x) = 1 / (x + 1 / (x + 2 / (x + 3 / ...))).  Below MILLS_SWITCH the
    recurrence runs forward from erfc; above, the fraction runs backward
    and each moment is a product of ratios, with no subtraction at all.
    """
    if x < MILLS_SWITCH:
        i0 = _SQRT_HALF_PI * math.exp(0.5 * x * x) * math.erfc(x * _SQRT_HALF)
        i1 = 1.0 - x * i0
        i2 = i0 - x * i1
        return i0, i1, i2, 2.0 * i1 - x * i2
    r1, r2, r3 = _mills_ratios(x)
    i0 = 1.0 / (x + r1)
    i1 = i0 * r1
    i2 = i1 * r2
    return i0, i1, i2, i2 * r3


def _mills_ratios(x: float) -> tuple[float, float, float]:
    """rho_k = I_k / I_{k-1}, k = 1..3, from the continued fraction run
    backward over 16 + 512 / x^2 terms; full precision from MILLS_SWITCH."""
    r1 = r2 = r3 = 0.0
    for k in range(16 + int(512.0 / (x * x)), 0, -1):
        r1, r2, r3 = k / (x + r1), r1, r2
    return r1, r2, r3


def _ell_closed(c: float) -> float:
    """ell(c) = c^2 / (1 + c^2) - c^2 (1 - c R(c)), where 1 - c R(c) = I_1(c).

    Past SEARCH_HI, ell ~ 2 / c^2 is the difference of two terms near 1,
    and the subtraction would lose about c^2 / 2 ulps of it.  There the
    same value is the product c^2 / (1 + c^2) * c I_0 * rho_1 rho_2, from
    I_1 = I_0 rho_1 and 1 - c rho_1 = rho_1 rho_2, which stays within a few
    ulps relative up to the largest c with a finite square.  Below, where
    both argmaxes scan, the subtraction is within 1e-15 absolute.
    """
    cc = c * c
    if c > SEARCH_HI:
        r1, r2, _ = _mills_ratios(c)
        return cc / (1.0 + cc) * (c / (c + r1)) * r1 * r2
    return cc / (1.0 + cc) - cc * _mills_moments(c)[1]


def _ell_slope(c: float) -> float:
    """d ell / dc = 2c / (1 + c^2)^2 - c I_3(c), since dI_k/dc = -I_{k+1}
    and 2 I_1 - c I_2 = I_3."""
    return 2.0 * c / (1.0 + c * c) ** 2 - c * _mills_moments(c)[3]


def _ell_shoes_closed(a: float, b: float) -> float:
    """ell(a, b) = a b / (1 + a b) - [a S(a) + b S(b) - (a + b) S(a + b)]
    with S(x) = integral of e^{-x t - t^2} = R(x / sqrt 2) / sqrt 2.

    Since x S(x) = 1 - I_1(x / sqrt 2), this is
    I_1(a') + I_1(b') - I_1(a' + b') - 1 / (1 + a b) with x' = x / sqrt 2.
    """
    return (_mills_moments(a * _SQRT_HALF)[1] + _mills_moments(b * _SQRT_HALF)[1]
            - _mills_moments((a + b) * _SQRT_HALF)[1] - 1.0 / (1.0 + a * b))


def ell_value(c: float) -> float:
    """ell(c) from its closed form, after the check ell makes of c.  It is
    within 1e-15 absolute of a 60-digit evaluation over c in [1e-8, 1e8]
    and within a few ulps relative past SEARCH_HI (checked to c = 1e154)."""
    _check_c(c)
    return _ell_closed(c)


def ell_shoes_value(a: float, b: float) -> float:
    """ell(a, b) from its closed form, after the check ell_shoes makes of
    a and b.  It is within 1e-15 absolute of a 60-digit evaluation over
    (a, b) in [1e-6, 1e6]^2, the range that was checked."""
    _check_ab(a, b)
    return _ell_shoes_closed(a, b)


def _ell_shoes_diag_slope(a: float) -> float:
    """d ell(a, a) / da = 2a / (1 + a^2)^2
    - sqrt 2 [I_2(a / sqrt 2) - I_2(a sqrt 2)]."""
    return (2.0 * a / (1.0 + a * a) ** 2
            - _SQRT_TWO * (_mills_moments(a * _SQRT_HALF)[2]
                           - _mills_moments(a * _SQRT_TWO)[2]))


def ell_argmax() -> OptResult:
    """Location and value of the maximum of ell: the root of its
    closed-form slope."""
    return OptResult(*maximize_scalar(
        _ell_closed, lambda xs: [_ell_closed(c) for c in xs.tolist()],
        _ell_slope, 0.0, SEARCH_HI, ARGMAX_GRID))


def ell_shoes_diag_argmax() -> OptResult:
    """Maximum of the alternating-pairs surface along its diagonal a = b:
    the root of its closed-form slope."""
    return OptResult(*maximize_scalar(
        lambda a: _ell_shoes_closed(a, a),
        lambda xs: [_ell_shoes_closed(a, a) for a in xs.tolist()],
        _ell_shoes_diag_slope, 0.0, SEARCH_HI, ARGMAX_GRID))


@dataclass(frozen=True)
class ConvergenceRow:
    """Family discrepancy at head mass c / sqrt(n) and its gap to ell(c)."""

    n: int
    value: float
    gap: float


def convergence_check(c: float, n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Finite-size family values against the limit ell(c), taken from its
    closed form, one row per size.

    The family point exists only when n exceeds both 1 / c^2 (head above
    the uniform floor) and c^2 (head mass below one); sizes outside that
    range are domain errors, not silently skipped rows.
    """
    limit = ell_value(c)
    rows = []
    for n in n_list:
        size = int(n)
        if size * c * c <= 1.0 or size <= c * c:
            raise DomainError(f"size {size} leaves the family domain for c = {c!r}")
        value = family_discrepancy(FamilyPoint(size, c / math.sqrt(size)))
        rows.append(ConvergenceRow(size, value, abs(value - limit)))
    return rows
