"""Reference values computed apart from pairlaw.

Nothing here imports pairlaw.  Each reference takes a different route from
the program's own code:

- the one-at-a-time law sums p_i^2 (k+1)! e_k(p without i) with the
  leave-one-out tables built by folding in every other color; every term
  is positive, so no downdate and no cancellation
- the alternating (shoes) law is a backward absorbing-chain solve over
  (left seen, right seen, turn) for absorption probabilities, where the
  program pushes occupation flows forward
- the limit curves are mpmath.quad integrals at 30 digits, and their maxima
  are roots of the differentiated integrals
- the family discrepancy and its maxima are evaluated in mpmath at 30
  digits, with the paper's nine-row table for n <= 9
"""

from __future__ import annotations

import functools
import math

import mpmath as mp
import numpy as np

DIGITS = 30

#: The paper's nine-row table: family maximizer x_n and maximal
#: discrepancy D_n for n = 1 .. 9 tail colors.
FAMILY_TABLE_X = (0.6966599465951643196, 0.5820110139097399105,
                  0.5160030571683498864, 0.4710812367633940106,
                  0.4376598564845561514, 0.4113811479448445739,
                  0.3899258770101118464, 0.3719239304877958135,
                  0.3565033913388721410)
FAMILY_TABLE_D = (0.06084679923181354776, 0.08429419234614604446,
                  0.09766297359542326758, 0.10661363736945495196,
                  0.11316011048732238932, 0.11822473613430355437,
                  0.12229838762442936532, 0.12566994796517442344,
                  0.12852218802677888163)


def m1_law(p) -> list[float]:
    """p_i^2 / sum_j p_j^2."""
    f2 = math.fsum(v * v for v in p)
    return [v * v / f2 for v in p]


def m2_law(p) -> list[float]:
    """P(Y = i) = p_i^2 sum_k (k+1) A_k(i), A_k(i) = k! e_k(p without i).

    Row i of the table A is built by folding in every color but i, one at
    a time, with the simultaneous update A_k += k p_j A_{k-1}; all terms
    are nonnegative, so every entry keeps its relative accuracy.
    """
    p = np.asarray(p, dtype=float)
    m = p.size
    table = np.zeros((m, m))
    table[:, 0] = 1.0
    k = np.arange(1, m, dtype=float)
    for j in range(m):
        step = (k * p[j]) * table[:, :-1]
        step[j] = 0.0
        table[:, 1:] += step
    weights = table @ np.arange(1.0, m + 1.0)
    return (p * p * weights).tolist()


def tvd(a, b) -> float:
    return 0.5 * math.fsum(abs(x - y) for x, y in zip(a, b))


def shoes_m1_law(p, q) -> list[float]:
    f2 = math.fsum(x * y for x, y in zip(p, q))
    return [x * y / f2 for x, y in zip(p, q)]


def shoes_m2_law(p, q) -> list[float]:
    """Absorption law of the alternating walk, by backward recursion.

    h(L, R, side) is the vector of probabilities of completing each color's
    pair from state (left seen L, right seen R, side to draw).  A draw that
    repeats a color on its own side only passes the turn, so the two sides
    of one (L, R) satisfy h_l = x_l + alpha h_r and h_r = x_r + beta h_l,
    with alpha = p(L), beta = q(R), and x_l, x_r the absorbing and
    set-growing moves; the 2x2 system is solved directly.
    """
    m = len(p)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    full = (1 << m) - 1
    memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    def members(mask: int) -> list[int]:
        return [c for c in range(m) if mask >> c & 1]

    def solve(left: int, right: int) -> tuple[np.ndarray, np.ndarray]:
        key = (left, right)
        if key in memo:
            return memo[key]
        x_l = np.zeros(m)
        x_r = np.zeros(m)
        for c in members(right):
            x_l[c] += p[c]
        for c in members(left):
            x_r[c] += q[c]
        for c in members(full & ~(left | right)):
            if p[c] > 0.0:
                x_l += p[c] * solve(left | 1 << c, right)[1]
            if q[c] > 0.0:
                x_r += q[c] * solve(left, right | 1 << c)[0]
        alpha = math.fsum(p[c] for c in members(left))
        beta = math.fsum(q[c] for c in members(right))
        h_l = (x_l + alpha * x_r) / (1.0 - alpha * beta)
        h_r = x_r + beta * h_l
        memo[key] = (h_l, h_r)
        return memo[key]

    return solve(0, 0)[0].tolist()


def _quad(f, scales) -> mp.mpf:
    points = sorted({mp.mpf(0)} | {mp.mpf(s) for s in scales}) + [mp.inf]
    return mp.quad(f, points)


def ell(c: float) -> mp.mpf:
    """c^2/(1+c^2) - integral of c^2 t exp(-c t - t^2/2) over t > 0."""
    with mp.workdps(DIGITS):
        c = mp.mpf(c)
        integral = _quad(lambda t: c * c * t * mp.exp(-c * t - t * t / 2),
                         (1 / c, 4 / c, 1, 4, 12))
        return c * c / (1 + c * c) - integral


def ell_shoes(a: float, b: float) -> mp.mpf:
    """ab/(1+ab) - integral of (a e^{-at} + b e^{-bt} - (a+b) e^{-(a+b)t})
    e^{-t^2} over t > 0."""
    with mp.workdps(DIGITS):
        a, b = mp.mpf(a), mp.mpf(b)

        def f(t):
            return (a * mp.exp(-a * t) + b * mp.exp(-b * t)
                    - (a + b) * mp.exp(-(a + b) * t)) * mp.exp(-t * t)

        integral = _quad(f, (1 / (a + b), 1 / a, 1 / b, 4 / min(a, b), 1, 4))
        return a * b / (1 + a * b) - integral


@functools.cache
def ell_argmax() -> tuple[float, float]:
    """Root of d ell / dc, found by bracketing on [1, 2], and ell there."""
    with mp.workdps(DIGITS):
        def slope(c):
            inner = _quad(lambda t: (2 * c * t - c * c * t * t)
                          * mp.exp(-c * t - t * t / 2), (1 / c, 1, 4, 12))
            return 2 * c / (1 + c * c) ** 2 - inner

        c = mp.findroot(slope, (mp.mpf(1), mp.mpf(2)), solver="anderson")
        return float(c), float(ell(c))


@functools.cache
def ell_shoes_diag_argmax() -> tuple[float, float]:
    """Root of d ell(a, a) / da on [1, 2], and the surface there."""
    with mp.workdps(DIGITS):
        def slope(a):
            def f(t):
                return (2 * mp.exp(-a * t) - 2 * a * t * mp.exp(-a * t)
                        - 2 * mp.exp(-2 * a * t)
                        + 4 * a * t * mp.exp(-2 * a * t)) * mp.exp(-t * t)
            return 2 * a / (1 + a * a) ** 2 - _quad(f, (1 / a, 1, 4))

        a = mp.findroot(slope, (mp.mpf(1), mp.mpf(2)), solver="anderson")
        return float(a), float(ell_shoes(a, a))


def _family_series(n: int, q: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """S = sum_k (k+1)! C(n,k) q^k and its derivative in q.

    Terms are positive and, past their peak, fall faster than
    geometrically, so the sum stops once a term is below 1e-40 of it.
    """
    total = mp.mpf(1)
    slope = mp.mpf(0)
    term = mp.mpf(1)
    for k in range(n):
        term *= mp.mpf((k + 2) * (n - k)) / (k + 1) * q
        total += term
        slope += (k + 1) * term / q
        if term < total * mp.mpf(10) ** -40 and (k + 3) * (n - k - 1) * q < k + 2:
            break
    return total, slope


def family_d(n: int, x: float) -> mp.mpf:
    """Family discrepancy x^2/f2 - x^2 S((1-x)/n), at 30 digits."""
    with mp.workdps(DIGITS):
        x = mp.mpf(x)
        f2 = x * x + (1 - x) ** 2 / n
        s, _ = _family_series(n, (1 - x) / n)
        return x * x / f2 - x * x * s


def family_max(n: int) -> tuple[float, float]:
    """Maximizer and maximum of the family curve for n tail colors.

    A 200-point scan brackets the peak; the root of the analytic derivative
    inside the bracket is then found at 30 digits.
    """
    with mp.workdps(DIGITS):
        lo = mp.mpf(1) / (n + 1)
        xs = [lo + (1 - lo) * (i + mp.mpf(0.5)) / 200 for i in range(200)]
        best = max(range(200), key=lambda i: family_d(n, xs[i]))

        def slope(x):
            f2 = x * x + (1 - x) ** 2 / n
            df2 = 2 * x - 2 * (1 - x) / n
            s, ds = _family_series(n, (1 - x) / n)
            return ((2 * x * f2 - x * x * df2) / f2 ** 2 - 2 * x * s
                    + x * x * ds / n)

        bracket = (xs[max(best - 1, 0)], xs[min(best + 1, 199)])
        x = mp.findroot(slope, bracket, solver="anderson")
        return float(x), float(family_d(n, x))
