"""The one-heavy-color family, its discrepancy in closed form, and the
finite-size extremizers.

The family fixes one color of mass x and n colors sharing the remaining
mass equally.  Along it the discrepancy has a closed form that needs no
law derivation at all, which makes the family cheap enough to optimize,
tabulate, and compare against random search over the whole simplex.
Scans (the maximizer's grid, the family curves) go through one array
kernel, `_family_rows`, which matches the scalar closed form bit for bit;
the maximizer then bisects the closed-form slope, `_family_slope`, to
adjacent floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._optim import maximize_scalar
from ._parallel import _blocks, map_ordered
from .dist_core import Distribution, RngSeed, _sorted_simplex_rows
from .errors import DomainError, NoSignChange
from .pair_laws import _discrepancy_rows, _nodes_per_row, tvd

#: Grid of the family maximizer's bracketing scan.
ARGMAX_GRID = 2048

#: Largest tail count of the family maximizer.  Its scan and bisection sum
#: series of O(sqrt(n)) terms a point: n = 10^9 takes about 9 s on 2 cores
#: (numpy 2.4), n = 10^16 ran past 20 s, and at n = 10^20 the scan met a
#: false competing mode.
FAMILY_MAX_N = 10 ** 9

#: family_discrepancy refuses n from here on: below it, n and the term
#: index are exact as floats, which the block sum's bit-for-bit match with
#: the one-term loop rests on.  Just below the cap a point sums up to about
#: 10^9 terms: 17 s just above the uniform end, 14 s at x = 1.514 / sqrt(n)
#: (one thread of a 2-core box, numpy 2.4, 30 MB peak).
SERIES_MAX_N = 2 ** 53

#: First and largest block of ratios the family series sums at once.  The
#: cap keeps a block's arrays near 128 KB each; 2^16-wide blocks ran the
#: 7 * 10^6-term series at n = 10^12 slower, not faster.
SERIES_FIRST_BLOCK = 512
SERIES_BLOCK = 2 ** 14

#: Most cells (points x colors x Gauss nodes a point) of one search, the
#: work of its _discrepancy_rows passes; _blocks bounds a search's memory,
#: this its time.  On one thread of a 2-core box (numpy 2.4) a cell costs
#: 5 ns at 256 colors, 29 ns at 10^5, 21 ns at 8 and about 40 ns at 2 and
#: 3, where the per-point draw dominates (88 and 70 ns when blocks of
#: under 8 colors ran row by row), so a search at the cap runs at most
#: about 40 s.
SEARCH_MAX_CELLS = 10 ** 9

#: Curves are sampled up to, not at, the degenerate x = 1 edge.
CURVE_EDGE = 1e-9

#: Most points of one family-curve request.  The points are scored as
#: arrays at once: 7751 curves of 129 samples peak near 380 MB (numpy 2.4).
CURVE_MAX_POINTS = 10 ** 6


@dataclass(frozen=True)
class FamilyPoint:
    """Index (n, x) of the family: one color of mass x, n colors of mass
    (1 - x) / n each.  x ranges over [1/(n+1), 1); the left endpoint is the
    uniform distribution on n + 1 colors."""

    n: int
    x: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("family needs at least one tail color")
        try:
            lo = 1.0 / (self.n + 1)
        except OverflowError:
            raise DomainError("family size past the float range") from None
        if not lo <= self.x < 1.0:
            raise DomainError(f"head mass {self.x!r} outside [{lo!r}, 1)")

    def realize(self) -> Distribution:
        tail = (1.0 - self.x) / self.n
        return Distribution((self.x,) + (tail,) * self.n)


@dataclass(frozen=True)
class OptResult:
    """Outcome of a one-dimensional maximization."""

    argmax: float
    value: float
    bracket: tuple[float, float]
    evaluations: int


@dataclass(frozen=True)
class PolySpec:
    """A polynomial (coefficients by ascending power) plus a root bracket."""

    coefficients: tuple[float, ...]
    bracket: tuple[float, float]


#: Stationarity numerator of the two-color discrepancy; its root in
#: (0.6, 0.8) is the interior maximizer (the remaining real roots are 0,
#: 1/2, and 1, none of them maxima).
TWO_COLOR_STATIONARY = PolySpec(
    (0.0, -1.0, 7.0, -18.0, 24.0, -18.0, 6.0), (0.6, 0.8))

#: The three-color (n = 2) maximizer head mass is the unique root of this
#: quintic in (0.5, 0.6).
THREE_COLOR_ARGMAX = PolySpec(
    (-5.0, 42.0, -114.0, 168.0, -153.0, 54.0), (0.5, 0.6))

#: z = twice the three-color maximal discrepancy is the unique root of
#: this quintic in (0, 0.2).
THREE_COLOR_DOUBLED_MAX = PolySpec(
    (32000.0, 168192.0, -4557600.0, 14567472.0, -821583.0, 314928.0),
    (0.0, 0.2))


def family_discrepancy(fp: FamilyPoint) -> float:
    """Discrepancy along the family, in closed form, for n below
    SERIES_MAX_N.

    D = x^2 / (x^2 + (1-x)^2 / n) - x^2 * sum_{k=0}^{n} (k+1)! C(n,k) q^k
    with q = (1-x)/n: the first term is the head's conditioned-pair weight,
    the sum is its one-at-a-time weight divided by x^2, and the head color
    is the only color whose two weights can disagree in sign, so its gap
    is the whole total variation.

    The sum is accumulated through the term ratio r_k = t_{k+1}/t_k =
    (k+2)(n-k) q / (k+1), so no factorial or binomial is ever formed.
    Terms rise to a single peak and then decay with a strictly decreasing
    ratio, so once past the peak the remainder is below t * r / (1 - r)
    and the series stops at the first term where that bound cannot move
    the total.  It runs in blocks of ratios whose width doubles up to
    SERIES_BLOCK: np.multiply.accumulate and np.add.accumulate fold left to
    right from the running t and s, so every term and partial sum is
    rounded exactly as in the loop `t *= r; s += t`, and the block's first
    entry that meets the stop test ends the series there.  k and n are
    floats, exact below 2^53, where (k+2)(n-k) rounds once as the integer
    product would.
    """
    n, x = fp.n, fp.x
    if n >= SERIES_MAX_N:
        raise DomainError(f"n = {n} is past the family series' 2^53 cap")
    if x == 1.0 / (n + 1):
        return 0.0
    q = (1.0 - x) / n
    f2 = x * x + (1.0 - x) * (1.0 - x) / n
    t = 1.0
    s = 1.0
    k = 0
    width = SERIES_FIRST_BLOCK
    while k < n:
        ks = np.arange(k, min(k + width, n), dtype=float)
        r = (ks + 2.0) * (n - ks) * q / (ks + 1.0)
        ts = np.multiply.accumulate(np.concatenate(([t], r)))[1:]
        ss = np.add.accumulate(np.concatenate(([s], ts)))[1:]
        stop = (r < 1.0) & (ts * r < 1e-16 * ss * (1.0 - r))
        if stop.any():
            s = float(ss[stop.argmax()])
            break
        t, s = float(ts[-1]), float(ss[-1])
        k += ks.size
        width = min(2 * width, SERIES_BLOCK)
    return x * x / f2 - x * x * s


def _family_rows(n, x) -> np.ndarray:
    """family_discrepancy over 1-D arrays of (n, x), bit for bit; n may
    be one tail count for all x.

    Every entry runs family_discrepancy's term ratio, accumulation order
    and stop test, one term a step, and leaves the live set at its own
    stop or after its last term; the live arrays are compacted whenever an
    entry leaves, so a batch takes as many steps as its longest series.
    Entries at the uniform end x = 1/(n+1) are 0 without a step: their
    series would run to all n terms.  n is carried as a float, exact below
    2^53, where the term ratio's integer product rounds once, as an exact
    integer product would, but cannot wrap as an int64 product would.
    """
    n, x = np.broadcast_arrays(np.asarray(n, dtype=float),
                               np.asarray(x, dtype=float))
    if (n < 1).any():
        raise DomainError("family needs at least one tail color")
    floor = 1.0 / (n + 1.0)
    outside = np.flatnonzero(~((floor <= x) & (x < 1.0)))
    if outside.size:
        i = outside[0]
        raise DomainError(f"head mass {float(x[i])!r} outside "
                          f"[{float(floor[i])!r}, 1)")
    uniform = x == floor
    sums = np.ones_like(x)
    live = np.flatnonzero(~uniform)
    nl, q = n[live], (1.0 - x[live]) / n[live]
    t, s = np.ones(live.size), np.ones(live.size)
    k = 0
    while live.size:
        r = (k + 2) * (nl - k) * q / (k + 1)
        t *= r
        s += t
        stop = (((r < 1.0) & (t * r < 1e-16 * s * (1.0 - r)))
                | (nl == k + 1))
        if stop.any():
            sums[live[stop]] = s[stop]
            keep = ~stop
            live, nl, q, t, s = live[keep], nl[keep], q[keep], t[keep], s[keep]
        k += 1
    f2 = x * x + (1.0 - x) * (1.0 - x) / n
    d = x * x / f2 - x * x * sums
    d[uniform] = 0.0
    return d


def _family_slope(n: int, x: float) -> float:
    """d family_discrepancy / dx: with S = sum t_k and W = sum k t_k over
    family_discrepancy's terms t_k, 2x(1-x) / (n f2^2) - 2x S + x^2 W / (1-x).

    One loop sums u_j = j t_j = a_{j-1} t_{j-1}, a_j = (j+2)(n-j) q.  The
    ratio u_{j+1} / u_j = a_j / j strictly decreases, so once below one it
    bounds W's remainder by u_j a_j / (j - a_j); the loop stops when that
    cannot move W, and S's remainder, below 1e-16 W / (j+1), cannot move S.
    """
    q = (1.0 - x) / n
    f2 = x * x + (1.0 - x) * (1.0 - x) / n
    t = 1.0
    s = 1.0
    w = 0.0
    a = 2.0 * n * q
    for j in range(1, n + 1):
        u = t * a
        t = u / j
        s += t
        w += u
        a = (j + 2) * (n - j) * q
        if u * a < 1e-16 * w * (j - a):
            break
    return (2.0 * x * (1.0 - x) / (n * f2 * f2) - 2.0 * x * s
            + x * x * w / (1.0 - x))


def family_argmax(n: int) -> OptResult:
    """Maximizer of the family discrepancy in x for fixed tail count n, up
    to FAMILY_MAX_N: the array kernel scans, the exact slope is bisected to
    adjacent floats."""
    if n < 1:
        raise DomainError("family needs at least one tail color")
    if n > FAMILY_MAX_N:
        raise DomainError(f"n = {n} is past the family maximizer's "
                          f"{FAMILY_MAX_N} cap")
    return OptResult(*maximize_scalar(
        lambda x: family_discrepancy(FamilyPoint(n, x)),
        lambda xs: _family_rows(n, xs), lambda x: _family_slope(n, x),
        1.0 / (n + 1), 1.0, ARGMAX_GRID))


def _horner(coefficients: tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


def solve_poly(ps: PolySpec) -> float:
    """The root of ps inside its bracket, to the last bit.

    Bisection on the sign change until the bracket cannot be halved: about
    sixty Horner evaluations, unconditionally robust, with no derivative.
    Requires a strict sign change across the bracket.
    """
    lo, hi = ps.bracket
    flo = _horner(ps.coefficients, lo)
    if not flo * _horner(ps.coefficients, hi) < 0.0:
        raise NoSignChange(f"no sign change on [{lo!r}, {hi!r}]")
    while True:
        mid = 0.5 * (lo + hi)
        fm = _horner(ps.coefficients, mid)
        if fm == 0.0 or mid in (lo, hi):
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid


def exact_two_color_extreme() -> tuple[float, float]:
    """Closed forms of the two-color maximizer and its discrepancy value."""
    x = (3.0 + math.sqrt(3.0 * (2.0 * math.sqrt(3.0) - 3.0))) / 6.0
    d = 1.0 / math.sqrt(135.0 + 78.0 * math.sqrt(3.0))
    return x, d


def simplex_search(m: int, points: int, seed: RngSeed, *,
                   threads: int | None = None,
                   ) -> tuple[Distribution, float, float]:
    """Best discrepancy over uniform random points of the sorted simplex.

    Points are drawn and scored in fixed-size chunks, one derived seed
    stream per chunk, and the per-chunk winners are reduced in chunk order
    with a (value, entries) lexicographic tie-break; the outcome is a pure
    function of (m, points, seed).  Returns the best point, its
    discrepancy, and its total variation distance to the family point
    with the same head mass.
    """
    if m < 2:
        raise DomainError("search needs at least two colors")
    if points < 1:
        raise DomainError("points must be at least 1")
    cells = points * m * _nodes_per_row(m)
    if cells > SEARCH_MAX_CELLS:
        raise DomainError(f"{points} points of {m} colors make {cells} "
                          f"cells, past the {SEARCH_MAX_CELLS}-cell cap")

    def score(block: int, count: int) -> tuple[float, tuple[float, ...]]:
        rows = _sorted_simplex_rows(m, count, seed.stream(block).generator())
        values = _discrepancy_rows(rows)
        j = int(np.argmax(values))
        return float(values[j]), tuple(rows[j].tolist())

    # a block scores float64 rows of m entries each
    value, probs = max(map_ordered(score, _blocks(points, 8 * m), threads))
    best = Distribution(probs)
    family_gap = tvd(best, FamilyPoint(m - 1, probs[0]).realize())
    return best, value, family_gap


@dataclass(frozen=True)
class FamilyCurveRow:
    """One sample of one rescaled family curve."""

    n: int
    u: float
    value: float


def figure_family_curves(n_max: int, samples_per_curve: int) -> list[FamilyCurveRow]:
    """Family discrepancy curves rescaled to a common unit domain.

    u = ((n+1) x - 1) / n maps [1/(n+1), 1) onto [0, 1), so curves of
    different n share an axis; the u = 1 edge is evaluated just inside.
    """
    if n_max < 1:
        raise DomainError("need at least one curve")
    if samples_per_curve < 2:
        raise DomainError("need at least two samples per curve")
    if n_max * samples_per_curve > CURVE_MAX_POINTS:
        raise DomainError(f"{n_max} curves of {samples_per_curve} samples "
                          f"pass the {CURVE_MAX_POINTS}-point cap")
    n = np.repeat(np.arange(1, n_max + 1), samples_per_curve)
    u = np.tile(np.arange(samples_per_curve) / (samples_per_curve - 1), n_max)
    x = np.minimum((u * n + 1.0) / (n + 1.0), 1.0 - CURVE_EDGE)
    values = _family_rows(n, x)
    return [FamilyCurveRow(*row) for row in
            zip(n.tolist(), u.tolist(), values.tolist())]
