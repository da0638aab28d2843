"""Head-plus-uniform-tails family: closed form, maximizers, search."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from pairlaw import (THREE_COLOR_ARGMAX, THREE_COLOR_DOUBLED_MAX,
                     TWO_COLOR_STATIONARY, DomainError, FamilyPoint,
                     NoSignChange, PolySpec, RngSeed, convergence_check,
                     discrepancy, exact_two_color_extreme, family_argmax,
                     family_discrepancy, figure_family_curves, simplex_search,
                     solve_poly)
from pairlaw import family_opt
from pairlaw.dist_core import (COLUMN_MAX_COLORS, SORT_NETWORKS, _sort_colors,
                               _sorted_simplex_rows)
from pairlaw.family_opt import (ARGMAX_GRID, CURVE_EDGE, SEARCH_MAX_CELLS,
                                FamilyCurveRow, OptResult, _family_rows,
                                _family_slope)
from pairlaw.limit_laws import ell_value
from pairlaw.pair_laws import _discrepancy_rows, _m2_rows, _nodes_per_row

# interior maximizers x_n and peak values D(x_n) for n = 1..9, to 20 digits
X_N = (0.6966599465951643196, 0.5820110139097399105, 0.5160030571683498864,
       0.4710812367633940106, 0.4376598564845561514, 0.4113811479448445739,
       0.3899258770101118464, 0.3719239304877958135, 0.3565033913388721410)
D_N = (0.06084679923181354776, 0.08429419234614604446, 0.09766297359542326758,
       0.10661363736945495196, 0.11316011048732238932, 0.11822473613430355437,
       0.12229838762442936532, 0.12566994796517442344, 0.12852218802677888163)

# family_argmax(n) for n = 1..9: the array scan must bracket the same grid
# cell, and the slope bisection land on the same float, bit for bit
ARGMAX_PINNED = (
    OptResult(0.6966599465951644, 0.060846799231813464,
              (0.6966599465951643, 0.6966599465951644), 2093),
    OptResult(0.58201101390974, 0.0842941923461461,
              (0.5820110139097399, 0.58201101390974), 2093),
    OptResult(0.5160030571683499, 0.09766297359542331,
              (0.5160030571683498, 0.5160030571683499), 2094),
    OptResult(0.47108123676339403, 0.10661363736945495,
              (0.471081236763394, 0.47108123676339403), 2094),
    OptResult(0.43765985648455613, 0.11316011048732233,
              (0.4376598564845561, 0.43765985648455613), 2094),
    OptResult(0.41138114794484465, 0.1182247361343034,
              (0.4113811479448446, 0.41138114794484465), 2095),
    OptResult(0.3899258770101119, 0.12229838762442946,
              (0.38992587701011183, 0.3899258770101119), 2095),
    OptResult(0.3719239304877956, 0.12566994796517417,
              (0.37192393048779554, 0.3719239304877956), 2095),
    OptResult(0.35650339133887227, 0.12852218802677873,
              (0.3565033913388722, 0.35650339133887227), 2095),
)


def _scan_points(n):
    # the argmax grid midpoints, the uniform end, and just short of x = 1
    lo = 1.0 / (n + 1)
    xs = lo + (1.0 - lo) * (np.arange(ARGMAX_GRID) + 0.5) / ARGMAX_GRID
    return [lo] + xs.tolist() + [1.0 - 1e-9]


def _scalar(ns, xs):
    return np.array([family_discrepancy(FamilyPoint(n, x))
                     for n, x in zip(ns, xs)])


def test_family_point_domain():
    FamilyPoint(3, 0.25)  # 1/(n+1) itself is allowed
    with pytest.raises(DomainError):
        FamilyPoint(3, 0.2499)
    with pytest.raises(DomainError):
        FamilyPoint(3, 1.0)
    with pytest.raises(DomainError):
        FamilyPoint(0, 0.5)
    # an n + 1 past the float range once raised OverflowError
    FamilyPoint(10 ** 300, 0.5)
    with pytest.raises(DomainError):
        FamilyPoint(10 ** 400, 0.5)


def test_realize():
    d = FamilyPoint(2, 0.5).realize()
    assert d.probs == (0.5, 0.25, 0.25)
    d = FamilyPoint(1, 0.75).realize()
    assert d.probs == (0.75, 0.25)


def test_uniform_point_is_exactly_zero():
    for n in (1, 2, 5, 100):
        assert family_discrepancy(FamilyPoint(n, 1.0 / (n + 1))) == 0.0


def test_closed_form_matches_general_derivation():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 4, 7, 10, 37, 200):
        for _ in range(8):
            x = float(rng.uniform(1.0 / (n + 1), 0.999))
            fp = FamilyPoint(n, x)
            assert abs(family_discrepancy(fp) - discrepancy(fp.realize())) < 1e-13


def _scalar_family_series(n, x):
    # family_discrepancy as a loop of one term a step, frozen here as the
    # block sum's bit-for-bit reference
    if x == 1.0 / (n + 1):
        return 0.0
    q = (1.0 - x) / n
    f2 = x * x + (1.0 - x) * (1.0 - x) / n
    t = 1.0
    s = 1.0
    for k in range(n):
        r = (k + 2) * (n - k) * q / (k + 1)
        t *= r
        s += t
        if r < 1.0 and t * r < 1e-16 * s * (1.0 - r):
            break
    return x * x / f2 - x * x * s


def test_series_blocks_match_the_scalar_loop_bit_for_bit():
    cases = []
    for n in list(range(1, 41)) + [10 ** 3, 10 ** 6, 10 ** 9]:
        lo = 1.0 / (n + 1)
        # the uniform end, just above it (the longest series), the
        # c / sqrt(n) scale, the interior and just below 1
        xs = [lo, lo * (1.0 + 1e-9), 1.514 / math.sqrt(n), 0.01, 0.3, 0.5,
              0.9, 1.0 - 1e-9, math.nextafter(1.0, 0.0)]
        cases += [(n, x) for x in xs if lo <= x < 1.0]
    # 10^12: the c / sqrt(n) point sums about 7 * 10^6 terms, through many
    # full-width blocks
    n = 10 ** 12
    cases += [(n, 1.0 / (n + 1)), (n, 1.514e-6), (n, 1e-4), (n, 0.01),
              (n, 0.5), (n, math.nextafter(1.0, 0.0))]
    for n, x in cases:
        got = family_discrepancy(FamilyPoint(n, x))
        assert got.hex() == _scalar_family_series(n, x).hex(), (n, x)


def test_convergence_rows_match_the_scalar_loop_bit_for_bit():
    sizes = [10, 10 ** 2, 10 ** 4, 10 ** 6, 10 ** 9]
    for c in (0.5, 1.514, 2.9):
        limit = ell_value(c)
        for row, n in zip(convergence_check(c, sizes), sizes):
            want = _scalar_family_series(n, c / math.sqrt(n))
            assert (row.n, row.value.hex(), row.gap.hex()) == (
                n, want.hex(), abs(want - limit).hex()), (c, n)


def test_series_refuses_n_from_2_to_the_53():
    # at once, before the first term: 2^53 - 1 would sum ~10^9 of them
    for n in (2 ** 53, 10 ** 18):
        with pytest.raises(DomainError):
            family_discrepancy(FamilyPoint(n, 0.5))
        with pytest.raises(DomainError):
            convergence_check(1.514, [n])
    # one below, a short series is still served, and bit for bit
    n = 2 ** 53 - 1
    for x in (0.5, 0.01):
        got = family_discrepancy(FamilyPoint(n, x))
        assert got.hex() == _scalar_family_series(n, x).hex()


def test_closed_form_near_the_degenerate_edge():
    v = family_discrepancy(FamilyPoint(5, 1.0 - 1e-12))
    assert 0.0 <= v < 1e-10


def test_closed_form_huge_tail_count():
    # the series must stop well short of n terms
    v = family_discrepancy(FamilyPoint(10 ** 6, 1.514e-3))
    assert 0.18 < v < 0.19


#: n: (D at x = 1.514 / sqrt(n), bound on the series' error there).  D is
#: a 50-digit quadrature of the series' Poisson integral:
#:     mp.mp.dps = 50
#:     x = mp.mpf(1.514 / math.sqrt(n)); q = (1 - x) / n; s = mp.sqrt(n)
#:     S = mp.quad(lambda t: t * mp.exp(n * mp.log1p(q * t) - t),
#:                 [0, s, 4 * s, 16 * s, 64 * s, mp.inf])
#:     D = x**2 / (x**2 + (1 - x)**2 / n) - x**2 * S
#: The series read 4.5e-15, 5.0e-14, -4.4e-13, 2.2e-12 and 1.8e-11 off:
#: its error grows about as n^0.45, and each bound is 2 to 3 times it.
SERIES_REFERENCE = {
    10 ** 4: (0.18132662929517250047, 1e-14),
    10 ** 6: (0.18301490874181462193, 1.5e-13),
    10 ** 9: (0.18319421476505249344, 1e-12),
    10 ** 10: (0.18319821327211173839, 5e-12),
    10 ** 12: (0.18319987749490182707, 5e-11),
}


def test_series_against_its_poisson_integral_past_a_million_colors():
    for n, (want, bound) in SERIES_REFERENCE.items():
        got = family_discrepancy(FamilyPoint(n, 1.514 / math.sqrt(n)))
        assert abs(got - want) < bound, n


def test_argmax_against_reference_table():
    for n in range(1, 10):
        r = family_argmax(n)
        assert abs(r.argmax - X_N[n - 1]) < 1e-15
        assert abs(r.value - D_N[n - 1]) < 1e-13
        assert r.bracket[0] <= r.argmax <= r.bracket[1]
        assert r.evaluations > 0


def test_slope_against_an_mpmath_derivative():
    import mpmath  # a test extra: the package itself needs numpy alone
    mp = mpmath.mp.clone()
    mp.dps = 30

    def closed(n, x):
        # the closed form at 30 digits; the terms rise from 1 to one peak,
        # so a term below 1e-40 of the sum is past it, on a tail that
        # cannot reach the 30th digit
        q = (1 - x) / n
        t = s = mp.mpf(1)
        for k in range(n):
            t *= (k + 2) * (n - k) * q / (k + 1)
            s += t
            if t < s * mp.mpf(10) ** -40:
                break
        return x * x / (x * x + (1 - x) ** 2 / n) - x * x * s

    rng = np.random.default_rng(11)
    for i in range(16):
        n = int(10 ** rng.uniform(0, 6))
        lo = 1.0 / (n + 1)
        # half the points across the whole domain, half near the peak
        hi = 1.0 if i % 2 else min(1.0, lo + 4.0 / math.sqrt(n))
        x = float(rng.uniform(lo, hi))
        want = float(mp.diff(lambda v: closed(n, v), mp.mpf(x)))
        # near the peak the slope's terms are of size sqrt(n) and cancel
        assert abs(_family_slope(n, x) - want) < 2e-14 * math.sqrt(n), (n, x)


def test_argmax_rejects_no_tail():
    with pytest.raises(DomainError):
        family_argmax(0)


def test_stationarity_sextic_root():
    x = solve_poly(TWO_COLOR_STATIONARY)
    assert abs(x - X_N[0]) < 1e-12


def test_three_color_argmax_quintic_root():
    x = solve_poly(THREE_COLOR_ARGMAX)
    assert abs(x - X_N[1]) < 1e-12


def test_three_color_value_quintic_root():
    z = solve_poly(THREE_COLOR_DOUBLED_MAX)
    assert abs(0.5 * z - D_N[1]) < 1e-12


def test_solve_poly_simple_root_and_failure():
    assert abs(solve_poly(PolySpec((-1.0, 0.0, 1.0), (0.5, 2.0))) - 1.0) < 1e-12
    with pytest.raises(NoSignChange):
        solve_poly(PolySpec((1.0, 0.0, 1.0), (0.5, 2.0)))  # x^2 + 1


def test_exact_two_color_extreme():
    x, v = exact_two_color_extreme()
    assert abs(x - X_N[0]) < 1e-15
    assert abs(v - D_N[0]) < 1e-15
    # and the radical forms themselves
    assert abs(x - (3.0 + math.sqrt(3.0 * (2.0 * math.sqrt(3.0) - 3.0))) / 6.0) == 0.0
    assert abs(v - 1.0 / math.sqrt(135.0 + 78.0 * math.sqrt(3.0))) == 0.0


def test_search_two_colors_lands_on_the_family():
    best, value, gap = simplex_search(2, 20_000, RngSeed(0))
    # every sorted two-color point is a family point, up to the rounding
    # between a normalized sample and the 1 - x the family reconstructs
    assert gap < 1e-15
    assert value <= D_N[0] + 1e-12
    assert value > D_N[0] - 1e-6
    assert abs(best.probs[0] - X_N[0]) < 5e-3


def test_search_three_colors():
    best, value, gap = simplex_search(3, 100_000, RngSeed(1))
    assert value <= D_N[1] + 1e-4
    assert value > D_N[1] - 1e-3
    assert gap < 0.02  # best point sits near the n = 2 family ridge
    if value > D_N[1] + 1e-12:
        warnings.warn(f"random search beat the family maximum by {value - D_N[1]:.3e}; "
                      "worth a careful look")


def test_search_four_colors():
    _, value, gap = simplex_search(4, 100_000, RngSeed(2))
    assert value <= D_N[2] + 1e-4
    assert value > D_N[2] - 5e-3
    assert gap < 0.05
    if value > D_N[2] + 1e-12:
        warnings.warn(f"random search beat the family maximum by {value - D_N[2]:.3e}; "
                      "worth a careful look")


def test_search_is_deterministic_and_thread_invariant():
    a = simplex_search(3, 30_000, RngSeed(7), threads=1)
    b = simplex_search(3, 30_000, RngSeed(7), threads=4)
    c = simplex_search(3, 30_000, RngSeed(8), threads=1)
    assert a == b
    assert a[0] != c[0]


def test_search_argument_validation():
    with pytest.raises(DomainError):
        simplex_search(1, 100, RngSeed(0))
    with pytest.raises(DomainError):
        simplex_search(3, 0, RngSeed(0))


def _row_simplex_rows(m, count, g):
    """The row-major draw, sum and sort that the color-vector blocks
    replaced below 8 colors, frozen as their oracle."""
    e = g.standard_exponential((count, m))
    e /= e.sum(axis=1, keepdims=True)
    e.sort(axis=1)
    return e[:, ::-1]


def _row_discrepancy_rows(P):
    """The row-major scorer that the color-vector blocks replaced below 8
    colors, frozen as their oracle."""
    gap = P * P
    gap /= gap.sum(axis=1, keepdims=True)
    gap -= _m2_rows(P)
    return 0.5 * np.abs(gap, out=gap).sum(axis=1)


def test_search_blocks_match_the_row_path_bit_for_bit():
    # 65,536 rows are a full search block.  Blocks past 2 * 10^7 cells
    # (2,048 rows of 255 colors and up: 128 to 640 nodes a row, 0.4 to
    # 3.5 s) are drawn but not scored; past 7 colors the scorer runs the
    # frozen rows' code, which counts of 1 and 7 rows still check.
    for seed in (0, 1, 2):
        for m in [*range(2, 21), 255, 256, 257]:
            for count in (1, 7, 2048, 65536):
                if count == 65536 and (m > 20 or seed and m > 7):
                    continue
                got = _sorted_simplex_rows(m, count, RngSeed(seed).generator())
                want = _row_simplex_rows(m, count, RngSeed(seed).generator())
                assert got.shape == want.shape == (count, m)
                assert got.tobytes() == want.tobytes(), (seed, m, count)
                if count * m * _nodes_per_row(m) > 2 * 10 ** 7:
                    continue
                value = _row_discrepancy_rows(want).tobytes()
                assert _discrepancy_rows(got).tobytes() == value, (seed, m,
                                                                   count)
                if m <= COLUMN_MAX_COLORS:  # row-major input is copied
                    rows = np.ascontiguousarray(want)
                    assert _discrepancy_rows(rows).tobytes() == value


def test_color_sums_and_networks_match_numpy_row_sums_and_sort():
    rng = np.random.default_rng(61)
    for m in range(1, COLUMN_MAX_COLORS + 1):
        assert len(SORT_NETWORKS[m]) == (0, 0, 1, 3, 5, 9, 12, 16)[m]
        rows = rng.standard_exponential((4096, m)) ** rng.uniform(0.2, 5.0)
        rows[rng.random(rows.shape) < 0.1] = 0.5  # ties
        Q = np.ascontiguousarray(rows.T)
        assert Q.sum(axis=0).tobytes() == rows.sum(axis=1).tobytes(), m
        # random columns with ties, and every 0-1 column (a comparator
        # network that orders these orders every input)
        binary = (np.arange(2 ** m)[None, :] >> np.arange(m)[:, None]) & 1
        for Q in (Q, binary.astype(float)):
            want = np.sort(Q.T, axis=1)[:, ::-1].tobytes()
            _sort_colors(Q)
            assert Q.T.tobytes() == want, m
    # past COLUMN_MAX_COLORS numpy's row sum is pairwise, not left to right
    rows = rng.standard_exponential((4096, COLUMN_MAX_COLORS + 1))
    Q = np.ascontiguousarray(rows.T)
    assert not np.array_equal(Q.sum(axis=0), rows.sum(axis=1))


def test_color_vector_block_peaks_below_the_row_block():
    def peak(draw, score):
        tracemalloc.start()
        try:
            score(draw(3, 65536, RngSeed(4).generator()))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    row_peak = peak(_row_simplex_rows, _row_discrepancy_rows)
    assert peak(_sorted_simplex_rows, _discrepancy_rows) <= row_peak


def test_search_cell_cap_refuses_before_the_first_block(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a search block ran past the cell cap")

    monkeypatch.setattr(family_opt, "_sorted_simplex_rows", forbidden)
    # 8 points of 10^6 colors at 640 nodes: 5.12 * 10^9 cells
    with pytest.raises(DomainError, match="cell cap"):
        simplex_search(10 ** 6, 8, RngSeed(0))
    # 3 colors take 2 nodes a point: the cap falls between these two
    cells = SEARCH_MAX_CELLS // 6
    with pytest.raises(DomainError, match="cell cap"):
        simplex_search(3, cells + 1, RngSeed(0))
    with pytest.raises(AssertionError, match="past the cell cap"):
        simplex_search(3, cells, RngSeed(0), threads=1)


def test_figure_family_curves_shape():
    rows = figure_family_curves(3, 9)
    assert len(rows) == 27
    assert [r.n for r in rows[:9]] == [1] * 9
    # u runs uniformly over [0, 1]; u = 0 is the uniform floor, value 0
    assert rows[0].u == 0.0 and rows[0].value == 0.0
    assert rows[8].u == 1.0
    assert all(r.value >= 0.0 for r in rows)


def test_figure_family_curves_peaks():
    rows = figure_family_curves(2, 129)
    for n in (1, 2):
        peak = max(r.value for r in rows if r.n == n)
        assert abs(peak - D_N[n - 1]) < 1e-3  # 129-point sampling resolution


def test_kernel_matches_the_closed_form_bit_for_bit():
    # small n, mixed in one call: entries of different lengths leave the
    # live set at different steps
    ns, xs = [], []
    for n in range(1, 40):
        pts = _scan_points(n)
        ns += [n] * len(pts)
        xs += pts
    rows = _family_rows(np.array(ns), np.array(xs))
    assert rows.tobytes() == _scalar(ns, xs).tobytes()
    # large n, one scalar n against the whole grid, as family_argmax calls it
    for n in (10 ** 2, 10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        pts = _scan_points(n)
        rows = _family_rows(n, np.array(pts))
        assert rows.shape == (len(pts),)
        assert rows.tobytes() == _scalar([n] * len(pts), pts).tobytes()
    # thousands of terms at n = 2^52: (k + 2)(n - k) passes 2^63
    pts = [0.01, 0.5]
    rows = _family_rows(2 ** 52, np.array(pts))
    assert rows.tobytes() == _scalar([2 ** 52] * 2, pts).tobytes()


def test_family_curves_match_the_closed_form_point_by_point():
    for n_max, samples in ((9, 129), (6, 33), (1000, 2)):
        expected = []
        for n in range(1, n_max + 1):
            for j in range(samples):
                u = j / (samples - 1)
                x = min((u * n + 1.0) / (n + 1.0), 1.0 - CURVE_EDGE)
                expected.append(FamilyCurveRow(
                    n, u, family_discrepancy(FamilyPoint(n, x))))
        rows = figure_family_curves(n_max, samples)
        assert all(type(v) is t for r in rows
                   for v, t in ((r.n, int), (r.u, float), (r.value, float)))
        assert rows == expected


def test_argmax_is_pinned_to_the_bit():
    for n, pinned in enumerate(ARGMAX_PINNED, start=1):
        assert family_argmax(n) == pinned


def test_kernel_rejects_points_outside_the_family():
    # n = -2 puts 1/(n+1) at -1, so only the tail-count check catches it
    for n, x in ((0, [0.5]), (-2, [0.5]), (3, [0.2499]), (3, [1.0]),
                 (3, [float("nan")]), ([2, 0], [0.5, 0.5]),
                 ([2, 3], [0.5, 0.2])):
        with pytest.raises(DomainError):
            _family_rows(np.array(n), np.array(x))
    # the uniform end itself is inside, and exactly zero
    ends = _family_rows(np.array([1, 3]), np.array([0.5, 0.25]))
    assert ends.tolist() == [0.0, 0.0]
