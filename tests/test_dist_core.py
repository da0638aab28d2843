"""Validated vectors, symmetric-function sums, and seeded sampling.

The symmetric-function sums and their leave-one-out forms live inside the
Poisson-integral kernel of pair_laws; they are checked here through
draw_stats against a scalar table, and through derive_m2 entries against a
subtraction-free fold.
"""

import math

import numpy as np
import pytest

from pairlaw import (BadSum, DomainError, Empty, NegativeEntry, RngSeed,
                     derive_m2, draw_stats, validate)
from pairlaw.dist_core import (_alias_draw, _alias_select, _alias_tables,
                               _sorted_simplex_rows)


def test_validate_accepts_the_basic_examples():
    assert validate([0.75, 0.25]).probs == (0.75, 0.25)
    assert validate([1.0]).probs == (1.0,)
    assert len(validate([0.2] * 5)) == 5


def test_validate_rejects_bad_input():
    with pytest.raises(BadSum):
        validate([0.5, 0.6])
    with pytest.raises(NegativeEntry):
        validate([1.5, -0.5])
    with pytest.raises(Empty):
        validate([])
    with pytest.raises(NegativeEntry):
        validate([float("nan"), 1.0])
    # a sum past the float range once raised OverflowError from fsum
    with pytest.raises(BadSum):
        validate([1e308, 1e308])
    with pytest.raises(BadSum):
        validate([1.0, float("inf")])


def test_validate_sum_tolerance_boundary():
    # 5e-13 off is inside the 1e-12 budget; 1e-11 off is outside
    validate([0.5, 0.5 + 5e-13])
    with pytest.raises(BadSum):
        validate([0.5, 0.5 + 1e-11])


def test_validate_never_renormalizes():
    d = validate([0.5, 0.5 + 5e-13])
    assert d.probs[1] == 0.5 + 5e-13


def test_zero_entries_are_kept():
    d = validate([0.5, 0.0, 0.5])
    assert len(d) == 3 and d.probs[1] == 0.0


def _expected_draws(values):
    return draw_stats(validate(values)).expected_draws_m2


def test_elem_sym_two_colors():
    # sum_k k! e_k = 1 + 1 + 2 * 0.1875 = 19/8
    assert abs(_expected_draws([0.75, 0.25]) - 2.375) < 1e-15


def test_elem_sym_three_colors():
    # 1 + 1 + 2 * 0.31 + 6 * 0.03 = 14/5
    assert abs(_expected_draws([0.5, 0.3, 0.2]) - 2.8) < 1e-15


def test_elem_sym_uniform_four_is_binomial():
    want = math.fsum(math.factorial(k) * math.comb(4, k) / 4 ** k
                     for k in range(5))
    assert want == 3.21875
    assert abs(_expected_draws([0.25] * 4) - want) < 1e-15


def _scalar_scaled_elem_sym(values):
    # E_k = k! e_k by the one-entry-at-a-time, descending-k loop
    E = [1.0] + [0.0] * len(values)
    for seen, p in enumerate(values):
        for k in range(seen + 1, 0, -1):
            E[k] += k * p * E[k - 1]
    return E


def test_elem_sym_invariants_on_fuzz():
    # the expected draw count is sum_k k! e_k, a sum of probabilities
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        probs = rng.dirichlet(np.ones(m)).tolist()
        got = _expected_draws(probs)
        want = math.fsum(_scalar_scaled_elem_sym(probs))
        assert abs(got - want) <= 1e-13 * want
        assert 2.0 <= got <= m + 1 + 1e-12


def test_leave_one_out_examples():
    # P(Y = i) = p_i^2 * sum_k (k+1)! e_k(p without i), with the
    # leave-one-out values e_k written out by hand
    def law(p_i, loo):
        return p_i * p_i * sum(math.factorial(k + 1) * e for k, e in enumerate(loo))

    assert derive_m2(validate([0.75, 0.25])).probs[0] == law(0.75, [1.0, 0.25])
    got = derive_m2(validate([0.5, 0.3, 0.2])).probs[1]
    assert abs(got - law(0.3, [1.0, 0.7, 0.10])) < 1e-15
    third = 1.0 / 3.0
    got = derive_m2(validate([third] * 3)).probs[2]
    assert abs(got - law(third, [1.0, 2.0 / 3.0, 1.0 / 9.0])) < 1e-15


def _folded_m2(probs):
    """The one-at-a-time law with every other color folded in afresh for
    each color i, by additions only: no downdate, no subtraction.  Row i
    folds p with entry i zeroed, and folding a zero changes nothing."""
    p = np.asarray(probs, dtype=float)
    m = p.size
    others = np.where(np.eye(m, dtype=bool), 0.0, p)
    E = np.zeros((m, m + 1))
    E[:, 0] = 1.0
    for j in range(m):
        for k in range(j + 1, 0, -1):
            E[:, k] += k * others[:, j] * E[:, k - 1]
    return p * p * (E * np.arange(1, m + 2)).sum(axis=1)


def _loo_vs_fold(d):
    want = _folded_m2(d.probs)
    for g, w in zip(derive_m2(d).probs, want):
        assert abs(g - w) <= 1e-10 * w


def test_leave_one_out_downdate_matches_recompute():
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 7, 40, 200, 300):
        d = validate(sorted(rng.dirichlet(np.ones(m)).tolist(), reverse=True))
        _loo_vs_fold(d)


def test_leave_one_out_survives_a_dominant_entry():
    # a head of mass 1 - 1e-9 beside tiny tails: entries span 22 decades
    head = 1.0 - 1e-9
    for n in (200, 300):
        _loo_vs_fold(validate([head] + [(1.0 - head) / n] * n))


def _simplex_rows(m, count, seed):
    return _sorted_simplex_rows(m, count, RngSeed(seed).generator())


def test_sorted_simplex_forced_and_invariants():
    assert _simplex_rows(1, 1, 0).tolist() == [[1.0]]
    row = _simplex_rows(3, 1, 42)[0]
    assert all(a >= b for a, b in zip(row, row[1:]))
    assert abs(math.fsum(row) - 1.0) <= 1e-12


def test_sorted_simplex_seed_determinism():
    a = _simplex_rows(5, 1, 99)
    b = _simplex_rows(5, 1, 99)
    c = _simplex_rows(5, 1, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sorted_simplex_mean_of_largest_entry_m2():
    # max of a uniform stick-break at m=2 is uniform on (1/2, 1), mean 3/4
    heads = _simplex_rows(2, 100_000, 2718)[:, 0]
    assert abs(float(heads.mean()) - 0.75) < 0.005


def test_rng_seed_validation_and_streams():
    with pytest.raises(DomainError):
        RngSeed(-1)
    with pytest.raises(DomainError):
        RngSeed(2 ** 64)
    with pytest.raises(DomainError):
        RngSeed(3).stream(-1)
    base = RngSeed(12345)
    streams = {base.stream(i).seed for i in range(1000)}
    assert len(streams) == 1000  # bijective mix: no collisions in practice
    assert base.stream(0) == base.stream(0)


def test_rng_generator_is_bit_deterministic():
    g1 = RngSeed(7).generator()
    g2 = RngSeed(7).generator()
    assert np.array_equal(g1.random(100), g2.random(100))


def _alias_draws(probs, seed, count):
    select = _alias_select(*_alias_tables(validate(probs).probs))
    return _alias_draw(*select, RngSeed(seed).generator(), count,
                       np.empty(count))


def test_sampler_point_mass():
    assert not _alias_draws([1.0], 1, 1000).any()


def test_sampler_binomial_band():
    freq0 = float(np.mean(_alias_draws([0.75, 0.25], 31337, 1_000_000) == 0))
    assert 0.7489 <= freq0 <= 0.7511  # 3 sigma band around 0.75


def test_sampler_chi_square():
    probs = [0.5, 0.3, 0.2]
    draws = _alias_draws(probs, 5, 1_000_000)
    counts = np.bincount(draws, minlength=3)
    expected = np.asarray(probs) * 1_000_000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 13.816  # 99.9% critical value, 2 dof


def test_sampler_reproducible_and_iterable():
    a = _alias_draws([0.5, 0.3, 0.2], 8, 500)
    b = _alias_draws([0.5, 0.3, 0.2], 8, 500)
    assert np.array_equal(a, b)
    # one uniform per draw: a stream drawn in pieces, into one reused
    # buffer as the walks draw, is the same stream
    select = _alias_select(*_alias_tables((0.5, 0.3, 0.2)))
    g, u = RngSeed(8).generator(), np.empty(300)
    pieces = [_alias_draw(*select, g, n, u) for n in (1, 199, 300)]
    assert np.concatenate(pieces).tolist() == a.tolist()


def test_sampler_never_draws_zero_probability_colors():
    assert not (_alias_draws([0.5, 0.0, 0.5], 77, 200_000) == 1).any()


class _Feed:
    """Stands in for a generator: random(out=buffer) serves the given
    uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, *, out):
        assert out.size == self.values.size
        out[...] = self.values
        return out


def _fed_draws(accept, alias, uniforms):
    """_alias_draw of the given uniforms through the select tables."""
    return _alias_draw(*_alias_select(accept, alias), _Feed(uniforms),
                       len(uniforms), np.empty(len(uniforms)))


def _where_draw(accept, alias, uniforms):
    """The branch select the arithmetic one replaced, as its oracle."""
    m = accept.size
    u = np.asarray(uniforms, dtype=float) * m
    idx = u.astype(np.int64)
    np.minimum(idx, m - 1, out=idx)
    frac = u - idx
    return np.where(frac < accept[idx], idx, alias[idx])


def _edge_uniforms(accept):
    """0, 2^-53, 1/2, the largest uniform below 1, and for each column
    the uniforms around the one whose fraction lands on its acceptance
    threshold; also returns how many land exactly on a threshold."""
    m = accept.size
    values = [0.0, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53]
    for i, a in enumerate(accept.tolist()):
        x = (i + a) / m
        values += [np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)]
    values = [v for v in values if 0.0 <= v < 1.0]
    exact = 0
    for v in values:
        idx = min(int(v * m), m - 1)
        exact += v * m - idx == accept[idx]
    return values, exact


EDGE_SOURCES = [
    [1.0],
    [0.0, 1.0],
    [0.0, 0.0, 1.0],
    [0.125, 0.375, 0.5],
    [0.25, 0.25, 0.25, 0.25],
    [0.5, 0.0, 0.3, 0.0, 0.2],
    [0.1, 0.0, 0.0, 0.6, 0.0, 0.3, 0.0],
]


def test_alias_draw_edge_uniforms_match_the_branch_select():
    rng = np.random.default_rng(53)
    sources = list(EDGE_SOURCES)
    for m in (70, 3001):  # wide columns: i + accept[i] rounds at large i
        p = rng.exponential(size=m)
        p[rng.random(m) < 0.3] = 0.0
        sources.append(list(p / p.sum()))
    on_threshold = 0
    for probs in sources:
        accept, alias = _alias_tables(probs)
        values, exact = _edge_uniforms(accept)
        on_threshold += exact
        values += rng.random(5000).tolist()
        got = _fed_draws(accept, alias, values)
        want = _where_draw(accept, alias, values)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), probs
        zero = np.flatnonzero(np.asarray(probs) == 0.0)
        assert not np.isin(got, zero).any(), probs
        assert ((0 <= got) & (got < len(probs))).all()
    assert on_threshold >= 5  # a fraction equal to its threshold is kept out


def test_alias_select_thresholds_split_each_column_like_the_fraction():
    # for each column i, the doubles w in [i, i + 1) at and beside its
    # threshold: w < threshold i exactly when the fraction w - i (exact)
    # is below accept[i]
    rng = np.random.default_rng(54)
    for m in (1, 2, 3, 7, 70, 3001, 100_003):
        p = rng.exponential(size=m) ** rng.uniform(0.5, 3.0)
        p[rng.random(m) < 0.2] = 0.0
        if not p.any():
            p[0] = 1.0
        accept, alias = _alias_tables((p / p.sum()).tolist())
        thresholds, picks = _alias_select(accept, alias)
        assert thresholds.size == m and picks.size == 2 * m
        column = np.arange(m)
        t = thresholds
        for w in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)):
            inside = (column <= w) & (w < column + 1)
            assert ((w < t) == (w - column < accept))[inside].all(), m
        assert picks[0::2].tolist() == alias.tolist()
        assert picks[1::2].tolist() == column.tolist()


def _scalar_alias_tables(probs):
    """The two-stack loop on numpy scalars that the list-built tables
    replaced, frozen as their oracle."""
    p = np.asarray(tuple(probs), dtype=float)
    m = p.size
    scaled = p * m
    accept = np.ones(m)
    alias = np.arange(m, dtype=np.int64)
    small = [i for i in range(m) if scaled[i] < 1.0]
    large = [i for i in range(m) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        (small if scaled[l] < 1.0 else large).append(l)
    return accept, alias


def test_alias_tables_match_the_numpy_scalar_loop_bit_for_bit():
    rng = np.random.default_rng(55)
    for case in range(300):
        m = int(rng.integers(1, 401))
        p = rng.exponential(size=m) ** rng.uniform(0.2, 4.0)
        p[rng.random(m) < 0.3] = 0.0  # zero-mass colors
        if not p.any():
            p[rng.integers(m)] = 1.0
        probs = (p / p.sum()).tolist()
        got, want = _alias_tables(probs), _scalar_alias_tables(probs)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), case


def test_alias_draw_threshold_goes_to_the_alias():
    # 0.125 * 3 = 0.375 exactly: fraction 0.375 equals accept[0], so
    # column 0 defers to its alias, and one ulp less keeps it
    accept, alias = _alias_tables((0.125, 0.375, 0.5))
    assert accept[0] == 0.375 and alias[0] != 0
    below = np.nextafter(0.125, 0.0)
    got = _fed_draws(accept, alias, [0.125, below])
    assert got.tolist() == [alias[0], 0]
