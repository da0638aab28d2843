"""Validated vectors, symmetric-function tables, and seeded sampling.

The symmetric-function tables and the leave-one-out downdate live inside
the m2 kernel of pair_laws; they are checked here through _scaled_elem_sym
and through derive_m2 entries against a subtraction-free fold.
"""

import math

import numpy as np
import pytest

from pairlaw import (AliasSampler, BadSum, Distribution, DomainError, Empty,
                     NegativeEntry, RngSeed, canonical_sorted, derive_m2,
                     discrete_sampler, sample_sorted_simplex, validate)
from pairlaw.pair_laws import _scaled_elem_sym


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


def test_canonical_sorted_examples():
    assert canonical_sorted(validate([0.25, 0.75])).probs == (0.75, 0.25)
    third = 1.0 / 3.0
    assert canonical_sorted(validate([third] * 3)).probs == (third,) * 3
    assert canonical_sorted(validate([0.2, 0.5, 0.3])).probs == (0.5, 0.3, 0.2)


def test_canonical_sorted_idempotent_and_permutation_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 9))
        d = validate(rng.dirichlet(np.ones(m)).tolist())
        s = canonical_sorted(d)
        assert canonical_sorted(s) == s
        shuffled = list(d.probs)
        rng.shuffle(shuffled)
        assert canonical_sorted(validate(shuffled)) == s


def _column(values):
    return np.asarray(values, dtype=float)[:, None]


def test_elem_sym_two_colors():
    E = _scaled_elem_sym(_column([0.75, 0.25]))
    assert E.shape == (3, 1)
    assert E[:, 0].tolist() == [1.0, 1.0, 0.375]


def test_elem_sym_three_colors():
    E = _scaled_elem_sym(_column([0.5, 0.3, 0.2]))[:, 0]
    assert E[0] == 1.0
    assert abs(E[1] - 1.0) < 1e-15
    assert abs(E[2] - 2 * 0.31) < 1e-15
    assert abs(E[3] - 6 * 0.03) < 1e-15


def test_elem_sym_uniform_four_is_binomial():
    E = _scaled_elem_sym(_column([0.25] * 4))[:, 0]
    for k in range(5):
        want = math.factorial(k) * math.comb(4, k) / 4 ** k
        assert abs(E[k] - want) < 1e-15


def _scalar_scaled_elem_sym(values):
    # the one-entry-at-a-time, descending-k loop the block update replaces
    E = [1.0] + [0.0] * len(values)
    for seen, p in enumerate(values):
        for k in range(seen + 1, 0, -1):
            E[k] += k * p * E[k - 1]
    return E


def test_elem_sym_invariants_on_fuzz():
    # E_k = k! e_k, one column per source of a colors x sources block
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = int(rng.integers(1, 40))
        block = rng.dirichlet(np.ones(m), size=3).T
        E = _scaled_elem_sym(block)
        assert E.shape == (m + 1, 3)
        for col, probs in zip(E.T, block.T):
            # same arithmetic in the same order: bit for bit
            assert col.tolist() == _scalar_scaled_elem_sym(probs.tolist())
            assert col[0] == 1.0
            assert all(v >= 0.0 for v in col)
            assert abs(col[1] - math.fsum(probs)) < 1e-12
            # Maclaurin-type bound e_k <= e_1^k / k!
            for k, v in enumerate(col):
                assert v <= col[1] ** k * (1 + 1e-9)
            # k! e_k is a probability; their sum counts expected distinct draws
            assert all(v <= 1 + 1e-12 for v in col)
            assert math.fsum(col) >= 1.0


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
    for m in (1, 2, 3, 7, 40, 200):
        d = validate(sorted(rng.dirichlet(np.ones(m)).tolist(), reverse=True))
        _loo_vs_fold(d)


def test_leave_one_out_survives_a_dominant_entry():
    # a huge head entry is the hard case for the forward downdate
    n = 200
    head = 1.0 - 1e-9
    d = validate([head] + [(1.0 - head) / n] * n)
    _loo_vs_fold(d)


def test_sorted_simplex_forced_and_invariants():
    assert sample_sorted_simplex(1, RngSeed(0)).probs == (1.0,)
    d = sample_sorted_simplex(3, RngSeed(42))
    assert all(a >= b for a, b in zip(d.probs, d.probs[1:]))
    assert abs(math.fsum(d.probs) - 1.0) <= 1e-12
    with pytest.raises(Empty):
        sample_sorted_simplex(0, RngSeed(42))


def test_sorted_simplex_seed_determinism():
    a = sample_sorted_simplex(5, RngSeed(99))
    b = sample_sorted_simplex(5, RngSeed(99))
    c = sample_sorted_simplex(5, RngSeed(100))
    assert a == b
    assert a != c


def test_sorted_simplex_mean_of_largest_entry_m2():
    # max of a uniform stick-break at m=2 is uniform on (1/2, 1), mean 3/4
    total = 0.0
    draws = 100_000
    base = RngSeed(2718)
    for i in range(draws):
        total += sample_sorted_simplex(2, base.stream(i)).probs[0]
    assert abs(total / draws - 0.75) < 0.005


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


def test_sampler_point_mass():
    s = discrete_sampler(validate([1.0]), RngSeed(1))
    assert not s.draw(1000).any()


def test_sampler_binomial_band():
    s = discrete_sampler(validate([0.75, 0.25]), RngSeed(31337))
    freq0 = float(np.mean(s.draw(1_000_000) == 0))
    assert 0.7489 <= freq0 <= 0.7511  # 3 sigma band around 0.75


def test_sampler_chi_square():
    probs = [0.5, 0.3, 0.2]
    draws = discrete_sampler(validate(probs), RngSeed(5)).draw(1_000_000)
    counts = np.bincount(draws, minlength=3)
    expected = np.asarray(probs) * 1_000_000
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 13.816  # 99.9% critical value, 2 dof


def test_sampler_reproducible_and_iterable():
    d = validate([0.5, 0.3, 0.2])
    a = discrete_sampler(d, RngSeed(8)).draw(500)
    b = discrete_sampler(d, RngSeed(8)).draw(500)
    assert np.array_equal(a, b)
    it = iter(discrete_sampler(d, RngSeed(8)))
    head = [next(it) for _ in range(500)]
    assert head == a.tolist()
    assert isinstance(discrete_sampler(d, RngSeed(8)), AliasSampler)


def test_sampler_never_draws_zero_probability_colors():
    s = discrete_sampler(validate([0.5, 0.0, 0.5]), RngSeed(77))
    assert not (s.draw(200_000) == 1).any()
