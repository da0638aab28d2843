"""The two pair laws, their discrepancy, and the exact/simulated oracles."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from pairlaw import (DomainError, DrawStats, IndexMismatch, InternalFault,
                     PairLaw, RngSeed, SimReport, ToleranceNotMet,
                     TooManyColors, derive_m1, derive_m2, discrepancy,
                     draw_stats, m2_oracle_exact, m2_simulate,
                     match_probability, tvd, validate)
from pairlaw import pair_laws
from pairlaw.family_opt import FamilyPoint, family_discrepancy
from pairlaw.pair_laws import _m2_rows, _poisson_sums

SKEW = validate([0.75, 0.25])
TRIPLE = validate([0.5, 0.3, 0.2])


def test_match_probability():
    assert match_probability(SKEW) == 0.625
    assert abs(match_probability(TRIPLE) - 0.38) < 1e-15
    assert match_probability(validate([1.0])) == 1.0


def test_m1_examples():
    assert derive_m1(SKEW).probs == (0.9, 0.1)
    got = derive_m1(TRIPLE).probs
    want = (25 / 38, 9 / 38, 2 / 19)  # p_i^2 / 0.38 in lowest terms
    assert all(abs(g - w) < 1e-15 for g, w in zip(got, want))


def test_m2_examples():
    got = derive_m2(SKEW).probs
    assert abs(got[0] - 0.84375) < 1e-15  # 27/32
    assert abs(got[1] - 0.15625) < 1e-15  # 5/32
    got = derive_m2(TRIPLE).probs
    for g, w in zip(got, (0.59, 0.27, 0.14)):
        assert abs(g - w) < 1e-15


def test_uniform_laws_are_uniform():
    for m in (1, 2, 7, 365):
        d = validate([1.0 / m] * m)
        for law in (derive_m1(d), derive_m2(d)):
            assert max(abs(q - 1.0 / m) for q in law.probs) < 1e-13


def test_both_methods_keep_zero_colors_at_zero():
    d = validate([0.5, 0.0, 0.5])
    assert derive_m1(d).probs[1] == 0.0
    assert derive_m2(d).probs[1] == 0.0
    assert discrepancy(d) < 1e-15  # two equal live colors: both laws uniform


def test_pair_law_rejects_garbage():
    with pytest.raises(DomainError):
        PairLaw("m3", (1.0,))
    # entries that do not sum to one come from a derivation, not the user
    with pytest.raises(InternalFault):
        PairLaw("m1", (0.7, 0.7))
    # NaN fails every comparison, so a test of the bad case let it through;
    # inf - inf and a partial sum past the float range make fsum raise
    nan, inf = float("nan"), float("inf")
    for probs in ((nan, nan), (nan, 1.0), (1.0, nan), (0.5, nan, 0.5),
                  (inf, -inf), (1e308, 1e308, -1e308)):
        with pytest.raises(InternalFault):
            PairLaw("m2", probs)


def test_discrepancy_examples():
    assert abs(discrepancy(SKEW) - 0.05625) < 1e-15
    assert abs(discrepancy(TRIPLE) - 129 / 1900) < 1e-15
    assert discrepancy(validate([1.0])) == 0.0


def test_tvd_forms_and_inputs():
    assert abs(tvd(derive_m1(SKEW), derive_m2(SKEW)) - 0.05625) < 1e-15
    # bare sequences and law objects are interchangeable
    assert abs(tvd([0.9, 0.1], (0.84375, 0.15625)) - 0.05625) < 1e-15
    assert tvd([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert abs(tvd([1.0, 0.0], [0.0, 1.0]) - 1.0) < 1e-15
    # laws over different color counts, and an unnormalized law, whose
    # three forms read 0.05, 0.0 and 0.1
    with pytest.raises(IndexMismatch):
        tvd([0.5, 0.5], [1.0])
    with pytest.raises(ToleranceNotMet):
        tvd([0.5, 0.5], [0.6, 0.5])


def test_tvd_fuzz_is_a_metric_bounded_by_one():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        a = rng.dirichlet(np.ones(m)).tolist()
        b = rng.dirichlet(np.ones(m)).tolist()
        c = rng.dirichlet(np.ones(m)).tolist()
        dab = tvd(a, b)
        assert 0.0 <= dab <= 1.0
        assert abs(dab - tvd(b, a)) < 1e-15
        assert dab <= tvd(a, c) + tvd(c, b) + 1e-12


def test_draw_stats_examples():
    s = draw_stats(SKEW)
    assert isinstance(s, DrawStats)
    assert abs(s.expected_draws_m2 - 2.375) < 1e-15  # 19/8
    assert abs(s.expected_pairs_m1 - 1.6) < 1e-15  # 1 / 0.625
    s = draw_stats(TRIPLE)
    assert abs(s.expected_draws_m2 - 2.8) < 1e-15  # 14/5
    assert abs(s.expected_pairs_m1 - 1 / 0.38) < 1e-13


def test_draw_stats_uniform_365():
    # birthday-style wait: 1 + sum_k (365)_k / 365^k over k = 0..365
    s = draw_stats(validate([1.0 / 365] * 365))
    assert abs(s.expected_draws_m2 - 24.61658589459885) < 5e-11
    assert abs(s.expected_pairs_m1 - 365.0) < 1e-9


def test_draw_stats_single_color():
    s = draw_stats(validate([1.0]))
    assert s.expected_draws_m2 == 2.0
    assert s.expected_pairs_m1 == 1.0


def test_derivation_matches_exhaustive_oracle():
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(2, 11))
        d = validate(rng.dirichlet(np.ones(m)).tolist())
        fast = derive_m2(d).probs
        slow = m2_oracle_exact(d).probs
        assert max(abs(f - s) for f, s in zip(fast, slow)) < 1e-12


def test_oracle_color_cap():
    with pytest.raises(TooManyColors):
        m2_oracle_exact(validate([1.0 / 21] * 21))
    m2_oracle_exact(validate([1.0 / 20] * 20))  # the cap itself is fine


def test_oracle_handles_skew():
    d = validate([0.9] + [0.01] * 10)
    fast = derive_m2(d).probs
    slow = m2_oracle_exact(d).probs
    assert max(abs(f - s) for f, s in zip(fast, slow)) < 1e-12


def _fuzz_dists(count, seed, lo=2, hi=13):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(lo, hi))
        yield validate(rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3)).tolist())


def test_property_sweep():
    # the bulk invariant check: likelihood-ratio order and the sign of
    # the discrepancy across 10^4 random sources
    for d in _fuzz_dists(10_000, 2024):
        m1 = derive_m1(d).probs
        m2 = derive_m2(d).probs
        assert abs(math.fsum(m2) - 1.0) < 1e-12
        assert min(m2) >= 0.0
        # conditioning favors heavy colors more than racing does:
        # m1_i * m2_j >= m1_j * m2_i whenever p_i >= p_j
        order = sorted(range(len(d)), key=lambda i: -d.probs[i])
        for a, b in zip(order, order[1:]):
            assert m1[a] * m2[b] >= m1[b] * m2[a] - 1e-12
        dd = discrepancy(d)
        assert dd >= 0.0
        spread = max(d.probs) - min(d.probs)
        if spread == 0.0:
            assert dd < 1e-10
        elif min(d.probs) >= 0.01 and spread >= 0.01:
            # near-zero entries can hide a legitimately sub-float-margin D
            # behind a large spread, so the lower bound needs a mass floor
            assert dd > 1e-13


def test_permutation_equivariance():
    rng = np.random.default_rng(13)
    for d in _fuzz_dists(200, 13):
        perm = rng.permutation(len(d))
        shuffled = validate([d.probs[i] for i in perm])
        for derive in (derive_m1, derive_m2):
            base = derive(d).probs
            moved = derive(shuffled).probs
            assert max(abs(moved[k] - base[i]) for k, i in enumerate(perm)) < 1e-12
        assert abs(discrepancy(shuffled) - discrepancy(d)) < 1e-12


def test_simulation_agrees_with_exact_law():
    report = m2_simulate(SKEW, 1_000_000, RngSeed(0))
    exact = derive_m2(SKEW).probs
    for est, ex, std in zip(report.estimated_probs, exact, report.std_errors):
        assert abs(est - ex) < 4.0 * std


def test_simulation_three_colors():
    report = m2_simulate(TRIPLE, 1_000_000, RngSeed(1))
    for est, ex, std in zip(report.estimated_probs, (0.59, 0.27, 0.14),
                            report.std_errors):
        assert abs(est - ex) < 4.0 * std


def test_sim_report_invariants():
    report = m2_simulate(TRIPLE, 100_000, RngSeed(5))
    assert isinstance(report, SimReport)
    assert math.fsum(report.estimated_probs) == 1.0  # exactly, by contract
    assert report.trials == 100_000
    assert report.truncated == 0  # the walk always absorbs by pigeonhole
    assert report.seed == 5
    for q, s in zip(report.estimated_probs, report.std_errors):
        assert abs(s - math.sqrt(q * (1.0 - q) / report.trials)) < 1e-15


def test_simulation_determinism_and_thread_invariance():
    a = m2_simulate(TRIPLE, 200_000, RngSeed(9), threads=1)
    b = m2_simulate(TRIPLE, 200_000, RngSeed(9), threads=4)
    c = m2_simulate(TRIPLE, 200_000, RngSeed(10), threads=1)
    assert a.estimated_probs == b.estimated_probs
    assert a.estimated_probs != c.estimated_probs


def test_simulation_feeds_tvd():
    report = m2_simulate(SKEW, 500_000, RngSeed(3))
    assert abs(tvd(derive_m1(SKEW), report) - 0.05625) < 0.002
    with pytest.raises(DomainError):
        m2_simulate(SKEW, 0, RngSeed(3))


def test_row_kernel_rows_are_independent():
    # every row of a block comes out bit for bit as its own one-row call,
    # whatever the rows beside it hold, on both quadrature rules
    rng = np.random.default_rng(17)
    for m in [*range(2, 13), 300]:
        block = np.array([rng.dirichlet(np.full(m, alpha))
                          for alpha in rng.uniform(0.1, 3.0, size=24)])
        block[0] = 1.0 / m
        for p, row in zip(block, _m2_rows(block)):
            assert tuple(row.tolist()) == derive_m2(validate(p.tolist())).probs


def test_large_color_count_stays_stable():
    # thousands of colors: scaled tables must neither overflow nor underflow
    m = 5000
    d = validate([1.0 / m] * m)
    law = derive_m2(d)
    assert abs(math.fsum(law.probs) - 1.0) < 1e-10
    assert max(abs(q - 1.0 / m) for q in law.probs) < 1e-12


def test_panel_rule_matches_the_family_closed_form():
    # 10^5 colors: only the panel rule reaches this size, and the closed
    # form shares no code with it
    n = 99_999
    fp = FamilyPoint(n, 1.514 / math.sqrt(n))
    assert abs(discrepancy(fp.realize()) - family_discrepancy(fp)) < 1e-12


def test_laguerre_and_panel_rules_agree(monkeypatch):
    # the two rules integrate the same functions; a zero cut sends every
    # size to the panel rule
    rng = np.random.default_rng(64)
    blocks = [rng.dirichlet(np.full(m, alpha), size=4)
              for m in (64, 100, 150, 200, 256) for alpha in (0.3, 1.0, 3.0)]
    exact = [_poisson_sums(block, moment=True) for block in blocks]
    monkeypatch.setattr(pair_laws, "LAGUERRE_MAX_COLORS", 0)
    for block, (sums, totals) in zip(blocks, exact):
        panel, panel_totals = _poisson_sums(block, moment=True)
        assert totals.all() and panel_totals.all()
        assert np.all(np.abs(panel - sums) <= 1e-13 * sums)
        assert np.all(np.abs(panel_totals - totals) <= 1e-13 * totals)


def test_node_groups_keep_every_bit(monkeypatch):
    # one node a pass, the default groups and nearly all nodes in one pass
    # give the same bits, on both rules and at every block width; a call
    # that skips the moment keeps the bits of the leave-one-out sums
    rng = np.random.default_rng(41)
    blocks = [rng.dirichlet(np.full(m, alpha), size=rows)
              for m in (*range(2, 13), 255, 256, 257, 300)
              for rows in (1, 3, 64) for alpha in (0.4, 2.0)]
    runs = []
    for budget in (1, pair_laws.NODE_GROUP_ENTRIES, 1 << 22):
        monkeypatch.setattr(pair_laws, "NODE_GROUP_ENTRIES", budget)
        runs.append([_poisson_sums(block, moment=True) for block in blocks])
    for block, *sums in zip(blocks, *runs):
        assert sums[0][1].all(), block.shape
        for acc, total in sums[1:]:
            assert np.array_equal(acc, sums[0][0]), block.shape
            assert np.array_equal(total, sums[0][1]), block.shape
        assert np.array_equal(_poisson_sums(block)[0], sums[0][0])


def _node_loop(P):
    """The Laguerre rule one node a pass in one colors x rows buffer: the
    footprint that grouping must not exceed by more than a group."""
    Q = np.ascontiguousarray(P.T)
    nodes, weights = pair_laws._laguerre(Q.shape[0] // 2 + 1)
    acc = np.zeros_like(Q)
    total = np.zeros(Q.shape[1])
    X = np.empty_like(Q)
    for t, w in zip(nodes.tolist(), weights.tolist()):
        np.multiply(Q, t, out=X)
        X += 1.0
        F = np.multiply.reduce(X, axis=0)
        F *= w
        total += F
        F *= t
        acc += np.divide(F, X, out=X)
    return acc, total


def test_node_groups_allocate_no_more_than_a_node_loop():
    P = np.random.default_rng(43).dirichlet(np.ones(12), size=100_000)
    peaks, results = [], []
    for kernel in (_node_loop, functools.partial(_poisson_sums, moment=True)):
        tracemalloc.start()
        results.append(kernel(P))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 8 * pair_laws.NODE_GROUP_ENTRIES, peaks
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_expected_draws_keep_the_bits_of_a_node_loop():
    # draw_stats alone asks for the sum_k k! e_k moment; it must fold it
    # node by node as the frozen one-node loop does
    rng = np.random.default_rng(45)
    sources = [rng.dirichlet(np.full(m, alpha))
               for m in (*range(1, 13), 64, 250, 256) for alpha in (0.3, 2.0)]
    for p in sources:
        d = validate(p.tolist())
        want = float(_node_loop(d.as_array()[None, :])[1][0])
        assert draw_stats(d).expected_draws_m2 == want, len(p)
        assert 1.0 < want < len(p) + 1.0 + 1e-12
