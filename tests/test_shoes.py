"""Two-sided (left/right) pairs: exact chain, simulation, witness family."""

import math

import numpy as np
import pytest

from pairlaw import (DomainError, ExcessTruncation, IndexMismatch,
                     InvalidPair, NTooSmall, RngSeed, ShoePair,
                     ToleranceNotMet, TooManyColors,
                     m2_simulate, shoes_discrepancy, shoes_m1, shoes_m2_exact,
                     shoes_m2_simulate, shoes_match_probability, sup_one_demo,
                     tvd, validate, witness_family)
from pairlaw import pair_laws, shoes
from pairlaw.shoes import MAX_HORIZON, _walk_horizon

DIAG_SKEW = ShoePair(validate([0.75, 0.25]), validate([0.75, 0.25]))
TRIPLE = validate([0.5, 0.3, 0.2])
DIAG_TRIPLE = ShoePair(TRIPLE, TRIPLE)


def test_pair_validation():
    with pytest.raises(IndexMismatch):
        ShoePair(validate([0.5, 0.5]), validate([1.0]))
    with pytest.raises(InvalidPair):
        ShoePair(validate([1.0, 0.0]), validate([0.0, 1.0]))


def test_match_probability_and_m1():
    assert shoes_match_probability(DIAG_SKEW) == 0.625
    assert shoes_m1(DIAG_SKEW).probs == (0.9, 0.1)
    # a diagonal pair reduces to the one-sequence conditioned law
    got = shoes_m1(DIAG_TRIPLE).probs
    for g, w in zip(got, (25 / 38, 9 / 38, 2 / 19)):
        assert abs(g - w) < 1e-15


def test_exact_chain_diagonal_two_colors():
    got = shoes_m2_exact(DIAG_SKEW).probs
    assert abs(got[0] - 45 / 52) < 1e-15
    assert abs(got[1] - 7 / 52) < 1e-15
    est = shoes_discrepancy(DIAG_SKEW)
    assert est.error == 0.0
    assert abs(est.value - 9 / 260) < 1e-15  # 0.9 - 45/52


def test_exact_chain_diagonal_three_colors():
    got = shoes_m2_exact(DIAG_TRIPLE).probs
    want = (0.601904429964822, 0.2628108825000509, 0.13528468753512718)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-14


def test_exact_chain_uniform_is_uniform():
    sp = ShoePair(validate([0.5, 0.5]), validate([0.5, 0.5]))
    got = shoes_m2_exact(sp).probs
    assert max(abs(g - 0.5) for g in got) < 1e-14
    assert shoes_discrepancy(sp).value < 1e-14


def test_two_color_laws_agree_where_q_is_proportional_to_p_to_the_minus_2():
    # the exact law's numerator has the factor 2x^2y - x^2 - 2xy + 2x + y - 1,
    # zero at y = (1 - x)^2 / (x^2 + (1 - x)^2); found by factoring it and
    # checked here in floats, not proved
    for x in (0.05, 0.2, 0.3, 0.45, 0.5, 0.6, 0.77, 0.9, 0.99):
        y = (1 - x) ** 2 / (x * x + (1 - x) ** 2)
        on = ShoePair(validate([x, 1 - x]), validate([y, 1 - y]))
        assert shoes_discrepancy(on).value <= 1e-15, x
        if x != 0.5:
            off = ShoePair(validate([x, 1 - x]), validate([0.5, 0.5]))
            assert shoes_discrepancy(off).value > 1e-3, x


def test_single_shared_color_takes_all_the_mass():
    sp = ShoePair(validate([0.5, 0.5, 0.0]), validate([0.0, 0.5, 0.5]))
    assert shoes_m2_exact(sp).probs == (0.0, 1.0, 0.0)
    assert shoes_m1(sp).probs == (0.0, 1.0, 0.0)
    assert shoes_discrepancy(sp).value == 0.0


#: A valid pair whose match probability is 1e-300: 1 - alpha beta
#: underflows to zero on the state both heavy colors lead to.
TINY_MATCH = ShoePair(validate([1e-300, 1.0]), validate([1.0, 0.0]))

#: A random Dirichlet pair on which alpha beta comes within about 1e-8 of
#: one, so 1 - alpha beta taken by subtraction keeps only half its digits.
NEAR_ONE = ShoePair(
    validate([3.5422106633144815e-22, 0.8914260451620935, 0.1085739548379065]),
    validate([0.999999987925039, 1.9141217601772464e-11, 1.20558198391119e-08]))


def test_exact_chain_survives_a_vanishing_match_probability():
    got = shoes_m2_exact(TINY_MATCH).probs
    assert abs(got[0] - 1.0) <= 1e-15 and got[1] == 0.0


def test_exact_chain_refuses_a_subnormal_turn_cycle():
    # the cycle's gap is about 1e-320, so its occupations overflowed into
    # NaN laws; a gap of 2e-155 still answers, with no floating-point trap
    for sp in (ShoePair(validate([1e-320, 1.0]), validate([1.0, 1e-320])),
               ShoePair(validate([1e-320, 1.0]), validate([1.0, 0.0]))):
        with pytest.raises(ToleranceNotMet):
            shoes_m2_exact(sp)
        with pytest.raises(ToleranceNotMet):
            shoes_discrepancy(sp)
    small = ShoePair(validate([1e-155, 1.0 - 1e-155, 0.0]),
                     validate([1e-155, 0.0, 1.0 - 1e-155]))
    assert shoes_m2_exact(small).probs == (1.0, 0.0, 0.0)


def test_exact_chain_near_one_alpha_beta_matches_a_rational_solve():
    # exact rational solve of the chain in which each side repeats with
    # probability one minus its unseen mass
    want = (2.9335172566415436e-14, 0.0015851991167399734,
            0.9984148008832306)
    for g, w in zip(shoes_m2_exact(NEAR_ONE).probs, want):
        assert abs(g - w) <= 1e-12 * w


def test_exact_chain_color_cap():
    d11 = validate([1.0 / 11] * 11)
    with pytest.raises(TooManyColors):
        shoes_m2_exact(ShoePair(d11, d11))
    d10 = validate([1.0 / 10] * 10)
    shoes_m2_exact(ShoePair(d10, d10))  # the cap itself is fine


def test_exact_chain_asymmetric_pair_against_simulation():
    sp = ShoePair(validate([0.6, 0.3, 0.1]), validate([0.2, 0.2, 0.6]))
    exact = shoes_m2_exact(sp).probs
    report = shoes_m2_simulate(sp, 1_000_000, RngSeed(0))
    for est, ex, std in zip(report.estimated_probs, exact, report.std_errors):
        assert abs(est - ex) < 4.0 * std
    assert report.truncated == 0
    assert math.fsum(report.estimated_probs) == 1.0


def test_simulation_diagonal_three_colors():
    report = shoes_m2_simulate(DIAG_TRIPLE, 1_000_000, RngSeed(2))
    exact = shoes_m2_exact(DIAG_TRIPLE).probs
    for est, ex, std in zip(report.estimated_probs, exact, report.std_errors):
        assert abs(est - ex) < 4.0 * std


def test_heavy_colors_on_opposite_sides_still_absorb():
    # the shared mass is tiny, so the walk is long; the default horizon
    # has to stretch with it rather than truncate en masse
    sp = ShoePair(validate([0.98, 0.01, 0.01]), validate([0.01, 0.495, 0.495]))
    report = shoes_m2_simulate(sp, 100_000, RngSeed(7))
    assert report.truncated == 0
    assert report.trials == 100_000
    exact = shoes_m2_exact(sp).probs
    for est, ex, std in zip(report.estimated_probs, exact, report.std_errors):
        assert abs(est - ex) < 4.5 * std


def test_excess_truncation_is_raised(monkeypatch):
    # two steps almost never complete a pair on this source
    monkeypatch.setattr(shoes, "_walk_horizon", lambda sp, trials: 2)
    with pytest.raises(ExcessTruncation):
        shoes_m2_simulate(DIAG_TRIPLE, 10_000, RngSeed(1))


def test_infeasible_default_horizon_is_refused_before_any_draw(monkeypatch):
    # the only shared color has left mass 1e-300: the union-bound horizon
    # is about 5.7e301 steps, and the walks would never absorb
    def no_walks(*args):
        raise AssertionError("walks started")

    monkeypatch.setattr(shoes, "_simulate", no_walks)
    sp = ShoePair(validate([1e-300, 1.0]), validate([1.0, 0.0]))
    with pytest.raises(ExcessTruncation):
        shoes_m2_simulate(sp, 100, RngSeed(1))
    # witness_family(10^7) shares its largest min(p_i, q_i), the right head
    # mass n^(-2/3), with this two-color pair, so it gets the same horizon
    b = 1e7 ** (-2.0 / 3.0)
    near = ShoePair(validate([1.0, 0.0]), validate([b, 1.0 - b]))
    assert _walk_horizon(near, 1) == 2_629_386 <= MAX_HORIZON
    # a subnormal shared mass makes the horizon infinite: refused, not an
    # OverflowError, unless there are no trials, which _simulate refuses
    sub = ShoePair(validate([1e-320, 1.0]), validate([1.0, 1e-320]))
    with pytest.raises(ExcessTruncation):
        shoes_m2_simulate(sub, 100, RngSeed(1))
    assert _walk_horizon(sub, 0) == math.inf


def test_simulation_determinism_and_thread_invariance():
    a = shoes_m2_simulate(DIAG_TRIPLE, 200_000, RngSeed(9), threads=1)
    b = shoes_m2_simulate(DIAG_TRIPLE, 200_000, RngSeed(9), threads=4)
    c = shoes_m2_simulate(DIAG_TRIPLE, 200_000, RngSeed(10), threads=1)
    assert a.estimated_probs == b.estimated_probs
    assert a.estimated_probs != c.estimated_probs


def test_discrepancy_simulation_path():
    report = shoes_m2_simulate(DIAG_TRIPLE, 400_000, RngSeed(3))
    value = tvd(shoes_m1(DIAG_TRIPLE), report)
    error = 0.5 * math.sqrt(math.fsum(s * s for s in report.std_errors))
    exact = shoes_discrepancy(DIAG_TRIPLE)
    assert error > 0.0 and exact.error == 0.0
    assert abs(value - exact.value) < 4.0 * error + 1e-4
    # eleven colors pass the exact cap, and the simulation needs a seed
    eleven = validate([1.0 / 11] * 11)
    with pytest.raises(DomainError, match="seed"):
        shoes_discrepancy(ShoePair(eleven, eleven))


def test_side_swap_moves_m2_by_at_most_the_side_gap():
    # swapping who draws first changes the law by less than the sides differ
    rng = np.random.default_rng(23)
    for _ in range(60):
        m = int(rng.integers(2, 7))
        p = validate(rng.dirichlet(np.ones(m)).tolist())
        q = validate(rng.dirichlet(np.ones(m)).tolist())
        try:
            fwd = shoes_m2_exact(ShoePair(p, q))
            rev = shoes_m2_exact(ShoePair(q, p))
        except InvalidPair:
            continue
        assert tvd(fwd, rev) <= tvd(p.probs, q.probs) + 1e-12


def test_witness_family_shape():
    with pytest.raises(NTooSmall):
        witness_family(15)
    # an n past the float range once raised OverflowError at n ** -0.25
    with pytest.raises(DomainError):
        witness_family(10 ** 400)
    w = witness_family(16)
    assert len(w) == 17
    assert abs(w.left.probs[0] - 0.5) < 1e-15  # 16^(-1/4)
    assert w.right.probs[0] < w.left.probs[0]
    assert abs(math.fsum(w.left.probs) - 1.0) < 1e-12


def test_witness_conditioned_head_grows():
    heads = [shoes_m1(witness_family(n)).probs[0] for n in (1000, 10_000, 1_000_000)]
    assert abs(heads[1] - 0.7057945047625049) < 1e-12
    assert heads[0] < heads[1] < heads[2]
    assert heads[2] > 0.75


def test_witness_sequential_head_shrinks():
    freqs = []
    for j, n in enumerate((100, 1000, 10_000)):
        report = shoes_m2_simulate(witness_family(n), 100_000, RngSeed(40 + j))
        freqs.append(report.estimated_probs[0])
    # the sequential walk almost never completes the head color: its
    # frequency decays with n while the conditioned head frequency grows
    assert freqs[0] > freqs[1] > freqs[2]
    assert freqs[2] < 0.2


def test_sup_one_demo_trend():
    rows = sup_one_demo([100, 1000, 10_000], 100_000, RngSeed(0))
    assert [r.n for r in rows] == [100, 1000, 10_000]
    values = [r.value for r in rows]
    assert values[0] < values[1] < values[2]
    assert all(r.error > 0.0 for r in rows)
    assert abs(values[0] - 0.322) < 0.02
    assert abs(values[1] - 0.431) < 0.02
    assert abs(values[2] - 0.529) < 0.02


def test_sup_one_demo_refuses_a_ladder_before_its_first_walk(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a walk ran before the ladder was refused")

    monkeypatch.setattr(pair_laws, "_walk_chunk", forbidden)
    # n = 10^4 makes 17,884 blocks of 3,355 walks, past the block cap
    with pytest.raises(DomainError, match="block cap"):
        sup_one_demo([16, 10_000], 60_000_000, RngSeed(0))
    with pytest.raises(NTooSmall):
        sup_one_demo([16, 15], 100, RngSeed(0))
    # a size past the color cap (here 20 colors) is refused, and the
    # simulators refuse it before building their alias tables
    monkeypatch.setattr(pair_laws, "SIM_MAX_COLORS", 20)
    monkeypatch.setattr(pair_laws, "_alias_tables", forbidden)
    with pytest.raises(DomainError, match="20-color simulation cap"):
        sup_one_demo([16, 20], 100, RngSeed(0))
    with pytest.raises(DomainError, match="20-color simulation cap"):
        shoes_m2_simulate(witness_family(20), 100, RngSeed(0))
    with pytest.raises(DomainError, match="21 colors are past"):
        m2_simulate(validate([1 / 21] * 21), 100, RngSeed(0))


def test_sup_one_demo_is_deterministic():
    a = sup_one_demo([100, 1000], 50_000, RngSeed(6), threads=2)
    b = sup_one_demo([100, 1000], 50_000, RngSeed(6), threads=1)
    assert a == b
