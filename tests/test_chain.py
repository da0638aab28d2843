"""The exact chain kernel behind m2_oracle_exact and shoes_m2_exact."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from pairlaw import (InvalidPair, ShoePair, TooManyColors, m2_oracle_exact,
                     shoes_m2_exact, validate)
from pairlaw import pair_laws


def _socks_rational(p):
    """The one-at-a-time law in exact rationals: reach weights over seen
    sets, pushed in order of set size."""
    p = [Fraction(v) for v in p]
    m = len(p)
    reach = [Fraction(0)] * (1 << m)
    reach[0] = Fraction(1)
    absorb = [Fraction(0)] * m
    for seen in sorted(range(1 << m), key=lambda s: bin(s).count("1")):
        for c in range(m):
            if seen >> c & 1:
                absorb[c] += reach[seen] * p[c]
            else:
                reach[seen | 1 << c] += reach[seen] * p[c]
    return absorb


def _shoes_rational(p, q):
    """The alternating law in exact rationals over (left, right) seen-set
    pairs; each side repeats on its own set with probability one minus its
    unseen mass, and the turn cycle is solved exactly."""
    p = [Fraction(v) for v in p]
    q = [Fraction(v) for v in q]
    m = len(p)
    inflow = {(0, 0): [Fraction(1), Fraction(0)]}
    absorb = [Fraction(0)] * m
    for size in range(m + 1):
        for (left, right), (in_left, in_right) in sorted(inflow.items()):
            if bin(left | right).count("1") != size:
                continue
            alpha = 1 - sum(p[c] for c in range(m) if not left >> c & 1)
            beta = 1 - sum(q[c] for c in range(m) if not right >> c & 1)
            u = (in_left + beta * in_right) / (1 - alpha * beta)
            v = in_right + alpha * u
            for c in range(m):
                bit = 1 << c
                if right & bit:
                    absorb[c] += u * p[c]
                elif not left & bit:
                    inflow.setdefault((left | bit, right), [0, 0])[1] += u * p[c]
                if left & bit:
                    absorb[c] += v * q[c]
                elif not right & bit:
                    inflow.setdefault((left, right | bit), [0, 0])[0] += v * q[c]
    return absorb


def _sparse_source(rng, m):
    """A Dirichlet source whose colors are each zeroed with chance 1/4,
    keeping at least one."""
    a = rng.dirichlet(np.ones(m) * rng.uniform(0.3, 3.0))
    a[rng.random(m) < 0.25] = 0.0
    if not a.any():
        a[int(rng.integers(m))] = 1.0
    return validate((a / a.sum()).tolist())


def _assert_close(got, want):
    for g, w in zip(got, want):
        if w == 0:
            assert g == 0.0
        else:
            assert abs(Fraction(g) - w) <= Fraction(1e-13) * w


def test_one_side_matches_a_rational_solve():
    rng = np.random.default_rng(91)
    for _ in range(60):
        d = _sparse_source(rng, int(rng.integers(1, 6)))
        _assert_close(m2_oracle_exact(d).probs, _socks_rational(d.probs))


def test_two_sides_match_a_rational_solve():
    rng = np.random.default_rng(92)
    solved = 0
    while solved < 40:
        m = int(rng.integers(1, 6))
        try:
            sp = ShoePair(_sparse_source(rng, m), _sparse_source(rng, m))
        except InvalidPair:
            continue
        _assert_close(shoes_m2_exact(sp).probs,
                      _shoes_rational(sp.left.probs, sp.right.probs))
        solved += 1


def test_caps_refuse_before_allocating():
    d21 = validate([1.0 / 21] * 21)
    d11 = validate([1.0 / 11] * 11)
    sp = ShoePair(d11, d11)
    tracemalloc.start()
    try:
        with pytest.raises(TooManyColors):
            m2_oracle_exact(d21)
        with pytest.raises(TooManyColors):
            shoes_m2_exact(sp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_repeat_calls_return_the_same_bits():
    rng = np.random.default_rng(93)
    d = validate(rng.dirichlet(np.ones(9)).tolist())
    other = validate(rng.dirichlet(np.ones(9)).tolist())
    sp = ShoePair(validate(rng.dirichlet(np.ones(6)).tolist()),
                  validate(rng.dirichlet(np.ones(6)).tolist()))
    flip = ShoePair(sp.right, sp.left)
    first = m2_oracle_exact(d).probs, shoes_m2_exact(sp).probs
    m2_oracle_exact(other)
    shoes_m2_exact(flip)
    assert (m2_oracle_exact(d).probs, shoes_m2_exact(sp).probs) == first


def test_oracles_share_no_code_with_what_they_check(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the exact chain ran a checked kernel")

    for name in ("_poisson_sums", "_m2_rows", "derive_m2", "_walk_chunk",
                 "_simulate"):
        monkeypatch.setattr(pair_laws, name, forbidden)
    d = validate([0.5, 0.3, 0.2])
    assert max(abs(a - b) for a, b in zip(m2_oracle_exact(d).probs,
                                          (0.59, 0.27, 0.14))) < 1e-15
    shoes_m2_exact(ShoePair(d, d))


def _best_time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_states_without_inflow_are_skipped():
    # two supported colors among sixteen reach 4 of the 2^16 states; the
    # sweep must cost a small fraction of a fully supported source's
    dense = validate(np.random.default_rng(94).dirichlet(np.ones(16)).tolist())
    sparse = validate([0.5, 0.5] + [0.0] * 14)
    m2_oracle_exact(dense)  # builds the 16-color state tables
    assert m2_oracle_exact(sparse).probs[:2] == (0.5, 0.5)
    assert (_best_time(lambda: m2_oracle_exact(sparse))
            < 0.25 * _best_time(lambda: m2_oracle_exact(dense)))


def _rank_chain_states(k, m):
    """_chain_states as it was before it cached successor ranks, frozen
    with _rank_chain_law as the sweep's oracle: each level's states,
    digits and unseen colors, and each state's rank within its level."""
    digits = np.zeros((1, 0), dtype=np.int8)
    for _ in range(m):
        digits = np.concatenate([
            np.column_stack((digits, np.full(len(digits), d, np.int8)))
            for d in range(k + 1)])
    seen = np.count_nonzero(digits, axis=1)
    order = np.argsort(seen, kind="stable")
    rank = np.empty_like(order)
    levels = []
    for level, states in enumerate(np.split(order,
                                            np.cumsum(np.bincount(seen))[:-1])):
        rank[states] = np.arange(states.size)
        coded = digits[states]
        unseen = np.nonzero(coded == 0)[1].astype(np.int8)
        levels.append((states, coded, unseen.reshape(states.size, m - level)))
    return levels, rank


def _rank_chain_law(sides):
    """_chain_law as it was before it cached successor ranks: it gathers
    the live states on every level and looks each successor up in the
    rank table."""
    k, m = len(sides), sides[0].size
    levels, rank = _rank_chain_states(k, m)
    place = (k + 1) ** np.arange(m)
    absorb = np.zeros(m)
    inflow = np.eye(k, 1)
    for level, (states, digits, unseen) in enumerate(levels):
        live = inflow.any(axis=0)
        states, digits, unseen = states[live], digits[live], unseen[live]
        inflow = inflow[:, live]
        if k == 1:
            occupancy = inflow
        else:
            p, q = sides
            left, right = digits == 1, digits == 2
            alpha, beta = left @ p, right @ q
            gap = ~left @ p + alpha * (~right @ q)
            u = (inflow[0] + beta * inflow[1]) / gap
            occupancy = u, inflow[1] + alpha * u
        ahead = np.zeros((k, levels[level + 1][0].size if level < m else 0))
        for s, (probs, u) in enumerate(zip(sides, occupancy)):
            absorb += u @ (digits == (s - 1) % k + 1) * probs
            first = rank[states[:, None] + (s + 1) * place[unseen]]
            flow = u[:, None] * probs[unseen]
            ahead[(s + 1) % k] += np.bincount(first.ravel(), flow.ravel(),
                                              ahead.shape[1])
        inflow = ahead
    return absorb


def test_cached_successor_ranks_keep_the_law_bit_for_bit():
    # one side at 1..12 colors and two at 1..10, dense sources (no zero
    # entry, so every reachable state has inflow and no level is
    # compressed) and sparse ones, which alone take the runtime compress
    rng = np.random.default_rng(95)
    compared = 0
    for k, top in ((1, 12), (2, 10)):
        for m in range(1, top + 1):
            for sparse in (False, True) * 3:
                make = _sparse_source if sparse else (
                    lambda rng, m: validate(rng.dirichlet(
                        np.ones(m) * rng.uniform(0.3, 3.0)).tolist()))
                sides = [make(rng, m).as_array() for _ in range(k)]
                if k == 2 and not (sides[0] * sides[1]).any():
                    continue
                got = pair_laws._chain_law(sides)
                assert got.tobytes() == _rank_chain_law(sides).tobytes(), \
                    (k, m, sparse)
                compared += 1
    assert compared >= 110



def _reachable_states(m):
    """The two-side states a walk can reach, by a search over its moves:
    (left seen, right seen, side to draw) from the empty state, left to
    draw, where a draw of an unseen color marks it, and a repeat on the
    drawer's own set passes the turn."""
    start = (frozenset(), frozenset(), 0)
    found, todo = {start}, [start]
    while todo:
        left, right, side = todo.pop()
        own, other = (left, right) if side == 0 else (right, left)
        for c in range(m):
            if c in other:
                continue  # absorbed
            mine = own | {c}
            nxt = (mine, right, 1) if side == 0 else (left, mine, 0)
            if nxt not in found:
                found.add(nxt)
                todo.append(nxt)
    return {(left, right) for left, right, _ in found}


def test_tables_hold_only_the_reachable_states():
    # two sides keep 3^m - 2^(m+1) + m + 2 states: both sides seen, the
    # empty state and the m one-left states; one side keeps all 2^m
    for m in range(1, 11):
        levels = pair_laws._chain_states(2, m)
        assert sum(len(unseen) for _, unseen, _ in levels) \
            == 3 ** m - 2 ** (m + 1) + m + 2, m
        for marks, unseen, _ in levels:
            assert marks.shape == (4, len(unseen), m)
            assert np.array_equal(marks[2:], ~marks[:2])
        if m > 6:
            continue
        # every reachable state (once, by the count above), and each
        # successor at its rank in the next level, or at the level's size
        # if it is not reachable
        kept = [[(frozenset(np.flatnonzero(left)),
                  frozenset(np.flatnonzero(right)))
                 for left, right in zip(marks[0], marks[1])]
                for marks, _, _ in levels]
        assert set().union(*kept) == _reachable_states(m), m
        for level, (_, unseen, successors) in enumerate(levels[:-1]):
            ahead = {state: rank for rank, state in enumerate(kept[level + 1])}
            for i, (left, right) in enumerate(kept[level]):
                for j, c in enumerate(unseen[i]):
                    for s, nxt in enumerate([(left | {c}, right),
                                             (left, right | {c})]):
                        assert successors[s, i, j] == ahead.get(
                            nxt, len(ahead)), (m, level, s)
    for m in range(1, 17):
        levels = pair_laws._chain_states(1, m)
        assert [len(unseen) for _, unseen, _ in levels] == \
            [math.comb(m, level) for level in range(m + 1)]
        assert all(marks.shape[0] == 1 for marks, _, _ in levels)


def test_one_side_tables_are_built_once():
    # the 16-color tables (marks, unseen colors, int32 successor ranks)
    # hold 2^16 * 16 * (1 + 1/2 + 2) bytes; building them takes about
    # 2.3 times that at its peak, and a second copy would pass 2.5
    tables = 2 ** 16 * 16 * 7 // 2
    tracemalloc.start()
    try:
        levels = pair_laws._chain_states.__wrapped__(1, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(table.nbytes for level in levels for table in level) == tables
    assert peak < 2.5 * tables, peak / tables
