"""The walk kernel against a one-walk-at-a-time replay, and _simulate's
fold of block counts.

_replay consumes the same generator the same way (one g.random(live) per
step) but applies the alias rule per walk in Python floats, keeps Python
sets per walk and side, and marks only the walks that survive a step.  It
never calls _alias_draw, so it guards the kernel's flat seen-set offsets,
its mark-before-drop order and its compaction independently.  It also
reports each step's live walks and hits, so the fuzz can show that it
reached the compaction's sparse and dense paths on wide chunks.

_simulate folds each block's counts into one total as the block
finishes; two tests run it on many tiny blocks, for its memory and for
its lock.
"""

import sys
import tracemalloc

import numpy as np

from pairlaw import RngSeed, m2_simulate, validate
from pairlaw import _parallel
from pairlaw.dist_core import _alias_draw, _alias_select, _alias_tables
from pairlaw.pair_laws import _walk_chunk
from pairlaw.shoes import _walk_horizon, witness_family


def _replay(sides, g, count, max_steps):
    """Absorption counts and truncation count of count walks, walk by walk,
    and the (live walks, hits) of each step."""
    m = len(sides[0])
    tables = [tuple(t.tolist() for t in _alias_tables(p)) for p in sides]
    seen = [[set() for _ in range(count)] for _ in sides]
    live = list(range(count))
    counts = [0] * m
    steps = []
    for step in range(max_steps):
        if not live:
            break
        side = step % len(sides)
        accept, alias = tables[side]
        survivors = []
        for walk, x in zip(live, g.random(len(live)).tolist()):
            u = x * m
            idx = min(int(u), m - 1)
            color = idx if u - idx < accept[idx] else alias[idx]
            if color in seen[side - 1][walk]:
                counts[color] += 1
            else:
                seen[side][walk].add(color)
                survivors.append(walk)
        steps.append((len(live), len(live) - len(survivors)))
        live = survivors
    return counts, len(live), steps


def _source(rng, m):
    """A probability vector on m colors with some colors of zero mass."""
    p = rng.exponential(size=m)
    p[rng.random(m) < 0.3] = 0.0
    if not p.any():
        p[rng.integers(m)] = 1.0
    return p / p.sum()


def _peaked(rng, m):
    """A source with one color of mass at least 0.99: repeats come at once."""
    p = 0.01 * _source(rng, m)
    p[rng.integers(m)] += 0.99
    return p


def test_walk_chunk_matches_the_replay_on_fuzz():
    rng = np.random.default_rng(20261018)
    truncating = zero_mass = sparse = dense = 0
    for case in range(100):
        if case < 80:
            m = int(rng.integers(1, 71))
            make, count = _source, int(rng.integers(1, 301))
        else:  # wide chunks: hit densities near 1, then near 0
            m = int(rng.integers(1, 6) if case < 90 else rng.integers(200, 401))
            make = _peaked if case < 90 else (
                lambda rng, m: rng.dirichlet(np.full(m, 50.0)))
            count = int(rng.integers(1000, 3001))
        sides = [make(rng, m) for _ in range(int(rng.integers(1, 3)))]
        # a repeat is certain within m + 1 draws of one side, and within
        # 2m + 2 alternating draws once the supports overlap
        max_steps = int(rng.integers(1, len(sides) * (m + 1) + 3))
        selects = [_alias_select(*_alias_tables(p)) for p in sides]
        got_counts, got_trunc = _walk_chunk(
            selects, m, RngSeed(case).generator(), count, max_steps)
        want_counts, want_trunc, steps = _replay(
            sides, RngSeed(case).generator(), count, max_steps)
        assert got_counts.tolist() == want_counts, (case, m, len(sides))
        assert got_trunc == want_trunc, (case, m, len(sides))
        assert got_counts.sum() + got_trunc == count
        truncating += 0 < got_trunc < count
        zero_mass += any((p == 0).any() for p in sides)
        sparse += any(live >= 1000 and 0 < hits <= 0.05 * live
                      for live, hits in steps)
        dense += any(live >= 1000 and hits >= 0.95 * live
                     for live, hits in steps)
    # the fuzz reaches partial truncation, zero-mass colors, and steps of
    # over 1,000 walks that drop at most 5% or at least 95% of them
    assert truncating >= 10 and zero_mass >= 40
    assert sparse >= 5 and dense >= 5, (sparse, dense)


#: 1,000 colors in blocks of 4 walks (2 * m bytes a walk): 2,000 walks
#: make 500 blocks, whose counts would hold 500 * 1,000 * 8 = 4 MB if each
#: block's were kept to the end.  One color holds 0.9 of the mass, so a
#: walk absorbs within a few steps.
WIDE = validate([0.9] + [0.1 / 999] * 999)
TINY_BLOCK_BYTES = 4 * 2 * 1000


def test_simulation_holds_no_count_vector_per_block(monkeypatch):
    monkeypatch.setattr(_parallel, "BLOCK_BYTES", TINY_BLOCK_BYTES)
    tracemalloc.start()
    try:
        r = m2_simulate(WIDE, 2000, RngSeed(5), threads=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (r.trials, r.truncated) == (2000, 0)
    assert peak < 500 * 1000 * 8, peak


def test_block_fold_loses_no_update_under_thread_contention(monkeypatch):
    # 8 threads on 500 blocks, switching as often as the interpreter
    # allows: an update lost in the fold would show as a report that
    # differs from the one-thread run
    monkeypatch.setattr(_parallel, "BLOCK_BYTES", TINY_BLOCK_BYTES)
    one = m2_simulate(WIDE, 2000, RngSeed(6), threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        many = m2_simulate(WIDE, 2000, RngSeed(6), threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert many == one and many.trials == 2000


def _bool_walk_chunk(selects, m, g, count, max_steps):
    """_walk_chunk as it was with one flat bool seen array a side, frozen
    as the oracle of the digit-coded kernel: it kept each absorbed walk's
    flat offset and tallied the offsets modulo m."""
    seen = [np.zeros(count * m, dtype=bool) for _ in selects]
    u = np.empty(count)
    rows = np.arange(0, count * m, m)
    absorbed = np.empty(count, dtype=np.int64)
    for step in range(max_steps):
        if rows.size == 0:
            break
        side = step % len(selects)
        at = _alias_draw(*selects[side], g, rows.size, u)
        at += rows
        hit = seen[side - 1].take(at)
        seen[side][at] = True
        done = hit.nonzero()[0]
        if done.size:
            gone = count - rows.size
            at.take(done, out=absorbed[gone:gone + done.size], mode="wrap")
            rows = rows.take(np.logical_not(hit, out=hit).nonzero()[0])
    tally = absorbed[:count - rows.size]
    tally %= m
    return np.bincount(tally, minlength=m), int(rows.size)


def _grouped(rng, m):
    """A source whose colors share two or three masses, in shuffled order."""
    classes = rng.exponential(size=int(rng.integers(2, 4)))
    p = classes[rng.integers(classes.size, size=m)]
    return rng.permutation(p / p.sum())


def test_digit_kernel_matches_the_bool_kernel_bit_for_bit():
    # witness pairs at their own horizon, and grouped one- and two-side
    # sources with horizons short enough to truncate some walks
    rng = np.random.default_rng(20261020)
    cases = []
    for n in (16, 24, 64, 100, 256):
        sp = witness_family(n)
        cases.append(([sp.left.probs, sp.right.probs], 4000,
                      _walk_horizon(sp, 4000)))
    for _ in range(30):
        m = int(rng.integers(2, 90))
        k = int(rng.integers(1, 3))
        cases.append(([_grouped(rng, m) for _ in range(k)],
                      int(rng.integers(1, 3000)),
                      int(rng.integers(1, k * (m + 1) + 3))))
    truncating = 0
    for case, (sides, count, horizon) in enumerate(cases):
        selects = [_alias_select(*_alias_tables(p)) for p in sides]
        m = len(sides[0])
        got = _walk_chunk(selects, m, RngSeed(case).generator(), count,
                          horizon)
        want = _bool_walk_chunk(selects, m, RngSeed(case).generator(), count,
                                horizon)
        assert got[0].dtype == want[0].dtype
        assert (got[0].tolist(), got[1]) == (want[0].tolist(), want[1]), case
        truncating += 0 < got[1] < count
    assert truncating >= 5
