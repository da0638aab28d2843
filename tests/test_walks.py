"""The walk kernel against a one-walk-at-a-time replay.

_replay consumes the same generator the same way (one g.random(live) per
step) but applies the alias rule per walk in Python floats, keeps Python
sets per walk and side, and marks only the walks that survive a step.  It
never calls _alias_draw, so it guards the kernel's flat seen-set offsets,
its mark-before-drop order and its compaction independently.
"""

import numpy as np

from pairlaw import RngSeed
from pairlaw.dist_core import _alias_tables
from pairlaw.pair_laws import _walk_chunk


def _replay(sides, g, count, max_steps):
    """Absorption counts and truncation count of count walks, walk by walk."""
    m = len(sides[0])
    tables = [tuple(t.tolist() for t in _alias_tables(p)) for p in sides]
    seen = [[set() for _ in range(count)] for _ in sides]
    live = list(range(count))
    counts = [0] * m
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
        live = survivors
    return counts, len(live)


def _source(rng, m):
    """A probability vector on m colors with some colors of zero mass."""
    p = rng.exponential(size=m)
    p[rng.random(m) < 0.3] = 0.0
    if not p.any():
        p[rng.integers(m)] = 1.0
    return p / p.sum()


def test_walk_chunk_matches_the_replay_on_fuzz():
    rng = np.random.default_rng(20261018)
    truncating = zero_mass = 0
    for case in range(80):
        m = int(rng.integers(1, 71))
        sides = [_source(rng, m) for _ in range(int(rng.integers(1, 3)))]
        count = int(rng.integers(1, 301))
        # a repeat is certain within m + 1 draws of one side, and within
        # 2m + 2 alternating draws once the supports overlap
        max_steps = int(rng.integers(1, len(sides) * (m + 1) + 3))
        tables = [_alias_tables(p) for p in sides]
        got_counts, got_trunc = _walk_chunk(
            tables, m, RngSeed(case).generator(), count, max_steps)
        want_counts, want_trunc = _replay(
            sides, RngSeed(case).generator(), count, max_steps)
        assert got_counts.tolist() == want_counts, (case, m, len(sides))
        assert got_trunc == want_trunc, (case, m, len(sides))
        assert got_counts.sum() + got_trunc == count
        truncating += 0 < got_trunc < count
        zero_mass += any((p == 0).any() for p in sides)
    # the fuzz reaches partial truncation and zero-mass colors
    assert truncating >= 10 and zero_mass >= 40
