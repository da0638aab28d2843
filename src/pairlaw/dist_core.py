"""Validated probability vectors and the machinery the rest of the library
leans on.

A Distribution is an immutable, validated vector of color probabilities.
The module also holds the two sampling kernels the simulators and the
simplex search share: rows drawn uniformly from the sorted probability
simplex, and constant-time alias-method color draws.  Both are fully
determined by an explicit 64-bit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BadSum, DomainError, Empty, NegativeEntry

#: Absolute tolerance for "entries sum to one".  Tight enough to catch real
#: normalization bugs, loose enough for honest round-off in long sums.
SUM_TOL = 1e-12

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # splitmix64 stream increment


def _mix64(z: int) -> int:
    """splitmix64 finalizer; a bijective scramble of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class RngSeed:
    """Explicit 64-bit seed; equal seeds give bit-identical sample streams."""

    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or not 0 <= self.seed <= _MASK64:
            raise DomainError("seed must be an integer in [0, 2**64)")

    def stream(self, index: int) -> "RngSeed":
        """Seed of the index-th derived stream.

        (seed, index) is mixed through a bijective 64-bit scramble, so
        neighbouring indices do not yield correlated generators and distinct
        indices never collide for a fixed seed.
        """
        if index < 0:
            raise DomainError("stream index must be nonnegative")
        return RngSeed(_mix64(self.seed + _GOLDEN_GAMMA * (index + 1)))

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.PCG64(self.seed))


@dataclass(frozen=True)
class Distribution:
    """Finite vector of color probabilities.

    Entries are nonnegative and sum to one within SUM_TOL; nothing is ever
    renormalized silently.  Sortedness is not an invariant.
    """

    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.probs) == 0:
            raise Empty("a distribution needs at least one entry")
        for v in self.probs:
            if not (v >= 0.0):  # catches NaN as well as negatives
                raise NegativeEntry(f"entry {v!r} is not a nonnegative number")
        total = math.fsum(self.probs)
        if abs(total - 1.0) > SUM_TOL:
            raise BadSum(f"entries sum to {total!r}, not 1 within {SUM_TOL}")

    def __len__(self) -> int:
        return len(self.probs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)


def validate(raw: Iterable[float]) -> Distribution:
    """Build a Distribution from any iterable of numbers, or raise.

    Raises Empty, NegativeEntry, or BadSum; never adjusts the entries.
    """
    return Distribution(tuple(float(v) for v in raw))


#: Up to this many entries numpy's row sum adds left to right (its pairwise
#: sum starts at 8), so a block of at most this many colors runs as color
#: vectors, one whole vector an operation, with the row path's bits.
COLUMN_MAX_COLORS = 7

#: Compare-exchange networks ordering m = 1..COLUMN_MAX_COLORS entries
#: with the fewest comparators known (0, 1, 3, 5, 9, 12, 16): pair (i, j),
#: i < j, leaves the larger entry at i.
SORT_NETWORKS = (
    (), (),
    ((0, 1),),
    ((0, 2), (0, 1), (1, 2)),
    ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    ((0, 3), (1, 4), (0, 2), (1, 3), (0, 1), (2, 4), (1, 2), (3, 4), (2, 3)),
    ((0, 5), (1, 3), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5), (0, 1), (2, 3),
     (4, 5), (1, 2), (3, 4)),
    ((0, 6), (2, 3), (4, 5), (0, 2), (1, 4), (3, 6), (0, 1), (2, 5), (3, 4),
     (1, 2), (4, 6), (2, 3), (4, 5), (1, 2), (3, 4), (5, 6)),
)


def _sort_colors(Q: np.ndarray) -> None:
    """Put each column of Q, of at most COLUMN_MAX_COLORS entries, in
    nonincreasing order in place: the SORT_NETWORKS pass of its size, one
    np.minimum and one np.maximum on whole color vectors a comparator."""
    low = np.empty(Q.shape[1])
    for i, j in SORT_NETWORKS[len(Q)]:
        np.minimum(Q[i], Q[j], out=low)
        np.maximum(Q[i], Q[j], out=Q[i])
        Q[j] = low


def _sorted_simplex_rows(m: int, count: int, g: np.random.Generator) -> np.ndarray:
    """count independent uniform draws from the nonincreasing probability
    vectors of length m, as rows.

    m standard exponentials normalized by their sum are uniform on the
    simplex (Dirichlet with all parameters 1); sorting folds each draw onto
    the nonincreasing chamber, where the density is again constant.  Up to
    COLUMN_MAX_COLORS colors the rows are the view Q.T of one (colors x
    rows) array, normalized by its color sum and ordered by _sort_colors,
    bit for bit the row sum and sort that wider rows take.
    """
    e = g.standard_exponential((count, m))
    if m > COLUMN_MAX_COLORS:
        e /= e.sum(axis=1, keepdims=True)
        e.sort(axis=1)
        return e[:, ::-1]
    Q = np.ascontiguousarray(e.T)
    Q /= Q.sum(axis=0)
    _sort_colors(Q)
    return Q.T


def _alias_tables(probs: Iterable[float]) -> tuple[np.ndarray, np.ndarray]:
    """Alias-method tables (acceptance threshold, alias index) for a
    probability vector.  Small and large entries are paired two-stack
    style, with the scaled entries as Python floats, which take the same
    IEEE steps as numpy scalars at a fraction of the cost; the tables
    depend only on the vector, never on any seed."""
    p = np.asarray(tuple(probs), dtype=float)
    m = p.size
    scaled = (p * m).tolist()
    accept = np.ones(m)
    alias = np.arange(m, dtype=np.int64)
    small = [i for i, v in enumerate(scaled) if v < 1.0]
    large = [i for i, v in enumerate(scaled) if v >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        (small if scaled[l] < 1.0 else large).append(l)
    # leftovers are within round-off of 1; treat them as certain
    return accept, alias


def _alias_select(accept: np.ndarray,
                  alias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The select tables of _alias_draw: m thresholds and 2m picks.

    u - i is exact for u = m * uniform and i = floor(u), so the fraction
    test u - i < accept[i] is u < i + accept[i] over the reals: for a
    double u, u < threshold i, the least double at or above i + accept[i].
    Picks 2i and 2i + 1 are alias[i] and i.
    """
    column = np.arange(accept.size)
    near = column + accept
    rounded_down = near - column < accept  # both sides exact
    thresholds = np.where(rounded_down, np.nextafter(near, np.inf), near)
    return thresholds, np.column_stack((alias, column)).ravel()


def _alias_draw(thresholds: np.ndarray, picks: np.ndarray,
                g: np.random.Generator, count: int,
                u: np.ndarray) -> np.ndarray:
    """count color indices in one vectorized pass, one uniform per draw,
    from the _alias_select tables of a source.

    Uniform u in [0, m) picks column idx = floor(u) and keeps it when the
    fraction u - idx falls below accept[idx], else takes alias[idx]: one
    gather of the thresholds at idx and one of the picks at
    2 * idx + keep.  The uniforms are drawn into the float buffer u, of
    at least count entries.  idx stays below m: m times the largest
    uniform, 1 - 2^-53, rounds below m for every color count.
    """
    u = g.random(out=u[:count])
    u *= thresholds.size
    idx = u.astype(np.int64)
    keep = u < thresholds.take(idx)
    idx <<= 1
    idx += keep
    return picks.take(idx)
