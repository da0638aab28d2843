"""Alternating left/right pair collection.

Left objects follow distribution p, right objects follow q, and draws
alternate left, right, left, ...  A pair is a left and a right object of
the same color; the one-at-a-time procedure stops at the first draw that
completes such a pair.  Repeats on one side are wasted draws, which makes
the sequential law genuinely different from the single-sequence case even
when p equals q, and lets the discrepancy between the two pair laws climb
arbitrarily close to one along a suitable family of sources.  The exact
law and the simulation are the two-side cases of pair_laws._chain_law and
pair_laws._simulate; the simulation sets its own step horizon from the
pair, long enough that a walk outlives it with chance below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dist_core import Distribution, RngSeed
from .errors import (DomainError, ExcessTruncation, IndexMismatch, InvalidPair,
                     NTooSmall, TooManyColors)
from .pair_laws import (M1, M2, PairLaw, SimReport, _chain_law, _simulate,
                        _walk_plan, tvd)

#: The exact solve sweeps all (left seen, right seen) set pairs: 3^m of
#: them, each with a two-state turn cycle.
SHOES_EXACT_MAX_COLORS = 10

#: Per-walk survival probability the default horizon is engineered for;
#: far below TRUNCATION_FRACTION so expected truncations stay near zero at
#: any realistic trial count.
HORIZON_SURVIVAL = 1e-12

#: A horizon past this many steps (each at least one batched draw) cannot
#: be run out, so it is refused with ExcessTruncation before the first
#: draw.  witness_family(10^7) needs 2,629,386 steps; the cap is passed
#: only when max_i min(p_i, q_i) is below about 5.7e-7.
MAX_HORIZON = 10 ** 8


@dataclass(frozen=True)
class ShoePair:
    """A left distribution and a right distribution over one color set.

    At least one color must have positive mass on both sides, or no pair
    can ever be completed.
    """

    left: Distribution
    right: Distribution

    def __post_init__(self) -> None:
        if len(self.left) != len(self.right):
            raise IndexMismatch(
                f"left has {len(self.left)} colors, right {len(self.right)}")
        if shoes_match_probability(self) == 0.0:
            raise InvalidPair("left and right supports are disjoint")

    def __len__(self) -> int:
        return len(self.left)


def shoes_match_probability(sp: ShoePair) -> float:
    """Chance that one left draw and one right draw agree in color."""
    return math.fsum(p * q for p, q in zip(sp.left.probs, sp.right.probs))


def shoes_m1(sp: ShoePair) -> PairLaw:
    """Law of the pair color when left/right rounds are drawn memorylessly:
    color i gets weight p_i q_i, normalized by the match probability."""
    f2 = shoes_match_probability(sp)
    return PairLaw(M1, tuple(p * q / f2 for p, q in
                             zip(sp.left.probs, sp.right.probs)))


def shoes_m2_exact(sp: ShoePair) -> PairLaw:
    """Exact law of the first completed pair color under alternation: the
    two-side case of _chain_law, over all 3^m (left seen, right seen) set
    pairs, hence the cap."""
    if len(sp) > SHOES_EXACT_MAX_COLORS:
        raise TooManyColors(f"exact solve capped at {SHOES_EXACT_MAX_COLORS} colors")
    return PairLaw(M2, tuple(_chain_law([sp.left.as_array(),
                                         sp.right.as_array()]).tolist()))


def _walk_horizon(sp: ShoePair, trials: int) -> int:
    """The step horizon of sp's walks: a step cap with per-walk survival
    below HORIZON_SURVIVAL, by union bound.

    Take the color i maximizing s = min(p_i, q_i); s > 0 because the pair
    is valid.  Once both sides have drawn i, the walk has absorbed (the
    later of the two draws completes a pair, if nothing did earlier), and
    within 2k steps each side gets k draws, so P(still running) is at most
    2 (1 - s)^k.  A scale like 1 / f_2 alone would miss the coupon-wait of
    pairs whose heavy colors sit on opposite sides.  A horizon past
    MAX_HORIZON raises ExcessTruncation, unless trials is below one, which
    _simulate refuses first, as for every simulation.
    """
    s = max(min(p, q) for p, q in zip(sp.left.probs, sp.right.probs))
    horizon = 2 * math.ceil(math.log(2.0 / HORIZON_SURVIVAL) / s) + 2
    if horizon > MAX_HORIZON and trials >= 1:
        raise ExcessTruncation(f"default horizon of {horizon} steps "
                               f"is past the {MAX_HORIZON}-step cap")
    return horizon


def shoes_m2_simulate(sp: ShoePair, trials: int, seed: RngSeed, *,
                      threads: int | None = None) -> SimReport:
    """Monte Carlo of the alternating procedure: two-side walks, left then
    right, through the one-sequence simulator's driver (pair_laws._simulate:
    walk kernel, seed-stream blocks, truncation check), so results depend
    only on (pair, trials, seed).

    The horizon is always _walk_horizon's, so a walk outlives it with
    chance below HORIZON_SURVIVAL, and a pair past the horizon cap is
    refused before the first draw.
    """
    return _simulate([sp.left.probs, sp.right.probs], trials, seed,
                     _walk_horizon(sp, trials), threads)


@dataclass(frozen=True)
class ValueWithError:
    """A point estimate and a one-sigma error bound (zero when exact)."""

    value: float
    error: float


def shoes_discrepancy(sp: ShoePair, trials: int = 1_000_000,
                      seed: RngSeed | None = None, *,
                      threads: int | None = None) -> ValueWithError:
    """Total variation distance between the two alternating pair laws.

    Solved exactly when the color count allows it; otherwise estimated by
    simulation, which needs a seed.  The
    error field propagates the per-color binomial variances through the
    half-L1 form (the deviations are negatively correlated, so this is an
    upper bound on the one-sigma error).
    """
    m1 = shoes_m1(sp)
    if len(sp) <= SHOES_EXACT_MAX_COLORS:
        return ValueWithError(tvd(m1, shoes_m2_exact(sp)), 0.0)
    if seed is None:
        raise DomainError("the simulation path needs a seed")
    report = shoes_m2_simulate(sp, trials, seed, threads=threads)
    spread = math.fsum(s * s for s in report.std_errors)
    return ValueWithError(tvd(m1, report), 0.5 * math.sqrt(spread))


def witness_family(n: int) -> ShoePair:
    """Head-heavy pair pushing the alternating discrepancy toward one.

    Both sides put most mass on n equal tail colors; the left head mass
    n^(-1/4) dwarfs the right head mass n^(-2/3), so a conditioned pair is
    almost surely the head color, while a sequential walk almost surely
    completes a tail pair first (the head needs a right-side head draw,
    which almost never arrives before some tail collision).
    """
    if n < 16:
        raise NTooSmall("need n of at least 16 to keep both head masses small")
    a = n ** -0.25
    b = n ** (-2.0 / 3.0)
    left = Distribution((a,) + ((1.0 - a) / n,) * n)
    right = Distribution((b,) + ((1.0 - b) / n,) * n)
    return ShoePair(left, right)


@dataclass(frozen=True)
class TrendRow:
    """Witness discrepancy at one family size."""

    n: int
    value: float
    error: float


def sup_one_demo(n_list: Sequence[int], trials: int, seed: RngSeed, *,
                 threads: int | None = None) -> list[TrendRow]:
    """Witness-family discrepancy along a ladder of sizes.

    Each size gets its own derived seed stream; values climb toward one as
    n grows, exhibiting the supremum (never attained at any finite size).
    Every size's color cap and block plan are checked before any pair is
    built, as a pair of n + 1 colors is n + 1 Python floats, and every
    pair's horizon cap before the first walk, so a ladder that cannot run
    is refused at once.
    """
    sizes = [int(n) for n in n_list]
    for n in sizes:
        _walk_plan(trials, n + 1)
    pairs = [witness_family(n) for n in sizes]
    for sp in pairs:
        _walk_horizon(sp, trials)
    rows = []
    for j, (n, sp) in enumerate(zip(sizes, pairs)):
        est = shoes_discrepancy(sp, trials=trials, seed=seed.stream(j),
                                threads=threads)
        rows.append(TrendRow(n, est.value, est.error))
    return rows
