"""Alternating left/right pair collection.

Left objects follow distribution p, right objects follow q, and draws
alternate left, right, left, ...  A pair is a left and a right object of
the same color; the one-at-a-time procedure stops at the first draw that
completes such a pair.  Repeats on one side are wasted draws, which makes
the sequential law genuinely different from the single-sequence case even
when p equals q, and lets the discrepancy between the two pair laws climb
arbitrarily close to one along a suitable family of sources.  The exact
law and the simulation are the two-side cases of pair_laws._chain_law and
pair_laws._walk_chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .dist_core import Distribution, RngSeed, _alias_tables
from .errors import (DomainError, ExcessTruncation, IndexMismatch, InvalidPair,
                     NTooSmall, TooManyColors)
from .pair_laws import M1, M2, PairLaw, SimReport, _chain_law, \
    _report_from_counts, _walks, tvd

#: The exact solve sweeps all (left seen, right seen) set pairs: 3^m of
#: them, each with a two-state turn cycle.
SHOES_EXACT_MAX_COLORS = 10

#: Per-walk survival probability the default horizon is engineered for;
#: far below TRUNCATION_FRACTION so expected truncations stay near zero at
#: any realistic trial count.
HORIZON_SURVIVAL = 1e-12

#: A horizon past this many steps (each at least one batched draw) cannot
#: be run out, so it is refused before the first draw: a default one with
#: ExcessTruncation, an explicit one with DomainError.
#: witness_family(10^7) needs 2,629,386 steps.
MAX_HORIZON = 10 ** 8

#: A truncated fraction at or above this fails the run rather than biasing
#: the estimate quietly.
TRUNCATION_FRACTION = 1e-6

#: A horizon whose absorption bound (_absorption_bound) is at or below
#: this is refused with ExcessTruncation before the first draw: the run
#: would pass with at most about this chance, whatever the trials.
MIN_ABSORPTION_BOUND = 1e-12


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


def _default_horizon(sp: ShoePair) -> int:
    """Step cap with per-walk survival below HORIZON_SURVIVAL, by union
    bound.

    Take the color i maximizing s = min(p_i, q_i); s > 0 because the pair
    is valid.  Once both sides have drawn i, the walk has absorbed (the
    later of the two draws completes a pair, if nothing did earlier), and
    within 2k steps each side gets k draws, so P(still running) is at most
    2 (1 - s)^k.  A scale like 1 / f_2 alone would miss the coupon-wait of
    pairs whose heavy colors sit on opposite sides.
    """
    s = max(min(p, q) for p, q in zip(sp.left.probs, sp.right.probs))
    k = math.ceil(math.log(2.0 / HORIZON_SURVIVAL) / s)
    return 2 * k + 2


def _absorption_bound(sp: ShoePair, max_steps: int) -> float:
    """An upper bound on the chance that one walk absorbs within max_steps.

    A walk can absorb only once some color i has been drawn on both
    sides.  Within T steps the left side draws ceil(T / 2) times and the
    right side floor(T / 2) times, so by union bounds on each side,
    independent of each other, and then over colors, the chance is at most
    sum over i of min(1, k_L p_i) min(1, k_R q_i).
    """
    k_left, k_right = (max_steps + 1) // 2, max_steps // 2
    return math.fsum(min(1.0, k_left * p) * min(1.0, k_right * q)
                     for p, q in zip(sp.left.probs, sp.right.probs))


def shoes_m2_simulate(sp: ShoePair, trials: int, seed: RngSeed,
                      max_steps: int | None = None, *,
                      threads: int | None = None) -> SimReport:
    """Monte Carlo of the alternating procedure.

    Two-side walks, left then right, on the walk kernel and seed-stream
    blocks of the one-sequence simulator, so results depend only on
    (pair, trials, seed, max_steps).
    Walks that outlive max_steps (default: the union-bound horizon, per-walk
    survival below HORIZON_SURVIVAL; either kind refused past MAX_HORIZON)
    are dropped from the tally and counted; a truncated fraction reaching
    TRUNCATION_FRACTION raises ExcessTruncation, since truncation
    preferentially discards slow-absorbing colors.  A max_steps under which
    no walk can be expected to absorb (_absorption_bound at or below
    MIN_ABSORPTION_BOUND) raises it before the first draw; the default
    horizon always passes, as its bound is at least 1 - HORIZON_SURVIVAL.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    if max_steps is None:
        max_steps = _default_horizon(sp)
        if max_steps > MAX_HORIZON:
            raise ExcessTruncation(f"default horizon of {max_steps} steps "
                                   f"is past the {MAX_HORIZON}-step cap")
    elif max_steps > MAX_HORIZON:
        raise DomainError(f"max_steps {max_steps} is past the "
                          f"{MAX_HORIZON}-step cap")
    if max_steps < 2:
        raise DomainError("need at least two steps to complete a pair")
    bound = _absorption_bound(sp, max_steps)
    if bound <= MIN_ABSORPTION_BOUND:
        raise ExcessTruncation(
            f"a walk absorbs within {max_steps} steps with chance at most "
            f"{bound!r}, at or below {MIN_ABSORPTION_BOUND}")
    tables = [_alias_tables(sp.left.probs), _alias_tables(sp.right.probs)]
    counts, truncated = _walks(tables, len(sp), trials, seed, max_steps,
                               threads)
    if truncated >= TRUNCATION_FRACTION * trials:
        raise ExcessTruncation(
            f"{truncated} of {trials} walks ran past {max_steps} steps")
    return _report_from_counts(counts, seed.seed, truncated=truncated)


@dataclass(frozen=True)
class ValueWithError:
    """A point estimate and a one-sigma error bound (zero when exact)."""

    value: float
    error: float


def shoes_discrepancy(sp: ShoePair, exact_if_small: bool = True,
                      trials: int = 1_000_000, seed: RngSeed | None = None,
                      max_steps: int | None = None, *,
                      threads: int | None = None) -> ValueWithError:
    """Total variation distance between the two alternating pair laws.

    Solved exactly when the color count allows it and exact_if_small is
    left on; otherwise estimated by simulation, which needs a seed.  The
    error field propagates the per-color binomial variances through the
    half-L1 form (the deviations are negatively correlated, so this is an
    upper bound on the one-sigma error).
    """
    m1 = shoes_m1(sp)
    if exact_if_small and len(sp) <= SHOES_EXACT_MAX_COLORS:
        return ValueWithError(tvd(m1, shoes_m2_exact(sp)), 0.0)
    if seed is None:
        raise DomainError("the simulation path needs a seed")
    report = shoes_m2_simulate(sp, trials, seed, max_steps, threads=threads)
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
    """
    rows = []
    for j, n in enumerate(n_list):
        est = shoes_discrepancy(witness_family(int(n)), exact_if_small=False,
                                trials=trials, seed=seed.stream(j),
                                threads=threads)
        rows.append(TrendRow(int(n), est.value, est.error))
    return rows
