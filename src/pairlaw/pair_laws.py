"""The two pair-color laws of a matching experiment and their discrepancy.

Method 1 draws two objects at a time, with no memory, discarding mismatched
pairs until a draw matches; Method 2 draws one object at a time, keeping
everything, until some color has been seen twice.  Both procedures stop at
a same-color pair and so induce a law on colors, and the two laws disagree
for every non-uniform source.  This module computes both laws exactly (the
second as a Poisson integral, by Gauss quadrature), their total variation
distance, expected draw-count statistics, and two independent verification
routes: an exhaustive absorption solve over sets of seen colors, and
seeded Monte Carlo.  Each route is one kernel for one sequence and for the
shoes module's two: _chain_law sweeps the walk that _walk_chunk samples,
and _simulate drives it.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._parallel import _blocks, map_ordered
from .dist_core import (COLUMN_MAX_COLORS, Distribution, _alias_draw,
                        _alias_select, _alias_tables)
from .errors import (DomainError, ExcessTruncation, IndexMismatch,
                     InternalFault, ToleranceNotMet, TooManyColors)

M1 = "m1"
M2 = "m2"

#: The exhaustive solve sweeps all 2^m seen-color sets; past this size its
#: state tables no longer fit in a sensible footprint.
ORACLE_MAX_COLORS = 20

#: The exact rule's largest node is near 2m; past this many colors it
#: passes t = 490, where prod_j (1 + p_j t) can reach e^t and overflow.
LAGUERRE_MAX_COLORS = 256

#: Entries of one block of Gauss nodes in _poisson_sums: a one-row
#: source of up to LAGUERRE_MAX_COLORS colors takes all its nodes in one
#: pass, and a block of colors x rows past it takes one node a pass.
NODE_GROUP_ENTRIES = 1 << 16

#: Derived laws must renormalize to one at least this well.
LAW_SUM_TOL = 1e-10

#: Agreement demanded between the three equivalent total-variation forms.
TVD_FORM_TOL = 1e-12


@dataclass(frozen=True)
class PairLaw:
    """A probability law over colors produced by one of the two methods."""

    method: str
    probs: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.method not in (M1, M2):
            raise DomainError(f"unknown method {self.method!r}")
        try:
            total = math.fsum(self.probs)
        except (OverflowError, ValueError):  # past the float range, inf - inf
            total = math.nan
        if not (abs(total - 1.0) <= LAW_SUM_TOL and min(self.probs) >= 0.0):
            raise InternalFault(
                f"law entries sum to {total!r}; derivation bug")

    def __len__(self) -> int:
        return len(self.probs)


@dataclass(frozen=True)
class DrawStats:
    """Expected draw counts of the two procedures on one source."""

    expected_draws_m2: float
    expected_pairs_m1: float


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo estimate of a pair law.

    trials counts the runs that actually absorbed (and were tallied);
    truncated counts runs cut off at the step horizon.  estimated_probs
    sums to 1.0 exactly, and std_errors are the per-color binomial
    sqrt(q * (1 - q) / trials) at the estimated q.
    """

    estimated_probs: tuple[float, ...]
    trials: int
    seed: int
    std_errors: tuple[float, ...]
    truncated: int = field(default=0)


def match_probability(d: Distribution) -> float:
    """f_2 = sum of squared entries: the chance one two-draw round matches."""
    return math.fsum(p * p for p in d.probs)


def derive_m1(d: Distribution) -> PairLaw:
    """Law of the pair color under memoryless two-at-a-time draws.

    Conditioning a single round on "both draws agree" weights color i by
    p_i squared; f_2 normalizes.
    """
    f2 = match_probability(d)
    return PairLaw(M1, tuple(p * p / f2 for p in d.probs))


def _gauss(diag: np.ndarray, off: np.ndarray,
           mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights of a Jacobi matrix (diagonal, off-diagonal)
    for a weight function of total `mass`: its eigenvalues polished by
    Newton on the orthonormal recurrence q_0..q_n, and the Christoffel
    weights 1 / sum_{j<n} q_j(t)^2."""
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    scale = np.append(off, 1.0)  # q_n is needed only up to scale
    for _ in range(3):
        prev, cur = 0.0, np.full_like(t, mass ** -0.5)
        dprev = dcur = squares = 0.0
        for j in range(diag.size):
            squares = squares + cur * cur
            back = off[j - 1] if j else 0.0
            nxt = ((t - diag[j]) * cur - back * prev) / scale[j]
            dnxt = (cur + (t - diag[j]) * dcur - back * dprev) / scale[j]
            prev, cur, dprev, dcur = cur, nxt, dcur, dnxt
        t = t - cur / dcur
    return t, 1.0 / squares


@functools.lru_cache(maxsize=None)
def _laguerre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule of the weight e^{-t} on (0, inf)."""
    return _gauss(np.arange(1.0, 2.0 * n, 2.0), np.arange(1.0, n), 1.0)


@functools.lru_cache(maxsize=None)
def _panels() -> tuple[np.ndarray, np.ndarray]:
    """40 panels of the 16-point Gauss-Legendre rule, tiling [0, 1]."""
    j = np.arange(1.0, 16.0)
    x, w = _gauss(np.zeros(16), j / np.sqrt(4.0 * j * j - 1.0), 2.0)
    return ((np.arange(40.0)[:, None] + 0.5 * (x + 1.0)).ravel() / 40.0,
            np.tile(w / 80.0, 40))


def _nodes_per_row(m: int) -> int:
    """Gauss nodes _poisson_sums spends on a row of m colors."""
    return m // 2 + 1 if m <= LAGUERRE_MAX_COLORS else _panels()[0].size


def _poisson_sums(P: np.ndarray,
                  moment: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The one-at-a-time sums of each row: with the draws embedded in a
    rate-1 Poisson process and F(t) = prod_j (1 + p_j t),
        sum_k (k+1)! e_k(p without i) = integral of t e^{-t} F / (1 + p_i t)
    per (color, row) of a colors x rows block, and, if `moment` is set
    (zeros if not), sum_k k! e_k(p) = integral over t > 0 of e^{-t} F(t)
    per row.

    Up to LAGUERRE_MAX_COLORS colors the floor(m/2) + 1 node
    Gauss-Laguerre rule has no error; above, 40 Gauss-Legendre panels on
    [0, 40 / sqrt(f_2) + 40] take factors (1 + p_j t) e^{-p_j t} <= 1,
    which cannot overflow.  Every node adds positive terms, and only
    products over one row's colors mix entries.

    The nodes run in groups of one (nodes, colors, rows) block of at most
    NODE_GROUP_ENTRIES entries (one node when a block alone is larger),
    in one reused buffer, and a second for the panel rule's damped
    factors.  Each entry sees the same operations in the same order
    whatever the grouping: the products reduce over the colors one by
    one, and the nodes fold into both sums in node order, so a row's bits
    do not depend on the rows beside it.
    """
    Q = np.ascontiguousarray(P.T)
    m, rows = Q.shape
    exact = m <= LAGUERRE_MAX_COLORS
    if exact:
        nodes, weights = (v[:, None] for v in _laguerre(_nodes_per_row(m)))
    else:  # row sums run along contiguous rows, as in a one-row block
        P = np.ascontiguousarray(P)
        unit, unit_weights = _panels()
        span = 40.0 / np.sqrt(np.square(P).sum(axis=1)) + 40.0
        nodes = unit[:, None] * span
        # the damped factors carry e^{-t sum p}; the weights make it e^{-t}
        weights = unit_weights[:, None] * span * np.exp(
            nodes * (P.sum(axis=1) - 1.0))
    acc = np.zeros_like(Q)
    total = np.zeros(rows)
    group = max(1, NODE_GROUP_ENTRIES // Q.size)
    X = np.empty((min(group, len(nodes)), m, rows))
    damped = X if exact else np.empty_like(X)
    for start in range(0, len(nodes), group):
        t = nodes[start:start + group]
        x, d = X[:len(t)], damped[:len(t)]
        np.multiply(Q, t[:, None], out=x)
        x += 1.0
        if not exact:
            np.subtract(1.0, x, out=d)
            np.exp(d, out=d)
            d *= x
        F = np.multiply.reduce(d, axis=1)
        F *= weights[start:start + group]
        if moment:  # not F.sum(axis=0), which may add pairwise
            for f in F:
                total += f
        F *= t
        for a in np.divide(F[:, None], x, out=x):
            acc += a
    return acc, total


def _m2_rows(P: np.ndarray) -> np.ndarray:
    """The one-at-a-time law of each row of a matrix of distributions.

    P(Y = i) = p_i^2 * sum_k (k+1)! e_k(p with entry i removed): the k-th
    summand is the chance the first k draws are distinct, avoid color i,
    and draw k+1 then repeats one earlier color, with the repeat being i.
    """
    return _poisson_sums(P)[0].T * P * P


def derive_m2(d: Distribution) -> PairLaw:
    """Law of the first color completed under one-at-a-time draws: the
    one-row case of _m2_rows."""
    return PairLaw(M2, tuple(_m2_rows(d.as_array()[None, :])[0].tolist()))


@functools.lru_cache(maxsize=None)
def _chain_states(k: int, m: int) -> list[tuple]:
    """The reachable digit-coded states of a k-side chain on m colors:
    every seen set with one side; with two, the states where both sides
    have seen a color, the empty state and the m one-left states,
    3^m - 2^(m+1) + m + 2 in all.  Each level grows by the walk's moves,
    side `level`'s alone on the first k; int32 codes rely on the callers' caps.

    Per level, in index order: the marks, for each side s which colors of
    each state carry digit s + 1, and with two sides which do not; each
    state's unseen colors in color order; and for each side s the int32
    rank in the next level of the state that marking each unseen color
    s + 1 reaches, or the level's size if no walk makes it.  Free of the
    probabilities, it is cached per (k, m): 73 MB at the 20-color cap.
    """
    digit = np.arange(1, k + 1, dtype=np.int32)[:, None, None]
    place = (k + 1) ** np.arange(m, dtype=np.int32)
    colors = np.arange(m, dtype=np.int8)
    rank = np.empty((k + 1) ** m, dtype=np.int32)
    codes = np.zeros(1, dtype=np.int32)
    levels = []
    for level in range(m + 1):
        marks = codes[:, None] // place % (k + 1) == digit
        unseen = np.broadcast_to(colors, marks.shape[1:])[~marks.any(axis=0)]
        unseen = unseen.reshape(codes.size, m - level)
        moves = slice(level, level + 1) if level < k else slice(k)
        ahead = codes[:, None] + digit[moves] * place[unseen]
        reached = np.zeros((k + 1) ** m, dtype=bool)
        reached[ahead] = True
        codes = np.flatnonzero(reached).astype(np.int32)
        rank[codes] = np.arange(codes.size)
        successors = np.full((k,) + unseen.shape, codes.size, np.int32)
        successors[moves] = rank[ahead]
        if k == 2:  # and their complements, which the cycle's gap reads
            marks = np.concatenate([marks, ~marks])
        levels.append((marks, unseen, successors))
    return levels


def _chain_law(sides: Sequence[np.ndarray]) -> np.ndarray:
    """Exact absorption law of the walk that _walk_chunk samples, with one
    probability array per side.

    A color's digit is 0 while unseen and s + 1 once seen on side s; a
    state is the index sum_c digit_c (k + 1)^c.  Side s draws color c with
    probability sides[s][c]: an unseen c moves the walk one level up and
    passes the turn, and digit (s - 1) % k + 1 absorbs (a repeat with one
    side, a color seen on the other side with two).  With two sides a
    repeat on the drawer's own set only passes the turn.  With alpha, beta
    the p-, q-mass of the left-, right-seen sets and inflows I_L, I_R
    arriving on each side's turn, that cycle's occupations are
    u = (I_L + beta I_R) / (1 - alpha beta) and v = I_R + alpha u, the
    denominator taken as (p-mass off the left-seen set) + alpha (q-mass
    off the right-seen set): nonnegative terms, so full relative precision
    however close alpha beta comes to one, and positive, as some color has
    mass on both sides, though a subnormal one can overflow u, which
    shoes_m2_exact traps.  Levels, counts of seen colors, are swept in order
    over the reachable states with inflow (all of them on a source with no
    zero entry); the zero flow to an unreachable state lands in a spare
    bin.  Exponential in m by design: it shares no code with the Poisson
    quadrature or the walks it checks.
    """
    k, m = len(sides), sides[0].size
    levels = _chain_states(k, m)
    absorb = np.zeros(m)
    inflow = np.eye(k, 1)  # one walk at the empty state, side 0 to draw
    for level, (marks, unseen, successors) in enumerate(levels):
        live = inflow.any(axis=0)
        if not live.all():  # compress keeps the tables C-contiguous
            marks, successors, inflow = (table.compress(live, axis=1) for table
                                         in (marks, successors, inflow))
            unseen = unseen[live]
        if k == 1:
            occupancy = inflow
        else:
            p, q = sides
            left, right, off_left, off_right = marks
            alpha, beta = left @ p, right @ q
            gap = off_left @ p + alpha * (off_right @ q)
            u = (inflow[0] + beta * inflow[1]) / gap
            occupancy = u, inflow[1] + alpha * u
        width = len(levels[level + 1][1]) + 1 if level < m else 1
        ahead = np.empty((k, width))
        for s, (probs, u) in enumerate(zip(sides, occupancy)):
            absorb += u @ marks[(s - 1) % k] * probs
            flow = u[:, None] * probs.take(unseen)
            ahead[(s + 1) % k] = np.bincount(successors[s].ravel(),
                                             flow.ravel(), width)
        inflow = ahead[:, :-1]
    return absorb


def m2_oracle_exact(d: Distribution) -> PairLaw:
    """The one-at-a-time law by exhaustive absorption over seen-color sets:
    the one-side case of _chain_law, over all 2^m sets, hence the cap."""
    if len(d) > ORACLE_MAX_COLORS:
        raise TooManyColors(f"exhaustive solve capped at {ORACLE_MAX_COLORS} colors")
    return PairLaw(M2, tuple(_chain_law([d.as_array()]).tolist()))


def _walk_chunk(selects: Sequence[tuple[np.ndarray, np.ndarray]], m: int,
                g: np.random.Generator, count: int,
                max_steps: int) -> tuple[np.ndarray, int]:
    """Absorption counts and truncation count for one chunk of walks.

    Step s draws from side s % k, k = len(selects), with that side's
    _alias_select tables; all live walks are at the same step, so one
    draw serves the batch.  Colors carry _chain_law's digits: 0 while
    unseen and s + 1 once seen on side s, and side s absorbs on digit
    (s - 1) % k + 1, a repeat with one side and the other side's color
    with two.  A live walk never holds a color on both sides, as the
    second sighting absorbs, so one digit a color is enough.

    The digits are one flat count * m int8 array, walk w owning entries
    w * m .. w * m + m - 1, and the live walks are kept as their row
    offsets, so a lookup or a mark is one 1-D gather or scatter at
    rows + color.  Every drawn walk is marked before the absorbed ones are
    dropped: a dropped walk's row is never read again, so only the offsets
    are compacted, through index lists (nonzero, then take).  Absorbed
    walks leave their color in one buffer, tallied at the end, and the
    uniforms of every step are drawn into another.
    """
    k = len(selects)
    seen = np.zeros(count * m, dtype=np.int8)
    u = np.empty(count)
    at = np.empty(count, dtype=np.int64)
    rows = np.arange(0, count * m, m)
    absorbed = np.empty(count, dtype=np.int64)
    for step in range(max_steps):
        if rows.size == 0:
            break
        side = step % k
        color = _alias_draw(*selects[side], g, rows.size, u)
        spot = np.add(color, rows, out=at[:rows.size])
        hit = seen.take(spot) == (side - 1) % k + 1
        seen[spot] = side + 1
        done = hit.nonzero()[0]
        if done.size:
            gone = count - rows.size
            # indices in range: "wrap" spares the copy "raise" makes for out
            color.take(done, out=absorbed[gone:gone + done.size], mode="wrap")
            rows = rows.take(np.logical_not(hit, out=hit).nonzero()[0])
    return (np.bincount(absorbed[:count - rows.size], minlength=m),
            int(rows.size))


#: A truncated fraction at or above this fails the run rather than biasing
#: the estimate quietly.
TRUNCATION_FRACTION = 1e-6


#: Most colors of one simulation.  Beside its walks a run holds its laws
#: as Python floats and its alias tables, about 250 bytes a color: under
#: the 2 GiB address-space limit of the CLI's bounded-input test (2 cores,
#: numpy 2.4) a witness ladder of 7 * 10^6 colors ran at a 1.7 GB peak,
#: 8 * 10^6 raised MemoryError, and 200 walks at the cap peaked at 1.0 GB.
SIM_MAX_COLORS = 1 << 22


def _walk_plan(trials: int, m: int) -> list[tuple[int, int]]:
    """The blocks of a simulation of `trials` walks on m colors, refused
    past SIM_MAX_COLORS.  Either simulator plans 2 * m bytes a walk, so
    socks and shoes share one plan; the kernel holds m, one int8 digit a
    color, and keeps the plan its seeded outputs were drawn on."""
    if m > SIM_MAX_COLORS:
        raise DomainError(f"{m} colors are past the {SIM_MAX_COLORS}-color "
                          f"simulation cap")
    return _blocks(trials, 2 * m)


def _simulate(sides: Sequence[Sequence[float]], trials: int, seed,
              horizon: int, threads: int | None) -> SimReport:
    """Monte Carlo of the walk that _walk_chunk samples, with one
    probability sequence per side: `trials` walks of at most `horizon`
    steps.

    Trials are split into the blocks of _walk_plan, one derived seed
    stream per block, planned (or refused) before any table is built.
    Each block's counts are folded into one total as the block finishes;
    they are integer sums, so the report is a pure function of (sides,
    trials, seed, horizon) whatever the thread count or the order the
    blocks finish in, and only the blocks in flight hold counts of their
    own.  Walks that outlive the horizon are dropped from the tally and
    counted; a truncated fraction reaching
    TRUNCATION_FRACTION raises ExcessTruncation, since truncation
    preferentially discards slow-absorbing colors.
    """
    if trials < 1:
        raise DomainError("trials must be at least 1")
    m = len(sides[0])
    plan = _walk_plan(trials, m)
    selects = [_alias_select(*_alias_tables(p)) for p in sides]
    counts = np.zeros(m, dtype=np.int64)
    fold = threading.Lock()

    def run(block: int, count: int) -> int:
        block_counts, truncated = _walk_chunk(
            selects, m, seed.stream(block).generator(), count, horizon)
        with fold:
            np.add(counts, block_counts, out=counts)
        return truncated

    truncated = sum(map_ordered(run, plan, threads))
    if truncated >= TRUNCATION_FRACTION * trials:
        raise ExcessTruncation(
            f"{truncated} of {trials} walks ran past {horizon} steps")
    tallied = int(counts.sum())
    freqs = counts / tallied
    # push the float summation residue into the largest entry so the
    # estimate is a bona fide probability vector, exactly
    j = int(np.argmax(freqs))
    freqs[j] += 1.0 - math.fsum(freqs)
    std = np.sqrt(freqs * (1.0 - freqs) / tallied)
    return SimReport(tuple(freqs.tolist()), tallied, seed.seed,
                     tuple(std.tolist()), truncated=truncated)


def m2_simulate(d: Distribution, trials: int, seed, *, threads: int | None = None) -> SimReport:
    """Monte Carlo of the one-at-a-time procedure: one-side walks with
    horizon m + 1, which every walk meets, since m + 1 objects force a
    repeat.  The report is a pure function of (d, trials, seed)."""
    return _simulate([d.probs], trials, seed, len(d) + 1, threads)


def _probs_of(law) -> Sequence[float]:
    """Probability entries of a PairLaw, Distribution, SimReport, or plain
    sequence, so distances can be taken across exact and estimated laws."""
    for attr in ("probs", "estimated_probs"):
        entries = getattr(law, attr, None)
        if entries is not None:
            return entries
    return tuple(float(v) for v in law)


def tvd(a, b) -> float:
    """Total variation distance between two laws on the same color set.

    Computed three equivalent ways (half the L1 distance, the sum of
    positive parts, the sum of negative parts) which must agree to
    TVD_FORM_TOL; disagreement means an unnormalized law slipped in, and
    is reported rather than papered over.
    """
    pa = _probs_of(a)
    pb = _probs_of(b)
    if len(pa) != len(pb):
        raise IndexMismatch(f"laws over {len(pa)} vs {len(pb)} colors")
    diffs = [x - y for x, y in zip(pa, pb)]
    half_l1 = 0.5 * math.fsum(abs(v) for v in diffs)
    pos = math.fsum(v for v in diffs if v > 0.0)
    neg = -math.fsum(v for v in diffs if v < 0.0)
    if abs(pos - half_l1) > TVD_FORM_TOL or abs(neg - half_l1) > TVD_FORM_TOL:
        raise ToleranceNotMet(
            f"total variation forms disagree: {half_l1!r}, {pos!r}, {neg!r}")
    return half_l1


def discrepancy(d: Distribution) -> float:
    """D(p): total variation distance between the two pair laws of d."""
    return tvd(derive_m1(d), derive_m2(d))


def draw_stats(d: Distribution) -> DrawStats:
    """Expected draw counts of both procedures.

    One-at-a-time: E[draws] = sum_k P(first k draws distinct) = sum_k k! e_k,
    at most m + 1, the Poisson integral of _poisson_sums.  Two-at-a-time:
    rounds are geometric with success f_2.
    """
    return DrawStats(
        expected_draws_m2=float(
            _poisson_sums(d.as_array()[None, :], moment=True)[1][0]),
        expected_pairs_m1=1.0 / match_probability(d),
    )


def _discrepancy_rows(P: np.ndarray) -> np.ndarray:
    """Discrepancy of each row; vectorized mirror of discrepancy().  Up to
    COLUMN_MAX_COLORS colors it runs on the color vectors of P.T, whose
    sums over colors are the row sums' bits."""
    if P.shape[1] > COLUMN_MAX_COLORS:
        gap = P * P
        gap /= gap.sum(axis=1, keepdims=True)
        gap -= _m2_rows(P)
        return 0.5 * np.abs(gap, out=gap).sum(axis=1)
    Q = np.ascontiguousarray(P.T)
    gap = Q * Q
    gap /= gap.sum(axis=0)
    gap -= _m2_rows(Q.T).T
    return 0.5 * np.abs(gap, out=gap).sum(axis=0)
