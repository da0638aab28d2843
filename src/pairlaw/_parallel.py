"""Deterministic chunked execution.

Work is split into chunks whose size never depends on the thread count,
and results come back in submission order, so any reduction over them is
reproducible for one thread or many.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

from .errors import DomainError, InputError

T = TypeVar("T")

THREADS_ENV = "PAIRLAW_THREADS"

#: Most threads of one pool, which starts one for each block submitted
#: while none is idle.
MAX_THREADS = 64


def effective_threads(threads: int | None) -> int:
    """Resolve a thread count: explicit argument, then the PAIRLAW_THREADS
    environment variable, then the CPU count; at most MAX_THREADS."""
    if threads is None:
        env = os.environ.get(THREADS_ENV, "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError as exc:
                raise InputError(f"{THREADS_ENV}={env!r} is not an integer") from exc
        else:
            threads = os.cpu_count() or 1
    return min(max(1, threads), MAX_THREADS)


#: Most rows per block, one seed stream each; never derived from the
#: thread count, so a seed and a row count fix every seeded result.
SIM_CHUNK = 1 << 16


#: Bytes of one block's working matrix, the target of the block plan.
BLOCK_BYTES = 1 << 26

#: Most blocks of one plan: 10^9 rows in full SIM_CHUNK blocks, 1,000 times
#: the CLI's default --trials.  On 2 cores (numpy 2.4) it bounds an m = 3
#: search near 2.5 min (0.15 s per 10^6 points) and three-color socks walks
#: near 1 min; blocks of wide rows are shorter, so the cap bounds their rows
#: lower: a witness-family walk at 10^4 colors (3,355 a block) costs 8 to
#: 21 us, and there it bounds about 5.1 * 10^7 walks, 7 to 18 min.
MAX_BLOCKS = -(-10 ** 9 // SIM_CHUNK)


def _blocks(total: int, row_bytes: int) -> list[tuple[int, int]]:
    """(block index, row count) pairs covering total rows in equal blocks,
    the last one short.  Blocks shrink below SIM_CHUNK rows only to keep a
    block's row_bytes-wide working matrix within BLOCK_BYTES, down to one
    row; the plan depends on nothing else.  A row wider than BLOCK_BYTES,
    or a plan of more than MAX_BLOCKS blocks, is refused before anything is
    planned or allocated."""
    if row_bytes > BLOCK_BYTES:
        raise DomainError(f"a row of {row_bytes} bytes is wider than the "
                          f"{BLOCK_BYTES}-byte block")
    chunk = min(SIM_CHUNK, BLOCK_BYTES // row_bytes)
    count = -(-total // chunk)
    if count > MAX_BLOCKS:
        raise DomainError(f"{total} rows make {count} blocks of {chunk}, past "
                          f"the {MAX_BLOCKS}-block cap")
    return [(block, min(chunk, total - start))
            for block, start in enumerate(range(0, total, chunk))]


def map_ordered(fn: Callable[..., T], args_list: Sequence[tuple], threads: int | None) -> list[T]:
    """Apply fn to each argument tuple, in order, possibly concurrently.

    The output list order matches args_list regardless of scheduling, and a
    single-thread run executes in the caller's thread with no pool at all.
    """
    n = effective_threads(threads)
    if n == 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(lambda args: fn(*args), args_list))
