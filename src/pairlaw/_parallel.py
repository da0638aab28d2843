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


def effective_threads(threads: int | None) -> int:
    """Resolve a thread count: explicit argument, then the PAIRLAW_THREADS
    environment variable, then the machine's CPU count."""
    if threads is None:
        env = os.environ.get(THREADS_ENV, "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError as exc:
                raise InputError(f"{THREADS_ENV}={env!r} is not an integer") from exc
        else:
            threads = os.cpu_count() or 1
    return max(1, threads)


#: Most rows per block, one seed stream each; never derived from the
#: thread count, so a seed and a row count fix every seeded result.
SIM_CHUNK = 1 << 16


#: Most rows of one plan: search points or simulated walks, 1,000 times
#: the CLI's default --trials.  On 2 cores (numpy 2.4) it bounds an m = 3
#: search near 2.5 min (0.15 s per 10^6 points) and three-color socks walks
#: near 1 min; a witness-family walk at 10^4 colors costs 8 to 20 us, so
#: there it bounds about 2 to 6 h.
MAX_ROWS = 10 ** 9


def _blocks(total: int, row_bytes: int) -> list[tuple[int, int]]:
    """(block index, row count) pairs covering total rows in equal blocks,
    the last one short, refused before any planning past MAX_ROWS.  Blocks
    shrink below SIM_CHUNK rows only to keep a block's row_bytes-wide
    working matrix near 64 MB; the plan depends on nothing else."""
    if total > MAX_ROWS:
        raise DomainError(f"{total} rows pass the {MAX_ROWS}-row cap")
    chunk = min(SIM_CHUNK, max(64, (1 << 26) // row_bytes))
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
