"""Reference figures: the ROADMAP kernel baselines and the README commands.

    python3 benchmark/baselines.py

Run from the root of a pairlaw checkout.  Library calls run in this
process; each README command runs as a fresh process, as a CLI user would
start it.  Each figure is the best of three runs, or one run where the
first takes over five seconds.  Prints a Markdown table with the core
count and the numpy version.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from run import PINNED

os.environ.update(PINNED)
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402

import pairlaw  # noqa: E402

README_COMMANDS = (
    "derive --dist 0.75,0.25",
    "family --n 2",
    "family --n 9 --action curve --samples 129",
    "limit --kind socks --argmax",
    "limit --kind shoes-diag --argmax",
    "limit --kind shoes-grid --a 0.5 --b 2.0",
    "search --m 3 --points 1000000 --seed 0",
    "shoes derive --left 0.5,0.3,0.2 --right 0.2,0.3,0.5",
    "shoes sup-demo --n 100,1000,10000 --trials 1000000 --seed 0",
)


def best_of(fn) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
        if best > 5.0:
            break
    return best


def _spawn(args: list[str]):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return lambda: subprocess.run([sys.executable, *args], check=True, env=env,
                                  stdout=subprocess.DEVNULL, cwd=ROOT)


def main() -> None:
    uniform = {m: pairlaw.validate([1.0 / m] * m) for m in (100, 1000, 5000)}
    pair = pairlaw.ShoePair(pairlaw.validate([0.1] * 10),
                            pairlaw.validate([0.1] * 10))
    rows = [(f"derive_m2, uniform m = {m}",
             lambda d=d: pairlaw.derive_m2(d)) for m, d in uniform.items()]
    rows += [
        ("simplex_search(3, 10^6)",
         lambda: pairlaw.simplex_search(3, 10 ** 6, pairlaw.RngSeed(0),
                                        threads=1)),
        ("shoes_m2_exact, m = 10", lambda: pairlaw.shoes_m2_exact(pair)),
        ("ell_argmax()", pairlaw.ell_argmax),
        ("import pairlaw.cli (fresh process)",
         _spawn(["-c", "import pairlaw.cli"])),
    ]
    rows += [(f"`pairlaw {c}` (fresh process)",
              _spawn(["-m", "pairlaw.cli", *c.split()]))
             for c in README_COMMANDS]
    print(f"{os.cpu_count()} cores, numpy {numpy.__version__}, one thread\n")
    print("| what | best time |\n|---|---|")
    for name, fn in rows:
        print(f"| {name} | {best_of(fn):.4g} s |", flush=True)


if __name__ == "__main__":
    main()
