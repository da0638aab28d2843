"""The three benchmark workloads, each a fixed list of short requests.

A request is a plain dict so it can be sent to the serving process as
JSON:

- ``id``: unique name within the workload
- ``kind``: which check applies to its output (see checks.py)
- ``call``: ``"cli"`` for an in-process ``pairlaw.cli.main(argv)`` call,
  otherwise the library function it calls
- ``argv`` (cli) or ``args`` (library): the inputs
- ``format``: ``"csv"`` or ``"json"`` for cli requests; library results
  are serialised as JSON after the timed call
- ``meta``: what the checks need to know about the inputs

Every input is drawn from a generator seeded by (seed, workload), so a
seed fixes the whole request list.  Sizes are fixed per workload and
chosen so each request takes at most a few tens of milliseconds at full
host speed, which lets each one be sent many times within one run.
"""

from __future__ import annotations

import numpy as np

WORKLOADS = ("exact-laws", "montecarlo", "limits")

#: derive sizes, log-spaced from 2 to 250 colors, and the source kind of
#: each rung (cycled); the rung at PERMUTED_RUNG is sent a second time with
#: its colors permuted.
DERIVE_LADDER = (2, 3, 5, 8, 12, 18, 27, 40, 60, 90, 135, 200, 250)
SOURCE_KINDS = ("dirichlet", "family", "dirichlet", "uniform")
PERMUTED_RUNG = 6
#: Dirichlet concentration of each Dirichlet rung, in ladder order.  It is
#: fixed rather than drawn: below about 0.6 at 250 colors the scaled
#: symmetric sums underflow into subnormals, whose slow arithmetic would
#: make a request's cost swing with the seed.
DIRICHLET_ALPHA = (0.3, 3.0, 0.5, 1.0, 2.0, 1.0, 3.0)
SHOES_EXACT_SIZES = (2, 3, 4, 5, 6, 7)

#: montecarlo sizes: (colors, points) per search, (colors, group size,
#: trials) per simulated shoes derive, (colors, trials) per library call.
#: Simulated sources share one concentration, and the library shoes
#: pairs put one source on both sides: the walk length, and so the cost,
#: of a shoes pair swings fivefold across independent draws of varied
#: concentration.
SIM_ALPHA = 2.0
SEARCH_SIZES = ((3, 16384), (5, 8192), (7, 6144), (9, 3072), (12, 2048))
SHOES_SIM_SIZES = ((12, 3, 8192), (16, 2, 8192), (24, 4, 8192))
SUP_DEMO_SIZES = (16, 64, 256)
SUP_DEMO_TRIALS = 8192
M2_SIM_SIZES = ((3, 81920), (6, 65536), (10, 49152))
SHOES_LIB_SIZES = ((3, 32768), (5, 32768))

#: limits: the argmax tolerance that keeps each argmax request short, the
#: ranges the family maxima are drawn from (one n from each; the first
#: three lie in the paper's table), the family curve, and the sizes of
#: the convergence check.
ARGMAX_TOL = 1e-6
FAMILY_STRATA = ((1, 3), (4, 6), (7, 9), (10, 17), (18, 24))
FAMILY_CURVE = (6, 33)
CONVERGENCE_SIZES = (100, 10 ** 4, 10 ** 6)

#: Entries below this are redrawn: their squares would sit near the
#: subnormal range, where a relative check on p_i^2-sized law entries
#: means nothing.
MIN_ENTRY = 1e-150


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _text(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _dirichlet(g: np.random.Generator, m: int, alpha: float) -> list[float]:
    while True:
        p = g.dirichlet(np.full(m, alpha))
        p /= p.sum()
        if p.min() >= MIN_ENTRY:
            return p.tolist()


def _family(g: np.random.Generator, m: int) -> list[float]:
    n = m - 1
    lo = 1.0 / (n + 1)
    x = lo + (1.0 - lo) * g.uniform(0.05, 0.95)
    p = [x] + [(1.0 - x) / n] * n
    return [p[i] for i in g.permutation(m)]


def _cli(rid: str, kind: str, argv: list[str], **meta) -> dict:
    return {"id": rid, "kind": kind, "call": "cli", "argv": argv, "meta": meta}


def _lib(rid: str, kind: str, call: str, **args) -> dict:
    return {"id": rid, "kind": kind, "call": call, "args": args, "meta": {}}


def _alternate_formats(requests: list[dict]) -> list[dict]:
    """Give cli requests CSV and JSON in turn, so half use each format."""
    cli = [r for r in requests if r["call"] == "cli"]
    for i, r in enumerate(cli):
        r["format"] = ("csv", "json")[i % 2]
    return requests


def exact_laws(seed: int) -> list[dict]:
    g = _rng(seed, "exact-laws")
    out = []
    alphas = iter(DIRICHLET_ALPHA)
    for rung, m in enumerate(DERIVE_LADDER):
        kind = SOURCE_KINDS[rung % len(SOURCE_KINDS)]
        if kind == "uniform":
            p = [1.0 / m] * m
        elif kind == "family":
            p = _family(g, m)
        else:
            p = _dirichlet(g, m, next(alphas))
        out.append(_cli(f"derive-{kind}-{m}", "derive",
                        ["derive", "--dist", _text(p)], p=p, source=kind))
        if rung == PERMUTED_RUNG:
            perm = [int(i) for i in g.permutation(m)]
            out.append(_cli(f"derive-permuted-{m}", "derive",
                            ["derive", "--dist", _text(p[i] for i in perm)],
                            p=[p[i] for i in perm], source=kind,
                            permutation_of=f"derive-{kind}-{m}", perm=perm))
    for m in SHOES_EXACT_SIZES:
        p = _dirichlet(g, m, 1.0)
        q = _dirichlet(g, m, 1.0)
        out.append(_cli(f"shoes-exact-{m}", "shoes_exact",
                        ["shoes", "derive", "--left", _text(p), "--right",
                         _text(q), "--exact"], p=p, q=q))
    return _alternate_formats(out)


def _grouped_pair(g: np.random.Generator, m: int, group: int) -> tuple:
    """Left and right sources whose colors come in groups of equal mass on
    both sides, so the estimates of one group must agree."""
    k = m // group
    left = np.repeat(np.asarray(_dirichlet(g, k, SIM_ALPHA)) / group, group)
    right = np.repeat(np.asarray(_dirichlet(g, k, SIM_ALPHA)) / group, group)
    groups = [list(range(j * group, (j + 1) * group)) for j in range(k)]
    return left.tolist(), right.tolist(), groups


def montecarlo(seed: int) -> list[dict]:
    g = _rng(seed, "montecarlo")

    def stream_seed() -> int:
        return int(g.integers(2 ** 32))

    out = []
    for m, points in SEARCH_SIZES:
        s = stream_seed()
        out.append(_cli(f"search-{m}", "search",
                        ["search", "--m", str(m), "--points", str(points),
                         "--seed", str(s), "--threads", "1"],
                        m=m, points=points, seed=s))
    for m, group, trials in SHOES_SIM_SIZES:
        p, q, groups = _grouped_pair(g, m, group)
        s = stream_seed()
        out.append(_cli(f"shoes-sim-{m}", "shoes_sim",
                        ["shoes", "derive", "--left", _text(p), "--right",
                         _text(q), "--trials", str(trials), "--seed", str(s),
                         "--threads", "1"],
                        p=p, q=q, groups=groups, trials=trials, seed=s))
    s = stream_seed()
    out.append(_cli("sup-demo", "sup_demo",
                    ["shoes", "sup-demo", "--n",
                     ",".join(map(str, SUP_DEMO_SIZES)), "--trials",
                     str(SUP_DEMO_TRIALS), "--seed", str(s), "--threads", "1"],
                    n=list(SUP_DEMO_SIZES), trials=SUP_DEMO_TRIALS, seed=s))
    for m, trials in M2_SIM_SIZES:
        out.append(_lib(f"m2-simulate-{m}", "m2_simulate", "m2_simulate",
                        p=_dirichlet(g, m, SIM_ALPHA), trials=trials,
                        seed=stream_seed()))
    for m, trials in SHOES_LIB_SIZES:
        p = _dirichlet(g, m, SIM_ALPHA)
        out.append(_lib(f"shoes-simulate-{m}", "shoes_m2_simulate",
                        "shoes_m2_simulate", p=p, q=p, trials=trials,
                        seed=stream_seed()))
    return _alternate_formats(out)


def limits(seed: int) -> list[dict]:
    g = _rng(seed, "limits")

    def u(lo: float, hi: float) -> float:
        return float(g.uniform(lo, hi))

    out = []
    for j in range(2):
        c = u(0.8, 3.0)
        out.append(_cli(f"socks-point-{j}", "limit_point",
                        ["limit", "--kind", "socks", "--c", repr(c)],
                        limit="socks", params=[c]))
    a = u(0.8, 3.0)
    out.append(_cli("diag-point", "limit_point",
                    ["limit", "--kind", "shoes-diag", "--a", repr(a)],
                    limit="shoes-diag", params=[a]))
    for j in range(2):
        a, b = u(0.8, 3.0), u(0.8, 3.0)
        out.append(_cli(f"grid-point-{j}", "limit_point",
                        ["limit", "--kind", "shoes-grid", "--a", repr(a),
                         "--b", repr(b)], limit="shoes-grid", params=[a, b]))
    for kind, points in (("socks", 6), ("shoes-diag", 6), ("shoes-grid", 3)):
        lo, hi = u(0.3, 0.8), u(2.5, 4.0)
        out.append(_cli(f"{kind}-curve", "limit_curve",
                        ["limit", "--kind", kind, "--lo", repr(lo), "--hi",
                         repr(hi), "--points", str(points)],
                        limit=kind, lo=lo, hi=hi, points=points))
    for kind in ("socks", "shoes-diag"):
        out.append(_cli(f"{kind}-argmax", "limit_argmax",
                        ["limit", "--kind", kind, "--argmax", "--tol",
                         repr(ARGMAX_TOL)], limit=kind, tol=ARGMAX_TOL))
    for lo, hi in FAMILY_STRATA:
        n = int(g.integers(lo, hi + 1))
        out.append(_cli(f"family-max-{lo}-{hi}", "family_max",
                        ["family", "--n", str(n)], n=n))
    n_max, samples = FAMILY_CURVE
    out.append(_cli("family-curve", "family_curve",
                    ["family", "--n", str(n_max), "--action", "curve",
                     "--samples", str(samples)], n=n_max, samples=samples))
    for j in range(2):
        out.append(_lib(f"convergence-{j}", "convergence",
                        "convergence_check", c=u(0.8, 3.0),
                        n_list=list(CONVERGENCE_SIZES)))
    return _alternate_formats(out)


def build(workload: str, seed: int) -> list[dict]:
    """The request list of one workload for one seed."""
    return {"exact-laws": exact_laws, "montecarlo": montecarlo,
            "limits": limits}[workload](seed)
