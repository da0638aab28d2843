"""Checks of every request's output against the references.

check(request, text) parses one output and raises CheckFailed when it is
wrong.  Law entries are compared with LAW_RTOL/LAW_ATOL, so moving any
entry by 1e-9 fails; CSV cells carry 12 significant digits, a relative
rounding of at most 5e-12, which these tolerances absorb.  Simulated
estimates are held to 5 sigma of an exact law where one exists, and to
the identities that tie every printed column to the others.
"""

from __future__ import annotations

import json
import math

import reference as ref

LAW_RTOL = 1e-10
LAW_ATOL = 1e-13
#: Printed parameters must match the requested ones to CSV precision.
CSV_RTOL = 1e-11
SUM_TOL = 2e-11
#: Limit values are computed to the CLI's default tolerance 1e-12.
LIMIT_TOL = 1e-12
Z = 5.0


class CheckFailed(Exception):
    """An output that does not match its reference."""


def _close(got, want, what: str, rtol: float = LAW_RTOL,
           atol: float = LAW_ATOL) -> None:
    if not abs(got - want) <= rtol * abs(want) + atol:
        raise CheckFailed(f"{what}: got {got!r}, want {float(want)!r}")


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _cell(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse(text: str, fmt: str) -> tuple[list, list, dict | None]:
    """(columns, rows, envelope) of a CSV table or a JSON envelope."""
    if fmt == "json":
        envelope = json.loads(text)
        _require(set(envelope) == {"command", "parameters", "results",
                                   "provenance"}, "envelope keys")
        return envelope["results"]["columns"], envelope["results"]["rows"], envelope
    _require(text.endswith("\n"), "CSV ends without a newline")
    lines = text[:-1].split("\n")
    return lines[0].split(","), [[_cell(c) for c in line.split(",")]
                                 for line in lines[1:]], None


def render_csv(columns: list, rows: list) -> str:
    """The CSV the program documents for a results table: 12 significant
    digits for reals, empty cells for nulls."""
    def cell(v) -> str:
        if isinstance(v, float):
            return format(v, ".12g")
        return "" if v is None else str(v)
    return "\n".join([",".join(columns)]
                     + [",".join(cell(v) for v in row) for row in rows]) + "\n"


def _section(rows: list, quantity: str, width: int) -> list:
    """Rows of one quantity, checked to be colors 0.. in order."""
    picked = [r for r in rows if r[0] == quantity]
    _require(len(picked) == width and
             all(r[1] == i for i, r in enumerate(picked)),
             f"{quantity} rows are not colors 0..{width - 1}")
    return picked


def _law(got: list, want: list, what: str) -> None:
    _require(len(got) == len(want), f"{what} has {len(got)} entries")
    for i, (g, w) in enumerate(zip(got, want)):
        _close(g, w, f"{what}[{i}]")
    _require(abs(math.fsum(got) - 1.0) <= SUM_TOL, f"{what} does not sum to 1")


def _single(rows: list, quantity: str) -> list:
    picked = [r for r in rows if r[0] == quantity]
    _require(len(picked) == 1 and picked[0][1] is None,
             f"expected one {quantity} row")
    return picked[0]


def _check_derive(req, columns, rows, envelope) -> None:
    p = req["meta"]["p"]
    m = len(p)
    _require(columns == ["quantity", "color", "value"], "derive columns")
    _require(len(rows) == 2 * m + 1, "derive row count")
    m1 = [r[2] for r in _section(rows, "m1", m)]
    m2 = [r[2] for r in _section(rows, "m2", m)]
    d = _single(rows, "discrepancy")[2]
    want1, want2 = ref.m1_law(p), ref.m2_law(p)
    _law(m1, want1, "m1")
    _law(m2, want2, "m2")
    _close(d, ref.tvd(want1, want2), "discrepancy")
    _close(d, ref.tvd(m1, m2), "discrepancy vs printed laws", 0.0, SUM_TOL)
    order = sorted(range(m), key=lambda i: p[i])
    for a, b in zip(order, order[1:]):
        ra, rb = m2[a] / p[a] ** 2, m2[b] / p[b] ** 2
        if p[a] < p[b]:
            _require(ra >= rb * (1.0 - 1e-9),
                     f"m2/p^2 rises from color {a} to heavier color {b}")
        else:
            _close(ra, rb, f"m2/p^2 of equal colors {a}, {b}", 1e-9, 0.0)
    if req["meta"]["source"] == "uniform":
        _require(abs(d) <= 1e-12, f"uniform source has D = {d!r}")
    if envelope is not None:
        _require(envelope["command"] == "derive"
                 and envelope["parameters"]["dist"] == p,
                 "derive parameters")


def _check_shoes_exact(req, columns, rows, envelope) -> None:
    p, q = req["meta"]["p"], req["meta"]["q"]
    m = len(p)
    _require(columns == ["quantity", "color", "value", "error"], "shoes columns")
    _require(len(rows) == 2 * m + 1 and all(r[3] == 0.0 for r in rows),
             "exact shoes rows carry zero error")
    m1 = [r[2] for r in _section(rows, "m1", m)]
    m2 = [r[2] for r in _section(rows, "m2", m)]
    want1, want2 = ref.shoes_m1_law(p, q), ref.shoes_m2_law(p, q)
    _law(m1, want1, "m1")
    _law(m2, want2, "m2")
    d = _single(rows, "discrepancy")[2]
    _close(d, ref.tvd(want1, want2), "discrepancy")
    if envelope is not None:
        _require(envelope["parameters"]["mode"] == "exact", "shoes mode")


def _check_search(req, columns, rows, envelope) -> None:
    m = req["meta"]["m"]
    _require(columns == ["quantity", "color", "value"], "search columns")
    best = [r[2] for r in _section(rows, "best_p", m)]
    value = _single(rows, "value")[2]
    gap = _single(rows, "family_gap")[2]
    _require(all(a >= b for a, b in zip(best, best[1:])) and best[-1] >= 0.0,
             "best point is not sorted nonincreasing")
    _require(abs(math.fsum(best) - 1.0) <= SUM_TOL, "best point sum")
    _close(value, ref.tvd(ref.m1_law(best), ref.m2_law(best)),
           "value recomputed from the best point", 1e-9, 1e-12)
    x = best[0]
    family = [x] + [(1.0 - x) / (m - 1)] * (m - 1)
    _close(gap, ref.tvd(best, family), "family gap recomputed", 1e-9, 1e-12)
    if m - 1 <= len(ref.FAMILY_TABLE_D):
        _require(value <= ref.FAMILY_TABLE_D[m - 2] + 1e-9,
                 "search beats the family maximum")
    if envelope is not None:
        _require(envelope["parameters"] == {"m": m,
                                            "points": req["meta"]["points"]}
                 and envelope["provenance"]["seed"] == req["meta"]["seed"],
                 "search parameters")


def _check_estimates(est: list, std: list, trials: int, what: str) -> None:
    """Tallied frequencies: counts over trials, summing to one, with the
    binomial standard errors the program documents."""
    _require(abs(math.fsum(est) - 1.0) <= SUM_TOL, f"{what} sum")
    for i, (v, s) in enumerate(zip(est, std)):
        _require(0.0 <= v <= 1.0, f"{what}[{i}] outside [0, 1]")
        count = v * trials
        _require(abs(count - round(count)) <= 1e-6,
                 f"{what}[{i}] * trials = {count!r} is not a count")
        _close(s, math.sqrt(v * (1.0 - v) / trials), f"{what} std error[{i}]",
               1e-9, 1e-15)


def _within_sigma(est: list, exact: list, trials: int, what: str) -> None:
    for i, (v, w) in enumerate(zip(est, exact)):
        # the 1/trials floor keeps the test honest where w * trials << 1
        sigma = math.sqrt(max(w * (1.0 - w), 1.0 / trials) / trials)
        _require(abs(v - w) <= Z * sigma,
                 f"{what}[{i}] = {v!r} is {abs(v - w) / sigma:.1f} sigma "
                 f"from {w!r}")


def _check_shoes_sim(req, columns, rows, envelope) -> None:
    meta = req["meta"]
    p, q, trials = meta["p"], meta["q"], meta["trials"]
    m = len(p)
    _require(columns == ["quantity", "color", "value", "error"], "shoes columns")
    m1 = _section(rows, "m1", m)
    m2 = _section(rows, "m2", m)
    want1 = ref.shoes_m1_law(p, q)
    _law([r[2] for r in m1], want1, "m1")
    _require(all(r[3] == 0.0 for r in m1), "m1 rows carry zero error")
    est, std = [r[2] for r in m2], [r[3] for r in m2]
    _check_estimates(est, std, trials, "m2")
    for group in meta["groups"]:
        for a in group:
            for b in group:
                if a < b:
                    va, vb = est[a], est[b]
                    sigma = math.sqrt(max(va + vb - (va - vb) ** 2,
                                          1.0 / trials) / trials)
                    _require(abs(va - vb) <= Z * sigma,
                             f"equal-mass colors {a}, {b} disagree: "
                             f"{va!r} vs {vb!r}")
    d = _single(rows, "discrepancy")
    _close(d[2], ref.tvd(want1, est), "discrepancy vs estimate", 0.0, SUM_TOL)
    _close(d[3], 0.5 * math.sqrt(math.fsum(s * s for s in std)),
           "discrepancy error", 1e-9, 1e-15)
    if envelope is not None:
        params = envelope["parameters"]
        _require(params["mode"] == "simulate" and params["trials"] == trials
                 and envelope["provenance"]["seed"] == meta["seed"],
                 "shoes simulation parameters")


def _check_sup_demo(req, columns, rows, envelope) -> None:
    meta = req["meta"]
    _require(columns == ["n", "value", "error"], "sup-demo columns")
    _require([r[0] for r in rows] == meta["n"], "sup-demo sizes")
    values = [r[1] for r in rows]
    cap = 0.5 / math.sqrt(meta["trials"]) * (1.0 + 1e-9)
    for n, v, e in rows:
        _require(0.0 < v < 1.0 and 0.0 < e <= cap,
                 f"witness n={n}: value {v!r}, error {e!r}")
    _require(all(a < b for a, b in zip(values, values[1:])),
             f"witness D does not rise with n: {values!r}")
    if envelope is not None:
        _require(envelope["provenance"]["seed"] == meta["seed"],
                 "sup-demo seed")


def _check_report(req, report: dict, exact: list) -> None:
    args = req["args"]
    trials = args["trials"]
    _require(report["trials"] == trials and report["seed"] == args["seed"]
             and report["truncated"] == 0, "simulation report header")
    est = report["estimated_probs"]
    _require(len(est) == len(exact), "simulation report width")
    _require(math.fsum(est) == 1.0, "estimates do not sum to exactly 1")
    _check_estimates(est, report["std_errors"], trials, "estimate")
    _within_sigma(est, exact, trials, "estimate")


def _check_limit_value(kind: str, params: list, value: float, what: str) -> None:
    want = ref.ell(params[0]) if kind == "socks" else ref.ell_shoes(
        params[0], params[-1])
    _close(value, want, what, CSV_RTOL, 10 * LIMIT_TOL)


def _check_limit_point(req, columns, rows, envelope) -> None:
    meta = req["meta"]
    names = {"socks": ["c"], "shoes-diag": ["a"], "shoes-grid": ["a", "b"]}
    width = len(names[meta["limit"]])
    _require(columns == names[meta["limit"]] + ["value", "abs_error_estimate",
                                               "subdivisions"],
             "limit point columns")
    _require(len(rows) == 1, "one limit point row")
    row = rows[0]
    for got, want in zip(row[:width], meta["params"]):
        _close(got, want, "limit point parameter", CSV_RTOL, 0.0)
    _check_limit_value(meta["limit"], meta["params"], row[width], "limit value")
    err, splits = row[width + 1], row[width + 2]
    _require(0.0 <= err <= LIMIT_TOL and splits >= 0 and splits == int(splits),
             f"error estimate {err!r}, subdivisions {splits!r}")


def _check_limit_curve(req, columns, rows, envelope) -> None:
    meta = req["meta"]
    lo, hi, points = meta["lo"], meta["hi"], meta["points"]
    ticks = [lo + (hi - lo) * i / (points - 1) for i in range(points)]
    if meta["limit"] == "shoes-grid":
        _require(columns == ["a", "b", "value"], "grid columns")
        grid = [(a, b) for a in ticks for b in ticks]
    else:
        _require(columns == [("c" if meta["limit"] == "socks" else "a"),
                             "value"], "curve columns")
        grid = [(t, t) for t in ticks]
    _require(len(rows) == len(grid), "curve row count")
    for row, (a, b) in zip(rows, grid):
        params = row[:-1]
        _close(params[0], a, "curve parameter", CSV_RTOL, 0.0)
        _close(params[-1], b, "curve parameter", CSV_RTOL, 0.0)
        _check_limit_value(meta["limit"], [a, b], row[-1], "curve value")


def _check_limit_argmax(req, columns, rows, envelope) -> None:
    kind, tol = req["meta"]["limit"], req["meta"]["tol"]
    where, peak = (ref.ell_argmax() if kind == "socks"
                   else ref.ell_shoes_diag_argmax())
    _require(columns == ["argmax", "value", "evaluations"] and len(rows) == 1,
             "argmax table")
    x, value, evaluations = rows[0]
    _close(x, where, "argmax", 0.0, 1e-3)
    _close(value, peak, "maximum", 0.0, 10 * tol)
    at_x = ref.ell(x) if kind == "socks" else ref.ell_shoes(x, x)
    _close(value, at_x, "maximum vs the curve at the argmax", 0.0, 10 * tol)
    _require(evaluations > 256 and evaluations == int(evaluations),
             f"evaluations {evaluations!r}")


def _check_family_max(req, columns, rows, envelope) -> None:
    n = req["meta"]["n"]
    _require(columns == ["n", "x", "value"] and len(rows) == 1
             and rows[0][0] == n, "family max table")
    _, x, value = rows[0]
    if n <= len(ref.FAMILY_TABLE_X):
        _close(x, ref.FAMILY_TABLE_X[n - 1], "table argmax", 5e-10, 0.0)
        _close(value, ref.FAMILY_TABLE_D[n - 1], "table maximum", 1e-10, 0.0)
    else:
        want_x, want_d = ref.family_max(n)
        _close(x, want_x, "family argmax", 2e-9, 0.0)
        _close(value, want_d, "family maximum", 1e-10, 0.0)


def _check_family_curve(req, columns, rows, envelope) -> None:
    n_max, samples = req["meta"]["n"], req["meta"]["samples"]
    _require(columns == ["n", "u", "value"] and
             len(rows) == n_max * samples, "family curve table")
    for row, (n, j) in zip(rows, [(n, j) for n in range(1, n_max + 1)
                                  for j in range(samples)]):
        u = j / (samples - 1)
        _require(row[0] == n, "family curve n")
        _close(row[1], u, "family curve u", CSV_RTOL, 0.0)
        x = min((u * n + 1.0) / (n + 1.0), 1.0 - 1e-9)
        _close(row[2], ref.family_d(n, x), f"family curve n={n} u={u}")


def _check_convergence(req, rows: list) -> None:
    c, sizes = req["args"]["c"], req["args"]["n_list"]
    _require([r["n"] for r in rows] == sizes, "convergence sizes")
    limit = ref.ell(c)
    for r in rows:
        want = ref.family_d(r["n"], c / math.sqrt(r["n"]))
        _close(r["value"], want, f"family value at n={r['n']}")
        _close(r["gap"], abs(want - limit), f"gap at n={r['n']}",
               0.0, 10 * LIMIT_TOL)


_TABLE_CHECKS = {
    "derive": _check_derive, "shoes_exact": _check_shoes_exact,
    "search": _check_search, "shoes_sim": _check_shoes_sim,
    "sup_demo": _check_sup_demo, "limit_point": _check_limit_point,
    "limit_curve": _check_limit_curve, "limit_argmax": _check_limit_argmax,
    "family_max": _check_family_max, "family_curve": _check_family_curve,
}


def check(req: dict, text: str):
    """Check one request's output; returns the parsed table (cli) or
    object (library), or raises CheckFailed."""
    try:
        if req["call"] == "cli":
            columns, rows, envelope = parse(text, req["format"])
            _TABLE_CHECKS[req["kind"]](req, columns, rows, envelope)
            return rows
        result = json.loads(text)
        if req["kind"] == "m2_simulate":
            _check_report(req, result, ref.m2_law(req["args"]["p"]))
        elif req["kind"] == "shoes_m2_simulate":
            _check_report(req, result, ref.shoes_m2_law(req["args"]["p"],
                                                        req["args"]["q"]))
        else:
            _check_convergence(req, result)
        return result
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc


def check_permutation(req: dict, rows: list, base_rows: list) -> None:
    """A permuted source must permute both laws."""
    perm = req["meta"]["perm"]
    m = len(perm)
    for quantity in ("m1", "m2"):
        mine = [r[2] for r in _section(rows, quantity, m)]
        base = [r[2] for r in _section(base_rows, quantity, m)]
        for k, i in enumerate(perm):
            _close(mine[k], base[i], f"permuted {quantity}[{k}]")
