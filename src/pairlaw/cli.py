"""Command line front end.

Subcommands mirror the library: derive, family, limit, search, shoes.
Every invocation prints one table, either as CSV (12 significant digits,
human-facing) or as a single JSON envelope (repr-exact reals, lossless);
diagnostics go to the error stream.  Exit codes: 0 success, 2 input
validation, 3 numerical tolerance or a competing maximum, 4 simulation
truncation, 5 an internal fault (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass

from . import __version__
from .dist_core import Distribution, RngSeed, validate
from .errors import (ExcessTruncation, InputError, InternalFault,
                     ToleranceNotMet, UnimodalityError)
from .family_opt import family_argmax, figure_family_curves, simplex_search
from .limit_laws import (DEFAULT_TOL, _check_tol, ell, ell_argmax, ell_shoes,
                         ell_shoes_diag_argmax, ell_shoes_value, ell_value)
from .pair_laws import derive_m1, derive_m2, tvd
from .shoes import (SHOES_EXACT_MAX_COLORS, ShoePair, shoes_m1,
                    shoes_m2_exact, shoes_m2_simulate, sup_one_demo)


#: Process exit code of each family of deliberate library errors.
EXIT_CODES = {InputError: 2, ToleranceNotMet: 3, UnimodalityError: 3,
              ExcessTruncation: 4, InternalFault: 5}


@dataclass(frozen=True)
class OutputEnvelope:
    """Everything one invocation produced, in one machine-readable object."""

    command: str
    parameters: dict
    results: dict
    provenance: dict


def _envelope(command: str, parameters: dict, columns: list, rows: list,
              seed: int | None = None, tolerances: dict | None = None,
              diagnostics: dict | None = None) -> OutputEnvelope:
    """The envelope of one table.  diagnostics says how the run got its
    results (which path ran, what it truncated); it lands in provenance
    only when given, so results and CSV never depend on it."""
    provenance = {"seed": seed, "tolerances": tolerances or {},
                  "version": __version__}
    if diagnostics is not None:
        provenance["diagnostics"] = diagnostics
    return OutputEnvelope(
        command=command,
        parameters=parameters,
        results={"columns": columns, "rows": rows},
        provenance=provenance,
    )


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def csv_from_results(results: dict) -> str:
    """Render the results table of an envelope as CSV.

    Shared by the CSV emitter and by JSON consumers re-rendering, so the
    two routes are byte-identical by construction.  Cells never contain
    commas or quotes, so no quoting dialect is needed.
    """
    lines = [",".join(results["columns"])]
    for row in results["rows"]:
        lines.append(",".join(_csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


#: Types that the JSON encoder writes as one token.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json(value, depth: int = 0) -> str:
    """The text json.dumps(value, indent=2) gives for a value nested
    `depth` levels deep, with no copy of the value and with the C encoder
    writing the tokens, which it does only without an indent.

    A flat list or dict (scalar items) is one C call whose item separator
    carries the newline and the indent.  A table of flat rows is one C
    call too, its separator indented as for the cells; the rows part at
    "],<newline><indent>[", which only a row boundary can spell, since a
    JSON string never holds a raw newline.  Anything else is walked item
    by item.
    """
    if isinstance(value, dict):
        items, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = value, "[]"
    else:
        return json.dumps(value)
    if not value:
        return brackets
    outer = "\n" + "  " * depth
    inner = outer + "  "
    if set(map(type, items)) <= _SCALARS:
        body = json.dumps(value, separators=("," + inner, ": "))[1:-1]
    elif brackets == "[]" and set(map(type, value)) <= {list, tuple} and \
            {type(cell) for row in value for cell in row} <= _SCALARS:
        cell = inner + "  "
        rows = json.dumps(value, separators=("," + cell, ": "))[2:-2]
        body = ("," + inner).join(f"[{cell}{row}{inner}]" if row else "[]"
                                  for row in rows.split(f"],{cell}["))
    elif brackets == "{}":  # each key as the encoder writes a key
        body = ("," + inner).join(f"{json.dumps({key: 0})[1:-4]}: "
                                  f"{_json(item, depth + 1)}"
                                  for key, item in value.items())
    else:
        body = ("," + inner).join(_json(item, depth + 1) for item in value)
    return brackets[0] + inner + body + outer + brackets[1]


def render(envelope: OutputEnvelope, fmt: str) -> str:
    """The envelope as indented JSON, or its results table as CSV."""
    if fmt == "json":
        return _json(vars(envelope)) + "\n"
    return csv_from_results(envelope.results)


def _parse_list(text: str, kind=float) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise InputError(f"unparsable {kind.__name__} list {text!r}") from exc


def _parse_dist(inline: str | None, path: str | None) -> Distribution:
    if (inline is None) == (path is None):
        raise InputError("give exactly one of an inline list or a file")
    if inline is not None:
        return validate(_parse_list(inline))
    try:
        with open(path, encoding="utf-8") as fh:
            values = [line.strip() for line in fh]
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc.strerror}") from exc
    try:
        return validate(float(v) for v in values if v != "")
    except ValueError as exc:
        raise InputError(f"unparsable probability file {path!r}") from exc


def cmd_derive(args: argparse.Namespace) -> OutputEnvelope:
    d = _parse_dist(args.dist, args.dist_file)
    columns = ["quantity", "color", "value"]
    laws = []
    if args.method in ("m1", "both"):
        laws.append(derive_m1(d))
    if args.method in ("m2", "both"):
        laws.append(derive_m2(d))
    rows: list[list] = [[law.method, i, v]
                        for law in laws for i, v in enumerate(law.probs)]
    if len(laws) == 2:
        rows.append(["discrepancy", None, tvd(*laws)])
    return _envelope("derive", {"dist": list(d.probs), "method": args.method},
                     columns, rows)


def cmd_family(args: argparse.Namespace) -> OutputEnvelope:
    params = {"n": args.n, "action": args.action}
    if args.action == "max":
        opt = family_argmax(args.n)
        columns = ["n", "x", "value"]
        rows = [[args.n, opt.argmax, opt.value]]
    else:
        params["samples"] = args.samples
        columns = ["n", "u", "value"]
        rows = [[r.n, r.u, r.value]
                for r in figure_family_curves(args.n, args.samples)]
    return _envelope("family", params, columns, rows)


#: Most closed-form evaluations of one `limit` request: --points of them on
#: a curve, --points squared on a shoes grid.  At up to about 0.1 ms a
#: shoes-grid point (three Mills-ratio moments; 2 cores, numpy 2.4) the cap
#: bounds a request near 1 s; the default 64-point grid runs 4,096.
LIMIT_MAX_EVALUATIONS = 10 ** 4


def _ticks(args, dims: int) -> list[float]:
    """The evenly spaced curve (dims 1) or grid (dims 2) points from --lo
    to --hi, refused before any evaluation past LIMIT_MAX_EVALUATIONS."""
    if args.points < 2:
        raise InputError(f"--points must be at least 2, got {args.points}")
    if args.points ** dims > LIMIT_MAX_EVALUATIONS:
        raise InputError(f"--points {args.points} asks for "
                         f"{args.points ** dims} evaluations, past the "
                         f"{LIMIT_MAX_EVALUATIONS} cap")
    return [args.lo + (args.hi - args.lo) * i / (args.points - 1)
            for i in range(args.points)]


def cmd_limit(args: argparse.Namespace) -> OutputEnvelope:
    """One limit surface: its value at the point its flags name, by
    quadrature with an error estimate; else its argmax or its table over
    the ticks, from the closed forms, whose only use of --tol is its floor
    check."""
    # kind: (parameter flags, quadrature at a point, closed form, argmax);
    # built per call, so that a name rebound in this module takes effect
    flags, point, value, argmax = {
        "socks": (("c",), ell, ell_value, ell_argmax),
        "shoes-diag": (("a",), lambda a, tol: ell_shoes(a, a, tol),
                       lambda a: ell_shoes_value(a, a), ell_shoes_diag_argmax),
        "shoes-grid": (("a", "b"), ell_shoes, ell_shoes_value, None),
    }[args.kind]
    given = [name for name in ("c", "a", "b") if getattr(args, name) is not None]
    if not set(given) <= set(flags) or 0 < len(given) < len(flags):
        raise InputError(f"{args.kind} takes "
                         f"{' with '.join('--' + name for name in flags)} "
                         f"for a point, or none")
    if args.argmax and (given or argmax is None):
        raise InputError("--argmax takes no point, and only socks and "
                         "shoes-diag have one")
    if given:
        xs = [getattr(args, name) for name in flags]
        r = point(*xs, args.tol)
        params = {"mode": "point", **dict(zip(flags, xs))}
        columns = [*flags, "value", "abs_error_estimate", "subdivisions"]
        rows = [[*xs, r.value, r.abs_error_estimate, r.subdivisions]]
    else:
        _check_tol(args.tol)
        if args.argmax:
            opt = argmax()
            params = {"mode": "argmax"}
            columns = ["argmax", "value", "evaluations"]
            rows = [[opt.argmax, opt.value, opt.evaluations]]
        else:
            dims = len(flags)
            rows = [[*xs, value(*xs)] for xs in
                    itertools.product(_ticks(args, dims), repeat=dims)]
            params = {"mode": "curve" if dims == 1 else "grid", "lo": args.lo,
                      "hi": args.hi, "points": args.points}
            columns = [*flags, "value"]
    return _envelope("limit", {"kind": args.kind, **params}, columns, rows,
                     tolerances={"tol": args.tol},
                     diagnostics={"path": "quadrature" if given
                                  else "closed-form"})


def cmd_search(args: argparse.Namespace) -> OutputEnvelope:
    best, value, family_gap = simplex_search(
        args.m, args.points, RngSeed(args.seed), threads=args.threads)
    columns = ["quantity", "color", "value"]
    rows: list[list] = [["best_p", i, v] for i, v in enumerate(best.probs)]
    rows.append(["value", None, value])
    rows.append(["family_gap", None, family_gap])
    return _envelope("search", {"m": args.m, "points": args.points},
                     columns, rows, seed=args.seed)


def cmd_shoes_derive(args: argparse.Namespace) -> OutputEnvelope:
    sp = ShoePair(_parse_dist(args.left, args.left_file),
                  _parse_dist(args.right, args.right_file))
    params = {"left": list(sp.left.probs), "right": list(sp.right.probs)}
    columns = ["quantity", "color", "value", "error"]
    m1_law = shoes_m1(sp)
    rows: list[list] = [["m1", i, v, 0.0] for i, v in enumerate(m1_law.probs)]
    if args.exact or len(sp) <= SHOES_EXACT_MAX_COLORS:
        params["mode"] = "exact"
        seed = None
        m2_law = shoes_m2_exact(sp)
        rows += [["m2", i, v, 0.0] for i, v in enumerate(m2_law.probs)]
        distance, error = tvd(m1_law, m2_law), 0.0
        diagnostics = {"path": "exact"}
    else:
        params["mode"] = "simulate"
        params["trials"] = args.trials
        seed = args.seed
        report = shoes_m2_simulate(sp, args.trials, RngSeed(args.seed),
                                   args.max_steps, threads=args.threads)
        rows += [["m2", i, v, s] for i, (v, s) in
                 enumerate(zip(report.estimated_probs, report.std_errors))]
        distance = tvd(m1_law, report)
        error = 0.5 * math.sqrt(math.fsum(s * s for s in report.std_errors))
        diagnostics = {"path": "simulated", "truncated": report.truncated}
    rows.append(["discrepancy", None, distance, error])
    return _envelope("shoes derive", params, columns, rows, seed=seed,
                     diagnostics=diagnostics)


def cmd_shoes_sup_demo(args: argparse.Namespace) -> OutputEnvelope:
    sizes = _parse_list(args.n, int)
    rows = [[r.n, r.value, r.error]
            for r in sup_one_demo(sizes, args.trials, RngSeed(args.seed),
                                  threads=args.threads)]
    return _envelope("shoes sup-demo",
                     {"n": sizes, "trials": args.trials},
                     ["n", "value", "error"], rows, seed=args.seed)


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["csv", "json"], default="csv")


def _add_threads(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=int, default=None,
                   help="worker threads (default: PAIRLAW_THREADS or all CPUs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairlaw",
        description="Pair-color laws of matching experiments: exact "
                    "distributions, discrepancy extrema, limit constants.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="both pair laws of one distribution")
    p.add_argument("--dist", help="comma-separated probabilities")
    p.add_argument("--dist-file", help="file with one probability per line")
    p.add_argument("--method", choices=["m1", "m2", "both"], default="both")
    _add_format(p)
    p.set_defaults(handler=cmd_derive)

    p = sub.add_parser("family", help="one-heavy-color family extremum or curve")
    p.add_argument("--n", type=int, required=True, help="tail color count")
    p.add_argument("--action", choices=["max", "curve"], default="max")
    p.add_argument("--samples", type=int, default=129,
                   help="samples per curve (curve action)")
    _add_format(p)
    p.set_defaults(handler=cmd_family)

    p = sub.add_parser("limit", help="limit curves and their constants")
    p.add_argument("--kind", choices=["socks", "shoes-diag", "shoes-grid"],
                   required=True)
    p.add_argument("--argmax", action="store_true", help="locate the maximum")
    p.add_argument("--c", type=float, help="evaluation point (socks)")
    p.add_argument("--a", type=float, help="evaluation point (shoes)")
    p.add_argument("--b", type=float, help="second point (shoes-grid)")
    p.add_argument("--lo", type=float, default=0.1, help="curve start")
    p.add_argument("--hi", type=float, default=10.0, help="curve end")
    p.add_argument("--points", type=int, default=64, help="curve samples")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    _add_format(p)
    p.set_defaults(handler=cmd_limit)

    p = sub.add_parser("search", help="random search over the sorted simplex")
    p.add_argument("--m", type=int, required=True, help="color count")
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_threads(p)
    _add_format(p)
    p.set_defaults(handler=cmd_search)

    p = sub.add_parser("shoes", help="alternating left/right collection")
    shoes_sub = p.add_subparsers(dest="shoes_command", required=True)

    q = shoes_sub.add_parser("derive", help="laws and discrepancy of a pair")
    q.add_argument("--left", help="comma-separated left probabilities")
    q.add_argument("--left-file")
    q.add_argument("--right", help="comma-separated right probabilities")
    q.add_argument("--right-file")
    q.add_argument("--exact", action="store_true",
                   help="require the exact solve (fails above its size cap)")
    q.add_argument("--trials", type=int, default=1_000_000)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--max-steps", type=int, default=None)
    _add_threads(q)
    _add_format(q)
    q.set_defaults(handler=cmd_shoes_derive)

    q = shoes_sub.add_parser("sup-demo",
                             help="witness-family discrepancy ladder")
    q.add_argument("--n", required=True, help="comma-separated family sizes")
    q.add_argument("--trials", type=int, default=1_000_000)
    q.add_argument("--seed", type=int, default=0)
    _add_threads(q)
    _add_format(q)
    q.set_defaults(handler=cmd_shoes_sup_demo)

    return parser


_MAIN_PARSER: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # parsing never mutates the parser, so repeat in-process calls share one
    global _MAIN_PARSER
    if _MAIN_PARSER is None:
        _MAIN_PARSER = build_parser()
    args = _MAIN_PARSER.parse_args(argv)
    try:
        envelope = args.handler(args)
    except tuple(EXIT_CODES) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items()
                    if isinstance(exc, kind))
    sys.stdout.write(render(envelope, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
