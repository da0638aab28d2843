"""Tracing wrappers around the calls into each pairlaw module.

Nothing inside pairlaw changes: install() replaces each traced function
with a wrapper under every pairlaw module that holds it by name (cli,
family_opt, shoes and others import these functions by name), and
uninstall() puts the originals back.  A wrapper records the span's self
time (its duration minus that of the traced spans it encloses) and the
work its arguments or result report.

Layer names follow the module and function; ``alias_draw``,
``simplex_rows`` and ``discrepancy_rows`` stand for the private
``_alias_draw``, ``_sorted_simplex_rows`` and ``_discrepancy_rows``,
``parallel`` and ``optim`` for the modules ``_parallel`` and ``_optim``
(a metric name starts with a letter), and ``limit_laws.quadrature``
covers both ``ell`` and ``ell_shoes``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


#: (layer, module, function, counter).  A counter maps (args, kwargs,
#: result) to the work quantities of one call.
LAYERS = (
    ("cli.main", "pairlaw.cli", "main", None),
    ("dist_core.validate", "pairlaw.dist_core", "validate", None),
    ("pair_laws.derive_m2", "pairlaw.pair_laws", "derive_m2",
     lambda a, k, r: {"color_pairs": len(_arg(a, k, 0, "d")) ** 2}),
    ("shoes.m2_exact", "pairlaw.shoes", "shoes_m2_exact",
     lambda a, k, r: {"states": 3 ** len(_arg(a, k, 0, "sp"))}),
    ("pair_laws.discrepancy_rows", "pairlaw.pair_laws", "_discrepancy_rows",
     lambda a, k, r: {"rows": len(_arg(a, k, 0, "P"))}),
    ("dist_core.simplex_rows", "pairlaw.dist_core", "_sorted_simplex_rows",
     lambda a, k, r: {"rows": _arg(a, k, 1, "count")}),
    ("family_opt.simplex_search", "pairlaw.family_opt", "simplex_search",
     lambda a, k, r: {"points": _arg(a, k, 1, "points")}),
    ("dist_core.alias_draw", "pairlaw.dist_core", "_alias_draw",
     lambda a, k, r: {"draws": _arg(a, k, 3, "count")}),
    ("pair_laws.m2_simulate", "pairlaw.pair_laws", "m2_simulate",
     lambda a, k, r: {"trials": r.trials}),
    ("shoes.m2_simulate", "pairlaw.shoes", "shoes_m2_simulate",
     lambda a, k, r: {"trials": r.trials, "truncated": r.truncated}),
    ("parallel.map_ordered", "pairlaw._parallel", "map_ordered",
     lambda a, k, r: {"blocks": len(_arg(a, k, 1, "args_list"))}),
    ("limit_laws.quadrature", "pairlaw.limit_laws", "ell",
     lambda a, k, r: {"subdivisions": r.subdivisions}),
    ("limit_laws.quadrature", "pairlaw.limit_laws", "ell_shoes",
     lambda a, k, r: {"subdivisions": r.subdivisions}),
    ("optim.maximize_scalar", "pairlaw._optim", "maximize_scalar",
     lambda a, k, r: {"evaluations": r[3]}),
    ("family_opt.family_discrepancy", "pairlaw.family_opt",
     "family_discrepancy", None),
)

#: The per-layer metrics a traced run reports, with their units.  Counts
#: and self times are per round: summed over the workload's requests,
#: each request's self time taken from its fastest traced send.
METRICS = (
    ("cli.main.calls", "count"), ("cli.main.self_ms", "ms"),
    ("cli.output.bytes", "bytes"),
    ("dist_core.validate.calls", "count"), ("dist_core.validate.self_ms", "ms"),
    ("pair_laws.derive_m2.calls", "count"),
    ("pair_laws.derive_m2.self_ms", "ms"),
    ("pair_laws.derive_m2.color_pairs", "count"),
    ("shoes.m2_exact.calls", "count"), ("shoes.m2_exact.self_ms", "ms"),
    ("shoes.m2_exact.states", "count"),
    ("pair_laws.discrepancy_rows.rows", "count"),
    ("pair_laws.discrepancy_rows.self_ms", "ms"),
    ("dist_core.simplex_rows.rows", "count"),
    ("dist_core.simplex_rows.self_ms", "ms"),
    ("family_opt.simplex_search.points", "count"),
    ("family_opt.simplex_search.self_ms", "ms"),
    ("dist_core.alias_draw.draws", "count"),
    ("dist_core.alias_draw.self_ms", "ms"),
    ("pair_laws.m2_simulate.trials", "count"),
    ("pair_laws.m2_simulate.self_ms", "ms"),
    ("shoes.m2_simulate.trials", "count"),
    ("shoes.m2_simulate.truncated", "count"),
    ("shoes.m2_simulate.self_ms", "ms"),
    ("parallel.map_ordered.blocks", "count"),
    ("parallel.map_ordered.self_ms", "ms"),
    ("limit_laws.quadrature.calls", "count"),
    ("limit_laws.quadrature.subdivisions", "count"),
    ("limit_laws.quadrature.self_ms", "ms"),
    ("optim.maximize_scalar.calls", "count"),
    ("optim.maximize_scalar.evaluations", "count"),
    ("optim.maximize_scalar.self_ms", "ms"),
    ("family_opt.family_discrepancy.calls", "count"),
    ("family_opt.family_discrepancy.self_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)


class Tracer:
    """Per-send layer totals, plus the spans of the sends marked for
    recording (name, start, end, parent span, request)."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object, object]] = []
        self._stack: list[list] = []
        self.totals: dict[str, dict[str, float]] = {}
        self.spans: list[tuple] = []
        self.record_request: str | None = None
        for layer, module_name, name, counter in LAYERS:
            original = getattr(sys.modules[module_name], name)
            wrapper = self._wrap(layer, original, counter)
            for module_name_, module in list(sys.modules.items()):
                if (module_name_.startswith("pairlaw") and module is not None
                        and getattr(module, name, None) is original):
                    self._patches.append((module, name, original, wrapper))

    def _wrap(self, layer: str, fn, counter):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, len(self.spans) if self.record_request else None]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            if self.record_request:
                self.spans.append(None)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                acc = self.totals[layer]
                acc["calls"] += 1
                acc["self_s"] += end - start - frame[0]
                if frame[1] is not None:
                    self.spans[frame[1]] = (layer, start, end, parent,
                                            self.record_request)
            if counter is not None:
                for quantity, amount in counter(args, kwargs, result).items():
                    acc[quantity] += amount
            return result

        return traced

    def install(self) -> None:
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._patches:
            setattr(module, name, original)

    def begin(self, record_as: str | None = None) -> None:
        """Start one send's totals; record its spans under record_as."""
        self.totals = defaultdict(lambda: defaultdict(float))
        self.record_request = record_as

    def end(self) -> dict[str, dict[str, float]]:
        self.record_request = None
        return {layer: dict(acc) for layer, acc in self.totals.items()}
