"""The serving process: sends one workload's requests for a fixed time.

run.py starts this script with the program pinned to one thread and
writes the spec to its standard input as JSON: the requests, the run
length, the seed, how many set-up spawns to make, and whether to trace;
pairlaw's source is on PYTHONPATH.  Each round sends every request once, in
an order shuffled from the seed; rounds repeat until the run length has
passed, and set-up spawns fall between rounds at evenly spaced times.  A
send is timed around the call alone; capturing, serialising and
comparing its output happen outside the timed span.  With tracing on,
untraced and traced rounds alternate, so one run gives both fastest
sends.  The result goes to standard output as one JSON object.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import traceback

#: What a CLI user pays on every call: a fresh interpreter importing the
#: CLI and building its parser.
SETUP_CODE = "import pairlaw.cli as c; c.build_parser()"
SPAWN_TIMEOUT_S = 60


def _library_call(req: dict):
    """A zero-argument callable making one library request; inputs are
    built once, outside the timed span, and functions are looked up at
    call time so the tracing wrappers apply."""
    from pairlaw import dist_core, limit_laws, pair_laws, shoes

    args = req["args"]
    if req["call"] == "m2_simulate":
        d = dist_core.validate(args["p"])
        seed = dist_core.RngSeed(args["seed"])
        return lambda: pair_laws.m2_simulate(d, args["trials"], seed, threads=1)
    if req["call"] == "shoes_m2_simulate":
        sp = shoes.ShoePair(dist_core.validate(args["p"]),
                            dist_core.validate(args["q"]))
        seed = dist_core.RngSeed(args["seed"])
        return lambda: shoes.shoes_m2_simulate(sp, args["trials"], seed,
                                               threads=1)
    return lambda: limit_laws.convergence_check(args["c"], args["n_list"])


def _to_json(result) -> str:
    if isinstance(result, list):
        return json.dumps([dataclasses.asdict(r) for r in result])
    return json.dumps(dataclasses.asdict(result))


def _sender(req: dict):
    """send() -> (seconds, ok, output text) for one request."""
    from pairlaw import cli

    if req["call"] != "cli":
        call = _library_call(req)

        def send_library():
            start = time.perf_counter()
            result = call()
            elapsed = time.perf_counter() - start
            return elapsed, True, _to_json(result)

        return send_library

    argv = req["argv"] + ["--format", req["format"]]

    def send_cli():
        out = io.StringIO()
        real, sys.stdout = sys.stdout, out
        try:
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        finally:
            sys.stdout = real
        if code != 0:
            return elapsed, False, f"exit code {code}\n{out.getvalue()}"
        return elapsed, True, out.getvalue()

    return send_cli


def _spawn_setup() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                   stdout=subprocess.DEVNULL, timeout=SPAWN_TIMEOUT_S)
    return time.perf_counter() - start


def serve(spec: dict) -> dict:
    import numpy
    from pairlaw import _parallel

    requests = spec["requests"]
    n = len(requests)
    senders = [_sender(r) for r in requests]
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
    best = [math.inf] * n
    best_traced = [math.inf] * n
    sends = [0] * n
    mismatches = [0] * n
    first: list[str | None] = [None] * n
    first_ok = [True] * n
    layer_self: list[dict] = [{} for _ in range(n)]
    layer_counts: list[dict | None] = [None] * n
    spawns: list[float] = []
    order = list(range(n))
    shuffle = random.Random(spec["seed"]).shuffle
    min_rounds = 2 if tracer else 1
    count = spec["spawns"]
    start = time.perf_counter()
    slots = [start + spec["seconds"] * (k + 0.5) / count for k in range(count)]
    deadline = start + spec["seconds"]
    rounds = 0
    while rounds < min_rounds or time.perf_counter() < deadline:
        while len(spawns) < count and time.perf_counter() >= slots[len(spawns)]:
            spawns.append(_spawn_setup())
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        shuffle(order)
        for j in order:
            if traced:
                tracer.begin(requests[j]["id"] if rounds == 1 else None)
            try:
                elapsed, ok, text = senders[j]()
            except (Exception, SystemExit):
                elapsed, ok, text = math.inf, False, traceback.format_exc()
            if traced:
                totals = tracer.end()
                selfs = layer_self[j]
                for layer, acc in totals.items():
                    selfs[layer] = min(selfs.get(layer, math.inf), acc["self_s"])
                if layer_counts[j] is None:
                    layer_counts[j] = {
                        layer: {k: v for k, v in acc.items() if k != "self_s"}
                        for layer, acc in totals.items()}
                best_traced[j] = min(best_traced[j], elapsed)
            else:
                best[j] = min(best[j], elapsed)
            sends[j] += 1
            if first[j] is None:
                first[j], first_ok[j] = text, ok
            elif text != first[j] or not ok:
                mismatches[j] += 1
        if traced:
            tracer.uninstall()
        rounds += 1
    while len(spawns) < count:
        spawns.append(_spawn_setup())
    # one more send of each JSON request as CSV, to compare with the JSON
    # re-rendered; untimed, and not counted as a send
    csv = [None] * n
    for j, req in enumerate(requests):
        if req["call"] == "cli" and req["format"] == "json":
            csv[j] = _sender({**req, "format": "csv"})()[2]
    if tracer is not None:
        with open(spec["trace_file"], "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans,
                       "fields": ["layer", "start_s", "end_s", "parent",
                                  "request"]}, fh)
    return {
        "rounds": rounds,
        "requests": [{"id": r["id"], "sends": sends[j], "best_s": best[j],
                      "best_traced_s": best_traced[j], "first": first[j],
                      "first_ok": first_ok[j], "mismatches": mismatches[j],
                      "csv": csv[j], "layer_self_s": layer_self[j],
                      "layer_counts": layer_counts[j]}
                     for j, r in enumerate(requests)],
        "spawns_s": spawns,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": _parallel.effective_threads(None),
        "cores": os.cpu_count(),
        "numpy": numpy.__version__,
    }


def main() -> None:
    json.dump(serve(json.load(sys.stdin)), sys.stdout, allow_nan=True)


if __name__ == "__main__":
    main()
