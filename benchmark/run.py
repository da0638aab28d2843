"""Run one benchmark workload and print its metrics.

    python3 benchmark/run.py --workload exact-laws --seed 1 --seconds 30 --trace 0

Run from the root of a pairlaw checkout.  The requests are made from the
seed (workloads.py) and served by one process pinned to one thread
(serve.py).  Every output is checked against references made apart from
the program (checks.py, reference.py).  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it carries the seed, the program's resolved thread count,
the core count and the numpy version next to the same counts.

With --trace 0 the metrics are the end-to-end ones:

- setup_s: median wall time of fresh interpreters importing pairlaw.cli
  and building its parser, spawned at even intervals through the run
- round_s: sum over the requests of each request's fastest send
- request_geomean_ms: geometric mean of the fastest sends
- peak_rss_mb: peak resident size of the serving process

With --trace 1 they are the per-layer metrics of tracing.METRICS, from a
run that alternates untraced and traced rounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

#: Pin every thread pool the program or numpy could start to one thread.
#: Set before numpy is imported here, and passed to the serving process.
PINNED = {"PAIRLAW_THREADS": "1", "OMP_NUM_THREADS": "1",
          "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "BLIS_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
          "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(PINNED)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: Set-up spawns per untraced run; their median is setup_s.
SPAWNS = 15
#: Time allowed beyond the run length for start-up and the extra sends.
SLACK_S = 90


def _serve(requests: list[dict], args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    spec = {"requests": requests, "seconds": args.seconds, "seed": args.seed,
            "trace": args.trace, "spawns": 0 if args.trace else SPAWNS,
            "trace_file": str(trace_file) if args.trace else None}
    proc = subprocess.run([sys.executable, str(HERE / "serve.py")],
                          input=json.dumps(spec), capture_output=True,
                          text=True, env=env, cwd=ROOT,
                          timeout=args.seconds + SLACK_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"serving process exited with {proc.returncode}")
    return json.loads(proc.stdout)


def _failed_sends(requests: list[dict], served: list[dict]) -> int:
    """Sends whose output is wrong: every send of a request whose first
    output fails its check, and each later send that differs from it."""
    failed = 0
    tables = {}
    for req, res in zip(requests, served):
        try:
            if not res["first_ok"]:
                raise checks.CheckFailed(res["first"].strip().splitlines()[-1])
            tables[req["id"]] = checks.check(req, res["first"])
            if res["csv"] is not None:
                columns, rows, _ = checks.parse(res["first"], "json")
                if checks.render_csv(columns, rows) != res["csv"]:
                    raise checks.CheckFailed("JSON does not re-render to the CSV")
            base = req["meta"].get("permutation_of")
            if base is not None:
                checks.check_permutation(req, tables[req["id"]], tables[base])
        except checks.CheckFailed as exc:
            print(f"FAILED {req['id']}: {exc}", file=sys.stderr)
            failed += res["sends"]
            continue
        if res["mismatches"]:
            print(f"FAILED {req['id']}: {res['mismatches']} sends differ from "
                  "the first", file=sys.stderr)
        failed += res["mismatches"]
    return failed


def _end_to_end(result: dict) -> dict:
    best = [r["best_s"] for r in result["requests"]]
    return {
        "setup_s": (statistics.median(result["spawns_s"]), "s"),
        "round_s": (math.fsum(best), "s"),
        "request_geomean_ms": (1e3 * math.exp(math.fsum(map(math.log, best))
                                              / len(best)), "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def _per_layer(requests: list[dict], result: dict) -> dict:
    served = result["requests"]
    totals = {name: 0.0 for name, _ in tracing.METRICS}
    for req, res in zip(requests, served):
        for layer, seconds in res["layer_self_s"].items():
            totals[f"{layer}.self_ms"] += 1e3 * seconds
        for layer, counts in (res["layer_counts"] or {}).items():
            for quantity, amount in counts.items():
                key = f"{layer}.{quantity}"
                if key in totals:
                    totals[key] += amount
        if req["call"] == "cli":
            totals["cli.output.bytes"] += len(res["first"].encode())
    totals["trace.overhead_ms"] = 1e3 * (
        math.fsum(r["best_traced_s"] for r in served)
        - math.fsum(r["best_s"] for r in served))
    units = dict(tracing.METRICS)
    return {name: (value if units[name] == "ms" else int(value), units[name])
            for name, value in totals.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pairlaw" / "cli.py").is_file():
        print(f"no pairlaw source under {SRC}; run from a pairlaw checkout",
              file=sys.stderr)
        return 2
    requests = workloads.build(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    result = _serve(requests, args)
    served = result["requests"]
    attempted = sum(r["sends"] for r in served)
    failed = _failed_sends(requests, served)
    metrics = (_per_layer(requests, result) if args.trace
               else _end_to_end(result))
    info = {"workload": args.workload, "seed": args.seed,
            "threads": result["threads"], "cores": result["cores"],
            "numpy": result["numpy"], "attempted": attempted,
            "failed": failed, "rounds": result["rounds"],
            "requests": len(requests)}
    with open(OUT / f"run-{args.workload}-{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({**info, "metrics": metrics,
                   "spawns_s": result["spawns_s"],
                   "per_request": {r["id"]: {"sends": r["sends"],
                                             "best_s": r["best_s"],
                                             "best_traced_s": r["best_traced_s"]}
                                   for r in served}}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
