"""Self-tests of the benchmark: its references, its checks and its result.

    python3 benchmark/selftest.py
    python3 -m pytest -q benchmark/selftest.py

The file name keeps the repository's own test run from collecting it.
Each check must accept the program's real output for every request of
every workload and reject the same output with one value perturbed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mpmath as mp  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 0

#: Per request kind: (quantity or row index, column, shift) of the
#: perturbation the check must reject.  1e-9 where the check pins the
#: value to a reference; a property-breaking change where the output has
#: no exact reference (the witness trend, the argmax at a loose tolerance).
PERTURB = {
    "derive": ("m2", 2, 1e-9), "shoes_exact": ("m2", 2, 1e-9),
    "search": ("value", 2, 1e-9), "shoes_sim": ("m2", 2, 1e-9),
    "limit_point": (0, -3, 1e-9), "limit_curve": (-1, -1, 1e-9),
    "limit_argmax": (0, 1, 1e-4), "family_max": (0, 2, 1e-9),
    "family_curve": (-1, 2, 1e-9),
}


@functools.cache
def outputs(workload: str) -> tuple[tuple[dict, str], ...]:
    """Each request of the workload with its output from one send."""
    out = []
    for req in workloads.build(workload, SEED):
        _, ok, text = serve._sender(req)()
        assert ok, (req["id"], text)
        out.append((req, text))
    return tuple(out)


def _shift_table(req: dict, text: str, row_key, column: int,
                 shift: float) -> str:
    columns, rows, envelope = checks.parse(text, req["format"])
    index = (row_key if isinstance(row_key, int)
             else next(i for i, r in enumerate(rows) if r[0] == row_key))
    rows[index][column] += shift
    if envelope is None:
        return checks.render_csv(columns, rows)
    return json.dumps(envelope, indent=2) + "\n"


def perturbed(req: dict, text: str) -> str:
    """The output with one value moved."""
    if req["kind"] in PERTURB:
        return _shift_table(req, text, *PERTURB[req["kind"]])
    if req["kind"] == "sup_demo":
        columns, rows, envelope = checks.parse(text, req["format"])
        rows[0][1], rows[1][1] = rows[1][1], rows[0][1]
        if envelope is None:
            return checks.render_csv(columns, rows)
        return json.dumps(envelope, indent=2) + "\n"
    result = json.loads(text)
    if req["kind"] == "convergence":
        result[0]["value"] += 1e-9
    else:
        result["estimated_probs"][0] += 1e-9
    return json.dumps(result)


def _check_workload(workload: str) -> None:
    for req, text in outputs(workload):
        checks.check(req, text)
        bad = perturbed(req, text)
        assert bad != text, req["id"]
        try:
            checks.check(req, bad)
        except checks.CheckFailed:
            continue
        raise AssertionError(f"{req['id']}: perturbed output accepted")


def test_checks_exact_laws():
    _check_workload("exact-laws")


def test_checks_montecarlo():
    _check_workload("montecarlo")


def test_checks_limits():
    _check_workload("limits")


def test_permutation_check_rejects_a_moved_entry():
    pairs = {req["id"]: (req, text) for req, text in outputs("exact-laws")}
    req, text = next(v for v in pairs.values()
                     if "permutation_of" in v[0]["meta"])
    base_req, base_text = pairs[req["meta"]["permutation_of"]]
    rows = checks.parse(text, req["format"])[1]
    base = checks.parse(base_text, base_req["format"])[1]
    checks.check_permutation(req, rows, base)
    moved = checks.parse(_shift_table(req, text, "m1", 2, 1e-9),
                         req["format"])[1]
    try:
        checks.check_permutation(req, moved, base)
    except checks.CheckFailed:
        return
    raise AssertionError("moved permuted entry accepted")


def _served(req: dict, text: str, sends: int = 5) -> dict:
    csv = None
    if req["call"] == "cli" and req["format"] == "json":
        csv = serve._sender({**req, "format": "csv"})()[2]
    return {"id": req["id"], "sends": sends, "first": text, "first_ok": True,
            "mismatches": 0, "csv": csv}


def test_failed_sends_counts_wrong_and_differing_outputs():
    pairs = outputs("limits")
    requests = [req for req, _ in pairs]
    served = [_served(req, text) for req, text in pairs]
    assert run._failed_sends(requests, served) == 0
    j = next(i for i, r in enumerate(requests) if r["call"] == "cli"
             and r["format"] == "json")
    wrong = [dict(s) for s in served]
    wrong[j]["first"] = perturbed(requests[j], served[j]["first"])
    assert run._failed_sends(requests, wrong) == served[j]["sends"]
    # a JSON output whose CSV route prints different bytes
    drift = [dict(s) for s in served]
    drift[j]["csv"] = served[j]["csv"].replace("\n", "\n\n", 1)
    assert run._failed_sends(requests, drift) == served[j]["sends"]
    differing = [dict(s) for s in served]
    differing[0]["mismatches"] = 2
    assert run._failed_sends(requests, differing) == 2


def test_references_reproduce_the_acceptance_constants():
    c, peak = ref.ell_argmax()
    assert abs(peak - 0.1832000624087106) <= 1e-15 and abs(c - 1.514) <= 1e-3
    a, peak = ref.ell_shoes_diag_argmax()
    assert abs(peak - 0.199808674053) <= 1e-12 and abs(a - 1.562239) <= 1e-6
    for n in (1, 4, 9):
        x, d = ref.family_max(n)
        assert abs(x - ref.FAMILY_TABLE_X[n - 1]) <= 1e-15
        assert abs(d - ref.FAMILY_TABLE_D[n - 1]) <= 1e-16


def test_ell_quadrature_matches_the_closed_form():
    # the integral of t exp(-c t - t^2/2) is 1 - c e^{c^2/2} sqrt(pi/2)
    # erfc(c / sqrt 2)
    with mp.workdps(40):
        for c in map(mp.mpf, (0.05, 0.7, 1.514, 9.0)):
            closed = 1 - c * mp.exp(c * c / 2) * mp.sqrt(mp.pi / 2) * mp.erfc(
                c / mp.sqrt(2))
            want = c * c / (1 + c * c) - c * c * closed
            assert abs(ref.ell(c) - want) <= mp.mpf(10) ** -25


def _m2_by_subsets(p: list[Fraction]) -> list[Fraction]:
    """p_i^2 sum_k (k+1)! e_k(p without i), with e_k summed over subsets."""
    out = []
    for i, pi in enumerate(p):
        rest = p[:i] + p[i + 1:]
        total = Fraction(0)
        for k in range(len(rest) + 1):
            e_k = sum((math.prod(s) for s in combinations(rest, k)),
                      Fraction(0))
            total += math.factorial(k + 1) * e_k
        out.append(pi * pi * total)
    return out


def test_m2_reference_matches_exact_subset_sums():
    p = [Fraction(w, 100) for w in (41, 23, 17, 11, 5, 3)]
    exact = _m2_by_subsets(p)
    assert sum(exact) == 1
    for got, want in zip(ref.m2_law([float(v) for v in p]), exact):
        assert abs(got - float(want)) <= 1e-15 * float(want)


def test_shoes_reference_is_a_law_with_the_one_sided_limit():
    p = [0.5, 0.3, 0.2]
    law = ref.shoes_m2_law(p, p)
    assert abs(math.fsum(law) - 1.0) <= 1e-15
    # a right side that always shows color 0 completes on the first left 0
    law = ref.shoes_m2_law(p, [1.0, 0.0, 0.0])
    assert abs(law[0] - 1.0) <= 1e-15 and law[1] == law[2] == 0.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        tracing.METRICS)
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s", "round_s": "s", "request_geomean_ms": "ms",
        "peak_rss_mb": "MB"}


def test_traced_send_counts_the_layers_it_reaches():
    req, _ = outputs("exact-laws")[-1]
    m = len(req["meta"]["p"])
    send = serve._sender(req)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin(req["id"])
        send()
        totals = tracer.end()
    finally:
        tracer.uninstall()
    assert totals["cli.main"]["calls"] == 1
    assert totals["shoes.m2_exact"]["states"] == 3 ** m
    assert all(span is not None for span in tracer.spans)
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] is None


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
