"""Command line: envelope shape, formats, exit codes, determinism."""

import contextlib
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pairlaw
import pairlaw.cli as cli
import pairlaw.dist_core as dist_core
import pairlaw.family_opt as family_opt
import pairlaw.limit_laws as limit_laws
import pairlaw.pair_laws as pair_laws
import pairlaw.shoes as shoes
from pairlaw import _parallel
from pairlaw._optim import maximize_scalar
from pairlaw import (ToleranceNotMet, UnimodalityError, convergence_check, ell,
                     ell_shoes, ell_shoes_value)
from pairlaw.limit_laws import _ell_closed


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive_csv(capsys):
    code, out, err = run(capsys, "derive", "--dist", "0.75,0.25")
    assert code == 0 and err == ""
    assert out == ("quantity,color,value\n"
                   "m1,0,0.9\n"
                   "m1,1,0.1\n"
                   "m2,0,0.84375\n"
                   "m2,1,0.15625\n"
                   "discrepancy,,0.05625\n")


def test_derive_single_method_has_no_discrepancy_row(capsys):
    code, out, _ = run(capsys, "derive", "--dist", "0.75,0.25",
                       "--method", "m1")
    assert code == 0
    assert out == "quantity,color,value\nm1,0,0.9\nm1,1,0.1\n"


def test_derive_from_file_matches_inline(capsys, tmp_path):
    path = tmp_path / "dist.txt"
    path.write_text("0.75\n0.25\n")
    _, from_file, _ = run(capsys, "derive", "--dist-file", str(path))
    _, inline, _ = run(capsys, "derive", "--dist", "0.75,0.25")
    assert from_file == inline


def test_derive_input_errors_exit_2(capsys):
    code, out, err = run(capsys, "derive", "--dist", "0.5,0.6")
    assert code == 2 and out == ""
    assert "BadSum" in err
    code, _, err = run(capsys, "derive", "--dist", "0.5,0.5",
                       "--dist-file", "whatever")
    assert code == 2 and "InputError" in err
    code, _, err = run(capsys, "derive", "--dist", "a,b")
    assert code == 2 and "InputError" in err
    code, _, err = run(capsys, "derive", "--dist", "0.5,-0.5,1.0")
    assert code == 2 and "NegativeEntry" in err


def test_derive_derives_each_law_once(capsys, monkeypatch):
    original = pair_laws.derive_m2
    calls = []

    def counted(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(pair_laws, "derive_m2", counted)
    monkeypatch.setattr(cli, "derive_m2", counted)
    code, out, _ = run(capsys, "derive", "--dist", "0.5,0.3,0.2")
    assert code == 0 and "\ndiscrepancy,," in out
    assert len(calls) == 1


def test_internal_fault_exits_5(capsys, monkeypatch):
    # a kernel that loses mass is a bug; the exit code must not blame the
    # input, and the run prints no partial output
    kernel = pair_laws._m2_rows
    monkeypatch.setattr(pair_laws, "_m2_rows", lambda P: 1.5 * kernel(P))
    code, out, err = run(capsys, "derive", "--dist", "0.5,0.3,0.2")
    assert code == 5 and out == ""
    assert err.startswith("InternalFault: ") and "derivation bug" in err


#: Runs each (argv, environment) case through cli.main and prints one JSON
#: line [argv, exit code, stdout] per case.  The address-space cap turns a
#: runaway allocation into a MemoryError instead of a drain on the host.
_BAD_INPUT_CHILD = """
import contextlib, io, json, os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import pairlaw.cli as cli
for argv, env in json.loads(sys.argv[1]):
    os.environ.update(env)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    for name in env:
        del os.environ[name]
    print(json.dumps([argv, code, out.getvalue()]), flush=True)
"""


def _run_bounded(cases):
    """[argv, exit code, stdout] of each case, from one child process that
    a hang fails at the timeout."""
    src = os.path.dirname(os.path.dirname(pairlaw.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _BAD_INPUT_CHILD, json.dumps(cases)],
        capture_output=True, text=True, timeout=60, env=env)
    results = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(results) == len(cases), proc.stderr
    return results


def test_bad_inputs_exit_2_in_bounded_time(tmp_path):
    # each of these once ended in a traceback or never returned; one
    # child runs them all, so a hang fails here at the timeout
    missing = str(tmp_path / "missing.txt")
    cases = [
        (["limit", "--kind", "socks", "--points", "1"], {}),
        (["limit", "--kind", "socks", "--points", "0"], {}),
        (["limit", "--kind", "shoes-diag", "--points", "-3"], {}),
        (["limit", "--kind", "shoes-grid", "--points", "1"], {}),
        (["derive", "--dist-file", missing], {}),
        (["shoes", "derive", "--left-file", missing, "--right", "1"], {}),
        (["shoes", "derive", "--left", "1", "--right-file", missing], {}),
        (["search", "--m", "3", "--points", "10"], {"PAIRLAW_THREADS": "abc"}),
        (["limit", "--kind", "socks", "--c", "nan"], {}),
        (["limit", "--kind", "socks", "--c", "inf"], {}),
        (["limit", "--kind", "socks", "--lo", "nan", "--points", "2"], {}),
        (["limit", "--kind", "shoes-diag", "--a", "inf"], {}),
        (["limit", "--kind", "shoes-diag", "--hi", "inf", "--points", "2"], {}),
        (["limit", "--kind", "shoes-grid", "--a", "inf", "--b", "1"], {}),
        (["limit", "--kind", "shoes-grid", "--a", "1", "--b", "nan"], {}),
        (["limit", "--kind", "socks", "--c", "1e160"], {}),
        (["limit", "--kind", "shoes-diag", "--a", "1e200"], {}),
        (["family", "--n", "100000000", "--action", "curve",
          "--samples", "129"], {}),
        # 10^10 and 10^5 evaluations, past LIMIT_MAX_EVALUATIONS
        (["limit", "--kind", "shoes-grid", "--points", "100000"], {}),
        (["limit", "--kind", "socks", "--points", "100000"], {}),
        # no trials on a pair past the horizon cap: the trials come first
        (["shoes", "derive", "--left", "1e-300,1" + ",0" * 9,
          "--right", "1,0" + ",0" * 9, "--trials", "0"], {}),
        # 10^12 search points and walks, and 10^9 witness walks at 3,355 a
        # block, past the block cap: refused before the plan is built
        (["search", "--m", "3", "--points", "1000000000000"], {}),
        (["shoes", "sup-demo", "--n", "16", "--trials", "1000000000000"], {}),
        (["shoes", "sup-demo", "--n", "10000", "--trials", "1000000000"], {}),
        # a ladder whose second size passes the block cap (17,884 blocks):
        # refused before the 6 * 10^7 walks of its first size
        (["shoes", "sup-demo", "--n", "16,10000", "--trials", "60000000"],
         {}),
        # 10^7 + 1 colors, past the simulation's color cap: the walks ran
        # 43 s, and then building its laws raised MemoryError
        (["shoes", "sup-demo", "--n", "10000000", "--trials", "200"], {}),
        # 10^9 + 1 and 10^400 + 1 colors: building the pair raised
        # MemoryError, and 10^400 ** -0.25 OverflowError
        (["shoes", "sup-demo", "--n", "1000000000", "--trials", "1"], {}),
        (["shoes", "sup-demo", "--n", "1" + "0" * 400, "--trials", "1"], {}),
        # 8 points of 10^6 colors at 640 nodes, 5.1 * 10^9 cells, past the
        # search cap: one block, which ran 94 s
        (["search", "--m", "1000000", "--points", "8"], {}),
        # a 1.6 GB row, wider than one block
        (["search", "--m", "200000000", "--points", "1"], {}),
        # past the family maximizer's cap: a scan still running after 20 s,
        # and a false competing mode
        (["family", "--n", "10000000000000000"], {}),
        (["family", "--n", "100000000000000000000"], {}),
        # entries whose sum passes the float range: fsum raised
        # OverflowError, a traceback and exit 1
        (["derive", "--dist", "1e308,1e308"], {}),
        (["shoes", "derive", "--left", "1e308,1e308", "--right", "0.5,0.5"],
         {}),
    ]
    for argv, code, out in _run_bounded(cases):
        assert (code, out) == (2, ""), argv


def test_infeasible_simulation_exits_4_in_bounded_time():
    # eleven colors take the simulated path, whose default horizon for a
    # shared color of left mass 1e-300 is about 5.7e301 steps
    zeros = ",0" * 9
    pair = ["shoes", "derive", "--left", "1e-300,1" + zeros,
            "--right", "1,0" + zeros, "--trials", "100"]
    for argv, code, out in _run_bounded([(pair, {})]):
        assert (code, out) == (4, ""), argv


#: Cell texts of every real flag in the fuzz: out of range, degenerate,
#: non-finite and ordinary.
FUZZ_REALS = ("-1.5", "0", "1e-300", "1e-8", "0.5", "2.0", "1e8", "1e300",
              "nan", "inf", "-inf")


def _fuzz_argvs(seed: int, count: int) -> list[list[str]]:
    """count seeded argvs over every subcommand.  Each parses (so argparse
    never exits: values ride in --flag=value form, as "-inf" alone would
    read as a flag), and each is small enough to finish in well under a
    second when it is accepted."""
    g = np.random.default_rng(seed)

    def pick(*options):
        return str(options[int(g.integers(len(options)))])

    def real(flag):
        return f"--{flag}={pick(*FUZZ_REALS)}"

    def dist(m):
        p = g.dirichlet(np.ones(m))
        cells = [repr(float(v)) for v in p]
        if g.random() < 0.25:
            cells[int(g.integers(m))] = pick(*FUZZ_REALS)
        return ",".join(cells)

    def limit():
        kind = pick("socks", "shoes-diag", "shoes-grid")
        tol = ["--tol=" + pick("1e-12", "1e-6", "1e-15", "nan")]
        mode = pick("point", "curve", "argmax")
        if mode == "argmax" and kind != "shoes-grid":
            return ["--kind", kind, "--argmax"] + tol
        if mode == "point":
            point = {"socks": [real("c")], "shoes-diag": [real("a")],
                     "shoes-grid": [real("a"), real("b")]}[kind]
            return ["--kind", kind] + point + tol
        return ["--kind", kind, real("lo"), real("hi"),
                "--points=" + pick(-1, 0, 1, 2, 5, 9)] + tol

    def shoes():
        if g.random() < 0.3:
            return ["sup-demo", "--n", pick("16", "10", "16,20", "0"),
                    "--trials", pick(0, 1, 300), "--seed", pick(0, 7)]
        m = int(pick(1, 2, 3, 4, 11))
        return ["derive", "--left=" + dist(m), "--right=" + dist(m),
                "--trials", pick(0, 1, 300), "--seed", pick(0, 7)]

    makers = {
        "derive": lambda: ["--dist=" + dist(int(pick(1, 2, 5, 12)))],
        "family": lambda: ["--n=" + pick(-1, 0, 1, 2, 30, 10**16, 10**20),
                           "--action", pick("max", "curve"),
                           "--samples", pick(0, 1, 2, 9)],
        "limit": limit,
        "search": lambda: ["--m=" + pick(0, 1, 2, 3, 5, 200000000),
                           "--points", pick(0, 1, 50), "--seed", pick(0, 7)],
        "shoes": shoes,
    }
    names = sorted(makers)  # in turn, so each gets count / 5 argvs
    return [[name] + makers[name]() + ["--format", pick("csv", "json")]
            for name in (names[i % len(names)] for i in range(count))]


def test_cli_fuzz_exits_with_a_documented_code_in_bounded_time():
    # exit 5 would be a bug and a traceback or a hang fails the child; an
    # accepted JSON request must print the standard library's layout
    cases = [(argv, {}) for argv in _fuzz_argvs(1212, 60)]
    for argv, code, out in _run_bounded(cases):
        assert code in (0, 2, 3, 4), argv
        if code == 0 and argv[-1] == "json":
            assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


def _reference_json(envelope) -> str:
    """The layout render must reproduce: a deep copy through asdict and
    the standard library's indenting encoder."""
    return json.dumps(dataclasses.asdict(envelope), indent=2) + "\n"


#: One quick request of every subcommand and mode.
_ELEVEN = ",".join(["0.0909090909090909"] * 10 + ["0.090909090909091"])
EVERY_MODE = [
    ["derive", "--dist", "0.5,0.3,0.2"],
    ["derive", "--dist", "0.5,0.5", "--method", "m1"],
    ["derive", "--dist", "0.7,0.2,0.1,0.0", "--method", "m2"],
    ["family", "--n", "3"],
    ["family", "--n", "3", "--action", "curve", "--samples", "5"],
    ["limit", "--kind", "socks", "--c", "1.5"],
    ["limit", "--kind", "socks", "--points", "4"],
    ["limit", "--kind", "socks", "--argmax", "--tol", "1e-6"],
    ["limit", "--kind", "shoes-diag", "--a", "1.5"],
    ["limit", "--kind", "shoes-diag", "--lo", "0.5", "--points", "3"],
    ["limit", "--kind", "shoes-diag", "--argmax", "--tol", "1e-6"],
    ["limit", "--kind", "shoes-grid", "--a", "0.5", "--b", "2"],
    ["limit", "--kind", "shoes-grid", "--points", "3"],
    ["search", "--m", "3", "--points", "50", "--seed", "1"],
    ["shoes", "derive", "--left", "0.75,0.25", "--right", "0.5,0.5"],
    ["shoes", "derive", "--left", _ELEVEN, "--right", _ELEVEN,
     "--trials", "300", "--seed", "2"],
    ["shoes", "sup-demo", "--n", "16,20", "--trials", "300"],
]

#: Strings that a row split or a careless escape would get wrong.
AWKWARD = ["a,b", 'say "hi"', "]", "[", "],\n      [", "x\ny", "Ø ½ 猫 \u2028",
           "", "\\", "]]"]


def _hand_made_envelopes():
    nan, inf = float("nan"), float("inf")
    env = cli._envelope
    yield env("empty", {}, [], [])
    yield env("empty rows", {"dist": []}, ["a", "b"], [])
    yield env("specials", {"x": None, "y": nan, "z": [inf, -inf, nan, None]},
              ["v"], [[nan], [inf], [-inf], [None], [True, False]])
    yield env("mixed", {"n": 3, "f": 3.0, "l": [1, 1.0, -0.0, 10**20, 1e300]},
              ["i", "f"], [[1, 1.0], [2, 2.5e-300], [0, -0.0]])
    yield env("ragged", {}, ["a", "b", "c"],
              [[1], [1, 2, 3], [None, "x"], [4.5]],
              diagnostics={"path": "x", "inner": {"deep": {"deeper": [1, 2]},
                                                  "empty": {}, "list": []}})
    yield env("one cell", {}, ["a"], [[7]], seed=3, tolerances={"tol": 1e-6})
    yield env("scalars", {"t": True, "f": False, "inf": inf, "-inf": -inf,
                          "big": -10**400, "tiny": 5e-324, "neg": -0.0,
                          "s": "ø", "l": [True]}, [], [],
              diagnostics={"nan": nan, "none": None, "one": 1.0, "n": 0,
                           "d": {}})
    yield env("strings", {s: s for s in AWKWARD}, AWKWARD,
              [[s] for s in AWKWARD] + [AWKWARD, [AWKWARD[4], 1.0]],
              diagnostics={s: {s: [s]} for s in AWKWARD})


def _csv_cell(value) -> str:
    """The CSV writer's cell format as it was, one cell a call, frozen as
    the oracle of rows formatted in one pass."""
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def test_csv_rows_format_cells_as_the_cell_writer_did():
    cells = [np.float64(0.1), np.float64(-2.5e-300), np.float64("nan"), 0.1,
             1 / 3, -0.0, float("inf"), 1e16, True, False, np.bool_(True), 0,
             -7, 10**20, np.int64(5), np.float32(0.1), None, "m1", "",
             "discrepancy"]
    rows = [cells, cells[::-1], [], [None], [np.float64(1.0)]]
    columns = ["quantity", "color", "value"]
    want = "\n".join([",".join(columns)] + [
        ",".join(_csv_cell(v) for v in row) for row in rows]) + "\n"
    assert cli.csv_from_results({"columns": columns, "rows": rows}) == want
    envelope = cli._envelope("derive", {}, columns, rows)
    assert cli.render(envelope, "csv") == want


def test_render_matches_the_standard_encoder_byte_for_byte(monkeypatch):
    envelopes = []
    for argv in EVERY_MODE:
        args = cli.build_parser().parse_args(argv + ["--format", "json"])
        envelopes.append(args.handler(args))
    envelopes += _hand_made_envelopes()
    want = [_reference_json(envelope) for envelope in envelopes]

    def python_encoder(*args, **kwargs):
        raise AssertionError("render reached the pure-Python encoder")

    def dumps(*args, **kwargs):
        raise AssertionError("render wrote a part through json.dumps")

    monkeypatch.setattr(json.encoder, "_make_iterencode", python_encoder)
    monkeypatch.setattr(json, "dumps", dumps)
    for envelope, text in zip(envelopes, want):
        assert cli.render(envelope, "json") == text, envelope.command


def test_json_envelope_and_csv_agree_byte_for_byte(capsys):
    _, as_csv, _ = run(capsys, "derive", "--dist", "0.5,0.3,0.2")
    code, as_json, _ = run(capsys, "derive", "--dist", "0.5,0.3,0.2",
                           "--format", "json")
    assert code == 0
    envelope = json.loads(as_json)
    assert set(envelope) == {"command", "parameters", "results", "provenance"}
    assert envelope["command"] == "derive"
    assert envelope["parameters"]["dist"] == [0.5, 0.3, 0.2]
    assert envelope["provenance"]["version"] == pairlaw.__version__
    # JSON carries full-precision floats; re-rendering them as CSV must
    # reproduce the direct CSV output exactly
    assert cli.csv_from_results(envelope["results"]) == as_csv


def test_family_max(capsys):
    code, out, _ = run(capsys, "family", "--n", "2")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "n,x,value"
    n, x, value = row.split(",")
    assert n == "2"
    assert abs(float(x) - 0.5820110139097399) < 1e-8
    assert abs(float(value) - 0.08429419234614604) < 1e-12


def test_family_curve(capsys):
    code, out, _ = run(capsys, "family", "--n", "3", "--action", "curve",
                       "--samples", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,u,value"
    assert len(lines) == 1 + 27
    assert lines[1] == "1,0,0"  # the uniform end of the n = 1 curve


def test_limit_point(capsys):
    code, out, _ = run(capsys, "limit", "--kind", "socks", "--c", "1.514",
                       "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["results"]["columns"] == ["c", "value",
                                              "abs_error_estimate",
                                              "subdivisions"]
    row = envelope["results"]["rows"][0]
    assert row[0] == 1.514
    assert row[1] == ell(1.514).value  # same call, same digits
    assert envelope["provenance"]["tolerances"] == {"tol": 1e-12}
    assert envelope["provenance"]["diagnostics"] == {"path": "quadrature"}


def test_limit_argmax(capsys):
    code, out, _ = run(capsys, "limit", "--kind", "socks", "--argmax")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert abs(float(row[0]) - 1.5139940757525916) < 1e-6
    assert abs(float(row[1]) - 0.1832000624087106) < 1e-10


def test_limit_shoes_diag_argmax(capsys):
    code, out, _ = run(capsys, "limit", "--kind", "shoes-diag", "--argmax")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert abs(float(row[0]) - 1.5622394444551926) < 1e-6
    assert abs(float(row[1]) - 0.1998086740531225) < 1e-10


def test_limit_shoes_grid_point(capsys):
    code, out, _ = run(capsys, "limit", "--kind", "shoes-grid",
                       "--a", "0.5", "--b", "2.0", "--format", "json")
    assert code == 0
    row = json.loads(out)["results"]["rows"][0]
    assert row[:2] == [0.5, 2.0]
    assert row[2] == ell_shoes(0.5, 2.0).value


@pytest.mark.parametrize("argv", [
    ["--kind", "shoes-diag", "--a", "1e-300"],
    ["--kind", "shoes-grid", "--a", "1e-300", "--b", "2"],
    ["--kind", "socks", "--c", "1e-300"],
])
def test_tiny_limit_points_print_no_warning(argv):
    # the quadrature ranges once reached t near 1.2e301, where t * t
    # overflowed in numpy with a warning on stderr
    src = os.path.dirname(os.path.dirname(pairlaw.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pairlaw.cli",
         "limit", *argv, "--format", "json"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stderr) == (0, "")
    envelope = json.loads(proc.stdout)
    tol = envelope["provenance"]["tolerances"]["tol"]
    *point, value, error, _ = envelope["results"]["rows"][0]
    closed = (_ell_closed(point[0]) if argv[1] == "socks"
              else ell_shoes_value(point[0], point[-1]))
    assert abs(value - closed) <= tol and 0.0 <= error <= tol


def test_limit_curve(capsys):
    code, out, _ = run(capsys, "limit", "--kind", "socks", "--lo", "0.5",
                       "--hi", "2.0", "--points", "4", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    rows = envelope["results"]["rows"]
    assert [r[0] for r in rows] == [0.5, 1.0, 1.5, 2.0]
    for c, value in rows:
        assert value == _ell_closed(c)  # the closed form, bit for bit
        assert abs(value - ell(c).value) <= 1e-12  # the quadrature oracle
    assert envelope["provenance"]["diagnostics"] == {"path": "closed-form"}


def test_limit_tables_never_run_the_quadrature(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a value-only table ran the quadrature")

    monkeypatch.setattr(limit_laws, "_adaptive_simpson", refuse)
    for argv in (["socks", "--lo", "0.5", "--hi", "3.0", "--points", "9"],
                 ["shoes-diag", "--lo", "0.5", "--hi", "3.0", "--points", "9"],
                 ["shoes-grid", "--lo", "0.5", "--hi", "3.0", "--points", "5"],
                 ["socks", "--argmax"], ["shoes-diag", "--argmax"]):
        code, out, _ = run(capsys, "limit", "--kind", *argv, "--format", "json")
        assert code == 0, argv
        provenance = json.loads(out)["provenance"]
        assert provenance["diagnostics"] == {"path": "closed-form"}, argv
    assert len(convergence_check(1.514, [100, 10 ** 4])) == 2
    with pytest.raises(AssertionError):  # the point path still does
        run(capsys, "limit", "--kind", "socks", "--c", "1.0")


@pytest.mark.parametrize("kind, lo, hi, tol", [
    ("socks", "0", "1", "1e-12"), ("socks", "-1.5", "1", "1e-12"),
    ("socks", "nan", "1", "1e-12"), ("socks", "1", "inf", "1e-12"),
    ("socks", "1e160", "1", "1e-12"), ("socks", "1", "2", "1e-15"),
    ("socks", "1", "2", "nan"), ("shoes-diag", "0", "1", "1e-12"),
    ("shoes-diag", "1e200", "1", "1e-12"), ("shoes-diag", "1", "2", "1e-15"),
    ("shoes-grid", "1", "0", "1e-12"), ("shoes-grid", "1", "nan", "1e-12"),
    ("shoes-grid", "1e10", "1e300", "1e-12"),
    ("shoes-grid", "1e308", "1e308", "1e-12"),
    ("shoes-grid", "1", "2", "1e-15")])
def test_limit_tables_refuse_what_the_quadrature_refuses(capsys, kind, lo, hi,
                                                         tol):
    # the first refused table point, fed to the quadrature, names the
    # same error
    ticks = [float(lo), float(lo) + (float(hi) - float(lo))]
    points = ([(t,) for t in ticks] if kind == "socks" else
              [(t, t) for t in ticks] if kind == "shoes-diag" else
              [(a, b) for a in ticks for b in ticks])
    quadrature = ell if kind == "socks" else ell_shoes
    for point in points:
        try:
            quadrature(*point, float(tol))
        except pairlaw.InputError as exc:
            refusal = type(exc).__name__
            break
    else:
        raise AssertionError("the quadrature takes every table point")
    code, out, err = run(capsys, "limit", "--kind", kind, f"--lo={lo}",
                         f"--hi={hi}", "--points", "2", f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.startswith(refusal + ": ")


def test_limit_flag_conflicts_exit_2(capsys):
    # one rule for every kind: a flag it does not take, a partial point,
    # --argmax where it has none or next to a point
    cases = [[kind, f"--{name}", "1.0"]
             for kind, names in (("socks", "ab"), ("shoes-diag", "cb"),
                                 ("shoes-grid", "c"))
             for name in names]
    cases += [["shoes-grid", "--a", "1.0"], ["shoes-grid", "--b", "1.0"],
              ["shoes-grid", "--argmax"],
              ["shoes-grid", "--argmax", "--a", "1.0", "--b", "1.0"],
              ["socks", "--argmax", "--c", "1.0"],
              ["shoes-diag", "--argmax", "--a", "1.0"]]
    for argv in cases:
        code, out, err = run(capsys, "limit", "--kind", *argv)
        assert (code, out) == (2, "") and err.startswith("InputError: "), argv


def test_limit_tolerance_floor(capsys):
    # one floor on every mode; the closed forms take no tolerance, so
    # past the floor their results do not move
    closed = [["socks", "--points", "4"], ["shoes-diag", "--points", "4"],
              ["shoes-grid", "--points", "3"], ["socks", "--argmax"],
              ["shoes-diag", "--argmax"]]
    points = [["socks", "--c", "1.0"], ["shoes-diag", "--a", "1.0"],
              ["shoes-grid", "--a", "0.5", "--b", "2.0"]]
    for argv in points + closed:
        for tol in ("1e-15", "nan"):
            code, out, err = run(capsys, "limit", "--kind", *argv,
                                 f"--tol={tol}")
            assert (code, out) == (2, ""), (argv, tol)
            assert err.startswith("DomainError: "), (argv, tol)
    for argv in closed:
        results = []
        for tol in ("1e-13", "1e-6"):
            code, out, _ = run(capsys, "limit", "--kind", *argv,
                               f"--tol={tol}", "--format", "json")
            assert code == 0, (argv, tol)
            results.append(json.loads(out)["results"])
        assert results[0] == results[1], argv


def test_search_output_and_thread_invariance(capsys):
    code, first, _ = run(capsys, "search", "--m", "3", "--points", "30000",
                         "--seed", "5", "--threads", "1")
    assert code == 0
    lines = first.strip().split("\n")
    assert lines[0] == "quantity,color,value"
    assert [l.split(",")[0] for l in lines[1:]] == \
        ["best_p"] * 3 + ["value", "family_gap"]
    _, again, _ = run(capsys, "search", "--m", "3", "--points", "30000",
                      "--seed", "5", "--threads", "4")
    assert again == first
    _, other_seed, _ = run(capsys, "search", "--m", "3", "--points", "30000",
                           "--seed", "6", "--threads", "1")
    assert other_seed != first


def test_worker_pool_is_capped(monkeypatch, capsys):
    # a pool starts a thread per block submitted while none is idle; a stub
    # pool records the count it is given and runs the blocks inline
    built = []

    class InlinePool:
        def __init__(self, max_workers):
            built.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(_parallel, "ThreadPoolExecutor", InlinePool)
    blocks = [(i,) for i in range(100)]
    assert _parallel.map_ordered(lambda i: i * i, blocks, threads=10 ** 6) \
        == [i * i for i in range(100)]
    assert built == [_parallel.MAX_THREADS]
    monkeypatch.setenv(_parallel.THREADS_ENV, str(10 ** 6))
    assert _parallel.effective_threads(None) == _parallel.MAX_THREADS
    built.clear()
    _, one, _ = run(capsys, "search", "--m", "3", "--points", "50",
                    "--threads", "1")
    code, many, _ = run(capsys, "search", "--m", "3", "--points", "50",
                        "--threads", "1000000")
    assert (code, many, built) == (0, one, [])


def test_search_seed_lands_in_provenance(capsys):
    _, out, _ = run(capsys, "search", "--m", "2", "--points", "100",
                    "--seed", "11", "--format", "json")
    assert json.loads(out)["provenance"]["seed"] == 11


def test_shoes_derive_exact(capsys):
    code, out, _ = run(capsys, "shoes", "derive",
                       "--left", "0.75,0.25", "--right", "0.75,0.25")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,color,value,error"
    assert lines[1] == "m1,0,0.9,0"
    assert lines[3] == "m2,0,0.865384615385,0"  # 45/52 to 12 digits
    assert lines[5].startswith("discrepancy,,0.0346153846154,0")
    _, out, _ = run(capsys, "shoes", "derive", "--left", "0.75,0.25",
                    "--right", "0.75,0.25", "--format", "json")
    assert json.loads(out)["provenance"]["diagnostics"] == {"path": "exact"}


def test_shoes_derive_exact_near_degenerate_pairs(capsys):
    code, out, err = run(capsys, "shoes", "derive", "--left", "1e-300,1",
                         "--right", "1,0", "--exact")
    assert code == 0 and err == ""
    assert out.split("\n")[3:5] == ["m2,0,1,0", "m2,1,0,0"]
    code, _, err = run(capsys, "shoes", "derive", "--exact",
                       "--left", "3.5422106633144815e-22,0.8914260451620935,"
                       "0.1085739548379065",
                       "--right", "0.999999987925039,1.9141217601772464e-11,"
                       "1.20558198391119e-08")
    assert code == 0 and err == ""


def test_shoes_derive_simulation_path(capsys):
    left = ",".join(["0.0909090909090909"] * 10 + ["0.090909090909091"])
    code, out, _ = run(capsys, "shoes", "derive", "--left", left,
                       "--right", left, "--trials", "20000", "--seed", "3",
                       "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["parameters"]["mode"] == "simulate"
    assert envelope["provenance"]["seed"] == 3
    assert envelope["provenance"]["diagnostics"] == {"path": "simulated",
                                                     "truncated": 0}
    last = envelope["results"]["rows"][-1]
    assert last[0] == "discrepancy"
    assert last[3] > 0.0  # simulated: a real error bar
    m2_rows = [r for r in envelope["results"]["rows"] if r[0] == "m2"]
    assert len(m2_rows) == 11
    # 11 uniform colors: every estimate close to 1/11
    assert all(abs(r[2] - 1 / 11) < 0.02 for r in m2_rows)


def test_shoes_derive_exact_flag_beats_the_size_cutoff(capsys):
    left = ",".join(["0.0909090909090909"] * 10 + ["0.090909090909091"])
    code, _, err = run(capsys, "shoes", "derive", "--left", left,
                       "--right", left, "--exact")
    assert code == 2 and "TooManyColors" in err


def test_shoes_derive_truncation_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(shoes, "_walk_horizon", lambda sp, trials: 2)
    left = ",".join(["0.0909090909090909"] * 10 + ["0.090909090909091"])
    code, _, err = run(capsys, "shoes", "derive", "--left", left,
                       "--right", left, "--trials", "10000")
    assert code == 4 and "ExcessTruncation" in err


def test_shoes_disjoint_supports_exit_2(capsys):
    code, _, err = run(capsys, "shoes", "derive",
                       "--left", "1.0,0.0", "--right", "0.0,1.0")
    assert code == 2 and "InvalidPair" in err


def test_sup_demo(capsys):
    code, out, _ = run(capsys, "shoes", "sup-demo", "--n", "100,1000",
                       "--trials", "20000", "--seed", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,value,error"
    first = [float(v) for v in lines[1].split(",")]
    second = [float(v) for v in lines[2].split(",")]
    assert first[0] == 100 and second[0] == 1000
    assert first[1] < second[1]  # the climb toward 1


def test_tolerance_failure_exits_3(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ToleranceNotMet("budget exhausted before the requested tol")

    monkeypatch.setattr(cli, "ell", explode)
    code, out, err = run(capsys, "limit", "--kind", "socks", "--c", "1.0")
    assert code == 3 and out == ""
    assert "ToleranceNotMet" in err

    def two_modes(*args, **kwargs):
        raise UnimodalityError("competing mode near argument 2.0")

    monkeypatch.setattr(cli, "ell_argmax", two_modes)
    code, out, err = run(capsys, "limit", "--kind", "socks", "--argmax")
    assert code == 3 and out == ""
    assert "UnimodalityError" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert pairlaw.__version__ in capsys.readouterr().out


def test_unknown_arguments_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["derive", "--dist", "1.0", "--bogus"])
    assert exc.value.code == 2


def _full_parse_run(argv):
    """(exit code, stdout, stderr, namespace) of argv through a fresh full
    parser, the handler and render: the route cli.main took before it
    parsed at the leaf parser."""
    out, err = io.StringIO(), io.StringIO()
    args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
            envelope = args.handler(args)
        except SystemExit as exc:
            code = exc.code
        except tuple(cli.EXIT_CODES) as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = next(code for kind, code in cli.EXIT_CODES.items()
                        if isinstance(exc, kind))
        else:
            sys.stdout.write(cli.render(envelope, args.format))
            code = 0
    return code, out.getvalue(), err.getvalue(), _fields(args)


def _fields(args):
    """A namespace's fields as text, so that NaN values compare equal."""
    return None if args is None else {k: repr(v) for k, v in vars(args).items()}


def _main_run(argv):
    """(exit code, stdout, stderr, namespace) of argv through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    args = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli._parse(list(argv))
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), _fields(args)


#: Argvs whose parse takes argparse's less common turns: help and version
#: before and after a subcommand, an ambiguous and an unknown flag, "--"
#: and values that begin with "-", an incomplete path, repeated flags.
HAND_PICKED = [
    [], ["-h"], ["--version"], ["--help", "derive"], ["--version", "derive"],
    ["derive", "-h"], ["derive", "--dist", "0.5,0.5", "--help"],
    ["derive", "--version"], ["shoes", "-h"], ["shoes", "derive", "-h"],
    ["shoes", "sup-demo", "--n", "16", "--version"],
    ["derive", "--dis", "0.5,0.5"], ["derive", "--dist-f", "missing.txt"],
    ["derive", "--dist", "1.0", "--bogus"], ["--bogus"], ["--bogus", "derive"],
    ["limit", "--kind", "socks", "--arg"], ["limit", "--kind", "sock"],
    ["derive", "--", "--dist", "1"], ["derive", "--dist", "1", "--"],
    ["derive", "--dist", "--", "1"], ["derive", "--dist", "-1,2"],
    ["derive", "--dist=-0.5,1.5"], ["limit", "--kind", "socks", "--c", "-1"],
    ["limit", "--kind", "socks", "--c", "-1.5"], ["family", "--n", "-3"],
    ["shoes", "derive", "--left", "-0.5,1.5", "--right", "0.5,0.5"],
    ["shoes"], ["shoes", "derive"], ["shoes", "bogus"],
    ["shoes", "--left", "1", "derive"], ["deriv", "--dist", "1"],
    ["derive", "derive"], ["shoes", "derive", "derive"],
    ["derive", "--dist", "1", "extra"], ["family"], ["family", "--n", "x"],
    ["derive", "--method", "m3", "--dist", "1"],
    ["family", "--n", "2", "--n", "3"],
    ["derive", "--dist", "0.5,0.5", "--dist", "1", "--format", "json"],
    ["search", "--m", "2", "--points", "5", "--threads", "1", "--threads",
     "2", "--format", "json"],
    ["shoes", "derive", "--left", "0.5,0.5", "--right", "0.5,0.5",
     "--exact", "--exact", "--format", "json"],
]


def test_leaf_parsing_matches_the_full_parser_byte_for_byte(monkeypatch):
    argvs = EVERY_MODE + _fuzz_argvs(1212, 60) + HAND_PICKED
    well_formed = []
    for argv in argvs:
        want = _full_parse_run(argv)
        got = _main_run(argv)
        assert got[:3] == want[:3], argv
        if want[3] is not None:
            assert got[3] == want[3], argv
            well_formed.append(argv)
    assert len(well_formed) >= 70

    def refuse(*args, **kwargs):
        raise AssertionError("a well-formed argv ran the full parser")

    full, _ = cli._PARSERS
    monkeypatch.setattr(full, "parse_args", refuse)
    for argv in well_formed:
        cli._parse(argv)
    with pytest.raises(AssertionError):
        cli._parse(["derive", "--dist", "1", "--bogus"])


def test_main_reads_sys_argv_without_an_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["pairlaw", "derive", "--dist", "0.75,0.25"])
    assert cli.main() == 0
    assert capsys.readouterr().out == run(capsys, "derive", "--dist",
                                          "0.75,0.25")[1]


def test_traced_arguments_keep_their_names_and_positions():
    # benchmark/tracing.py counts each call's work from one argument, read
    # by position, or by name when passed by keyword, and the optimizer's
    # evaluations from element 3 of its result; a moved argument would
    # zero a per-layer count without an error
    pinned = [(pair_laws.derive_m2, 0, "d"), (shoes.shoes_m2_exact, 0, "sp"),
              (pair_laws._discrepancy_rows, 0, "P"),
              (dist_core._sorted_simplex_rows, 1, "count"),
              (family_opt.simplex_search, 1, "points"),
              (_parallel.map_ordered, 1, "args_list"),
              (dist_core._alias_draw, 3, "count")]
    for fn, index, name in pinned:
        param = list(inspect.signature(fn).parameters.values())[index]
        assert param.name == name, fn.__name__
        assert param.kind is param.POSITIONAL_OR_KEYWORD, fn.__name__
    calls = []

    def value(x):
        calls.append(x)
        return -(x - 1.0) ** 2

    def slope(x):
        calls.append(x)
        return -2.0 * (x - 1.0)

    result = maximize_scalar(value, lambda xs: [value(x) for x in xs],
                             slope, 0.0, 3.0, 16)
    assert result[3] == len(calls) > 16
