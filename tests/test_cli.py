"""Command-line surface: flags, formats, exit codes, determinism."""

import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumrank.cli import build_parser, main

EXAMPLE_BUILD = [
    "tlrs-build",
    "--p", "5", "--m", "1", "--r", "2",
    "--ell", "2", "--k", "1", "--h", "0",
    "--eta", "2+1u",
]


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_examples_passes(capsys):
    code, out = run_cli(capsys, ["verify-paper-examples"])
    assert code == 0
    assert "MISMATCH" not in out
    assert "12/12 checks passed" in out


def test_tlrs_build_example(capsys):
    code, out = run_cli(capsys, EXAMPLE_BUILD + ["--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert record["gram"] == [["4", "1"], ["1", "3"]]
    assert record["det"] == "1"
    assert record["lcd_by_criterion"] and record["lcd_by_oracle"]
    assert record["hull_dim"] == 0


def test_tlrs_build_self_orthogonal(capsys):
    argv = [a if a != "2+1u" else "2+0u" for a in EXAMPLE_BUILD]
    code, out = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    record = json.loads(out)
    assert all(all(x == "0" for x in row) for row in record["gram"])
    assert not record["lcd_by_criterion"]
    assert record["hull_dim"] == 2


def test_acd_search(capsys):
    code, out = run_cli(
        capsys,
        ["acd-search", "--p", "5", "--k", "1", "--ell", "3",
         "--with-distance", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["acd_by_matrix"] and record["acd_by_oracle"]
    assert record["mds_by_criterion"]
    assert record["min_distance"] == 3
    assert record["singleton_bound"] == 3


def test_acd_build_with_gamma(capsys):
    code, out = run_cli(
        capsys,
        ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3",
         "--gamma", "0+1u", "--with-distance", "--format", "json"],
    )
    assert code == 0
    record = json.loads(out)
    assert record["t"] == [["4", "0"], ["0", "3"]]
    assert record["min_distance"] == 2


def test_invalid_config_exit_code(capsys):
    code = main(EXAMPLE_BUILD[:-1] + ["not-an-element"])
    assert code == 2
    code = main(
        ["tlrs-build", "--p", "5", "--ell", "2", "--k", "9", "--eta", "2+1u"]
    )
    assert code == 2
    code = main(["acd-search", "--p", "5", "--k", "2", "--ell", "3"])
    assert code == 2


def test_guard_exceeded_exit_code(capsys):
    code = main(EXAMPLE_BUILD + ["--with-distance", "--max-enum", "3"])
    assert code == 3


def test_search_not_found_exit_code(capsys):
    # geometric-only search at q=5, ell=2 exhausts both primitive elements
    code = main(
        ["acd-search", "--p", "5", "--k", "1", "--ell", "2",
         "--strategy", "geometric"]
    )
    assert code == 1


def test_sweep_deterministic(capsys):
    argv = [
        "tlrs-sweep", "--p", "5", "--m", "1", "--r", "2",
        "--ell", "2", "--k", "1", "--format", "json",
    ]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert first == second
    rows = [json.loads(line) for line in first.splitlines()]
    assert len(rows) == 48  # 24 nonzero etas x 2 twist exponents
    for row in rows:
        assert row["lcd_by_criterion"] == row["lcd_by_oracle"]


def test_acd_sweep_agrees(capsys):
    code, out = run_cli(
        capsys,
        ["acd-sweep", "--p", "5", "--count", "40", "--seed", "1",
         "--format", "json"],
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 40
    assert all(row["agree"] for row in rows)
    assert run_cli(capsys, ["acd-sweep", "--p", "5", "--count", "0"]) == (0, "")


def _json_rows(capsys, argv):
    code, out = run_cli(capsys, argv)
    return code, [json.loads(line) for line in out.splitlines()]


def test_tlrs_sweep_rows_are_the_build_records(capsys):
    """Each tlrs-sweep row repeats, key for key but its kind, the record
    tlrs-build prints for its (k, h, eta), with p, m and r read under
    "field"."""
    code, rows = _json_rows(capsys, ["tlrs-sweep", "--p", "5", "--ell", "2", "--format", "json"])
    assert code == 0 and len(rows) == 3 * 2 * 24
    for row in rows:
        code, [record] = _json_rows(capsys, [
            "tlrs-build", "--p", "5", "--ell", "2", "--k", str(row["k"]), "--h", str(row["h"]),
            "--eta", row["eta"], "--format", "json"])
        assert code == 0
        record.update(record.pop("field"))
        del row["kind"]
        assert row == {key: record[key] for key in row}


@pytest.mark.parametrize("turned", [False, True])
def test_acd_sweep_rows_are_the_build_records(capsys, monkeypatch, turned):
    """Each seeded acd-sweep row repeats, key for key but its kind and
    index, the record acd-build prints for its drawn (k, lambda, gamma),
    and agrees exactly when that build exits 0, also with the hull oracle
    turned against the other routes."""
    monkeypatch.delenv("SUMRANK_MAX_HULL", raising=False)
    if turned:
        from sumrank import acd

        original = acd.acd_oracle
        monkeypatch.setattr(acd, "acd_oracle", lambda *a, **kw: _hull_where_none(original(*a, **kw)))
    code, rows = _json_rows(capsys, ["acd-sweep", "--p", "13", "--count", "20", "--seed", "7",
                                     "--format", "json"])
    assert code == int(turned) and len(rows) == 20
    for row in rows:
        code, [record] = _json_rows(capsys, [
            "acd-build", "--p", "13", "--k", str(row["k"]), "--lambda", ",".join(row["lambda"]),
            "--gamma", row["gamma"], "--format", "json"])
        assert row.pop("agree") == (code == 0) == (not turned)
        del row["kind"], row["index"]
        assert row == {key: record[key] for key in row}


def test_tlrs_build_over_a_large_prime(capsys):
    """Over p = 1000003 the evaluation points' norm preimages come from
    square roots in F_q, not from a scan of L."""
    start = time.perf_counter()
    code, out = run_cli(capsys, ["tlrs-build", "--p", "1000003", "--ell", "6", "--k", "1",
                                 "--eta", "1+1u"])
    assert code == 0 and out
    assert time.perf_counter() - start < 10


def _hull_where_none(hull):
    """A hull oracle's answer turned: a hull exactly where there is none."""
    return int(not hull)


def _block_verdict_turned(v):
    """acd verdicts with the block criterion's answer turned, built as a new
    record from the old one's fields."""
    return type(v)(v.matrix_ok, not v.structured_ok, v.structured_reason, v.det_t,
                   v.det_g0, v.delta)


@pytest.mark.parametrize("argv, planted, turn", [
    pytest.param(EXAMPLE_BUILD, "tlrs.hull_oracle", _hull_where_none, id="tlrs-build"),
    # without the oracle, the criterion still answers to det G
    pytest.param(["tlrs-sweep", "--p", "5", "--ell", "2", "--k", "1", "--h", "0",
                  "--no-oracle"], "tlrs.lcd_criterion", lambda lcd: not lcd, id="tlrs-sweep"),
    pytest.param(["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3"], "acd.acd_check",
                 _block_verdict_turned, id="acd-build"),
    pytest.param(["acd-search", "--p", "5", "--k", "1", "--ell", "3"], "acd.acd_oracle",
                 _hull_where_none, id="acd-search"),
    pytest.param(["acd-sweep", "--p", "5", "--count", "5", "--seed", "1"], "acd.acd_oracle",
                 _hull_where_none, id="acd-sweep"),
    # the MDS criterion holds (gamma = alpha), so the walk must reach
    # ell - k + 1; it is turned to ell - k, which the floor still admits
    pytest.param(["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3", "--with-distance"],
                 "acd.min_distance_oracle", lambda d: d - 1, id="acd-build-distance"),
    pytest.param(["acd-search", "--p", "5", "--k", "1", "--ell", "3", "--with-distance"],
                 "acd.min_distance_oracle", lambda d: d - 1, id="acd-search-distance"),
    # d is the floor N - k or N - k + 1, so d - 2 lies below the floor
    pytest.param(EXAMPLE_BUILD + ["--with-distance"], "tlrs.min_sum_rank_distance",
                 lambda d: d - 2, id="tlrs-build-distance"),
])
def test_routes_that_disagree_exit_1(capsys, monkeypatch, argv, planted, turn):
    """Each build, sweep and search exits 0, and exits 1 once the answer of
    one certification route is turned so that it contradicts the others;
    the report is printed either way."""
    monkeypatch.delenv("SUMRANK_MAX_HULL", raising=False)
    code, out = run_cli(capsys, argv)
    assert code == 0 and out
    module, name = planted.split(".")
    module = importlib.import_module(f"sumrank.{module}")
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **kw: turn(original(*a, **kw)))
    code, out = run_cli(capsys, argv)
    assert code == 1 and out


def test_csv_format(capsys):
    code, out = run_cli(
        capsys,
        ["tlrs-sweep", "--p", "5", "--ell", "2", "--k", "1", "--h", "0",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("schema,kind,p,m,r,ell,k,h,eta,det")
    assert len(lines) == 25  # header + 24 rows


def test_console_script_entry():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "sumrank.cli", "verify-paper-examples"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "12/12 checks passed" in proc.stdout


def test_a_closed_pipe_leaks_no_traceback():
    """A reader that closes stdout after the first line (as ``| head`` does)
    ends the sweep with exit 1 and nothing on stderr, instead of a
    BrokenPipeError traceback from the write or the exit-time flush."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    argv = ["tlrs-sweep", "--p", "3", "--m", "2", "--r", "2", "--ell", "2", "--k", "1",
            "--h", "0", "--format", "json"]
    proc = subprocess.Popen([sys.executable, "-m", "sumrank.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=dict(os.environ, PYTHONPATH=path))
    assert json.loads(proc.stdout.readline())["kind"] == "tlrs-sweep-row"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    # exit 0 only if the whole sweep reached the pipe before it closed
    assert proc.wait(timeout=60) in (0, 1)
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


@pytest.mark.parametrize("argv", [
    ["tlrs-build", "--p", "100000000000000000039", "--ell", "2", "--k", "1", "--eta", "1"],
    ["acd-build", "--p", "3", "--m", "40", "--k", "1", "--lambda", "1,2"],
    ["tlrs-build", "--p", "3", "--r", "40", "--ell", "2", "--k", "1", "--eta", "1"],
    ["tlrs-build", "--p", "3", "--m", "30", "--ell", "2", "--k", "1", "--eta", "1"],
])
def test_tower_construction_is_guarded(argv):
    """A tower whose construction would trial-divide a huge p or q - 1, or
    scan for a modulus of high degree, is refused before any of that work:
    exit 3 within 2 s, with the estimate named and no traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "sumrank.cli", *argv], capture_output=True,
                          text=True, timeout=2, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 3, proc.stderr
    assert "estimated" in proc.stderr and "Traceback" not in proc.stderr, proc.stderr


def _mostly(tame, wild):
    """Four draws in five from ``tame``, the fifth from ``wild``."""
    return st.integers(0, 4).flatmap(lambda i: wild if i == 0 else tame)


# The values the grammar test draws: mostly small valid fields and
# parameters, but also composite, zero, negative and huge ones, element
# texts with brackets, signs and powers, valid or not, and small guards.
_HUGE = st.sampled_from([-10**30, 10**20, 2**61 - 1, 10**20 + 39])


def _ints(*tame):
    return _mostly(st.sampled_from(tame), st.one_of(st.integers(-3, 0), _HUGE))


_GUARDS = _mostly(st.sampled_from([0, 10, 100, 1000]), st.sampled_from([-1, -10**30]))
_FIELD = {
    "--p": _mostly(st.sampled_from([3, 5, 13]),
                   st.one_of(st.sampled_from([2, 1, 4, 9, 0, -5]), _HUGE)),
    "--m": _mostly(st.sampled_from([1, 1, 2]), st.sampled_from([0, -1, 40, 10**20])),
    "--r": _mostly(st.sampled_from([1, 2, 2, 3]), st.sampled_from([0, -2, 40, 10**20])),
}
_TEXT = st.text("0123456789+-^uy[], x", max_size=10)
_ELEMENT = _mostly(st.sampled_from(["1", "2+1u", "3+2u", "1u^2", "[1,2]", "[[1],[2]]", "3y+1u",
                                    "[[1,1],[0,2]]", "2"]), _TEXT)
_POINTS = _mostly(st.sampled_from(["2,3", "1,2", "1,2,3", "[1,1],[2,0]", "2", "3,3"]), _TEXT)
_SUBCOMMANDS = {
    "tlrs-build": {**_FIELD, "--ell": _ints(1, 2, 4, 6), "--k": _ints(1, 2, 3),
                   "--h": _ints(0, 1), "--eta": _ELEMENT, "--no-oracle": None,
                   "--with-distance": None, "--max-enum": _GUARDS},
    # an r = 3 sweep at q = 13 certifies 2,196 codes, over a second
    "tlrs-sweep": {**_FIELD, "--r": _mostly(st.sampled_from([1, 2]), _FIELD["--r"]),
                   "--ell": _ints(1, 2, 4, 6), "--k": _ints(1, 2, 3),
                   "--h": _ints(0, 1), "--no-oracle": None},
    "acd-build": {"--p": _FIELD["--p"], "--m": _FIELD["--m"], "--k": _ints(1, 2),
                  "--lambda": _POINTS, "--gamma": _ELEMENT, "--no-oracle": None,
                  "--with-distance": None, "--max-enum": _GUARDS, "--max-hull": _GUARDS},
    "acd-search": {"--p": _FIELD["--p"], "--m": _FIELD["--m"], "--k": _ints(1, 2),
                   "--ell": _ints(2, 3, 4, 5),
                   "--strategy": st.sampled_from(["auto", "geometric", "exhaustive", "x"]),
                   "--with-distance": None, "--max-enum": _GUARDS, "--max-hull": _GUARDS},
    "acd-sweep": {"--p": _FIELD["--p"], "--m": _FIELD["--m"], "--count": _ints(0, 1, 2, 3),
                  "--seed": _ints(0, 1, 7), "--max-ell": _ints(2, 4, 6), "--max-hull": _GUARDS},
    "verify-paper-examples": {},
}
# flags every command line carries: most required ones, the sizes of a
# sweep and the guards, which would otherwise take their full defaults
_ALWAYS = {"--p", "--k", "--eta", "--lambda", "--count", "--h", "--max-enum", "--max-hull"}


@st.composite
def _command_lines(draw):
    """A subcommand and some of its flags, each with a drawn value, and
    ``--format`` where the subcommand has it."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    argv = [name]
    for flag, values in _SUBCOMMANDS[name].items():
        if flag in _ALWAYS or draw(st.integers(0, 9)) < (9 if flag == "--ell" else 4):
            argv += [flag] if values is None else [flag, str(draw(values))]
    if name != "verify-paper-examples" and draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["text", "json", "csv", "xml"]))]
    return argv


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(argv=_command_lines())
@example(argv=["tlrs-build", "--p", "100000000000000000039", "--ell", "2", "--k", "1",
               "--eta", "1"])
@example(argv=["acd-search", "--p", "2305843009213693951", "--k", "1", "--ell", "2"])
@example(argv=["acd-sweep", "--p", "5", "--count", "100000000000000000000"])
def test_cli_grammar_exits_with_a_documented_code(argv):
    """Any command line, valid or not, ends in exit 0, 1, 2 or 3 within 2 s,
    with no exception escaping main: huge fields and degrees are refused
    by the tower guard, and bad values and texts as invalid configuration."""
    def timeout(*_):
        raise TimeoutError(f"{argv} ran past 2 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def test_bad_input_names_the_input(capsys, monkeypatch):
    cases = [
        ({}, ["acd-sweep", "--p", "13", "--max-hull", "2"], "hull guard"),
        ({}, ["acd-sweep", "--p", "13", "--max-ell", "1"], "--max-ell"),
        (
            {"SUMRANK_MAX_HULL": "abc"},
            ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3"],
            "SUMRANK_MAX_HULL",
        ),
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,x"], "'x'"),
        ({}, EXAMPLE_BUILD[:-1] + ["2+1v"], "'1v'"),
        ({}, ["tlrs-sweep", "--p", "5", "--ell", "3"], "ell = 3"),
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3",
              "--max-hull", "2"], "exceeds guard 2", 3),
        ({}, ["acd-search", "--p", "5", "--k", "1", "--ell", "3",
              "--max-hull", "2"], "exceeds guard 2", 3),
        ({}, ["tlrs-sweep", "--p", "13", "--r", "3", "--ell", "12"],
         "plans 230580 reports, above the bound 10000; narrow it with --k or --h", 3),
        # options no handler reads are argparse errors
        ({}, EXAMPLE_BUILD + ["--max-hull", "64"], "--max-hull"),
        ({}, ["tlrs-sweep", "--p", "5", "--ell", "2", "--max-enum", "9"], "--max-enum"),
        ({}, ["tlrs-sweep", "--p", "5", "--ell", "2", "--max-hull", "64"], "--max-hull"),
        ({}, ["acd-sweep", "--p", "5", "--max-enum", "9"], "--max-enum"),
        ({}, ["verify-paper-examples", "--format", "json"], "--format"),
        ({}, ["verify-paper-examples", "--max-enum", "9"], "--max-enum"),
        ({}, ["verify-paper-examples", "--max-hull", "64"], "--max-hull"),
        # negative counts and guards, from options or the environment
        ({}, ["acd-sweep", "--p", "13", "--count", "-1"],
         "invalid configuration: --count must not be negative"),
        ({}, EXAMPLE_BUILD + ["--with-distance", "--max-enum", "-5"],
         "invalid configuration: --max-enum must not be negative"),
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3", "--max-hull", "-1"],
         "invalid configuration: --max-hull must not be negative"),
        ({}, ["acd-search", "--p", "5", "--k", "1", "--ell", "3", "--max-enum", "-1"],
         "invalid configuration: --max-enum must not be negative"),
        ({"SUMRANK_MAX_ENUM": "-1"}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3"],
         "invalid configuration: SUMRANK_MAX_ENUM must not be negative"),
        ({"SUMRANK_MAX_HULL": "-2"}, ["acd-sweep", "--p", "5", "--count", "1"],
         "invalid configuration: SUMRANK_MAX_HULL must not be negative"),
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3", "--gamma", "1+"],
         "invalid configuration: cannot parse field element '1+'"),
        # an empty list item is an error naming the text given, not a dropped item
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3", "--gamma", "[1,,2]"],
         "invalid configuration: cannot parse field element '[1,,2]': an item is empty"),
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,,3"],
         "invalid configuration: cannot parse field element '2,,3': an item is empty"),
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "2,3,"],
         "invalid configuration: cannot parse field element '2,3,': an item is empty"),
        # a coordinate list longer than its level's degree names the text given
        ({}, ["acd-build", "--p", "5", "--k", "1", "--lambda", "1,2", "--gamma", "[1,2,3]"],
         "invalid configuration: cannot parse field element '[1,2,3]':"
         " top coords must have length r = 2\n"),
        ({}, ["tlrs-build", "--p", "5", "--ell", "2", "--k", "1", "--eta", "[1,2,3]"],
         "invalid configuration: cannot parse field element '[1,2,3]':"
         " top coords must have length r = 2\n"),
        ({}, ["acd-build", "--p", "3", "--m", "2", "--k", "1", "--lambda", "[1,2,3],[0,1]"],
         "invalid configuration: cannot parse field element '[1,2,3]':"
         " mid coords must have length m = 2\n"),
    ]
    for env, argv, named, *exit_code in cases:
        monkeypatch.delenv("SUMRANK_MAX_ENUM", raising=False)
        monkeypatch.delenv("SUMRANK_MAX_HULL", raising=False)
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        assert code == (exit_code or [2])[0], argv
        assert captured.out == "", argv
        assert named in captured.err, (argv, captured.err)
        assert "randrange" not in captured.err, argv
        assert "int()" not in captured.err, argv
        assert "Traceback" not in captured.err, argv


def test_pinned_corpus_byte_identical(capsys, monkeypatch):
    """Every command of the benchmark's pinned corpus, run in-process, keeps
    its exit code and the SHA-256 of its stdout."""
    corpus = Path(__file__).resolve().parents[1] / "perfbench" / "cli_corpus.json"
    for env in ("SUMRANK_MAX_ENUM", "SUMRANK_MAX_HULL"):
        monkeypatch.delenv(env, raising=False)
    mismatches = []
    for entry in json.loads(corpus.read_text()):
        try:
            code = main(entry["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        out = capsys.readouterr().out.encode()
        digest = hashlib.sha256(out).hexdigest()
        if (code, digest) != (entry["exit"], entry["stdout_sha256"]):
            mismatches.append(f"{entry['name']}: exit {code}, sha256 {digest}")
    assert not mismatches, mismatches


def test_help_and_usage_errors_are_pinned(capsys, monkeypatch):
    """The top-level help, each subcommand's help and the usage errors (no
    subcommand, an unknown one, a missing required flag, an unknown flag,
    a bad choice) keep their exit codes and bytes, pinned in
    cli_usage.json at an 80-column terminal, though the parser gives
    arguments only to the subcommand named on the command line."""
    monkeypatch.setenv("COLUMNS", "80")
    pinned = json.loads((Path(__file__).resolve().parent / "cli_usage.json").read_text())
    for entry in pinned:
        try:
            code = main(entry["argv"])
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (
            entry["exit"], entry["stdout"], entry["stderr"]
        ), entry["argv"]
    # a subcommand not named in argv is listed but gets no arguments
    _, unread = build_parser(["acd-build"]).parse_known_args(["tlrs-build", "--p", "5"])
    assert unread == ["--p", "5"]


def test_lambda_points_may_be_coordinate_lists(capsys):
    """Commas inside [..] belong to one point; an unclosed bracket is an
    error that names its token, not a silently truncated point."""
    base = ["acd-build", "--p", "3", "--m", "2", "--k", "1", "--format", "json"]
    code, out = run_cli(capsys, base + ["--lambda", "[1,1],[2,0]"])
    assert code == 0
    assert json.loads(out)["lambda"] == ["1+1y", "2+0y"]
    for text, token in (("[1", "'[1'"), ("[1,1],2]", "'2]'")):
        code = main(base + ["--lambda", text])
        captured = capsys.readouterr()
        assert code == 2, text
        assert captured.out == "", text
        assert token in captured.err, (text, captured.err)


def test_twist_coordinates_may_be_nested_lists(capsys):
    """For m > 1 a twist is a list of F_q elements, each in --lambda's list
    syntax; an unclosed inner list is an error that names its token."""
    base = ["acd-build", "--p", "3", "--m", "2", "--k", "1",
            "--lambda", "[1,2],[2,1],[2,2]", "--with-distance", "--format", "json"]
    code, out = run_cli(capsys, base + ["--gamma", "[[2,2],[2,1]]"])
    assert code == 0
    record = json.loads(out)
    assert record["gamma"] == "(2+2y)+(2+1y)u"
    assert (record["hull_dim"], record["min_distance"]) == (0, 3)
    code = main(base + ["--gamma", "[[2,2],[2,1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "'[2,1'" in captured.err


def test_search_with_tripped_distance_guard_builds_report_once(capsys, monkeypatch):
    """A distance guard that trips leaves min_distance empty without
    rebuilding the report: one hull oracle, and acd_check and
    mds_criterion once each, their verdicts shared by the search and the
    report."""
    from sumrank import acd

    calls = {"acd_oracle": 0, "acd_check": 0, "mds_criterion": 0}
    for name in calls:
        original = getattr(acd, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(acd, name, counted)
    monkeypatch.delenv("SUMRANK_MAX_ENUM", raising=False)
    code, out = run_cli(
        capsys,
        ["acd-search", "--p", "13", "--k", "2", "--ell", "6",
         "--with-distance", "--max-enum", "1000"],
    )
    assert code == 0
    assert calls == {"acd_oracle": 1, "acd_check": 1, "mds_criterion": 1}
    assert "min_distance: None\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bf300c913e3cd026a0b4233e1b2d70b70b31713b751ccac7546a601840a1fefe"
    )


FOOTPRINT = """
import sys
before = set(sys.modules)
import sumrank.cli
imported = set(sys.modules) - before
code = sumrank.cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
ran = set(sys.modules) - before
sys.stderr.write(repr((sorted(imported), sorted(ran), code)))
"""


def _footprint(*argv):
    """(modules `import sumrank.cli` loads, modules loaded once argv ran,
    exit code), in a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("SUMRANK_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stderr.splitlines()[-1])


def test_cli_import_loads_only_what_the_subcommand_runs():
    """Each call is a fresh interpreter, so every module it imports is paid
    for on every call: the CLI imports the code layers a subcommand needs
    only when it runs, and no part of the package imports the standard
    library's record generator or its inspection modules."""
    imported, _, _ = _footprint()
    assert {m for m in imported if m.startswith("sumrank")} == {
        "sumrank", "sumrank.cli", "sumrank.errors", "sumrank.fields"
    }
    for name in ("dataclasses", "inspect", "json", "csv", "sumrank.acd", "sumrank.skew",
                 "sumrank.tlrs"):
        assert name not in imported, name
    _, ran, code = _footprint(*EXAMPLE_BUILD)
    assert code == 0
    assert "sumrank.tlrs" in ran and "sumrank.acd" not in ran
    _, ran, code = _footprint("acd-build", "--p", "5", "--k", "1", "--lambda", "2,3")
    assert code == 0
    assert "sumrank.acd" in ran
    assert "sumrank.skew" not in ran and "sumrank.tlrs" not in ran
    assert "dataclasses" not in ran and "inspect" not in ran
