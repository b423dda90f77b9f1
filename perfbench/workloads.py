"""The four certification workloads: seeded job lists, set-up, jobs, checks.

A job's parameters are plain ints and lists, drawn from the workload seed
alone, so the inputs never depend on the library under test.  Jobs come
in rounds: every round holds one job of each class, always in the same
class order, and the seed draws the free parameters inside each class.
The runner shuffles each round and only stops at the end of a round, so
every seed measures the same mix.

Each workload provides:

* ``keep``: the share of each class's runs that the timing metrics use
  (the fastest ones; see ``run.timing_sample``).  Smaller shares give
  steadier figures but need more rounds before the timing sample holds
  100 jobs (see README.md for each workload's choice);
* ``rounds(rng)``: endless iterator of rounds, each a list of
  ``(params, expect)`` pairs, one per job class;
* ``setup()``: imports the library and builds what jobs share (towers,
  quotient contexts); it returns the state the jobs receive;
* ``prepare(state, params)``: untimed conversion of the parameters into
  library objects;
* ``execute(state, prepared, tracer)``: the timed job;
* ``summarize(raw)``: the job's answer as plain data, used both by the
  check and to compare traced with untraced runs;
* ``check(params, expect, result)``: None when the answer is right,
  otherwise the reason it is wrong.
"""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction
import json
import os
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS_FILE = HERE / "cli_corpus.json"
CLI_CHILD = HERE / "cli_child.py"
TRACE_MARK = "PERFBENCH-TRACE "
CLI_TIMEOUT_S = 60


def _mid_units(p, m):
    """Nonzero F_q elements as the library accepts them: an int for m = 1,
    otherwise a coordinate list, in canonical (itertools.product) order."""
    out = []
    for digits in itertools.product(range(p), repeat=m):
        if any(digits):
            out.append(digits[0] if m == 1 else list(digits))
    return out


def _top_unit(rng, p, m, r):
    """A random nonzero element of F_{q^r} as r mid coordinate lists."""
    while True:
        digits = [rng.randrange(p) for _ in range(m * r)]
        if any(digits):
            return [digits[i * m:(i + 1) * m] for i in range(r)]


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# acd-distance: one additive code per job, with hull and distance oracles
# ---------------------------------------------------------------------------


class AcdDistance:
    name = "acd-distance"
    keep = Fraction(1, 4)
    # (p, m, r), k, admissible lengths ell <= min(q-1, 8)
    CLASSES = [((5, 1, 2), 2, range(3, 5))] + [
        (tower, 1, range(2, 9)) for tower in ((3, 2, 2), (13, 1, 2), (17, 1, 2))
    ]

    def rounds(self, rng):
        while True:
            batch = []
            for (p, m, r), k, ells in self.CLASSES:
                units = _mid_units(p, m)
                for ell in ells:
                    params = {
                        "tower": [p, m, r],
                        "k": k,
                        "lambda": rng.sample(units, ell),
                        "gamma": _top_unit(rng, p, m, r),
                    }
                    batch.append((params, {"singleton": ell - k + 1}))
            yield batch

    def setup(self):
        from sumrank.fields import FieldTower

        towers = {}
        for tower, _, _ in self.CLASSES:
            towers[tower] = FieldTower(*tower)
            towers[tower].skew_unit()
        return {"towers": towers}

    def prepare(self, state, params):
        from sumrank import acd

        tower = state["towers"][tuple(params["tower"])]
        lams = [tower.mid(x) for x in params["lambda"]]
        return acd.AcdParams.make(tower, params["k"], lams, tower.top(params["gamma"]))

    def execute(self, state, prepared, tracer):
        from sumrank import acd

        return acd.build_report(prepared, with_oracle=True, with_distance=True)

    def summarize(self, report):
        return {
            "det_t": str(report.det_t),
            "matrix": report.acd_by_matrix,
            "structured": report.acd_by_structured,
            "oracle": report.acd_by_oracle,
            "hull": report.hull_dim,
            "mds": report.mds_by_criterion,
            "d": report.min_distance,
        }

    def check(self, params, expect, res):
        if res["matrix"] != res["oracle"]:
            return f"matrix verdict {res['matrix']} != hull oracle {res['oracle']}"
        if res["structured"] not in (None, res["matrix"]):
            return f"structured verdict {res['structured']} != matrix {res['matrix']}"
        bound = expect["singleton"]
        if not 1 <= res["d"] <= bound:
            return f"distance {res['d']} outside 1..{bound}"
        if res["mds"] and res["d"] != bound:
            return f"criterion says MDS but distance {res['d']} != {bound}"
        return None


# ---------------------------------------------------------------------------
# acd-search: evaluation-set search, then hull re-certification
# ---------------------------------------------------------------------------


class AcdSearch:
    name = "acd-search"
    keep = Fraction(1, 4)
    QS = (13, 17)

    def rounds(self, rng):
        pairs = [
            (q, k, ell)
            for q in self.QS
            for ell in range(2, q - 1)
            for k in range(1, ell // 2 + 1)
        ]
        while True:
            yield [
                ({"q": q, "k": k, "ell": ell}, {"found": k + ell < q})
                for q, k, ell in pairs
            ]

    def setup(self):
        from sumrank.fields import FieldTower

        towers = {q: FieldTower(q, 1, 2) for q in self.QS}
        for tower in towers.values():
            tower.skew_unit()
        return {"towers": towers}

    def prepare(self, state, params):
        return state["towers"][params["q"]], params["k"], params["ell"]

    def execute(self, state, prepared, tracer):
        from sumrank import acd
        from sumrank.errors import SearchFailedError

        tower, k, ell = prepared
        try:
            found = acd.lambda_search(tower, k, ell)
        except SearchFailedError as exc:
            return None, exc.candidates_scanned
        return acd.build_report(found, with_oracle=True), None

    def summarize(self, raw):
        report, scanned = raw
        if report is None:
            return {"found": False, "scanned": scanned}
        return {
            "found": True,
            "lambda": [str(x) for x in report.params.lambda_set],
            "matrix": report.acd_by_matrix,
            "structured": report.acd_by_structured,
            "oracle": report.acd_by_oracle,
            "mds": report.mds_by_criterion,
        }

    def check(self, params, expect, res):
        if res["found"] != expect["found"]:
            return f"found {res['found']}, expected {expect['found']}"
        if res["found"]:
            if not (res["matrix"] and res["oracle"] and res["mds"]):
                return f"found set does not re-certify: {res}"
            if res["structured"] not in (None, True):
                return f"structured verdict {res['structured']} on a found set"
        return None


# ---------------------------------------------------------------------------
# tlrs-certify: build, Gram + hull oracle, exhaustive sum-rank distance
# ---------------------------------------------------------------------------


class TlrsCertify:
    name = "tlrs-certify"
    keep = Fraction(1, 3)
    # (p, m, r), k, largest ell; every ell | q-1 up to it is one class
    CLASSES = [
        ((5, 1, 2), 1, 4),
        ((5, 1, 2), 2, 2),
        ((3, 2, 2), 1, 4),
        ((13, 1, 2), 1, 4),
        ((5, 1, 3), 1, 4),
        ((7, 1, 3), 1, 3),
    ]

    def _classes(self):
        for (p, m, r), k, max_ell in self.CLASSES:
            for ell in _divisors(p**m - 1):
                if ell <= max_ell and k <= ell * r - 1:
                    yield (p, m, r), k, ell

    def rounds(self, rng):
        classes = list(self._classes())
        while True:
            batch = []
            for (p, m, r), k, ell in classes:
                params = {
                    "tower": [p, m, r],
                    "ell": ell,
                    "k": k,
                    "h": rng.randrange(r),
                    "eta": _top_unit(rng, p, m, r),
                }
                batch.append((params, {"singleton": ell * r - k + 1}))
            yield batch

    def setup(self):
        from sumrank.fields import FieldTower
        from sumrank.skew import QuotientCtx

        towers, ctxs = {}, {}
        for tower, _, ell in self._classes():
            if tower not in towers:
                towers[tower] = FieldTower(*tower)
            if (tower, ell) not in ctxs:
                ctxs[(tower, ell)] = QuotientCtx.build(towers[tower], ell)
        return {"towers": towers, "ctxs": ctxs}

    def prepare(self, state, params):
        from sumrank import tlrs

        key = tuple(params["tower"])
        tower = state["towers"][key]
        ctx = state["ctxs"][(key, params["ell"])]
        return tlrs.TlrsParams(ctx, params["k"], params["h"], tower.top(params["eta"]))

    def execute(self, state, prepared, tracer):
        from sumrank import tlrs

        code = tlrs.build_code(prepared)
        report = tlrs.gram(code, with_oracle=True)
        return report, tlrs.min_sum_rank_distance(code)

    def summarize(self, raw):
        report, dist = raw
        return {
            "det": str(report.det_value),
            "det_nonzero": bool(report.det_value),
            "criterion": report.lcd_by_criterion,
            "oracle": report.lcd_by_oracle,
            "hull": report.hull_dim,
            "d": dist,
        }

    def check(self, params, expect, res):
        if res["criterion"] != res["oracle"]:
            return f"criterion {res['criterion']} != oracle {res['oracle']}"
        if res["det_nonzero"] != res["criterion"]:
            return f"det(gram) = {res['det']} disagrees with criterion {res['criterion']}"
        if not 1 <= res["d"] <= expect["singleton"]:
            return f"distance {res['d']} outside 1..{expect['singleton']}"
        return None


# ---------------------------------------------------------------------------
# cli-pinned: a fixed command corpus, one fresh interpreter per command
# ---------------------------------------------------------------------------


def child_env():
    """Environment for CLI children: the checkout's sources first, and none
    of the guard variables that would change the pinned outputs."""
    env = dict(os.environ)
    env.pop("SUMRANK_MAX_ENUM", None)
    env.pop("SUMRANK_MAX_HULL", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_cli(argv, traced=False):
    """Run one CLI command in a fresh interpreter.

    Returns (exit code, stdout bytes, stderr text, spawn time).  The
    traced form goes through the benchmark's own entry point, which wraps
    the library before calling ``sumrank.cli.main``."""
    if traced:
        cmd = [sys.executable, str(CLI_CHILD), *argv]
    else:
        cmd = [sys.executable, "-m", "sumrank.cli", *argv]
    spawned = perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, env=child_env(), cwd=str(ROOT), timeout=CLI_TIMEOUT_S
    )
    return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"), spawned


def load_corpus():
    return json.loads(CORPUS_FILE.read_text())


class CliPinned:
    name = "cli-pinned"
    # Each job costs a whole interpreter start, so a run holds too few
    # rounds to drop any: every run of every command is kept.
    keep = Fraction(1)

    def rounds(self, rng):
        corpus = load_corpus()
        while True:
            yield [
                (
                    {"name": c["name"], "argv": c["argv"]},
                    {"exit": c["exit"], "stdout_sha256": c["stdout_sha256"],
                     "stdout_bytes": c["stdout_bytes"]},
                )
                for c in corpus
            ]

    def setup(self):
        import sumrank.cli  # noqa: F401  (the cold import is the set-up)

        return {}

    def prepare(self, state, params):
        return params["argv"]

    def execute(self, state, argv, tracer):
        code, out, err, spawned = run_cli(argv, traced=tracer is not None)
        if tracer is not None:
            child = _child_trace(err)
            tracer.merge(child["agg"])
            tracer.extra["cli.startup_s"] += child["imported"] - spawned
            tracer.extra["cli.emit.bytes"] += len(out)
            tracer.extra[f"cli.exit.{code}"] += 1
        return code, out

    def summarize(self, raw):
        code, out = raw
        return {
            "exit": code,
            "stdout_sha256": hashlib.sha256(out).hexdigest(),
            "stdout_bytes": len(out),
        }

    def check(self, params, expect, res):
        for key in ("exit", "stdout_bytes", "stdout_sha256"):
            if res[key] != expect[key]:
                return f"{key} {res[key]!r} != expected {expect[key]!r}"
        return None


def _child_trace(stderr_text):
    for line in reversed(stderr_text.splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    raise RuntimeError("traced CLI child printed no trace record")


WORKLOADS = {w.name: w for w in (AcdDistance(), AcdSearch(), TlrsCertify(), CliPinned())}
