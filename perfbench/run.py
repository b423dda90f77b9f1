"""Certification benchmark for sumrank.

    python3 perfbench/run.py --workload acd-distance --seed 1 --seconds 20 --trace 0

Runs one workload of certification jobs in a closed loop with one client:
the next job starts when the previous one has finished.  Every job's
answer is checked.  With ``--trace 0`` the last line of stdout is a JSON
object with the end-to-end metrics; with ``--trace 1`` the library is
wrapped by :mod:`tracing`, the same kind of run yields the per-layer
metrics, and the traced jobs are run once more untraced to measure the
tracing overhead and to confirm that tracing changes no answer.

A line starting with ``perfbench-meta`` records the run's metadata: git
commit (when the checkout is a repository), a hash of the library
sources, Python version, processor count, sample count and a fixed
pure-Python reference loop timed at the start and end of the run, which
shows host drift apart from a regression.  See ``perfbench/README.md``
for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from tracing import FIELD_OP_GROUPS, TOWER_BUILD, Tracer, layer_of
from workloads import HERE, ROOT, SRC, WORKLOADS, child_env

MIN_KEPT = 100  # timed samples per run: p90 needs ten beyond it
PHASE_CAP_S = 70.0  # a phase stops mid-round past this, so a run ends in time
PROBE_EVERY_S = 0.5  # how often, between jobs, the quietest processor is sought
SETUP_PROBES = 11
OUT_DIR = ROOT / ".perfbench-out"
FAILURES_SHOWN = 5


@dataclass
class JobRecord:
    index: int
    cls: int  # the job's class: its position in the unshuffled round
    params: dict
    expect: dict
    latency_s: float
    result: object
    error: object  # None when the job's answer checked out


def job_rounds(workload, seed):
    """The endless, shuffled rounds of one workload and seed, as lists of
    ``(class, params, expect)``."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    for batch in workload.rounds(rng):
        jobs = [(cls, params, expect) for cls, (params, expect) in enumerate(batch)]
        rng.shuffle(jobs)
        yield jobs


def run_job(workload, state, index, cls, params, expect, tracer=None) -> JobRecord:
    """One job: untimed prepare, timed execute, untimed check.  Any
    exception fails the job and is recorded; the run goes on."""
    latency, result = 0.0, None
    try:
        prepared = workload.prepare(state, params)
        if tracer is not None:
            tracer.begin_job(index)
        start = perf_counter()
        try:
            raw = workload.execute(state, prepared, tracer)
        finally:
            latency = perf_counter() - start
            if tracer is not None:
                tracer.end_job()
        result = workload.summarize(raw)
        error = workload.check(params, expect, result)
    except Exception as exc:  # a broken job must not end the run
        error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
    return JobRecord(index, cls, params, expect, latency, result, error)


def run_phase(workload, state, rounds, seconds, min_kept=MIN_KEPT, tracer=None):
    """Run whole rounds until ``seconds`` have passed and the timing sample
    (see :func:`timing_sample`) holds at least ``min_kept`` jobs.  The round
    count is one of which ``workload.keep`` is a whole share, so a faster
    run never keeps a smaller share of its runs.  A traced phase has no
    timing sample, so any whole number of rounds will do.

    Between jobs, at most every ``PROBE_EVERY_S``, the process moves to the
    processor that runs a short fixed loop fastest at that moment.  On a
    shared host other load slows the processors unevenly and by turns;
    CLI children inherit the choice."""
    keep = workload.keep if tracer is None else 1
    records = []
    cpus = sorted(os.sched_getaffinity(0))
    probed = float("-inf")
    start = perf_counter()
    try:
        for done, batch in enumerate(rounds, 1):
            for cls, params, expect in batch:
                if len(cpus) > 1 and perf_counter() - probed >= PROBE_EVERY_S:
                    os.sched_setaffinity(0, {quietest_cpu(cpus)})
                    probed = perf_counter()
                records.append(
                    run_job(workload, state, len(records), cls, params, expect, tracer))
                if perf_counter() - start > PHASE_CAP_S:
                    return records
            kept_runs = Fraction(done * keep)  # whole, so every run keeps that share
            if (perf_counter() - start >= seconds and kept_runs.denominator == 1
                    and len(batch) * kept_runs >= min_kept):
                break
    finally:
        os.sched_setaffinity(0, cpus)
    return records


def quietest_cpu(cpus):
    """The processor on which a short fixed loop runs fastest now."""
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = min(reference_loop_s(20_000), reference_loop_s(20_000))
    return min(times, key=times.get)


def timing_sample(records, keep):
    """Latencies the timing metrics use: of each job class's runs, the
    fastest ``keep`` share.  Other load on the host only ever slows a job
    down, so the slower runs of the same class are the disturbed ones.
    Every class keeps the same number of runs, so the mix is unchanged."""
    by_class = {}
    for r in records:
        by_class.setdefault(r.cls, []).append(r.latency_s)
    runs = min(len(v) for v in by_class.values())  # a cut round is dropped
    k = math.ceil(runs * keep)
    return [x for v in by_class.values() for x in sorted(v[:runs])[:k]]


def reference_loop_s(iterations=400_000) -> float:
    """A fixed pure-Python workload that never touches the library."""
    start = perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def setup_seconds(workload_name) -> float:
    """Median cold set-up over fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload_name],
            capture_output=True, text=True, env=child_env(), cwd=str(ROOT), timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def peak_rss_mb(workload_name) -> float:
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-pinned" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def end_to_end_metrics(workload, records):
    lat = timing_sample(records, workload.keep)
    failed = sum(r.error is not None for r in records)
    return {
        "jobs_per_s": (len(lat) / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(lat) * 1000.0, "ms"),
        "job_p90_ms": (statistics.quantiles(lat, n=10, method="inclusive")[8] * 1000.0, "ms"),
        "setup_s": (setup_seconds(workload.name), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.name), "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }


def layer_metrics(tracer, n_jobs, setup_build, overhead_ratio, ref_loop_s):
    """Per-layer metrics from the traced jobs, each per job unless named
    otherwise (see README.md)."""
    spans = tracer.spans_by_name

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0, 0])[0]

    def secs(name):
        return spans.get(name, [0, 0.0, 0.0, 0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    self_s = {}
    for name, (_, _, self_time, _) in spans.items():
        self_s[layer_of(name)] = self_s.get(layer_of(name), 0.0) + self_time

    n = n_jobs
    m = {}
    for group in FIELD_OP_GROUPS:
        m[f"fields.{group}.calls"] = (tracer.ops[group] / n, "count/job")
    m["fields.ops_per_job"] = (sum(tracer.ops.values()) / n, "count/job")
    m["fields.self_s"] = ((tracer.field_s + self_s.get("fields", 0.0)) / n, "s/job")
    m["fields.tower_build.calls"] = (setup_build[0] + calls(TOWER_BUILD) / n, "count")
    m["fields.tower_build.s"] = (setup_build[1] + secs(TOWER_BUILD) / n, "s")

    for op in ("det", "rank_kernel"):
        m[f"linalg.{op}.calls"] = (calls(f"linalg.{op}") / n, "count/job")
        m[f"linalg.{op}.s"] = (secs(f"linalg.{op}") / n, "s/job")
        m[f"linalg.{op}.work"] = (tracer.work[f"linalg.{op}"] / n, "ops/job")
    m["linalg.intersect.calls"] = (calls("linalg.intersect") / n, "count/job")
    m["linalg.intersect.s"] = (secs("linalg.intersect") / n, "s/job")
    m["linalg.solve.calls"] = (calls("linalg.solve") / n, "count/job")
    m["linalg.self_s"] = (self_s.get("linalg", 0.0) / n, "s/job")

    for short, name in (("reduce", "skew.QuotientCtx.reduce"),
                        ("eval_map", "skew.QuotientCtx.eval_map"),
                        ("sum_rank_weight", "skew.sum_rank_weight")):
        m[f"skew.{short}.calls"] = (calls(name) / n, "count/job")
        m[f"skew.{short}.s"] = (secs(name) / n, "s/job")
    m["skew.theta_rank.calls"] = (calls("skew.theta_rank") / n, "count/job")
    m["skew.self_s"] = (self_s.get("skew", 0.0) / n, "s/job")

    for op in ("gram", "hull_oracle", "min_sum_rank_distance"):
        m[f"tlrs.{op}.s"] = (secs(f"tlrs.{op}") / n, "s/job")
    m["tlrs.lambda_form.calls"] = (calls("tlrs.lambda_form") / n, "count/job")
    m["tlrs.words_per_code"] = (
        ratio(tracer.nested["tlrs.min_sum_rank_distance>skew.sum_rank_weight"],
              calls("tlrs.min_sum_rank_distance")),
        "count/code",
    )
    m["tlrs.self_s"] = (self_s.get("tlrs", 0.0) / n, "s/job")

    m["acd.min_distance_oracle.s"] = (secs("acd.min_distance_oracle") / n, "s/job")
    m["acd.min_distance_oracle.field_ops"] = (
        tracer.span_field_ops["acd.min_distance_oracle"] / n, "count/job")
    m["acd.lambda_search.s"] = (secs("acd.lambda_search") / n, "s/job")
    searches = calls("acd.lambda_search")
    m["acd.search.candidates"] = (
        ratio(tracer.nested["acd.lambda_search>acd.power_sums"], searches), "count/search")
    raised = spans.get("acd.lambda_search", [0, 0.0, 0.0, 0])[3]
    m["acd.search.found_ratio"] = (ratio(searches - raised, searches), "ratio")
    for op in ("build_report", "acd_check", "acd_oracle"):
        m[f"acd.{op}.s"] = (secs(f"acd.{op}") / n, "s/job")
    reports = calls("acd.build_report")
    for op in ("generator_matrix", "t_matrix"):
        m[f"acd.{op}.per_report"] = (
            ratio(tracer.nested[f"acd.build_report>acd.{op}"], reports), "count/report")
    m["acd.self_s"] = (self_s.get("acd", 0.0) / n, "s/job")

    m["cli.main.s"] = (secs("cli.main") / n, "s/job")
    m["cli.emit.s"] = (secs("cli.Emitter.emit") / n, "s/job")
    m["cli.startup_s"] = (tracer.extra["cli.startup_s"] / n, "s/job")
    m["cli.tower_build.s"] = (secs(TOWER_BUILD) / n, "s/job")
    m["cli.emit.bytes"] = (tracer.extra["cli.emit.bytes"] / n, "bytes/job")
    for code in range(4):
        m[f"cli.exit.{code}"] = (tracer.extra[f"cli.exit.{code}"] / n, "ratio")

    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    m["host.ref_loop_s"] = (ref_loop_s, "s")
    return m


def run_traced(workload, seed, seconds, min_kept):
    """Traced set-up and phase, then the same jobs untraced.  A job whose
    answer differs between the two fails.  Returns the traced records, the
    tracer, the set-up's tower builds (calls, seconds) and the ratio of
    traced to untraced job time."""
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job("setup")
        state = workload.setup()
        tracer.end_job()
        build = tracer.spans_by_name.get(TOWER_BUILD, [0, 0.0, 0.0, 0])
        setup_build = (build[0], build[1])
        tracer.reset()
        traced = run_phase(workload, state, job_rounds(workload, seed), seconds,
                           min_kept, tracer)
    finally:
        tracer.uninstall()
    plain = run_phase(workload, state, [[(r.cls, r.params, r.expect) for r in traced]],
                      0, 0)
    pairs = list(zip(traced, plain))
    for t, p in pairs:
        if t.result != p.result and t.error is None:
            t.error = f"traced answer {t.result} != untraced {p.result}"
    overhead = sum(t.latency_s for t, _ in pairs) / sum(p.latency_s for _, p in pairs)
    return traced, tracer, setup_build, overhead


def write_spans(tracer, workload_name, seed):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for job, span_id, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"job": job, "id": span_id, "parent": parent,
                                 "name": name, "start": start, "end": end}) + "\n")


def print_span_table(tracer, n_jobs, limit=15):
    rows = sorted(tracer.spans_by_name.items(), key=lambda kv: -kv[1][2])
    print(f"{'span':40s} {'calls/job':>12s} {'incl s/job':>12s} {'self s/job':>12s}")
    print(f"{'fields ops (outermost)':40s} {sum(tracer.ops.values()) / n_jobs:12.1f}"
          f" {'':>12s} {tracer.field_s / n_jobs:12.6f}")
    for name, (calls, incl, self_time, _) in rows[:limit]:
        print(f"{name:40s} {calls / n_jobs:12.1f} {incl / n_jobs:12.6f} {self_time / n_jobs:12.6f}")


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sumrank").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def run_benchmark(workload_name, seed, seconds, trace, min_kept=MIN_KEPT):
    """Run one benchmark invocation; returns (result dict, meta dict)."""
    workload = WORKLOADS[workload_name]
    ref_start = reference_loop_s()
    if trace:
        records, tracer, setup_build, overhead = run_traced(
            workload, seed, seconds, min_kept)
    else:
        state = workload.setup()
        records = run_phase(workload, state, job_rounds(workload, seed), seconds, min_kept)
    ref_end = reference_loop_s()
    failures = [r for r in records if r.error is not None]
    timed = None
    if trace:
        metrics = layer_metrics(tracer, len(records), setup_build, overhead,
                                (ref_start + ref_end) / 2)
        print_span_table(tracer, len(records))
        write_spans(tracer, workload_name, seed)
    else:
        metrics = end_to_end_metrics(workload, records)
        timed = len(timing_sample(records, workload.keep))
    meta = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": len(records),
        "timed_samples": timed,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "ref_loop_start_s": ref_start,
        "ref_loop_end_s": ref_end,
    }
    for r in failures[:FAILURES_SHOWN]:
        print(f"job {r.index} failed: {r.params} -> {r.error}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumrank" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC / 'sumrank'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sumrank

    if not os.path.abspath(sumrank.__file__).startswith(str(SRC) + os.sep):
        print(f"error: imported sumrank from {sumrank.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, meta = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print("perfbench-meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
