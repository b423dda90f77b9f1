"""Tests of the benchmark itself: seeding, metric names, the correctness
gate, and that tracing changes no answer.

    python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_jobs(name, seed, count):
    rounds = bench.job_rounds(WORKLOADS[name], seed)
    return list(itertools.islice((job for batch in rounds for job in batch), count))


def run_jobs(name, jobs, tracer=None):
    workload = WORKLOADS[name]
    state = workload.setup()
    return [
        bench.run_job(workload, state, i, cls, params, expect, tracer)
        for i, (cls, params, expect) in enumerate(jobs)
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_jobs(name):
    assert first_jobs(name, 7, 120) == first_jobs(name, 7, 120)
    assert first_jobs(name, 7, 120) != first_jobs(name, 8, 120)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["acd-distance", "cli-pinned"])
def test_printed_metrics_match_benchmark_json(name, trace):
    result, meta = bench.run_benchmark(name, 1, 0, trace, min_kept=1)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == meta["jobs"] >= 1
    if trace and name == "acd-distance":
        metrics = result["metrics"]
        assert metrics["acd.min_distance_oracle.s"]["value"] > 0
        assert all(v["value"] == 0 for k, v in metrics.items() if k.startswith("skew."))


def test_planted_wrong_answer_is_counted(monkeypatch):
    workload = WORKLOADS["acd-distance"]
    honest = workload.rounds

    def planted(rng):
        for i, batch in enumerate(honest(rng)):
            if i == 0:
                params, expect = batch[0]
                batch[0] = (params, {"singleton": 0})
            yield batch

    monkeypatch.setattr(workload, "rounds", planted)
    result, _ = bench.run_benchmark("acd-distance", 1, 0, 0, min_kept=1)
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_ratio"]["value"] < 1


def test_planted_wrong_cli_output_fails():
    (cls, params, expect), = first_jobs("cli-pinned", 1, 1)
    wrong = dict(expect, stdout_sha256="0" * 64)
    good, bad = run_jobs("cli-pinned", [(cls, params, expect), (cls, params, wrong)])
    assert good.error is None
    assert "stdout_sha256" in bad.error


def test_tlrs_gate_accepts_a_code_that_is_not_complementary_dual():
    # over F_9 = F_3[y], eta = y gives 1 + eta^2 = 0, and det prints as 0+0y
    params = {"tower": [3, 2, 2], "ell": 2, "k": 1, "h": 0, "eta": [[0, 1], [0, 0]]}
    record, = run_jobs("tlrs-certify", [(0, params, {"singleton": 4})])
    assert record.error is None
    assert record.result["criterion"] is False and record.result["det_nonzero"] is False


def test_exception_fails_the_job_not_the_run():
    (cls, params, expect), = first_jobs("acd-search", 1, 1)
    broken = dict(params, q=4)  # no tower was built for q = 4
    records = run_jobs("acd-search", [(cls, broken, expect), (cls, params, expect)])
    assert records[0].error is not None and records[1].error is None


@pytest.mark.parametrize("name,count", [("acd-distance", 23), ("tlrs-certify", 8),
                                        ("acd-search", 20)])
def test_traced_and_untraced_answers_identical(name, count):
    import sumrank.acd

    original = sumrank.acd.build_report
    jobs = first_jobs(name, 3, count)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_jobs(name, jobs, tracer)
    finally:
        tracer.uninstall()
    assert sumrank.acd.build_report is original
    plain = run_jobs(name, jobs)
    assert [r.result for r in traced] == [r.result for r in plain]
    assert all(r.error is None for r in traced)
    assert sum(tracer.ops.values()) > 0


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "acd-distance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
