"""Exact counts from traced operations at small sizes."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from tracing import LAYER_METRICS, Tracer, layer_metrics
from workloads import CliConfig, GaussN2000, MatrixLognormal, traced_rounds


def traced_counts(workload, inputs, seconds, workdir):
    tracer = Tracer()
    plain, done = traced_rounds(workload, inputs, seconds, workdir, tracer)
    assert not any(o.wrong for o in plain + done)
    metrics = layer_metrics(tracer, len(done), overhead_ratio=1.0)
    return {k: v for k, v in metrics.items() if k.endswith((".calls", ".count"))}, metrics


@pytest.mark.parametrize("workload", [GaussN2000(n=120), CliConfig(n=60)],
                         ids=["gauss", "cli"])
def test_factorizations_equal_distinct_shifts_per_evaluator(workload, tmp_path):
    inputs = workload.make_inputs(seed=7)[:1]
    counts, metrics = traced_counts(workload, inputs, 2 * workload.op_estimate_s, tmp_path)
    assert counts["resolvent.lu_factor.calls"] > 0
    assert counts["resolvent.lu_factor.calls"] == metrics["resolvent.distinct_shifts"]


def test_two_traced_runs_at_one_seed_count_identically(tmp_path):
    workload = MatrixLognormal()
    inputs = workload.make_inputs(seed=5)[:40]
    seconds = 40 * 2 * workload.op_estimate_s
    first, _ = traced_counts(workload, inputs, seconds, tmp_path)
    second, _ = traced_counts(workload, inputs, seconds, tmp_path)
    assert first == second
    assert first["resolvent.lu_factor.calls"] > 0


def test_run_fails_without_the_program(tmp_path):
    bench = Path(run.BENCH_DIR)
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".tmp-*"))
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "matrix_lognormal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_matrix_run_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix_lognormal",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=Path(run.BENCH_DIR).parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.E2E_METRICS}
    assert not list(Path(run.BENCH_DIR).glob(".tmp-*"))


def test_traced_run_prints_layer_metrics_and_writes_spans(tmp_path):
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "matrix_lognormal",
         "--seed", "2", "--seconds", "1", "--trace", "1", "--spans", str(spans)],
        cwd=Path(run.BENCH_DIR).parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == {name for name, _ in LAYER_METRICS}
    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records and set(records[0]) == {"name", "op", "parent", "start", "end", "error"}
    assert result["metrics"]["trace.spans"]["value"] * result["attempted"] / 2 == pytest.approx(len(records))
