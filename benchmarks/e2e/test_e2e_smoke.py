"""Smoke test of the end-to-end benchmark at seconds-long sizes.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload untraced and traced through ``run.py --smoke`` and
checks the benchmark's own contract: every named metric is reported,
every output check passes, the per-layer self times add up to the traced
op wall, and a corrupted output is counted as a failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
EXTRA = json.loads((HERE / "metrics.json").read_text())
NAMES = [workload["name"] for workload in BENCH["workloads"]]

for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from layers import SPAN_METRIC  # noqa: E402


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0.5",
         "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return json.loads(out.read_text())["workloads"], completed.stdout


@pytest.mark.parametrize("workload", NAMES)
def test_every_named_metric_is_reported(smoke, workload):
    results, stdout = smoke
    untraced = results[workload]["untraced"]
    expected = {metric["name"] for metric in BENCH["end_to_end"]}
    for metric in EXTRA["workload_metrics"]:
        if workload not in metric["workloads"]:
            continue
        if "percentile" in metric:
            # reported only with at least 10 samples beyond the percentile
            enough = untraced["samples"] * (100 - metric["percentile"]) >= 1000
            assert (metric["name"] in untraced["metrics"]) == enough
        else:
            expected.add(metric["name"])
    assert expected <= set(untraced["metrics"])
    layers = results[workload]["traced"]["layers"]
    assert {metric["name"] for metric in BENCH["per_layer"]} <= set(layers)
    for name, metric in untraced["metrics"].items():
        assert f"{name} " in stdout and metric["unit"] in stdout


@pytest.mark.parametrize("workload", NAMES)
def test_every_output_check_passes(smoke, workload):
    results, _ = smoke
    for run in results[workload].values():
        assert run["correct"] and run["failed"] == 0, run["failures"]
        assert run["attempted"] >= 1


@pytest.mark.parametrize("workload", NAMES)
def test_layer_self_times_sum_to_op_wall(smoke, workload):
    results, _ = smoke
    layers = {k: v["value"] for k, v in results[workload]["traced"]["layers"].items()}
    self_time = set(SPAN_METRIC.values()) | {
        name for name in layers
        if name.endswith(".other_s") and not name.startswith("setup.")
    }
    total = sum(layers[name] for name in self_time if name in layers)
    assert total == pytest.approx(layers["bench.op_wall_s"], rel=0.01)
    assert layers["bench.trace_overhead"] > 0


def test_tampered_recovered_table_counts_as_failed(monkeypatch, tmp_path):
    import worker
    from repro.engine import wal

    recover = wal.recover_database

    def tampered(path, schema=None):
        result = recover(path, schema=schema)
        table = result.database.table("device_status")
        tid, _ = table.items()[0]
        table.delete(tid)
        return result

    monkeypatch.setattr(wal, "recover_database", tampered)
    result = worker.run_workload(
        "iot_ingest", 0, 0.3, traced=False, scale="smoke", workdir=str(tmp_path)
    )
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["failed_frac"]["value"] == 1.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", NAMES[0]],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_metric_maps_name_benchmark_metrics_and_workloads():
    per_layer = {metric["name"] for metric in BENCH["per_layer"]}
    end_to_end = {metric["name"] for metric in BENCH["end_to_end"]}
    end_to_end |= {metric["name"] for metric in EXTRA["workload_metrics"]}
    for layer_metric, targets in EXTRA["layer_map"].items():
        assert layer_metric in per_layer
        for metric, workload in targets:
            assert metric in end_to_end and workload in NAMES
