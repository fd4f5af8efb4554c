"""The benchmark's own checks, at tiny sizes.

Run from the checkout root:  python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import pipeline
import run
import spans
import qpignn.harness as harness
import qpignn.metrics as metrics

TINY = pipeline.Workload(
    "tiny", "er", (120,), "random", rounds=2, builds=2, trains=2, epochs=4,
    evals_min=4, mc_passes=2, sweep_grid=(0.05, 0.5), sweep_epochs=2,
    turns=2, sweeps=1, picp_band=(0.0, 1.0))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(pipeline.WORKLOADS, TINY.name, TINY)
    return TINY


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
    assert set(run.WORKLOAD_NAMES) == set(pipeline.WORKLOADS)


def test_run_reports_every_metric_with_its_unit(tiny, capsys):
    for trace, wanted in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = run.run_one(tiny.name, seed=3, seconds=0.0, trace=trace)
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"] == {
            m: {"value": result["metrics"][m]["value"], "unit": u}
            for m, u in wanted.items()}
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
        printed = [line.split() for line in capsys.readouterr().out.splitlines()
                   if line.startswith("metric ")]
        units = {name: unit for _, name, _, unit in printed}
        assert units.items() >= wanted.items()
        assert ["metric", "failed_frac", "0.0", "1"] in printed


def test_seeds_change_inputs_and_repeats_match(tiny):
    one, two = pipeline.derive(1, "data"), pipeline.derive(2, "data")
    assert one != two
    digest = pipeline.dataset_digest
    assert digest(pipeline.build_dataset(tiny, one)) != \
        digest(pipeline.build_dataset(tiny, two))
    first = pipeline.run(tiny, seed=5, seconds=0.0)
    again = pipeline.run(tiny, seed=5, seconds=0.0)
    for key in ("dataset_digest", "record_digest", "sweep_digest"):
        assert first.info[key] == again.info[key]
    assert first.ledger.attempted == again.ledger.attempted
    assert not first.ledger.failures


def test_parallel_sweep_equals_serial(tiny):
    ds = pipeline.build_dataset(tiny, pipeline.derive(7, "data"))
    cfg = harness.TrainConfig(epochs=3, seed=11)
    grid = (0.05, 0.3, 0.8)
    serial = harness.lambda_sweep(ds, cfg, grid=grid, jobs=1)
    parallel = harness.lambda_sweep(ds, cfg, grid=grid, jobs=pipeline.nproc())
    assert parallel.entries == serial.entries
    assert parallel.chosen == serial.chosen


def test_failing_operation_is_counted(tiny, monkeypatch, capsys):
    calls = {"n": 0}
    real = metrics.report

    def flaky(*args, **kwargs):
        calls["n"] += 1
        rep = real(*args, **kwargs)
        return replace(rep, picp=rep.picp + 1.0) if calls["n"] == 2 else rep
    monkeypatch.setattr(metrics, "report", flaky)
    result = run.run_one(tiny.name, seed=3, seconds=0.0, trace=False)
    attempted = result["attempted"]
    assert not result["correct"] and result["failed"] == 1
    assert f"metric failed_frac {1 / attempted!r} 1" in capsys.readouterr().out


def test_tracer_accounts_for_training_and_restores_modules(tiny):
    before = (harness.forward_intervals, harness.adam_step, metrics.report)
    plain = pipeline.run(tiny, seed=4, seconds=0.0)
    tracer = spans.Tracer(run_id=4)
    restore = spans.install(tracer)
    try:
        traced = pipeline.run(tiny, seed=4, seconds=0.0, tracer=tracer)
    finally:
        restore()
    assert (harness.forward_intervals, harness.adam_step, metrics.report) == before
    assert traced.info["record_digest"] == plain.info["record_digest"]
    assert all(s.run == 4 and s.end >= s.start for s in tracer.spans)
    serial_cpu_s = pipeline.serial_sweep_cpu_s(tiny, plain)
    assert not plain.ledger.failures
    found = spans.layer_metrics(tracer, traced, [plain], serial_cpu_s, tiny)
    assert set(found) == set(run.PER_LAYER)
    assert found["graphcore.mean_adjacency_calls"] == 2.0
    assert found["diffkit.live_tapes_max"] >= 1
    # The wrapped calls cover the epoch: what no child span covers is the
    # training loop's own bookkeeping, a small share of an epoch.
    assert found["harness.epoch_self_ms"] < 0.1 * found["harness.epoch_ms_p50"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "er2k", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
