"""Benchmark for qpignn, driven through its public Python API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload er2k --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One run builds the workload's inputs from ``--seed``, measures for at
least ``--seconds`` (see ``pipeline.run``), checks every output, prints
one ``metric <name> <value> <unit>`` line per metric and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the JSON metrics are the end-to-end ones; with
``--trace 1`` the run repeats its work under the span tracer and reports
the per-layer ones.  ``--workload all`` runs each workload in a fresh
process.

The package is imported from ``src/`` of the checkout this file sits
in; without it the run fails before printing a result.  The benchmark
never sets BLAS/OpenMP thread variables or CPU affinity: it records the
values it inherited.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("er2k", "grid20k-community")

# Printed with every untraced run but not bounded: the eval tail moves
# by up to 2x between runs of identical code on a shared 2-core host.
REPORTED = {
    "eval_ms_p95": "ms",
    "eval_samples": "count",
    "test_coverage_gap": "1",
    "test_winkler": "1",
    "sweep_test_coverage_gap": "1",
    "sweep_test_winkler": "1",
}

END_TO_END = {
    "setup_s": "s",
    "epoch_ms": "ms",
    "eval_ms_p50": "ms",
    "mc_eval_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graphcore.gen_s": "s",
    "graphcore.validate_s": "s",
    "graphcore.split_s": "s",
    "graphcore.setup_peak_rss_mb": "MB",
    "graphcore.mean_adjacency_calls": "count/epoch",
    "graphcore.mean_adjacency_ms": "ms/call",
    "rng.keyed_rng_calls": "count/epoch",
    "rng.keyed_rng_ms": "ms/epoch",
    "diffkit.tape_steps": "count/epoch",
    "diffkit.backward_ms": "ms/epoch",
    "diffkit.aggregate_ms": "ms/epoch",
    "diffkit.matmul_ms": "ms/epoch",
    "diffkit.dropout_ms": "ms/epoch",
    "diffkit.live_tapes_max": "count",
    "diffkit.gc_collections": "count",
    "model.forward_train_ms": "ms/epoch",
    "model.forward_eval_ms": "ms/call",
    "model.mc_dropout_s": "s",
    "losses.qpi_total_loss_ms": "ms/epoch",
    "optim.adam_step_ms": "ms/epoch",
    "optim.grad_norm_ms": "ms/epoch",
    "metrics.report_ms": "ms/call",
    "harness.epoch_ms_p50": "ms",
    "harness.epoch_ms_p95": "ms",
    "harness.epoch_self_ms": "ms/epoch",
    "harness.train_cpu_per_epoch_ms": "ms",
    "harness.train_runs": "count",
    "harness.sweep_child_cpu_s": "s",
    "harness.sweep_cpu_per_epoch_ms": "ms",
    "harness.sweep_serial_cpu_per_epoch_ms": "ms",
    "harness.cpu_util": "1",
    "trace.overhead_s": "s",
}


def load_program() -> None:
    """Put the checkout's ``src`` first on the path and import qpignn."""
    if not (SRC / "qpignn" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'qpignn'} not found; run from a "
                         "qpignn source checkout")
    sys.path.insert(0, str(SRC))
    import qpignn
    if Path(qpignn.__file__).resolve().parent != SRC / "qpignn":
        raise SystemExit(f"error: imported qpignn from {qpignn.__file__}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy
    from pipeline import nproc
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})",
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _fmt(value) -> str:
    return repr(float(value)) if value is not None else "null"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import pipeline
    import spans

    w = pipeline.WORKLOADS[name]
    print("provenance " + json.dumps(provenance(seed), sort_keys=True))
    if not trace:
        plain = pipeline.run(w, seed, seconds)
        results, wanted, found = [plain], END_TO_END, plain.metrics
    else:
        # One round untraced, the same round traced, and untraced again:
        # the traced wall minus the untraced mean is the tracing overhead,
        # and all three must give identical outputs.  One build per pass
        # keeps the 20k-node passes short.
        w = replace(w, rounds=1, builds=1, trains=1)
        plain = pipeline.run(w, seed, 0.0)
        tracer = spans.Tracer(run_id=seed)
        restore = spans.install(tracer)
        try:
            traced = pipeline.run(w, seed, 0.0, tracer=tracer)
        finally:
            restore()
        after = pipeline.run(w, seed, 0.0)
        serial_cpu_s = pipeline.serial_sweep_cpu_s(w, plain)
        for other in (traced, after):
            for key in ("dataset_digest", "record_digest", "sweep_digest"):
                if other.info.get(key) != plain.info.get(key):
                    other.ledger.failures.append(f"repeat pass: {key} differs")
        results, wanted = [plain, traced, after], PER_LAYER
        found = spans.layer_metrics(tracer, traced, [plain, after], serial_cpu_s, w)
        untraced_train = (plain.phase_s["train"] + after.phase_s["train"]) / 2
        print(f"account train phase: traced wall {traced.phase_s['train']:.4f} s "
              f"(the sum of its span self times), untraced wall {untraced_train:.4f} s, "
              f"trace.overhead_s {found['trace.overhead_s']:.4f} s; epoch self time "
              f"{found['harness.epoch_self_ms']:.4f} ms of an epoch p50 of "
              f"{found['harness.epoch_ms_p50']:.4f} ms")

    attempted = sum(r.ledger.attempted for r in results)
    failures = [f for r in results for f in r.ledger.failures]
    print(f"workload {name} " + json.dumps(plain.info, sort_keys=True))
    for metric, unit in wanted.items():
        print(f"metric {metric} {_fmt(found.get(metric))} {unit}")
    print(f"metric failed_frac {_fmt(len(failures) / max(attempted, 1))} 1")
    for metric, unit in REPORTED.items():
        value = plain.metrics.get(metric, plain.info.get(metric))
        print(f"metric {metric} {_fmt(value)} {unit}")
    for failure in sorted(set(failures)):
        print(f"failure {failures.count(failure)}x {failure}")
    metrics = {m: {"value": found.get(m), "unit": u} for m, u in wanted.items()}
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in a fresh process; returns the combined summary."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        print(proc.stdout, end="")
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= one["correct"]
        summary["attempted"] += one["attempted"]
        summary["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            summary["metrics"][f"{name}:{metric}"] = value
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
