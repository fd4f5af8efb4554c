"""Time what the BLAS thread count touches: epochs, dropout and pooled sweeps.

Measures the ``qpignn`` found under ``--src`` (default: this checkout's
``src``), one case per fresh process:

    python scripts/bench_blas_threads.py --label after > after.json
    python scripts/bench_blas_threads.py --src OTHER/src --label before > before.json
    python scripts/bench_blas_threads.py --combine before.json after.json

Cases, all on the 2000-node ER protocol graph (mean degree 8, random
split, default ``TrainConfig``: hidden 64, dropout 0.2):

- ``epoch_t1`` and ``epoch_t2``: ``harness.train`` for 150 epochs under
  ``OPENBLAS_NUM_THREADS=1`` and ``=2``; ``epoch_ms`` is one run's wall
  time over its epochs, and ``digest`` hashes the last run's record, so
  the two thread counts can be checked for identical output.
- ``dropout``: one ``diffkit.dropout`` call on a tracked 2000x64 tensor
  (p = 0.2), forward (mask draws included) and its recorded adjoint;
  each repeat is the mean of 50 calls, with its minor page faults
  (``ru_minflt``) per call.
- ``sweep``: ``lambda_sweep`` over the six-entry default grid at 100
  epochs per entry, at ``jobs`` 1 and 2 in alternation; ``digest``
  hashes each setting's last result.  Each pooled run reports its wall
  time, its process CPU time (a busy-waiting BLAS helper thread shows
  up here) and its process's OS-thread count from ``/proc/self/task``.
- ``short_sweep``: ``sweep`` at one epoch per entry, where pool
  start-up dominates.

Every figure is the min and median over ``--repeats`` runs.
``--combine`` adds the median ratio of each timing to the first file's.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_epoch import _stats
from bench_graph_construction import _environment

CASES = ("epoch_t1", "epoch_t2", "dropout", "sweep", "short_sweep")
N, EPOCHS, SWEEP_EPOCHS, DROP_CALLS = 2000, 150, 100, 50


def _dataset():
    import qpignn.graphcore as gc
    g = gc.gen_er(N, 8 / (N - 1), seed=1)
    return gc.synth_dataset(g, "gaussian", feat_dim=8, noise_sigma=1.0,
                            seed=1)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _record_key(rec):
    return [getattr(rec, f).tobytes() for f in
            ("coverage", "width", "loss", "grad_norm", "violation")] + \
        [sorted(rec.reports.items())]


def _epoch(repeats: int) -> dict:
    import qpignn.harness as harness
    ds, cfg = _dataset(), harness.TrainConfig(epochs=EPOCHS, seed=0)
    times, rec = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, rec = harness.train(ds, cfg)
        times.append((time.perf_counter() - t0) / EPOCHS * 1e3)
    return {"epoch_ms": _stats(times), "digest": _digest(_record_key(rec)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _dropout(repeats: int) -> dict:
    import numpy as np
    import qpignn.diffkit as dk
    x = np.random.default_rng(0).standard_normal((N, 64))
    g = np.ones((N, 64))
    fwd, bwd, faults = [], [], []
    for r in range(repeats):
        f = b = 0.0
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for i in range(DROP_CALLS):
            tape = dk.Tape()
            a = tape.leaf(x)
            t0 = time.perf_counter()
            out = dk.dropout(a, 0.2, seed=r * DROP_CALLS + i, train_mode=True)
            t1 = time.perf_counter()
            out._slot.grad = g.copy()
            t2 = time.perf_counter()
            tape._steps[-1]()
            t3 = time.perf_counter()
            f += t1 - t0
            b += t3 - t2
        fwd.append(f / DROP_CALLS * 1e3)
        bwd.append(b / DROP_CALLS * 1e3)
        faults.append((resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                       - flt0) / DROP_CALLS)
    return {"forward_ms": _stats(fwd), "backward_ms": _stats(bwd),
            "minflt_per_call": _stats(faults)}


_RUN_LOG = None  # set before a sweep's pool forks its workers


def _timed_train(ds, cfg):
    """``harness.train`` that appends one JSON line per run to
    ``_RUN_LOG``: wall and process CPU ms and OS threads."""
    import qpignn.harness as harness
    t0, c0 = time.perf_counter(), time.process_time()
    out = harness.train_qpignn(ds, cfg)  # the alias the patch leaves alone
    row = {"wall_ms": (time.perf_counter() - t0) * 1e3,
           "cpu_ms": (time.process_time() - c0) * 1e3,
           "os_threads": len(os.listdir("/proc/self/task"))}
    with open(_RUN_LOG, "a") as log:
        log.write(json.dumps(row) + "\n")
    return out


def _sweep(repeats: int, epochs: int = SWEEP_EPOCHS) -> dict:
    global _RUN_LOG
    import qpignn.harness as harness
    ds = _dataset()
    cfg = harness.TrainConfig(epochs=epochs, seed=0)
    times = {1: [], 2: []}
    digests, pooled = {}, []
    harness.train = _timed_train
    with tempfile.TemporaryDirectory() as tmp:
        _RUN_LOG = os.path.join(tmp, "runs.jsonl")
        for _ in range(repeats):
            for jobs in (1, 2):
                open(_RUN_LOG, "w").close()
                t0 = time.perf_counter()
                res = harness.lambda_sweep(ds, cfg, jobs=jobs)
                times[jobs].append(time.perf_counter() - t0)
                digests[jobs] = _digest(res)
            with open(_RUN_LOG) as log:
                pooled += [json.loads(line) for line in log]
    row = {f"jobs{j}_s": _stats(t) for j, t in times.items()}
    row.update(digest_jobs1=digests[1], digest_jobs2=digests[2],
               jobs2_over_jobs1=row["jobs2_s"]["median"]
               / row["jobs1_s"]["median"],
               pool_run_wall_ms=_stats([r["wall_ms"] for r in pooled]),
               pool_run_cpu_ms=_stats([r["cpu_ms"] for r in pooled]),
               worker_os_threads=sorted({r["os_threads"] for r in pooled}))
    return row


def _ratios(old, new) -> dict:
    """Median ratios of every timing both rows hold."""
    return {k: new[k]["median"] / old[k]["median"] for k in new
            if k.endswith(("_ms", "_s")) and k in old}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    p.add_argument("--label", default="run")
    p.add_argument("--cases", default=",".join(CASES))
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--case", help=argparse.SUPPRESS)  # one case, in-process
    p.add_argument("--combine", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args(argv)

    if args.combine:
        before, after = (json.loads(Path(f).read_text()) for f in args.combine)
        cases = {name: {"before": before["cases"].get(name),
                        "after": row,
                        "median_ratio": _ratios(before["cases"][name], row)
                        if name in before["cases"] else None}
                 for name, row in after["cases"].items()}
        print(json.dumps({"before": before["label"], "after": after["label"],
                          "environment": after["environment"],
                          "cases": cases}, indent=2))
        return 0

    if args.case:
        sys.path.insert(0, args.src)
        run = {"epoch_t1": _epoch, "epoch_t2": _epoch, "dropout": _dropout,
               "sweep": _sweep,
               "short_sweep": lambda r: _sweep(r, epochs=1)}[args.case]
        print(json.dumps(run(args.repeats)))
        return 0

    cases = {}
    for name in args.cases.split(","):
        env = dict(os.environ)
        if name.startswith("epoch_t"):
            env["OPENBLAS_NUM_THREADS"] = name[-1]
        out = subprocess.run(
            [sys.executable, __file__, "--case", name, "--src", args.src,
             "--repeats", str(args.repeats)],
            check=True, capture_output=True, text=True, env=env).stdout
        cases[name] = json.loads(out)
        print(f"{name}: {cases[name]}", file=sys.stderr)
    print(json.dumps({"label": args.label, "environment": _environment(),
                      "cases": cases}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
