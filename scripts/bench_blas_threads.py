"""Time what the BLAS thread count touches: epochs, dropout and pooled sweeps.

Runs under ``driver.py``, which compares ``qpignn`` source trees, the
first being the baseline, with one fresh process per case, side and
repeat, the sides alternating:

    python scripts/bench_blas_threads.py before=OTHER/src after=src > out.json

Cases, all on the 2000-node ER protocol graph (mean degree 8, random
split, default ``TrainConfig``: hidden 64, dropout 0.2):

- ``epoch_t1`` and ``epoch_t2``: ``harness.train`` for 150 epochs under
  ``OPENBLAS_NUM_THREADS=1`` and ``=2``; ``epoch_ms`` is the run's wall
  time over its epochs, and ``digest`` hashes its record, so the two
  thread counts can be checked for identical output.
- ``dropout``: one untaped ``diffkit.dropout(Tensor(v), 0.2, seed,
  dead=True)`` call on a 2000x64 buffer ``v``, masked in place, as each
  encoder layer (``diffkit.sage_relu``) runs it; ``forward_ms`` (mask
  draws included) is the mean of 50 calls, with their minor page faults
  (``ru_minflt``) per call.  The buffer is refilled, untimed, before
  each call.
- ``sweep``: ``lambda_sweep`` over the six-entry default grid at 100
  epochs per entry, at ``jobs`` 1 and then 2, once untimed, so that the
  measured pooled sweep finds the kept pool started, then once measured;
  ``digest_jobs*`` hashes each setting's result.  Each run of the
  measured pooled sweep reports its wall time, its process CPU time (a
  busy-waiting BLAS helper thread shows up here) and its process's
  OS-thread count from ``/proc/self/task``; ``pool_run_*`` is their
  median.
- ``short_sweep``: ``sweep`` at one epoch per entry, where pool
  start-up dominates; it too runs once untimed first.
- ``repeat_sweep``: ten one-epoch sweeps at ``jobs=2`` in one process,
  each after a 100-pass MC-dropout call (a threaded BLAS workload in
  the parent), as perfbench and ``tune`` run them, with no untimed
  first pass: ``first_sweep_wall_s`` is the one that starts the pool.
  Per sweep it records the wall time, the parent's CPU time (its
  threads only; a spinning BLAS helper shows up here), the pids of the
  workers that trained it and their peak resident sets (``VmHWM``), and
  the sweep's digest, which must be the same for every sweep.  Before
  each sweep an eval call (``forward_intervals`` plus ``report``) and
  the MC call run under a thread that samples every 2 ms the resident
  set of the process plus its live pool workers: ``eval_total_rss_mb``
  and ``mc_total_rss_mb`` are each phase's peak total,
  ``*_workers_rss_mb`` the workers' share of it and ``*_total_pss_mb``
  the summed proportional set size after it (shared pages counted
  once), each the median over the ten sweeps; ``processes`` keeps every
  sweep's figures.
"""
from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import tempfile
import time
from statistics import median
from unittest import mock

import driver

N, EPOCHS, SWEEP_EPOCHS, DROP_CALLS = 2000, 150, 100, 50
REPEAT_SWEEPS, MC_PASSES = 10, 100


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _record_key(rec):
    return [getattr(rec, f).tobytes() for f in rec.TRAJECTORIES] + \
        [sorted(rec.reports.items())]


def _epoch() -> dict:
    import qpignn.harness as harness
    ds, cfg = driver.dataset("er2k"), harness.TrainConfig(epochs=EPOCHS, seed=0)
    t0 = time.perf_counter()
    _, rec = harness.train(ds, cfg)
    return {"epoch_ms": (time.perf_counter() - t0) / EPOCHS * 1e3,
            "digest": _digest(_record_key(rec)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def _dropout() -> dict:
    import numpy as np
    import qpignn.diffkit as dk
    x = np.random.default_rng(0).standard_normal((N, 64))
    v = np.empty_like(x)
    f = 0.0
    flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(DROP_CALLS):
        np.copyto(v, x)
        t0 = time.perf_counter()
        dk.dropout(dk.Tensor(v), 0.2, seed=i, dead=True)
        f += time.perf_counter() - t0
    return {"forward_ms": f / DROP_CALLS * 1e3,
            "minflt_per_call": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_minflt - flt0) / DROP_CALLS}


_RUN_LOG = None  # set before a sweep's pool forks its workers
_TRAIN = None  # the unpatched ``harness.train``, set likewise


def _proc_mb(pid, field: str, file: str = "status") -> float:
    """One memory field of ``/proc/<pid>/<file>``, in MB (0 once the
    process has ended): from ``status``, ``VmRSS`` (now resident) or
    ``VmHWM`` (the peak so far); from ``smaps_rollup``, ``Pss``, which
    splits shared pages among their users, so a sum over processes
    counts each page once."""
    try:
        with open(f"/proc/{pid}/{file}") as lines:
            for line in lines:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def _peak_with_workers(call) -> dict:
    """Run ``call()`` while a thread samples, every 2 ms, the resident
    set of this process plus its live pool workers; the peak total and
    the workers' share of it, in MB, and the summed PSS after it."""
    import multiprocessing
    import threading
    workers = [p.pid for p in multiprocessing.active_children()]
    peak = {"total_rss_mb": 0.0, "workers_rss_mb": 0.0}
    done = threading.Event()

    def sample():
        while not done.is_set():
            rss = sum(_proc_mb(pid, "VmRSS") for pid in workers)
            total = _proc_mb("self", "VmRSS") + rss
            if total > peak["total_rss_mb"]:
                peak.update(total_rss_mb=total, workers_rss_mb=rss)
            done.wait(0.002)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        call()
    finally:
        done.set()
        sampler.join()
    peak.update(workers=len(workers), total_pss_mb=sum(
        _proc_mb(pid, "Pss", "smaps_rollup") for pid in ["self", *workers]))
    return peak


def _timed_train(ds, cfg):
    """``harness.train`` that appends one JSON line per run to
    ``_RUN_LOG``: wall and process CPU ms, OS threads, pid and VmHWM."""
    t0, c0 = time.perf_counter(), time.process_time()
    out = _TRAIN(ds, cfg)
    row = {"wall_ms": (time.perf_counter() - t0) * 1e3,
           "cpu_ms": (time.process_time() - c0) * 1e3,
           "os_threads": len(os.listdir("/proc/self/task")),
           "pid": os.getpid(), "vmhwm_mb": _proc_mb("self", "VmHWM")}
    with open(_RUN_LOG, "a") as log:
        log.write(json.dumps(row) + "\n")
    return out


def _runs() -> list[dict]:
    with open(_RUN_LOG) as log:
        return [json.loads(line) for line in log]


def _sweep(epochs: int) -> dict:
    global _RUN_LOG, _TRAIN
    import qpignn.harness as harness
    _TRAIN = harness.train
    ds = driver.dataset("er2k")
    cfg = harness.TrainConfig(epochs=epochs, seed=0)
    row = {}
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(harness, "train", _timed_train):
        _RUN_LOG = os.path.join(tmp, "runs.jsonl")
        for _ in range(2):  # the second pass overwrites the untimed first
            for jobs in (1, 2):
                open(_RUN_LOG, "w").close()
                t0 = time.perf_counter()
                res = harness.lambda_sweep(ds, cfg, jobs=jobs)
                row[f"jobs{jobs}_s"] = time.perf_counter() - t0
                row[f"digest_jobs{jobs}"] = _digest(res)
        pooled = _runs()
    row.update(jobs2_over_jobs1=row["jobs2_s"] / row["jobs1_s"],
               pool_run_wall_ms=median(r["wall_ms"] for r in pooled),
               pool_run_cpu_ms=median(r["cpu_ms"] for r in pooled),
               worker_os_threads=sorted({r["os_threads"] for r in pooled}))
    return row


def _repeat_sweep() -> dict:
    """``REPEAT_SWEEPS`` pooled one-epoch sweeps, each after an
    MC-dropout call."""
    global _RUN_LOG, _TRAIN
    import qpignn.harness as harness
    import qpignn.metrics as metrics
    import qpignn.model as model
    _TRAIN = harness.train
    ds = driver.dataset("er2k")
    cfg = harness.TrainConfig(epochs=1, seed=0)
    fitted, _ = harness.train(ds, cfg)
    sweeps = []

    def mc(seed):
        model.mc_dropout_interval(ds.graph, ds.features, fitted,
                                  passes=MC_PASSES, dropout_p=cfg.dropout_p,
                                  seed=seed)

    def evaluate():
        iv = model.forward_intervals(fitted, ds.graph, ds.features,
                                     alpha=cfg.alpha)
        metrics.report(iv, ds.targets, ds.test_mask, cfg.alpha)

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(harness, "train", _timed_train):
        _RUN_LOG = os.path.join(tmp, "runs.jsonl")
        for i in range(REPEAT_SWEEPS):
            phases = {"eval": _peak_with_workers(evaluate),
                      "mc": _peak_with_workers(lambda: mc(i))}
            open(_RUN_LOG, "w").close()
            t0, c0 = time.perf_counter(), time.process_time()
            res = harness.lambda_sweep(ds, cfg, jobs=2)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            peaks = {}
            for r in _runs():
                peaks[r["pid"]] = max(peaks.get(r["pid"], 0.0), r["vmhwm_mb"])
            sweeps.append({"wall_s": wall, "parent_cpu_s": cpu,
                           "worker_vmhwm_mb": peaks, "digest": _digest(res),
                           "before_sweep": phases})
    digests = {s["digest"] for s in sweeps}
    if len(digests) != 1:
        raise RuntimeError(f"repeat_sweep: sweep digests differ: {digests}")
    walls = [s["wall_s"] for s in sweeps]
    workers = {pid for s in sweeps for pid in s["worker_vmhwm_mb"]}
    parent = _proc_mb("self", "VmHWM")
    return {
        "sweep_wall_s": median(walls),
        "first_sweep_wall_s": walls[0],
        "later_sweep_wall_s": median(walls[1:]),
        "ten_sweeps_s": sum(walls),
        "parent_cpu_per_sweep_s": median(s["parent_cpu_s"] for s in sweeps),
        "workers_per_process": len(workers),
        "worker_vmhwm_mb": median(
            max(s["worker_vmhwm_mb"].get(pid, 0.0) for s in sweeps)
            for pid in workers),
        "parent_vmhwm_mb": parent,
        **{f"{phase}_{key}": median(s["before_sweep"][phase][key]
                                    for s in sweeps)
           for phase in ("eval", "mc")
           for key in ("total_rss_mb", "workers_rss_mb", "total_pss_mb")},
        "live_workers_in_eval_and_mc": sorted(
            {s["before_sweep"][phase]["workers"] for s in sweeps
             for phase in ("eval", "mc")}),
        "digest": digests.pop(),
        "processes": {"sweeps": sweeps, "parent_vmhwm_mb": parent},
    }


CASES = {"epoch_t1": _epoch, "epoch_t2": _epoch, "dropout": _dropout,
         "sweep": lambda: _sweep(SWEEP_EPOCHS),
         "short_sweep": lambda: _sweep(1), "repeat_sweep": _repeat_sweep}


def measure(name: str) -> dict:
    return CASES[name]()


if __name__ == "__main__":
    sys.exit(driver.main(
        __doc__, CASES, measure, __file__,
        env={f"epoch_t{n}": {"OPENBLAS_NUM_THREADS": str(n)} for n in (1, 2)}))
