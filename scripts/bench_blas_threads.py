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
- ``repeat_sweep``: ten one-epoch sweeps at ``jobs=2`` in one process,
  each after a 100-pass MC-dropout call (a threaded BLAS workload in
  the parent), as perfbench and ``tune`` run them.  Each repeat is a
  fresh process.  Per sweep it records the wall time, the parent's CPU
  time (its threads only; a spinning BLAS helper shows up here), the
  pids of the workers that trained it and their peak resident sets
  (``VmHWM``), and the sweep's digest, which must be the same for
  every sweep.  Before each sweep an eval call (``forward_intervals``
  plus ``report``) and the MC call run under a thread that samples
  every 2 ms the resident set of the process plus its live pool
  workers: ``eval_total_rss_mb`` and ``mc_total_rss_mb`` are each
  phase's peak total, ``*_workers_rss_mb`` the workers' share of it and
  ``*_total_pss_mb`` the summed proportional set size after it (shared
  pages counted once).

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

CASES = ("epoch_t1", "epoch_t2", "dropout", "sweep", "short_sweep",
         "repeat_sweep")
N, EPOCHS, SWEEP_EPOCHS, DROP_CALLS = 2000, 150, 100, 50
REPEAT_SWEEPS, MC_PASSES = 10, 100


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
    import qpignn.harness as harness
    t0, c0 = time.perf_counter(), time.process_time()
    out = harness.train_qpignn(ds, cfg)  # the alias the patch leaves alone
    row = {"wall_ms": (time.perf_counter() - t0) * 1e3,
           "cpu_ms": (time.process_time() - c0) * 1e3,
           "os_threads": len(os.listdir("/proc/self/task")),
           "pid": os.getpid(), "vmhwm_mb": _proc_mb("self", "VmHWM")}
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


def _repeat_sweep() -> dict:
    """One process's ``REPEAT_SWEEPS`` pooled one-epoch sweeps, each
    after an MC-dropout call."""
    global _RUN_LOG
    import qpignn.harness as harness
    import qpignn.metrics as metrics
    import qpignn.model as model
    ds = _dataset()
    cfg = harness.TrainConfig(epochs=1, seed=0)
    fitted, _ = harness.train_qpignn(ds, cfg)
    harness.train = _timed_train
    sweeps = []

    def mc(seed):
        model.mc_dropout_interval(ds.graph, ds.features, fitted,
                                  passes=MC_PASSES, dropout_p=cfg.dropout_p,
                                  seed=seed)

    def evaluate():
        iv = model.forward_intervals(fitted, ds.graph, ds.features,
                                     alpha=cfg.alpha)
        metrics.report(iv, ds.targets, ds.test_mask, cfg.alpha)

    with tempfile.TemporaryDirectory() as tmp:
        _RUN_LOG = os.path.join(tmp, "runs.jsonl")
        for i in range(REPEAT_SWEEPS):
            phases = {"eval": _peak_with_workers(evaluate),
                      "mc": _peak_with_workers(lambda: mc(i))}
            open(_RUN_LOG, "w").close()
            t0, c0 = time.perf_counter(), time.process_time()
            res = harness.lambda_sweep(ds, cfg, jobs=2)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            with open(_RUN_LOG) as log:
                runs = [json.loads(line) for line in log]
            peaks = {}
            for r in runs:
                peaks[r["pid"]] = max(peaks.get(r["pid"], 0.0), r["vmhwm_mb"])
            sweeps.append({"wall_s": wall, "parent_cpu_s": cpu,
                           "worker_vmhwm_mb": peaks, "digest": _digest(res),
                           "before_sweep": phases})
    return {"sweeps": sweeps, "parent_vmhwm_mb": _proc_mb("self", "VmHWM")}


def _repeat_summary(procs: list[dict]) -> dict:
    """``repeat_sweep``'s figures over its processes, each a repeat."""
    sweeps = [s for p in procs for s in p["sweeps"]]
    digests = {s["digest"] for s in sweeps}
    if len(digests) != 1:
        raise SystemExit(f"repeat_sweep: sweep digests differ: {digests}")
    workers = [{pid for s in p["sweeps"] for pid in s["worker_vmhwm_mb"]}
               for p in procs]
    peaks = [max(s["worker_vmhwm_mb"].get(pid, 0.0) for s in p["sweeps"])
             for p, pids in zip(procs, workers) for pid in pids]
    return {
        "sweep_wall_s": _stats([s["wall_s"] for s in sweeps]),
        "first_sweep_wall_s": _stats([p["sweeps"][0]["wall_s"] for p in procs]),
        "later_sweep_wall_s": _stats([s["wall_s"] for p in procs
                                      for s in p["sweeps"][1:]]),
        "ten_sweeps_s": _stats([sum(s["wall_s"] for s in p["sweeps"])
                                for p in procs]),
        "parent_cpu_per_sweep_s": _stats([s["parent_cpu_s"] for s in sweeps]),
        "workers_per_process": sorted({len(pids) for pids in workers}),
        "worker_vmhwm_mb": _stats(peaks),
        "parent_vmhwm_mb": _stats([p["parent_vmhwm_mb"] for p in procs]),
        **{f"{phase}_{key}": _stats([s["before_sweep"][phase][key]
                                     for s in sweeps])
           for phase in ("eval", "mc")
           for key in ("total_rss_mb", "workers_rss_mb", "total_pss_mb")},
        "live_workers_in_eval_and_mc": sorted(
            {s["before_sweep"][phase]["workers"] for s in sweeps
             for phase in ("eval", "mc")}),
        "digest": digests.pop(),
        "processes": procs,
    }


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
               "short_sweep": lambda r: _sweep(r, epochs=1),
               "repeat_sweep": lambda r: _repeat_sweep()}[args.case]
        print(json.dumps(run(args.repeats)))
        return 0

    cases = {}
    for name in args.cases.split(","):
        env = dict(os.environ)
        if name.startswith("epoch_t"):
            env["OPENBLAS_NUM_THREADS"] = name[-1]
        # repeat_sweep times whole processes, so each repeat is one.
        fresh = name == "repeat_sweep"
        outs = [json.loads(subprocess.run(
            [sys.executable, __file__, "--case", name, "--src", args.src,
             "--repeats", str(args.repeats)],
            check=True, capture_output=True, text=True, env=env).stdout)
            for _ in range(args.repeats if fresh else 1)]
        cases[name] = _repeat_summary(outs) if fresh else outs[0]
        print(f"{name}: {cases[name]}", file=sys.stderr)
    print(json.dumps({"label": args.label, "environment": _environment(),
                      "cases": cases}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
