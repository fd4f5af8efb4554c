"""Workloads and the measured pipeline every workload runs.

A workload is a dataset shape plus the sizes of five phases.  One round
runs them in one process: build the dataset ``builds`` times, then
``turns`` times in turn: one training run (in the first ``trains``
turns only), a block of evals of the trained model in a closed loop,
one MC-dropout pass set, and ``sweeps`` lambda sweeps at
``jobs = nproc``.  A run is ``rounds`` rounds.  Every call
into qpignn that produces an output is an operation: it is attempted,
its output is checked, and an exception or a failed check counts it as
failed.  Calls go through the module attributes so that a tracer
installed by ``spans.install`` sees them.
"""
from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

import qpignn.graphcore as graphcore
import qpignn.harness as harness
import qpignn.metrics as metrics
import qpignn.model as model


@dataclass(frozen=True)
class Workload:
    name: str
    graph: str                       # "er" or "grid"
    shape: tuple[int, ...]           # er: (nodes,); grid: (rows, cols)
    split: str
    rounds: int                      # full repeats of the phase sequence
    builds: int                      # dataset builds per round
    trains: int                      # training runs per round
    epochs: int
    evals_min: int                   # K over all rounds; p95 needs >= 200
    mc_passes: int
    sweep_grid: tuple[float, ...]
    sweep_epochs: int
    turns: int                       # eval/MC/sweep turns per round
    sweeps: int                      # lambda sweeps per turn
    picp_band: tuple[float, float]   # allowed test PICP of the trained model


# The test-PICP bands are the range measured over 30 seeds widened by
# 0.10 on each side (er2k: 0.85-0.95; grid: 0.25-0.77), capped below 1.

WORKLOADS = {
    w.name: w for w in (
        # One epoch per sweep entry: a sweep's wall time is bimodal, and
        # only many short sweeps per run average the two modes out.
        Workload("er2k", "er", (2000,), "random", rounds=3, builds=5,
                 trains=1, epochs=150, evals_min=450, mc_passes=100,
                 sweep_grid=harness.DEFAULT_LAMBDA_GRID, sweep_epochs=1,
                 turns=3, sweeps=2, picp_band=(0.75, 0.99)),
        # One lambda per sweep: no two workers contend, so the sweep here
        # times pool start, dataset transfer and one 20k-node entry.
        # One build, two training runs and four MC pass sets per round,
        # over four rounds: slow spells of the host last seconds to
        # minutes, so every timing takes its samples from the whole run.
        Workload("grid20k-community", "grid", (141, 142), "community",
                 rounds=4, builds=1, trains=2, epochs=5, evals_min=200,
                 mc_passes=5, sweep_grid=(0.05,), sweep_epochs=1,
                 turns=4, sweeps=1, picp_band=(0.15, 0.87)),
    )
}


def derive(seed: int, tag: str) -> int:
    """A 31-bit seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}|{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes() if isinstance(p, np.ndarray)
                 else repr(p).encode())
    return h.hexdigest()[:16]


def dataset_digest(ds) -> str:
    g = ds.graph
    return _digest(g.row_offsets, g.col_indices, ds.features, ds.targets,
                   ds.train_mask, ds.val_mask, ds.test_mask)


def record_digest(rec) -> str:
    return _digest(rec.coverage, rec.width, rec.loss, rec.grad_norm,
                   rec.violation, sorted(rec.reports.items()),
                   rec.crossing_rate)


def sweep_digest(res) -> str:
    return _digest(res.entries, res.chosen, res.objective, res.flags)


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, kind: str, fn, check=None, count: int = 1):
        """Run one call that stands for ``count`` operations.

        Returns (value, seconds); value is None when the call raised or
        its check failed, in which case all ``count`` operations fail.
        """
        self.attempted += count
        t0 = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:  # an operation's failure is a measurement
            self.failures += [f"{kind}: {type(exc).__name__}: {exc}"] * count
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        problem = check(value) if check else None
        if problem:
            self.failures += [f"{kind}: {problem}"] * count
            return None, seconds
        return value, seconds


@dataclass
class Result:
    ledger: Ledger = field(default_factory=Ledger)
    metrics: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    phase_s: dict[str, float] = field(default_factory=dict)
    setup_peak_rss_mb: float = float("nan")
    train_cpu_s: float = 0.0
    sweeps: list[dict[str, float]] = field(default_factory=list)
    inputs: tuple = ()               # (dataset, sweep config) of the last round


def build_dataset(w: Workload, data_seed: int):
    if w.graph == "er":
        n, = w.shape
        g = graphcore.gen_er(n, 8 / (n - 1), seed=data_seed)
    else:
        g = graphcore.gen_grid(*w.shape)
    spec = graphcore.SplitSpec(w.split, seed=data_seed)
    return graphcore.synth_dataset(g, "gaussian", feat_dim=8, noise_sigma=1.0,
                                   seed=data_seed, split_spec=spec)


def _check_training(w: Workload, rec) -> str | None:
    if not np.all(np.isfinite(rec.loss)):
        return "loss trajectory is not finite"
    picp = rec.reports["test"].picp
    lo, hi = w.picp_band
    if not lo <= picp <= hi:
        return f"test PICP {picp:.4f} outside [{lo}, {hi}]"
    return None


def _check_sweep(res) -> str | None:
    if not all(math.isfinite(e.objective) for e in res.entries):
        return "non-finite sweep objective"
    return None


@contextmanager
def _phase(result: Result, name: str, tracer):
    """Times one phase and, under a tracer, records it as a span."""
    gc.collect()
    span = tracer.open(f"phase.{name}") if tracer else None
    t0 = time.perf_counter()
    try:
        yield
    finally:
        result.phase_s[name] = result.phase_s.get(name, 0.0) + time.perf_counter() - t0
        if tracer:
            tracer.close(span)


def run(w: Workload, seed: int, seconds: float, tracer=None) -> Result:
    """Run ``w.rounds`` rounds of every phase; ``seconds`` is the minimum
    time measured.

    Rounds and turns interleave the phases, so a burst of load from
    elsewhere on the machine hits a few samples of each timing, and the
    medians over the run discard them.
    Every round must reproduce the first round's dataset, training
    record and sweep bit for bit.  Eval blocks form a closed loop: the
    b-th of B blocks issues evals until b / B of ``evals_min`` are done
    and the same share of ``seconds`` has passed since the run started.
    """
    res = Result()
    led = res.ledger
    data_seed, train_seed = derive(seed, "data"), derive(seed, "train")
    res.info.update(data_seed=data_seed, train_seed=train_seed, jobs=nproc())
    cfg = harness.TrainConfig(epochs=w.epochs, seed=train_seed)
    scfg = replace(cfg, epochs=w.sweep_epochs)
    start = time.perf_counter()
    reference: dict[str, object] = {}
    setup_s, epoch_ms, mc_s, lat = [], [], [], []

    def same(key: str, value) -> str | None:
        if reference.setdefault(key, value) != value:
            return f"{key} differs from the first round's"
        return None

    def phase(name):
        return _phase(res, name, tracer)

    def mc_check(iv):
        low, up = iv.low_values, iv.up_values
        if not (np.all(np.isfinite(low)) and np.all(np.isfinite(up))):
            return "non-finite MC interval"
        return None if np.all(low <= up) else "crossed MC interval"

    def evaluate():
        iv = model.forward_intervals(fitted, ds.graph, ds.features, alpha=cfg.alpha)
        return metrics.report(iv, ds.targets, ds.test_mask, cfg.alpha)

    ds = trained = None
    for r in range(w.rounds):
        with phase("setup"):
            for _ in range(w.builds):
                built, dt = led.run("dataset build", lambda: build_dataset(w, data_seed),
                                    lambda d: same("dataset", dataset_digest(d)))
                ds = built or ds
                setup_s.append(dt)
        if r == 0:
            res.setup_peak_rss_mb = peak_rss_mb()
        if ds is None:
            break

        for k in range(w.turns):
            if k < w.trains:
                with phase("train"):
                    cpu0 = time.process_time()
                    if tracer:
                        tracer.counting_gc = True
                    trained, dt = led.run(
                        "training run", lambda: harness.train_qpignn(ds, cfg),
                        lambda out: _check_training(w, out[1])
                        or same("training record", record_digest(out[1])))
                    if tracer:
                        tracer.counting_gc = False
                    res.train_cpu_s += time.process_time() - cpu0
                    epoch_ms.append(dt / w.epochs * 1e3)
                if trained is None:
                    break
                fitted, rec = trained
                test = rec.reports["test"]

            share = (r * w.turns + k + 1) / (w.rounds * w.turns)
            with phase("eval"):
                while (len(lat) < w.evals_min * share
                       or time.perf_counter() - start < seconds * share):
                    _, dt = led.run("eval call", evaluate,
                                    lambda rep: None if rep == test
                                    else "eval report differs from training's")
                    lat.append(dt)

            with phase("mc"):
                _, dt = led.run("eval call", lambda: model.mc_dropout_interval(
                    ds.graph, ds.features, fitted, passes=w.mc_passes,
                    dropout_p=cfg.dropout_p, seed=derive(seed, "mc")), mc_check)
                mc_s.append(dt)

            for _ in range(w.sweeps):
                with phase("sweep"):
                    kids0, cpu0 = _child_cpu(), time.process_time()
                    out, dt = led.run("sweep entry", lambda: harness.lambda_sweep(
                        ds, scfg, grid=w.sweep_grid, jobs=nproc()),
                        lambda sw: _check_sweep(sw) or same("sweep", (sw.entries, sw.chosen)),
                        count=len(w.sweep_grid))
                    kids = _child_cpu() - kids0
                    res.sweeps.append(dict(wall_s=dt, child_cpu_s=kids,
                                           cpu_s=time.process_time() - cpu0 + kids))
            if out is not None:
                res.info["sweep_digest"] = sweep_digest(out)
                chosen = out.entry(out.chosen).test
                res.info["sweep_chosen_lambda"] = out.chosen
                res.info["sweep_test_coverage_gap"] = abs(chosen.picp - (1.0 - cfg.alpha))
                res.info["sweep_test_winkler"] = chosen.winkler
        if trained is None:
            break

        res.inputs = (ds, scfg)
        res.info["dataset_digest"] = dataset_digest(ds)
        res.info["record_digest"] = record_digest(rec)
        res.info["test_coverage_gap"] = abs(test.picp - (1.0 - cfg.alpha))
        res.info["test_winkler"] = test.winkler

    # A sweep's wall time is bimodal while BLAS threads oversubscribe the
    # cores, and a median jumps between the modes; the mean does not.
    walls = [s["wall_s"] for s in res.sweeps]
    res.info.update(setup_times_s=setup_s, epoch_ms_runs=epoch_ms, mc_times_s=mc_s,
                    sweep_walls_s=walls, eval_samples=len(lat))
    res.metrics = {
        "setup_s": _median(setup_s),
        "epoch_ms": _median(epoch_ms),
        "eval_ms_p50": _percentile(lat, 50, 1e3),
        "eval_ms_p95": _percentile(lat, 95, 1e3),
        "mc_eval_s": _median(mc_s),
        "sweep_s": float(np.mean(walls)) if walls else None,
        "peak_rss_mb": peak_rss_mb(),
    }
    return res


def serial_sweep_cpu_s(w: Workload, res: Result) -> float:
    """Process CPU of one ``jobs = 1`` sweep of the last round's inputs.

    The base for the pool's child CPU; its entries must equal the pooled
    sweep's, entry for entry.
    """
    ds, scfg = res.inputs
    cpu0 = time.process_time()
    res.ledger.run("sweep entry", lambda: harness.lambda_sweep(
        ds, scfg, grid=w.sweep_grid, jobs=1),
        lambda sw: None if sweep_digest(sw) == res.info.get("sweep_digest")
        else "serial sweep differs from the pooled one", count=len(w.sweep_grid))
    return time.process_time() - cpu0


def _median(values):
    return float(np.median(values)) if values else None


def _percentile(values, q, scale):
    return float(np.percentile(values, q)) * scale if values else None
