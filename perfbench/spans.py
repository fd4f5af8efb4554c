"""In-memory span tracer and the wrappers that attach it to qpignn.

The tracer wraps public functions at the module bindings their callers
look up (for example ``qpignn.harness.forward_intervals`` and
``qpignn.diffkit.matmul``), so the program itself is not edited.  Each
span records its name, start, end, parent and run id; spans stay in
memory until the run ends.  Counts are taken at the same boundaries.
"""
from __future__ import annotations

import functools
import gc
import os
import time
import weakref
from dataclasses import dataclass

import numpy as np

import qpignn.diffkit as diffkit
import qpignn.graphcore as graphcore
import qpignn.harness as harness
import qpignn.losses as losses
import qpignn.metrics as metrics
import qpignn.model as model

EPOCH = "harness.epoch"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    run: int


class Tracer:
    """A stack of open spans plus a flat list of every span recorded."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        # Per-epoch tape sizes and live-tape counts, sampled at the
        # backward call and at the end of each epoch.
        self.tape_steps: list[int] = []
        self.live_tapes: list[int] = []
        self._tape_refs: list[weakref.ref] = []
        self.gc_collections = 0
        self.counting_gc = False
        self.epoch: int | None = None

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), float("nan"),
                               parent, self.run_id))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        """End ``idx`` and any span still open inside it (left open when
        an exception escaped mid-epoch)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top].end = now
            if top == idx:
                break
        if self.epoch is not None and self.epoch >= idx:
            self.epoch = None

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def watch_tape(self, tape) -> None:
        # Tape has __slots__ and no weak-reference slot; its last recorded
        # step closure lives exactly as long as the tape's step list.
        self._tape_refs.append(weakref.ref(tape._steps[-1]))

    def count_live_tapes(self) -> None:
        self._tape_refs = [r for r in self._tape_refs if r() is not None]
        self.live_tapes.append(len(self._tape_refs))

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start" and self.counting_gc:
            self.gc_collections += 1

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [s.end - s.start for s in self.spans]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by direct children."""
        dur = self.durations()
        out = list(dur)
        for s, d in zip(self.spans, dur):
            if s.parent >= 0:
                out[s.parent] -= d
        return out

    def ancestor_named(self, prefix: str) -> list[int]:
        """For each span, the index of its nearest ancestor-or-self whose
        name starts with ``prefix``, or -1."""
        found: list[int] = []
        for i, s in enumerate(self.spans):
            if s.name.startswith(prefix):
                found.append(i)
            else:
                found.append(found[s.parent] if s.parent >= 0 else -1)
        return found


class _TimedGenerator:
    """Forwards to a numpy Generator, recording each draw as a span."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        return self._tracer.wrap(attr, "rng.draw") if callable(attr) else attr


def install(tracer: Tracer):
    """Patch every traced binding; returns a callable that undoes it."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_all(owners, attr: str, name: str) -> None:
        for owner in owners:
            patch(owner, attr, tracer.wrap(getattr(owner, attr), name))

    # graphcore: the benchmark calls the generators and synth_dataset via
    # the module; synth_dataset finds split and mean_adjacency there too.
    wrap_all([graphcore], "gen_er", "graphcore.gen")
    wrap_all([graphcore], "gen_grid", "graphcore.gen")
    wrap_all([graphcore], "synth_dataset", "graphcore.synth_dataset")
    wrap_all([graphcore], "split", "graphcore.split")
    wrap_all([graphcore.Graph], "validate", "graphcore.validate")
    wrap_all([graphcore, diffkit], "mean_adjacency", "graphcore.mean_adjacency")

    def timed_rng(keyed):
        keyed = tracer.wrap(keyed, "rng.keyed_rng")

        @functools.wraps(keyed)
        def traced_keyed_rng(*args, **kwargs):
            return _TimedGenerator(keyed(*args, **kwargs), tracer)
        return traced_keyed_rng

    for owner in (graphcore, diffkit, model, harness, losses):
        patch(owner, "keyed_rng", timed_rng(owner.keyed_rng))

    for attr in ("matmul", "csr_mean_aggregate", "dropout"):
        wrap_all([diffkit], attr, f"diffkit.{attr}")

    backward = tracer.wrap(diffkit.backward, "diffkit.backward")

    def traced_backward(tape, loss):
        tracer.tape_steps.append(len(tape))
        tracer.watch_tape(tape)
        return backward(tape, loss)
    patch(diffkit, "backward", traced_backward)

    # harness.forward_intervals opens the epoch span on a taped call; the
    # epoch closes when adam_step returns.
    forward = tracer.wrap(model.forward_intervals, "model.forward_intervals")

    def traced_forward(*args, **kwargs):
        if kwargs.get("tape") is not None and tracer.epoch is None:
            tracer.epoch = tracer.open(EPOCH)
        return forward(*args, **kwargs)
    patch(harness, "forward_intervals", traced_forward)
    wrap_all([model], "forward_intervals", "model.forward_intervals")
    wrap_all([model], "mc_dropout_interval", "model.mc_dropout_interval")

    wrap_all([harness], "qpi_total_loss", "losses.qpi_total_loss")
    wrap_all([harness], "grad_norm", "optim.grad_norm")
    adam = tracer.wrap(harness.adam_step, "optim.adam_step")

    def traced_adam(*args, **kwargs):
        out = adam(*args, **kwargs)
        if tracer.epoch is not None:
            tracer.count_live_tapes()
            tracer.close(tracer.epoch)
        return out
    patch(harness, "adam_step", traced_adam)

    wrap_all([harness, metrics], "report", "metrics.report")
    wrap_all([harness], "train_qpignn", "harness.train_qpignn")
    wrap_all([harness], "lambda_sweep", "harness.lambda_sweep")

    gc.callbacks.append(tracer.on_gc)

    def restore() -> None:
        if not saved:
            return
        gc.callbacks.remove(tracer.on_gc)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    # Sweep workers are forked; their spans would never reach this
    # process, so they run the stock code.
    os.register_at_fork(after_in_child=restore)
    return restore


def layer_metrics(tracer: Tracer, traced, untraced, serial_cpu_s: float,
                  w) -> dict[str, float]:
    """Per-layer metrics of one traced run of workload ``w``.

    ``traced`` is the pipeline result under the tracer, ``untraced`` the
    results of the same work without it, run before and after, and
    ``serial_cpu_s`` the CPU of one ``jobs = 1`` sweep.  Per-build and
    per-epoch figures are totals over the run's builds and training
    epochs divided by their number; per-call figures are medians over
    the phase named.
    """
    n_builds, n_epochs = w.builds * w.rounds, w.epochs * w.trains * w.rounds
    spans, dur, own = tracer.spans, tracer.durations(), tracer.self_times()
    phase_of = _phases(tracer)
    epoch_of = tracer.ancestor_named(EPOCH)

    def select(name, phase=None, in_epoch=False):
        return [i for i, s in enumerate(spans) if s.name == name
                and (phase is None or phase_of[i] == phase)
                and (not in_epoch or epoch_of[i] >= 0)]

    def per_epoch_ms(*names):
        picked = [i for n in names for i in select(n, "phase.train", True)]
        return sum(dur[i] for i in picked) / n_epochs * 1e3

    def median_ms(name, phase):
        return float(np.median([dur[i] for i in select(name, phase)])) * 1e3

    setup = "phase.setup"
    gen = select("graphcore.gen", setup)
    gen_of = tracer.ancestor_named("graphcore.gen")
    validate = select("graphcore.validate", setup)
    epochs = select(EPOCH, "phase.train")
    epoch_ms = [dur[i] * 1e3 for i in epochs]
    forwards = [i for i in select("model.forward_intervals", "phase.train", True)
                if spans[i].parent == epoch_of[i]]
    sweeps = traced.sweeps
    entries = len(w.sweep_grid)
    sweep_epochs = entries * w.sweep_epochs
    child_cpu_s = float(np.median([s["child_cpu_s"] for s in sweeps]))
    return {
        "graphcore.gen_s": (sum(dur[i] for i in gen)
                            - sum(dur[i] for i in validate if gen_of[i] >= 0))
        / n_builds,
        "graphcore.validate_s": sum(dur[i] for i in validate) / n_builds,
        "graphcore.split_s": sum(dur[i] for i in select("graphcore.split", setup))
        / n_builds,
        "graphcore.setup_peak_rss_mb": untraced[0].setup_peak_rss_mb,
        "graphcore.mean_adjacency_calls":
            len(select("graphcore.mean_adjacency", "phase.train", True)) / n_epochs,
        "graphcore.mean_adjacency_ms": median_ms("graphcore.mean_adjacency", "phase.train"),
        "rng.keyed_rng_calls": len(select("rng.keyed_rng", "phase.train", True)) / n_epochs,
        "rng.keyed_rng_ms": per_epoch_ms("rng.keyed_rng", "rng.draw"),
        "diffkit.tape_steps": float(np.mean(tracer.tape_steps)),
        "diffkit.backward_ms": per_epoch_ms("diffkit.backward"),
        "diffkit.aggregate_ms": per_epoch_ms("diffkit.csr_mean_aggregate"),
        "diffkit.matmul_ms": per_epoch_ms("diffkit.matmul"),
        "diffkit.dropout_ms": per_epoch_ms("diffkit.dropout"),
        "diffkit.live_tapes_max": max(tracer.live_tapes),
        "diffkit.gc_collections": tracer.gc_collections,
        "model.forward_train_ms": sum(dur[i] for i in forwards) / n_epochs * 1e3,
        "model.forward_eval_ms": median_ms("model.forward_intervals", "phase.eval"),
        "model.mc_dropout_s": median_ms("model.mc_dropout_interval", "phase.mc") / 1e3,
        "losses.qpi_total_loss_ms": per_epoch_ms("losses.qpi_total_loss"),
        "optim.adam_step_ms": per_epoch_ms("optim.adam_step"),
        "optim.grad_norm_ms": per_epoch_ms("optim.grad_norm"),
        "metrics.report_ms": median_ms("metrics.report", "phase.eval"),
        "harness.epoch_ms_p50": float(np.percentile(epoch_ms, 50)),
        "harness.epoch_ms_p95": float(np.percentile(epoch_ms, 95)),
        "harness.epoch_self_ms": sum(own[i] for i in epochs) / n_epochs * 1e3,
        "harness.train_cpu_per_epoch_ms": traced.train_cpu_s / n_epochs * 1e3,
        "harness.train_runs": len(select("harness.train_qpignn"))
        + entries * len(sweeps),
        "harness.sweep_child_cpu_s": child_cpu_s,
        "harness.sweep_cpu_per_epoch_ms": child_cpu_s / sweep_epochs * 1e3,
        "harness.sweep_serial_cpu_per_epoch_ms": serial_cpu_s / sweep_epochs * 1e3,
        "harness.cpu_util": float(np.median(
            [s["cpu_s"] / (s["wall_s"] * traced.info["jobs"]) for s in sweeps])),
        "trace.overhead_s": sum(traced.phase_s[p] - np.mean([u.phase_s[p] for u in untraced])
                                for p in traced.phase_s if p != "sweep"),
    }


def _phases(tracer: Tracer) -> list[str]:
    return [tracer.spans[i].name if i >= 0 else ""
            for i in tracer.ancestor_named("phase.")]
