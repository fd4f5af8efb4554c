"""Training-loop behavior, lambda selection, and the experiment suites.

Numeric expectations here were frozen from runs of this implementation
after checking they satisfy the documented invariants; they guard
against regressions, not against the laws of arithmetic.
"""
import argparse
import csv
import dataclasses
import gc
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qpignn as q
from qpignn.cli import RUN_COLUMNS, RUN_KEYS, _run_row, _write_outputs
from qpignn.errors import ContractError, ParameterError
from qpignn.harness import (ABLATION_SETTINGS, ALLOWED_VARIANTS,
                            DEFAULT_LAMBDA_GRID, DEFAULT_TUNE_BOUNDS,
                            COVERAGE_PENALTY_WEIGHT, SweepEntry,
                            SweepResult, TrainConfig,
                            _train_all, convergence_check, dataset_preset,
                            lambda_sweep, lambda_tune, robustness_suite,
                            selection_objective, shift_matrix,
                            split_experiment, ablation_suite)
from qpignn.metrics import MetricsReport
from qpignn.rng import keyed_rng


@pytest.fixture
def no_kept_pool():
    """Start from no kept worker pool and leave none.  Runs pickle
    ``train`` by name, so a worker forked while a test patches it (or
    ``ProcessPoolExecutor``) would keep the stand-in for later batches."""
    q.harness._close_pool()
    yield
    q.harness._close_pool()


def _report(picp=0.9, mpiw=1.0):
    return MetricsReport(picp=picp, mpiw=mpiw, nmpiw=mpiw / 4, mpe=0.2,
                         sharpness=mpiw ** 2, winkler=mpiw, cwc=mpiw / 2,
                         n_eval=100, alpha=0.1)


# ---------------------------------------------------------------------------
# Config and record contracts
# ---------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ParameterError):
        TrainConfig(epochs=0)
    with pytest.raises(ParameterError):
        TrainConfig(alpha=1.0)
    with pytest.raises(ParameterError):
        TrainConfig(lambda_width=-0.01)
    # NaN passes `x < 0`; non-finite rates and penalties must not train
    for name in ("lr", "weight_decay", "lambda_width"):
        for bad in (float("nan"), float("inf"), -1e-3):
            with pytest.raises(ParameterError, match=name):
                TrainConfig(**{name: bad})
    with pytest.raises(ParameterError):
        TrainConfig(loss_kind="huber")
    # checked when built, not when a (possibly pooled) run starts
    with pytest.raises(ParameterError, match="width_norm"):
        TrainConfig(width_norm="l3")
    for bad in (0, -1):
        with pytest.raises(ParameterError, match="hidden"):
            TrainConfig(hidden=bad)
    for bad in (float("nan"), float("inf"), 1.0, 1.5, -0.1):
        with pytest.raises(ParameterError, match="dropout_p"):
            TrainConfig(dropout_p=bad)
    mcfg = TrainConfig(hidden=1, dropout_p=0.0).model_config(3)
    assert mcfg == q.ModelConfig(in_dim=3, hidden=1, dropout_p=0.0)
    # quantile losses are tied to their architecture
    with pytest.raises(ContractError):
        TrainConfig(loss_kind="sqr", model_variant="dual")
    with pytest.raises(ContractError):
        TrainConfig(loss_kind="qpi", model_variant="sqr")
    with pytest.raises(ContractError):
        TrainConfig(loss_kind="mse_mcdropout", model_variant="single")
    # every MC pass of a dropout-free model is the same point
    with pytest.raises(ParameterError, match="dropout_p"):
        TrainConfig(loss_kind="mse_mcdropout", dropout_p=0.0)


def test_train_is_the_single_entry_point(small_ds):
    assert q.harness.train_qpignn is q.train
    for kind, variant in (("qpi", "dual"), ("rqr_adj", "single"),
                          ("rqr_adj", "dual"), ("rqr_adj", "fixed_margin")):
        cfg = TrainConfig(epochs=3, hidden=8, loss_kind=kind,
                          model_variant=variant)
        model, rec = q.train(small_ds, cfg)
        assert model.config.variant == variant
        assert rec.loss.shape == (3,) and np.all(np.isfinite(rec.loss))


def test_non_finite_gradient_norm_stops_before_adam(small_ds, monkeypatch):
    """A NaN norm with a finite loss stops the run at its epoch, before
    Adam spreads it into the parameters."""
    models, stepped = [], []
    init_model, grad_norm, adam_step = (q.harness.init_model,
                                        q.harness.grad_norm,
                                        q.harness.adam_step)

    def capture(*args):
        models.append(init_model(*args))
        return models[-1]

    def nan_at_epoch_2(params):
        norm = grad_norm(params)
        return float("nan") if len(stepped) == 2 else norm

    def step(params, *args):
        adam_step(params, *args)
        stepped.append({n: params.value(n).copy() for n in params.names()})
    monkeypatch.setattr(q.harness, "init_model", capture)
    monkeypatch.setattr(q.harness, "grad_norm", nan_at_epoch_2)
    monkeypatch.setattr(q.harness, "adam_step", step)
    with pytest.raises(q.TrainingError,
                       match="gradient norm nan at epoch 2 ") as err:
        q.train(small_ds, TrainConfig(epochs=5, hidden=8, seed=0))
    assert err.value.epoch == 2
    assert np.isfinite(err.value.diagnostics["loss"])
    assert len(stepped) == 2
    params = models[0].params
    for name, value in stepped[-1].items():
        assert params.value(name).tobytes() == value.tobytes(), name


def test_one_interval_pass_per_epoch(small_ds, monkeypatch):
    """The loss terms and the recorded trajectory share one masked pass
    per epoch; each final per-mask report makes one more."""
    calls = []
    original = q.metrics.interval_stats

    def counted(*args):
        calls.append(args)
        return original(*args)
    for module in (q.harness, q.losses, q.metrics):
        if hasattr(module, "interval_stats"):
            monkeypatch.setattr(module, "interval_stats", counted)
    _, rec = q.train(small_ds, TrainConfig(epochs=4, hidden=8))
    assert len(rec.reports) == 3
    assert len(calls) == 4 + 3


@pytest.mark.parametrize("kind, variant", [
    ("qpi", "dual"), ("width_only", "dual"), ("mse_only", "dual"),
    ("rqr_adj", "single"), ("rqr_adj", "dual")])
def test_one_masked_bound_pair_per_epoch(kind, variant, small_ds,
                                         monkeypatch):
    """Every loss kind reads the epoch's one masked (low, up) pair."""
    calls = []
    original = q.diffkit.masked_select

    def counted(*args):
        calls.append(args)
        return original(*args)
    monkeypatch.setattr(q.diffkit, "masked_select", counted)
    cfg = TrainConfig(epochs=1, hidden=8, loss_kind=kind,
                      model_variant=variant)
    model = q.init_model(cfg.model_config(small_ds.feat_dim), cfg.seed)
    q.harness._epoch_loss(model, small_ds, cfg, 0)
    assert len(calls) == 2


@pytest.mark.parametrize("kind", sorted(ALLOWED_VARIANTS))
def test_one_tape_per_epoch(kind, small_ds, monkeypatch):
    """Every loss kind records its epoch on the one tape _epoch_loss makes."""
    tapes = []

    class Counted(q.diffkit.Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)
    monkeypatch.setattr(q.diffkit, "Tape", Counted)
    cfg = TrainConfig(epochs=1, hidden=8, loss_kind=kind,
                      model_variant=ALLOWED_VARIANTS[kind][0])
    model = q.init_model(cfg.model_config(small_ds.feat_dim), cfg.seed)
    node, _ = q.harness._epoch_loss(model, small_ds, cfg, 0)
    assert len(tapes) == 1 and node.tape is tapes[0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", sorted(ALLOWED_VARIANTS))
def test_an_empty_train_mask_is_refused(kind, small_ds):
    """Every loss kind refuses a train mask that selects no node, before
    any loss takes a mean over the empty selection."""
    ds = replace(small_ds, train_mask=np.zeros(small_ds.num_nodes, bool),
                 val_mask=small_ds.train_mask | small_ds.val_mask)
    cfg = TrainConfig(epochs=1, hidden=8, loss_kind=kind,
                      model_variant=ALLOWED_VARIANTS[kind][0])
    with pytest.raises(ContractError, match="mask selects no nodes"):
        q.train(ds, cfg)


def test_bad_jobs_and_mc_passes_rejected_up_front(small_ds, monkeypatch,
                                                  no_kept_pool):
    with pytest.raises(ParameterError):
        TrainConfig(loss_kind="mse_mcdropout", mc_passes=1)
    # a count that is not an integer is refused before any epoch runs
    for bad in (dict(epochs=2.5), dict(epochs=float("nan")),
                dict(mc_passes=2.5), dict(mc_passes=float("nan")),
                dict(loss_kind="mse_mcdropout", mc_passes=2.5)):
        with pytest.raises(ParameterError, match="must be an integer"):
            TrainConfig(**bad)
    # a bad model shape never reaches a (pooled) run either
    for bad in (dict(hidden=0), dict(dropout_p=float("nan"))):
        with pytest.raises(ParameterError):
            replace(TrainConfig(epochs=2, hidden=8), **bad)

    def no_training(*args, **kwargs):
        raise AssertionError("a rejected batch started training")

    monkeypatch.setattr(q.harness, "train", no_training)
    cfg = TrainConfig(epochs=2, hidden=8)
    for suite in (lambda j: lambda_sweep(small_ds, cfg, grid=(0.1,), jobs=j),
                  lambda j: lambda_tune(small_ds, cfg, budget=3, jobs=j),
                  lambda j: robustness_suite(small_ds, cfg, jobs=j),
                  lambda j: ablation_suite(small_ds, cfg, seeds=(0,), jobs=j),
                  lambda j: split_experiment(small_ds, cfg, jobs=j),
                  lambda j: shift_matrix(cfg=cfg, nodes=40, runs=1, jobs=j)):
        for jobs in (0, -3):
            with pytest.raises(ParameterError):
                suite(jobs)
    # empty batches are rejected too
    with pytest.raises(ParameterError):
        ablation_suite(small_ds, cfg, seeds=())
    for runs in (0, -2):
        with pytest.raises(ParameterError):
            shift_matrix(cfg=cfg, nodes=40, runs=runs)


# A float count used to pass validation and then fail inside training or
# graph construction; a float seed trained the run, or drew the data, of
# its integer part.
@pytest.mark.parametrize("call", [
    lambda ds: TrainConfig(hidden=8.0),
    lambda ds: TrainConfig(hidden=2.5),
    lambda ds: q.ModelConfig(in_dim=3.5),
    lambda ds: TrainConfig(seed=0.5),
    lambda ds: TrainConfig(seed="3"),
    lambda ds: ablation_suite(ds, TrainConfig(epochs=2), seeds=(0, 0.5)),
    lambda ds: lambda_tune(ds, TrainConfig(epochs=2), budget=3.5),
    lambda ds: shift_matrix(cfg=TrainConfig(epochs=2), nodes=40, runs=1.5),
    lambda ds: shift_matrix(cfg=TrainConfig(epochs=2), nodes=60.5, runs=1),
    lambda ds: dataset_preset("er", 60.5, 1),
    lambda ds: dataset_preset("er", 60, 0.5),
    lambda ds: q.SplitSpec(seed=0.5),
    lambda ds: q.PerturbSpec("feature_noise", 0.1, seed=0.5),
    lambda ds: q.gen_er(60, 0.1, seed=1.5),
    lambda ds: q.synth_dataset(ds.graph, "basic", 4, 0.3, seed=2.7),
    lambda ds: shift_matrix(cfg=TrainConfig(epochs=2), nodes=60, runs=1,
                            data_seed=0.5),
], ids=["hidden_8.0", "hidden_2.5", "in_dim_3.5", "seed_0.5", "seed_str",
        "ablation_seed_0.5", "tune_budget_3.5", "shift_runs_1.5",
        "shift_nodes_60.5", "preset_nodes_60.5", "preset_seed_0.5",
        "split_seed_0.5", "perturb_seed_0.5", "gen_er_seed_1.5",
        "synth_seed_2.7", "shift_data_seed_0.5"])
def test_non_integer_counts_and_seeds_are_refused_before_any_work(
        call, small_ds, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a rejected call drew, built a graph or trained")
    for name in ("train", "gen_er", "gen_ba", "gen_grid", "gen_chain",
                 "gen_tree"):
        monkeypatch.setattr(q.harness, name, no_work)
    monkeypatch.setattr(q.graphcore, "keyed_rng", no_work)
    with pytest.raises(ParameterError, match="must be"):
        call(small_ds)


@pytest.mark.parametrize("kind", list(ALLOWED_VARIANTS))
def test_trained_model_scores_itself_as_train_reported(kind, small_ds):
    """An untaped ``forward_intervals`` of a trained model gives the
    intervals ``train`` reported, for every loss kind: MC dropout for
    ``mse_mcdropout``, the model's heads for the rest."""
    cfg = TrainConfig(epochs=20, hidden=8, mc_passes=5, loss_kind=kind,
                      model_variant=ALLOWED_VARIANTS[kind][0])
    model, rec = q.train(small_ds, cfg)
    iv = q.forward_intervals(model, small_ds.graph, small_ds.features,
                             alpha=cfg.alpha)
    for name, mask in small_ds.masks().items():
        assert q.report(iv, small_ds.targets, mask, cfg.alpha) == \
            rec.reports[name], name


@pytest.mark.parametrize("kind,variant", [("qpi", "dual"), ("sqr", "sqr"),
                                          ("mse_mcdropout", "dual")])
def test_shift_diagonal_is_the_runs_own_test_report(kind, variant):
    """A diagonal cell scores the intervals ``train`` reports, MC dropout
    included, so with one run it equals that run's test report."""
    cfg = TrainConfig(epochs=20, hidden=8, mc_passes=5, loss_kind=kind,
                      model_variant=variant)
    sm = shift_matrix(cfg=cfg, nodes=120, runs=1)
    for i, family in enumerate(sm.families):
        _, rec = q.train(dataset_preset(family, 120, 11), cfg)
        assert sm.picp[i, i] == rec.reports["test"].picp
        assert sm.mpiw[i, i] == rec.reports["test"].mpiw


@pytest.mark.parametrize("kind", ["qpi", "mse_mcdropout"])
def test_shift_matrix_scores_only_off_diagonal_cells(kind, monkeypatch):
    """After training, only the k(k - 1) off-diagonal cells of each run
    are scored; the matrix keeps the bits of scoring every cell."""
    families, runs = ("er", "ba", "grid"), 2
    cfg = TrainConfig(epochs=10, hidden=8, mc_passes=5, loss_kind=kind,
                      lambda_width=0.5)
    datasets = {f: dataset_preset(f, 60, 11) for f in families}
    picp, mpiw = np.zeros((3, 3)), np.zeros((3, 3))
    for i, fi in enumerate(families):
        for s in range(runs):
            model, rec = q.train(datasets[fi], replace(cfg, seed=s))
            for j, fj in enumerate(families):
                dj = datasets[fj]
                mask = dj.test_mask if i == j else np.ones(dj.num_nodes, bool)
                iv = q.forward_intervals(model, dj.graph, dj.features,
                                         alpha=cfg.alpha)
                rep = q.report(iv, dj.targets, mask, cfg.alpha)
                picp[i, j] += rep.picp
                mpiw[i, j] += rep.mpiw

    scored = []
    forward, train_all = q.harness.forward_intervals, q.harness._train_all

    def counted(model, graph, x, **kwargs):
        scored.append(graph)
        return forward(model, graph, x, **kwargs)

    def train_then_count(batch, jobs):
        trained = train_all(batch, jobs)
        monkeypatch.setattr(q.harness, "forward_intervals", counted)
        return trained

    monkeypatch.setattr(q.harness, "_train_all", train_then_count)
    sm = shift_matrix(families, cfg, nodes=60, runs=runs)
    assert len(scored) == 3 * 2 * runs
    assert sm.picp.tobytes() == (picp / runs).tobytes()
    assert sm.mpiw.tobytes() == (mpiw / runs).tobytes()


def test_sweep_result_requires_chosen_in_entries():
    e = SweepEntry(0.1, _report(), _report(), 1.0)
    with pytest.raises(ContractError):
        SweepResult(entries=(e,), chosen=0.2, objective=1.0)


def test_selection_objective():
    # both cover: smaller width wins, no penalty term
    assert selection_objective(_report(picp=0.92, mpiw=2.0), 0.1) == 2.0
    # under coverage: shortfall is charged at the penalty weight
    j = selection_objective(_report(picp=0.80, mpiw=2.0), 0.1)
    assert j == pytest.approx(2.0 + COVERAGE_PENALTY_WEIGHT * 0.10)
    assert DEFAULT_LAMBDA_GRID == (0.05, 0.1, 0.3, 0.5, 0.8, 1.2)
    assert DEFAULT_TUNE_BOUNDS == (0.05, 1.0)


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def test_run_is_deterministic(small_ds):
    cfg = TrainConfig(epochs=50, seed=4)
    _, a = q.train(small_ds, cfg)
    _, b = q.train(small_ds, cfg)
    assert np.array_equal(a.loss, b.loss)
    assert np.array_equal(a.coverage, b.coverage)
    assert np.array_equal(a.grad_norm, b.grad_norm)
    assert a.reports["test"] == b.reports["test"]
    _, c = q.train(small_ds, TrainConfig(epochs=50, seed=5))
    assert not np.array_equal(a.loss, c.loss)


@pytest.mark.parametrize("decay", [True, False])
def test_train_steps_adam_on_the_sqrt_schedule(decay, small_ds, monkeypatch):
    """Epoch ep steps by lr / sqrt(ep + 1) under sqrt_lr_decay, by lr
    without it, and always decays weights by weight_decay."""
    steps = []
    adam = q.harness.adam_step

    def recorded(params, state, lr, weight_decay):
        steps.append((lr, weight_decay))
        return adam(params, state, lr, weight_decay)
    monkeypatch.setattr(q.harness, "adam_step", recorded)
    q.train(small_ds, TrainConfig(epochs=3, hidden=8, lr=0.01,
                                  weight_decay=0.5, sqrt_lr_decay=decay))
    want = [0.01 / np.sqrt(t) if decay else 0.01 for t in (1, 2, 3)]
    assert steps == [(lr, 0.5) for lr in want]


def test_train_keeps_at_most_two_tapes_alive(small_ds, monkeypatch):
    """Each epoch's tape dies with its epoch: none is left when the next
    epoch's taped forward pass starts, so tapes never pile up waiting
    for the cyclic collector (disabled here)."""
    refs, live, at_forward = [], [], []
    backward, adam = q.diffkit.backward, q.harness.adam_step
    forward = q.harness.forward_intervals

    def alive():
        return sum(r() is not None for r in refs)

    def watched_backward(tape, loss):
        # A tape's last closure lives exactly as long as its step list.
        refs.append(weakref.ref(tape._steps[-1]))
        return backward(tape, loss)

    def counted_adam(*args, **kwargs):
        live.append(alive())
        return adam(*args, **kwargs)

    def counted_forward(*args, **kwargs):
        if kwargs.get("tape") is not None:
            at_forward.append(alive())
        return forward(*args, **kwargs)

    monkeypatch.setattr(q.diffkit, "backward", watched_backward)
    monkeypatch.setattr(q.harness, "adam_step", counted_adam)
    monkeypatch.setattr(q.harness, "forward_intervals", counted_forward)
    enabled = gc.isenabled()
    gc.disable()
    try:
        q.train(small_ds, TrainConfig(epochs=30, hidden=16, seed=0))
    finally:
        if enabled:
            gc.enable()
    assert live == [1] * 30
    assert at_forward == [0] * 30
    assert all(r() is None for r in refs)


def test_training_peak_memory_is_a_few_node_arrays():
    """Adjoints keep only the arrays they read and drop them once run,
    each epoch's tape dies with its epoch, products add in place, and
    dropout and the heads' gradient reuse the buffers of encoder arrays
    nothing reads again, so five epochs on the 2000-node protocol graph
    peak below 4.4 live n x hidden float64 arrays (about 4.2; 4.57 while
    each layer taped a ReLU and a dropout mask and layer 1 held a copy of
    the features; 5.1 while dropout and the heads allocated beside a
    dead array; 6.2 with product temporaries, steps that kept their
    arrays and dropout's draws alive beside its output; 9.4 while each
    tape lived on into the next epoch; 41 when closures held every
    forward value and gradient)."""
    n = 2000
    ds = q.synth_dataset(q.gen_er(n, 8 / (n - 1), seed=1), "gaussian", 8,
                         1.0, seed=1)
    cfg = TrainConfig(epochs=5, seed=0)
    tracemalloc.start()
    try:
        q.train(ds, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.4 * n * cfg.hidden * 8, peak / (n * cfg.hidden * 8)


def test_violation_decays_as_coverage_rises(small_ds):
    _, rec = q.train(small_ds, TrainConfig(epochs=300, seed=1))
    assert rec.coverage[0] == pytest.approx(0.378, abs=1e-3)
    assert rec.coverage[-1] == pytest.approx(0.906, abs=1e-3)
    assert rec.violation[0] == pytest.approx(0.5061, abs=1e-3)
    assert rec.violation[-1] == pytest.approx(0.0229, abs=1e-3)
    assert rec.coverage[-1] > rec.coverage[0]
    assert rec.violation[-1] < rec.violation[0]


def test_pure_noise_coverage_without_width_penalty(small_ds):
    """With lambda = 0 nothing restrains width, so intervals swallow
    targets that carry no signal at all."""
    y = keyed_rng(3, "pure-noise").standard_normal(small_ds.num_nodes)
    ds = replace(small_ds, targets=y)
    cfg = TrainConfig(epochs=400, lambda_width=0.0, seed=0)
    _, rec = q.train(ds, cfg)
    assert rec.coverage[-1] > 0.98
    assert rec.coverage[-1] == pytest.approx(0.9889, abs=2e-3)


def test_rqr_keeps_bounds_ordered(small_ds):
    cfg = TrainConfig(epochs=200, loss_kind="rqr_adj", model_variant="single",
                      seed=0)
    _, rec = q.train(small_ds, cfg)
    assert rec.crossing_rate < 0.05
    assert rec.crossing_rate == 0.0


def test_rqr_adj_under_covers_on_the_qpignn_architecture():
    """The paper keeps the architecture fixed, swaps the QpiGNN objective
    for the RQR loss, and reports that RQR collapses to 0.19 coverage on
    BA and 0.27 on Tree.  Here both objectives train the dual head: QpiGNN
    must stay near the nominal 1 - alpha, RQR-adj below half of it."""
    alpha = 0.1
    presets = ("ba", "tree")
    runs = [(dataset_preset(name, 300, 0, family="gaussian",
                            noise_sigma=1.0),
             TrainConfig(epochs=200, seed=seed, alpha=alpha, loss_kind=kind,
                         model_variant="dual"))
            for name in presets for kind in ("qpi", "rqr_adj")
            for seed in (0, 1)]
    picp = np.array([rec.reports["test"].picp
                     for _, rec in _train_all(runs, jobs=2)])
    qpi, rqr = picp.reshape(len(presets), 2, 2).mean(axis=2).T
    assert np.all(qpi >= 1 - alpha - 0.15), qpi
    assert np.all(rqr <= (1 - alpha) / 2), rqr


def test_sqr_run_produces_intervals(small_ds):
    cfg = TrainConfig(epochs=100, loss_kind="sqr", model_variant="sqr",
                      seed=0)
    _, rec = q.train(small_ds, cfg)
    rep = rec.reports["test"]
    assert np.isfinite([rep.picp, rep.mpiw, rep.winkler]).all()
    assert rep.mpiw > 0


def test_mc_dropout_intervals_come_from_sampling(small_ds):
    """The MSE trajectory logs point predictions (zero width); the final
    report still shows positive widths because they come from the MC
    dropout pass, not the loss."""
    cfg = TrainConfig(epochs=100, loss_kind="mse_mcdropout",
                      model_variant="dual", seed=0, mc_passes=30)
    _, rec = q.train(small_ds, cfg)
    assert np.all(rec.width == 0.0)
    assert rec.reports["test"].mpiw > 0


# ---------------------------------------------------------------------------
# Convergence diagnostics
# ---------------------------------------------------------------------------

def test_convergence_check_passes_on_smooth_descent(small_ds):
    cfg = TrainConfig(loss_kind="mse_only", epochs=300, dropout_p=0.0)
    _, rec = q.train(small_ds, cfg)
    chk = convergence_check(rec)
    assert chk.passed, (chk.grad_ratio, chk.note)
    assert chk.grad_ratio <= 0.25
    assert chk.loss_final <= chk.loss_first


def test_indicator_rattle_fails_decile_test_on_small_graphs(small_ds):
    """At 300 nodes each coverage flip moves the empirical rate by a
    large quantum, so the gradient-norm floor stays high relative to
    the start; the diagnostic reports that honestly (and distinguishes
    it from a flat no-descent trajectory).  Protocol-scale graphs pass;
    the acceptance suite checks those."""
    _, rec = q.train(small_ds, TrainConfig())
    chk = convergence_check(rec)
    assert not chk.passed
    assert chk.grad_ratio > 0.25
    assert chk.note == ""
    assert chk.loss_final <= chk.loss_first


def test_frozen_params_report_no_descent(small_ds):
    cfg = TrainConfig(epochs=30, lr=0.0, dropout_p=0.0, seed=0)
    _, rec = q.train(small_ds, cfg)
    chk = convergence_check(rec)
    assert chk.note == "no descent: loss trajectory is constant"
    assert not chk.passed


# ---------------------------------------------------------------------------
# Lambda selection
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tune_ds():
    return q.synth_dataset(q.gen_er(400, 8 / 399, seed=5), "gaussian", 8,
                           0.5, seed=5)


def test_sweep_and_width_trend_flag(small_ds):
    cfg = TrainConfig(epochs=60, seed=0)
    res = lambda_sweep(small_ds, cfg, grid=(0.1, 0.5))
    assert [e.lambda_width for e in res.entries] == [0.1, 0.5]
    assert res.chosen in (0.1, 0.5)
    assert res.objective == min(e.objective for e in res.entries)
    inverted = res.entry(0.1).test.mpiw < res.entry(0.5).test.mpiw
    assert bool(res.flags) == inverted
    with pytest.raises(ParameterError):
        lambda_sweep(small_ds, cfg, grid=())


def test_sweep_is_job_count_invariant(small_ds):
    cfg = TrainConfig(epochs=60, seed=0)
    a = lambda_sweep(small_ds, cfg, grid=(0.1, 0.5), jobs=1)
    b = lambda_sweep(small_ds, cfg, grid=(0.1, 0.5), jobs=2)
    assert a.chosen == b.chosen
    assert [e.objective for e in a.entries] == [e.objective for e in b.entries]


@pytest.fixture(scope="module")
def grid_ds():
    """A 100-node grid: structured enough for every split strategy."""
    return dataset_preset("grid", 100, 1, family="gaussian", noise_sigma=0.5)


def _plain(x):
    """A suite result as nested dicts, lists and arrays, so that
    ``np.testing.assert_equal`` compares every value exactly."""
    if dataclasses.is_dataclass(x):
        x = vars(x)
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


TINY = TrainConfig(epochs=4, hidden=8, seed=0)

SUITES = {
    "sweep": lambda ds, j: lambda_sweep(ds, TINY, grid=(0.1, 0.5), jobs=j),
    "tune": lambda ds, j: lambda_tune(ds, TINY, budget=5, jobs=j),
    "ablate": lambda ds, j: ablation_suite(ds, TINY, seeds=(0, 1), jobs=j),
    "robust": lambda ds, j: robustness_suite(ds, TINY, jobs=j),
    "splits": lambda ds, j: split_experiment(ds, TINY, jobs=j),
    "shift": lambda ds, j: shift_matrix(cfg=TINY, nodes=60, runs=2, jobs=j),
}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_every_suite_is_job_count_invariant(suite, grid_ds, monkeypatch,
                                            no_kept_pool):
    run = SUITES[suite]
    serial = run(grid_ds, 1)

    pools = []
    real_pool = q.harness.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs.get("max_workers"))
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(q.harness, "ProcessPoolExecutor", counting_pool)
    pooled = run(grid_ds, 2)
    np.testing.assert_equal(_plain(pooled), _plain(serial))
    assert set(pools) == {2}, "jobs=2 ran a batch without two workers"
    assert len(pools) == 1, "a suite's batches did not share one pool"


def test_single_item_runs_inline(small_ds, monkeypatch, no_kept_pool):
    cfg = TrainConfig(epochs=3, hidden=8, seed=0)
    serial = lambda_sweep(small_ds, cfg, grid=(0.1,), jobs=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-item map started a process pool")

    monkeypatch.setattr(q.harness, "ProcessPoolExecutor", no_pool)
    inline = lambda_sweep(small_ds, cfg, grid=(0.1,), jobs=2)
    assert inline == serial


# Trains a batch through the runner and prints one digest of its records:
# a 1300-node run (five 256-row blocks and a ragged 20) and a hidden-128
# run, whose 128x128 weight gradient is long enough for a threaded ddot.
_DIGEST_SCRIPT = """
import hashlib, sys
import numpy as np
import qpignn as q
from qpignn.harness import TrainConfig, _train_all
runs = []
for n, hidden in ((1300, 64), (600, 128)):
    g = q.gen_er(n, 8 / (n - 1), seed=1)
    runs.append((q.synth_dataset(g, "gaussian", 8, 1.0, seed=1),
                 TrainConfig(epochs=5, hidden=hidden, seed=0)))
h = hashlib.sha256()
for _, rec in _train_all(runs, int(sys.argv[1])):
    for arr in (rec.coverage, rec.width, rec.loss, rec.grad_norm,
                rec.violation):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(sorted(rec.reports.items())).encode())
print(h.hexdigest())
"""


def _python_env(**extra) -> dict:
    """The environment for a Python subprocess that imports this qpignn."""
    src = str(Path(q.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_records_do_not_depend_on_blas_threads_or_jobs():
    digests = {}
    for threads in ("1", "2"):
        env = _python_env(OPENBLAS_NUM_THREADS=threads)
        for jobs in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", _DIGEST_SCRIPT, jobs], env=env,
                check=True, capture_output=True, text=True).stdout
            digests[threads, jobs] = out.strip()
    assert len(set(digests.values())) == 1, digests


def _blas_threads(ds, cfg):
    """Stands in for ``train`` in a pool: after a BLAS product, the
    worker's BLAS threads and OS threads (None without ``/proc``)."""
    np.ones((300, 300)) @ np.ones((300, 300))
    tasks = "/proc/self/task"
    return (q.diffkit._openblas().scipy_openblas_get_num_threads64_(),
            len(os.listdir(tasks)) if os.path.isdir(tasks) else None)


def test_pool_workers_run_one_blas_thread(monkeypatch, no_kept_pool):
    lib = q.diffkit._openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's OpenBLAS is not loaded")
    before = lib.scipy_openblas_get_num_threads64_()
    monkeypatch.setattr(q.harness, "train", _blas_threads)
    # One OS thread: no idle OpenBLAS helper spins beside the worker.
    one = 1 if os.path.isdir("/proc/self/task") else None
    assert q.harness._train_all([(None, None)] * 2, jobs=2) == [(1, one)] * 2
    assert lib.scipy_openblas_get_num_threads64_() == before


def _worker_pid(ds, cfg):
    """Stands in for ``train`` in a pool: the worker's pid.  A ``"raise"``
    config raises, and a ``"die"`` config ends the worker."""
    if cfg == "raise":
        raise ValueError("a run failed")
    if cfg == "die":
        os._exit(1)
    return os.getpid()


def _workers() -> set[int]:
    return {p.pid for p in multiprocessing.active_children()}


def test_batches_share_one_kept_pool(monkeypatch, no_kept_pool):
    monkeypatch.setattr(q.harness, "train", _worker_pid)
    runs = [(None, None)] * 4
    first = q.harness._train_all(runs, jobs=2)
    workers = _workers()
    assert len(workers) == 2 and set(first) <= workers
    second = q.harness._train_all(runs, jobs=2)
    assert _workers() == workers and set(second) <= workers
    # A forked child never uses its parent's pool.
    child = os.fork()
    if child == 0:
        os._exit(0 if q.harness._kept_pool is None else 1)
    assert os.waitstatus_to_exitcode(os.waitpid(child, 0)[1]) == 0
    # Another worker count replaces the pool.
    third = q.harness._train_all(runs, jobs=3)
    assert len(_workers()) == 3 and not _workers() & workers
    assert set(third) <= _workers()


@pytest.mark.parametrize("failure, error", [("raise", ValueError),
                                            ("die", BrokenProcessPool)])
def test_a_failed_batch_leaves_the_next_one_working(failure, error,
                                                    monkeypatch, no_kept_pool):
    monkeypatch.setattr(q.harness, "train", _worker_pid)
    q.harness._train_all([(None, None)] * 2, jobs=2)
    before = _workers()
    with pytest.raises(error):
        q.harness._train_all([(None, None), (None, failure)], jobs=2)
    assert q.harness._kept_pool is None and not _workers()
    after = q.harness._train_all([(None, None)] * 2, jobs=2)
    assert set(after) <= _workers() and not _workers() & before


def test_a_batch_from_another_thread_keeps_no_pool(monkeypatch,
                                                   no_kept_pool):
    monkeypatch.setattr(q.harness, "train", _worker_pid)
    runs = [(None, None)] * 2
    thread = threading.Thread(target=q.harness._train_all, args=(runs, 2))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    # Its workers would die with the thread: none is kept or left.
    assert q.harness._kept_pool is None and not _workers()
    assert set(q.harness._train_all(runs, jobs=2)) <= _workers()


def _parent_thread_ticks() -> dict[str, int]:
    """CPU clock ticks (user + system) of each of the parent's threads."""
    task = f"/proc/{os.getppid()}/task"
    ticks = {}
    for tid in os.listdir(task):
        try:
            with open(f"{task}/{tid}/stat") as stat:
                fields = stat.read().rpartition(")")[2].split()
        except OSError:  # the thread ended
            continue
        ticks[tid] = int(fields[11]) + int(fields[12])
    return ticks


def _parent_spin(ds, cfg):
    """Stands in for ``train`` in a pool: the most CPU ticks any parent
    thread gains over 100 ms while the parent waits on this run."""
    before = _parent_thread_ticks()
    time.sleep(0.1)
    after = _parent_thread_ticks()
    return max(after[t] - before[t] for t in after.keys() & before.keys())


def test_parent_does_not_spin_while_its_workers_train(monkeypatch,
                                                      no_kept_pool):
    lib = q.diffkit._openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        pytest.skip("numpy's OpenBLAS is not loaded")
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to read thread CPU times from")
    if lib.scipy_openblas_get_num_threads64_() < 2:
        pytest.skip("one BLAS thread starts no helper to spin")
    monkeypatch.setattr(q.harness, "train", _parent_spin)
    # OpenBLAS shuts its thread server down before a fork, so only a
    # batch on a kept pool can find it running.
    q.harness._train_all([(None, None)] * 2, jobs=2)
    a = np.ones((500, 500))
    a @ a  # a threaded product: OpenBLAS's idle helper busy-waits after it
    # A spinning thread gains about 10 ticks in 100 ms (at 100 Hz).
    gained = q.harness._train_all([(None, None)] * 2, jobs=2)
    assert max(gained) <= 3, gained


# Under the default start method named by its argument, trains one
# pooled batch, prints its kept workers' pids, then waits to be killed.
_KEPT_POOL_SCRIPT = """
import multiprocessing, sys, time
import qpignn as q
from qpignn.harness import TrainConfig, _train_all
multiprocessing.set_start_method(sys.argv[1])
ds = q.dataset_preset("er", 40, 0)
_train_all([(ds, TrainConfig(epochs=1, hidden=4, seed=s)) for s in (0, 1)], 2)
print(*(p.pid for p in multiprocessing.active_children()), flush=True)
time.sleep(60)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the parent-death signal is Linux's")
# Python 3.14 made forkserver the default; the pool forks its workers
# itself under either.
@pytest.mark.parametrize("start_method", ["fork", "forkserver"])
def test_a_killed_parent_takes_its_workers_with_it(start_method):
    with subprocess.Popen([sys.executable, "-c", _KEPT_POOL_SCRIPT,
                           start_method],
                          env=_python_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            workers = [int(pid) for pid in proc.stdout.readline().split()]
        finally:
            proc.kill()
    assert len(workers) == 2
    deadline = time.monotonic() + 5.0
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in workers if _running(pid)]
    for pid in left:  # do not leak them when the test fails
        os.kill(pid, 9)
    assert not left, "workers outlived their killed parent"


def test_tune_beats_coarse_grid(tune_ds):
    cfg = TrainConfig(epochs=150, seed=0)
    res = lambda_tune(tune_ds, cfg, budget=9)
    assert len(res.entries) <= 9
    assert res.chosen == pytest.approx(0.0824, abs=1e-3)
    assert res.objective == pytest.approx(3.2982, abs=5e-3)
    # the refined choice is no worse than either plain grid anchor
    ref = lambda_sweep(tune_ds, cfg, grid=(0.1, 0.5))
    assert res.objective <= ref.entry(0.1).objective
    assert res.objective <= ref.entry(0.5).objective
    for bounds in ((0.5, 0.1), (0.1, float("inf")), (float("nan"), 0.5)):
        with pytest.raises(ParameterError):
            lambda_tune(tune_ds, cfg, bounds=bounds)
    with pytest.raises(ParameterError):
        lambda_tune(tune_ds, cfg, budget=2)


# ---------------------------------------------------------------------------
# Experiment suites
# ---------------------------------------------------------------------------

def test_ablation_table_structure(small_ds):
    cfg = TrainConfig(epochs=50)
    rows = ablation_suite(small_ds, cfg, seeds=(0, 1))
    assert [r["setting"] for r in rows] == [s[0] for s in ABLATION_SETTINGS]
    by_name = {r["setting"]: r for r in rows}
    assert by_name["coverage_only"]["lambda_width"] == 0.0
    assert by_name["full"]["lambda_width"] == cfg.lambda_width
    for r in rows:
        assert r["n_seeds"] == 2 and len(r["per_seed"]) == 2
        picps = [rep.picp for rep in r["per_seed"]]
        assert r["picp_mean"] == pytest.approx(np.mean(picps))
        assert r["picp_std"] == pytest.approx(np.std(picps))
        assert "cwc_mean" in r and "winkler_std" in r


@pytest.fixture(scope="module")
def robust_ds():
    return q.synth_dataset(q.gen_er(300, 8 / 299, seed=9), "gaussian", 8,
                           0.3, seed=9)


def test_robustness_trends(robust_ds):
    cfg = TrainConfig(epochs=200, seed=0)
    rows = robustness_suite(robust_ds, cfg,
                            levels={"target_noise": (0.1, 0.2, 0.3),
                                    "edge_dropout": (0.1, 0.2)})
    base = [r for r in rows if r["level"] == 0.0]
    assert len(base) == 2
    assert base[0]["picp"] == base[1]["picp"]  # shared clean run
    assert base[0]["coverage_retention"] == 1.0
    assert base[0]["width_growth"] == 1.0

    tn = [r for r in rows if r["kind"] == "target_noise"]
    assert [r["level"] for r in tn] == [0.0, 0.1, 0.2, 0.3]
    widths = [r["mpiw"] for r in tn]
    assert widths[0] == pytest.approx(2.830, abs=5e-3)
    assert widths[-1] == pytest.approx(3.058, abs=5e-3)
    steps_up = sum(b >= a for a, b in zip(widths, widths[1:]))
    assert steps_up >= 2  # widths track the injected noise

    ed = [r for r in rows if r["kind"] == "edge_dropout"]
    for r in ed:
        assert r["picp"] == pytest.approx(11 / 12, abs=1e-9)
        assert r["coverage_retention"] == pytest.approx(1.0)


@pytest.mark.parametrize("levels", [
    # two perturbations with different seeds under one label
    {"target_noise": (0.1, 0.1)},
    {"edge_dropout": (0.2, 0.1, 0.2)},
    # a second copy of the shared unperturbed row
    {"target_noise": (0.0, 0.1)},
])
def test_robustness_refuses_repeated_levels(levels, small_ds, monkeypatch):
    def no_training(*_):
        raise AssertionError("trained before the levels were checked")
    monkeypatch.setattr(q.harness, "_train_all", no_training)
    with pytest.raises(ParameterError):
        robustness_suite(small_ds, TrainConfig(epochs=1), levels=levels)


def test_split_strategies_er(small_ds):
    ds = q.synth_dataset(q.gen_er(600, 8 / 599, seed=7), "gaussian", 8,
                         0.5, seed=7)
    cfg = TrainConfig(epochs=300, seed=0)
    rows = split_experiment(ds, cfg, kinds=("random", "degree"))
    by = {r["kind"]: r for r in rows}
    assert by["random"]["picp"] == pytest.approx(0.9000, abs=1e-9)
    assert by["degree"]["picp"] == pytest.approx(11 / 12, abs=1e-9)
    for r in rows:
        assert r["train_size"] + r["val_size"] + r["test_size"] == 600
    with pytest.raises(ParameterError):
        split_experiment(ds, cfg, kinds=("random",))


def test_split_strategies_need_structure_for_community():
    ds = dataset_preset("grid", 400, 13, family="gaussian", noise_sigma=0.5)
    cfg = TrainConfig(epochs=200, seed=0)
    rows = split_experiment(ds, cfg, kinds=("random", "degree", "community"))
    by = {r["kind"]: r for r in rows}
    assert by["random"]["picp"] == pytest.approx(0.9000, abs=1e-9)
    assert by["degree"]["picp"] == pytest.approx(0.9375, abs=1e-9)
    assert by["community"]["picp"] == pytest.approx(0.9375, abs=1e-9)


def test_dataset_preset_validation():
    with pytest.raises(ParameterError):
        dataset_preset("hypercube", 100, 0)
    with pytest.raises(ParameterError):
        dataset_preset("er", 1, 0)
    for name, nodes in (("grid", -5), ("tree", 0)):
        with pytest.raises(ParameterError, match="nodes"):
            dataset_preset(name, nodes, 0)
    g = dataset_preset("tree", 100, 0)
    assert g.num_nodes == 127  # smallest full binary tree covering 100


@pytest.mark.slow
def test_shift_matrix_diagonal_advantage():
    """Training family should cover itself at least as well as foreign
    families cover it, on average."""
    m = shift_matrix(jobs=2)
    assert m.families == ("er", "ba")
    assert m.picp.shape == (2, 2) and m.runs == 10
    for j in range(2):
        col = m.picp[:, j]
        off = np.delete(col, j).mean()
        assert m.picp[j, j] >= off - 1e-9
    assert np.all(m.mpiw > 0)
    with pytest.raises(ParameterError):
        shift_matrix(families=("er",))


# ---------------------------------------------------------------------------
# Experiment CSV assembly
# ---------------------------------------------------------------------------

def test_experiment_csv_layout(tmp_path):
    """The run table's trailing free-text columns, written by the CLI."""
    row = _run_row(_report(), "r", "d", "m", 0.1, 0, "robust",
                   kind="edge_dropout", level="0.2")
    args = argparse.Namespace(out=str(tmp_path), format="csv",
                              no_timestamp=True)
    _write_outputs(args, "unused", runs=(RUN_COLUMNS, [row]))
    with open(tmp_path / "runs.csv", newline="") as fh:
        hdr, cells = csv.reader(fh)
    assert tuple(hdr[:len(RUN_KEYS)]) == RUN_KEYS
    assert hdr[len(RUN_KEYS):] == ["experiment", "kind", "level",
                                   "source_family", "target_family"]
    assert len(cells) == len(hdr)
    assert cells[-5:] == ["robust", "edge_dropout", "0.2", "", ""]
