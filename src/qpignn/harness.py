"""Training loops, lambda tuning, experiment suites, and theory checks.

Everything here is deterministic given the seeds in the configs: runs
derive their per-epoch randomness from (seed, tag, index) streams, and
experiment tables are aggregated in sorted key order, so a table is a
pure function of its inputs regardless of `jobs`.  Every sweep and
suite builds its list of (dataset, config) runs and trains it through
one runner, `_train_all`, inline or on the process's one pool of `jobs`
workers of one BLAS thread each.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import numbers
import os
import signal
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import ndtr, ndtri

from . import diffkit as dk
from .errors import ContractError, ParameterError, TrainingError
from .graphcore import (DEFAULT_RATIOS, SPLIT_KINDS, Dataset, PerturbSpec,
                        SplitSpec, gen_ba, gen_chain, gen_er, gen_grid,
                        gen_tree, perturb, split, synth_dataset)
from .losses import (WIDTH_NORMS, mse_loss, pinball_loss, qpi_total_loss,
                     rqr_adj_loss, sqr_taus, width_loss)
from .metrics import METRIC_FIELDS, MetricsReport, interval_stats, report
from .model import (IntervalSet, Model, ModelConfig, forward_intervals,
                    init_model, mc_dropout_interval, sqr_forward)
from .optim import AdamState, adam_step, grad_norm
from .rng import derive_seed, keyed_rng

# Variants each loss kind may train, its default first.  The interval
# losses run on any of the interval heads; the quantile and baseline
# losses are tied to the architecture they parameterize.
ALLOWED_VARIANTS = {
    "qpi": ("dual", "fixed_margin", "single"),
    "width_only": ("dual", "fixed_margin", "single"),
    "mse_only": ("dual", "fixed_margin", "single"),
    "sqr": ("sqr",),
    "rqr_adj": ("single", "dual", "fixed_margin"),
    "mse_mcdropout": ("dual",),
}

DEFAULT_LAMBDA_GRID = (0.05, 0.1, 0.3, 0.5, 0.8, 1.2)
DEFAULT_TUNE_BOUNDS = (0.05, 1.0)
COVERAGE_PENALTY_WEIGHT = 10.0
RQR_LAMBDA = 1.0       # RQR-adj's width weight
RQR_GAMMA_ORDER = 1.0  # and its crossing-penalty weight

SHIFT_FAMILIES = ("er", "ba")
SHIFT_LAMBDA = 0.5

GRAPH_PRESETS = ("er", "ba", "grid", "chain", "tree")


# ---------------------------------------------------------------------------
# Configuration and records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    The first block mirrors the published protocol (500 epochs, Adam at
    lr 1e-3 with weight decay 1e-3, alpha = 0.1).  The second block is
    ours: dropout 0.2 and a 1/sqrt(t) step-size decay are on by default
    because the joint loss is piecewise smooth and full-batch Adam at a
    constant step keeps rattling between the indicator's facets instead
    of settling; the decay anneals that rattle and closes most of the
    train/test coverage gap on desk-scale graphs.
    """

    epochs: int = 500
    lr: float = 1e-3
    weight_decay: float = 1e-3
    alpha: float = 0.1
    lambda_width: float = 0.05
    seed: int = 0
    model_variant: str = "dual"
    loss_kind: str = "qpi"
    dropout_p: float = 0.2

    hidden: int = 64
    sqrt_lr_decay: bool = True
    width_norm: str = "l1"
    smooth_coverage: bool = False
    mc_passes: int = 100

    def __post_init__(self):
        for name, least in (("epochs", 1), ("mc_passes", 2)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < least:
                raise ParameterError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if not isinstance(self.seed, numbers.Integral):
            raise ParameterError(f"seed must be an integer, got {self.seed!r}")
        # The chained range checks also reject NaN, which fails every
        # comparison, and infinity.
        for name in ("lr", "weight_decay", "lambda_width"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ParameterError(f"{name} must be finite and >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
        if self.width_norm not in WIDTH_NORMS:
            raise ParameterError(f"width_norm must be one of {WIDTH_NORMS}")
        if self.loss_kind not in ALLOWED_VARIANTS:
            raise ParameterError(f"unknown loss_kind {self.loss_kind!r}")
        allowed = ALLOWED_VARIANTS[self.loss_kind]
        if self.model_variant not in allowed:
            raise ContractError(
                f"loss_kind {self.loss_kind!r} cannot train model_variant "
                f"{self.model_variant!r}; it trains {', '.join(allowed)}")
        self.model_config(1)  # hidden and dropout_p
        if self.loss_kind == "mse_mcdropout" and self.dropout_p == 0.0:
            # Every MC pass would be the same point: a zero-width interval.
            raise ParameterError("mse_mcdropout needs dropout_p > 0")

    def model_config(self, in_dim: int) -> ModelConfig:
        return ModelConfig(in_dim=in_dim, hidden=self.hidden,
                           variant=self.model_variant,
                           dropout_p=self.dropout_p)


@dataclass(frozen=True)
class RunRecord:
    """Per-epoch trajectories plus final per-mask metric reports."""

    coverage: np.ndarray
    width: np.ndarray
    loss: np.ndarray
    grad_norm: np.ndarray
    violation: np.ndarray
    reports: dict[str, MetricsReport]
    crossing_rate: float
    config: TrainConfig

    # The per-epoch array fields, in order.
    TRAJECTORIES = ("coverage", "width", "loss", "grad_norm", "violation")

    def __post_init__(self):
        for name in self.TRAJECTORIES:
            arr = getattr(self, name)
            if arr.shape != (self.config.epochs,):
                raise ContractError(
                    f"RunRecord.{name} has shape {arr.shape}, expected "
                    f"({self.config.epochs},)")


@dataclass(frozen=True)
class SweepEntry:
    lambda_width: float
    val: MetricsReport
    test: MetricsReport
    objective: float


@dataclass(frozen=True)
class SweepResult:
    """All evaluated lambda values, ordered by lambda, plus the winner."""

    entries: tuple[SweepEntry, ...]
    chosen: float
    objective: float
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if not any(e.lambda_width == self.chosen for e in self.entries):
            raise ContractError("chosen lambda is not among the entries")

    def entry(self, lam: float) -> SweepEntry:
        for e in self.entries:
            if e.lambda_width == lam:
                return e
        raise KeyError(lam)


@dataclass(frozen=True)
class ShiftMatrix:
    """Cross-family transfer table: train on row family, evaluate on column."""

    families: tuple[str, ...]
    picp: np.ndarray
    mpiw: np.ndarray
    lambda_width: float
    runs: int

    def __post_init__(self):
        k = len(self.families)
        if k < 2:
            raise ParameterError("shift matrix needs at least 2 families")
        if self.picp.shape != (k, k) or self.mpiw.shape != (k, k):
            raise ContractError("shift matrix arrays must be square over families")


@dataclass(frozen=True)
class ConvergenceReport:
    passed: bool
    grad_first: float
    grad_last: float
    grad_ratio: float
    loss_first: float
    loss_final: float
    note: str


@dataclass(frozen=True)
class ConcentrationReport:
    cover_prob: float
    epsilon: float
    exceed_fraction: float
    exceed_allowed: float
    stds: dict[int, float]
    std_ratios: tuple[float, ...]
    passed: bool
    note: str


# ---------------------------------------------------------------------------
# Single-run training
# ---------------------------------------------------------------------------

def _epoch_loss(model: Model, ds: Dataset, cfg: TrainConfig, ep: int):
    """Build one epoch's loss node on the epoch's one tape.

    Returns (node, stats) where ``node.tape`` is the epoch's tape and
    stats carries the float values for the RunRecord arrays.
    Coverage/width/violation are recorded for the train mask from
    whatever intervals the loss kind provides; MSE kinds record the
    degenerate point interval so the trajectory makes the absence of
    interval training visible.
    """
    y, mask = ds.targets, ds.train_mask
    ep_seed = derive_seed(cfg.seed, "epoch", ep)
    tape = dk.Tape()

    if cfg.loss_kind == "sqr":
        # Trains q(tau) at fresh levels; records [q(alpha/2), q(1 - alpha/2)].
        tau = sqr_taus(ds.num_nodes, ep_seed)
        yhat = sqr_forward(ds.graph, ds.features, tau,
                           model.params.leaves(tape), model.config.dropout_p,
                           ep_seed)
        iv = forward_intervals(model, ds.graph, ds.features, alpha=cfg.alpha)
    else:
        iv = forward_intervals(model, ds.graph, ds.features, tape=tape,
                               seed=ep_seed, alpha=cfg.alpha)
    if cfg.loss_kind in ("mse_only", "mse_mcdropout"):
        center = dk.scale(dk.add(iv.low, iv.up), 0.5)
        iv = IntervalSet(center, center)

    st = interval_stats(iv, y, mask)
    # The epoch's one masked bound pair, which every interval loss reads.
    low = dk.masked_select(iv.low, st.mask)
    up = dk.masked_select(iv.up, st.mask)
    if cfg.loss_kind == "qpi":
        node = qpi_total_loss(low, up, st, cfg.alpha, cfg.lambda_width,
                              cfg.width_norm, cfg.smooth_coverage).node
    elif cfg.loss_kind == "width_only":
        # Coverage terms off: only the width penalty reaches the tape.
        node = dk.scale(width_loss(low, up, cfg.width_norm), cfg.lambda_width)
    elif cfg.loss_kind == "rqr_adj":
        # Aims at coverage cfg.alpha, the miscoverage; RQR's own 1 - cfg.alpha
        # would change every RQR-adj output.
        node = rqr_adj_loss(low, up, st, cfg.alpha, RQR_LAMBDA,
                            RQR_GAMMA_ORDER)
    elif cfg.loss_kind in ("mse_only", "mse_mcdropout"):
        node = mse_loss(low, st.y)
    else:  # "sqr"; TrainConfig refuses any other kind
        node = pinball_loss(st.y, dk.masked_select(yhat, st.mask),
                            tau[st.mask])
    return node, dict(coverage=st.coverage, width=float(st.width.mean()),
                      loss=node.item(), violation=float(st.violation.mean()))


def mc_scoring(cfg: TrainConfig) -> dict | None:
    """The pass count and seed with which MC dropout scores the model of
    ``cfg``'s run; None for a run scored by its model's heads."""
    if cfg.loss_kind != "mse_mcdropout":
        return None
    return {"passes": cfg.mc_passes, "seed": derive_seed(cfg.seed, "mc-final")}


def score_intervals(model: Model, graph, x: np.ndarray, alpha: float,
                    mc: dict | None = None) -> IntervalSet:
    """A trained model's intervals: MC dropout under the ``mc_scoring``
    settings ``mc``, or the model's own heads when ``mc`` is None."""
    if mc is None:
        return forward_intervals(model, graph, x, alpha=alpha)
    return mc_dropout_interval(graph, x, model, passes=mc["passes"],
                               dropout_p=model.config.dropout_p,
                               t_mult=gaussian_optimal_halfwidth(1.0, alpha),
                               seed=mc["seed"])


def _final_intervals(model: Model, ds: Dataset, cfg: TrainConfig) -> IntervalSet:
    return score_intervals(model, ds.graph, ds.features, cfg.alpha,
                           mc_scoring(cfg))


def train(ds: Dataset,
          cfg: TrainConfig | None = None) -> tuple[Model, RunRecord]:
    """Full-batch training of any loss kind: forward, loss, backward, Adam.

    The joint interval loss, its ablations and RQR-adj train the
    interval heads; SQR and MSE+MC-dropout train the architecture each
    is tied to, as ``TrainConfig`` enforces.  Epoch ``ep`` steps Adam
    by ``cfg.lr``, divided by sqrt(ep + 1) under ``cfg.sqrt_lr_decay``.
    """
    cfg = cfg or TrainConfig()
    model = init_model(cfg.model_config(ds.feat_dim), cfg.seed)
    state = AdamState.for_params(model.params)

    # One trajectory per RunRecord array field, filled epoch by epoch.
    traj = {name: np.zeros(cfg.epochs) for name in RunRecord.TRAJECTORIES}
    for ep in range(cfg.epochs):
        node, stats = _epoch_loss(model, ds, cfg, ep)
        if not math.isfinite(stats["loss"]):
            raise TrainingError("loss became non-finite", epoch=ep,
                                diagnostics=stats)
        dk.backward(node.tape, node)
        stats["grad_norm"] = grad_norm(model.params)
        if not math.isfinite(stats["grad_norm"]):  # before Adam spreads it
            raise TrainingError(f"gradient norm {stats['grad_norm']} at "
                                f"epoch {ep} is not finite", epoch=ep,
                                diagnostics=stats)
        lr = cfg.lr / np.sqrt(ep + 1) if cfg.sqrt_lr_decay else cfg.lr
        adam_step(model.params, state, lr, cfg.weight_decay)
        # The loss node holds the last reference to the epoch's tape, so
        # the tape and every array it holds are freed here, before the
        # next forward pass.
        del node
        for name, arr in traj.items():
            arr[ep] = stats[name]

    iv = _final_intervals(model, ds, cfg)
    reports = {name: report(iv, ds.targets, mask, cfg.alpha)
               for name, mask in sorted(ds.masks().items())}
    rec = RunRecord(**traj, reports=reports,
                    crossing_rate=iv.crossing_rate(), config=cfg)
    return model, rec


# An alias of ``train``.  It stays only because ``perfbench/spans.py``
# wraps it and ``perfbench/pipeline.py`` calls it, until perfbench
# wraps ``train`` itself.
train_qpignn = train


# ---------------------------------------------------------------------------
# Lambda selection
# ---------------------------------------------------------------------------

def selection_objective(val: MetricsReport, alpha: float) -> float:
    """Width plus a steep penalty for missing the coverage target."""
    return val.mpiw + COVERAGE_PENALTY_WEIGHT * max(0.0, (1.0 - alpha) - val.picp)


def _stop_blas_server() -> None:
    """Shut down this process's OpenBLAS thread server, whose idle helper
    busy-waits after a threaded call until OpenBLAS's idle timeout.  The
    next threaded call starts it again."""
    lib = dk._openblas()
    if lib is not None:
        lib.blas_thread_shutdown_()


_PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>


def _worker_start(parent: int) -> None:
    """Pool initializer: tie this worker to ``parent``'s life and run it
    on one OS thread.

    The pool outlives its batches, so a killed parent would leave its
    workers behind.  On Linux the worker asks for SIGTERM when the
    thread that forked it ends, and exits if ``parent`` is already gone.

    Workers would otherwise inherit the parent's BLAS threads, and on
    two cores two such workers ran four threads and were slower than
    training inline.  Setting one thread starts OpenBLAS's thread
    server, so it is shut down again; at one thread it never gets work,
    so it does not come back.  No output bit depends on the thread
    count, so without the library this only leaves the worker slower.
    """
    if sys.platform == "linux":
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG,
                                ctypes.c_ulong(signal.SIGTERM))
        if os.getppid() != parent:
            os._exit(0)
    lib = dk._openblas()
    if lib is not None:
        lib.scipy_openblas_set_num_threads64_(1)
    _stop_blas_server()


# The worker pool this process keeps between batches, as (workers,
# pool).  One batch uses it at a time.
_kept_pool: tuple[int, ProcessPoolExecutor] | None = None
_pool_lock = threading.Lock()


def _forget_parent_pool() -> None:
    """In a forked child: the parent's pool and lock are not its own."""
    global _kept_pool, _pool_lock
    _kept_pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_parent_pool)


def _close_pool() -> None:
    """Shut down the kept pool, cancelling its queued runs, and forget it."""
    global _kept_pool
    kept, _kept_pool = _kept_pool, None
    if kept is not None:
        kept[1].shutdown(cancel_futures=True)


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The kept pool of ``workers`` processes, made if there is none.

    A pool of another size is replaced.  At exit, ``concurrent.futures``'
    own hook joins the workers.  On Linux the workers are forked by this
    process whatever the default start method (Python 3.14 made it
    ``forkserver``), since ``_worker_start`` ties them to their parent.
    """
    global _kept_pool
    if _kept_pool is not None and _kept_pool[0] != workers:
        _close_pool()
    if _kept_pool is None:
        _kept_pool = (workers, ProcessPoolExecutor(
            max_workers=workers, initializer=_worker_start,
            initargs=(os.getpid(),),
            mp_context=(multiprocessing.get_context("fork")
                        if sys.platform == "linux" else None)))
    return _kept_pool[1]


def _train_all(runs: list, jobs: int) -> list[tuple[Model, RunRecord]]:
    """``[train(ds, cfg) for ds, cfg in runs]``, on up to ``jobs`` worker
    processes of one BLAS thread each.

    Every suite trains through this one call with its whole batch.  One
    worker or one run trains inline, since a pool would only add its
    start-up and transfers.  Otherwise the batch goes to the pool this
    process keeps, which saves each later batch about 10 ms of pool
    start and each worker's first-run page faults.  The parent's BLAS
    server is stopped first, so that it does not spin while the parent
    waits.  A batch that raises (a dead worker too) shuts the pool down,
    so the next batch starts a clean one, and so does a batch run from
    a thread other than the main one: the workers it forks die with
    that thread (``_worker_start``), and one that missed the signal
    could wait forever on a queue lock its dead sibling held.  Each run
    ships its own dataset: pickling one costs under a millisecond even
    at 20k nodes, against about 100 ms for a pooled training run.
    """
    if jobs < 1:
        raise ParameterError("jobs must be >= 1")
    workers = min(jobs, len(runs))
    if workers <= 1:
        return [train(ds, cfg) for ds, cfg in runs]
    with _pool_lock:
        pool = _worker_pool(workers)
        _stop_blas_server()
        try:
            return list(pool.map(train, *zip(*runs)))
        except BaseException:
            _close_pool()
            raise
        finally:
            if threading.current_thread() is not threading.main_thread():
                _close_pool()


def _sweep_entries(ds: Dataset, cfg: TrainConfig, lams,
                   jobs: int) -> list[SweepEntry]:
    """Train one run per width penalty in ``lams`` and score each."""
    runs = _train_all([(ds, replace(cfg, lambda_width=lam)) for lam in lams],
                      jobs)
    return [SweepEntry(lam, rec.reports["val"], rec.reports["test"],
                       selection_objective(rec.reports["val"], cfg.alpha))
            for lam, (_, rec) in zip(lams, runs)]


def _width_trend_flags(entries) -> tuple[str, ...]:
    lams = {e.lambda_width: e for e in entries}
    if 0.1 in lams and 0.5 in lams:
        if lams[0.1].test.mpiw < lams[0.5].test.mpiw:
            return ("width trend inversion: test MPIW at lambda=0.1 is below "
                    "lambda=0.5",)
    return ()


def _refuse_duplicates(values: tuple, what: str) -> None:
    """Each repeated entry would train a second run whose rows cannot be
    told apart from the first's."""
    if len(set(values)) < len(values):
        raise ParameterError(f"{what} must not repeat an entry, got {values}")


def _sweep_result(entries) -> SweepResult:
    """The entries ordered by lambda, and the winner: the lowest
    objective, ties going to the smaller lambda."""
    entries = tuple(sorted(entries, key=lambda e: e.lambda_width))
    best = min(entries, key=lambda e: (e.objective, e.lambda_width))
    return SweepResult(entries, best.lambda_width, best.objective,
                       _width_trend_flags(entries))


def lambda_sweep(ds: Dataset, cfg: TrainConfig | None = None,
                 grid=DEFAULT_LAMBDA_GRID, jobs: int = 1) -> SweepResult:
    """Train one model per grid value and pick the best by the objective."""
    cfg = cfg or TrainConfig()
    grid = tuple(float(g) for g in grid)
    if not grid:
        raise ParameterError("lambda grid must be non-empty")
    _refuse_duplicates(grid, "lambda grid")
    return _sweep_result(_sweep_entries(ds, cfg, grid, jobs))


def lambda_tune(ds: Dataset, cfg: TrainConfig | None = None,
                bounds=DEFAULT_TUNE_BOUNDS, budget: int = 9,
                jobs: int = 1) -> SweepResult:
    """Bounded scalar search for the width penalty.

    Evaluates a geometric coarse grid of up to five points across the
    bounds, then two rounds of geometric trisection inside the bracket
    around the incumbent.  The objective is the same scalarization the
    sweep uses, computed on the validation mask.  `budget` caps the
    total number of training runs.
    """
    cfg = cfg or TrainConfig()
    lo, hi = float(bounds[0]), float(bounds[1])
    if not 0.0 < lo < hi < math.inf:
        raise ParameterError("bounds must be finite and satisfy 0 < lo < hi")
    if not isinstance(budget, numbers.Integral) or budget < 3:
        raise ParameterError(f"budget must be an integer >= 3, got {budget!r}")

    evaluated: dict[float, SweepEntry] = {}

    def _eval_batch(lams):
        fresh = [l for l in lams if l not in evaluated]
        for entry in _sweep_entries(ds, cfg, fresh, jobs):
            evaluated[entry.lambda_width] = entry

    k = min(5, budget)
    ratio = hi / lo
    coarse = [lo * ratio ** (i / (k - 1)) for i in range(k)] if k > 1 else [lo]
    _eval_batch(coarse)

    for _ in range(2):
        if len(evaluated) >= budget:
            break
        lams = sorted(evaluated)
        idx = lams.index(_sweep_result(evaluated.values()).chosen)
        left = lams[idx - 1] if idx > 0 else lo
        right = lams[idx + 1] if idx + 1 < len(lams) else hi
        if right / left < 1.0 + 1e-9:
            break
        r = right / left
        probes = [left * r ** (1 / 3), left * r ** (2 / 3)]
        probes = [p for p in probes
                  if all(abs(math.log(p / q)) > 1e-9 for q in evaluated)]
        probes = probes[:max(0, budget - len(evaluated))]
        if not probes:
            break
        _eval_batch(probes)

    return _sweep_result(evaluated.values())


# ---------------------------------------------------------------------------
# Experiment suites
# ---------------------------------------------------------------------------

ABLATION_SETTINGS = (
    ("full", "dual", "qpi", None),
    ("coverage_only", "dual", "qpi", 0.0),
    ("width_only", "dual", "width_only", None),
    ("mse_only", "dual", "mse_only", None),
    ("fixed_margin", "fixed_margin", "qpi", None),
    ("single_head", "single", "qpi", None),
)


def ablation_suite(ds: Dataset, cfg: TrainConfig | None = None,
                   seeds=(0, 1, 2, 3, 4), jobs: int = 1) -> list[dict]:
    """Loss-term and architecture ablations, mean +/- std over seeds.

    Rows cover the joint loss on the dual head, its coverage-only and
    width-only reductions, a plain MSE fit of the same architecture,
    and the fixed-margin / single-head variants under the joint loss.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ParameterError("ablation needs at least one seed")
    _refuse_duplicates(seeds, "ablation seeds")
    cfg = cfg or TrainConfig()
    settings = [replace(cfg, model_variant=variant, loss_kind=loss_kind,
                        lambda_width=cfg.lambda_width if lam is None else lam)
                for _, variant, loss_kind, lam in ABLATION_SETTINGS]
    runs = _train_all([(ds, replace(setting, seed=s))
                       for setting in settings for s in seeds], jobs)
    tests = [rec.reports["test"] for _, rec in runs]
    n = len(seeds)
    rows = []
    for i, ((name, *_), setting) in enumerate(zip(ABLATION_SETTINGS, settings)):
        reports = tuple(tests[i * n:(i + 1) * n])
        row = {"setting": name, "variant": setting.model_variant,
               "loss_kind": setting.loss_kind,
               "lambda_width": setting.lambda_width, "n_seeds": n,
               "per_seed": reports}
        for f in METRIC_FIELDS:
            vals = np.array([getattr(r, f) for r in reports])
            row[f + "_mean"] = float(vals.mean())
            row[f + "_std"] = float(vals.std())
        rows.append(row)
    return rows


DEFAULT_PERTURB_LEVELS = {
    "feature_noise": (0.1, 0.3),
    "target_noise": (0.1, 0.2, 0.3),
    "edge_dropout": (0.1, 0.2),
}


def robustness_suite(ds: Dataset, cfg: TrainConfig | None = None,
                     levels: dict | None = None, jobs: int = 1) -> list[dict]:
    """Perturb, retrain, and report, with trend columns against level 0.

    The level-0 row of every kind is the one unperturbed run (trained
    once and shared), so its metrics are identical across kinds by
    construction.  Each row also carries its test ``MetricsReport``
    under ``"report"``.
    """
    cfg = cfg or TrainConfig()
    levels = levels if levels is not None else DEFAULT_PERTURB_LEVELS
    levels = {kind: tuple(float(level) for level in levels[kind])
              for kind in sorted(levels)}
    for kind, kind_levels in levels.items():
        # Level 0 is the one unperturbed run every kind shares.
        _refuse_duplicates((0.0,) + kind_levels,
                           f"the shared level 0 and the {kind} levels")
    specs = [(kind, level, derive_seed(cfg.seed, "perturb:" + kind, i))
             for kind, kind_levels in levels.items()
             for i, level in enumerate(kind_levels)]
    datasets = [ds] + [perturb(ds, PerturbSpec(kind, level, seed=pseed))
                       for kind, level, pseed in specs]
    runs = _train_all([(d, cfg) for d in datasets], jobs)
    base, *perturbed = (rec.reports["test"] for _, rec in runs)

    rows = []
    for kind in levels:
        rows.append(_robust_row(kind, 0.0, base, base))
    for (kind, level, _), rep in zip(specs, perturbed):
        rows.append(_robust_row(kind, level, rep, base))
    rows.sort(key=lambda r: (r["kind"], r["level"]))
    return rows


def _robust_row(kind: str, level: float, rep: MetricsReport,
                base: MetricsReport) -> dict:
    row = {"kind": kind, "level": level, "report": rep,
           **{f: getattr(rep, f) for f in METRIC_FIELDS}}
    row["coverage_retention"] = rep.picp / base.picp if base.picp > 0 else float("nan")
    row["width_growth"] = rep.mpiw / base.mpiw if base.mpiw > 0 else float("nan")
    return row


def dataset_preset(name: str, nodes: int, seed: int, family: str = "basic",
                   noise_sigma: float = 0.3, feat_dim: int = 8,
                   split_spec: SplitSpec | None = None) -> Dataset:
    """Synthetic dataset on one of the named graph topologies.

    `er` targets mean degree 8, `ba` attaches 4 edges per node, `grid`
    uses the most-square factorization with at least `nodes` cells,
    `tree` is binary with the smallest depth reaching `nodes`; those
    two may therefore exceed `nodes` slightly.
    """
    if not isinstance(nodes, numbers.Integral) or nodes < 1:
        raise ParameterError(f"nodes must be an integer >= 1, got {nodes!r}")
    if name == "er":
        if nodes < 2:
            raise ParameterError("er preset needs >= 2 nodes")
        g = gen_er(nodes, min(1.0, 8.0 / (nodes - 1)), seed=seed)
    elif name == "ba":
        g = gen_ba(nodes, 4, seed=seed)
    elif name == "grid":
        r = max(1, int(math.sqrt(nodes)))
        g = gen_grid(r, (nodes + r - 1) // r)
    elif name == "chain":
        g = gen_chain(nodes)
    elif name == "tree":
        depth = 1
        while 2 ** (depth + 1) - 1 < nodes:
            depth += 1
        g = gen_tree(2, depth)
    else:
        raise ParameterError(
            f"unknown graph preset {name!r}; choose from {GRAPH_PRESETS}")
    return synth_dataset(g, family, feat_dim, noise_sigma, seed=seed,
                         split_spec=split_spec)


def shift_matrix(families=SHIFT_FAMILIES, cfg: TrainConfig | None = None,
                 nodes: int = 500, runs: int = 10, data_seed: int = 11,
                 family: str = "basic", noise_sigma: float = 0.3,
                 feat_dim: int = 8, jobs: int = 1) -> ShiftMatrix:
    """Train on each graph family, evaluate on every family, average runs.

    Every cell scores the intervals ``train`` reports (MC dropout for
    ``mse_mcdropout``).  A diagonal cell is the run's own test report,
    which ``train`` made on the source dataset's held-out test nodes;
    off-diagonal cells score the whole target graph, since no mask of a
    foreign graph is privileged.  The width penalty defaults to 0.5, the
    published protocol for this table.
    """
    families = tuple(families)
    if len(families) < 2:
        raise ParameterError("shift matrix needs at least 2 families")
    _refuse_duplicates(families, "shift matrix families")
    if not isinstance(runs, numbers.Integral) or runs < 1:
        raise ParameterError(f"runs must be an integer >= 1, got {runs!r}")
    cfg = cfg or TrainConfig(lambda_width=SHIFT_LAMBDA)
    datasets = {f: dataset_preset(f, nodes, data_seed, family=family,
                                  noise_sigma=noise_sigma, feat_dim=feat_dim)
                for f in families}

    trained = _train_all([(datasets[fi], replace(cfg, seed=s))
                          for fi in families for s in range(runs)], jobs)

    k = len(families)
    picp_m = np.zeros((k, k))
    mpiw_m = np.zeros((k, k))
    for idx, (model, rec) in enumerate(trained):
        i = idx // runs
        for j, fj in enumerate(families):
            dj = datasets[fj]
            rep = rec.reports["test"] if i == j else report(
                _final_intervals(model, dj, rec.config), dj.targets,
                np.ones(dj.num_nodes, dtype=bool), cfg.alpha)
            picp_m[i, j] += rep.picp
            mpiw_m[i, j] += rep.mpiw
    picp_m /= runs
    mpiw_m /= runs
    return ShiftMatrix(families, picp_m, mpiw_m, cfg.lambda_width, runs)


def split_experiment(ds: Dataset, cfg: TrainConfig | None = None,
                     kinds=SPLIT_KINDS, ratios=DEFAULT_RATIOS,
                     jobs: int = 1) -> list[dict]:
    """Re-split one dataset by each strategy (split seed 0), retrain,
    report test metrics.

    Each row also carries its test ``MetricsReport`` under ``"report"``.
    """
    kinds = tuple(kinds)
    if len(kinds) < 2:
        raise ParameterError("split experiment needs >= 2 kinds")
    _refuse_duplicates(kinds, "split experiment kinds")
    cfg = cfg or TrainConfig()
    variants = []
    for kind in kinds:
        train_mask, val_mask, test_mask = split(
            ds.graph, SplitSpec(kind=kind, ratios=ratios))
        variants.append(replace(ds, train_mask=train_mask, val_mask=val_mask,
                                test_mask=test_mask))
    reports = [rec.reports["test"]
               for _, rec in _train_all([(d, cfg) for d in variants], jobs)]
    return [{"kind": kind, "train_size": int(d.train_mask.sum()),
             "val_size": int(d.val_mask.sum()),
             "test_size": int(d.test_mask.sum()), "report": rep,
             **{f: getattr(rep, f) for f in METRIC_FIELDS}}
            for kind, d, rep in zip(kinds, variants, reports)]


# ---------------------------------------------------------------------------
# Theory checks
# ---------------------------------------------------------------------------

def hoeffding_epsilon(n: int, delta: float) -> float:
    """Two-sided Hoeffding radius for a mean of n bounded indicators."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    return math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def mcdiarmid_prob(n: int, eps: float) -> float:
    """Bounded-differences tail bound 2 exp(-2 n eps^2)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0.0 < eps < math.inf:
        raise ParameterError("eps must be finite and > 0")
    return 2.0 * math.exp(-2.0 * n * eps * eps)


def inv_norm_cdf(p: float) -> float:
    """Quantile of the standard normal."""
    if not 0.0 < p < 1.0:
        raise ParameterError("p must lie in the open interval (0, 1)")
    return float(ndtri(p))


def gaussian_optimal_halfwidth(sigma: float, alpha: float) -> float:
    """Half-width of the narrowest symmetric interval with 1 - alpha mass."""
    if not 0.0 < sigma < math.inf:
        raise ParameterError("sigma must be finite and > 0")
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    return sigma * inv_norm_cdf(1.0 - alpha / 2.0)


def _rule_cover_prob(low: float, up: float, distribution: str) -> float:
    if up < low:
        raise ParameterError("interval rule must have low <= up")
    if distribution == "gaussian":
        return float(ndtr(up) - ndtr(low))
    if distribution == "uniform":
        return max(0.0, (min(up, 1.0) - max(low, -1.0)) / 2.0)
    raise ParameterError(f"unknown distribution {distribution!r}")


def concentration_check(interval_rule: tuple[float, float],
                        distribution: str = "gaussian", n: int = 1000,
                        trials: int = 500, delta: float = 0.05,
                        seed: int = 0,
                        sizes=(250, 1000, 4000)) -> ConcentrationReport:
    """Monte-Carlo check that empirical coverage concentrates at its mean.

    The rule is a fixed (low, up) interval so its per-draw coverage
    probability is known in closed form; learned intervals would
    confound the test.  Two assertions: the fraction of trials whose
    coverage estimate leaves the Hoeffding radius stays below 1.5x
    delta, and the estimate's std shrinks like 1/sqrt(N) across the
    size ladder (halving within +/-20% per quadrupling).
    """
    if trials < 2:
        raise ParameterError("trials must be >= 2")
    low, up = float(interval_rule[0]), float(interval_rule[1])
    p = _rule_cover_prob(low, up, distribution)
    eps = hoeffding_epsilon(n, delta)

    def _coverages(size: int) -> np.ndarray:
        rng = keyed_rng(seed, f"conc:{distribution}", size)
        if distribution == "gaussian":
            draws = rng.normal(0.0, 1.0, size=(trials, size))
        else:
            draws = rng.uniform(-1.0, 1.0, size=(trials, size))
        return ((draws >= low) & (draws <= up)).mean(axis=1)

    chat = _coverages(n)
    exceed = float((np.abs(chat - p) > eps).mean())
    allowed = 1.5 * delta

    stds = {int(s): float(_coverages(int(s)).std()) for s in sizes}
    ratios = []
    degenerate = all(v == 0.0 for v in stds.values())
    ordered = sorted(stds)
    for a, b in zip(ordered, ordered[1:]):
        if b == 4 * a and stds[a] > 0.0:
            ratios.append(stds[b] / stds[a])
    scaling_ok = degenerate or all(0.4 <= r <= 0.6 for r in ratios)

    note = ""
    if degenerate:
        note = "degenerate rule: zero coverage variance at every size"
    passed = exceed <= allowed and scaling_ok
    return ConcentrationReport(cover_prob=p, epsilon=eps,
                               exceed_fraction=exceed, exceed_allowed=allowed,
                               stds=stds, std_ratios=tuple(ratios),
                               passed=passed, note=note)


def convergence_check(rec: RunRecord) -> ConvergenceReport:
    """Decile test of gradient-norm decay plus a loss-descent check.

    The gradient norm averaged over the last tenth of training must not
    exceed a quarter of the first tenth's average, and the final loss
    must not exceed the initial one.  A flat trajectory is reported as
    "no descent" rather than as convergence.
    """
    k = max(1, rec.config.epochs // 10)
    gf = float(rec.grad_norm[:k].mean())
    gl = float(rec.grad_norm[-k:].mean())
    ratio = gl / gf if gf > 0 else (0.0 if gl == 0.0 else float("inf"))
    loss_first = float(rec.loss[0])
    loss_final = float(rec.loss[-1])

    note = ""
    span = float(np.max(rec.loss) - np.min(rec.loss))
    if span <= 1e-12 * max(1.0, abs(loss_first)):
        note = "no descent: loss trajectory is constant"

    passed = (ratio <= 0.25) and (loss_final <= loss_first) and not note
    return ConvergenceReport(passed=passed, grad_first=gf, grad_last=gl,
                             grad_ratio=ratio, loss_first=loss_first,
                             loss_final=loss_final, note=note)
