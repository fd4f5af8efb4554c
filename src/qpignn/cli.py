"""Command-line entry point.

Each subcommand maps onto one harness operation, writes its outputs
into the chosen directory next to a `config.json` echo of the resolved
arguments, and keeps every byte deterministic for fixed argv and seeds
(the only exception is the timestamp header line, which `--no-timestamp`
suppresses).

Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import math
import sys
from concurrent.futures.process import BrokenProcessPool
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ContractError, IngestionError, ParameterError, QpignnError
from .graphcore import (DEFAULT_RATIOS, SPLIT_KINDS, SplitSpec, load_csv,
                        save_csv)
from .harness import (ALLOWED_VARIANTS, DEFAULT_LAMBDA_GRID,
                      DEFAULT_TUNE_BOUNDS, GRAPH_PRESETS, SHIFT_FAMILIES,
                      SHIFT_LAMBDA, RunRecord, TrainConfig, ablation_suite,
                      concentration_check, convergence_check, dataset_preset,
                      gaussian_optimal_halfwidth, hoeffding_epsilon,
                      lambda_sweep, lambda_tune, mcdiarmid_prob,
                      robustness_suite, shift_matrix, split_experiment, train)
from .losses import WIDTH_NORMS
from .metrics import METRIC_FIELDS
from .metrics import report as metrics_report
from .model import (VARIANTS, forward_intervals, read_checkpoint,
                    save_checkpoint)


class _Parser(argparse.ArgumentParser):
    """argparse with the documented usage-error exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: usage error: {message}\n")
        raise SystemExit(1)


def _worker_count(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


# ---------------------------------------------------------------------------
# Flag groups
# ---------------------------------------------------------------------------

def _add_common(p: _Parser) -> None:
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the generated-at header line")


def _add_jobs(p: _Parser) -> None:
    """For the subcommands that train a batch of independent runs."""
    p.add_argument("--jobs", type=_worker_count, default=1,
                   help="parallel workers across independent runs")


def _add_dataset(p: _Parser) -> None:
    p.add_argument("--graph", choices=GRAPH_PRESETS, default="er")
    p.add_argument("--family", default="gaussian",
                   help="feature/target family for synthetic data")
    p.add_argument("--nodes", type=int, default=2000)
    p.add_argument("--feat-dim", type=int, default=8)
    p.add_argument("--noise-sigma", type=float, default=1.0)
    p.add_argument("--data-seed", type=int, default=42)
    p.add_argument("--split", choices=SPLIT_KINDS, default=SPLIT_KINDS[0])
    p.add_argument("--ratios", default=",".join(map(str, DEFAULT_RATIOS)))
    p.add_argument("--edges", default=None, help="edge CSV instead of synthetic")
    p.add_argument("--features", default=None)
    p.add_argument("--targets", default=None)
    p.add_argument("--header", action="store_true",
                   help="input CSVs carry a header line")


# The defaults of every training flag.
_TRAIN_DEFAULTS = TrainConfig()


def _add_train(p: _Parser) -> None:
    d = _TRAIN_DEFAULTS
    p.add_argument("--epochs", type=int, default=d.epochs)
    p.add_argument("--lr", type=float, default=d.lr)
    p.add_argument("--weight-decay", type=float, default=d.weight_decay)
    p.add_argument("--alpha", type=float, default=d.alpha)
    p.add_argument("--lambda", dest="lambda_width", type=float,
                   default=d.lambda_width)
    p.add_argument("--seed", type=int, default=d.seed)
    p.add_argument("--loss", default=d.loss_kind,
                   choices=tuple(ALLOWED_VARIANTS))
    p.add_argument("--variant", choices=VARIANTS,
                   help="defaults to the natural head for --loss")
    p.add_argument("--dropout", type=float, default=d.dropout_p)
    p.add_argument("--hidden", type=int, default=d.hidden)
    p.add_argument("--no-sqrt-decay", action="store_true")
    p.add_argument("--width-norm", choices=WIDTH_NORMS, default=d.width_norm)
    p.add_argument("--smooth-coverage", action="store_true")
    p.add_argument("--mc-passes", type=int, default=d.mc_passes)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _comma_list(text: str, flag: str, kind=float,
                count: int | None = None) -> tuple:
    """Parse the comma-separated value ``text`` of ``flag``; a malformed
    one, or one without exactly ``count`` entries, is a usage error."""
    try:
        values = tuple(kind(x) for x in text.split(","))
        if count is None or len(values) == count:
            return values
    except ValueError:
        pass
    want = f"{count} " if count is not None else ""
    raise ParameterError(f"{flag} needs a comma-separated list of "
                         f"{want}{kind.__name__} values, got {text!r}")


def _dataset_from_args(args):
    ratios = _comma_list(args.ratios, "--ratios")
    spec = SplitSpec(kind=args.split, ratios=ratios, seed=args.data_seed)
    if args.edges or args.features or args.targets:
        if not (args.edges and args.features and args.targets):
            raise ParameterError(
                "--edges, --features and --targets must be given together")
        ds = load_csv(args.edges, args.features, args.targets,
                      header=args.header, split_spec=spec)
        label = Path(args.targets).stem
        return ds, label
    ds = dataset_preset(args.graph, args.nodes, args.data_seed,
                        family=args.family, noise_sigma=args.noise_sigma,
                        feat_dim=args.feat_dim, split_spec=spec)
    label = f"{args.graph}-{args.family}-n{args.nodes}"
    return ds, label


def _config_from_args(args) -> TrainConfig:
    variant = args.variant or ALLOWED_VARIANTS[args.loss][0]
    try:
        return TrainConfig(epochs=args.epochs, lr=args.lr,
                           weight_decay=args.weight_decay, alpha=args.alpha,
                           lambda_width=args.lambda_width, seed=args.seed,
                           model_variant=variant, loss_kind=args.loss,
                           dropout_p=args.dropout, hidden=args.hidden,
                           sqrt_lr_decay=not args.no_sqrt_decay,
                           width_norm=args.width_norm,
                           smooth_coverage=args.smooth_coverage,
                           mc_passes=args.mc_passes)
    except ContractError as exc:
        # A --loss/--variant pair the config rejects is a usage error.
        raise ParameterError(str(exc)) from exc


def _write_outputs(args, default_name: str, **tables) -> Path:
    """Create the output directory, write each of ``tables`` in the
    requested format and the ``config.json`` echo of the arguments, and
    return the directory.  Called once the work has succeeded.

    ``tables`` maps a file stem to ``(columns, rows)``: a column spec of
    ``(name, cell)`` pairs, where ``cell`` writes a value's CSV cell, and
    a list of row dicts of native values.  CSV holds the header and the
    cells; JSON holds ``{"rows": [...]}`` with the same columns, numbers
    as numbers and a non-finite float as ``null``.
    """
    out = Path(args.out) if args.out else Path("runs") / default_name
    out.mkdir(parents=True, exist_ok=True)
    stamp = None if args.no_timestamp else datetime.now(
        timezone.utc).isoformat(timespec="seconds")
    for stem, (columns, rows) in tables.items():
        if args.format == "json":
            doc = {"generated": stamp} if stamp else {}
            doc["rows"] = [{name: _json_value(row[name])
                            for name, _ in columns} for row in rows]
            (out / f"{stem}.json").write_text(json.dumps(doc, indent=2) + "\n")
        else:
            lines = [f"# generated {stamp}"] if stamp else []
            lines.append(",".join(name for name, _ in columns))
            lines += [",".join(cell(row[name]) for name, cell in columns)
                      for row in rows]
            (out / f"{stem}.csv").write_text("\n".join(lines) + "\n")
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    (out / "config.json").write_text(json.dumps(payload, indent=2,
                                                default=str) + "\n")
    return out


def _json_value(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


# ---------------------------------------------------------------------------
# Output tables
# ---------------------------------------------------------------------------

# Cell writers.  ``str`` of a float is its repr, which round-trips
# exactly; the fixed-precision columns below keep their published format.
_G10 = "{:.10g}".format
_G = "{:g}".format

# The run table: one row per trained or evaluated model.  `report` reads
# the leading RUN_KEYS of any table written with these columns.
RUN_KEYS = ("run_id", "dataset", "model", "lambda", "seed") + METRIC_FIELDS
RUN_COLUMNS = tuple((name, str) for name in RUN_KEYS + (
    "experiment", "kind", "level", "source_family", "target_family"))

_STATS = ("picp", "mpiw", "cwc")
_STAT_COLUMNS = tuple((f"{f}_{stat}", _G10)
                      for f in _STATS for stat in ("mean", "std"))
ABLATION_SUMMARY_COLUMNS = (("setting", str),) + _STAT_COLUMNS
SUMMARY_COLUMNS = (("dataset", str), ("model", str), ("lambda", str),
                   ("n_rows", str)) + _STAT_COLUMNS
SHIFT_COLUMNS = (("source_family", str), ("target_family", str),
                 ("picp", _G10), ("mpiw", _G10), ("lambda", _G),
                 ("runs", str))
# The trajectory of `train`: one row per epoch, one column per per-epoch
# array of RunRecord.
TRAJECTORY_COLUMNS = (("epoch", str),) + tuple(
    (name, _G10) for name in RunRecord.TRAJECTORIES)


def _with_cells(columns, **cells) -> tuple:
    """``columns`` with the cell writer of each named column replaced."""
    return tuple((name, cells.get(name, cell)) for name, cell in columns)


def _run_row(rep, run_id: str, dataset: str, model: str, lam: float,
             seed: int, experiment: str, kind: str = "",
             level="") -> dict:
    """One RUN_COLUMNS row for the metrics ``rep`` of one run."""
    return {"run_id": run_id, "dataset": dataset, "model": model,
            "lambda": float(lam), "seed": int(seed),
            **{f: getattr(rep, f) for f in METRIC_FIELDS},
            "experiment": experiment, "kind": kind, "level": level,
            "source_family": "", "target_family": ""}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    ds, label = _dataset_from_args(args)
    out = _write_outputs(args, "gen")
    save_csv(ds, out / "edges.csv", out / "features.csv", out / "targets.csv")
    print(f"wrote dataset {label} ({ds.num_nodes} nodes, "
          f"{ds.graph.num_edges} edges) to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    model, rec = train(ds, cfg)
    run_id = f"train-{cfg.loss_kind}-s{cfg.seed}"
    rows = [_run_row(rec.reports[mask_name], run_id, label, cfg.model_variant,
                     cfg.lambda_width, cfg.seed, "train", kind=mask_name)
            for mask_name in ("train", "val", "test")]
    trajectory = [{"epoch": ep, **{name: float(getattr(rec, name)[ep])
                                   for name in RunRecord.TRAJECTORIES}}
                  for ep in range(cfg.epochs)]
    out = _write_outputs(args, "train", metrics=(RUN_COLUMNS, rows),
                         trajectory=(TRAJECTORY_COLUMNS, trajectory))
    save_checkpoint(model, out / "checkpoint.json")

    conv = convergence_check(rec)
    test = rec.reports["test"]
    print(f"test picp={test.picp:.4f} mpiw={test.mpiw:.4f} "
          f"cwc={test.cwc:.4f} converged={conv.passed}")
    return 0


def _cmd_eval(args) -> int:
    ds, label = _dataset_from_args(args)
    model = read_checkpoint(args.checkpoint)
    iv = forward_intervals(model, ds.graph, ds.features, alpha=args.alpha)
    run_id = f"eval-{Path(args.checkpoint).stem}"
    rows = [_run_row(metrics_report(iv, ds.targets, mask, args.alpha), run_id,
                     label, model.config.variant, float("nan"), -1, "eval",
                     kind=mask_name)
            for mask_name, mask in sorted(ds.masks().items())]
    _write_outputs(args, "eval", metrics=(RUN_COLUMNS, rows))
    print(f"evaluated {args.checkpoint} on {label}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    if args.tune:
        bounds = _comma_list(args.bounds, "--bounds", count=2)
        result = lambda_tune(ds, cfg, bounds=bounds, budget=args.budget,
                             jobs=args.jobs)
    else:
        grid = _comma_list(args.grid, "--grid")
        result = lambda_sweep(ds, cfg, grid=grid, jobs=args.jobs)

    # `level` holds the selection objective; `kind` marks the winner.
    rows = [_run_row(e.test, f"sweep-l{e.lambda_width:g}", label,
                     cfg.model_variant, e.lambda_width, cfg.seed, "sweep",
                     kind="chosen" if e.lambda_width == result.chosen else "",
                     level=e.objective)
            for e in result.entries]
    _write_outputs(args, "sweep",
                   sweep=(_with_cells(RUN_COLUMNS, level=_G10), rows))
    for flag in result.flags:
        print(f"flag: {flag}")
    print(f"chosen lambda={result.chosen:g} objective={result.objective:.6f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    seeds = _comma_list(args.seeds, "--seeds", kind=int)
    table = ablation_suite(ds, cfg, seeds=seeds, jobs=args.jobs)

    rows = [_run_row(rep, f"ablate-{row['setting']}-s{seed}", label,
                     row["setting"], row["lambda_width"], seed, "ablate",
                     kind=row["setting"])
            for row in table for seed, rep in zip(seeds, row["per_seed"])]
    _write_outputs(args, "ablate", ablation=(RUN_COLUMNS, rows),
                   ablation_summary=(ABLATION_SUMMARY_COLUMNS, table))
    for row in table:
        print(f"{row['setting']:<14} picp={row['picp_mean']:.4f} "
              f"mpiw={row['mpiw_mean']:.4f} cwc={row['cwc_mean']:.4f}")
    return 0


def _cmd_robust(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    table = robustness_suite(ds, cfg, jobs=args.jobs)

    columns = _with_cells(RUN_COLUMNS, level=_G) + (
        ("coverage_retention", _G10), ("width_growth", _G10))
    rows = [{**_run_row(row["report"],
                        f"robust-{row['kind']}-{row['level']:g}", label,
                        cfg.model_variant, cfg.lambda_width, cfg.seed,
                        "robust", kind=row["kind"], level=row["level"]),
             "coverage_retention": row["coverage_retention"],
             "width_growth": row["width_growth"]}
            for row in table]
    _write_outputs(args, "robust", robustness=(columns, rows))
    for row in table:
        print(f"{row['kind']:<14} level={row['level']:<4g} "
              f"picp={row['picp']:.4f} mpiw={row['mpiw']:.4f}")
    return 0


# The options of ``qpignn shift`` that pass straight to ``shift_matrix``,
# whose defaults they take.
_SHIFT_DATA = ("nodes", "runs", "data_seed", "family", "noise_sigma",
               "feat_dim")


def _cmd_shift(args) -> int:
    cfg = _config_from_args(args)
    families = tuple(args.families.split(","))
    matrix = shift_matrix(families, cfg, jobs=args.jobs,
                          **{name: getattr(args, name) for name in _SHIFT_DATA})

    rows = [{"source_family": fi, "target_family": fj,
             "picp": float(matrix.picp[i, j]),
             "mpiw": float(matrix.mpiw[i, j]),
             "lambda": matrix.lambda_width, "runs": matrix.runs}
            for i, fi in enumerate(matrix.families)
            for j, fj in enumerate(matrix.families)]
    _write_outputs(args, "shift", shift=(SHIFT_COLUMNS, rows))
    for i, fi in enumerate(matrix.families):
        off = [matrix.picp[i, j] for j in range(len(matrix.families)) if j != i]
        print(f"{fi:<6} diag picp={matrix.picp[i, i]:.4f} "
              f"off-mean={np.mean(off):.4f}")
    return 0


def _cmd_splits(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    kinds = tuple(args.kinds.split(","))
    table = split_experiment(ds, cfg, kinds=kinds,
                             ratios=_comma_list(args.ratios, "--ratios"),
                             jobs=args.jobs)

    rows = [_run_row(row["report"], f"splits-{row['kind']}", label,
                     cfg.model_variant, cfg.lambda_width, cfg.seed, "splits",
                     kind=row["kind"])
            for row in table]
    _write_outputs(args, "splits", splits=(RUN_COLUMNS, rows))
    for row in table:
        print(f"{row['kind']:<10} picp={row['picp']:.4f} "
              f"mpiw={row['mpiw']:.4f} train={row['train_size']}")
    return 0


def _cmd_theory(args) -> int:
    if args.check == "hoeffding":
        eps = hoeffding_epsilon(args.n, args.delta)
        print(f"epsilon={eps:.6f}")
    elif args.check == "mcdiarmid":
        bound = mcdiarmid_prob(args.n, args.eps)
        print(f"bound={bound:.6f}")
    elif args.check == "halfwidth":
        d = gaussian_optimal_halfwidth(args.sigma, args.alpha)
        print(f"halfwidth={d:.5f}")
    else:
        d = gaussian_optimal_halfwidth(args.sigma, args.alpha)
        rep = concentration_check((-d, d), args.distribution, n=args.n,
                                  trials=args.trials, delta=args.delta,
                                  seed=args.seed)
        ratios = ",".join(f"{r:.4f}" for r in rep.std_ratios)
        print(f"cover_prob={rep.cover_prob:.6f} "
              f"exceed={rep.exceed_fraction:.4f} "
              f"allowed={rep.exceed_allowed:.4f} ratios={ratios} "
              f"passed={rep.passed}")
        if rep.note:
            print(f"note: {rep.note}")
    return 0


def _cmd_report(args) -> int:
    groups: dict[tuple, list[dict]] = {}
    for path in args.inputs:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for cells in reader:
                if not cells or cells[0].startswith("#") \
                        or cells[0] == RUN_KEYS[0]:
                    continue
                where = f"{path}:{reader.line_num}"
                if len(cells) < len(RUN_KEYS):
                    raise IngestionError(
                        f"{where}: expected at least {len(RUN_KEYS)} "
                        f"columns, got {len(cells)}")
                row = dict(zip(RUN_KEYS, cells))
                for name in ("lambda",) + METRIC_FIELDS:
                    try:
                        row[name] = float(row[name])
                    except ValueError:
                        raise IngestionError(
                            f"{where}: {name} cell {row[name]!r} is not "
                            f"a number") from None
                # Grouping on the float's text puts NaN lambdas together.
                key = (row["dataset"], row["model"], str(row["lambda"]))
                groups.setdefault(key, []).append(row)

    rows = []
    for key in sorted(groups):
        row = {"dataset": key[0], "model": key[1], "lambda": float(key[2]),
               "n_rows": len(groups[key])}
        for f in _STATS:
            vals = np.array([r[f] for r in groups[key]])
            row[f + "_mean"] = float(vals.mean())
            row[f + "_std"] = float(vals.std())
        rows.append(row)
    _write_outputs(args, "report", summary=(SUMMARY_COLUMNS, rows))
    print(f"aggregated {sum(len(v) for v in groups.values())} rows "
          f"into {len(rows)} groups")
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="qpignn",
                     description="Prediction-interval learning on graphs")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("gen", help="generate a synthetic dataset as CSV")
    _add_common(p); _add_dataset(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train one model")
    _add_common(p); _add_dataset(p); _add_train(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_common(p); _add_dataset(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--alpha", type=float, default=_TRAIN_DEFAULTS.alpha)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="lambda grid sweep or bounded tuning")
    _add_common(p); _add_dataset(p); _add_train(p); _add_jobs(p)
    p.add_argument("--grid", default=",".join(str(g) for g in
                                              DEFAULT_LAMBDA_GRID))
    p.add_argument("--tune", action="store_true")
    p.add_argument("--bounds", default=",".join(str(b) for b in
                                                DEFAULT_TUNE_BOUNDS))
    p.add_argument("--budget", type=int, default=9)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ablate", help="loss-term and architecture ablations")
    _add_common(p); _add_dataset(p); _add_train(p); _add_jobs(p)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("robust", help="perturb-retrain robustness table")
    _add_common(p); _add_dataset(p); _add_train(p); _add_jobs(p)
    p.set_defaults(func=_cmd_robust)

    p = sub.add_parser("shift", help="cross-family transfer matrix")
    _add_common(p); _add_train(p); _add_jobs(p)
    p.add_argument("--families", default=",".join(SHIFT_FAMILIES))
    shift = inspect.signature(shift_matrix).parameters
    for name in _SHIFT_DATA:
        default = shift[name].default
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)
    p.set_defaults(func=_cmd_shift, lambda_width=SHIFT_LAMBDA)

    p = sub.add_parser("splits", help="compare split strategies")
    _add_common(p); _add_dataset(p); _add_train(p); _add_jobs(p)
    p.add_argument("--kinds", default=",".join(SPLIT_KINDS))
    p.set_defaults(func=_cmd_splits)

    p = sub.add_parser("theory", help="closed-form bounds and MC checks")
    p.add_argument("--check", required=True,
                   choices=("hoeffding", "mcdiarmid", "halfwidth",
                            "concentration"))
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--distribution", choices=("gaussian", "uniform"),
                   default="gaussian")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser("report", help="aggregate metric CSVs")
    _add_common(p)
    p.add_argument("--inputs", nargs="+", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParameterError as exc:
        sys.stderr.write(f"qpignn: usage error: {exc}\n")
        return 1
    except (QpignnError, OSError, BrokenProcessPool) as exc:
        # BrokenProcessPool: a pool worker died (the OOM killer's, say).
        sys.stderr.write(f"qpignn: error: {exc}\n")
        return 2
    except MemoryError as exc:
        sys.stderr.write(f"qpignn: error: {str(exc) or 'out of memory'}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
