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
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ContractError, IngestionError, ParameterError, QpignnError
from .graphcore import SplitSpec, load_csv, save_csv
from .harness import (_ALLOWED_VARIANTS, DEFAULT_LAMBDA_GRID,
                      DEFAULT_TUNE_BOUNDS, GRAPH_PRESETS, TrainConfig,
                      ablation_suite, concentration_check, convergence_check,
                      dataset_preset, experiment_csv_header,
                      experiment_csv_row, gaussian_optimal_halfwidth,
                      hoeffding_epsilon, lambda_sweep, lambda_tune,
                      mcdiarmid_prob, robustness_suite, shift_matrix,
                      split_experiment, train, trajectory_csv)
from .metrics import CSV_FIELDS, METRIC_FIELDS
from .metrics import report as metrics_report
from .model import (VARIANTS, forward_intervals, load_checkpoint,
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
    p.add_argument("--split", choices=("random", "degree", "community"),
                   default="random")
    p.add_argument("--ratios", default="0.6,0.2,0.2")
    p.add_argument("--edges", default=None, help="edge CSV instead of synthetic")
    p.add_argument("--features", default=None)
    p.add_argument("--targets", default=None)
    p.add_argument("--header", action="store_true",
                   help="input CSVs carry a header line")


def _add_train(p: _Parser) -> None:
    p.add_argument("--epochs", type=int, default=500)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--weight-decay", type=float, default=1e-3)
    p.add_argument("--alpha", type=float, default=0.1)
    p.add_argument("--lambda", dest="lambda_width", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--loss", default="qpi",
                   choices=tuple(_ALLOWED_VARIANTS))
    p.add_argument("--variant", default=None, choices=VARIANTS,
                   help="defaults to the natural head for --loss")
    p.add_argument("--dropout", type=float, default=0.2)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--no-sqrt-decay", action="store_true")
    p.add_argument("--width-norm", choices=("l1", "l2"), default="l1")
    p.add_argument("--smooth-coverage", action="store_true")
    p.add_argument("--mc-passes", type=int, default=100)


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------

def _outdir(args, default_name: str) -> Path:
    """Create the output directory; called once the work has succeeded."""
    out = Path(args.out) if args.out else Path("runs") / default_name
    out.mkdir(parents=True, exist_ok=True)
    return out


def _echo_config(args, out: Path) -> None:
    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    (out / "config.json").write_text(json.dumps(payload, indent=2,
                                                default=str) + "\n")


def _dataset_from_args(args):
    ratios = tuple(float(x) for x in args.ratios.split(","))
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
    variant = args.variant or _ALLOWED_VARIANTS[args.loss][0]
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


def _stamp(args) -> list[str]:
    if args.no_timestamp:
        return []
    now = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return [f"# generated {now}"]


def _write_table(args, out: Path, name: str, header: str,
                 rows: list[str], json_rows: list[dict]) -> Path:
    """Write one table in the requested format and return its path."""
    if args.format == "json":
        path = out / f"{name}.json"
        doc: dict = {"rows": json_rows}
        if not args.no_timestamp:
            doc["generated"] = datetime.now(timezone.utc).isoformat(
                timespec="seconds")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path
    path = out / f"{name}.csv"
    path.write_text("\n".join(_stamp(args) + [header] + rows) + "\n")
    return path


def _report_json(rep, **extra) -> dict:
    d = {f: getattr(rep, f) for f in METRIC_FIELDS}
    d.update(extra)
    return d


def _without(row: dict, key: str) -> dict:
    return {k: v for k, v in row.items() if k != key}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    ds, label = _dataset_from_args(args)
    out = _outdir(args, "gen")
    save_csv(ds, out / "edges.csv", out / "features.csv", out / "targets.csv")
    _echo_config(args, out)
    print(f"wrote dataset {label} ({ds.num_nodes} nodes, "
          f"{ds.graph.num_edges} edges) to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    model, rec = train(ds, cfg)
    out = _outdir(args, "train")

    (out / "trajectory.csv").write_text(trajectory_csv(rec))
    save_checkpoint(model, out / "checkpoint.json")

    run_id = f"train-{cfg.loss_kind}-s{cfg.seed}"
    rows, jrows = [], []
    for mask_name in ("train", "val", "test"):
        rep = rec.reports[mask_name]
        rows.append(experiment_csv_row(rep, run_id, label, cfg.model_variant,
                                       cfg.lambda_width, cfg.seed,
                                       experiment="train", kind=mask_name))
        jrows.append(_report_json(rep, run_id=run_id, mask=mask_name,
                                  dataset=label, model=cfg.model_variant,
                                  lambda_width=cfg.lambda_width,
                                  seed=cfg.seed))
    _write_table(args, out, "metrics", experiment_csv_header(), rows, jrows)
    _echo_config(args, out)

    conv = convergence_check(rec)
    test = rec.reports["test"]
    print(f"test picp={test.picp:.4f} mpiw={test.mpiw:.4f} "
          f"cwc={test.cwc:.4f} converged={conv.passed}")
    return 0


def _cmd_eval(args) -> int:
    ds, label = _dataset_from_args(args)
    model = load_checkpoint(args.checkpoint)
    iv = forward_intervals(model, ds.graph, ds.features, alpha=args.alpha)
    run_id = f"eval-{Path(args.checkpoint).stem}"
    rows, jrows = [], []
    for mask_name, mask in sorted(ds.masks().items()):
        rep = metrics_report(iv, ds.targets, mask, args.alpha)
        rows.append(experiment_csv_row(rep, run_id, label,
                                       model.config.variant, float("nan"),
                                       -1, experiment="eval", kind=mask_name))
        jrows.append(_report_json(rep, run_id=run_id, mask=mask_name,
                                  dataset=label))
    out = _outdir(args, "eval")
    _write_table(args, out, "metrics", experiment_csv_header(), rows, jrows)
    _echo_config(args, out)
    print(f"evaluated {args.checkpoint} on {label}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    if args.tune:
        lo, hi = (float(x) for x in args.bounds.split(","))
        result = lambda_tune(ds, cfg, bounds=(lo, hi), budget=args.budget,
                             jobs=args.jobs)
    else:
        grid = tuple(float(x) for x in args.grid.split(","))
        result = lambda_sweep(ds, cfg, grid=grid, jobs=args.jobs)

    rows, jrows = [], []
    for e in result.entries:
        marker = "chosen" if e.lambda_width == result.chosen else ""
        rows.append(experiment_csv_row(e.test, f"sweep-l{e.lambda_width:g}",
                                       label, cfg.model_variant,
                                       e.lambda_width, cfg.seed,
                                       experiment="sweep", kind=marker,
                                       level=f"{e.objective:.10g}"))
        jrows.append(_report_json(e.test, lambda_width=e.lambda_width,
                                  objective=e.objective,
                                  chosen=(marker == "chosen")))
    out = _outdir(args, "sweep")
    _write_table(args, out, "sweep", experiment_csv_header(), rows, jrows)
    _echo_config(args, out)
    for flag in result.flags:
        print(f"flag: {flag}")
    print(f"chosen lambda={result.chosen:g} objective={result.objective:.6f}")
    return 0


def _cmd_ablate(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    seeds = tuple(int(s) for s in args.seeds.split(","))
    table = ablation_suite(ds, cfg, seeds=seeds, jobs=args.jobs)
    out = _outdir(args, "ablate")

    rows, jrows = [], []
    for row in table:
        for seed, rep in zip(seeds, row["per_seed"]):
            rows.append(experiment_csv_row(
                rep, f"ablate-{row['setting']}-s{seed}", label,
                row["setting"], row["lambda_width"], seed,
                experiment="ablate", kind=row["setting"]))
        jrows.append(_without(row, "per_seed"))
    _write_table(args, out, "ablation", experiment_csv_header(), rows, jrows)

    summary = ["setting," + ",".join(
        f"{f}_mean,{f}_std" for f in ("picp", "mpiw", "cwc"))]
    for row in table:
        cells = [row["setting"]]
        for f in ("picp", "mpiw", "cwc"):
            cells += [f"{row[f + '_mean']:.10g}", f"{row[f + '_std']:.10g}"]
        summary.append(",".join(cells))
    (out / "ablation_summary.csv").write_text(
        "\n".join(_stamp(args) + summary) + "\n")
    _echo_config(args, out)
    for row in table:
        print(f"{row['setting']:<14} picp={row['picp_mean']:.4f} "
              f"mpiw={row['mpiw_mean']:.4f} cwc={row['cwc_mean']:.4f}")
    return 0


def _cmd_robust(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    table = robustness_suite(ds, cfg, jobs=args.jobs)
    out = _outdir(args, "robust")

    header = (experiment_csv_header() + ",coverage_retention,width_growth")
    rows, jrows = [], []
    for row in table:
        base = experiment_csv_row(row["report"],
                                  f"robust-{row['kind']}-{row['level']:g}",
                                  label, cfg.model_variant, cfg.lambda_width,
                                  cfg.seed, experiment="robust",
                                  kind=row["kind"], level=f"{row['level']:g}")
        rows.append(base + f",{row['coverage_retention']:.10g}"
                           f",{row['width_growth']:.10g}")
        jrows.append(_without(row, "report"))
    _write_table(args, out, "robustness", header, rows, jrows)
    _echo_config(args, out)
    for row in table:
        print(f"{row['kind']:<14} level={row['level']:<4g} "
              f"picp={row['picp']:.4f} mpiw={row['mpiw']:.4f}")
    return 0


def _cmd_shift(args) -> int:
    cfg = _config_from_args(args)
    families = tuple(args.families.split(","))
    matrix = shift_matrix(families, cfg, nodes=args.nodes, runs=args.runs,
                          data_seed=args.data_seed, family=args.family,
                          noise_sigma=args.noise_sigma,
                          feat_dim=args.feat_dim, jobs=args.jobs)
    out = _outdir(args, "shift")

    header = "source_family,target_family,picp,mpiw,lambda,runs"
    rows, jrows = [], []
    for i, fi in enumerate(matrix.families):
        for j, fj in enumerate(matrix.families):
            rows.append(f"{fi},{fj},{matrix.picp[i, j]:.10g},"
                        f"{matrix.mpiw[i, j]:.10g},"
                        f"{matrix.lambda_width:g},{matrix.runs}")
            jrows.append({"source_family": fi, "target_family": fj,
                          "picp": matrix.picp[i, j],
                          "mpiw": matrix.mpiw[i, j]})
    _write_table(args, out, "shift", header, rows, jrows)
    _echo_config(args, out)
    for i, fi in enumerate(matrix.families):
        off = [matrix.picp[i, j] for j in range(len(matrix.families)) if j != i]
        print(f"{fi:<6} diag picp={matrix.picp[i, i]:.4f} "
              f"off-mean={np.mean(off):.4f}")
    return 0


def _cmd_splits(args) -> int:
    cfg = _config_from_args(args)
    ds, label = _dataset_from_args(args)
    kinds = tuple(args.kinds.split(","))
    table = split_experiment(ds, cfg, kinds=kinds, jobs=args.jobs)
    out = _outdir(args, "splits")

    rows, jrows = [], []
    for row in table:
        rows.append(experiment_csv_row(row["report"], f"splits-{row['kind']}",
                                       label, cfg.model_variant,
                                       cfg.lambda_width, cfg.seed,
                                       experiment="splits", kind=row["kind"]))
        jrows.append(_without(row, "report"))
    _write_table(args, out, "splits", experiment_csv_header(), rows, jrows)
    _echo_config(args, out)
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
    fields = list(CSV_FIELDS)
    groups: dict[tuple, list[dict]] = {}
    for path in args.inputs:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for cells in reader:
                if not cells or cells[0].startswith("#") \
                        or cells[0] == fields[0]:
                    continue
                if len(cells) < len(fields):
                    raise IngestionError(
                        f"{path}:{reader.line_num}: expected at least "
                        f"{len(fields)} columns, got {len(cells)}")
                row = dict(zip(fields, cells))
                key = (row["dataset"], row["model"], row["lambda"])
                groups.setdefault(key, []).append(row)

    header = "dataset,model,lambda,n_rows," + ",".join(
        f"{f}_mean,{f}_std" for f in ("picp", "mpiw", "cwc"))
    rows, jrows = [], []
    for key in sorted(groups):
        rws = groups[key]
        cells = [key[0], key[1], key[2], str(len(rws))]
        jrow = {"dataset": key[0], "model": key[1], "lambda": key[2],
                "n_rows": len(rws)}
        for f in ("picp", "mpiw", "cwc"):
            vals = np.array([float(r[f]) for r in rws])
            cells += [f"{vals.mean():.10g}", f"{vals.std():.10g}"]
            jrow[f + "_mean"] = float(vals.mean())
            jrow[f + "_std"] = float(vals.std())
        rows.append(",".join(cells))
        jrows.append(jrow)
    out = _outdir(args, "report")
    _write_table(args, out, "summary", header, rows, jrows)
    _echo_config(args, out)
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
    p.add_argument("--alpha", type=float, default=0.1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="lambda grid sweep or bounded tuning")
    _add_common(p); _add_dataset(p); _add_train(p)
    p.add_argument("--grid", default=",".join(str(g) for g in
                                              DEFAULT_LAMBDA_GRID))
    p.add_argument("--tune", action="store_true")
    p.add_argument("--bounds", default=",".join(str(b) for b in
                                                DEFAULT_TUNE_BOUNDS))
    p.add_argument("--budget", type=int, default=9)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("ablate", help="loss-term and architecture ablations")
    _add_common(p); _add_dataset(p); _add_train(p)
    p.add_argument("--seeds", default="0,1,2,3,4")
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("robust", help="perturb-retrain robustness table")
    _add_common(p); _add_dataset(p); _add_train(p)
    p.set_defaults(func=_cmd_robust)

    p = sub.add_parser("shift", help="cross-family transfer matrix")
    _add_common(p); _add_train(p)
    p.add_argument("--families", default="er,ba")
    p.add_argument("--nodes", type=int, default=500)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--data-seed", type=int, default=11)
    p.add_argument("--family", default="basic")
    p.add_argument("--noise-sigma", type=float, default=0.3)
    p.add_argument("--feat-dim", type=int, default=8)
    p.set_defaults(func=_cmd_shift, lambda_width=0.5)

    p = sub.add_parser("splits", help="compare split strategies")
    _add_common(p); _add_dataset(p); _add_train(p)
    p.add_argument("--kinds", default="random,degree,community")
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
    except QpignnError as exc:
        sys.stderr.write(f"qpignn: error: {exc}\n")
        return 2
    except OSError as exc:
        sys.stderr.write(f"qpignn: error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
