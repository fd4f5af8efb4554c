"""End-to-end command-line runs against temporary directories."""
import json
from pathlib import Path

import pytest

from qpignn.cli import run

FAST_DS = ["--nodes", "120", "--feat-dim", "4", "--noise-sigma", "0.5",
           "--data-seed", "1"]
FAST_TRAIN = ["--epochs", "25", "--hidden", "8"]


def _train(out, extra=()):
    return run(["train", *FAST_DS, *FAST_TRAIN, "--out", str(out),
                "--no-timestamp", *extra])


def test_unknown_subcommand_exits_1(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("argv", [
    ["train", "--nodes", "-5"],
    # non-finite rates and penalties are refused before any training run
    *(["train", flag, value] for flag in ("--lr", "--weight-decay", "--lambda")
      for value in ("nan", "inf")),
    ["train", "--noise-sigma", "nan"],
    # model shapes are refused before any run, and before a pool starts
    ["train", "--hidden", "0"],
    ["train", "--dropout", "1.5"],
    ["train", "--dropout", "nan"],
    # every MC pass would be the same point: a zero-width interval
    ["train", "--loss", "mse_mcdropout", "--dropout", "0"],
    ["sweep", "--hidden", "0", "--jobs", "2"],
    ["sweep", "--grid", "nan"],
    ["sweep", "--tune", "--bounds", "0.1,inf"],
    # a repeated entry would train a second run with identical rows
    ["sweep", "--grid", "0.1,0.1"],
    ["shift", "--families", "er,er"],
    ["splits", "--kinds", "random,random"],
    ["ablate", "--seeds", "0,0"],
], ids=lambda argv: "_".join(a.removeprefix("--") for a in argv))
def test_bad_parameter_exits_1(argv, tmp_path, capsys):
    code = run([*argv, "--out", str(tmp_path / "x")])
    assert code == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # no debris from failed runs


def test_loss_variant_mismatch_exits_1(tmp_path, capsys):
    code = run(["train", *FAST_DS, *FAST_TRAIN, "--loss", "sqr",
                "--variant", "dual", "--out", str(tmp_path / "x")])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    assert "it trains sqr" in err  # the rejection names what would run
    assert not (tmp_path / "x").exists()
    assert run(["train", *FAST_DS, *FAST_TRAIN, "--loss", "mse_mcdropout",
                "--variant", "single", "--out", str(tmp_path / "x")]) == 1
    assert "it trains dual" in capsys.readouterr().err


def test_bad_jobs_and_mc_passes_exit_1(tmp_path, capsys):
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("")
    for bad in (["sweep", "--grid", "0.1", "--jobs", "-3"],
                ["sweep", "--grid", "0.1", "--jobs", "0"],
                ["train", "--jobs", "-3"],
                ["train", "--jobs", "two"],
                ["gen", "--jobs", "0"],
                ["eval", "--checkpoint", str(metrics), "--jobs", "-1"],
                ["sweep", "--tune", "--budget", "2"],
                ["splits", "--kinds", "random"],
                ["train", "--loss", "mse_mcdropout", "--mc-passes", "1"],
                ["train", "--ratios", "0.6,x,0.2"],
                ["sweep", "--grid", "0.1,abc"],
                ["sweep", "--tune", "--bounds", "0.1"],
                ["sweep", "--tune", "--bounds", "0.1,0.5,0.9"],
                ["ablate", "--seeds", "0,one"],
                ["shift", "--runs", "0"]):
        train = FAST_TRAIN if bad[0] in ("train", "sweep", "splits") else []
        assert run([*bad, *FAST_DS, *train,
                    "--out", str(tmp_path / "x")]) == 1, bad
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists(), bad  # no debris
    assert run(["report", "--inputs", str(metrics), "--jobs", "0",
                "--out", str(tmp_path / "x")]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_error_leaves_no_output_dir(tmp_path, capsys):
    # a learning rate this large overflows the loss in the first steps
    code = run(["train", *FAST_DS, *FAST_TRAIN, "--lr", "1e300",
                "--out", str(tmp_path / "x")])
    assert code == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_runtime_error_exits_2(tmp_path, capsys):
    code = run(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                *FAST_DS, "--out", str(tmp_path / "y")])
    assert code == 2


def test_eval_rejects_non_finite_checkpoint(tmp_path, capsys):
    assert _train(tmp_path / "run") == 0
    ckpt = tmp_path / "run" / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    name = sorted(payload["params"])[0]
    payload["params"][name]["values"][0] = float("inf")
    ckpt.write_text(json.dumps(payload))
    code = run(["eval", "--checkpoint", str(ckpt), *FAST_DS,
                "--out", str(tmp_path / "y")])
    assert code == 2
    assert f"{name!r} is not finite" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


@pytest.fixture(scope="module")
def checkpoint_text(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert _train(out) == 0
    return (out / "checkpoint.json").read_text()


def _edited(text, edit):
    payload = json.loads(text)
    edit(payload)
    return json.dumps(payload)


# A checkpoint of the retired "rqr" variant is refused like any other
# unknown variant: "single" has its parameters and forward pass.
@pytest.mark.parametrize("make, message", [
    (lambda t: _edited(t, lambda p: p["config"].update(variant="rqr")),
     "unknown variant 'rqr'"),
    (lambda t: _edited(t, lambda p: p["config"].update(hidden=0)),
     "hidden must be positive"),
    (lambda t: _edited(t, lambda p: p["config"].update(width=3)),
     "unexpected keyword argument 'width'"),
    (lambda t: _edited(t, lambda p: p.pop("params")),
     "no 'params' object"),
    (lambda t: t[:-1], "not JSON"),
    (lambda t: json.dumps([json.loads(t)]), "not a JSON object"),
], ids=["rqr_variant", "hidden_0", "extra_key", "no_params", "not_json",
        "list"])
def test_eval_rejects_malformed_checkpoint(make, message, checkpoint_text,
                                           tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(make(checkpoint_text))
    code = run(["eval", "--checkpoint", str(ckpt), *FAST_DS,
                "--out", str(tmp_path / "y")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


def test_eval_refuses_a_dataset_of_another_feature_dim(checkpoint_text,
                                                       tmp_path, capsys):
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(checkpoint_text)  # trained with --feat-dim 4
    code = run(["eval", "--checkpoint", str(ckpt), *FAST_DS, "--feat-dim",
                "6", "--out", str(tmp_path / "y")])
    assert code == 2
    assert "feature dim 6 vs encoder input 4" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


def test_eval_rejects_unknown_checkpoint_version(tmp_path, capsys):
    assert _train(tmp_path / "run") == 0
    ckpt = tmp_path / "run" / "checkpoint.json"
    payload = json.loads(ckpt.read_text())
    payload["format_version"] = 7
    ckpt.write_text(json.dumps(payload))
    code = run(["eval", "--checkpoint", str(ckpt), *FAST_DS,
                "--out", str(tmp_path / "y")])
    assert code == 2
    assert "format_version 7" in capsys.readouterr().err
    assert not (tmp_path / "y").exists()


@pytest.mark.parametrize("cmd", ["gen", "train", "eval", "report"])
def test_jobs_is_only_taken_by_batch_commands(cmd, tmp_path, capsys):
    argv = {"gen": ["gen", *FAST_DS],
            "train": ["train", *FAST_DS, *FAST_TRAIN],
            "eval": ["eval", *FAST_DS, "--checkpoint", "c.json"],
            "report": ["report", "--inputs", "m.csv"]}[cmd]
    assert run([*argv, "--jobs", "2", "--out", str(tmp_path / "x")]) == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    if cmd in ("gen", "train"):
        assert run([*argv, "--out", str(tmp_path / "y")]) == 0
        config = json.loads((tmp_path / "y" / "config.json").read_text())
        assert "jobs" not in config


def test_theory_stdout(capsys):
    assert run(["theory", "--check", "hoeffding", "--n", "2000",
                "--delta", "0.05"]) == 0
    assert "epsilon=0.030368" in capsys.readouterr().out
    assert run(["theory", "--check", "mcdiarmid", "--n", "1000",
                "--eps", "0.05"]) == 0
    assert "bound=0.013476" in capsys.readouterr().out
    assert run(["theory", "--check", "halfwidth", "--sigma", "2.0",
                "--alpha", "0.1"]) == 0
    assert "halfwidth=3.28971" in capsys.readouterr().out


def test_theory_concentration(capsys):
    assert run(["theory", "--check", "concentration", "--trials", "100",
                "--n", "400"]) == 0
    out = capsys.readouterr().out
    assert "cover_prob=" in out and "passed=" in out


def test_gen_writes_dataset(tmp_path):
    out = tmp_path / "data"
    assert run(["gen", *FAST_DS, "--out", str(out), "--no-timestamp"]) == 0
    for name in ("edges.csv", "features.csv", "targets.csv", "config.json"):
        assert (out / name).exists()
    cfg = json.loads((out / "config.json").read_text())
    assert cfg["nodes"] == 120


def test_train_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(out) == 0
    stdout = capsys.readouterr().out
    assert "test picp=" in stdout
    traj = (out / "trajectory.csv").read_text().strip().split("\n")
    assert len(traj) == 26  # header + one row per epoch
    metrics = (out / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) == 4  # header + train/val/test
    assert metrics[0].startswith("run_id,dataset,model,lambda,seed,picp")
    assert (out / "checkpoint.json").exists()
    assert (out / "config.json").exists()


def test_train_eval_round_trip(tmp_path, capsys):
    out = tmp_path / "run"
    assert _train(out) == 0
    capsys.readouterr()
    out2 = tmp_path / "eval"
    assert run(["eval", "--checkpoint", str(out / "checkpoint.json"),
                *FAST_DS, "--out", str(out2), "--no-timestamp"]) == 0
    train_rows = (out / "metrics.csv").read_text().strip().split("\n")[1:]
    eval_rows = (out2 / "metrics.csv").read_text().strip().split("\n")[1:]
    # same dataset, same checkpoint: per-mask picp columns must agree
    train_picps = sorted(r.split(",")[5] for r in train_rows)
    eval_picps = sorted(r.split(",")[5] for r in eval_rows)
    assert train_picps == eval_picps


def test_train_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _train(a) == 0
    assert _train(b) == 0
    for name in ("trajectory.csv", "metrics.csv", "checkpoint.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    ca = json.loads((a / "config.json").read_text())
    cb = json.loads((b / "config.json").read_text())
    ca.pop("out"), cb.pop("out")  # the echo records the target directory
    assert ca == cb


def test_csv_input_training(tmp_path):
    data = tmp_path / "data"
    assert run(["gen", *FAST_DS, "--out", str(data), "--no-timestamp"]) == 0
    out = tmp_path / "run"
    assert run(["train", "--edges", str(data / "edges.csv"),
                "--features", str(data / "features.csv"),
                "--targets", str(data / "targets.csv"),
                *FAST_TRAIN, "--out", str(out), "--no-timestamp"]) == 0
    rows = (out / "metrics.csv").read_text().strip().split("\n")
    assert len(rows) == 4
    assert "targets" in rows[1].split(",")[1]  # dataset label from file stem


def test_sweep_marks_one_chosen(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run(["sweep", *FAST_DS, *FAST_TRAIN, "--grid", "0.1,0.5",
                "--out", str(out), "--no-timestamp"]) == 0
    stdout = capsys.readouterr().out
    assert "chosen lambda=" in stdout
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    assert sum("chosen" in r for r in rows) == 1


def test_sweep_tune_mode(tmp_path, capsys):
    out = tmp_path / "tune"
    assert run(["sweep", *FAST_DS, *FAST_TRAIN, "--tune",
                "--bounds", "0.05,0.5", "--budget", "3",
                "--out", str(out), "--no-timestamp"]) == 0
    rows = (out / "sweep.csv").read_text().strip().split("\n")[1:]
    assert 1 <= len(rows) <= 3


def test_json_format(tmp_path):
    out = tmp_path / "run"
    assert _train(out, extra=["--format", "json"]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert set(doc) == {"rows"}
    assert len(doc["rows"]) == 3
    assert {"picp", "mpiw", "run_id"} <= set(doc["rows"][0])


def test_trajectory_follows_format(tmp_path):
    """One trajectory row per epoch, one column per RunRecord array, in
    the chosen format, with the timestamp line every table carries."""
    names = ["epoch", "coverage", "width", "loss", "grad_norm", "violation"]
    argv = ["train", *FAST_DS, "--epochs", "40", "--hidden", "8"]
    assert run([*argv, "--out", str(tmp_path / "csv")]) == 0
    stamp, header, *lines = \
        (tmp_path / "csv" / "trajectory.csv").read_text().splitlines()
    assert stamp.startswith("# generated ")
    assert header == ",".join(names)
    assert len(lines) == 40
    assert lines[0].startswith("0,") and lines[-1].startswith("39,")

    assert run([*argv, "--format", "json", "--out", str(tmp_path / "json"),
                "--no-timestamp"]) == 0
    assert not (tmp_path / "json" / "trajectory.csv").exists()
    rows = json.loads((tmp_path / "json" / "trajectory.json").read_text())
    assert list(rows) == ["rows"] and len(rows["rows"]) == 40
    assert all(list(row) == names for row in rows["rows"])
    assert [row["epoch"] for row in rows["rows"]] == list(range(40))


def test_splits_command(tmp_path, capsys):
    out = tmp_path / "splits"
    assert run(["splits", "--graph", "grid", "--nodes", "100",
                "--feat-dim", "4", "--noise-sigma", "0.5",
                "--data-seed", "1", *FAST_TRAIN, "--ratios", "0.5,0.25,0.25",
                "--kinds", "random,degree",
                "--out", str(out), "--no-timestamp"]) == 0
    rows = (out / "splits.csv").read_text().strip().split("\n")
    assert len(rows) == 3
    # every strategy re-splits at --ratios, not at the default
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["random", "degree"]
    assert all(line.endswith("train=50") for line in lines)


def test_report_aggregates_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _train(a) == 0
    assert _train(b, extra=["--seed", "1"]) == 0
    capsys.readouterr()
    out = tmp_path / "summary"
    assert run(["report", "--inputs", str(a / "metrics.csv"),
                str(b / "metrics.csv"), "--out", str(out),
                "--no-timestamp"]) == 0
    assert "aggregated 6 rows" in capsys.readouterr().out
    rows = (out / "summary.csv").read_text().strip().split("\n")
    assert len(rows) >= 2
    assert "picp_mean" in rows[0]


def test_report_rejects_short_rows(tmp_path, capsys):
    a = tmp_path / "a"
    assert _train(a) == 0
    metrics = a / "metrics.csv"
    lines = metrics.read_text().splitlines()
    metrics.write_text("\n".join(lines[:2] + ["x,y,z"] + lines[2:]) + "\n")
    capsys.readouterr()
    assert run(["report", "--inputs", str(metrics),
                "--out", str(tmp_path / "summary")]) == 2
    assert f"{metrics}:3: expected at least 12 columns, got 3" \
        in capsys.readouterr().err


def test_report_rejects_non_numeric_cells(tmp_path, capsys):
    a = tmp_path / "a"
    assert _train(a) == 0
    metrics = a / "metrics.csv"
    header, first, *rest = metrics.read_text().splitlines()
    names, cells = header.split(","), first.split(",")
    for name, bad in (("lambda", "x0.05"), ("mpe", "abc")):
        i = names.index(name)
        metrics.write_text("\n".join(
            [header, ",".join(cells[:i] + [bad] + cells[i + 1:]), *rest])
            + "\n")
        capsys.readouterr()
        assert run(["report", "--inputs", str(metrics),
                    "--out", str(tmp_path / "summary")]) == 2
        assert f"{metrics}:2: {name} cell {bad!r} is not a number" \
            in capsys.readouterr().err
        assert not (tmp_path / "summary").exists()


def test_ablate_and_robust_small(tmp_path):
    out = tmp_path / "abl"
    assert run(["ablate", *FAST_DS, *FAST_TRAIN, "--seeds", "0,1",
                "--out", str(out), "--no-timestamp"]) == 0
    rows = (out / "ablation.csv").read_text().strip().split("\n")[1:]
    assert len(rows) == 12  # 6 settings x 2 seeds
    assert (out / "ablation_summary.csv").exists()

    out2 = tmp_path / "rob"
    assert run(["robust", *FAST_DS, *FAST_TRAIN,
                "--out", str(out2), "--no-timestamp"]) == 0
    header = (out2 / "robustness.csv").read_text().split("\n")[0]
    assert header.endswith(",coverage_retention,width_growth")


def test_shift_options_default_to_shift_matrix_defaults(monkeypatch):
    """``qpignn shift`` restates none of ``shift_matrix``'s defaults:
    the parser reads them from its signature."""
    from qpignn import cli

    def shift_matrix(families=(), cfg=None, nodes=7, runs=2, data_seed=3,
                     family="kin", noise_sigma=0.5, feat_dim=4, jobs=1):
        raise AssertionError("not run")
    monkeypatch.setattr(cli, "shift_matrix", shift_matrix)
    args = cli.build_parser().parse_args(["shift", "--runs", "5"])
    assert (args.nodes, args.runs, args.data_seed, args.family,
            args.noise_sigma, args.feat_dim) == (7, 5, 3, "kin", 0.5, 4)
