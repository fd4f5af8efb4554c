"""Byte-level regression guard for every CLI command.

Each case runs one tiny command and pins the sha256 of every file it
writes, or of its stdout for ``theory``.  Refactors that must leave the
outputs unchanged keep this file green untouched; a deliberate output
change re-freezes only the entries it moves and records why in
CHANGES.md.  The same tiny commands also check that a table's JSON
holds exactly its CSV columns and rows.
"""
import csv
import hashlib
import json
from pathlib import Path

import pytest

from qpignn.cli import run
from qpignn.harness import RunRecord

DS = ["--nodes", "100", "--feat-dim", "4", "--noise-sigma", "0.5",
      "--data-seed", "1"]
TRAIN = ["--epochs", "4", "--hidden", "8", "--no-timestamp"]

COMMANDS = {
    "train_csv": ["train", *DS, *TRAIN],
    "train_json": ["train", *DS, *TRAIN, "--format", "json"],
    "train_sqr": ["train", *DS, *TRAIN, "--loss", "sqr"],
    "train_rqr_adj": ["train", *DS, *TRAIN, "--loss", "rqr_adj"],
    "train_mse_mcdropout": ["train", *DS, *TRAIN, "--loss", "mse_mcdropout",
                            "--mc-passes", "3"],
    "train_rqr_adj_dual": ["train", *DS, *TRAIN, "--loss", "rqr_adj",
                           "--variant", "dual"],
    "train_rqr_adj_fixed_margin": ["train", *DS, *TRAIN, "--loss", "rqr_adj",
                                   "--variant", "fixed_margin"],
    "train_width_only_single": ["train", *DS, *TRAIN, "--loss", "width_only",
                                "--variant", "single"],
    "train_mse_only": ["train", *DS, *TRAIN, "--loss", "mse_only"],
    "train_smooth_l2": ["train", *DS, *TRAIN, "--smooth-coverage",
                        "--width-norm", "l2"],
    "eval": ["eval", *DS, "--checkpoint", "ckpt/checkpoint.json",
             "--no-timestamp"],
    "sweep_grid": ["sweep", *DS, *TRAIN, "--grid", "0.1,0.5"],
    "sweep_tune": ["sweep", *DS, *TRAIN, "--tune", "--budget", "3"],
    "ablate": ["ablate", *DS, *TRAIN, "--seeds", "0"],
    "ablate_json": ["ablate", *DS, *TRAIN, "--seeds", "0",
                    "--format", "json"],
    "robust": ["robust", *DS, *TRAIN],
    "splits": ["splits", *DS, *TRAIN, "--graph", "grid"],
    "shift": ["shift", "--nodes", "100", "--runs", "1", *TRAIN],
    "ablate_jobs2": ["ablate", *DS, *TRAIN, "--seeds", "0", "--jobs", "2"],
    "robust_jobs2": ["robust", *DS, *TRAIN, "--jobs", "2"],
}

THEORY = ("hoeffding", "mcdiarmid", "halfwidth", "concentration")

GOLDEN = {
    "ablate": {
        "ablation.csv":
            "de8873d84f1985a10f9f7e7500c92d340b6fd7d91471adf6745cc639e6d7ed11",
        "ablation_summary.csv":
            "a6782ad574bd62aef7d494fb34179cf28cb6704f99cd7a4d8b083eaadb935ea9",
        "config.json":
            "1ff6f49a50e404a502bf3847035fab40ccc3b9e6bc80ca412f92a03ffb303949",
    },
    "ablate_json": {
        "ablation.json":
            "9886317b8d0f723a02326cd72b020c56b45a3e7d3d09a345ecadb00a1ab0e972",
        "ablation_summary.json":
            "5eaecf37038a590083e0f8ca995089f3616ca5c1f827873c6923fa4c259e0d29",
        "config.json":
            "39e3df3386173481256b3c5c52ec7cbf437f3b3cc4380d364399eff8ffbab8b4",
    },
    "eval": {
        "config.json":
            "c3899ae729642b3d1a6f05240e492d2b601a15ca1c1af8052fb8945020b7b9f1",
        "metrics.csv":
            "a02b81e494663256f87395c4b61ba92869e226856c22d6b62d9eb16399ac121c",
    },
    "robust": {
        "config.json":
            "8d86c5c8c710d149736cecffcedf17c22274913f7472ee5fa836bfea4da9c28f",
        "robustness.csv":
            "d4d0ec4ff0c233e7668bc05e4426da42feaa9cbce2225fdcfea59a5d7346b8ea",
    },
    "shift": {
        "config.json":
            "19bc0bc0ad22bafa5b3bf44830d7023536455f642642279b04eb775e12ae7181",
        "shift.csv":
            "e8843af134fb6851b5a53324ab27e303d73197e73b1163963d7646e47d50b03e",
    },
    "splits": {
        "config.json":
            "469407b3ef8ebf477eb9ebf23a225dc5489b84e47c4371c52af5eede3d198ec4",
        "splits.csv":
            "778e06f2da27883c72ff31081a6c8015e4ef1e38757a0d8142dabacc5f20c04d",
    },
    "sweep_grid": {
        "config.json":
            "91ed10c52ff055a8448603c3f173a614519a9d94e8fbdf15561fdec68ac65c24",
        "sweep.csv":
            "ddf09509bfd663e63ed919a91d9fc432e9d41791eb4a5cf402c659bf0771e1dd",
    },
    "sweep_tune": {
        "config.json":
            "aa174fbe844ae2047bfe07f929b05598eb6bc10938f49dac09e44d3443411e7b",
        "sweep.csv":
            "69982f6be5835c91a0ed99b4c59d6a92baf80007f2b88d6d01f02ff470cb3bf7",
    },
    "train_csv": {
        "checkpoint.json":
            "eadb4f99858d752c552f03113894865e7e208149b2c5bd76ba3a6519652628a5",
        "config.json":
            "eba98bab53dd262dc3daaafd55c4ef45f501e8d694ad1ba9afdb65c167d4195d",
        "metrics.csv":
            "f9b9eacab0164cd9211603ca023b52ed4a578b1b0ef4c10e423d35f9e40acffe",
        "trajectory.csv":
            "50aadfceb20b295344092a248f4beb0225a09e27ed67e8431cccbf7117fe1007",
    },
    "train_json": {
        "checkpoint.json":
            "eadb4f99858d752c552f03113894865e7e208149b2c5bd76ba3a6519652628a5",
        "config.json":
            "2454647ae8d30e2167ae799b06a93717fa9497d1b47db485454a2d4f9f4a0a5c",
        "metrics.json":
            "75fff4e9e55f0a2e062fcf7811411b3d1d091f0b029a6c1934a11a93175d473a",
        "trajectory.json":
            "eb45355ad0ea4e01357ba01229ea67f35b723173f8a7598a95fe855f87357480",
    },
    "train_mse_mcdropout": {
        "checkpoint.json":
            "3dc72486a798246e28ed53ce79ff1c547a1fd6cd40ef2a1548d3ca17b5bc51e4",
        "config.json":
            "5543770d3feb1256c2ee08a550a22e0ec1b1906f052625fd253bd4ad71b82b16",
        "metrics.csv":
            "085b3f98b8dcd9f28b87e7a60108a086a1895a9ff88745f70134075c953212fd",
        "trajectory.csv":
            "c85eaab1172bca8dd5c488c486db01f7c30befa20a802d7d3585d1108668fed8",
    },
    "train_mse_only": {
        "checkpoint.json":
            "fc3f0f7b29b20d2ba5842e36a52e8e10efb413d2d0fdc8f68dfd6ec93db5bea8",
        "config.json":
            "2de33048e4732fba21ab0b30df1d8831554c4e8c495c872cbbb1061eeb3142c4",
        "metrics.csv":
            "808bb9c0e6940ab12ba479bb9f996239c685f664b6299e4039e37d62093d1899",
        "trajectory.csv":
            "c85eaab1172bca8dd5c488c486db01f7c30befa20a802d7d3585d1108668fed8",
    },
    "train_rqr_adj": {
        "checkpoint.json":
            "22e5926a401fec547f2ad469f41f2a624241e2b9be6ad92d630ced52ccca496c",
        "config.json":
            "7a6e487f8a3b5716e46eab0e3f70332cc68fc7501424c22f41cd94d24061bdc4",
        "metrics.csv":
            "ed2035da63bb7487c124318e922d43c73f4e53392c1bd9308ba170ea95bc305d",
        "trajectory.csv":
            "696ddb64eb4875760b5d36eaa85165bd42dbb6f4162c98ac73e936a029889fde",
    },
    "train_rqr_adj_dual": {
        "checkpoint.json":
            "06e95654fd4d8d96c771c9213fd12b7dce073cf9b090739f889cf4d0072f7c88",
        "config.json":
            "660f9665d26094e5c04cce7b603a838b58698ac6f1f2669455f1d1d827f487d1",
        "metrics.csv":
            "a7236e49a2786478870ab674d73a91f31b1cc26e4148757fb4dc05dda8e5c86a",
        "trajectory.csv":
            "c4e5e0c3cd8858b86eee9d039f6eef582b2396714f609d2b54a534398757dad9",
    },
    "train_rqr_adj_fixed_margin": {
        "checkpoint.json":
            "e11eb51151b115b32086413bacc6ebab1a283f5ddc8e3e790b496dd73341970b",
        "config.json":
            "5ae7163f209a12be26dafed62214b8f5841b8a60ab837d778cc456d0216c8db5",
        "metrics.csv":
            "5c15efd7486f09f419b5668336e17fe45ef3b6faa8b3fade668c83fbec359626",
        "trajectory.csv":
            "0f9135c9e73424da3fa1d273175b5d0114f1f7d320ad5310d2a1712b08aed545",
    },
    "train_smooth_l2": {
        "checkpoint.json":
            "706f3bec96d9b7fe6f08034500c2eee7170504fa3c9c1f2d6a69d3a845041d83",
        "config.json":
            "05573cf408edff06ceb3cf239271bf5e4162d74f98dbee37e69421ea8ab1a7e4",
        "metrics.csv":
            "e18f777fd455c7a8b6aeb94e2c23cfb38f9fca7c6d3b854678af6625706cae33",
        "trajectory.csv":
            "32204981e4b6615fe1881ed94b0d0dd806c12548567c7a6faeed097cb55d026d",
    },
    "train_sqr": {
        "checkpoint.json":
            "f090a5bbe53a59198f06b5b5269cfa196dc001554e03bb1f14c05a0ddd7796da",
        "config.json":
            "fdc9e4be3826c247c51c5d561b46949df6dd11f7a8f12b68975766dbac7218f8",
        "metrics.csv":
            "47bd0e6d202cb77cff9d6ab69969c98c3bc5a7bbe3571ab478049e3a594ede4f",
        "trajectory.csv":
            "fe25b4a1e63685cc3fba308f106e20f4f88331e7430b6be295760c8adbe8bed0",
    },
    "train_width_only_single": {
        "checkpoint.json":
            "091b994c5636ae2a0d24c1748510759c6a532859514e317bdcd70413c9db2c8f",
        "config.json":
            "2ee81b5dca54be6d7049d725e7dced254584257da713d94c04510319b812416e",
        "metrics.csv":
            "8e9387a94237e41a00780ca838410cb2dd750fc0fa8d7c7b8955cc90a5750fb1",
        "trajectory.csv":
            "515e304e42866687e2f86cca7833a4b65b11d7749e803637b48d0f715512afbf",
    },
}

# A worker pool writes the same tables as inline training; only the
# echoed --jobs value in config.json differs.
GOLDEN["ablate_jobs2"] = {
    **GOLDEN["ablate"],
    "config.json":
        "76ae1babe0e1ad6e2dbf4fbd297d676f4439bbb29453b041f5d03516c10561a7",
}
GOLDEN["robust_jobs2"] = {
    **GOLDEN["robust"],
    "config.json":
        "5a5b7f87d798ed9cd5a230eebe77788cca349302d8d74d7c0a7ed802bbb82933",
}

GOLDEN_THEORY = {
    "concentration":
        "9b0cf9d3fb3e393ffd8b16731b017bb6ad2cdf745e60ce8d21b1e90242b19a1f",
    "halfwidth":
        "7560b034dc3b0844e12b6196e9dcca9cdfc1bc5dc95646cab29766efed3bdb9b",
    "hoeffding":
        "9e9ad03d3426b791019f59c33d0bf72c6e20dd9b9cbeac4e6e9608f625d85f82",
    "mcdiarmid":
        "d9875684e2babc8d9ebe0b22448a2e5e8e76bd2c5ae986fe9798b0d9dedba880",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def command_digests(case: str, workdir: Path) -> dict[str, str]:
    """Run one case inside ``workdir``; sha256 of each file it wrote."""
    if case == "eval":
        assert run(["train", *DS, *TRAIN, "--out", "ckpt"]) == 0
    out = workdir / case
    assert run([*COMMANDS[case], "--out", case]) == 0
    return {p.relative_to(out).as_posix(): _sha(p.read_bytes())
            for p in sorted(out.rglob("*")) if p.is_file()}


def theory_digest(check: str, capsys) -> str:
    assert run(["theory", "--check", check]) == 0
    return _sha(capsys.readouterr().out.encode())


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_command_outputs_are_frozen(case, tmp_path, monkeypatch):
    # Relative --out and --checkpoint paths keep config.json independent
    # of the temporary directory.
    monkeypatch.chdir(tmp_path)
    assert command_digests(case, tmp_path) == GOLDEN[case]


@pytest.mark.parametrize("check", THEORY)
def test_theory_stdout_is_frozen(check, capsys):
    assert theory_digest(check, capsys) == GOLDEN_THEORY[check]


# Cells written at a fixed precision; every other cell is ``str`` of its
# value, which for a float is its round-tripping repr.
_STATS = {f"{f}_{stat}": ".10g" for f in ("picp", "mpiw", "cwc")
          for stat in ("mean", "std")}
FIXED_CELLS = {
    "sweep": {"level": ".10g"},
    "robustness": {"level": "g", "coverage_retention": ".10g",
                   "width_growth": ".10g"},
    "shift": {"picp": ".10g", "mpiw": ".10g", "lambda": "g"},
    "summary": _STATS,
    "ablation_summary": _STATS,
    "trajectory": {name: ".10g" for name in RunRecord.TRAJECTORIES},
}
TABLE_CASES = ("train_csv", "eval", "sweep_grid", "ablate", "robust",
               "splits", "shift", "report")


def _no_bare_constant(token):
    raise AssertionError(f"bare {token} in JSON output")


@pytest.mark.parametrize("case", TABLE_CASES)
def test_json_holds_the_csv_table(case, tmp_path, monkeypatch):
    """``--format json`` writes each table's CSV columns and rows."""
    monkeypatch.chdir(tmp_path)
    if case in ("eval", "report"):
        assert run(["train", *DS, *TRAIN, "--out", "ckpt"]) == 0
    if case == "report":
        assert run([*COMMANDS["eval"], "--out", "evaluated"]) == 0
        argv = ["report", "--inputs", "ckpt/metrics.csv",
                "evaluated/metrics.csv", "--no-timestamp"]
    else:
        argv = COMMANDS[case]
    assert run([*argv, "--out", "csv"]) == 0
    assert run([*argv, "--format", "json", "--out", "json"]) == 0

    assert not list(Path("json").glob("*.csv"))
    tables = sorted(p.stem for p in Path("json").glob("*.json")
                    if p.stem not in ("config", "checkpoint"))
    assert tables == sorted(p.stem for p in Path("csv").glob("*.csv"))
    nulls = 0
    for stem in tables:
        with open(f"csv/{stem}.csv", newline="") as fh:
            header, *lines = csv.reader(fh)
        rows = json.loads(Path(f"json/{stem}.json").read_text(),
                          parse_constant=_no_bare_constant)["rows"]
        assert len(rows) == len(lines)
        fixed = FIXED_CELLS.get(stem, {})
        for row, cells in zip(rows, lines):
            assert list(row) == header
            for name, cell in zip(header, cells):
                value = row[name]
                if value is None:
                    nulls += 1
                    assert cell in ("nan", "inf", "-inf"), (stem, name)
                elif isinstance(value, str):
                    assert value == cell, (stem, name)
                else:
                    assert cell == format(value, fixed.get(name, "")), \
                        (stem, name)
    if case == "eval":
        assert nulls == 3  # the NaN lambda of each mask's row
    if case == "report":
        # the evaluated rows' NaN lambda, and the trained rows' number
        assert nulls == 1
        summary = json.loads(Path("json/summary.json").read_text())["rows"]
        assert [row["lambda"] for row in summary] == [0.05, None]
    if case == "ablate":
        assert tables == ["ablation", "ablation_summary"]
    if case == "train_csv":
        assert tables == ["metrics", "trajectory"]
