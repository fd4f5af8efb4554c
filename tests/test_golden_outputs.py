"""Byte-level regression guard for every CLI command.

Each case runs one tiny command and pins the sha256 of every file it
writes, or of its stdout for ``theory``.  Refactors that must leave the
outputs unchanged keep this file green untouched; a deliberate output
change re-freezes only the entries it moves and records why in
CHANGES.md.
"""
import hashlib
from pathlib import Path

import pytest

from qpignn.cli import run

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
    "eval": ["eval", *DS, "--checkpoint", "ckpt/checkpoint.json",
             "--no-timestamp"],
    "sweep_grid": ["sweep", *DS, *TRAIN, "--grid", "0.1,0.5"],
    "sweep_tune": ["sweep", *DS, *TRAIN, "--tune", "--budget", "3"],
    "ablate": ["ablate", *DS, *TRAIN, "--seeds", "0"],
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
            "bcb04edae2fe852893a841d22b3ffcf7a48b8b0810584e7559f228d3363dd52e",
        "ablation_summary.csv":
            "d88ff870c491c0c312d072b983b57ab041c04119048d09070cfcccca4c7bcdad",
        "config.json":
            "1ff6f49a50e404a502bf3847035fab40ccc3b9e6bc80ca412f92a03ffb303949",
    },
    "eval": {
        "config.json":
            "ad0be633823bae1b464faf927f15b789dae1a72563a6491d8c1e26e729d7c488",
        "metrics.csv":
            "13c7eb681c3488547f0338fc8722ca11ed3a9fa8312772ddf659f61a35d3213d",
    },
    "robust": {
        "config.json":
            "8d86c5c8c710d149736cecffcedf17c22274913f7472ee5fa836bfea4da9c28f",
        "robustness.csv":
            "4bdb60079d5cbf0ae9d4ebcf40f28d3f1568958f28fc0822e1eb1060b5983c50",
    },
    "shift": {
        "config.json":
            "19bc0bc0ad22bafa5b3bf44830d7023536455f642642279b04eb775e12ae7181",
        "shift.csv":
            "9a7f69e068bc4423976b87e787724add1ed2fe7f9911ea626dc815922ebe049d",
    },
    "splits": {
        "config.json":
            "469407b3ef8ebf477eb9ebf23a225dc5489b84e47c4371c52af5eede3d198ec4",
        "splits.csv":
            "e770a0b4d0613b7cc1833499f9abccced60ae7aaa0dc099a0f3a94627e18f518",
    },
    "sweep_grid": {
        "config.json":
            "91ed10c52ff055a8448603c3f173a614519a9d94e8fbdf15561fdec68ac65c24",
        "sweep.csv":
            "5bd0654de9cf6d8aed7f772dba86a9f27dcfdd95ba6e0956e6236f53cdc92933",
    },
    "sweep_tune": {
        "config.json":
            "aa174fbe844ae2047bfe07f929b05598eb6bc10938f49dac09e44d3443411e7b",
        "sweep.csv":
            "36a081477a78cf56844d66351f20a5e1363665b01f637cdb596b6b09b91da8b5",
    },
    "train_csv": {
        "checkpoint.json":
            "b0a74963fa3c6abd5125dfce38726d5386ecb0b150856e5c4a67867aa2379e3f",
        "config.json":
            "d08266f098005d896bbd299184ccb76c143da986db50948965dc88254c484140",
        "metrics.csv":
            "5ebe79f14f18a110d66bf81622a5feba38a211d6ef8ea1c9a5a6d857b8bf0e51",
        "trajectory.csv":
            "d331d070f8e5ae090cb2a8a1cc5e921d0770a3303cf494c150267b013d2c5700",
    },
    "train_json": {
        "checkpoint.json":
            "b0a74963fa3c6abd5125dfce38726d5386ecb0b150856e5c4a67867aa2379e3f",
        "config.json":
            "80993751d0a3c414825953ff79b0bb641835d7397ac5ad34d2802c566dadb03b",
        "metrics.json":
            "2343ee3deec710668f84fa1ae3ce1d8361917d5164af079eebe01b2de9384766",
        "trajectory.csv":
            "d331d070f8e5ae090cb2a8a1cc5e921d0770a3303cf494c150267b013d2c5700",
    },
    "train_mse_mcdropout": {
        "checkpoint.json":
            "2e06dc21370b3907407ff72b576db03c3ebb9ccb23effaec7c1f514ad4e217a2",
        "config.json":
            "271ed2e7927cdb70872b9c61d876921a0a37df72356f295386b20256ef9e9e06",
        "metrics.csv":
            "b99f34f469d6d4de58e66a8a97b5fd576ab768fd9506a26159ff0a1ac4a0c9a3",
        "trajectory.csv":
            "e1bfebaa16d58b07dfc9fdd9bccfe61997bfaf45c5c18ce9e0b007eb057b48ca",
    },
    "train_rqr_adj": {
        "checkpoint.json":
            "61e6c619a6facd8d5fa7da403dc07a5a725fbe0003eda48a732e22b5209c11c6",
        "config.json":
            "697b13bde57988993cb10481e1db71c4ffcba3b6e963734817bfb9125fa27baf",
        "metrics.csv":
            "7f78ec06d366a173e395aa8bae7a146e61990c03c4590c67cf7c1fc64a49d35e",
        "trajectory.csv":
            "882acfc7a32d244047201b07047509f111a19fb152f15b4ee309d7cce9233649",
    },
    "train_sqr": {
        "checkpoint.json":
            "f72780b201d831fc49ed63a08550397ca683a1aa54e91b5b4c209530239978e6",
        "config.json":
            "094d8589c52b4ac09f44f2570da5593388568a9683d12d8a9cf764bb1fb12540",
        "metrics.csv":
            "c1ce68bc3066e924f31114b149b77fce4eef3e6b9fbea4dee7f698e823039c7c",
        "trajectory.csv":
            "18eb583ec19bd8e6d0b32a640e9e642cb0ac734af92abec827d03ddb95294502",
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
