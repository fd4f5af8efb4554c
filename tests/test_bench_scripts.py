"""The benchmark scripts under ``scripts/``: their driver end to end on
a stub case, and each script's cheapest real case in this process, so
that a change to the names they reach into shows here."""
import json
import subprocess
import sys
from pathlib import Path

import qpignn.diffkit as dk
import qpignn.harness as harness

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(SCRIPTS))

import bench_blas_threads  # noqa: E402
import bench_epoch  # noqa: E402
import bench_graph_construction  # noqa: E402

STUB = '''"""A stub benchmark: one case, whose digest its side's qpignn sets."""
import sys
sys.path.insert(0, {scripts!r})
import driver


def measure(name):
    import qpignn
    return {{"wall_s": 1.0, "digest": qpignn.DIGEST, "nodes": 3}}


if __name__ == "__main__":
    sys.exit(driver.main(__doc__, ("stub",), measure, __file__))
'''

# A side whose digest changes with every process that imports it.
COUNTING = '''from pathlib import Path
_count = Path(__file__).with_name("count")
DIGEST = _count.read_text() if _count.exists() else "0"
_count.write_text(str(int(DIGEST) + 1))
'''


def _side(root, label, init):
    pkg = root / label / "qpignn"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(init)
    return f"{label}={root / label}"


def _drive(root, *argv):
    stub = root / "stub.py"
    stub.write_text(STUB.format(scripts=str(SCRIPTS)))
    return subprocess.run([sys.executable, str(stub), *argv],
                          capture_output=True, text=True, timeout=120)


def test_driver_alternates_the_sides_and_summarises_each(tmp_path):
    a = _side(tmp_path, "a", 'DIGEST = "x"\n')
    b = _side(tmp_path, "b", 'DIGEST = "x"\n')
    proc = _drive(tmp_path, a, b, "--repeats", "3")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["baseline"] == "a" and out["sides"] == ["a", "b"]
    assert out["order"] == [[0, "stub", "a"], [0, "stub", "b"],
                            [1, "stub", "b"], [1, "stub", "a"],
                            [2, "stub", "a"], [2, "stub", "b"]]
    case = out["cases"]["stub"]
    assert case["same_digest"] is True
    assert case["sides"]["b"] == {
        "wall_s": {"min": 1.0, "median": 1.0, "n": 3}, "digest": "x",
        "nodes": 3}
    assert case["median_ratio"] == {"b": {"wall_s": 1.0}}


def test_driver_reports_digest_mismatches(tmp_path):
    a = _side(tmp_path, "a", 'DIGEST = "x"\n')
    b = _side(tmp_path, "b", 'DIGEST = "y"\n')
    proc = _drive(tmp_path, a, b, "--repeats", "1")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["cases"]["stub"]["same_digest"] is False

    c = _side(tmp_path, "c", COUNTING)
    proc = _drive(tmp_path, a, c, "--repeats", "2")
    assert proc.returncode == 1
    assert "stub c: its repeats disagree on digest" in proc.stderr
    case = json.loads(proc.stdout)["cases"]["stub"]
    assert case["same_digest"] is False
    assert case["sides"]["c"]["digest"] == ["0", "1"]


def test_driver_refuses_bad_sides_and_cases(tmp_path):
    a = _side(tmp_path, "a", 'DIGEST = "x"\n')
    for argv in ([a, a], [f"b={tmp_path}"], ["nolabel"],
                 [a, "--cases", "stub,stub"], [a, "--cases", "other"],
                 [a, "--repeats", "0"]):
        proc = _drive(tmp_path, *argv)
        assert proc.returncode == 2 and not proc.stdout, argv


def test_graph_construction_er2k():
    row = bench_graph_construction.measure("er2k")
    assert set(row) == {"gen_s", "validate_s", "split_s", "build_s",
                        "digest", "nodes", "edges", "peak_rss_mb"}
    assert row["nodes"] == 2000 and row["build_s"] > 0


def test_blas_threads_dropout():
    row = bench_blas_threads.measure("dropout")
    assert set(row) == {"forward_ms", "backward_ms", "minflt_per_call"}
    assert row["forward_ms"] > 0 and row["backward_ms"] > 0


def test_epoch_er2k_and_its_timers_are_removed():
    bindings = (harness.forward_intervals, harness._epoch_loss, dk.backward,
                harness.grad_norm, harness.adam_step)
    row = bench_epoch.measure("er2k")
    assert set(row) == {"epoch_ms", "minflt_per_epoch", "forward_ms",
                        "loss_ms", "backward_ms", "adam_ms", "eval_ms",
                        "eval_minflt_per_call", "digest", "eval_digest",
                        "mc_s", "mc_digest", "epochs", "nodes",
                        "train_peak_rss_mb", "peak_rss_mb"}
    assert row["epochs"] == 150 and row["nodes"] == 2000 and row["mc_s"] > 0
    assert 0 < row["train_peak_rss_mb"] <= row["peak_rss_mb"]
    assert all(row[k] > 0 for k in bench_epoch.PHASES)
    assert (harness.forward_intervals, harness._epoch_loss, dk.backward,
            harness.grad_norm, harness.adam_step) == bindings
