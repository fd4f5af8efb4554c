"""Encoder, head variants, MC dropout, and checkpointing."""
import hashlib
import platform
import sys
import tracemalloc

import numpy as np
import pytest

import qpignn as q
from qpignn import diffkit as dk
from qpignn.diffkit import Tape
from qpignn.errors import ContractError, ParameterError, ShapeError
from qpignn.model import (ModelConfig, forward_intervals, init_model,
                          interval_from_mc_samples, mc_dropout_interval,
                          read_checkpoint, save_checkpoint)
from qpignn.rng import keyed_rng


def _features(n, d, tag="x"):
    return keyed_rng(0, tag).standard_normal((n, d))


@pytest.mark.parametrize("variant", ("dual", "fixed_margin", "single", "sqr"))
def test_forward_shapes(ring6, variant):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant=variant), 0)
    iv = forward_intervals(model, ring6, _features(6, 3))
    assert len(iv) == 6
    assert iv.low_values.shape == (6,)
    assert iv.up_values.shape == (6,)
    assert np.isfinite(iv.low_values).all() and np.isfinite(iv.up_values).all()


@pytest.mark.parametrize("variant", ("dual", "fixed_margin"))
def test_interval_heads_never_cross(ring6, variant):
    """Widths go through softplus, so low <= up by construction for the
    halfwidth-based variants.  single emits raw bound columns and may
    cross; ordering there is the loss's job."""
    for seed in range(5):
        model = init_model(ModelConfig(in_dim=3, hidden=4, variant=variant),
                           seed)
        iv = forward_intervals(model, ring6, _features(6, 3, f"x{seed}"))
        assert (iv.low_values <= iv.up_values).all()


def test_fixed_margin_width_is_constant(ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4,
                                   variant="fixed_margin"), 1)
    iv = forward_intervals(model, ring6, _features(6, 3))
    w = iv.up_values - iv.low_values
    assert np.allclose(w, w[0])


def test_permutation_equivariance(ring6):
    """Relabelling the nodes permutes the outputs and nothing else."""
    x = _features(6, 3)
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 2)
    base = forward_intervals(model, ring6, x)

    perm = np.array([3, 0, 5, 1, 4, 2])
    inv = np.argsort(perm)
    pairs = ring6.edge_pairs()
    g2 = q.from_edges(6, [(perm[a], perm[b]) for a, b in pairs])
    out = forward_intervals(model, g2, x[inv])
    np.testing.assert_allclose(out.low_values[perm], base.low_values,
                               atol=1e-10)
    np.testing.assert_allclose(out.up_values[perm], base.up_values,
                               atol=1e-10)


def test_init_is_deterministic_per_seed():
    cfg = ModelConfig(in_dim=3, hidden=4, variant="dual")
    a, b, c = init_model(cfg, 7), init_model(cfg, 7), init_model(cfg, 8)
    for name in a.params.names():
        assert np.array_equal(a.params.value(name), b.params.value(name))
    assert any(not np.array_equal(a.params.value(n), c.params.value(n))
               for n in a.params.names())


def test_forward_is_pure(ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 0)
    x = _features(6, 3)
    a = forward_intervals(model, ring6, x)
    b = forward_intervals(model, ring6, x)
    assert np.array_equal(a.low_values, b.low_values)


def _first_step_holds(tape: Tape, arr: np.ndarray) -> bool:
    return any(cell.cell_contents is arr
               for cell in tape._steps[0].__closure__)


def test_taped_forward_reads_the_features_uncopied(ring6, monkeypatch):
    """Layer 1's step keeps its input for W_self's gradient: for
    ``dual`` the caller's own feature array, for ``sqr`` the x||tau
    stack it made, not a copy that lives as long as the tape."""
    x = _features(6, 3)
    tape = Tape()
    model = init_model(ModelConfig(in_dim=3, hidden=4), 0)
    forward_intervals(model, ring6, x, tape=tape)
    assert _first_step_holds(tape, x)
    hstack, stacks = np.hstack, []

    def recorded(arrays):
        stacks.append(hstack(arrays))
        return stacks[-1]
    monkeypatch.setattr(np, "hstack", recorded)
    tape = Tape()
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="sqr"), 0)
    forward_intervals(model, ring6, x, tape=tape)
    assert len(stacks) == 2 and _first_step_holds(tape, stacks[0])


def test_training_mode_dropout_changes_output(ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual",
                                   dropout_p=0.5), 0)
    x = _features(6, 3)
    eval_iv = forward_intervals(model, ring6, x)
    # a taped forward is the training forward, with dropout on
    train_iv = forward_intervals(model, ring6, x, tape=Tape(), seed=1)
    assert not np.array_equal(eval_iv.low_values, train_iv.low_values)
    # same seed reproduces the same masks
    again = forward_intervals(model, ring6, x, tape=Tape(), seed=1)
    assert np.array_equal(train_iv.low_values, again.low_values)


def test_sqr_eval_uses_the_alpha_quantile_pair(ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="sqr"), 0)
    x = _features(6, 3)
    a = forward_intervals(model, ring6, x, alpha=0.1)
    b = forward_intervals(model, ring6, x, alpha=0.5)
    assert len(a) == 6
    # a different miscoverage level moves the evaluated quantile pair
    assert not np.array_equal(a.low_values, b.low_values)


def test_interval_set_rejects_mismatched_bounds():
    from qpignn.model import IntervalSet
    tape = dk.Tape()
    low = tape.leaf(np.zeros((6, 1)))
    bad = tape.leaf(np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        IntervalSet(low, bad)


def test_encode_refuses_features_of_another_shape(ring6):
    params = init_model(ModelConfig(in_dim=3, hidden=4), 0).params.constants()
    with pytest.raises(ShapeError, match="5 feature rows for 6 nodes"):
        q.encode(ring6, dk.constant(_features(5, 3)), params)
    with pytest.raises(ShapeError, match="feature dim 2 vs encoder input 3"):
        q.encode(ring6, dk.constant(_features(6, 2)), params)


def test_model_config_validation():
    with pytest.raises(ParameterError):
        ModelConfig(in_dim=0, hidden=4)
    with pytest.raises(ParameterError):
        ModelConfig(in_dim=3, hidden=4, variant="nope")


# ---------------------------------------------------------------------------
# MC dropout
# ---------------------------------------------------------------------------

def test_interval_from_mc_samples_oracle():
    samples = keyed_rng(0, "mc").standard_normal((50, 8))
    t = 1.6449
    iv = interval_from_mc_samples(samples, t)
    mu = samples.mean(axis=0)
    sd = samples.std(axis=0, ddof=1)
    np.testing.assert_allclose(iv.low_values, mu - t * sd, atol=1e-12)
    np.testing.assert_allclose(iv.up_values, mu + t * sd, atol=1e-12)


def test_mc_dropout_interval_properties(ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual",
                                   dropout_p=0.3), 0)
    x = _features(6, 3)
    iv = mc_dropout_interval(ring6, x, model, passes=40, dropout_p=0.3,
                             t_mult=1.6449, seed=9)
    assert len(iv) == 6
    assert (iv.up_values >= iv.low_values).all()
    again = mc_dropout_interval(ring6, x, model, passes=40, dropout_p=0.3,
                                t_mult=1.6449, seed=9)
    assert np.array_equal(iv.low_values, again.low_values)
    with pytest.raises(ParameterError):
        mc_dropout_interval(ring6, x, model, passes=1)


def test_mc_dropout_interval_refuses_no_dropout(ring6):
    """Without dropout every pass is the same point: a zero-width
    interval that would read as certainty."""
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 0)
    with pytest.raises(ParameterError, match="dropout_p > 0"):
        mc_dropout_interval(ring6, _features(6, 3), model, passes=5,
                            dropout_p=0.0)


@pytest.mark.parametrize("bad", [
    {"passes": 2.5}, {"dropout_p": 1.0}, {"dropout_p": float("nan")},
    {"dropout_p": -0.1}, {"t_mult": -1.0}, {"t_mult": float("nan")},
    {"t_mult": float("inf")}],
    ids=["passes_2.5", "p_1", "p_nan", "p_neg", "t_neg", "t_nan", "t_inf"])
def test_mc_dropout_interval_refuses_bad_input_before_any_pass(
        ring6, monkeypatch, bad):
    """A negative t_mult would cross every interval and a NaN one give
    NaN bounds; each bad value is refused before a pass costs time."""
    model = init_model(ModelConfig(in_dim=3, hidden=4), 0)

    def no_pass(*args):
        raise AssertionError("a pass ran")
    monkeypatch.setattr(dk, "sage_relu", no_pass)
    with pytest.raises(ParameterError):
        mc_dropout_interval(ring6, _features(6, 3), model,
                            **{"passes": 5, **bad})


@pytest.mark.parametrize("t_mult", (-1.0, float("nan"), float("inf")))
def test_interval_from_mc_samples_refuses_bad_t_mult(t_mult):
    samples = keyed_rng(0, "mc").standard_normal((5, 8))
    with pytest.raises(ParameterError, match="t_mult"):
        interval_from_mc_samples(samples, t_mult)


@pytest.mark.parametrize("n, want", ((2000, "d7140cb4459d7b64"),
                                     (257, "7e9a6bb6b0964d2b")))
@pytest.mark.parametrize("threads", (1, 2))
def test_mc_dropout_interval_bytes_are_pinned(openblas, threads, n, want):
    """Five passes at dropout 0.2 on an untrained model keep these bytes
    at one and two BLAS threads: 2000 is the protocol graph, 257 rows end
    in a lone row after the 256-row blocks."""
    openblas.scipy_openblas_set_num_threads64_(threads)
    graph = q.gen_er(n, 8 / (n - 1), seed=1)
    x = _features(n, 8, "er2k" if n == 2000 else f"er{n}")
    iv = mc_dropout_interval(graph, x, init_model(ModelConfig(in_dim=8), 0),
                             passes=5, dropout_p=0.2, seed=3)
    digest = hashlib.sha256(np.concatenate([iv.low_values, iv.up_values])
                            .tobytes()).hexdigest()[:16]
    assert digest == want


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual",
                                   dropout_p=0.2), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    back = read_checkpoint(path)[0]
    assert back.config == model.config
    for name in model.params.names():
        np.testing.assert_array_equal(back.params.value(name),
                                      model.params.value(name))
    x = _features(6, 3)
    a = forward_intervals(model, ring6, x)
    b = forward_intervals(back, ring6, x)
    assert np.array_equal(a.low_values, b.low_values)


def test_checkpoint_keeps_mc_dropout_settings_only_when_given(tmp_path):
    model = init_model(ModelConfig(in_dim=3, hidden=4, dropout_p=0.2), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    assert "mc_dropout" not in path.read_text()
    assert read_checkpoint(path)[1] is None
    save_checkpoint(model, path, {"passes": 7, "seed": 2**64 - 1})
    back, mc = read_checkpoint(path)
    assert mc == {"passes": 7, "seed": 2**64 - 1}
    assert back.config == model.config


def test_checkpoint_rejects_tampering(tmp_path):
    import json
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["params"]["pred.weight"]["shape"] = [2, 2]
    path.write_text(json.dumps(payload))
    with pytest.raises((ContractError, q.IngestionError)):
        read_checkpoint(path)[0]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_checkpoint_rejects_non_finite_values(tmp_path, bad):
    import json
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["params"]["pred.weight"]["values"][1] = bad
    path.write_text(json.dumps(payload))  # writes NaN / Infinity literals
    with pytest.raises(ContractError, match="'pred.weight' is not finite"):
        read_checkpoint(path)[0]


def test_checkpoint_carries_format_version_1(tmp_path, ring6):
    import json
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    assert payload["format_version"] == 1
    # a checkpoint written before the field existed reads as version 1
    del payload["format_version"]
    path.write_text(json.dumps(payload))
    back = read_checkpoint(path)[0]
    x = _features(6, 3)
    assert np.array_equal(forward_intervals(back, ring6, x).low_values,
                          forward_intervals(model, ring6, x).low_values)


@pytest.mark.parametrize("version", [0, 2, "1", None, True, 1.0])
def test_checkpoint_rejects_other_format_versions(tmp_path, version):
    import json
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["format_version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(ContractError, match=f"format_version {version!r}"):
        read_checkpoint(path)[0]


@pytest.mark.skipif(sys.platform != "linux"
                    or platform.libc_ver()[0] != "glibc",
                    reason="the heap setting is glibc's")
def test_untaped_eval_on_the_20k_grid_reuses_freed_pages():
    """Each n x 64 array of the 141x142 grid is 10 MB.  With glibc's
    defaults every call faulted about 2,700 pages back in; with the heap
    kept, calls after the first reuse the pages the last one freed."""
    import resource
    graph = q.gen_grid(141, 142)
    x = _features(graph.num_nodes, 8, "grid-faults")
    model = init_model(ModelConfig(in_dim=8), 0)
    for _ in range(2):
        forward_intervals(model, graph, x)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        forward_intervals(model, graph, x)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 64, faults


@pytest.fixture(scope="module")
def er2k():
    """The 2000-node protocol graph, with its memoised mean-adjacency
    operator built, its features and an untrained model."""
    graph = q.gen_er(2000, 8 / 1999, seed=1)
    dk.mean_adjacency(graph)
    return graph, _features(2000, 8, "er2k"), init_model(ModelConfig(in_dim=8),
                                                          0)


def _peak_node_arrays(fn, nodes: int) -> float:
    """The tracemalloc peak of ``fn()``, in n x 64 float64 arrays."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (nodes * 64 * 8)


def test_untaped_eval_peak_memory_is_a_few_node_arrays(er2k):
    """About 3.07 arrays: 3.2 while ``forward_intervals`` copied the
    features; 4.1 while each layer made an ``agg @ W_neigh`` temporary
    and the first layer's output lived through the second."""
    graph, x, model = er2k
    peak = _peak_node_arrays(lambda: forward_intervals(model, graph, x),
                             graph.num_nodes)
    assert peak < 3.15, peak


def test_mc_dropout_peak_memory_is_a_few_node_arrays(er2k):
    """About 3.13 arrays over five passes, each one untaped ``encode``:
    3.26 while each call copied the features and each layer's ``A @ h``
    lived through its dropout's draw; 3.2 while the passes shared one
    first-layer output; 4.1 while each pass's second layer and its
    dropout allocated beside their dead inputs; 6.1 while each pass's
    encoder output lived through the next pass, beside a product
    temporary and each dropout's draws."""
    graph, x, model = er2k
    peak = _peak_node_arrays(
        lambda: mc_dropout_interval(graph, x, model, passes=5),
        graph.num_nodes)
    assert peak < 3.2, peak
