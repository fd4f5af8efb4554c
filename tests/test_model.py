"""Encoder, head variants, MC dropout, and checkpointing."""
import numpy as np
import pytest

import qpignn as q
from qpignn import diffkit as dk
from qpignn.errors import ContractError, ParameterError
from qpignn.model import (ModelConfig, forward_intervals, init_model,
                          interval_from_mc_samples, mc_dropout_interval,
                          save_checkpoint, load_checkpoint)
from qpignn.rng import keyed_rng


def _features(n, d, tag="x"):
    return keyed_rng(0, tag).standard_normal((n, d))


@pytest.mark.parametrize("variant",
                         ("dual", "fixed_margin", "single", "sqr", "rqr"))
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
    halfwidth-based variants.  single/rqr emit raw bound columns and may
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
    w = iv.widths()
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


def test_training_mode_dropout_changes_output(ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual",
                                   dropout_p=0.5), 0)
    x = _features(6, 3)
    eval_iv = forward_intervals(model, ring6, x, train_mode=False)
    train_iv = forward_intervals(model, ring6, x, train_mode=True, seed=1)
    assert not np.array_equal(eval_iv.low_values, train_iv.low_values)
    # same seed reproduces the same masks
    again = forward_intervals(model, ring6, x, train_mode=True, seed=1)
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
    from qpignn.errors import ShapeError
    from qpignn.model import IntervalSet
    tape = dk.Tape()
    low = tape.leaf(np.zeros((6, 1)))
    bad = tape.leaf(np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        IntervalSet(low, bad)


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
    assert (iv.widths() >= 0).all()
    again = mc_dropout_interval(ring6, x, model, passes=40, dropout_p=0.3,
                                t_mult=1.6449, seed=9)
    assert np.array_equal(iv.low_values, again.low_values)
    with pytest.raises(ParameterError):
        mc_dropout_interval(ring6, x, model, passes=1)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path, ring6):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual",
                                   dropout_p=0.2), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.config == model.config
    for name in model.params.names():
        np.testing.assert_array_equal(back.params.value(name),
                                      model.params.value(name))
    x = _features(6, 3)
    a = forward_intervals(model, ring6, x)
    b = forward_intervals(back, ring6, x)
    assert np.array_equal(a.low_values, b.low_values)


def test_checkpoint_rejects_tampering(tmp_path):
    import json
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    payload["params"]["pred.weight"]["shape"] = [2, 2]
    path.write_text(json.dumps(payload))
    with pytest.raises((ContractError, q.IngestionError)):
        load_checkpoint(path)


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
        load_checkpoint(path)
