"""Reverse-mode engine: every primitive checked against central differences."""
import pickle
import weakref

import numpy as np
import pytest

from qpignn import diffkit as dk
from qpignn.diffkit import (ParamStore, Tape, backward, constant,
                            finite_diff_check)
from qpignn.errors import ContractError, ParameterError, ShapeError
from qpignn.graphcore import PerturbSpec, perturb
from qpignn.rng import keyed_rng


def _store(**arrays) -> ParamStore:
    ps = ParamStore()
    for name, arr in arrays.items():
        ps.add(name, arr)
    return ps


def _check(f, ps, tol=1e-6, h=1e-5):
    err = finite_diff_check(f, ps, h=h)
    assert err < tol, f"finite-difference mismatch: {err}"


def test_linear_chain_gradients():
    rng = keyed_rng(0, "dk-lin")
    ps = _store(w=rng.standard_normal((3, 4)), b=rng.standard_normal((1, 4)),
                u=rng.standard_normal((4, 1)))
    x = rng.standard_normal((5, 3))

    def f(params):
        tape = Tape()
        p = params.leaves(tape)
        h = dk.add_row_bias(dk.matmul(tape.leaf(x), p["w"]), p["b"])
        return dk.reduce_mean(dk.matmul(dk.relu(h), p["u"]))

    _check(f, ps)


def test_elementwise_ops_gradients():
    rng = keyed_rng(0, "dk-elem")
    ps = _store(a=rng.standard_normal((4, 3)), b=rng.standard_normal((4, 3)))

    def f(params):
        tape = Tape()
        p = params.leaves(tape)
        t = dk.mul(dk.sigmoid(p["a"]), dk.softplus(p["b"]))
        t = dk.add(t, dk.sub(p["a"], dk.scale(p["b"], 0.7)))
        return dk.reduce_mean(dk.add_scalar(t, 1.5))

    _check(f, ps)


def test_structured_ops_gradients(ring6):
    rng = keyed_rng(0, "dk-struct")
    ps = _store(w=rng.standard_normal((4, 2)))
    x = rng.standard_normal((6, 4))
    mask = np.array([1, 0, 1, 1, 0, 1], dtype=bool)

    def f(params):
        tape = Tape()
        p = params.leaves(tape)
        h = dk.matmul(tape.leaf(x), p["w"])
        agg = dk.csr_mean_aggregate(ring6, h)
        col = dk.slice_cols(agg, 0, 1)
        return dk.reduce_mean(dk.masked_select(col, mask))

    _check(f, ps)


def test_dropout_gradient_is_exact_per_seed():
    rng = keyed_rng(0, "dk-drop")
    ps = _store(w=rng.standard_normal((5, 3)))

    def f(params):
        tape = Tape()
        p = params.leaves(tape)
        out = dk.dropout(p["w"], 0.4, seed=11, train_mode=True)
        return dk.reduce_mean(dk.mul(out, out))

    # the mask is a deterministic function of the seed, so central
    # differences see the same mask and must agree exactly
    _check(f, ps)


def test_dropout_semantics():
    tape = Tape()
    a = tape.leaf(np.ones((200, 5)))
    out_eval = dk.dropout(a, 0.4, seed=1, train_mode=False)
    assert np.array_equal(out_eval.value, a.value)

    out_train = dk.dropout(a, 0.4, seed=1, train_mode=True)
    kept = out_train.value != 0.0
    # surviving entries are rescaled by 1/(1-p)
    np.testing.assert_allclose(out_train.value[kept], 1.0 / 0.6)
    assert 0.5 < kept.mean() < 0.7
    again = dk.dropout(tape.leaf(np.ones((200, 5))), 0.4, seed=1,
                       train_mode=True)
    assert np.array_equal(out_train.value, again.value)


def test_softplus_is_overflow_safe():
    tape = Tape()
    big = tape.leaf(np.array([[800.0], [-800.0], [0.0]]))
    out = dk.softplus(big)
    assert np.isfinite(out.value).all()
    np.testing.assert_allclose(out.value[0, 0], 800.0)
    np.testing.assert_allclose(out.value[1, 0], 0.0, atol=1e-12)
    np.testing.assert_allclose(out.value[2, 0], np.log(2.0))
    loss = dk.reduce_mean(out)
    backward(tape, loss)
    assert np.isfinite(big.grad).all()


def test_sigmoid_is_overflow_safe():
    tape = Tape()
    big = tape.leaf(np.array([[800.0], [-800.0]]))
    out = dk.sigmoid(big)
    np.testing.assert_allclose(out.value[:, 0], [1.0, 0.0], atol=1e-12)


def test_csr_mean_aggregate_matches_matrix_oracle(ring6):
    rng = keyed_rng(0, "dk-agg")
    x = rng.standard_normal((6, 3))
    tape = Tape()
    out = dk.csr_mean_aggregate(ring6, tape.leaf(x))
    oracle = dk.mean_adjacency(ring6) @ x
    np.testing.assert_allclose(out.value, oracle, atol=1e-12)


def test_backward_accumulates_and_zero_grads_resets():
    ps = _store(w=np.array([[2.0]]))
    for _ in range(2):
        tape = Tape()
        p = ps.leaves(tape)
        loss = dk.reduce_mean(dk.mul(p["w"], p["w"]))
        backward(tape, loss)
    # two passes without zeroing: d(w^2)/dw = 2w = 4 per pass
    np.testing.assert_allclose(ps.grad("w"), [[8.0]])
    ps.zero_grads()
    np.testing.assert_allclose(ps.grad("w"), [[0.0]])


def test_stop_gradient_via_constant_coefficients():
    """scale() with an ndarray coefficient treats it as data, the
    mechanism the losses use for indicator terms."""
    ps = _store(w=np.array([[1.5], [-0.5]]))

    def f(params):
        tape = Tape()
        p = params.leaves(tape)
        coeff = (p["w"].value > 0).astype(float)  # indicator, no gradient
        return dk.reduce_mean(dk.scale(p["w"], coeff))

    _check(f, ps)
    tape = Tape()
    p = ps.leaves(tape)
    loss = dk.reduce_mean(dk.scale(p["w"], np.array([[1.0], [0.0]])))
    backward(tape, loss)
    np.testing.assert_allclose(ps.grad("w"), [[0.5], [0.0]])


def test_shape_and_contract_errors():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(np.ones((4, 3)))
    with pytest.raises(ShapeError):
        dk.add(a, b)
    with pytest.raises(ShapeError):
        dk.matmul(a, b)
    other = Tape()
    c = other.leaf(np.ones((2, 3)))
    with pytest.raises(ContractError):
        dk.add(a, c)  # tensors from different tapes
    with pytest.raises(ParameterError):
        dk.dropout(a, 1.0, seed=0, train_mode=True)


def test_tensor_item_requires_scalar():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        a.item()
    assert dk.reduce_mean(a).item() == 1.0


def test_param_store_guards():
    ps = _store(w=np.ones((2, 2)))
    with pytest.raises(ParameterError):
        ps.add("w", np.ones((2, 2)))
    assert "w" in ps and len(ps) == 1 and ps.size == 4


# ---------------------------------------------------------------------------
# Lazy grad buffers, passed-on adjoints, lifetimes and released tapes
# ---------------------------------------------------------------------------

def test_unreached_tensors_keep_no_grad():
    ps = _store(w=keyed_rng(0, "dk-lazy").standard_normal((3, 2)))
    tape = Tape()
    p = ps.leaves(tape)
    x = tape.leaf(keyed_rng(1, "dk-lazy").standard_normal((4, 3)))
    unused = tape.leaf(np.ones((4, 2)))
    c = constant(np.ones((4, 2)))
    h = dk.matmul(x, p["w"])
    square = dk.mul(h, h)
    dead = dk.sigmoid(square)  # recorded, but the loss ignores it
    loss = dk.reduce_mean(dk.add(h, c))
    backward(tape, loss)
    assert dead.grad is None and square.grad is None
    assert unused.grad is None and c.grad is None
    # h passed d(loss)/dh = 1/8 on; both leaves under it got only the
    # live path's gradient
    assert h.grad is None
    dh = np.full((4, 2), 1 / 8)
    np.testing.assert_allclose(x.grad, dh @ ps.value("w").T)
    np.testing.assert_allclose(ps.grad("w"), x.value.T @ dh)


def test_passed_on_adjoints_do_not_alias():
    rng = keyed_rng(0, "dk-alias")
    ps = _store(a=rng.standard_normal((4, 3)), b=rng.standard_normal((4, 3)),
                w=rng.standard_normal((3, 3)), c=rng.standard_normal((1, 3)),
                d=rng.standard_normal((1, 3)))

    def doubled(params):
        # add(t, t) runs its adjoint before sigmoid(t)'s: t adopts the
        # sum's gradient, doubles it, then takes sigmoid's on top
        tape = Tape()
        p = params.leaves(tape)
        t = dk.softplus(p["a"])
        s = dk.sigmoid(t)
        return dk.reduce_mean(dk.mul(dk.add(t, t), s))

    def both_reused(params):
        # both inputs of the sum receive more gradient afterwards
        tape = Tape()
        p = params.leaves(tape)
        a, b = dk.softplus(p["a"]), dk.sigmoid(p["b"])
        prod = dk.mul(a, b)
        return dk.reduce_mean(dk.mul(dk.add(a, b), prod))

    def self_difference(params):
        tape = Tape()
        p = params.leaves(tape)
        t = dk.softplus(p["a"])
        zero = dk.sub(t, t)
        return dk.reduce_mean(dk.mul(dk.add(zero, t), dk.sub(t, zero)))

    def bias_chain(params):
        tape = Tape()
        p = params.leaves(tape)
        h = dk.matmul(dk.sigmoid(p["a"]), p["w"])
        h = dk.add_row_bias(dk.add_row_bias(h, p["c"]), p["d"])
        g = dk.add_scalar(dk.add_row_bias(h, p["c"]), 0.3)
        return dk.reduce_mean(dk.mul(g, dk.relu(h)))

    def scatter_into_used(params):
        # later scatters land on a buffer that already holds gradient
        tape = Tape()
        p = params.leaves(tape)
        t = dk.softplus(p["a"])
        rows = np.array([True, False, True, True])
        parts = [dk.mul(t, t), dk.slice_cols(t, 0, 2),
                 dk.masked_select(t, rows), dk.slice_cols(t, 1, 3)]
        total = dk.reduce_mean(parts[0])
        for part in parts[1:]:
            total = dk.add(total, dk.reduce_mean(part))
        return total

    for f in (doubled, both_reused, self_difference, bias_chain,
              scatter_into_used):
        err = finite_diff_check(f, ps, h=1e-5)
        assert err < 1e-6, f"{f.__name__}: finite-difference mismatch {err}"


def test_add_of_a_tensor_with_itself_doubles():
    # d(loss)/dt is [[1, 1]] for add(t, t) and [[0, 0]] for sub(t, t);
    # the leaf under scale(., 3) gets three times that
    tape = Tape()
    leaf = tape.leaf(np.array([[1.0, -2.0]]))
    t = dk.scale(leaf, 3.0)
    backward(tape, dk.reduce_mean(dk.add(t, t)))
    np.testing.assert_array_equal(leaf.grad, [[3.0, 3.0]])
    tape = Tape()
    leaf = tape.leaf(np.array([[1.0, -2.0]]))
    t = dk.scale(leaf, 3.0)
    backward(tape, dk.reduce_mean(dk.sub(t, t)))
    np.testing.assert_array_equal(leaf.grad, [[0.0, 0.0]])


def test_release_drops_the_steps():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    dk.reduce_mean(dk.mul(a, a))
    assert len(tape) == 2
    tape.release()
    assert len(tape) == 0


def test_mean_adjacency_is_memoised_per_graph(small_ds):
    before = pickle.dumps(small_ds)
    op = dk.mean_adjacency(small_ds.graph)
    assert dk.mean_adjacency(small_ds.graph) is op
    assert not op.data.flags.writeable
    with pytest.raises(ValueError):
        op.data[0] = 1.0
    # the graph's own arrays stay writeable, and the memo is not pickled
    assert small_ds.graph.row_offsets.flags.writeable
    assert small_ds.graph.col_indices.flags.writeable
    assert pickle.dumps(small_ds) == before
    dropped = perturb(small_ds, PerturbSpec("edge_dropout", 0.3, seed=2))
    other = dk.mean_adjacency(dropped.graph)
    assert other is not op
    assert other.nnz == dropped.graph.col_indices.size < op.nnz


def _layer_loss(graph, tape, params, x):
    """One encoder layer as ``model.encode`` builds it, on a tracked
    input, under a linear head; returns the loss and the tensors made
    on the way."""
    h = tape.leaf(x)
    agg = dk.csr_mean_aggregate(graph, h)
    own, nbr = dk.matmul(h, params["s"]), dk.matmul(agg, params["n"])
    total = dk.add(own, nbr)
    pre = dk.add_row_bias(total, params["b"])
    post = dk.relu(pre)
    out = dk.dropout(post, 0.5, seed=3, train_mode=True)
    loss = dk.reduce_mean(dk.matmul(out, params["u"]))
    return loss, dict(h=h, agg=agg, own=own, nbr=nbr, total=total, pre=pre,
                      post=post, out=out)


def _layer_case():
    rng = keyed_rng(0, "dk-life")
    ps = _store(s=rng.standard_normal((3, 4)), n=rng.standard_normal((3, 4)),
                b=rng.standard_normal((1, 4)), u=rng.standard_normal((4, 1)))
    return ps, rng.standard_normal((6, 3))


def test_values_no_adjoint_reads_die_while_the_tape_lives(ring6):
    ps, x = _layer_case()
    tape = Tape()
    loss, made = _layer_loss(ring6, tape, ps.leaves(tape), x)
    refs = {name: weakref.ref(t.value) for name, t in made.items()}
    del made
    assert len(tape) == 9
    # the pre-ReLU value, and every other value no adjoint reads, is gone
    for name in ("own", "nbr", "total", "pre", "post"):
        assert refs[name]() is None, name
    # the weight gradients read h, A@h and the dropout output
    for name in ("h", "agg", "out"):
        assert refs[name]() is not None, name

    # a tape whose unread values died still gives exact gradients
    def f(params):
        t = Tape()
        return _layer_loss(ring6, t, params.leaves(t), x)[0]
    _check(f, ps)


def test_only_leaves_hold_grad_after_backward(ring6):
    ps, x = _layer_case()
    tape = Tape()
    leaves = ps.leaves(tape)
    loss, made = _layer_loss(ring6, tape, leaves, x)
    backward(tape, loss)
    h = made.pop("h")
    assert h.grad is not None and h.grad.shape == x.shape
    for name, t in made.items():
        assert t.grad is None, name
    assert loss.grad is None
    for name, leaf in leaves.items():
        assert leaf.grad is ps.grad(name)
        assert np.abs(leaf.grad).sum() > 0, name
    # untracked values carry no adjoint at all
    c = dk.relu(constant(x))
    assert c.tape is None and c.grad is None


def test_matmul_keeps_an_operand_only_for_the_other_ones_gradient():
    tape = Tape()
    a = tape.leaf(keyed_rng(0, "dk-mm").standard_normal((4, 3)))
    b = constant(np.ones((3, 2)))
    ref = weakref.ref(a.value)
    dk.matmul(a, b)
    del a
    # b is untracked, so no adjoint reads a's value
    assert ref() is None
