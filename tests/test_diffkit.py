"""Reverse-mode engine: every primitive checked against central differences."""
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from qpignn import diffkit as dk
from qpignn.diffkit import ParamStore, Tape, backward, constant
from qpignn.errors import ContractError, ParameterError, ShapeError
from qpignn.graphcore import PerturbSpec, gen_er, perturb
from qpignn.rng import keyed_rng
from reference import finite_diff_check


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
        return dk.reduce_mean(dk.add(t, constant(np.full(t.shape, 1.5))))

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
        out = dk.dropout(p["w"], 0.4, seed=11)
        return dk.reduce_mean(dk.mul(out, out))

    # the mask is a deterministic function of the seed, so central
    # differences see the same mask and must agree exactly
    _check(f, ps)


def test_dropout_semantics():
    tape = Tape()
    a = tape.leaf(np.ones((200, 5)))
    out = dk.dropout(a, 0.4, seed=1)
    kept = out.value != 0.0
    # surviving entries are rescaled by 1/(1-p)
    np.testing.assert_allclose(out.value[kept], 1.0 / 0.6)
    assert 0.5 < kept.mean() < 0.7
    again = dk.dropout(tape.leaf(np.ones((200, 5))), 0.4, seed=1)
    assert np.array_equal(out.value, again.value)


def test_blocked_weight_gradient_matches_the_plain_product():
    rng = keyed_rng(0, "dk-block")
    a = rng.standard_normal((600, 7))  # two full 256-row blocks and 88 rows
    g = rng.standard_normal((600, 5))
    np.testing.assert_allclose(dk._blocked_at_g(a, g), a.T @ g,
                               rtol=0, atol=1e-12)
    short = a[:100]
    np.testing.assert_array_equal(dk._blocked_at_g(short, g[:100]),
                                  short.T @ g[:100])


def test_one_column_products_keep_the_plain_products_bits():
    rng = keyed_rng(0, "dk-column")
    a = rng.standard_normal((2049, 64))
    b = rng.standard_normal((64, 1))
    # one block, full blocks, a ragged tail and a lone last row
    for n in (1, 100, 256, 257, 600, 769, 2049):
        np.testing.assert_array_equal(
            dk.matmul(constant(a[:n]), constant(b)).value, a[:n] @ b)


def test_one_column_products_do_not_depend_on_blas_threads(openblas):
    rng = keyed_rng(0, "dk-gemv")
    a = rng.standard_normal((20022, 64))  # the 20k grid's node count
    b = rng.standard_normal((64, 1))
    outs = []
    for threads in (1, 2):
        openblas.scipy_openblas_set_num_threads64_(threads)
        outs.append(dk.matmul(constant(a), constant(b)).value)
    np.testing.assert_array_equal(*outs)


def _gemm_cases(sizes=(1, 255, 257, 2000, 20022)):
    """(a, b, c) for the three products the engine adds in place: the
    first layer's n x 8 . 8 x 64, the second's n x 64 . 64 x 64 and a
    one-column head's adjoint n x 1 . (64 x 1).T, at row counts around
    one 256-row block and up to the 20k grid's."""
    rng = keyed_rng(0, "dk-gemm")
    for n in sizes:
        for a_shape, b in (((n, 8), rng.standard_normal((8, 64))),
                           ((n, 64), rng.standard_normal((64, 64))),
                           ((n, 1), rng.standard_normal((64, 1)).T)):
            yield (rng.standard_normal(a_shape), b,
                   rng.standard_normal((n, 64)))


def _check_gemm_add(cases):
    for a, b, c in cases:
        want = c + a @ b
        dk._gemm_add(a, b, c)
        assert c.tobytes() == want.tobytes(), (a.shape, b.shape)


@pytest.mark.parametrize("threads", (1, 2))
def test_gemm_add_gives_the_bits_of_c_plus_a_at_b(openblas, threads):
    openblas.scipy_openblas_set_num_threads64_(threads)
    _check_gemm_add(_gemm_cases())


def test_gemm_add_makes_no_product_temporary(openblas):
    a, b, c = list(_gemm_cases((20022,)))[1]
    tracemalloc.start()
    try:
        dk._gemm_add(a, b, c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < c.nbytes // 8, peak


def test_gemm_add_without_the_library_adds_with_numpy(monkeypatch):
    monkeypatch.setattr(dk, "_openblas", lambda: None)
    _check_gemm_add(_gemm_cases())


class _NoBlas:
    """Stands in for the library: reaching any of it fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"{name} was reached")


def test_gemm_add_leaves_what_blas_cannot_take_to_numpy(monkeypatch):
    monkeypatch.setattr(dk, "_openblas", _NoBlas)
    rng = keyed_rng(0, "dk-gemm-bad")
    a, b, c = (rng.standard_normal(shape) for shape in ((6, 3), (3, 4),
                                                         (6, 4)))
    wide = rng.standard_normal((6, 6))
    with pytest.raises(AssertionError, match="dgemm"):
        dk._gemm_add(a, b, c.copy())  # the stand-in does catch a call

    def read_only():
        out = c.copy()
        out.flags.writeable = False
        return out

    cases = {
        "inner dims": lambda: (a, b[:2], c.copy()),
        "output shape": lambda: (a, b, c[:, :3].copy()),
        "broadcast output": lambda: (a, b[:, :1], c.copy()),
        "1-D operands": lambda: (a, b[:, 0].copy(), c[:, 0].copy()),
        "float32 operand": lambda: (a.astype(np.float32), b, c.copy()),
        "float32 output": lambda: (a, b, c.astype(np.float32)),
        "strided operand": lambda: (wide[:, ::2], b, c.copy()),
        "fortran output": lambda: (a, b, np.asfortranarray(c)),
        "read-only output": lambda: (a, b, read_only()),
        "output is an operand": lambda: (lambda s: (s, s, s))(wide.copy()),
        "no rows": lambda: (a[:0], b, c[:0].copy()),
        "no inner dim": lambda: (a[:, :0], b[:0], c.copy()),
    }
    for name, make in cases.items():
        a_, b_, want = make()
        try:
            want += a_ @ b_
        except Exception as exc:  # numpy's own error, from numpy's path
            with pytest.raises(type(exc)):
                dk._gemm_add(*make())
            continue
        a_, b_, got = make()
        dk._gemm_add(a_, b_, got)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
            name


def test_matmul_gradients_over_several_row_blocks():
    rng = keyed_rng(0, "dk-rows")
    ps = _store(w=rng.standard_normal((3, 2)))
    x = rng.standard_normal((300, 3))

    def f(params):
        tape = Tape()
        out = dk.matmul(tape.leaf(x), params.leaves(tape)["w"])
        return dk.reduce_mean(dk.mul(out, out))

    _check(f, ps)


def test_dropout_keeps_a_binomial_fraction():
    n, p = 200 * 500, 0.3
    out = dk.dropout(constant(np.ones((200, 500))), p, seed=4)
    kept = np.count_nonzero(out.value)
    assert abs(kept - n * (1 - p)) < 5 * np.sqrt(n * p * (1 - p))
    assert dk._keep_threshold(0.5) == 1 << 31
    assert dk._keep_threshold(0.0) == 0


# Masks of 65,536 entries take one 2^15-uint64 draw; shapes just below, at
# and just above it, and odd sizes, whose last uint32 goes unused.
@pytest.mark.parametrize("shape", [(1, 1), (7, 3), (600, 64), (20022, 64),
                                   (1023, 64), (1024, 64), (1025, 64),
                                   (257, 255)])
def test_dropout_mask_comes_from_the_uint32_stream(shape):
    draws = keyed_rng(5, "dropout").integers(0, 1 << 32, shape,
                                             dtype=np.uint32)
    for p in (0.2, 0.5):
        out = dk.dropout(constant(np.ones(shape)), p, seed=5)
        np.testing.assert_array_equal(out.value != 0.0,
                                      draws >= dk._keep_threshold(p))


def test_dropout_mask_is_a_pure_function_of_the_seed():
    a = constant(np.ones((50, 40)))
    one = dk.dropout(a, 0.5, seed=9).value
    again = dk.dropout(a, 0.5, seed=9).value
    other = dk.dropout(a, 0.5, seed=10).value
    assert np.array_equal(one, again)
    assert not np.array_equal(one, other)


def test_dropout_is_the_identity_at_p_0():
    tape = Tape()
    a = tape.leaf(np.ones((4, 3)))
    assert dk.dropout(a, 0.0, seed=1) is a
    assert len(tape) == 0


def test_only_a_dead_input_is_masked_in_place():
    x = keyed_rng(0, "dk-dead").standard_normal((40, 8))
    tape = Tape()
    a = tape.leaf(x.copy())
    out = dk.dropout(a, 0.5, seed=1)
    backward(tape, dk.reduce_mean(out))
    assert a.value.tobytes() == x.tobytes()
    dead = constant(x)
    out_dead = dk.dropout(dead, 0.5, seed=1, dead=True)
    assert out_dead.value is dead.value
    assert out_dead.value.tobytes() == out.value.tobytes()


@pytest.mark.parametrize("widths", [(1,), (2,), (1, 1)],
                         ids=["pred", "bounds", "pred_width"])
def test_linear_heads_overwrite_h_only_when_dead(widths):
    """By default the heads leave ``h`` as it is; marked dead, ``h``'s
    buffer takes its gradient, and every gradient keeps its bits."""
    rng = keyed_rng(0, "dk-heads")
    h0 = rng.standard_normal((300, 8))  # two 256-row blocks
    ws = [(rng.standard_normal((8, k)), rng.standard_normal((1, k)))
          for k in widths]
    grads = []
    for dead in (False, True):
        tape = Tape()
        h = tape.leaf(h0.copy())
        heads = [(tape.leaf(w.copy()), tape.leaf(b.copy())) for w, b in ws]
        outs = dk.linear_heads(h, heads, dead=dead)
        loss = dk.reduce_mean(dk.mul(outs[0], dk.sigmoid(outs[-1])))
        backward(tape, loss)
        assert (h.grad is h.value) == dead
        if not dead:
            assert h.value.tobytes() == h0.tobytes()
        grads.append([h.grad.tobytes()] + [t.grad.tobytes()
                                           for pair in heads for t in pair])
    assert grads[0] == grads[1]


def _closure_arrays(fn) -> list[np.ndarray]:
    """Every array a closure reaches through its cells and nested
    closures."""
    found, stack = [], [fn]
    while stack:
        for cell in stack.pop().__closure__ or ():
            item = cell.cell_contents
            if isinstance(item, np.ndarray):
                found.append(item)
            elif callable(item) and hasattr(item, "__closure__"):
                stack.append(item)
    return found


def test_dropout_tape_holds_a_bool_mask():
    tape = Tape()
    a = tape.leaf(keyed_rng(0, "dk-mask").standard_normal((30, 4)))
    out = dk.dropout(a, 0.25, seed=2)
    held = _closure_arrays(tape._steps[-1])
    assert [arr.dtype for arr in held] == [np.bool_]
    assert held[0].shape == a.shape
    np.testing.assert_array_equal(out.value, a.value * held[0] * (1 / 0.75))


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
    with pytest.raises(ContractError, match="not recorded on this tape"):
        backward(None, constant(np.ones((1, 1))))  # untracked loss
    with pytest.raises(ParameterError):
        dk.dropout(a, 1.0, seed=0)


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
    assert "w" in ps and "v" not in ps


# ---------------------------------------------------------------------------
# Lazy grad buffers, passed-on adjoints and lifetimes
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
        g = dk.add(dk.add_row_bias(h, p["c"]),
                   constant(np.full(h.shape, 0.3)))
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

    def masked_doubled(params):
        # relu and dropout mask the gradient they take in place; their
        # outputs feed add(t, t) and a second consumer
        tape = Tape()
        p = params.leaves(tape)
        r = dk.relu(dk.matmul(p["a"], p["w"]))
        d = dk.dropout(dk.softplus(p["b"]), 0.5, seed=4)
        return dk.reduce_mean(dk.add(dk.mul(dk.add(r, r), dk.sigmoid(r)),
                                     dk.mul(dk.add(d, d), dk.softplus(d))))

    def masked_two_consumers(params):
        # each masked output and its masked input reach two consumers
        tape = Tape()
        p = params.leaves(tape)
        t = dk.add_row_bias(dk.matmul(p["a"], p["w"]), p["c"])
        r = dk.relu(t)
        d = dk.dropout(r, 0.5, seed=5)
        e = dk.relu(dk.sub(d, dk.sigmoid(p["b"])))
        first = dk.mul(dk.sigmoid(d), dk.softplus(r))
        second = dk.add_row_bias(dk.mul(e, d), p["d"])
        # r and e adopt one gradient, which e's adjoint then masks
        both = dk.mul(dk.add(r, e), dk.sigmoid(t))
        return dk.reduce_mean(dk.add(dk.add(first, both), dk.mul(second, t)))

    for f in (doubled, both_reused, self_difference, bias_chain,
              scatter_into_used, masked_doubled, masked_two_consumers):
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


def test_backward_replays_a_tape_once():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    loss = dk.reduce_mean(dk.mul(a, a))
    backward(tape, loss)
    with pytest.raises(ContractError, match="already replayed"):
        backward(tape, loss)


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
    """One encoder layer as the six primitives that ``sage_relu`` fuses,
    on a tracked input, under a linear head; returns the loss and the
    tensors made on the way."""
    h = tape.leaf(x)
    agg = dk.csr_mean_aggregate(graph, h)
    own, nbr = dk.matmul(h, params["s"]), dk.matmul(agg, params["n"])
    total = dk.add(own, nbr)
    pre = dk.add_row_bias(total, params["b"])
    post = dk.relu(pre)
    out = dk.dropout(post, 0.5, seed=3)
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


def _six_step_layer(graph, h, s, n, b):
    """The composition ``sage_relu`` replaces, op for op."""
    own = dk.matmul(h, s)
    nbr = dk.matmul(dk.csr_mean_aggregate(graph, h), n)
    return dk.relu(dk.add_row_bias(dk.add(own, nbr), b))


def _sage_run(layer, graph, x, ps, h_kind):
    """Build ``layer`` under dropout and a softplus head, run backward,
    and return the output value, h's gradient and the parameter
    gradients.  ``h_kind``: "leaf", "constant", or "shared" (a second
    consumer, recorded later, hands h a gradient first)."""
    ps.zero_grads()
    tape = Tape()
    p = ps.leaves(tape)
    h = constant(x) if h_kind == "constant" else tape.leaf(x)
    out = layer(graph, h, p["s"], p["n"], p["b"])
    head = dk.matmul(dk.dropout(out, 0.2, seed=7), p["u"])
    loss = dk.reduce_mean(dk.softplus(head))
    if h_kind == "shared":
        loss = dk.add(loss, dk.reduce_mean(dk.mul(h, dk.sigmoid(h))))
    backward(tape, loss)
    grads = {name: ps.grad(name).copy() for name in ps.names()}
    return out.value, h.grad, grads


def test_sage_relu_matches_the_six_step_composition_bit_for_bit():
    # 600 rows: two full 256-row gradient blocks and a ragged one
    graph = gen_er(600, 8 / 599, seed=5)
    rng = keyed_rng(0, "dk-sage")
    x = rng.standard_normal((600, 16))
    ps = _store(s=rng.standard_normal((16, 32)), n=rng.standard_normal((16, 32)),
                b=rng.standard_normal((1, 32)), u=rng.standard_normal((32, 1)))
    for h_kind in ("leaf", "constant", "shared"):
        fused = _sage_run(dk.sage_relu, graph, x, ps, h_kind)
        six = _sage_run(_six_step_layer, graph, x, ps, h_kind)
        np.testing.assert_array_equal(fused[0], six[0])
        if h_kind == "constant":
            assert fused[1] is None and six[1] is None
        else:
            np.testing.assert_array_equal(fused[1], six[1])
        for name in ps.names():
            assert np.abs(fused[2][name]).sum() > 0, (h_kind, name)
            np.testing.assert_array_equal(fused[2][name], six[2][name],
                                          err_msg=f"{h_kind}: {name}")


def test_sage_relu_gradients(ring6):
    rng = keyed_rng(0, "dk-sage-fd")
    ps = _store(x=rng.standard_normal((6, 3)), s=rng.standard_normal((3, 4)),
                n=rng.standard_normal((3, 4)), b=rng.standard_normal((1, 4)),
                u=rng.standard_normal((4, 1)))

    def f(params):
        tape = Tape()
        p = params.leaves(tape)
        h = dk.sage_relu(ring6, dk.sigmoid(p["x"]), p["s"], p["n"], p["b"])
        return dk.reduce_mean(dk.softplus(dk.matmul(h, p["u"])))
    _check(f, ps)


def test_untaped_sage_relu_records_nothing(ring6):
    ps, x = _layer_case()
    weights = [constant(ps.value(k)) for k in ("s", "n", "b")]
    out = dk.sage_relu(ring6, constant(x), *weights)
    assert out.tape is None and out.grad is None
    np.testing.assert_array_equal(
        out.value, _six_step_layer(ring6, constant(x), *weights).value)


def test_backward_frees_what_each_step_read_and_keeps_the_steps(ring6):
    ps, x = _layer_case()
    tape = Tape()
    p = ps.leaves(tape)
    h = tape.leaf(x)
    loss = dk.reduce_mean(dk.relu(dk.sage_relu(ring6, h, p["s"], p["n"],
                                               p["b"])))
    inputs = {id(h.value), id(p["s"].value), id(p["n"].value)}
    # the layer's mask and A @ h, and relu's mask: only adjoints read them
    read = [weakref.ref(arr) for step in tape._steps[:2]
            for arr in _closure_arrays(step) if id(arr) not in inputs]
    assert len(read) == 3 and all(ref() is not None for ref in read)
    steps, last = len(tape), weakref.ref(tape._steps[-1])
    backward(tape, loss)
    assert all(ref() is None for ref in read)
    # the steps stay on the tape, so a weakref to one sees the tape alive
    assert len(tape) == steps and last() is tape._steps[-1]
    assert np.abs(ps.grad("s")).sum() > 0


def test_sage_relu_step_holds_only_what_backward_reads(ring6):
    ps, x = _layer_case()
    tape = Tape()
    p = ps.leaves(tape)
    h = tape.leaf(x)
    out = dk.sage_relu(ring6, h, p["s"], p["n"], p["b"])
    second = dk.add(out, constant(np.ones(out.shape)))
    assert len(tape) == 2
    inputs = {id(h.value), id(p["s"].value), id(p["n"].value)}
    held = _closure_arrays(tape._steps[0])
    rest = [arr for arr in held if id(arr) not in inputs]
    assert len(held) == 5 and len(rest) == 2
    mask, agg = sorted(rest, key=lambda arr: arr.dtype != np.bool_)
    assert mask.dtype == np.bool_ and mask.shape == out.shape
    np.testing.assert_array_equal(agg, dk.mean_adjacency(ring6) @ x)
    # the output's (pre-ReLU) buffer is not held: it dies with its
    # tensors, and so does the second consumer's array
    refs = [weakref.ref(out.value), weakref.ref(second.value)]
    del out, second
    assert all(ref() is None for ref in refs)
