"""A minimal dense-tensor engine with reverse-mode differentiation.

Everything is a 2-D float64 array.  Operations record their adjoint as a
closure on a linear tape; ``backward`` replays the tape in exact reverse
order, which keeps gradient accumulation deterministic.  Products whose
inner dimension is the node count sum fixed row blocks in a fixed order,
and one-column products run in fixed row blocks, so no bit depends on
the BLAS thread count.  Tensors built
with ``constant`` (or any expression whose inputs are all constants)
carry no tape and evaluate forward-only, so the same code path serves
both training and plain inference.

Gradient buffers are allocated on first use.  A tracked tensor owns a
small adjoint slot holding only its ``grad``, which starts as None; the
first gradient that reaches it becomes its buffer and later ones are
added in place.  Pass-through adjoints (``add``, ``sub``,
``add_row_bias``) hand their output's gradient array on to their first
input rather than copying it.  Adopting the first contribution gives the
same values as adding it to zeros, up to the sign of zero entries;
parameter buffers start at +0 and always add, so parameter gradients are
unchanged bit for bit.

The tape keeps only what backward reads, and only until it is read.
Each adjoint closes over slots and the few arrays it needs (a matmul the
other operand's value, relu and dropout their bool masks, an encoder
layer one bool mask for its ReLU and its dropout together), so every
other forward value is freed as soon as the forward pass drops it.
Once a step has run, ``backward`` empties its closure cells, so the
arrays it read are freed before the steps below it run; the closure
itself stays on the tape.  Each adjoint takes its output's gradient out
of the slot, so an intermediate's gradient is freed once passed on and
after ``backward`` only leaves hold one.  Untracked tensors have no
slot and record nothing.

Products added to an array that already exists (``sage_relu``'s
``agg @ W_neigh``, a second gradient part of ``h`` or of a matmul
operand) go through ``_gemm_add``: one dgemm with beta = 1 from numpy's
own OpenBLAS, which adds into the array's buffer with the bits of
``c + a @ b`` and makes no n-row temporary.

An adjoint owns the gradient it takes, so ``relu``, ``dropout`` and
``sage_relu`` mask it in place (see ``_take`` for why no other slot
holds it).

No op overwrites an input's value unless its caller passes ``dead``,
saying nothing reads that value again (``sage_relu`` does for the
output it has just made, ``model`` for encoder arrays it made).
``dropout`` then masks in place and ``linear_heads``' step writes
``h``'s gradient into ``h``'s buffer, both with the plain call's bits.
So an MC-dropout pass, which is one untaped ``encode`` with dropout
on, holds about three n x 64 arrays at once, the second layer's input,
``A @ h`` and output: each layer frees ``A @ h`` before it masks its
output in place, and each output is freed once the next is made.
``dropout`` draws its random numbers in ``raw_words``' fixed chunks, so
no draw buffer grows with the input.

Comparisons never flow gradient: coverage and violation indicators are
computed on raw values and re-enter the graph as constant coefficients.

At import ``_keep_freed_heap`` has glibc's malloc keep freed blocks under
32 MiB (a 20k-node n x 64 array is 10 MB) for the next call instead of
faulting their pages in again, so a process's RSS stays near its peak,
and serve every thread from the one arena, so a thread that allocates
(a pool's pickling threads, say) adds no heap of its own to that peak.
"""
from __future__ import annotations

import ctypes
import functools
from typing import Callable

import numpy as np
from scipy.special import expit

from .errors import ContractError, ParameterError, ShapeError
from .graphcore import Graph, mean_adjacency
from .rng import keyed_rng, raw_words


def _keep_freed_heap() -> None:
    """Either threshold turns off glibc's dynamic one, so both are set;
    32 MiB is its ceiling, so larger arrays keep their own mappings."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return  # not glibc
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)  # M_ARENA_MAX


_keep_freed_heap()


# cblas_dgemm's arguments in numpy's ILP64 OpenBLAS: order, two transpose
# flags, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc.
_DGEMM_ARGS = (ctypes.c_int,) * 3 + (ctypes.c_int64,) * 3 + (
    ctypes.c_double, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p,
    ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_int64)
_ROW_MAJOR, _NO_TRANS, _TRANS = 101, 111, 112


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled OpenBLAS, if this process has it loaded."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(None, 5)[-1].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if (hasattr(lib, "scipy_openblas_set_num_threads64_")
                and hasattr(lib, "scipy_cblas_dgemm64_")):
            lib.scipy_cblas_dgemm64_.argtypes = _DGEMM_ARGS
            lib.scipy_cblas_dgemm64_.restype = None
            return lib
    return None


def _blas_layout(x: np.ndarray) -> tuple[int, int] | None:
    """The transpose flag and leading dimension under which row-major
    BLAS reads ``x`` in place, or None when it cannot.  A transposed view
    is read as its base with ``_TRANS``, as numpy passes it."""
    if x.dtype != np.float64 or x.ndim != 2 or not x.flags.aligned:
        return None
    if x.flags.c_contiguous:
        return _NO_TRANS, x.shape[1]
    if x.flags.f_contiguous:
        return _TRANS, x.shape[0]
    return None


def _gemm_add(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """``c += a @ b`` inside ``c``'s buffer, with no ``a @ b`` temporary.

    OpenBLAS's dgemm with beta = 1 adds each finished dot product to
    ``c``, so the bits are those of ``c + a @ b`` wherever numpy's
    product is a dgemm too.  A one-row or one-column product is a GEMV
    in numpy, with other bits, so it takes numpy's ``c += a @ b``; so
    does anything dgemm would misread: no library, a shape, dtype or
    layout it cannot take, an empty operand, or ``c`` overlapping one.
    """
    lib = _openblas()
    la = _blas_layout(a)
    lb = _blas_layout(b)
    if (lib is None or la is None or lb is None or c.dtype != np.float64
            or not c.flags.c_contiguous or not c.flags.aligned
            or not c.flags.writeable or a.shape[1] != b.shape[0]
            or c.shape != (a.shape[0], b.shape[1]) or min(c.shape) < 2
            or not a.shape[1] or np.may_share_memory(c, a)
            or np.may_share_memory(c, b)):
        c += a @ b
        return
    (m, k), n = a.shape, b.shape[1]
    lib.scipy_cblas_dgemm64_(_ROW_MAJOR, la[0], lb[0], m, n, k, 1.0,
                             a.ctypes.data, la[1], b.ctypes.data, lb[1], 1.0,
                             c.ctypes.data, n)


def _as_matrix(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return arr.reshape(1, 1)
    if arr.ndim == 1:
        return arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D, got ndim={arr.ndim}")
    return arr


class _Slot:
    """A tracked tensor's adjoint: its gradient and nothing else."""

    __slots__ = ("grad",)

    def __init__(self, grad: np.ndarray | None = None):
        self.grad = grad


class Tensor:
    """A node in the computation graph: a value plus an adjoint slot.

    A tensor is tracked when ``tape`` is set, and only tracked tensors
    own a slot.  ``grad`` reads the slot: None for constants, for tracked
    tensors no gradient has reached, and for intermediates whose adjoint
    has already passed their gradient on.  Leaves keep theirs.
    """

    __slots__ = ("value", "tape", "_slot")

    def __init__(self, value: np.ndarray, tape: "Tape | None" = None,
                 grad: np.ndarray | None = None):
        self.value = value
        self.tape = tape
        self._slot = None if tape is None else _Slot(grad)

    @property
    def grad(self) -> np.ndarray | None:
        return None if self._slot is None else self._slot.grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise ContractError(f"item() needs a (1, 1) tensor, got {self.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:
        kind = "const" if self.tape is None else "tracked"
        return f"Tensor(shape={self.shape}, {kind})"


def constant(value) -> Tensor:
    """An untracked tensor: participates in math, never in gradients."""
    return Tensor(_as_matrix(value).copy())


class Tape:
    """Ordered record of primitive applications.

    The forward pass appends one adjoint closure per operation;
    ``backward`` visits them strictly in reverse, once: ``sage_relu``'s
    step, and ``linear_heads``' step over a dead input, overwrite forward
    arrays they have read, and each step's closure cells are emptied once
    it has run.
    """

    __slots__ = ("_steps", "_replayed")

    def __init__(self):
        self._steps: list[Callable[[], None]] = []
        self._replayed = False

    def leaf(self, value, grad: np.ndarray | None = None) -> Tensor:
        """A tracked input.  Without ``grad`` its adjoint buffer is
        allocated on first use; with ``grad`` the adjoint accumulates
        into that buffer in place (used for parameters)."""
        arr = _as_matrix(value)
        if grad is not None and grad.shape != arr.shape:
            raise ShapeError("grad buffer shape must match the value")
        return Tensor(arr, self, grad)

    def record(self, step: Callable[[], None]) -> None:
        """Append ``step``.  Its closure cells must be its own, since
        ``backward`` empties them."""
        self._steps.append(step)

    def __len__(self) -> int:
        return len(self._steps)


def backward(tape: Tape, loss: Tensor) -> None:
    """Seed d(loss)/d(loss) = 1 and replay the tape in reverse.

    Afterwards only leaves hold ``grad``: every intermediate has passed
    its gradient on.  Parameter leaves add into their store's buffers.
    """
    if tape is None or loss.tape is not tape:
        raise ContractError("loss was not recorded on this tape")
    if loss.shape != (1, 1):
        raise ContractError("backward needs a scalar (1, 1) loss")
    if tape._replayed:
        raise ContractError("backward already replayed this tape")
    tape._replayed = True
    _accumulate(loss._slot, np.ones((1, 1)))
    for step in reversed(tape._steps):
        step()
        # The step has run for good: empty its cells so the arrays and
        # slots it captured are freed now, while the closure itself
        # stays on the tape.
        for cell in step.__closure__ or ():
            cell.cell_contents = None


def _tape_of(*tensors: Tensor) -> Tape | None:
    tape = None
    for t in tensors:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ContractError("operands belong to different tapes")
    return tape


def _take(slot: _Slot) -> np.ndarray | None:
    """Hand an output's gradient to its adjoint, emptying the slot.

    The adjoint owns the array and may overwrite it: adjoint results are
    fresh or the array taken, pass-through ops hand it to one input only,
    ``_record_binary`` copies a shared ``gb`` and ``backward`` seeds a
    fresh ``np.ones``, so no other slot holds it."""
    g, slot.grad = slot.grad, None
    return g


def _accumulate(slot: _Slot, g: np.ndarray, shared: bool = False) -> None:
    """Add ``g`` into ``slot.grad``.  The first contribution becomes the
    buffer itself, or a copy of it when another input may adopt ``g``
    too (``shared``)."""
    if slot.grad is None:
        slot.grad = g.copy() if shared else g
    else:
        slot.grad += g


def _record_unary(out: Tensor, a: Tensor,
                  adjoint: Callable[[np.ndarray], np.ndarray]) -> None:
    """Record the step of a one-input op: it passes ``adjoint(g)`` to
    ``a``.  ``adjoint`` must close over arrays, never over a Tensor."""
    so, sa = out._slot, a._slot
    def step():
        g = _take(so)
        if g is not None:
            _accumulate(sa, adjoint(g))
    a.tape.record(step)


def _record_binary(out: Tensor, a: Tensor, b: Tensor,
                   da: Callable[[np.ndarray], np.ndarray],
                   db: Callable[[np.ndarray], np.ndarray]) -> None:
    """Record the step of a two-input op: it passes ``da(g)`` to ``a`` and
    ``db(g)`` to ``b``, each only when that input is tracked.  When
    ``db(g)`` is the very array ``a`` just adopted, ``b`` takes a copy.
    ``da`` and ``db`` must close over arrays, never over a Tensor."""
    so, sa, sb = out._slot, a._slot, b._slot
    def step():
        g = _take(so)
        if g is None:
            return
        ga = None
        if sa is not None:
            ga = da(g)
            _accumulate(sa, ga)
        if sb is not None:
            gb = db(g)
            _accumulate(sb, gb, shared=gb is ga)
    out.tape.record(step)


def _record_scatter(out: Tensor, a: Tensor, index) -> None:
    """Record the step of an op that keeps ``a.value[index]``: it adds
    the gradient into ``a``'s at ``index``."""
    so, sa, shape = out._slot, a._slot, a.shape
    def step():
        g = _take(so)
        if g is None:
            return
        if sa.grad is None:
            sa.grad = np.zeros(shape)
        sa.grad[index] += g
    a.tape.record(step)


def _identity(g: np.ndarray) -> np.ndarray:
    return g


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
# An adjoint closes over its output's slot, its tracked inputs' slots
# (None for constants) and the arrays it reads, never over a Tensor.  It
# returns at once when no gradient reached its output.

_ROW_BLOCK = 256  # OpenBLAS split 1024-row products by thread at 2k rows


def _blocked_at_g(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``a.T @ g`` summed over fixed 256-row blocks in row order.

    A weight gradient's inner dimension is the node count, and OpenBLAS
    splits such a sum by thread, so the plain product changes bits with
    the thread count.  No 256-row block was split at any size tried, and
    the blocks add in one fixed order (Demmel & Nguyen, "Fast
    reproducible floating-point summation", ARITH 2013).
    """
    out = a[:_ROW_BLOCK].T @ g[:_ROW_BLOCK]
    for start in range(_ROW_BLOCK, a.shape[0], _ROW_BLOCK):
        stop = start + _ROW_BLOCK
        out += a[start:stop].T @ g[start:stop]
    return out


def _blocked_column(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a one-column ``b``, in fixed 256-row blocks.

    OpenBLAS's GEMV splits a product of about 10k rows or more by
    thread, and at some row counts (the 20k grid's 20,022 among them)
    that changes bits with the thread count.  The blocks never did, and
    up to 2,199 rows they gave the plain product's bits at every size
    and inner dimension tried.  A lone last row joins the block before
    it, since a one-row product alone took another code path and gave
    other bits.  The full blocks go as one stacked product, which saves
    a Python call per block.
    """
    n, k = a.shape
    full = n - n % _ROW_BLOCK
    if n % _ROW_BLOCK == 1 and full:
        full -= _ROW_BLOCK
    out = np.empty((n, 1))
    np.matmul(a[:full].reshape(-1, _ROW_BLOCK, k), b,
              out=out[:full].reshape(-1, _ROW_BLOCK, 1))
    np.matmul(a[full:], b, out=out[full:])
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``, as a head without a bias (see ``linear_heads``).

    Nothing in ``qpignn`` calls it.  It stays only because
    ``perfbench/spans.py`` wraps it, until those spans time
    ``linear_heads`` instead.
    """
    return linear_heads(a, [(b, None)])[0]


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum.  ``add(a, a)`` doubles: the second contribution
    adds ``a``'s adopted buffer to itself."""
    _same_shape(a, b, "add")
    out = Tensor(a.value + b.value, _tape_of(a, b))
    if out.tape is not None:
        _record_binary(out, a, b, _identity, _identity)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    out = Tensor(a.value - b.value, _tape_of(a, b))
    if out.tape is not None:
        _record_binary(out, a, b, _identity, np.negative)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product.  Passing the same tensor twice squares it and
    the adjoint correctly doubles."""
    _same_shape(a, b, "mul")
    out = Tensor(a.value * b.value, _tape_of(a, b))
    if out.tape is not None:
        av, bv = a.value, b.value
        _record_binary(out, a, b, lambda g: g * bv, lambda g: g * av)
    return out


def scale(a: Tensor, k: float | np.ndarray) -> Tensor:
    """Multiply by a constant scalar or array; ``k`` never gets gradient.

    This is how stop-gradient indicator masks enter a loss.
    """
    k_arr = np.asarray(k, dtype=np.float64)
    if k_arr.ndim != 0 and k_arr.shape != a.shape:
        raise ShapeError(f"scale: coefficient shape {k_arr.shape} vs {a.shape}")
    out = Tensor(a.value * k_arr, a.tape)
    if a.tape is not None:
        _record_unary(out, a, lambda g: g * k_arr)
    return out


def add_row_bias(a: Tensor, bias: Tensor) -> Tensor:
    """Add a (1, d) bias row to every row of a (n, d) tensor."""
    if bias.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row_bias: bias {bias.shape} vs value {a.shape}")
    out = Tensor(a.value + bias.value, _tape_of(a, bias))
    if out.tape is not None:
        _record_binary(out, a, bias, _identity,
                       lambda g: g.sum(axis=0, keepdims=True))
    return out


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly zero is taken as zero."""
    out = Tensor(np.maximum(a.value, 0.0), a.tape)
    if a.tape is not None:
        mask = a.value > 0.0
        _record_unary(out, a, lambda g: np.multiply(g, mask, out=g))
    return out


def softplus(a: Tensor) -> Tensor:
    """log(1 + exp(x)), computed as max(x, 0) + log1p(exp(-|x|)).

    The rewrite never exponentiates a large positive number, so the op
    is exact for very negative inputs and overflow-free for large ones.
    """
    x = a.value
    out = Tensor(np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), a.tape)
    if a.tape is not None:
        sig = expit(x)
        _record_unary(out, a, lambda g: g * sig)
    return out


def sigmoid(a: Tensor) -> Tensor:
    s = expit(a.value)
    out = Tensor(s, a.tape)
    if a.tape is not None:
        _record_unary(out, a, lambda g: g * s * (1.0 - s))
    return out


def _keep_threshold(p: float) -> int:
    """Dropout keeps an entry whose uint32 draw is at least this."""
    return round(p * (1 << 32))


def dropout(a: Tensor, p: float, seed: int, dead: bool = False) -> Tensor:
    """Inverted dropout: kept entries are rescaled by 1 / (1 - p).

    At p == 0 this is the identity, which is how an evaluation pass
    turns it off.  The mask is a pure function of ``seed``, so a forward
    pass can be replayed.  An entry is kept when its uint32 draw clears
    ``_keep_threshold(p)``; the draws are ``raw_words`` viewed as
    uint32s, each chunk compared straight into the bool mask, which the
    tape keeps.  With ``dead``, ``a``'s own buffer is masked.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError("dropout probability must lie in [0, 1)")
    if p == 0.0:
        return a
    keep = np.empty(a.shape, dtype=bool)
    flat = keep.reshape(-1)
    rng = keyed_rng(seed, "dropout")
    for offset, words in raw_words(rng, (keep.size + 1) // 2):
        part = flat[2 * offset:2 * (offset + words.size)]
        np.greater_equal(words.astype("<u8", copy=False).view("<u4")
                         [:part.size], _keep_threshold(p), out=part)
    k = 1.0 / (1.0 - p)
    v = np.multiply(a.value, keep, out=a.value if dead else None)
    v *= k
    out = Tensor(v, a.tape)
    if a.tape is not None:
        def adjoint(g):
            g *= keep
            g *= k
            return g
        _record_unary(out, a, adjoint)
    return out


def csr_mean_aggregate(graph: Graph, h: Tensor) -> Tensor:
    """Row v of the output is the mean of h over v's neighbours.

    Isolated nodes get a zero row.  The adjoint scatters the incoming
    gradient back through the same 1/deg weights (transposed operator).
    Nothing in ``qpignn`` calls it; ``sage_relu`` runs the same product.
    It stays only because ``perfbench/spans.py`` wraps it, until those
    spans time ``sage_relu`` instead.
    """
    if h.shape[0] != graph.num_nodes:
        raise ShapeError(
            f"aggregate: {h.shape[0]} rows for {graph.num_nodes} nodes")
    op = mean_adjacency(graph)
    out = Tensor(np.asarray(op @ h.value), h.tape)
    if h.tape is not None:
        _record_unary(out, h, lambda g: op.T @ g)
    return out


def sage_relu(graph: Graph, h: Tensor, w_self: Tensor, w_neigh: Tensor,
              bias: Tensor, dropout_p: float = 0.0, seed: int = 0) -> Tensor:
    """One encoder layer, ``dropout(relu(h W_self + mean_neighbours(h)
    W_neigh + bias))``, computed in the buffer of ``h W_self`` and taped
    as one step.

    Forward and backward run the float operations of ``matmul``,
    ``csr_mean_aggregate``, ``matmul``, ``add``, ``add_row_bias``,
    ``relu`` and ``dropout`` in their order, so the bits are theirs;
    ``h`` takes its two gradient parts one after the other, as from the
    two matmul steps.  The step keeps one bool mask, ``out > 0``: as
    1 / (1 - p) >= 1, a dropped-out ReLU output is positive exactly
    where the ReLU passed and dropout kept, so masking by it and then
    scaling gives dropout's and ReLU's product for every gradient whose
    scaled value is finite.
    """
    if (h.shape[0] != graph.num_nodes or w_self.shape[0] != h.shape[1]
            or w_neigh.shape != w_self.shape
            or bias.shape != (1, w_self.shape[1])):
        raise ShapeError(f"sage_relu: input {h.shape} on {graph.num_nodes} "
                         f"nodes, weights {w_self.shape} and {w_neigh.shape}, "
                         f"bias {bias.shape}")
    op = mean_adjacency(graph)
    agg = np.asarray(op @ h.value)
    tape = _tape_of(h, w_self, w_neigh, bias)
    v = h.value @ w_self.value
    _gemm_add(agg, w_neigh.value, v)
    v += bias.value
    np.maximum(v, 0.0, out=v)
    if tape is None:
        agg = None  # freed before dropout's draw
    # Through the module global, so a wrapped ``dropout`` sees each draw.
    v = dropout(Tensor(v), dropout_p, seed, dead=True).value
    out = Tensor(v, tape)
    if tape is None:
        return out
    mask = v > 0.0

    so, sh, ss, sn, sb = (out._slot, h._slot, w_self._slot, w_neigh._slot,
                          bias._slot)
    ws, wn = w_self.value, w_neigh.value
    hv = h.value if ss is not None else None

    def step():
        nonlocal hv
        g = _take(so)
        if g is None:
            return
        g *= mask
        if dropout_p > 0.0:
            g *= 1.0 / (1.0 - dropout_p)
        if sb is not None:
            _accumulate(sb, g.sum(axis=0, keepdims=True))
        if sn is not None:
            _accumulate(sn, _blocked_at_g(agg, g))
        if ss is not None:
            _accumulate(ss, _blocked_at_g(hv, g))
        hv = None  # read for the last time: freed before h's gradient
        if sh is not None:
            # Nothing reads agg now, so the first n x in_dim product goes
            # into it.  The sparse product is fresh, so no slot adopts agg.
            np.matmul(g, wn.T, out=agg)
            _accumulate(sh, op.T @ agg)
            _gemm_add(g, ws.T, sh.grad)
    tape.record(step)
    return out


def linear_heads(h: Tensor, heads: list[tuple[Tensor, Tensor | None]],
                 dead: bool = False) -> list[Tensor]:
    """``h @ weight + bias`` for each (weight, bias or None) pair, taped
    as one step.  The step takes every bias and weight gradient, then
    ``h``'s parts from the last head to the first, as one matmul and one
    bias step per head would; with ``dead`` nothing reads ``h``'s value
    after the weight gradients, so the first part goes into its buffer.
    """
    if any(w.shape[0] != h.shape[1] or b is not None
           and b.shape != (1, w.shape[1]) for w, b in heads):
        raise ShapeError(f"linear_heads: input {h.shape}, heads {heads}")
    tape = _tape_of(h, *(t for pair in heads for t in pair if t is not None))
    outs = []
    for w, b in heads:
        v = (_blocked_column(h.value, w.value) if w.shape[1] == 1
             else h.value @ w.value)
        if b is not None:
            v += b.value
        outs.append(Tensor(v, tape))
    if tape is None:
        return outs
    so, sh = [out._slot for out in outs], h._slot
    slots = [(w._slot, None if b is None else b._slot) for w, b in heads]
    ws = [w.value for w, _ in heads] if sh is not None else None
    hv = h.value if dead or any(sw is not None for sw, _ in slots) else None

    def step():
        nonlocal hv
        gs = [_take(slot) for slot in so]
        for g, (sw, sb) in zip(gs, slots):
            if g is not None and sb is not None:
                _accumulate(sb, g.sum(axis=0, keepdims=True))
            if g is not None and sw is not None:
                _accumulate(sw, _blocked_at_g(hv, g))
        buf, hv = (hv if dead else None), None
        if sh is None:
            return
        for g, w in reversed(list(zip(gs, ws))):
            if g is None:
                continue
            if sh.grad is None:
                sh.grad = np.matmul(g, w.T, out=buf)
            else:  # a later part, or a leaf's own buffer
                _gemm_add(g, w.T, sh.grad)
    tape.record(step)
    return outs


def masked_select(a: Tensor, mask: np.ndarray) -> Tensor:
    """Keep the rows where ``mask`` is True (boolean, length = rows)."""
    mask = np.asarray(mask)
    if mask.dtype != np.bool_ or mask.shape != (a.shape[0],):
        raise ShapeError("mask must be a boolean vector with one entry per row")
    out = Tensor(a.value[mask], a.tape)
    if a.tape is not None:
        _record_scatter(out, a, mask)
    return out


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    if not 0 <= start < stop <= a.shape[1]:
        raise ShapeError(f"slice_cols: [{start}, {stop}) out of {a.shape}")
    out = Tensor(a.value[:, start:stop].copy(), a.tape)
    if a.tape is not None:
        _record_scatter(out, a, (slice(None), slice(start, stop)))
    return out


def reduce_mean(a: Tensor) -> Tensor:
    shape, size = a.shape, a.value.size
    out = Tensor(np.array([[a.value.mean()]]), a.tape)
    if a.tape is not None:
        _record_unary(out, a, lambda g: np.full(shape, g[0, 0] / size))
    return out


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

class ParamStore:
    """Named parameter arrays with persistent gradient slots.

    The store owns the float64 value and gradient buffers.  ``leaves``
    hands out tape-bound tensors whose adjoints accumulate directly into
    the stored gradient buffers, so after ``backward`` the optimizer can
    read them without any copying.
    """

    def __init__(self):
        self._values: dict[str, np.ndarray] = {}
        self._grads: dict[str, np.ndarray] = {}

    def add(self, name: str, value) -> None:
        if name in self._values:
            raise ParameterError(f"parameter {name!r} already exists")
        arr = _as_matrix(value).copy()
        self._values[name] = arr
        self._grads[name] = np.zeros_like(arr)

    def names(self) -> list[str]:
        return sorted(self._values)

    def value(self, name: str) -> np.ndarray:
        return self._values[name]

    def grad(self, name: str) -> np.ndarray:
        return self._grads[name]

    def __contains__(self, name: str) -> bool:
        return name in self._values

    def zero_grads(self) -> None:
        for g in self._grads.values():
            g[:] = 0.0

    def leaves(self, tape: Tape) -> dict[str, Tensor]:
        return {name: tape.leaf(self._values[name], self._grads[name])
                for name in self.names()}

    def constants(self) -> dict[str, Tensor]:
        """Untracked views for forward-only evaluation."""
        return {name: Tensor(self._values[name])
                for name in self.names()}
