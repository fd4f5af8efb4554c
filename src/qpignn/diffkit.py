"""A minimal dense-tensor engine with reverse-mode differentiation.

Everything is a 2-D float64 array.  Operations record their adjoint as a
closure on a linear tape; ``backward`` replays the tape in exact reverse
order, which keeps gradient accumulation deterministic.  Tensors built
with ``constant`` (or any expression whose inputs are all constants)
carry no tape and evaluate forward-only, so the same code path serves
both training and plain inference.

Gradient buffers are allocated on first use.  A tracked tensor owns a
small adjoint slot holding only its ``grad``, which starts as None; the
first gradient that reaches it becomes its buffer and later ones are
added in place.  Pass-through adjoints (``add``, ``sub``, ``add_scalar``,
``add_row_bias``) hand their output's gradient array on to their first
input rather than copying it.  Adopting the first contribution gives the
same values as adding it to zeros, up to the sign of zero entries;
parameter buffers start at +0 and always add, so parameter gradients are
unchanged bit for bit.

The tape keeps only what backward reads.  Each adjoint closes over
slots and the few arrays it needs (a matmul the other operand's value,
relu its mask, dropout its scaled mask), so every other forward value is
freed as soon as the forward pass drops it.  Each adjoint takes its
output's gradient out of the slot, so an intermediate's gradient is
freed once passed on and after ``backward`` only leaves hold one.
Untracked tensors have no slot and record nothing.

Comparisons never flow gradient: coverage and violation indicators are
computed on raw values and re-enter the graph as constant coefficients.
"""
from __future__ import annotations

from typing import Callable, Mapping

import numpy as np
from scipy.special import expit

from .errors import ContractError, ParameterError, ShapeError
from .graphcore import Graph, mean_adjacency
from .rng import keyed_rng


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
    ``backward`` visits them strictly in reverse.
    """

    __slots__ = ("_steps",)

    def __init__(self):
        self._steps: list[Callable[[], None]] = []

    def leaf(self, value, grad: np.ndarray | None = None) -> Tensor:
        """A tracked input.  Without ``grad`` its adjoint buffer is
        allocated on first use; with ``grad`` the adjoint accumulates
        into that buffer in place (used for parameters)."""
        arr = _as_matrix(value)
        if grad is not None and grad.shape != arr.shape:
            raise ShapeError("grad buffer shape must match the value")
        return Tensor(arr, self, grad)

    def record(self, step: Callable[[], None]) -> None:
        self._steps.append(step)

    def release(self) -> None:
        """Drop the recorded closures, and with them the arrays their
        adjoints read; the tape cannot be replayed after.

        ``harness.train`` releases each tape one epoch late, after the
        next loss node is built, so the freed blocks lie under live ones
        and get reused.  Released at the end of its own epoch, the top of
        the heap went back to the system and the next forward pass
        faulted it in again, which made epochs slower.
        """
        self._steps.clear()

    def __len__(self) -> int:
        return len(self._steps)


def backward(tape: Tape, loss: Tensor) -> None:
    """Seed d(loss)/d(loss) = 1 and replay the tape in reverse.

    Afterwards only leaves hold ``grad``: every intermediate has passed
    its gradient on.  Parameter leaves add into their store's buffers.
    """
    if loss.tape is not tape:
        raise ContractError("loss was not recorded on this tape")
    if loss.shape != (1, 1):
        raise ContractError("backward needs a scalar (1, 1) loss")
    _accumulate(loss._slot, np.ones((1, 1)))
    for step in reversed(tape._steps):
        step()


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
    """Hand an output's gradient to its adjoint, emptying the slot."""
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


def _same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------
# An adjoint closes over its output's slot, its tracked inputs' slots
# (None for constants) and the arrays it reads, never over a Tensor.  It
# returns at once when no gradient reached its output.

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims {a.shape} x {b.shape}")
    tape = _tape_of(a, b)
    out = Tensor(a.value @ b.value, tape)
    if tape is not None:
        so, sa, sb = out._slot, a._slot, b._slot
        # Each operand's gradient reads only the other operand's value.
        av = a.value if sb is not None else None
        bv = b.value if sa is not None else None
        def step():
            g = _take(so)
            if g is None:
                return
            if sa is not None:
                _accumulate(sa, g @ bv.T)
            if sb is not None:
                _accumulate(sb, av.T @ g)
        tape.record(step)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum.  ``add(a, a)`` doubles: the second contribution
    adds ``a``'s adopted buffer to itself."""
    _same_shape(a, b, "add")
    tape = _tape_of(a, b)
    out = Tensor(a.value + b.value, tape)
    if tape is not None:
        so, sa, sb = out._slot, a._slot, b._slot
        def step():
            g = _take(so)
            if g is None:
                return
            if sa is not None:
                _accumulate(sa, g)
            if sb is not None:
                _accumulate(sb, g, shared=sa is not None)
        tape.record(step)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "sub")
    tape = _tape_of(a, b)
    out = Tensor(a.value - b.value, tape)
    if tape is not None:
        so, sa, sb = out._slot, a._slot, b._slot
        def step():
            g = _take(so)
            if g is None:
                return
            if sa is not None:
                _accumulate(sa, g)
            if sb is not None:
                _accumulate(sb, -g)
        tape.record(step)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product.  Passing the same tensor twice squares it and
    the adjoint correctly doubles."""
    _same_shape(a, b, "mul")
    tape = _tape_of(a, b)
    out = Tensor(a.value * b.value, tape)
    if tape is not None:
        so, sa, sb = out._slot, a._slot, b._slot
        av, bv = a.value, b.value
        def step():
            g = _take(so)
            if g is None:
                return
            if sa is not None:
                _accumulate(sa, g * bv)
            if sb is not None:
                _accumulate(sb, g * av)
        tape.record(step)
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


def add_scalar(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = Tensor(a.value + c, a.tape)
    if a.tape is not None:
        _record_unary(out, a, lambda g: g)
    return out


def add_row_bias(a: Tensor, bias: Tensor) -> Tensor:
    """Add a (1, d) bias row to every row of a (n, d) tensor."""
    if bias.shape != (1, a.shape[1]):
        raise ShapeError(f"add_row_bias: bias {bias.shape} vs value {a.shape}")
    tape = _tape_of(a, bias)
    out = Tensor(a.value + bias.value, tape)
    if tape is not None:
        so, sa, sb = out._slot, a._slot, bias._slot
        def step():
            g = _take(so)
            if g is None:
                return
            if sa is not None:
                _accumulate(sa, g)
            if sb is not None:
                _accumulate(sb, g.sum(axis=0, keepdims=True))
        tape.record(step)
    return out


def relu(a: Tensor) -> Tensor:
    """max(x, 0); the subgradient at exactly zero is taken as zero."""
    out = Tensor(np.maximum(a.value, 0.0), a.tape)
    if a.tape is not None:
        mask = a.value > 0.0
        _record_unary(out, a, lambda g: g * mask)
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


def dropout(a: Tensor, p: float, seed: int, train_mode: bool) -> Tensor:
    """Inverted dropout: kept entries are rescaled by 1 / (1 - p).

    Outside training (or at p == 0) this is the identity.  The mask is a
    pure function of ``seed``, so a forward pass can be replayed.
    """
    if not 0.0 <= p < 1.0:
        raise ParameterError("dropout probability must lie in [0, 1)")
    if not train_mode or p == 0.0:
        return a
    # The uniform draws' buffer is overwritten with the mask.
    draws = keyed_rng(seed, "dropout").random(a.shape)
    return scale(a, np.divide(draws >= p, 1.0 - p, out=draws))


def csr_mean_aggregate(graph: Graph, h: Tensor) -> Tensor:
    """Row v of the output is the mean of h over v's neighbours.

    Isolated nodes get a zero row.  The adjoint scatters the incoming
    gradient back through the same 1/deg weights (transposed operator).
    """
    if h.shape[0] != graph.num_nodes:
        raise ShapeError(
            f"aggregate: {h.shape[0]} rows for {graph.num_nodes} nodes")
    op = mean_adjacency(graph)
    out = Tensor(np.asarray(op @ h.value), h.tape)
    if h.tape is not None:
        _record_unary(out, h, lambda g: op.T @ g)
    return out


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

    def __len__(self) -> int:
        return len(self._values)

    @property
    def size(self) -> int:
        return sum(v.size for v in self._values.values())

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

    def copy(self) -> "ParamStore":
        other = ParamStore()
        for name in self.names():
            other.add(name, self._values[name])
        return other


def finite_diff_check(f: Callable[[ParamStore], Tensor], params: ParamStore,
                      h: float = 1e-5) -> float:
    """Compare tape gradients of ``f`` against central differences.

    ``f`` must build a fresh graph from the store and return a scalar
    tensor.  Returns the worst relative error over every parameter
    coordinate.  The relative-error denominator is floored so that
    coordinates whose true gradient is zero only contribute finite-
    difference roundoff, not a blow-up.
    """
    if h <= 0:
        raise ParameterError("h must be positive")
    params.zero_grads()
    out = f(params)
    if out.tape is None:
        raise ContractError("f must return a tracked tensor")
    backward(out.tape, out)
    analytic = {name: params.grad(name).copy() for name in params.names()}
    floor = 1e-6 * max(1.0, abs(out.item()))
    worst = 0.0
    for name in params.names():
        flat = params.value(name).ravel()
        grad_flat = analytic[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f(params).item()
            flat[i] = orig - h
            lo = f(params).item()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * h)
            a = grad_flat[i]
            err = abs(a - fd) / max(abs(a), abs(fd), floor)
            worst = max(worst, err)
    params.zero_grads()
    return worst
