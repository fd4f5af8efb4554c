"""Reference implementations the tests check ``qpignn`` against.

Nothing in ``qpignn`` calls these; they exist to give the tests an
independent route to the values the package computes.
"""
from typing import Callable

from qpignn.diffkit import ParamStore, Tensor, backward
from qpignn.errors import ContractError, ParameterError


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
