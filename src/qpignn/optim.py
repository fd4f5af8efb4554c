"""Adam with coupled L2 weight decay, plus a gradient-norm probe."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffkit import ParamStore
from .errors import ContractError, ParameterError

# Adam's moment decay rates and denominator guard.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam's step count and moment estimates for one ParamStore."""

    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: ParamStore) -> "AdamState":
        state = cls()
        for name in params.names():
            state.m[name] = np.zeros_like(params.value(name))
            state.v[name] = np.zeros_like(params.value(name))
        return state


def adam_step(params: ParamStore, state: AdamState, lr: float,
              weight_decay: float) -> None:
    """Apply one update of step size ``lr`` from the accumulated
    gradients, then zero them.

    Weight decay is coupled: it is added to the raw gradient before the
    moment updates, i.e. plain L2 regularisation rather than the
    decoupled variant.  The chained range check also rejects NaN.
    """
    if not (0.0 <= lr < math.inf and 0.0 <= weight_decay < math.inf):
        raise ParameterError("lr and weight_decay must be finite and >= 0")
    if set(state.m) != set(params.names()):
        raise ContractError("optimizer state does not match the parameter set")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    for name in params.names():
        theta = params.value(name)
        g = params.grad(name) + weight_decay * theta
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
    params.zero_grads()


def grad_norm(params: ParamStore) -> float:
    """Euclidean norm of the concatenated gradient vector.

    Call before ``adam_step``; the step zeroes the gradients.  The sums
    are NumPy reductions: OpenBLAS's ``ddot`` splits long vectors by
    thread, which would make the last bits depend on the thread count.
    """
    total = 0.0
    for name in params.names():
        total += float(np.square(params.grad(name)).sum())
    return float(np.sqrt(total))
