"""Adam with coupled L2 weight decay, plus a gradient-norm probe."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diffkit import ParamStore
from .errors import ContractError, ParameterError


@dataclass
class AdamState:
    """Optimizer state for one ParamStore.

    Weight decay is coupled: it is added to the raw gradient before the
    moment updates, i.e. plain L2 regularisation rather than the
    decoupled variant.  Setting ``sqrt_decay`` scales the step size by
    1/sqrt(t).
    """

    lr: float = 1e-3
    weight_decay: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    sqrt_decay: bool = False
    t: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.lr < math.inf
                and 0.0 <= self.weight_decay < math.inf
                and 0.0 < self.eps < math.inf):
            raise ParameterError("lr and weight_decay must be finite and "
                                 ">= 0, eps finite and > 0")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ParameterError("betas must lie in [0, 1)")

    @classmethod
    def for_params(cls, params: ParamStore, **kwargs) -> "AdamState":
        state = cls(**kwargs)
        for name in params.names():
            state.m[name] = np.zeros_like(params.value(name))
            state.v[name] = np.zeros_like(params.value(name))
        return state


def adam_step(params: ParamStore, state: AdamState) -> None:
    """Apply one update from the accumulated gradients, then zero them."""
    if set(state.m) != set(params.names()):
        raise ContractError("optimizer state does not match the parameter set")
    state.t += 1
    lr_t = state.lr / np.sqrt(state.t) if state.sqrt_decay else state.lr
    bc1 = 1.0 - state.beta1 ** state.t
    bc2 = 1.0 - state.beta2 ** state.t
    for name in params.names():
        theta = params.value(name)
        g = params.grad(name) + state.weight_decay * theta
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        theta -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
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
