"""Scalar-oracle checks for the Adam implementation."""
import math

import numpy as np
import pytest

from qpignn.diffkit import ParamStore
from qpignn.errors import ContractError, ParameterError
from qpignn.optim import AdamState, adam_step, grad_norm


def _scalar_store(theta, grad):
    ps = ParamStore()
    ps.add("w", np.array([[theta]]))
    ps.grad("w")[:] = grad
    return ps


def _expected_step(theta, g_raw, m, v, t, lr, wd, b1=0.9, b2=0.999, eps=1e-8,
                   sqrt_decay=False):
    """Reference update in plain Python floats."""
    g = g_raw + wd * theta
    m = b1 * m + (1 - b1) * g
    v = b2 * v + (1 - b2) * g * g
    lr_t = lr / math.sqrt(t) if sqrt_decay else lr
    mh = m / (1 - b1 ** t)
    vh = v / (1 - b2 ** t)
    return theta - lr_t * mh / (math.sqrt(vh) + eps), m, v


def test_first_step_with_coupled_decay():
    ps = _scalar_store(1.0, 0.5)
    state = AdamState.for_params(ps)
    adam_step(ps, state, 0.1, 0.1)
    want, m, v = _expected_step(1.0, 0.5, 0.0, 0.0, 1, 0.1, 0.1)
    assert ps.value("w")[0, 0] == pytest.approx(want, abs=1e-15)
    assert state.m["w"][0, 0] == pytest.approx(m, abs=1e-15)
    assert state.v["w"][0, 0] == pytest.approx(v, abs=1e-15)


def test_second_step_tracks_moments():
    ps = _scalar_store(1.0, 0.5)
    state = AdamState.for_params(ps)
    adam_step(ps, state, 0.1, 0.1)
    t1, m, v = _expected_step(1.0, 0.5, 0.0, 0.0, 1, 0.1, 0.1)
    ps.grad("w")[:] = 0.25
    adam_step(ps, state, 0.1, 0.1)
    t2, _, _ = _expected_step(t1, 0.25, m, v, 2, 0.1, 0.1)
    assert ps.value("w")[0, 0] == pytest.approx(t2, abs=1e-14)
    assert state.t == 2


def test_decay_pulls_toward_zero_with_no_gradient():
    ps = _scalar_store(5.0, 0.0)
    state = AdamState.for_params(ps)
    for _ in range(50):
        adam_step(ps, state, 0.01, 0.5)
    assert 0 < ps.value("w")[0, 0] < 5.0


def test_first_step_magnitude_without_decay():
    # at t=1, m_hat / sqrt(v_hat) collapses to sign(g) so |delta| ~ lr
    ps = _scalar_store(0.0, 3.7)
    state = AdamState.for_params(ps)
    adam_step(ps, state, 0.05, 0.0)
    assert ps.value("w")[0, 0] == pytest.approx(-0.05, rel=1e-6)


def test_sqrt_decay_schedule():
    """The 1/sqrt(t) step size that ``train`` passes under
    ``sqrt_lr_decay``."""
    theta, m, v = 0.0, 0.0, 0.0
    ps = _scalar_store(theta, 1.0)
    state = AdamState.for_params(ps)
    for t in (1, 2, 3):
        ps.grad("w")[:] = 1.0
        adam_step(ps, state, 0.1 / np.sqrt(t), 0.0)
        theta, m, v = _expected_step(theta, 1.0, m, v, t, 0.1, 0.0,
                                     sqrt_decay=True)
        assert ps.value("w")[0, 0] == pytest.approx(theta, abs=1e-14)
    # cumulative movement shows the 1/sqrt(t) shrink: step 3 < step 1
    assert abs(theta) < 3 * 0.1


def test_grads_zeroed_after_step():
    ps = _scalar_store(1.0, 0.5)
    state = AdamState.for_params(ps)
    adam_step(ps, state, 0.1, 1e-3)
    assert ps.grad("w")[0, 0] == 0.0


def test_state_param_mismatch():
    ps = _scalar_store(1.0, 0.5)
    other = ParamStore()
    other.add("b", np.zeros((1, 1)))
    state = AdamState.for_params(other)
    with pytest.raises(ContractError):
        adam_step(ps, state, 1e-3, 1e-3)


def test_config_validation():
    ps = _scalar_store(1.0, 0.5)
    state = AdamState.for_params(ps)
    with pytest.raises(ParameterError):
        adam_step(ps, state, -1.0, 1e-3)
    with pytest.raises(ParameterError):
        adam_step(ps, state, 1e-3, -0.5)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            adam_step(ps, state, bad, 1e-3)
        with pytest.raises(ParameterError):
            adam_step(ps, state, 1e-3, bad)
    # a refused step changes nothing
    assert state.t == 0 and ps.value("w")[0, 0] == 1.0


def test_grad_norm_oracle():
    ps = ParamStore()
    ps.add("a", np.zeros((1, 2)))
    ps.add("b", np.zeros((2, 1)))
    ps.grad("a")[:] = [[3.0, 0.0]]
    ps.grad("b")[:] = [[0.0], [4.0]]
    assert grad_norm(ps) == pytest.approx(5.0, abs=1e-15)
    state = AdamState.for_params(ps)
    adam_step(ps, state, 0.1, 1e-3)
    assert grad_norm(ps) == 0.0


def test_vector_params_update_elementwise():
    ps = ParamStore()
    ps.add("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    ps.grad("w")[:] = [[1.0, 0.0], [0.0, -1.0]]
    state = AdamState.for_params(ps)
    adam_step(ps, state, 0.1, 0.0)
    w = ps.value("w")
    assert w[0, 0] < 1.0 and w[1, 1] > 4.0
    assert w[0, 1] == 2.0 and w[1, 0] == 3.0  # zero grad, zero decay
