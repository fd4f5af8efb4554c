"""Hand-computed oracles for every training objective."""
import numpy as np
import pytest

import qpignn as q
from qpignn import diffkit as dk
from qpignn.diffkit import Tape, backward
from qpignn.errors import ContractError, ParameterError
from qpignn.losses import (mse_loss, pinball_loss, qpi_total_loss,
                           rqr_adj_loss, sqr_taus, violation_loss, width_loss)
from qpignn.metrics import interval_stats
from qpignn.model import IntervalSet, ModelConfig, init_model
from reference import finite_diff_check
from qpignn.rng import keyed_rng


def _iv(low, up, tape=None):
    tape = tape or Tape()
    return IntervalSet(tape.leaf(np.asarray(low, float).reshape(-1, 1)),
                       tape.leaf(np.asarray(up, float).reshape(-1, 1))), tape


ALL = np.ones(4, dtype=bool)


def _masked(iv, y, mask=ALL):
    """The masked bound pair and the stats that the interval losses take."""
    st = interval_stats(iv, y, mask)
    return (dk.masked_select(iv.low, st.mask),
            dk.masked_select(iv.up, st.mask), st)


def test_empirical_coverage_closed_interval():
    iv, _ = _iv([0, 0, 0, 0], [1, 1, 1, 1])
    y = np.array([0.0, 1.0, 0.5, 1.5])  # both endpoints count as covered
    assert interval_stats(iv, y, ALL).coverage == 0.75


def test_violation_loss_oracle():
    iv, tape = _iv([0, 0, 0, 0], [1, 1, 1, 1])
    y = np.array([-0.5, 2.0, 0.5, 1.0])
    # distances to the nearest bound: 0.5 below, 1.0 above, 0, 0
    loss = violation_loss(*_masked(iv, y))
    assert loss.item() == pytest.approx((0.5 + 1.0) / 4, abs=1e-12)
    backward(tape, loss)
    # gradient pushes the violated low bound down and up bound up
    np.testing.assert_allclose(iv.low.grad.ravel(), [0.25, 0, 0, 0])
    np.testing.assert_allclose(iv.up.grad.ravel(), [0, -0.25, 0, 0])


def test_violation_is_zero_when_covered():
    iv, _ = _iv([-1, -1], [1, 1])
    assert violation_loss(*_masked(iv, np.array([0.0, 0.5]),
                                   np.ones(2, bool))).item() == 0.0


def test_width_loss_l1_l2():
    iv, _ = _iv([0, 0, 0, 0], [1, 2, 3, 4])
    low, up, _ = _masked(iv, np.zeros(4))
    assert width_loss(low, up, "l1").item() == pytest.approx(2.5)
    assert width_loss(low, up, "l2").item() == pytest.approx((1 + 4 + 9 + 16) / 4)
    with pytest.raises(ParameterError):
        width_loss(low, up, "l3")


def test_qpi_total_decomposition():
    iv, _ = _iv([0, 0, 0, 0], [1, 1, 1, 1])
    y = np.array([-0.5, 2.0, 0.5, 1.0])
    br = qpi_total_loss(*_masked(iv, y), alpha=0.1, lambda_width=0.3)
    assert br.empirical_coverage == 0.5
    assert br.coverage_term == pytest.approx((0.5 - 0.9) ** 2)
    assert br.violation_term == pytest.approx(0.375)
    assert br.width_term == pytest.approx(1.0)
    assert br.total == pytest.approx(br.coverage_term + br.violation_term
                                     + 0.3 * br.width_term)
    assert br.node.item() == pytest.approx(br.total)


def test_hard_coverage_term_is_stop_gradient():
    """With full coverage and zero violation, the only gradient source is
    the width penalty: exactly lambda/n on each bound."""
    y = np.array([0.0, 0.0, 0.0, 0.0])
    iv, tape = _iv([-1, -1, -1, -1], [1, 1, 1, 1])
    br = qpi_total_loss(*_masked(iv, y), alpha=0.1, lambda_width=0.4)
    assert br.coverage_term == pytest.approx((1.0 - 0.9) ** 2)
    backward(tape, br.node)
    np.testing.assert_allclose(iv.up.grad.ravel(), 0.4 / 4)
    np.testing.assert_allclose(iv.low.grad.ravel(), -0.4 / 4)


def test_smooth_coverage_routes_gradient():
    y = np.array([0.0, 0.0, 0.0, 0.0])
    iv, tape = _iv([-1, -1, -1, -1], [1, 1, 1, 1])
    br = qpi_total_loss(*_masked(iv, y), alpha=0.1, lambda_width=0.0,
                        smooth_coverage=True)
    backward(tape, br.node)
    # the logistic surrogate passes gradient even with zero violation
    assert np.abs(iv.up.grad).sum() > 0


def test_pinball_oracle():
    tape = Tape()
    yhat = tape.leaf(np.array([[1.0], [1.0]]))
    y = np.array([2.0, 0.0])
    # tau=0.9: (0.9-0)*(2-1) + (0.9-1)*(0-1) = 0.9 + 0.1 -> mean 0.5
    loss = pinball_loss(y, yhat, 0.9)
    assert loss.item() == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        pinball_loss(y, yhat, 1.0)
    with pytest.raises(ContractError):
        pinball_loss(np.zeros(3), yhat, 0.5)


def test_pinball_per_row_tau():
    tape = Tape()
    yhat = tape.leaf(np.array([[0.0], [0.0]]))
    y = np.array([1.0, 1.0])
    loss = pinball_loss(y, yhat, np.array([0.1, 0.9]))
    assert loss.item() == pytest.approx((0.1 * 1 + 0.9 * 1) / 2)


def test_mse_oracle():
    tape = Tape()
    yhat = tape.leaf(np.array([[1.0], [3.0], [0.0]]))
    y = np.array([0.0, 1.0, 0.0])
    mask = np.array([1, 1, 0], bool)
    yhat_m = dk.masked_select(yhat, mask)
    assert mse_loss(yhat_m, y[mask]).item() == pytest.approx((1 + 4) / 2)
    with pytest.raises(ContractError):
        mse_loss(yhat_m, y)


def test_rqr_w_oracle():
    tape = Tape()
    low = tape.leaf(np.array([[0.0]]))
    up = tape.leaf(np.array([[2.0]]))
    y = np.array([1.0])
    coverage, lam = 0.1, 0.5
    # covered: coeff = coverage + 2 lam - 1 = 0.1; product (y-low)(y-up) = -1
    # penalty (lam/2) w^2 = 0.25 * 4 = 1  -> total = -0.1 + 1
    iv = IntervalSet(low, up)
    loss = rqr_adj_loss(*_masked(iv, y, np.ones(1, bool)), coverage, lam,
                        gamma_order=0.0)
    assert loss.item() == pytest.approx(0.9)


def test_rqr_adj_minimiser_covers_at_its_coverage_argument():
    """Over a symmetric interval [-a, a] the derivative of RQR-adj in a
    is -2a (coverage - P(|y| <= a)): the lam terms cancel, so the
    minimising half-width covers y at ``coverage`` for every lam."""
    y = keyed_rng(0, "rqr-adj-oracle").standard_normal(20_000)
    mask = np.ones(y.size, bool)
    grid = np.arange(0.01, 3.0, 0.01)
    cases = [(coverage, lam) for coverage in (0.1, 0.9)
             for lam in (1.0, 0.1, 0.01)]
    losses = np.empty((len(cases), grid.size))
    for j, a in enumerate(grid):
        iv, _ = _iv(np.full(y.size, -a), np.full(y.size, a))
        pair = _masked(iv, y, mask)
        for i, (coverage, lam) in enumerate(cases):
            losses[i, j] = rqr_adj_loss(*pair, coverage, lam, 1.0).item()
    for (coverage, lam), row in zip(cases, losses):
        best = grid[np.argmin(row)]
        assert abs(np.mean(np.abs(y) <= best) - coverage) <= 0.01, \
            (coverage, lam, best)


def test_rqr_adj_penalises_crossing():
    y = np.array([0.0])
    mask = np.ones(1, bool)
    tape = Tape()
    iv = IntervalSet(tape.leaf(np.array([[1.0]])),
                     tape.leaf(np.array([[-1.0]])))  # crossed by 2
    base = rqr_adj_loss(*_masked(iv, y, mask), 0.1, 1.0,
                        gamma_order=0.0).item()
    for gamma in (0.0, 1.0, 2.5):
        t2 = Tape()
        iv2 = IntervalSet(t2.leaf(np.array([[1.0]])),
                          t2.leaf(np.array([[-1.0]])))
        adj = rqr_adj_loss(*_masked(iv2, y, mask), 0.1, 1.0, gamma).item()
        assert adj == pytest.approx(base + gamma * 2.0)


def test_sqr_taus_contract():
    a, b, c = sqr_taus(500, 3), sqr_taus(500, 3), sqr_taus(500, 4)
    assert a.shape == (500,) and a.tobytes() == b.tobytes()
    assert a.tobytes() != c.tobytes()
    assert np.all((a > 0.0) & (a < 1.0)) and np.all((c > 0.0) & (c < 1.0))


def test_loss_config_validation():
    iv, _ = _iv([0, 0, 0, 0], [1, 1, 1, 1])
    pair = _masked(iv, np.zeros(4))
    with pytest.raises(ParameterError):
        qpi_total_loss(*pair, alpha=0.0, lambda_width=0.05)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            qpi_total_loss(*pair, alpha=0.1, lambda_width=bad)
    with pytest.raises(ParameterError):
        qpi_total_loss(*pair, alpha=0.1, lambda_width=0.05, width_norm="l3")


def test_masked_only_evaluation():
    iv, _ = _iv([0, 0, 0, 0], [1, 1, 1, 1])
    y = np.array([0.5, 99.0, 0.5, 0.5])  # node 1 wildly uncovered
    mask = np.array([1, 0, 1, 1], bool)
    assert interval_stats(iv, y, mask).coverage == 1.0
    assert violation_loss(*_masked(iv, y, mask)).item() == 0.0
    with pytest.raises(ContractError):
        interval_stats(iv, y, np.zeros(4, bool))


def test_qpi_gradient_matches_finite_differences(tiny_ds):
    """End-to-end joint loss through the dual model on six nodes."""
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant="dual"), 1)
    rng = keyed_rng(1, "loss-jitter")
    for name in model.params.names():
        v = model.params.value(name)
        v += rng.uniform(-0.3, 0.3, size=v.shape)

    def f(params):
        tape = Tape()
        iv = q.forward_intervals(model, tiny_ds.graph, tiny_ds.features,
                                 tape=tape)
        return qpi_total_loss(
            *_masked(iv, tiny_ds.targets, tiny_ds.train_mask),
            alpha=0.1, lambda_width=0.5).node

    assert finite_diff_check(f, model.params) < 1e-4


@pytest.mark.parametrize("variant", ("dual", "single", "fixed_margin"))
def test_gradient_through_the_dropped_encoder(tiny_ds, variant):
    """The same loss in training mode with dropout 0.2, so gradients pass
    both masks and every head's one step."""
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant=variant,
                                   dropout_p=0.2), 1)
    rng = keyed_rng(1, "loss-jitter")
    for name in model.params.names():
        v = model.params.value(name)
        v += rng.uniform(-0.3, 0.3, size=v.shape)

    def f(params):
        tape = Tape()
        iv = q.forward_intervals(model, tiny_ds.graph, tiny_ds.features,
                                 tape=tape, seed=0)
        return qpi_total_loss(
            *_masked(iv, tiny_ds.targets, tiny_ds.train_mask),
            alpha=0.1, lambda_width=0.5).node

    assert finite_diff_check(f, model.params) < 1e-4
