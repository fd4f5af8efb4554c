"""Interval and baseline training objectives.

The joint interval loss decomposes as

    total = (coverage_hat - (1 - alpha))^2 + violation + lambda * width

where coverage_hat counts closed-interval hits, the violation term
averages the distance of uncovered targets to the nearest bound, and the
width term averages (up - low) (or its square under the L2 norm option).

Indicator functions are evaluated on raw values and re-enter the graph
as constant coefficients: the coverage-squared term contributes no
gradient (unless the logistic surrogate is switched on) and the
violation term differentiates only through the distance magnitudes.
All losses are evaluated on the caller-supplied node mask only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffkit as dk
from .diffkit import Tensor, constant
from .errors import ContractError, ParameterError
from .graphcore import Dataset
from .metrics import IntervalStats
from .model import IntervalSet, Model, sqr_forward
from .rng import keyed_rng

# Temperature of the optional logistic coverage surrogate.
SMOOTH_COVERAGE_TEMPERATURE = 0.1


@dataclass(frozen=True)
class LossConfig:
    alpha: float = 0.1
    lambda_width: float = 0.05
    width_norm: str = "l1"
    smooth_coverage: bool = False

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ParameterError("alpha must lie in (0, 1)")
        if not 0.0 <= self.lambda_width < math.inf:
            raise ParameterError("lambda_width must be finite and >= 0")
        if self.width_norm not in ("l1", "l2"):
            raise ParameterError("width_norm must be 'l1' or 'l2'")


@dataclass(frozen=True, eq=False)
class LossBreakdown:
    """Scalar summary of one joint-loss evaluation.

    ``node`` is the tape-connected total for backward; the float fields
    satisfy total == coverage_term + violation_term + lambda * width_term.
    """

    total: float
    coverage_term: float
    violation_term: float
    width_term: float
    empirical_coverage: float
    node: Tensor = field(repr=False)


def violation_loss(low: Tensor, up: Tensor, st: IntervalStats) -> Tensor:
    """Mean distance of uncovered targets to their nearest bound.

    ``low`` and ``up`` are the bounds on ``st``'s mask.  Zero exactly
    when every masked target is covered.  The below/above indicators are
    constants; gradient reaches the bounds through the distances,
    pushing a violated bound toward its target.
    """
    below = (st.y < st.low).astype(np.float64).reshape(-1, 1)
    above = (st.y > st.up).astype(np.float64).reshape(-1, 1)
    yc = constant(st.y)
    under = dk.scale(dk.sub(low, yc), below)   # (low - y) where y < low
    over = dk.scale(dk.sub(yc, up), above)     # (y - up) where y > up
    return dk.reduce_mean(dk.add(under, over))


def width_loss(low: Tensor, up: Tensor, width_norm: str = "l1") -> Tensor:
    """Mean width (L1) or mean squared width (L2) of masked bounds."""
    w = dk.sub(up, low)
    if width_norm == "l2":
        w = dk.mul(w, w)
    elif width_norm != "l1":
        raise ParameterError("width_norm must be 'l1' or 'l2'")
    return dk.reduce_mean(w)


def qpi_total_loss(iv: IntervalSet, st: IntervalStats,
                   cfg: LossConfig) -> LossBreakdown:
    """Joint coverage/violation/width objective on ``st``'s masked nodes;
    every term reads the one masked (low, up) pair."""
    low = dk.masked_select(iv.low, st.mask)
    up = dk.masked_select(iv.up, st.mask)
    target = 1.0 - cfg.alpha

    cov_term = None
    if cfg.smooth_coverage:
        # Logistic surrogate: product of two sigmoids per node peaks at 1
        # inside the interval and lets the squared term pass gradient.
        inv_t = 1.0 / SMOOTH_COVERAGE_TEMPERATURE
        yc = constant(st.y)
        inside = dk.mul(dk.sigmoid(dk.scale(dk.sub(yc, low), inv_t)),
                        dk.sigmoid(dk.scale(dk.sub(up, yc), inv_t)))
        miss = dk.add_scalar(dk.reduce_mean(inside), -target)
        cov_term = dk.mul(miss, miss)
        coverage_value = cov_term.item()
    else:
        # Hard count: enters the total as a constant, no gradient.
        coverage_value = (st.coverage - target) ** 2

    viol = violation_loss(low, up, st)
    width = width_loss(low, up, cfg.width_norm)
    partial = dk.add(viol, dk.scale(width, cfg.lambda_width))
    node = dk.add_scalar(partial, coverage_value) if cov_term is None \
        else dk.add(cov_term, partial)

    return LossBreakdown(
        total=node.item(),
        coverage_term=coverage_value,
        violation_term=viol.item(),
        width_term=width.item(),
        empirical_coverage=st.coverage,
        node=node,
    )


# ---------------------------------------------------------------------------
# Baseline objectives
# ---------------------------------------------------------------------------

def pinball_loss(y: np.ndarray, yhat: Tensor, tau) -> Tensor:
    """Mean of (tau - 1[y < yhat]) * (y - yhat).

    ``tau`` may be a scalar or one level per row of ``yhat``.
    """
    ym = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if ym.shape != yhat.shape:
        raise ContractError("y must match yhat row for row")
    tau_arr = np.asarray(tau, dtype=np.float64).reshape(-1, 1)
    if tau_arr.size == 1:
        tau_arr = np.full_like(ym, float(tau_arr[0, 0]))
    if tau_arr.shape != ym.shape:
        raise ContractError("tau must be scalar or one value per row")
    if np.any((tau_arr <= 0.0) | (tau_arr >= 1.0)):
        raise ParameterError("tau values must lie strictly inside (0, 1)")
    coeff = tau_arr - (ym < yhat.value)      # indicator is stop-gradient
    return dk.reduce_mean(dk.scale(dk.sub(constant(ym), yhat), coeff))


def sqr_loss(model: Model, dataset: Dataset, mask: np.ndarray,
             seed: int, train_mode: bool = True) -> Tensor:
    """Simultaneous-quantile objective: one fresh tau per node per call.

    Builds its own tape (reachable as ``loss.tape``); gradients land in
    the model's parameter store after ``backward``.
    """
    if model.config.variant != "sqr":
        raise ContractError("sqr_loss needs an sqr-variant model")
    mask = np.asarray(mask).astype(bool)
    if not mask.any():
        raise ContractError("mask selects no nodes")
    n = dataset.num_nodes
    # Draws are clipped away from the open-interval endpoints.
    tau = keyed_rng(seed, "sqr-tau").uniform(1e-6, 1.0 - 1e-6, size=n)
    tape = dk.Tape()
    params = model.params.leaves(tape)
    yhat = sqr_forward(dataset.graph, dataset.features, tau, params,
                       model.config.dropout_p, train_mode, seed)
    yhat_m = dk.masked_select(yhat, mask)
    return pinball_loss(dataset.targets[mask], yhat_m, tau[mask])


def rqr_w_loss(iv: IntervalSet, st: IntervalStats, alpha: float,
               lam: float) -> Tensor:
    """Interval-regression objective on raw (low, up) pairs.

    Mean of (alpha + 2 lam - 1[low <= y <= up]) (y - low) (y - up)
    plus (lam / 2) (up - low)^2; the coverage indicator is constant.
    """
    low_m = dk.masked_select(iv.low, st.mask)
    up_m = dk.masked_select(iv.up, st.mask)
    coeff = alpha + 2.0 * lam - st.inside.astype(np.float64).reshape(-1, 1)
    yc = constant(st.y)
    product = dk.mul(dk.sub(yc, low_m), dk.sub(yc, up_m))
    w = dk.sub(up_m, low_m)
    penalty = dk.scale(dk.mul(w, w), lam / 2.0)
    return dk.reduce_mean(dk.add(dk.scale(product, coeff), penalty))


def rqr_adj_loss(iv: IntervalSet, st: IntervalStats, alpha: float,
                 lam: float, gamma_order: float) -> Tensor:
    """rqr_w plus gamma * mean relu(low - up), penalising crossed bounds."""
    base = rqr_w_loss(iv, st, alpha, lam)
    gap = dk.sub(dk.masked_select(iv.low, st.mask),
                 dk.masked_select(iv.up, st.mask))
    return dk.add(base, dk.scale(dk.reduce_mean(dk.relu(gap)), gamma_order))


def mse_loss(yhat: Tensor, y: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean squared error of the point prediction on the mask."""
    mask = np.asarray(mask).astype(bool)
    if not mask.any():
        raise ContractError("mask selects no nodes")
    ym = np.asarray(y, dtype=np.float64).reshape(-1)[mask].reshape(-1, 1)
    diff = dk.sub(dk.masked_select(yhat, mask), constant(ym))
    return dk.reduce_mean(dk.mul(diff, diff))
