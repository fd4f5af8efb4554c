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
Every loss is a function of the epoch's taped tensors, evaluated on
values the caller has already masked.  SQR is ``pinball_loss`` at the
per-node levels ``sqr_taus`` draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import diffkit as dk
from .diffkit import Tensor, constant
from .errors import ContractError, ParameterError, check_alpha
from .metrics import IntervalStats
from .rng import keyed_rng

# Temperature of the optional logistic coverage surrogate.
SMOOTH_COVERAGE_TEMPERATURE = 0.1

# The width term's norms: mean width, or mean squared width.
WIDTH_NORMS = ("l1", "l2")


@dataclass(frozen=True, eq=False)
class LossBreakdown:
    """Scalar summary of one joint-loss evaluation.

    ``node`` is the tape-connected total for backward, and
    ``node.item()`` == coverage_term + violation_term + lambda * width_term.
    """

    coverage_term: float
    violation_term: float
    width_term: float
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
    elif width_norm not in WIDTH_NORMS:
        raise ParameterError(f"width_norm must be one of {WIDTH_NORMS}")
    return dk.reduce_mean(w)


def qpi_total_loss(low: Tensor, up: Tensor, st: IntervalStats, alpha: float,
                   lambda_width: float, width_norm: str = "l1",
                   smooth_coverage: bool = False) -> LossBreakdown:
    """Joint coverage/violation/width objective; ``low`` and ``up`` are
    the bounds on ``st``'s mask, and every term reads that one pair."""
    check_alpha(alpha)
    # The chained range check also rejects NaN and infinity.
    if not 0.0 <= lambda_width < math.inf:
        raise ParameterError("lambda_width must be finite and >= 0")
    target = 1.0 - alpha

    cov_term = None
    if smooth_coverage:
        # Logistic surrogate: product of two sigmoids per node peaks at 1
        # inside the interval and lets the squared term pass gradient.
        inv_t = 1.0 / SMOOTH_COVERAGE_TEMPERATURE
        yc = constant(st.y)
        inside = dk.mul(dk.sigmoid(dk.scale(dk.sub(yc, low), inv_t)),
                        dk.sigmoid(dk.scale(dk.sub(up, yc), inv_t)))
        miss = dk.add(dk.reduce_mean(inside), constant(-target))
        cov_term = dk.mul(miss, miss)
        coverage_value = cov_term.item()
    else:
        # Hard count: enters the total as a constant, no gradient.
        coverage_value = (st.coverage - target) ** 2

    viol = violation_loss(low, up, st)
    width = width_loss(low, up, width_norm)
    partial = dk.add(viol, dk.scale(width, lambda_width))
    node = dk.add(partial, constant(coverage_value)) if cov_term is None \
        else dk.add(cov_term, partial)

    return LossBreakdown(coverage_term=coverage_value,
                         violation_term=viol.item(), width_term=width.item(),
                         node=node)


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


def sqr_taus(n: int, seed: int) -> np.ndarray:
    """SQR's quantile levels: one uniform draw per node, inside (0, 1)."""
    return keyed_rng(seed, "sqr-tau").uniform(1e-6, 1.0 - 1e-6, size=n)


def rqr_adj_loss(low: Tensor, up: Tensor, st: IntervalStats,
                 coverage: float, lam: float, gamma_order: float) -> Tensor:
    """RQR-adj on the masked bounds ``low`` and ``up`` of ``st``'s mask.

    Mean of (coverage + 2 lam - 1[low <= y <= up]) (y - low) (y - up)
    plus (lam / 2) (up - low)^2, with a constant coverage indicator,
    plus gamma * mean relu(low - up), penalising crossed bounds.  Its
    minimiser covers y with probability ``coverage``, the target
    coverage (not the miscoverage), whatever ``lam``.  The crossing term
    is taped first, so backward adds its gradient to each bound last,
    after the sum of the two RQR terms' gradients.
    """
    crossing = dk.scale(dk.reduce_mean(dk.relu(dk.sub(low, up))), gamma_order)
    coeff = coverage + 2.0 * lam - st.inside.astype(np.float64).reshape(-1, 1)
    yc = constant(st.y)
    product = dk.mul(dk.sub(yc, low), dk.sub(yc, up))
    w = dk.sub(up, low)
    penalty = dk.scale(dk.mul(w, w), lam / 2.0)
    base = dk.reduce_mean(dk.add(dk.scale(product, coeff), penalty))
    return dk.add(base, crossing)


def mse_loss(yhat: Tensor, y: np.ndarray) -> Tensor:
    """Mean squared error of the masked point prediction ``yhat`` against
    the masked targets ``y``."""
    ym = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if ym.shape != yhat.shape:
        raise ContractError("y must match yhat row for row")
    diff = dk.sub(yhat, constant(ym))
    return dk.reduce_mean(dk.mul(diff, diff))
