"""Interval statistics and the metrics built on them.

``interval_stats`` is the one place that masks an interval set's
values: ``report``, the training losses' coverage indicators and the
per-epoch trajectory all read their coverage, width, violation and
overshoot from it.  Coverage uses the closed interval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ParameterError, check_alpha
from .model import IntervalSet

# CWC shape constants: penalty weight, steepness, and the coverage level
# at which the exponential penalty is centred (mu = 1 - alpha).
CWC_GAMMA = 1.0
CWC_ETA = 10.0

METRIC_FIELDS = ("picp", "mpiw", "nmpiw", "mpe", "sharpness", "winkler", "cwc")


@dataclass(frozen=True)
class MetricsReport:
    picp: float
    mpiw: float
    nmpiw: float
    mpe: float
    sharpness: float
    winkler: float
    cwc: float
    n_eval: int
    alpha: float


@dataclass(frozen=True, eq=False)
class IntervalStats:
    """Masked bounds and targets with their per-node statistics.

    ``violation`` sums the distances below ``low`` and above ``up``;
    ``overshoot`` is the larger of the two, as the Winkler score uses.
    They differ only on crossed intervals (low > up), where a target can
    lie on the wrong side of both bounds.
    """

    mask: np.ndarray
    low: np.ndarray
    up: np.ndarray
    width: np.ndarray
    y: np.ndarray
    inside: np.ndarray
    violation: np.ndarray
    overshoot: np.ndarray

    @property
    def coverage(self) -> float:
        """Fraction of masked targets inside their closed interval."""
        return float(self.inside.mean())


def interval_stats(iv: IntervalSet, y: np.ndarray,
                   mask: np.ndarray) -> IntervalStats:
    """Validate ``mask`` and ``y`` against ``iv``; measure the masked nodes."""
    mask = np.asarray(mask).astype(bool)
    if mask.shape != (len(iv),):
        raise ContractError("mask length must match the interval set")
    if not mask.any():
        raise ContractError("mask selects no nodes")
    low = iv.low_values[mask]
    up = iv.up_values[mask]
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape != (len(iv),):
        raise ContractError("targets must have one entry per node")
    ym = y[mask]
    return IntervalStats(
        mask, low, up, up - low, ym,
        inside=(ym >= low) & (ym <= up),
        violation=np.where(ym < low, low - ym, 0.0)
        + np.where(ym > up, ym - up, 0.0),
        overshoot=np.maximum(0.0, np.maximum(low - ym, ym - up)))


def cwc(nmpiw_value: float, picp_value: float, alpha: float) -> float:
    """Coverage-width criterion.

    nmpiw * (1 + gamma * exp(-eta * (picp - mu))) with mu = 1 - alpha:
    equal to nmpiw at exactly nominal coverage, exploding exponentially
    as coverage falls below it.
    """
    check_alpha(alpha)
    mu = 1.0 - alpha
    return float(nmpiw_value * (1.0 + CWC_GAMMA * np.exp(-CWC_ETA * (picp_value - mu))))


def report(iv: IntervalSet, y: np.ndarray, mask: np.ndarray,
           alpha: float) -> MetricsReport:
    """All seven metrics on one mask.

    nmpiw divides mpiw by the masked target range, mpe is the interval
    centre's mean absolute error, sharpness the mean squared width and
    winkler the width plus (2 / alpha) times the overshoot.
    """
    st = interval_stats(iv, y, mask)
    span = float(st.y.max() - st.y.min())
    if span <= 0.0:
        raise ParameterError("nmpiw undefined: targets are constant on the mask")
    check_alpha(alpha)
    mpiw = float(np.mean(st.width))
    nmpiw = mpiw / span
    return MetricsReport(
        picp=st.coverage,
        mpiw=mpiw,
        nmpiw=nmpiw,
        mpe=float(np.mean(np.abs(0.5 * (st.low + st.up) - st.y))),
        sharpness=float(np.mean(st.width ** 2)),
        winkler=float(np.mean(st.width + (2.0 / alpha) * st.overshoot)),
        cwc=cwc(nmpiw, st.coverage, alpha),
        n_eval=int(st.mask.sum()),
        alpha=alpha,
    )
