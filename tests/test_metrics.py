"""Metric oracles: hand examples, a scalar-loop reference, properties."""
import argparse
import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpignn.cli import RUN_COLUMNS, RUN_KEYS, _run_row, _write_outputs
from qpignn.diffkit import Tape
from qpignn.errors import ContractError, ParameterError
from qpignn.metrics import (CWC_ETA, CWC_GAMMA, METRIC_FIELDS, MetricsReport,
                            cwc, interval_stats, mpe, mpiw, nmpiw, picp,
                            report, sharpness, winkler)
from qpignn.model import IntervalSet
from qpignn.rng import keyed_rng


def _iv(low, up):
    tape = Tape()
    return IntervalSet(tape.leaf(np.asarray(low, float).reshape(-1, 1)),
                       tape.leaf(np.asarray(up, float).reshape(-1, 1)))


def _loop_reference(low, up, y, alpha):
    """Pure-Python scalar loop; no vectorisation shared with the library."""
    n = len(y)
    hits = widths = sq = err = wink = 0.0
    for i in range(n):
        w = up[i] - low[i]
        widths += w
        sq += w * w
        err += abs(0.5 * (low[i] + up[i]) - y[i])
        if low[i] <= y[i] <= up[i]:
            hits += 1.0
            wink += w
        else:
            over = (low[i] - y[i]) if y[i] < low[i] else (y[i] - up[i])
            wink += w + (2.0 / alpha) * over
    p = hits / n
    m = widths / n
    span = max(y) - min(y)
    nm = m / span
    c = nm * (1.0 + CWC_GAMMA * math.exp(-CWC_ETA * (p - (1.0 - alpha))))
    return dict(picp=p, mpiw=m, nmpiw=nm, mpe=err / n,
                sharpness=sq / n, winkler=wink / n, cwc=c)


LOW = [0.0, -1.0, 2.0, 0.0]
UP = [1.0, 1.0, 4.0, 2.0]
Y = [0.5, 2.0, 2.0, -1.0]
ALL = np.ones(4, bool)


def test_hand_example():
    iv = _iv(LOW, UP)
    y = np.array(Y)
    assert picp(iv, y, ALL) == 0.5
    assert mpiw(iv, ALL) == pytest.approx((1 + 2 + 2 + 2) / 4)
    assert nmpiw(iv, y, ALL) == pytest.approx(1.75 / 3.0)
    # centres 0.5, 0.0, 3.0, 1.0 -> errors 0, 2, 1, 2
    assert mpe(iv, y, ALL) == pytest.approx(1.25)
    assert sharpness(iv, ALL) == pytest.approx((1 + 4 + 4 + 4) / 4)
    # overshoots 0, 1, 0, 1 at alpha 0.1 -> widths + 20*overshoot
    assert winkler(iv, y, ALL, 0.1) == pytest.approx((1 + 22 + 2 + 22) / 4)


def test_cwc_at_nominal_coverage_doubles_nmpiw():
    assert cwc(0.4, 0.9, 0.1) == pytest.approx(0.8)
    assert cwc(0.4, 1.0, 0.1) < cwc(0.4, 0.8, 0.1)


def test_report_matches_scalar_loop():
    rng = keyed_rng(0, "metrics-loop")
    for k in range(10):
        n = 30
        y = rng.standard_normal(n)
        centre = y + rng.standard_normal(n) * 0.5
        half = np.abs(rng.standard_normal(n)) + 0.05
        low, up = centre - half, centre + half
        rep = report(_iv(low, up), y, np.ones(n, bool), 0.1)
        ref = _loop_reference(list(low), list(up), list(y), 0.1)
        for name, want in ref.items():
            got = getattr(rep, name)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), name
        assert rep.n_eval == n and rep.alpha == 0.1


def test_metrics_respect_mask():
    iv = _iv(LOW, UP)
    y = np.array(Y)
    mask = np.array([1, 0, 1, 0], bool)
    assert picp(iv, y, mask) == 1.0
    assert mpiw(iv, mask) == pytest.approx(1.5)


def test_error_paths():
    iv = _iv(LOW, UP)
    y = np.array(Y)
    with pytest.raises(ContractError):
        picp(iv, y, np.ones(3, bool))
    with pytest.raises(ContractError):
        mpiw(iv, np.zeros(4, bool))
    with pytest.raises(ContractError):
        picp(iv, np.zeros(5), ALL)
    with pytest.raises(ParameterError):
        nmpiw(iv, np.full(4, 2.0), ALL)
    with pytest.raises(ParameterError):
        winkler(iv, y, ALL, 0.0)
    with pytest.raises(ParameterError):
        cwc(0.5, 0.9, 1.0)


def test_interval_stats_violation_and_overshoot():
    # Node 2 is crossed (low 2 > up 1) with its target between the bounds:
    # it sits below low by 0.5 and above up by 0.5 at once.
    iv = _iv([0.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    y = np.array([0.5, 3.0, 1.5, -1.0])
    st_ = interval_stats(iv, y, ALL)
    assert st_.inside.tolist() == [True, False, False, False]
    assert st_.coverage == 0.25
    np.testing.assert_array_equal(st_.width, [1.0, 1.0, -1.0, 1.0])
    np.testing.assert_array_equal(st_.violation, [0.0, 2.0, 1.0, 1.0])
    np.testing.assert_array_equal(st_.overshoot, [0.0, 2.0, 0.5, 1.0])
    masked = interval_stats(iv, y, np.array([0, 1, 0, 1], bool))
    assert masked.y.tolist() == [3.0, -1.0]
    widths_only = interval_stats(iv, None, ALL)
    assert widths_only.y is None and widths_only.violation is None
    np.testing.assert_array_equal(widths_only.width, st_.width)


finite = st.floats(-50, 50, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(finite, st.floats(0, 20), finite),
                min_size=2, max_size=40),
       st.floats(0.01, 0.5))
def test_metric_inequalities(rows, alpha):
    low = np.array([r[0] for r in rows])
    up = low + np.array([r[1] for r in rows])
    y = np.array([r[2] for r in rows])
    if y.max() - y.min() <= 0:
        y[0] += 1.0
    rep = report(_iv(low, up), y, np.ones(len(rows), bool), alpha)
    assert 0.0 <= rep.picp <= 1.0
    assert rep.winkler >= rep.mpiw - 1e-12          # overshoot is nonneg
    assert rep.sharpness >= rep.mpiw ** 2 - 1e-9    # Jensen
    assert rep.cwc >= rep.nmpiw                     # penalty factor >= 1
    assert rep.nmpiw == pytest.approx(rep.mpiw / (y.max() - y.min()))


def test_csv_round_trip(tmp_path):
    """Run-table metric cells read back as the exact doubles written."""
    iv = _iv(LOW, UP)
    awkward = MetricsReport(1 / 3, 2 / 3, 0.1 + 0.2, math.pi, 1e-17,
                            123456.789, 2 / 7, n_eval=10, alpha=0.1)
    reps = [report(iv, np.array(Y), ALL, 0.1), awkward]
    rows = [_run_row(rep, "r1", "toy", "dual", 0.05, 7, "train")
            for rep in reps]
    args = argparse.Namespace(out=str(tmp_path), format="csv",
                              no_timestamp=True)
    _write_outputs(args, "unused", runs=(RUN_COLUMNS, rows))
    with open(tmp_path / "runs.csv", newline="") as fh:
        header, *lines = csv.reader(fh)
    assert RUN_KEYS == ("run_id", "dataset", "model", "lambda",
                        "seed") + METRIC_FIELDS
    assert tuple(header[:len(RUN_KEYS)]) == RUN_KEYS
    assert len(lines) == len(reps)
    for rep, parts in zip(reps, lines):
        assert parts[:5] == ["r1", "toy", "dual", "0.05", "7"]
        back = [float(p) for p in parts[5:len(RUN_KEYS)]]
        want = [rep.picp, rep.mpiw, rep.nmpiw, rep.mpe,
                rep.sharpness, rep.winkler, rep.cwc]
        assert back == want  # repr() round-trips doubles exactly
