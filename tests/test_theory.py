"""Concentration bounds, normal quantiles, and the Monte-Carlo check."""
import math

import numpy as np
import pytest
import scipy.special

from qpignn.errors import ParameterError
from qpignn.harness import (concentration_check, gaussian_optimal_halfwidth,
                            hoeffding_epsilon, inv_norm_cdf, mcdiarmid_prob)


def test_hoeffding_oracle():
    # sqrt(log(2/delta) / (2n)) computed independently
    assert hoeffding_epsilon(2000, 0.05) == pytest.approx(
        math.sqrt(math.log(40.0) / 4000.0), abs=1e-15)
    assert f"{hoeffding_epsilon(2000, 0.05):.6f}" == "0.030368"
    # radius shrinks with n, grows as delta shrinks
    assert hoeffding_epsilon(4000, 0.05) < hoeffding_epsilon(1000, 0.05)
    assert hoeffding_epsilon(1000, 0.01) > hoeffding_epsilon(1000, 0.05)


def test_mcdiarmid_oracle():
    assert mcdiarmid_prob(1000, 0.05) == pytest.approx(2 * math.exp(-5.0),
                                                       abs=1e-15)
    assert f"{mcdiarmid_prob(1000, 0.05):.6f}" == "0.013476"
    assert mcdiarmid_prob(4000, 0.05) < mcdiarmid_prob(1000, 0.05)


def test_theory_domain_errors():
    for bad in (lambda: hoeffding_epsilon(0, 0.05),
                lambda: hoeffding_epsilon(100, 0.0),
                lambda: hoeffding_epsilon(100, 1.0),
                lambda: mcdiarmid_prob(0, 0.1),
                lambda: mcdiarmid_prob(100, 0.0),
                lambda: mcdiarmid_prob(100, float("nan")),
                lambda: mcdiarmid_prob(100, float("inf")),
                lambda: inv_norm_cdf(0.0),
                lambda: inv_norm_cdf(1.0),
                lambda: gaussian_optimal_halfwidth(0.0, 0.1),
                lambda: gaussian_optimal_halfwidth(float("nan"), 0.1),
                lambda: gaussian_optimal_halfwidth(float("inf"), 0.1),
                lambda: gaussian_optimal_halfwidth(1.0, 1.0)):
        with pytest.raises(ParameterError):
            bad()


def test_inv_norm_cdf_against_scipy():
    """The guarded quantile agrees with scipy's ndtri across (0, 1)."""
    ps = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 2001),
                         [1e-12, 1e-9, 0.02425, 0.5, 1 - 1e-9]])
    for p in ps:
        assert abs(inv_norm_cdf(float(p)) - scipy.special.ndtri(p)) < 1e-8
    assert inv_norm_cdf(0.5) == pytest.approx(0.0, abs=1e-13)
    assert inv_norm_cdf(0.2) == pytest.approx(-inv_norm_cdf(0.8), abs=1e-12)


def test_optimal_halfwidth():
    assert f"{gaussian_optimal_halfwidth(1.0, 0.1):.5f}" == "1.64485"
    assert f"{gaussian_optimal_halfwidth(2.0, 0.1):.5f}" == "3.28971"
    # alpha -> 1 collapses the interval
    assert gaussian_optimal_halfwidth(1.0, 0.999) < 2e-3
    # linear in sigma
    assert gaussian_optimal_halfwidth(3.0, 0.2) == pytest.approx(
        3.0 * gaussian_optimal_halfwidth(1.0, 0.2))


def test_concentration_nominal_rule():
    hw = gaussian_optimal_halfwidth(1.0, 0.1)
    rep = concentration_check((-hw, hw))
    assert rep.cover_prob == pytest.approx(0.9, abs=1e-12)
    assert rep.epsilon == pytest.approx(hoeffding_epsilon(1000, 0.05))
    assert rep.exceed_allowed == pytest.approx(0.075)
    assert rep.exceed_fraction <= rep.exceed_allowed
    assert set(rep.stds) == {250, 1000, 4000}
    assert len(rep.std_ratios) == 2
    for r in rep.std_ratios:
        assert 0.4 <= r <= 0.6  # std halves per quadrupling, +/-20%
    assert rep.passed and rep.note == ""


def test_concentration_degenerate_rule():
    rep = concentration_check((-50.0, 50.0))
    assert rep.cover_prob == pytest.approx(1.0)
    assert all(v == 0.0 for v in rep.stds.values())
    assert rep.std_ratios == ()
    assert "degenerate" in rep.note
    assert rep.passed  # nothing exceeded; scaling vacuously fine


def test_concentration_uniform_rule():
    rep = concentration_check((0.0, 1.0), distribution="uniform",
                              trials=200, n=500, sizes=(250, 1000))
    assert rep.cover_prob == pytest.approx(0.5)
    assert rep.exceed_fraction <= rep.exceed_allowed


def test_concentration_validation():
    with pytest.raises(ParameterError):
        concentration_check((1.0, -1.0))
    with pytest.raises(ParameterError):
        concentration_check((-1, 1), trials=1)
    with pytest.raises(ParameterError):
        concentration_check((-1, 1), distribution="cauchy")


def test_concentration_sizes_are_integers():
    """A fractional size was keyed, and drawn, as its integer part."""
    for sizes in ((250.5, 1000), (250, True)):
        with pytest.raises(ParameterError, match="size must be an integer"):
            concentration_check((-1, 1), n=20, trials=4, sizes=sizes)
