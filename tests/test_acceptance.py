"""Release gate: eight checks, one test and one printed verdict each.

These run the full published protocol on a 2000-node graph, so the
module takes several minutes of CPU; everything is deterministic.
"""
import math
import time

import numpy as np
import pytest

import qpignn as q
from qpignn import diffkit as dk
from qpignn.diffkit import Tape, finite_diff_check
from qpignn.graphcore import Dataset, PerturbSpec, perturb
from qpignn.harness import (DEFAULT_LAMBDA_GRID, TrainConfig, _train_all,
                            concentration_check, convergence_check,
                            gaussian_optimal_halfwidth, lambda_sweep,
                            lambda_tune, train_qpignn)
from qpignn.losses import qpi_total_loss, rqr_adj_loss, sqr_loss
from qpignn.metrics import interval_stats, report
from qpignn.model import IntervalSet, ModelConfig, init_model
from qpignn.rng import derive_seed, keyed_rng

ALPHA = 0.1


def _verdict(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {k}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


# ---------------------------------------------------------------------------
# Shared protocol-scale fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph42():
    return q.gen_er(2000, 8 / 1999, seed=42)


@pytest.fixture(scope="module")
def ds_main(graph42):
    return q.synth_dataset(graph42, "gaussian", 8, 1.0, seed=42)


@pytest.fixture(scope="module")
def protocol_runs(graph42, ds_main):
    """The five default-config runs of criteria 7 and 8, trained as one
    batch on two workers: ``ds_main`` (sigma=1.0), three target-noise
    levels, and sigma=0.3 after 20 % edge dropout."""
    sigma_ds = {s: q.synth_dataset(graph42, "gaussian", 8, s, seed=42)
                for s in (0.1, 0.2, 0.3)}
    dropped = perturb(sigma_ds[0.3], PerturbSpec(
        "edge_dropout", 0.2, seed=derive_seed(42, "acc-edge")))
    datasets = [ds_main, *sigma_ds.values(), dropped]
    recs = [rec for _, rec in
            _train_all([(d, TrainConfig()) for d in datasets], jobs=2)]
    return {"default": recs[0], "edge_dropout": recs[4],
            "sigma": dict(zip(sigma_ds, recs[1:4]))}


# ---------------------------------------------------------------------------
# 1. Analytic gradients match finite differences
# ---------------------------------------------------------------------------

def _fd_fixture():
    g = q.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
                         (1, 4)])
    x = keyed_rng(0, "fd-x").standard_normal((6, 3))
    y = keyed_rng(0, "fd-y").standard_normal(6)
    mask = np.array([1, 1, 1, 1, 0, 1], dtype=bool)
    ds = Dataset(graph=g, features=x, targets=y,
                 train_mask=mask,
                 val_mask=np.array([0, 0, 0, 0, 1, 0], dtype=bool),
                 test_mask=np.zeros(6, dtype=bool))
    return ds, mask


def _jittered(variant: str, seed: int):
    model = init_model(ModelConfig(in_dim=3, hidden=4, variant=variant), seed)
    rng = keyed_rng(seed, "fd-jitter")
    for name in model.params.names():
        v = model.params.value(name)
        v += rng.uniform(-0.3, 0.3, size=v.shape)
    return model


def test_criterion_1_gradient_fidelity():
    t0 = time.perf_counter()
    ds, mask = _fd_fixture()
    errs = {}

    model = _jittered("dual", 1)

    def masked(iv):
        """The masked bound pair and stats that the interval losses take."""
        st = interval_stats(iv, ds.targets, mask)
        return (dk.masked_select(iv.low, st.mask),
                dk.masked_select(iv.up, st.mask), st)

    def f_qpi(params):
        iv = q.forward_intervals(model, ds.graph, ds.features, tape=Tape())
        return qpi_total_loss(*masked(iv), alpha=ALPHA, lambda_width=0.5).node

    errs["qpi"] = finite_diff_check(f_qpi, model.params)

    sqr_model = _jittered("sqr", 2)

    def f_sqr(params):
        return sqr_loss(sqr_model, ds, mask, seed=7)

    errs["sqr"] = finite_diff_check(f_sqr, sqr_model.params)

    rqr_model = _jittered("single", 3)

    def f_rqr(params):
        iv = q.forward_intervals(rqr_model, ds.graph, ds.features,
                                 tape=Tape())
        return rqr_adj_loss(*masked(iv), ALPHA, 1.0, 1.0)

    errs["rqr"] = finite_diff_check(f_rqr, rqr_model.params)
    secs = time.perf_counter() - t0

    ok = all(e < 1e-4 for e in errs.values()) and secs < 5.0
    _verdict(1, ok, "max rel err " + ", ".join(
        f"{k}={v:.2e}" for k, v in errs.items()) + f"; {secs:.2f}s")


# ---------------------------------------------------------------------------
# 2. Metrics agree with a scalar-loop oracle
# ---------------------------------------------------------------------------

def _scalar_metrics(low, up, y, alpha):
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
    nm = m / (max(y) - min(y))
    c = nm * (1.0 + math.exp(-10.0 * (p - (1.0 - alpha))))
    return {"picp": p, "mpiw": m, "nmpiw": nm, "mpe": err / n,
            "sharpness": sq / n, "winkler": wink / n, "cwc": c}


def test_criterion_2_metric_oracles():
    rng = keyed_rng(2025, "acceptance-metrics")
    alphas = (0.05, 0.1, 0.2, 0.5)
    worst = 0.0
    for k in range(100):
        n = 50
        y = rng.standard_normal(n)
        centre = y + 0.3 * rng.standard_normal(n)
        half = np.abs(rng.standard_normal(n)) + 0.05
        low, up = centre - half, centre + half
        alpha = alphas[k % len(alphas)]
        tape = Tape()
        iv = IntervalSet(tape.leaf(low.reshape(-1, 1)),
                         tape.leaf(up.reshape(-1, 1)))
        rep = report(iv, y, np.ones(n, dtype=bool), alpha)
        ref = _scalar_metrics(list(low), list(up), list(y), alpha)
        for name, want in ref.items():
            got = getattr(rep, name)
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), \
                (k, name, got, want)
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _verdict(2, True, f"100 instances x 7 metrics, worst rel dev {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. Tuned width penalty hits nominal coverage at near-oracle width
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_3_tuned_coverage_width(ds_main):
    t0 = time.perf_counter()
    result = lambda_tune(ds_main, TrainConfig(), budget=9)
    tune_secs = time.perf_counter() - t0

    model, rec = train_qpignn(ds_main,
                              TrainConfig(lambda_width=result.chosen))
    rep = rec.reports["test"]
    iv = q.forward_intervals(model, ds_main.graph, ds_main.features,
                             alpha=ALPHA)
    mask = ds_main.test_mask
    centre = 0.5 * (iv.low_values + iv.up_values)[mask]
    resid_std = float(np.std(ds_main.targets[mask] - centre))
    bound = 1.3 * 2.0 * gaussian_optimal_halfwidth(resid_std, ALPHA)

    ok = (0.85 <= rep.picp <= 0.95) and rep.mpiw <= bound and tune_secs < 180
    _verdict(3, ok,
             f"lambda={result.chosen:.4f} picp={rep.picp:.3f} "
             f"mpiw={rep.mpiw:.3f} <= {bound:.3f} (sigma_hat={resid_std:.3f}) "
             f"tune {tune_secs:.0f}s")


# ---------------------------------------------------------------------------
# 4. Loss-term and architecture ablations, five seeds
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_ablation_dominance(ds_main):
    rows = q.ablation_suite(ds_main, TrainConfig(), seeds=(0, 1, 2, 3, 4),
                            jobs=2)
    by = {r["setting"]: r for r in rows}
    full, cov, wid = by["full"], by["coverage_only"], by["width_only"]
    fixed, single = by["fixed_margin"], by["single_head"]

    checks = {
        "width_only collapses": wid["picp_mean"] < 0.05,
        "coverage_only over-covers": cov["picp_mean"] >= 0.98,
        "coverage_only inflates width":
            cov["mpiw_mean"] >= 1.5 * full["mpiw_mean"],
        "full beats fixed_margin on cwc":
            full["cwc_mean"] < fixed["cwc_mean"],
        "full beats single_head on cwc":
            full["cwc_mean"] < single["cwc_mean"],
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _verdict(4, ok,
             f"cwc full={full['cwc_mean']:.3f} single={single['cwc_mean']:.3f} "
             f"fixed={fixed['cwc_mean']:.3f}; cov picp={cov['picp_mean']:.3f} "
             f"mpiw={cov['mpiw_mean']:.2f} vs full {full['mpiw_mean']:.2f}; "
             f"width picp={wid['picp_mean']:.3f}"
             + (f"; FAILED: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 5. Coverage responds monotonically to the width penalty
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_width_penalty_monotonicity(ds_main):
    res = lambda_sweep(ds_main, TrainConfig(), grid=DEFAULT_LAMBDA_GRID,
                       jobs=2)
    picps = [e.test.picp for e in res.entries]
    inversions = sum(b > a for a, b in zip(picps, picps[1:]))
    ok = inversions <= 1 and res.entry(0.1).test.picp >= res.entry(1.2).test.picp
    _verdict(5, ok, "picp by lambda " +
             ", ".join(f"{e.lambda_width:g}:{p:.3f}"
                       for e, p in zip(res.entries, picps)) +
             f"; inversions={inversions}")


# ---------------------------------------------------------------------------
# 6. Empirical coverage concentrates at its mean
# ---------------------------------------------------------------------------

def test_criterion_6_coverage_concentration():
    hw = gaussian_optimal_halfwidth(1.0, ALPHA)
    rep = concentration_check((-hw, hw))
    scaling_ok = all(0.4 <= r <= 0.6 for r in rep.std_ratios)
    ok = rep.passed and rep.exceed_fraction <= rep.exceed_allowed and scaling_ok
    _verdict(6, ok,
             f"exceed {rep.exceed_fraction:.3f} <= {rep.exceed_allowed:.3f}, "
             f"std ratios {[f'{r:.3f}' for r in rep.std_ratios]}")


# ---------------------------------------------------------------------------
# 7. Default-configuration runs converge
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_7_training_convergence(protocol_runs):
    recs = [("sigma=1.0", protocol_runs["default"])]
    recs += [(f"sigma={s}", rec)
             for s, rec in sorted(protocol_runs["sigma"].items())]
    results = [(name, convergence_check(rec)) for name, rec in recs]
    ok = all(chk.passed for _, chk in results)
    _verdict(7, ok, ", ".join(
        f"{name} ratio={chk.grad_ratio:.3f}" for name, chk in results))


# ---------------------------------------------------------------------------
# 8. Widths track noise; coverage survives edge dropout
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_8_noise_robustness(protocol_runs):
    reps = {s: rec.reports["test"] for s, rec in protocol_runs["sigma"].items()}
    mpiws = [reps[s].mpiw for s in (0.1, 0.2, 0.3)]
    picps = [reps[s].picp for s in (0.1, 0.2, 0.3)]
    widths_ok = mpiws[0] <= mpiws[1] <= mpiws[2]
    coverage_ok = all(p >= 0.85 for p in picps)

    delta = abs(protocol_runs["edge_dropout"].reports["test"].picp
                - reps[0.3].picp)
    ok = widths_ok and coverage_ok and delta <= 0.1
    _verdict(8, ok,
             f"mpiw {mpiws[0]:.3f}/{mpiws[1]:.3f}/{mpiws[2]:.3f}, "
             f"picp {picps[0]:.3f}/{picps[1]:.3f}/{picps[2]:.3f}, "
             f"edge-dropout delta picp {delta:.3f}")
