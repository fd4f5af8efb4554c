"""Time training epochs and evaluation: wall time, phase split, page
faults and peak RSS.

Runs under ``driver.py``, which compares ``qpignn`` source trees, the
first being the baseline, with one fresh process per case, side and
repeat, the sides alternating:

    python scripts/bench_epoch.py before=OTHER/src after=src > out.json

Cases: ``er2k`` (2000-node ER, mean degree 8, random split, 150 epochs),
``grid20k`` (141x142 grid, community split, 5 epochs) and ``grid200k``
(447x448 grid, community split, 1 epoch plus the final evaluation), all
with the default ``TrainConfig`` (hidden 64, dropout 0.2), as
``perfbench`` trains them.  Every case first trains and evaluates once
untimed, so that its faults are counted after glibc has kept the freed
heap, then once measured.
``epoch_ms`` is the run's wall time divided by its epochs (as
``perfbench`` reports it); ``minflt_per_epoch`` is the run's minor page
faults (``ru_minflt``) per epoch; the phase split is each phase's median
over the run's epochs: ``forward_ms`` (the taped forward pass),
``loss_ms`` (the rest of the loss node), ``backward_ms`` and ``adam_ms``
(gradient norm and Adam step).  After the run the trained model is
evaluated untaped ``EVAL_CALLS`` times, as ``perfbench`` times it: one
``forward_intervals`` plus ``report`` on the test mask.  ``eval_ms`` is
the median call and ``eval_minflt_per_call`` the minor faults per call.
Then one ``mc_dropout_interval`` call runs with ``perfbench``'s pass
count for the case (``MC_PASSES``): ``mc_s`` is its wall time and
``mc_digest`` hashes its intervals.  ``digest`` hashes the run's record
and ``eval_digest`` its evaluated intervals, so two sides can be checked
for identical output; ``peak_rss_mb`` is the process peak, MC included,
and ``train_peak_rss_mb`` the peak right after the first, untimed
training run, before its evaluation and MC, so the two show which phase
sets the peak.
"""
from __future__ import annotations

import contextlib
import hashlib
import resource
import sys
import time
from statistics import median
from unittest import mock

import driver

EPOCHS = {"er2k": 150, "grid20k": 5, "grid200k": 1}
PHASES = ("forward_ms", "loss_ms", "backward_ms", "adam_ms")
EVAL_CALLS = 5
MC_PASSES = {"er2k": 100, "grid20k": 5, "grid200k": 5}


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(iv) -> str:
    import numpy as np
    return hashlib.sha256(np.concatenate([iv.low_values, iv.up_values])
                          .tobytes()).hexdigest()[:16]


def measure(name: str) -> dict:
    import numpy as np
    import qpignn.diffkit as dk
    import qpignn.harness as harness
    import qpignn.metrics as metrics
    import qpignn.model as model

    ds = driver.dataset(name)
    epochs = EPOCHS[name]
    cfg = harness.TrainConfig(epochs=epochs, seed=0)
    spans: dict[str, list[float]] = {k: [] for k in (*PHASES, "epoch_loss")}

    def timed(owner, attr, key):
        """Time the module binding ``train`` calls, as perfbench does."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spans[key].append((time.perf_counter() - t0) * 1e3)
            return out
        return mock.patch.object(owner, attr, wrapper)

    def run() -> dict:
        for v in spans.values():
            v.clear()
        flt0 = _minflt()
        t0 = time.perf_counter()
        fitted, rec = harness.train(ds, cfg)
        row = {"epoch_ms": (time.perf_counter() - t0) / epochs * 1e3,
               "minflt_per_epoch": (_minflt() - flt0) / epochs,
               "train_peak_rss_mb": _peak_rss_mb()}
        # Taped forwards only: the final evaluation is one more call.
        forward = spans["forward_ms"][:epochs]
        row["forward_ms"] = median(forward)
        row["loss_ms"] = median(np.subtract(spans["epoch_loss"], forward))
        row["backward_ms"] = median(spans["backward_ms"])
        row["adam_ms"] = median(np.add(spans["adam_ms"][0::2],
                                       spans["adam_ms"][1::2]))
        h = hashlib.sha256()
        for field in rec.TRAJECTORIES:
            h.update(np.ascontiguousarray(getattr(rec, field)).tobytes())
        h.update(repr(sorted(rec.reports.items())).encode())
        row["digest"] = h.hexdigest()[:16]

        calls = []
        flt0 = _minflt()
        for _ in range(EVAL_CALLS):
            t0 = time.perf_counter()
            iv = model.forward_intervals(fitted, ds.graph, ds.features,
                                         alpha=cfg.alpha)
            metrics.report(iv, ds.targets, ds.test_mask, cfg.alpha)
            calls.append((time.perf_counter() - t0) * 1e3)
        row["eval_ms"] = median(calls)
        row["eval_minflt_per_call"] = (_minflt() - flt0) / EVAL_CALLS
        row["eval_digest"] = _digest(iv)

        t0 = time.perf_counter()
        iv = model.mc_dropout_interval(ds.graph, ds.features, fitted,
                                       passes=MC_PASSES[name],
                                       dropout_p=cfg.dropout_p, seed=1)
        row["mc_s"] = time.perf_counter() - t0
        row["mc_digest"] = _digest(iv)
        return row

    with contextlib.ExitStack() as patches:
        for owner, attr, key in ((harness, "forward_intervals", "forward_ms"),
                                 (harness, "_epoch_loss", "epoch_loss"),
                                 (dk, "backward", "backward_ms"),
                                 (harness, "grad_norm", "adam_ms"),
                                 (harness, "adam_step", "adam_ms")):
            patches.enter_context(timed(owner, attr, key))
        train_peak = run()["train_peak_rss_mb"]
        row = run()
    row.update(epochs=epochs, nodes=ds.graph.num_nodes,
               train_peak_rss_mb=train_peak, peak_rss_mb=_peak_rss_mb())
    return row


if __name__ == "__main__":
    sys.exit(driver.main(__doc__, EPOCHS, measure, __file__))
