"""Time training epochs and evaluation: wall time, phase split, page
faults and peak RSS.

Measures the ``qpignn`` found under ``--src`` (default: this checkout's
``src``), one case per fresh process so each case's peak RSS is its own:

    python scripts/bench_epoch.py --label after > after.json
    python scripts/bench_epoch.py --src OTHER/src --label before > before.json
    python scripts/bench_epoch.py --combine before.json after.json [more.json ...]

Cases: ``er2k`` (2000-node ER, mean degree 8, random split, 150 epochs),
``grid20k`` (141x142 grid, community split, 5 epochs) and ``grid200k``
(447x448 grid, community split, 1 epoch plus the final evaluation), all
with the default ``TrainConfig`` (hidden 64, dropout 0.2), as
``perfbench`` trains them.  Each case runs ``harness.train``
``--repeats`` times.
``epoch_ms`` is one run's wall time divided by its epochs (as
``perfbench`` reports it); ``minflt_per_epoch`` is the run's minor page
faults (``ru_minflt``) per epoch; the phase split is each phase's median
over the run's epochs: ``forward_ms`` (the taped forward pass),
``loss_ms`` (the rest of the loss node), ``backward_ms`` and ``adam_ms``
(gradient norm and Adam step).  After each run the trained model is
evaluated untaped ``EVAL_CALLS`` times, as ``perfbench`` times it: one
``forward_intervals`` plus ``report`` on the test mask.  ``eval_ms`` is
the median call and ``eval_minflt_per_call`` the minor faults per call.
Every figure is given as the min and median over the runs.  ``digest``
hashes the last run's record and ``eval_digest`` its evaluated
intervals, so two sides can be checked for identical output;
``peak_rss_mb`` is the process peak after all runs.  ``--combine``
adds, per case and side, the median epoch and eval speed-ups and the
``peak_rss_mb`` ratio against the first file; a case missing from a
file (not run on that side) is null.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from bench_graph_construction import _environment

CASES = {
    "er2k": ("er", (2000,), "random", 150),
    "grid20k": ("grid", (141, 142), "community", 5),
    "grid200k": ("grid", (447, 448), "community", 1),
}
DATA_SEED = 1
PHASES = ("forward_ms", "loss_ms", "backward_ms", "adam_ms")
EVAL_CALLS = 5


def _stats(values: list[float]) -> dict:
    values = sorted(values)
    mid = len(values) // 2
    median = values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
    return {"min": values[0], "median": median, "n": len(values)}


def _median(values: list[float]) -> float:
    return _stats(values)["median"]


def _measure(name: str, repeats: int) -> dict:
    import numpy as np
    import qpignn.diffkit as dk
    import qpignn.graphcore as gc
    import qpignn.harness as harness
    import qpignn.metrics as metrics
    import qpignn.model as model

    graph, shape, split_kind, epochs = CASES[name]
    g = (gc.gen_er(shape[0], 8 / (shape[0] - 1), seed=DATA_SEED)
         if graph == "er" else gc.gen_grid(*shape))
    ds = gc.synth_dataset(g, "gaussian", feat_dim=8, noise_sigma=1.0,
                          seed=DATA_SEED,
                          split_spec=gc.SplitSpec(split_kind, seed=DATA_SEED))
    cfg = harness.TrainConfig(epochs=epochs, seed=0)

    # Wrap the module bindings ``train`` calls, as perfbench does.
    spans: dict[str, list[float]] = {k: [] for k in PHASES}
    spans["epoch_loss"] = []

    def timed(owner, attr, key):
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spans[key].append((time.perf_counter() - t0) * 1e3)
            return out
        setattr(owner, attr, wrapper)

    timed(harness, "forward_intervals", "forward_ms")
    timed(harness, "_epoch_loss", "epoch_loss")
    timed(dk, "backward", "backward_ms")
    timed(harness, "grad_norm", "adam_ms")
    timed(harness, "adam_step", "adam_ms")

    runs = {k: [] for k in ("epoch_ms", "minflt_per_epoch", *PHASES,
                            "eval_ms", "eval_minflt_per_call")}
    digest = eval_digest = ""
    for _ in range(repeats):
        for v in spans.values():
            v.clear()
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fitted, rec = harness.train(ds, cfg)
        runs["epoch_ms"].append((time.perf_counter() - t0) / epochs * 1e3)
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
        runs["minflt_per_epoch"].append(flt / epochs)
        # Taped forwards only: the final evaluation is one more call.
        forward = spans["forward_ms"][:epochs]
        adam = np.add(spans["adam_ms"][0::2], spans["adam_ms"][1::2])
        runs["forward_ms"].append(_median(forward))
        runs["loss_ms"].append(_median(
            list(np.subtract(spans["epoch_loss"], forward))))
        runs["backward_ms"].append(_median(spans["backward_ms"]))
        runs["adam_ms"].append(_median(list(adam)))
        h = hashlib.sha256()
        for arr in (rec.coverage, rec.width, rec.loss, rec.grad_norm,
                    rec.violation):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(sorted(rec.reports.items())).encode())
        digest = h.hexdigest()[:16]

        calls = []
        flt0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(EVAL_CALLS):
            t0 = time.perf_counter()
            iv = model.forward_intervals(fitted, ds.graph, ds.features,
                                         alpha=cfg.alpha)
            metrics.report(iv, ds.targets, ds.test_mask, cfg.alpha)
            calls.append((time.perf_counter() - t0) * 1e3)
        flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - flt0
        runs["eval_ms"].append(_median(calls))
        runs["eval_minflt_per_call"].append(flt / EVAL_CALLS)
        eval_digest = hashlib.sha256(
            np.concatenate([iv.low_values, iv.up_values]).tobytes()
        ).hexdigest()[:16]

    row = {k: _stats(v) for k, v in runs.items()}
    row.update(epochs=epochs, nodes=g.num_nodes, digest=digest,
               eval_digest=eval_digest,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return row


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    p.add_argument("--label", default="run")
    p.add_argument("--cases", default=",".join(CASES))
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--case", help=argparse.SUPPRESS)  # one case, in-process
    p.add_argument("--combine", nargs="+", metavar="FILE",
                   help="merge runs; the first file is the baseline")
    args = p.parse_args(argv)

    if args.combine:
        sides = [json.loads(Path(f).read_text()) for f in args.combine]
        base = sides[0]
        names = dict.fromkeys(n for side in sides for n in side["cases"])
        cases = {}
        for name in names:
            old = base["cases"].get(name)
            row = {"before": old}
            for side in sides[1:]:
                new = side["cases"].get(name)
                if new is not None and old is not None:
                    new = {**new, "same_digest": new["digest"] == old["digest"]
                           and new["eval_digest"] == old["eval_digest"],
                           "epoch_median_speedup": old["epoch_ms"]["median"]
                           / new["epoch_ms"]["median"],
                           "eval_median_speedup": old["eval_ms"]["median"]
                           / new["eval_ms"]["median"],
                           "peak_rss_ratio":
                               new["peak_rss_mb"] / old["peak_rss_mb"]}
                row[side["label"]] = new
            cases[name] = row
        print(json.dumps({"before": base["label"],
                          "compared": [s["label"] for s in sides[1:]],
                          "environment": base["environment"], "cases": cases},
                         indent=2))
        return 0

    if args.case:
        sys.path.insert(0, args.src)
        print(json.dumps(_measure(args.case, args.repeats)))
        return 0

    cases = {}
    for name in args.cases.split(","):
        out = subprocess.run(
            [sys.executable, __file__, "--case", name, "--src", args.src,
             "--repeats", str(args.repeats)],
            check=True, capture_output=True, text=True).stdout
        cases[name] = json.loads(out)
        print(f"{name}: {cases[name]}", file=sys.stderr)
    print(json.dumps({"label": args.label, "environment": _environment(),
                      "cases": cases}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
