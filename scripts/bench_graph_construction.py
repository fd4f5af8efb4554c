"""Time dataset construction: generator, ``Graph.validate``, split, full build.

Measures the ``qpignn`` found under ``--src`` (default: this checkout's
``src``), one case per fresh process so each case's peak RSS is its own:

    python scripts/bench_graph_construction.py --label after > after.json
    python scripts/bench_graph_construction.py --src OTHER/src --label before > before.json
    python scripts/bench_graph_construction.py --combine before.json after.json

Cases: ``er2k`` (2000-node ER, mean degree 8, random split), ``grid20k``
(141x142 grid) and ``grid200k`` (447x448 grid), both with the community
split.  ``gen_s`` is the generator call, which includes the validation
the ``Graph`` constructor runs; ``validate_s`` is one more
``Graph.validate``; ``split_s`` is ``split`` alone; ``build_s`` is the
generator plus ``synth_dataset`` (features, targets and split), as
``perfbench`` builds a dataset.  Each timing repeats ``--repeats`` times,
or fewer once it has used ``--budget`` seconds (at least once); ``n``
records how many runs it got.  ``digest`` hashes the built dataset's
arrays, so two sides can be checked for identical output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

CASES = {
    "er2k": ("er", (2000,), "random"),
    "grid20k": ("grid", (141, 142), "community"),
    "grid200k": ("grid", (447, 448), "community"),
}
DATA_SEED = 1


def _timed(fn, repeats: int, budget: float) -> tuple[dict, object]:
    times, out = [], None
    while len(times) < repeats and (not times or sum(times) < budget):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    times.sort()
    mid = len(times) // 2
    median = times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2
    return {"min": times[0], "median": median, "n": len(times)}, out


def _measure(name: str, repeats: int, budget: float) -> dict:
    import numpy as np
    import qpignn.graphcore as gc

    graph, shape, split_kind = CASES[name]
    if graph == "er":
        def gen():
            return gc.gen_er(shape[0], 8 / (shape[0] - 1), seed=DATA_SEED)
    else:
        def gen():
            return gc.gen_grid(*shape)
    spec = gc.SplitSpec(split_kind, seed=DATA_SEED)

    def build():
        return gc.synth_dataset(gen(), "gaussian", feat_dim=8, noise_sigma=1.0,
                                seed=DATA_SEED, split_spec=spec)

    row = {}
    row["gen_s"], g = _timed(gen, repeats, budget)
    row["validate_s"], _ = _timed(g.validate, repeats, budget)
    row["split_s"], _ = _timed(lambda: gc.split(g, spec), repeats, budget)
    row["build_s"], ds = _timed(build, repeats, budget)
    h = hashlib.sha256()
    for arr in (ds.graph.row_offsets, ds.graph.col_indices, ds.features,
                ds.targets, ds.train_mask, ds.val_mask, ds.test_mask):
        h.update(np.ascontiguousarray(arr).tobytes())
    row["digest"] = h.hexdigest()[:16]
    row["nodes"] = g.num_nodes
    row["edges"] = g.num_edges
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return row


def _environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    p.add_argument("--label", default="run")
    p.add_argument("--cases", default=",".join(CASES))
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--budget", type=float, default=60.0,
                   help="seconds after which a timing stops repeating")
    p.add_argument("--case", help=argparse.SUPPRESS)  # one case, in-process
    p.add_argument("--combine", nargs=2, metavar=("BEFORE", "AFTER"))
    args = p.parse_args(argv)

    if args.combine:
        before, after = (json.loads(Path(f).read_text()) for f in args.combine)
        cases = {}
        for name, row in after["cases"].items():
            old = before["cases"][name]
            cases[name] = {"before": old, "after": row,
                           "same_digest": old["digest"] == row["digest"],
                           "build_median_speedup":
                               old["build_s"]["median"] / row["build_s"]["median"]}
        print(json.dumps({"before": before["label"], "after": after["label"],
                          "environment": after["environment"], "cases": cases},
                         indent=2))
        return 0

    if args.case:
        sys.path.insert(0, args.src)
        print(json.dumps(_measure(args.case, args.repeats, args.budget)))
        return 0

    cases = {}
    for name in args.cases.split(","):
        out = subprocess.run(
            [sys.executable, __file__, "--case", name, "--src", args.src,
             "--repeats", str(args.repeats), "--budget", str(args.budget)],
            check=True, capture_output=True, text=True).stdout
        cases[name] = json.loads(out)
        print(f"{name}: {cases[name]}", file=sys.stderr)
    print(json.dumps({"label": args.label, "environment": _environment(),
                      "cases": cases}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
