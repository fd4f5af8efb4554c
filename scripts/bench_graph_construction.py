"""Time dataset construction: generator, ``Graph.validate``, split, full build.

Runs under ``driver.py``, which compares ``qpignn`` source trees, the
first being the baseline, with one fresh process per case, side and
repeat, the sides alternating:

    python scripts/bench_graph_construction.py before=OTHER/src after=src > out.json

Cases: ``er2k`` and ``er20k`` (2000- and 20,000-node ER, mean degree 8,
random split; ``gen_er`` is quadratic, so ``er20k`` is its scale
point), ``grid20k`` (141x142 grid) and ``grid200k`` (447x448 grid),
both with the community split.  No case runs an untimed first pass, so
every timing includes the process's first call.  ``gen_s`` is the
generator call, which includes the validation the ``Graph`` constructor
runs; ``validate_s`` is one more ``Graph.validate``; ``split_s`` is
``split`` alone; ``build_s`` is the generator plus ``synth_dataset``
(features, targets and split), as ``perfbench`` builds a dataset.
``digest`` hashes the built dataset's arrays, so two sides can be
checked for identical output; ``peak_rss_mb`` is the process peak.
"""
from __future__ import annotations

import hashlib
import resource
import sys
import time

import driver

CASES = ("er2k", "er20k", "grid20k", "grid200k")


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def measure(name: str) -> dict:
    import numpy as np
    import qpignn.graphcore as gc

    spec = driver.split_spec(name)
    row = {}
    row["gen_s"], g = _timed(driver.generator(name))
    row["validate_s"], _ = _timed(g.validate)
    row["split_s"], _ = _timed(lambda: gc.split(g, spec))
    row["build_s"], ds = _timed(lambda: driver.dataset(name))
    h = hashlib.sha256()
    for arr in (ds.graph.row_offsets, ds.graph.col_indices, ds.features,
                ds.targets, ds.train_mask, ds.val_mask, ds.test_mask):
        h.update(np.ascontiguousarray(arr).tobytes())
    row["digest"] = h.hexdigest()[:16]
    row["nodes"] = g.num_nodes
    row["edges"] = g.num_edges
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return row


if __name__ == "__main__":
    sys.exit(driver.main(__doc__, CASES, measure, __file__))
