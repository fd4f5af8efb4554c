"""The driver every ``scripts/bench_*.py`` benchmark runs under.

A script names its cases and what one process measures for one of
them, and calls ``main``; this module runs the processes and writes the
comparison as JSON on stdout:

    python scripts/bench_epoch.py [LABEL=SRC ...] [--cases A,B] [--repeats N]

Each ``LABEL=SRC`` side is a ``src`` directory holding a ``qpignn``
package; the first side is the baseline, and with no side given the
one side is this checkout's ``src``, labelled ``run``.  For every
repeat and every case the driver starts one fresh process per side, so
each process's page faults and peak RSS are its own, and it flips the
order of the sides every repeat, so a burst of host load lands on all
of them.  The JSON holds:

- ``order``: every process as ``[repeat, case, side]``, in the order run;
- per case and side, under ``sides``: each float one process reported,
  as its ``min``, ``median`` and ``n`` over the repeats, and every other
  field once, or as the list of its per-repeat values where they differ;
- per case, ``same_digest``: whether every side's ``*digest*`` fields
  equal the baseline's and agree across that side's repeats, and
  ``median_ratio``: per other side, each timing's (``*_ms``, ``*_s``)
  median over the baseline's.

A side whose digests differ across its own repeats is named on stderr,
and the exit status is 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The datasets the scripts train and build, as perfbench builds them:
# generator, its shape and the split kind, all with data seed 1.
DATASETS = {
    "er2k": ("er", (2000,), "random"),
    "er20k": ("er", (20000,), "random"),
    "grid20k": ("grid", (141, 142), "community"),
    "grid200k": ("grid", (447, 448), "community"),
}
DATA_SEED = 1


def generator(name: str):
    """A function that generates the graph of dataset ``name``."""
    import qpignn.graphcore as gc
    kind, shape, _ = DATASETS[name]
    if kind == "er":
        return lambda: gc.gen_er(shape[0], 8 / (shape[0] - 1), seed=DATA_SEED)
    return lambda: gc.gen_grid(*shape)


def split_spec(name: str):
    import qpignn.graphcore as gc
    return gc.SplitSpec(DATASETS[name][2], seed=DATA_SEED)


def dataset(name: str):
    """Dataset ``name``: a fresh graph, 8 gaussian features, noise 1.0."""
    import qpignn.graphcore as gc
    return gc.synth_dataset(generator(name)(), "gaussian", feat_dim=8,
                            noise_sigma=1.0, seed=DATA_SEED,
                            split_spec=split_spec(name))


def stats(values: list[float]) -> dict:
    return {"min": min(values), "median": statistics.median(values),
            "n": len(values)}


def environment() -> dict:
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


def summarise(rows: list[dict]) -> dict:
    """One side's rows of one case, one per repeat, as described above."""
    out = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if isinstance(values[0], float):
            out[key] = stats(values)
        else:
            out[key] = values[0] if values.count(values[0]) == len(values) \
                else values
    return out


def compare(rows: dict[str, list[dict]], baseline: str) -> tuple[dict, dict]:
    """One case's JSON entry from its rows per side, and the digest
    fields that differ across a side's repeats, per such side."""
    sides = {label: summarise(side_rows) for label, side_rows in rows.items()}
    digests = {label: {k: v for k, v in row.items() if "digest" in k}
               for label, row in sides.items()}
    split = {label: [k for k, v in d.items() if isinstance(v, list)]
             for label, d in digests.items()}
    split = {label: fields for label, fields in split.items() if fields}
    base = sides[baseline]
    return {
        "same_digest": not split and all(
            d == digests[baseline] for d in digests.values()),
        "median_ratio": {
            label: {k: row[k]["median"] / base[k]["median"] for k in row
                    if k.endswith(("_ms", "_s")) and isinstance(row[k], dict)
                    and isinstance(base.get(k), dict)}
            for label, row in sides.items() if label != baseline},
        "sides": sides,
    }, split


def _sides(parser, specs: list[str]) -> dict[str, str]:
    sides = {}
    for spec in specs:
        label, _, src = spec.partition("=")
        if not label or not src or not (Path(src) / "qpignn").is_dir():
            parser.error(f"{spec!r} is not LABEL=SRC with a qpignn "
                         "package under SRC")
        if label in sides:
            parser.error(f"side {label!r} is given twice")
        sides[label] = src
    return sides


def main(doc: str, cases, measure, script: str, argv=None,
         env: dict[str, dict[str, str]] | None = None) -> int:
    """Run ``script``'s ``cases`` (names) on every side and print the
    JSON; ``measure(case)`` is one process's row, and ``env`` maps a
    case to environment variables its processes start with."""
    p = argparse.ArgumentParser(
        description=doc.split("\n\n")[0],
        epilog="Each repeat runs every case once per side, in one fresh "
               "process each, and flips the order of the sides.")
    p.add_argument("sides", nargs="*", metavar="LABEL=SRC",
                   help="the qpignn source trees to compare, the baseline "
                        f"first (default: run={SRC})")
    p.add_argument("--cases", default=",".join(cases),
                   help="comma-separated (default: %(default)s)")
    p.add_argument("--repeats", type=int, default=5,
                   help="processes per case and side (default: %(default)s)")
    p.add_argument("--case", help=argparse.SUPPRESS)  # one process's case
    args = p.parse_args(argv)
    sides = _sides(p, args.sides or [f"run={SRC}"])

    if args.case:
        sys.path.insert(0, next(iter(sides.values())))
        print(json.dumps(measure(args.case)))
        return 0

    names = args.cases.split(",")
    unknown = [n for n in names if n not in cases]
    if unknown or len(set(names)) < len(names):
        p.error(f"--cases must name distinct cases of {list(cases)}")
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    labels = list(sides)
    rows = {name: {label: [] for label in labels} for name in names}
    order = []
    for repeat in range(args.repeats):
        for name in names:
            for label in labels if repeat % 2 == 0 else labels[::-1]:
                out = subprocess.run(
                    [sys.executable, script, "--case", name,
                     f"{label}={sides[label]}"],
                    check=True, stdout=subprocess.PIPE, text=True,
                    env={**os.environ, **(env or {}).get(name, {})}).stdout
                rows[name][label].append(json.loads(out))
                order.append([repeat, name, label])
                print(f"{repeat} {name} {label}: {out.strip()}",
                      file=sys.stderr)

    result, status = {}, 0
    for name in names:
        result[name], split = compare(rows[name], labels[0])
        for label, fields in split.items():
            print(f"{name} {label}: its repeats disagree on "
                  f"{', '.join(fields)}", file=sys.stderr)
            status = 1
    print(json.dumps({"baseline": labels[0], "sides": labels,
                      "repeats": args.repeats, "environment": environment(),
                      "order": order, "cases": result}, indent=2))
    return status
