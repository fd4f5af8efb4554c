"""Graph containers, synthetic data generation, perturbations, splits, CSV I/O.

Graphs are undirected and stored in CSR form: ``row_offsets`` of length
``num_nodes + 1`` and ``col_indices`` holding each edge twice (once per
direction), sorted within every row, with no self loops.  All node
features, targets and masks are plain numpy arrays; nothing here knows
about gradients.
"""
from __future__ import annotations

import csv
import math
import weakref
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from .errors import ContractError, IngestionError, ParameterError
from .rng import check_seed, keyed_rng, raw_words

FEATURE_FAMILIES = ("basic", "gaussian", "uniform", "edge_weighted")
SPLIT_KINDS = ("random", "degree", "community")
PERTURB_KINDS = ("feature_noise", "target_noise", "edge_dropout")

DEFAULT_RATIOS = (0.6, 0.2, 0.2)

# Fraction of the raw target signal contributed by the one-hop neighbour
# mean; fixed so regenerating a dataset from the same seed is reproducible.
NEIGHBOR_MIX = 0.5

_LABEL_PROP_ROUNDS = 20


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph in CSR form.

    ``col_indices[row_offsets[v]:row_offsets[v + 1]]`` lists the
    neighbours of ``v`` in ascending order.  Every undirected edge
    appears in both endpoint rows; self loops are forbidden.
    """

    num_nodes: int
    row_offsets: np.ndarray
    col_indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "row_offsets",
                           np.asarray(self.row_offsets, dtype=np.int64))
        object.__setattr__(self, "col_indices",
                           np.asarray(self.col_indices, dtype=np.int64))
        self.validate()

    def validate(self) -> None:
        n = self.num_nodes
        off, col = self.row_offsets, self.col_indices
        if n < 1:
            raise ContractError("graph must have at least one node")
        if off.shape != (n + 1,) or off[0] != 0 or off[-1] != col.size:
            raise ContractError("row_offsets inconsistent with col_indices")
        if np.any(np.diff(off) < 0):
            raise ContractError("row_offsets must be non-decreasing")
        if col.size:
            if col.min() < 0 or col.max() >= n:
                raise ContractError("col_indices out of range")
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(off))
        if np.any(rows == col):
            raise ContractError("self loops are not allowed")
        # Rows strictly sorted: every step inside a row must rise; steps
        # that cross from one row into the next are exempt.
        bad = np.diff(col) <= 0
        starts = off[1:-1]
        bad[starts[(starts > 0) & (starts < col.size)] - 1] = False
        if bad.any():
            raise ContractError(
                f"row {rows[np.argmax(bad)]} is not strictly sorted")
        # Symmetry: sorted unique rows equal their transpose iff the CSC
        # form (a counting sort) repeats the CSR arrays.
        csc = sparse.csr_matrix((np.ones(col.size, bool), col, off), (n, n)).tocsc()
        if not (np.array_equal(csc.indptr, off)
                and np.array_equal(csc.indices, col)):
            raise ContractError("adjacency is not symmetric")

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.row_offsets)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self.col_indices.size // 2

    def edge_pairs(self) -> np.ndarray:
        """All undirected edges as (u, v) rows with u < v, lexicographic."""
        rows = np.repeat(np.arange(self.num_nodes, dtype=np.int64),
                         np.diff(self.row_offsets))
        keep = self.col_indices > rows
        return np.column_stack([rows[keep], self.col_indices[keep]])


def from_edges(num_nodes: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an iterable of (u, v) pairs or an (m, 2) array.

    Symmetrises, removes duplicates and self loops, and sorts rows, so
    callers may hand over edges in any order and direction.  Anything
    but integer (u, v) pairs raises ParameterError.
    """
    if num_nodes < 1:
        raise ParameterError("num_nodes must be >= 1")
    try:
        arr = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"edges must be (u, v) pairs: {exc}") from exc
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
        raise ParameterError("edges must be (u, v) pairs of integer node "
                             f"ids, got shape {arr.shape} of {arr.dtype}")
    if arr.size:
        if arr.min() < 0 or arr.max() >= num_nodes:
            bad = int(arr.max() if arr.max() >= num_nodes else arr.min())
            raise ParameterError(f"edge endpoint {bad} out of range")
        arr = arr[arr[:, 0] != arr[:, 1]]
    # Both directions into COO; the CSR build sorts rows and merges repeats.
    u, v = arr[:, 0], arr[:, 1]
    adj = sparse.coo_matrix((np.ones(2 * u.size, dtype=bool),
                             (np.concatenate([u, v]), np.concatenate([v, u]))),
                            shape=(num_nodes, num_nodes)).tocsr()
    return Graph(num_nodes, adj.indptr.astype(np.int64),
                 adj.indices.astype(np.int64))


# One mean-adjacency operator per live Graph.  It is kept off the Graph
# so that pickling a dataset (to sweep workers) does not carry it.
_MEAN_ADJACENCY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def mean_adjacency(graph: Graph) -> sparse.csr_matrix:
    """Row-stochastic adjacency: entry (v, u) is 1/deg(v) for u in N(v).

    Rows of isolated nodes are all zero, so multiplying by it realises
    the convention that an empty neighbourhood averages to zero.  The
    operator is built once per ``Graph`` object and shared by every
    later call, so its ``data`` array is read-only.
    """
    op = _MEAN_ADJACENCY.get(graph)
    if op is None:
        deg = graph.degrees.astype(np.float64)
        inv = np.zeros_like(deg)
        np.divide(1.0, deg, out=inv, where=deg > 0)
        data = np.repeat(inv, graph.degrees)
        op = sparse.csr_matrix(
            (data, graph.col_indices, graph.row_offsets),
            shape=(graph.num_nodes, graph.num_nodes),
        )
        op.data.flags.writeable = False
        _MEAN_ADJACENCY[graph] = op
    return op


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_er(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p).

    One uniform draw per unordered pair, taken in lexicographic order
    ((0,1), (0,2), ..., (n-2,n-1)); the pair is included iff its draw is
    below ``p``.  Fully determined by (n, p, seed).

    The draws are ``raw_words``, one word per pair, and ``random()``
    would be ``(word >> 11) * 2**-53``.  An integer ``m`` is below
    ``p * 2**53`` iff it is below ``ceil(p * 2**53)``, so the pair is
    kept iff ``word < ceil(p * 2**53) << 11``: bit for bit the test
    ``random() < p``, with no double made.  At p == 1 that cut is 2**64,
    past uint64, so words are compared with the largest kept one, and
    at p == 0 none is kept.  Memory is one chunk of words plus the graph
    (O(n + edges)); time is still O(n^2).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ParameterError("p must lie in [0, 1]")
    check_seed(seed)
    if p == 0.0:
        return from_edges(n, np.empty((0, 2), dtype=np.int64))
    last = np.uint64((math.ceil(p * 2.0 ** 53) << 11) - 1)
    chunks = raw_words(keyed_rng(seed, "er"), n * (n - 1) // 2)
    # The flat indices of the kept pairs, decoded once below.  No chunk
    # outlives the generator, and the empty head covers n == 1.
    k = np.concatenate([np.empty(0, dtype=np.int64), *(
        offset + np.flatnonzero(words <= last) for offset, words in chunks)])
    # first[i] is the flat index of pair (i, i + 1); the n - 1 - i pairs
    # (i, j > i) follow it.
    first = np.arange(n - 1, dtype=np.int64)
    first = first * (n - 1) - first * (first - 1) // 2
    i = np.searchsorted(first, k, side="right") - 1
    return from_edges(n, np.column_stack([i, k - first[i] + i + 1]))


def gen_ba(n: int, m: int, seed: int) -> Graph:
    """Barabasi-Albert preferential attachment.

    Starts from a clique on ``m + 1`` nodes; every later node attaches to
    ``m`` distinct existing nodes sampled proportionally to their current
    degree (rejection sampling over the degree-repeated node list).
    """
    if m < 1:
        raise ParameterError("m must be >= 1")
    if n < m + 1:
        raise ParameterError("n must be at least m + 1")
    check_seed(seed)
    rng = keyed_rng(seed, "ba")
    edges: list[tuple[int, int]] = []
    repeated: list[int] = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            edges.append((u, v))
        repeated.extend([u] * m)
    for new in range(m + 1, n):
        targets: list[int] = []
        while len(targets) < m:
            cand = repeated[int(rng.integers(0, len(repeated)))]
            if cand not in targets:
                targets.append(cand)
        for t in targets:
            edges.append((new, t))
        repeated.extend(targets)
        repeated.extend([new] * m)
    return from_edges(n, edges)


def gen_grid(rows: int, cols: int) -> Graph:
    """Two-dimensional 4-neighbour lattice; node id is row * cols + col."""
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be positive")
    ids = np.arange(rows * cols, dtype=np.int64).reshape(rows, cols)
    right = np.column_stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()])
    down = np.column_stack([ids[:-1].ravel(), ids[1:].ravel()])
    return from_edges(rows * cols, np.concatenate([right, down]))


def gen_chain(n: int) -> Graph:
    """Path graph on n nodes."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    ids = np.arange(n, dtype=np.int64)
    return from_edges(n, np.column_stack([ids[:-1], ids[1:]]))


def gen_tree(branching: int, depth: int) -> Graph:
    """Complete b-ary tree with ``depth`` levels below the root."""
    if branching < 1 or depth < 0:
        raise ParameterError("branching must be >= 1 and depth >= 0")
    if branching == 1:
        return gen_chain(depth + 1)
    total = (branching ** (depth + 1) - 1) // (branching - 1)
    child = np.arange(1, total, dtype=np.int64)
    return from_edges(total, np.column_stack([(child - 1) // branching, child]))


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dataset:
    """A graph with node features, scalar targets and split masks."""

    graph: Graph
    features: np.ndarray
    targets: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray

    def __post_init__(self):
        n = self.graph.num_nodes
        x = np.asarray(self.features, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != n:
            raise ContractError("features must be (num_nodes, feat_dim)")
        y = np.asarray(self.targets, dtype=np.float64).reshape(-1)
        if y.shape[0] != n:
            raise ContractError("targets must have one entry per node")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", y)
        masks = []
        for name in ("train_mask", "val_mask", "test_mask"):
            m = np.asarray(getattr(self, name)).astype(bool)
            if m.shape != (n,):
                raise ContractError(f"{name} must be a boolean vector of length n")
            masks.append(m)
            object.__setattr__(self, name, m)
        total = masks[0].astype(int) + masks[1].astype(int) + masks[2].astype(int)
        if np.any(total != 1):
            raise ContractError("masks must be disjoint and cover every node")

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def feat_dim(self) -> int:
        return self.features.shape[1]

    def masks(self) -> dict[str, np.ndarray]:
        return {"train": self.train_mask, "val": self.val_mask,
                "test": self.test_mask}


@dataclass(frozen=True)
class SplitSpec:
    """How to carve nodes into train/val/test."""

    kind: str = "random"
    ratios: tuple[float, float, float] = DEFAULT_RATIOS
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SPLIT_KINDS:
            raise ParameterError(f"unknown split kind {self.kind!r}")
        if len(self.ratios) != 3 or any(not 0.0 < r < 1.0 for r in self.ratios):
            raise ParameterError("ratios must be three fractions in (0, 1)")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ParameterError("ratios must sum to 1")
        check_seed(self.seed)


@dataclass(frozen=True)
class PerturbSpec:
    """A single dataset perturbation."""

    kind: str
    level: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PERTURB_KINDS:
            raise ParameterError(f"unknown perturbation kind {self.kind!r}")
        # Chained, so NaN (which fails every comparison) is refused too.
        if not 0.0 <= self.level < math.inf:
            raise ParameterError("level must be finite and >= 0")
        if self.kind == "edge_dropout" and self.level > 1.0:
            raise ParameterError("edge_dropout level must lie in [0, 1]")
        check_seed(self.seed)


def _mask_sizes(n: int, ratios: Sequence[float]) -> tuple[int, int, int]:
    n_train = int(ratios[0] * n)
    n_val = int(ratios[1] * n)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ParameterError("ratios leave an empty mask")
    return n_train, n_val, n_test


def _masks_from_order(n: int, order: np.ndarray,
                      sizes: tuple[int, int, int]) -> tuple[np.ndarray, ...]:
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    train[order[:sizes[0]]] = True
    val[order[sizes[0]:sizes[0] + sizes[1]]] = True
    test[order[sizes[0] + sizes[1]:]] = True
    return train, val, test


def _propagate_labels(graph: Graph) -> np.ndarray:
    """Synchronous label propagation (Raghavan et al. 2007).

    Every round, each node with neighbours takes the label most frequent
    among them, ties broken toward the lowest label; all nodes update at
    once from the previous round's labels, and isolated nodes keep their
    own.  Stops after ``_LABEL_PROP_ROUNDS`` rounds or when a round
    changes nothing.  Each round's ``sum_duplicates`` on the CSR matrix
    of neighbour labels sorts every row and counts its labels in C++.
    """
    n = graph.num_nodes
    labels = np.arange(n, dtype=np.int64)
    has = np.flatnonzero(graph.degrees)
    for _ in range(_LABEL_PROP_ROUNDS):
        # scipy rewrites all three arrays in place: hand it fresh ones.
        counts = sparse.csr_matrix(
            (np.ones(graph.col_indices.size, dtype=np.int64),
             labels[graph.col_indices], graph.row_offsets.copy()),
            shape=(n, n))
        counts.sum_duplicates()
        # Row maximum of count, then of -label: the most frequent label,
        # the lowest one on a tie.
        best = np.maximum.reduceat(counts.data * n + (n - 1 - counts.indices),
                                   counts.indptr[has])
        nxt = labels.copy()
        nxt[has] = n - 1 - best % n
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    return labels


def split(graph: Graph, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return disjoint, exhaustive (train, val, test) boolean masks."""
    n = graph.num_nodes
    sizes = _mask_sizes(n, spec.ratios)
    if spec.kind == "random":
        order = keyed_rng(spec.seed, "split:random").permutation(n)
        return _masks_from_order(n, order, sizes)
    if spec.kind == "degree":
        # Ascending degree, node id breaking ties: train gets the
        # lowest-degree fraction, test the highest.
        order = np.lexsort((np.arange(n), graph.degrees))
        return _masks_from_order(n, order, sizes)
    # Community: communities ordered by size (largest first, then by
    # lowest node id), nodes ascending within each; whole communities go
    # to train until its quota is met, and the remaining nodes are split
    # between val and test, so a community may straddle val/test but
    # never train/test.
    _, first, comm, size = np.unique(_propagate_labels(graph), return_index=True,
                                     return_inverse=True, return_counts=True)
    rank = np.empty_like(first)
    rank[np.lexsort((first, -size))] = np.arange(first.size)
    order = np.argsort(rank[comm], kind="stable")
    taken = np.cumsum(np.sort(size)[::-1])
    n_train = int(taken[min(np.searchsorted(taken, sizes[0]), taken.size - 1)])
    n_rest = n - n_train
    if n_rest < 2:
        raise ParameterError("community split leaves an empty mask")
    val_share = spec.ratios[1] / (spec.ratios[1] + spec.ratios[2])
    n_val = min(max(int(round(n_rest * val_share)), 1), n_rest - 1)
    return _masks_from_order(n, order, (n_train, n_val, n_rest - n_val))


def synth_dataset(graph: Graph, family: str, feat_dim: int,
                  noise_sigma: float, seed: int,
                  split_spec: SplitSpec | None = None) -> Dataset:
    """Generate features and targets on an existing graph.

    Targets follow ``y = X w + 0.5 (A_mean X) w + noise`` where ``A_mean``
    is the row-stochastic adjacency (isolated nodes contribute zero for
    the neighbour term).  The ``edge_weighted`` family additionally
    scales the neighbour term by degree / max-degree, making structure
    matter more at hubs.  Families differ in the feature draw:

    - ``gaussian`` / ``edge_weighted``: iid standard normal entries,
    - ``uniform``: iid uniform on [-1, 1],
    - ``basic``: standard normal, then each column standardised.
    """
    if family not in FEATURE_FAMILIES:
        raise ParameterError(f"unknown feature family {family!r}")
    if feat_dim < 1:
        raise ParameterError("feat_dim must be >= 1")
    if not 0.0 <= noise_sigma < math.inf:
        raise ParameterError("noise_sigma must be finite and non-negative")
    check_seed(seed)
    n = graph.num_nodes
    feat_rng = keyed_rng(seed, "features")
    if family == "uniform":
        x = feat_rng.uniform(-1.0, 1.0, size=(n, feat_dim))
    else:
        x = feat_rng.standard_normal((n, feat_dim))
        if family == "basic":
            std = x.std(axis=0)
            std[std == 0] = 1.0
            x = (x - x.mean(axis=0)) / std
    w = keyed_rng(seed, "weights").standard_normal(feat_dim) / np.sqrt(feat_dim)
    neighbor_term = (mean_adjacency(graph) @ x) @ w
    if family == "edge_weighted":
        deg = graph.degrees.astype(np.float64)
        max_deg = deg.max()
        scale = deg / max_deg if max_deg > 0 else np.zeros(n)
        neighbor_term = neighbor_term * scale
    noise = keyed_rng(seed, "noise").standard_normal(n) * noise_sigma
    y = x @ w + NEIGHBOR_MIX * neighbor_term + noise
    spec = split_spec or SplitSpec(seed=seed)
    train, val, test = split(graph, spec)
    return Dataset(graph, x, y, train, val, test)


def perturb(dataset: Dataset, spec: PerturbSpec) -> Dataset:
    """Apply one perturbation; level 0 returns an identical dataset.

    Masks are never changed, so metrics before and after are computed on
    the same node populations.
    """
    rng = keyed_rng(spec.seed, f"perturb:{spec.kind}")
    if spec.kind == "feature_noise":
        noise = rng.standard_normal(dataset.features.shape) * spec.level
        return replace(dataset, features=dataset.features + noise)
    if spec.kind == "target_noise":
        noise = rng.standard_normal(dataset.targets.shape) * spec.level
        return replace(dataset, targets=dataset.targets + noise)
    # edge_dropout: one uniform draw per undirected edge, taken in
    # lexicographic (u < v) order; the edge is removed iff draw < level.
    pairs = dataset.graph.edge_pairs()
    draws = rng.random(len(pairs))
    kept = pairs[draws >= spec.level]
    graph = from_edges(dataset.graph.num_nodes, kept)
    return replace(dataset, graph=graph)


# ---------------------------------------------------------------------------
# CSV ingestion and export
# ---------------------------------------------------------------------------

def _read_rows(path: str | Path, header: bool) -> list[tuple[int, list[str]]]:
    try:
        with open(path, newline="") as fh:
            rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh))
                    if row and any(cell.strip() for cell in row)]
    except OSError as exc:
        raise IngestionError(f"{path}: {exc}") from exc
    if header and rows:
        rows = rows[1:]
    return rows


def _finite_floats(path: str | Path, lineno: int,
                   cells: list[str]) -> list[float]:
    vals = []
    for cell in cells:
        try:
            val = float(cell)
        except ValueError as exc:
            raise IngestionError(
                f"{path}:{lineno}: bad float {cell!r}") from exc
        if not np.isfinite(val):
            raise IngestionError(f"{path}:{lineno}: non-finite value {cell!r}")
        vals.append(val)
    return vals


def load_csv(edges_path: str | Path, features_path: str | Path,
             targets_path: str | Path, header: bool = False,
             split_spec: SplitSpec | None = None) -> Dataset:
    """Load a dataset from three CSV files.

    ``edges`` holds one ``src,dst`` pair per line, ``features`` one row
    of floats per node, ``targets`` one float per node.  Node count is
    taken from the targets file; every edge endpoint must be a valid
    index; features and targets must be finite.  Errors cite the
    offending file, line and value.
    """
    targets = []
    for lineno, row in _read_rows(targets_path, header):
        if len(row) != 1:
            raise IngestionError(
                f"{targets_path}:{lineno}: expected a single target value")
        targets += _finite_floats(targets_path, lineno, row)
    if not targets:
        raise IngestionError(f"{targets_path}: no target rows")
    n = len(targets)

    feats: list[list[float]] = []
    width = None
    for lineno, row in _read_rows(features_path, header):
        vals = _finite_floats(features_path, lineno, row)
        if width is None:
            width = len(vals)
        elif len(vals) != width:
            raise IngestionError(
                f"{features_path}:{lineno}: expected {width} columns, "
                f"got {len(vals)}")
        feats.append(vals)
    if len(feats) != n:
        raise IngestionError(
            f"{features_path}: {len(feats)} feature rows for {n} targets")

    edges = []
    for lineno, row in _read_rows(edges_path, header):
        if len(row) != 2:
            raise IngestionError(
                f"{edges_path}:{lineno}: expected 'src,dst'")
        try:
            u, v = int(row[0]), int(row[1])
        except ValueError as exc:
            raise IngestionError(
                f"{edges_path}:{lineno}: bad node index") from exc
        for node in (u, v):
            if not 0 <= node < n:
                raise IngestionError(
                    f"{edges_path}:{lineno}: node index {node} out of "
                    f"range for {n} nodes")
        edges.append((u, v))

    graph = from_edges(n, edges)
    spec = split_spec or SplitSpec()
    train, val, test = split(graph, spec)
    return Dataset(graph, np.asarray(feats), np.asarray(targets),
                   train, val, test)


def save_csv(dataset: Dataset, edges_path: str | Path,
             features_path: str | Path, targets_path: str | Path) -> None:
    """Write a dataset in the same format ``load_csv`` reads.

    Each undirected edge is written once with the smaller endpoint
    first, so a save/load round trip reproduces the CSR arrays exactly.
    """
    with open(edges_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for u, v in dataset.graph.edge_pairs():
            writer.writerow([int(u), int(v)])
    with open(features_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in dataset.features:
            writer.writerow([repr(float(x)) for x in row])
    with open(targets_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for y in dataset.targets:
            writer.writerow([repr(float(y))])
