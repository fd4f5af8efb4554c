"""Graph construction, synthetic data, splits, perturbations, CSV IO."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpignn as q
import qpignn.graphcore as graphcore
import qpignn.rng as rng
from qpignn.errors import ContractError, IngestionError, ParameterError
from qpignn.graphcore import (DEFAULT_RATIOS, FEATURE_FAMILIES,
                              NEIGHBOR_MIX, PERTURB_KINDS, PerturbSpec,
                              SplitSpec, mean_adjacency, perturb, split)
from qpignn.rng import keyed_rng


# ---------------------------------------------------------------------------
# Graph/CSR invariants
# ---------------------------------------------------------------------------

def _assert_valid(g):
    g.validate()
    # symmetric, no self loops, strictly sorted rows: validate() covers
    # these; double-check the degree identity here.
    assert int(g.row_offsets[-1]) == 2 * g.num_edges
    assert np.array_equal(g.degrees, np.diff(g.row_offsets))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 60), p=st.floats(0.0, 1.0), seed=st.integers(0, 10))
def test_gen_er_always_valid(n, p, seed):
    _assert_valid(q.gen_er(n, p, seed))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(3, 60), m=st.integers(1, 4), seed=st.integers(0, 10))
def test_gen_ba_valid_and_dense_enough(n, m, seed):
    if n < m + 1:
        n = m + 1
    g = q.gen_ba(n, m, seed)
    _assert_valid(g)
    # preferential attachment adds m edges per arriving node
    assert g.num_edges >= m * (n - m - 1)


def test_gen_er_determinism():
    a = q.gen_er(50, 0.1, seed=4)
    b = q.gen_er(50, 0.1, seed=4)
    assert np.array_equal(a.col_indices, b.col_indices)
    assert not np.array_equal(a.col_indices, q.gen_er(50, 0.1, seed=5).col_indices)


def test_gen_er_edge_probabilities():
    assert q.gen_er(30, 0.0, seed=0).num_edges == 0
    assert q.gen_er(30, 1.0, seed=0).num_edges == 30 * 29 // 2


def test_structured_generators():
    grid = q.gen_grid(3, 4)
    assert grid.num_nodes == 12
    assert grid.num_edges == 3 * 3 + 2 * 4  # vertical + horizontal runs
    chain = q.gen_chain(5)
    assert chain.num_edges == 4
    assert np.array_equal(chain.degrees, [1, 2, 2, 2, 1])
    tree = q.gen_tree(2, 3)
    assert tree.num_nodes == 2 ** 4 - 1
    assert tree.num_edges == tree.num_nodes - 1
    for g in (grid, chain, tree):
        _assert_valid(g)


def test_from_edges_dedupes_and_validates():
    g = q.from_edges(4, [(0, 1), (1, 0), (2, 3), (2, 3)])
    assert g.num_edges == 2
    # self loops are silently dropped, out-of-range endpoints rejected
    assert q.from_edges(3, [(1, 1)]).num_edges == 0
    with pytest.raises(ParameterError):
        q.from_edges(3, [(0, 5)])
    with pytest.raises(ContractError):
        q.Graph(2, np.array([0, 1, 2]), np.array([0, 0]))
    # a pair repeated past any small integer width is still one edge
    g = q.from_edges(3, [(0, 2)] * 300 + [(2, 0)] * 300)
    assert g.num_edges == 1
    assert np.array_equal(g.col_indices, [2, 0])
    # empty input of any container is an edgeless graph
    for empty in ([], (), np.empty((0, 2), dtype=np.int64), np.array([])):
        assert q.from_edges(3, empty).num_edges == 0
    # anything but integer (u, v) pairs is refused, never re-paired or
    # truncated
    for bad in (np.array([[0, 1, 2], [3, 4, 5]]), [(0, 1, 2)],
                [(0, 1), (1,)], [(0.9, 2.7)], np.array([[0.0, 1.0]]),
                np.array([0, 1]), [[True, False]], 5):
        with pytest.raises(ParameterError):
            q.from_edges(6, bad)


@pytest.mark.parametrize("n, offsets, cols, message", [
    # path 0-1-2 with row 1 listed as [2, 0]
    (3, [0, 1, 3, 4], [1, 2, 0, 1], "row 1 is not strictly sorted"),
    # path 0-1-2 with neighbour 2 listed twice in row 1
    (3, [0, 1, 4, 6], [1, 0, 2, 2, 1, 1], "row 1 is not strictly sorted"),
    (2, [0, 1, 2], [0, 1], "self loops"),
    (3, [0, 1, 1, 1], [1], "not symmetric"),
    (2, [0, 1, 2], [1, 5], "out of range"),
    (2, [0, 1, 2], [-1, 0], "out of range"),
    (2, [0, 1, 3], [1, 0], "inconsistent"),
    (2, [0, 2], [1, 0], "inconsistent"),
    (2, [1, 1, 2], [1, 0], "inconsistent"),
    (3, [0, 2, 1, 2], [1, 0], "non-decreasing"),
    (0, [0], [], "at least one node"),
])
def test_validate_rejects_each_broken_invariant(n, offsets, cols, message):
    with pytest.raises(ContractError, match=message):
        q.Graph(n, np.array(offsets), np.array(cols, dtype=np.int64))


def test_validate_allows_empty_rows_between_sorted_rows():
    # rows 0 and 3 are empty; steps across row ends may fall
    g = q.Graph(4, np.array([0, 0, 1, 2, 2]), np.array([2, 1]))
    assert g.num_edges == 1


def _er_reference(n, p, seed):
    """G(n, p) from one ``random()`` draw over every pair."""
    iu, ju = np.triu_indices(n, k=1)
    keep = keyed_rng(seed, "er").random(iu.size) < p
    return q.from_edges(n, np.column_stack([iu[keep], ju[keep]]))


def _assert_same_graph(got, ref):
    assert np.array_equal(got.row_offsets, ref.row_offsets)
    assert np.array_equal(got.col_indices, ref.col_indices)


def test_gen_er_blocks_equal_one_draw(monkeypatch):
    n, p, seed = 40, 0.2, 3
    ref = _er_reference(n, p, seed)
    monkeypatch.setattr(rng, "_RAW_CHUNK", 7)  # 780 pairs: 112 chunks
    _assert_same_graph(q.gen_er(n, p, seed), ref)
    assert q.gen_er(1, 0.5, seed).num_edges == 0


@pytest.mark.parametrize("p", [0.0, 1e-300, 2.0 ** -53, 0.1, 0.5,
                               1.0 - 2.0 ** -53, 1.0])
def test_gen_er_equals_the_random_draw_reference(p):
    _assert_same_graph(q.gen_er(60, p, 5), _er_reference(60, p, 5))


class _Words:
    """A generator whose raw words are the given ones, in order."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 64, np.uint64)
        out, self.words = self.words[:size], self.words[size:]
        return out


@pytest.mark.parametrize("p", [1e-300, 2.0 ** -53, 0.1, 1 / 3, 0.5,
                               1.0 - 2.0 ** -53, 1.0])
def test_gen_er_cut_is_random_below_p_at_its_edge(p, monkeypatch):
    # The words on either side of the cut, and the stream's extremes;
    # random() is (word >> 11) * 2**-53 for Philox.
    cut = int(np.ceil(p * 2.0 ** 53)) << 11
    words = [w for w in (0, 2047, 2048, cut - 2049, cut - 2048, cut - 1,
                         cut, cut + 2047, cut + 2048, (1 << 64) - 1)
             if 0 <= w < 1 << 64]
    n = 1
    while n * (n - 1) // 2 < len(words):
        n += 1
    words += [(1 << 64) - 1] * (n * (n - 1) // 2 - len(words))
    monkeypatch.setattr(graphcore, "keyed_rng", lambda *a: _Words(words))
    as_double = (np.array(words, dtype=np.uint64) >> 11) * 2.0 ** -53
    iu, ju = np.triu_indices(n, k=1)
    keep = as_double < p
    ref = q.from_edges(n, np.column_stack([iu[keep], ju[keep]]))
    _assert_same_graph(q.gen_er(n, p, 0), ref)


def test_gen_er_peak_memory_is_a_chunk_plus_the_graph():
    # A 2^20-pair block of doubles and its bool mask peak at 9.0 MiB
    # here; one 256 KiB chunk of raw words at about 0.9 MiB.
    tracemalloc.start()
    try:
        q.gen_er(2000, 8 / 1999, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 5), (5, 1), (4, 7)])
def test_gen_grid_matches_nested_loops(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    ref = q.from_edges(rows * cols, edges)
    got = q.gen_grid(rows, cols)
    assert np.array_equal(got.row_offsets, ref.row_offsets)
    assert np.array_equal(got.col_indices, ref.col_indices)


def test_edge_pairs_round_trip(ring6):
    pairs = ring6.edge_pairs()
    assert pairs.shape == (ring6.num_edges, 2)
    assert (pairs[:, 0] < pairs[:, 1]).all()
    rebuilt = q.from_edges(ring6.num_nodes, pairs)
    assert np.array_equal(rebuilt.col_indices, ring6.col_indices)
    assert np.array_equal(rebuilt.row_offsets, ring6.row_offsets)


def test_mean_adjacency_rows(ring6):
    a = mean_adjacency(ring6)
    sums = np.asarray(a.sum(axis=1)).ravel()
    # every node in the fixture has neighbours, so rows average to 1
    assert np.allclose(sums, 1.0)
    h = np.eye(6)
    out = a @ h
    # row v spreads 1/deg(v) over v's neighbours
    v = 1
    lo, hi = ring6.row_offsets[v:v + 2]
    np.testing.assert_allclose(out[v],
                               h[ring6.col_indices[lo:hi]].mean(axis=0))


# ---------------------------------------------------------------------------
# Synthetic datasets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", FEATURE_FAMILIES)
def test_synth_families_shapes_and_masks(family):
    g = q.gen_er(40, 0.2, seed=1)
    ds = q.synth_dataset(g, family, 5, 0.3, seed=1)
    assert ds.features.shape == (40, 5)
    assert ds.targets.shape == (40,)
    m = ds.masks()
    total = m["train"] | m["val"] | m["test"]
    assert total.all()
    assert (m["train"] & m["val"]).sum() == 0
    assert (m["train"] & m["test"]).sum() == 0


def test_synth_dataset_deterministic_and_seed_sensitive():
    g = q.gen_er(40, 0.2, seed=1)
    a = q.synth_dataset(g, "gaussian", 5, 0.3, seed=2)
    b = q.synth_dataset(g, "gaussian", 5, 0.3, seed=2)
    c = q.synth_dataset(g, "gaussian", 5, 0.3, seed=3)
    assert np.array_equal(a.targets, b.targets)
    assert not np.array_equal(a.targets, c.targets)


def test_targets_mix_in_neighbour_signal():
    """Zero noise makes the generative recipe exactly recoverable."""
    g = q.gen_er(60, 0.15, seed=6)
    ds = q.synth_dataset(g, "gaussian", 4, 0.0, seed=6)
    base = ds.targets
    noisy = q.synth_dataset(g, "gaussian", 4, 1.0, seed=6).targets
    # same seed, larger sigma: residual is exactly the injected noise
    resid = noisy - base
    assert 0.7 < resid.std() < 1.3
    assert NEIGHBOR_MIX == 0.5


def test_synth_rejects_bad_arguments():
    g = q.gen_er(10, 0.3, seed=0)
    with pytest.raises(ParameterError):
        q.synth_dataset(g, "nope", 4, 0.1, seed=0)
    with pytest.raises(ParameterError):
        q.synth_dataset(g, "gaussian", 0, 0.1, seed=0)
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            q.synth_dataset(g, "gaussian", 4, sigma, seed=0)


def test_dataset_validates_mask_partition(ring6):
    x = np.zeros((6, 2))
    y = np.zeros(6)
    ok = np.array([1, 1, 1, 1, 0, 0], bool), np.array([0, 0, 0, 0, 1, 0], bool)
    with pytest.raises(ContractError):
        q.Dataset(ring6, x, y, ok[0], ok[1], np.zeros(6, bool))  # node 5 lost


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ("random", "degree"))
def test_split_partitions(kind):
    g = q.gen_er(100, 0.1, seed=2)
    tr, va, te = split(g, SplitSpec(kind=kind, ratios=DEFAULT_RATIOS, seed=0))
    assert (tr | va | te).all()
    assert (tr & va).sum() == (tr & te).sum() == (va & te).sum() == 0
    assert tr.sum() == 60 and va.sum() == 20 and te.sum() == 20


def test_degree_split_orders_by_degree():
    g = q.gen_ba(100, 3, seed=2)
    tr, _, te = split(g, SplitSpec(kind="degree", ratios=DEFAULT_RATIOS, seed=0))
    assert g.degrees[tr].max() <= g.degrees[te].min()


def test_community_split_needs_structure():
    # grids fragment into many label-propagation communities
    tr, va, te = split(q.gen_grid(20, 20),
                       SplitSpec(kind="community", ratios=DEFAULT_RATIOS, seed=0))
    assert tr.sum() > 0 and va.sum() > 0 and te.sum() > 0
    # a dense ER graph collapses to one community and cannot be split
    with pytest.raises(ParameterError):
        split(q.gen_er(200, 0.1, seed=0),
              SplitSpec(kind="community", ratios=DEFAULT_RATIOS, seed=0))


def _reference_labels(graph):
    """Per-node label propagation loop, the oracle for the array version."""
    labels = np.arange(graph.num_nodes, dtype=np.int64)
    off, col = graph.row_offsets, graph.col_indices
    for _ in range(20):
        nxt = labels.copy()
        for v in range(graph.num_nodes):
            nb = col[off[v]:off[v + 1]]
            if nb.size == 0:
                continue
            uniq, counts = np.unique(labels[nb], return_counts=True)
            nxt[v] = uniq[np.argmax(counts)]  # uniq ascending: lowest wins ties
        if np.array_equal(nxt, labels):
            break
        labels = nxt
    return labels


def _reference_community_split(graph, spec, labels):
    """Dict-of-lists community grouping of the oracle's ``labels``, the
    oracle for ``split``."""
    n = graph.num_nodes
    graphcore._mask_sizes(n, spec.ratios)
    n_train = int(spec.ratios[0] * n)
    comms = {}
    for v, lab in enumerate(labels):
        comms.setdefault(int(lab), []).append(v)
    ordered = sorted(comms.values(), key=lambda nodes: (-len(nodes), nodes[0]))
    train_nodes, i = [], 0
    while len(train_nodes) < n_train and i < len(ordered):
        train_nodes.extend(ordered[i])
        i += 1
    rest = [v for group in ordered[i:] for v in group]
    if not train_nodes or len(rest) < 2:
        raise ParameterError("community split leaves an empty mask")
    val_share = spec.ratios[1] / (spec.ratios[1] + spec.ratios[2])
    n_val = min(max(int(round(len(rest) * val_share)), 1), len(rest) - 1)
    masks = np.zeros((3, n), dtype=bool)
    masks[0, train_nodes] = True
    masks[1, rest[:n_val]] = True
    masks[2, rest[n_val:]] = True
    return tuple(masks)


def _assert_community_matches_reference(g):
    labels = _reference_labels(g)
    assert np.array_equal(graphcore._propagate_labels(g), labels)
    for ratios in (DEFAULT_RATIOS, (0.3, 0.4, 0.3), (0.8, 0.1, 0.1)):
        spec = SplitSpec(kind="community", ratios=ratios, seed=0)
        try:
            want = _reference_community_split(g, spec, labels)
        except ParameterError:
            with pytest.raises(ParameterError):
                split(g, spec)
            continue
        got = split(g, spec)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 40),
       edges=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)),
                      max_size=80))
def test_community_split_matches_reference_on_random_graphs(n, edges):
    # endpoints folded into range; self loops and repeats are kept, so
    # isolated nodes and tied neighbour labels are common
    _assert_community_matches_reference(
        q.from_edges(n, [(u % n, v % n) for u, v in edges]))


@pytest.mark.parametrize("make", [
    lambda: q.from_edges(12, []),               # no edges at all
    lambda: q.from_edges(9, [(0, 1), (2, 3)]),  # mostly isolated
    lambda: q.gen_grid(1, 1), lambda: q.gen_grid(1, 9),
    lambda: q.gen_grid(10, 10), lambda: q.gen_grid(9, 13),
    lambda: q.gen_chain(2), lambda: q.gen_chain(25),
    lambda: q.gen_tree(2, 5), lambda: q.gen_tree(3, 3),
    lambda: q.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # tied cycle
    lambda: q.gen_ba(60, 2, seed=1), lambda: q.gen_er(50, 0.05, seed=2),
    # K(2, 300): in round 2 each hub sees 300 neighbours of one label
    lambda: q.from_edges(302, [(h, v) for h in (0, 1) for v in range(2, 302)]),
    lambda: q.gen_grid(40, 41),  # every node changes in all 20 rounds
    lambda: q.gen_ba(400, 3, seed=5),
])
def test_community_split_matches_reference_on_presets(make):
    _assert_community_matches_reference(make())


def test_graph_arrays_are_never_rewritten():
    g = q.gen_grid(20, 20)
    for arr in (g.row_offsets, g.col_indices):
        arr.flags.writeable = False
    before = g.row_offsets.tobytes(), g.col_indices.tobytes()
    split(g, SplitSpec(kind="community", ratios=DEFAULT_RATIOS, seed=0))
    mean_adjacency(g)
    g.validate()
    assert (g.row_offsets.tobytes(), g.col_indices.tobytes()) == before


def test_split_spec_validation():
    with pytest.raises(ParameterError):
        SplitSpec(kind="nope", ratios=DEFAULT_RATIOS, seed=0)
    with pytest.raises(ParameterError):
        SplitSpec(kind="random", ratios=(0.5, 0.4, 0.2), seed=0)


def test_random_split_seed_sensitivity():
    g = q.gen_er(100, 0.1, seed=2)
    tr0, _, _ = split(g, SplitSpec(kind="random", ratios=DEFAULT_RATIOS, seed=0))
    tr0b, _, _ = split(g, SplitSpec(kind="random", ratios=DEFAULT_RATIOS, seed=0))
    tr1, _, _ = split(g, SplitSpec(kind="random", ratios=DEFAULT_RATIOS, seed=1))
    assert np.array_equal(tr0, tr0b)
    assert not np.array_equal(tr0, tr1)


# ---------------------------------------------------------------------------
# Perturbations
# ---------------------------------------------------------------------------

def test_perturb_level_zero_is_identity(small_ds):
    for kind in PERTURB_KINDS:
        out = perturb(small_ds, PerturbSpec(kind=kind, level=0.0, seed=5))
        assert np.array_equal(out.targets, small_ds.targets)
        assert np.array_equal(out.features, small_ds.features)
        assert np.array_equal(out.graph.col_indices, small_ds.graph.col_indices)


def test_perturb_magnitudes(small_ds):
    f = perturb(small_ds, PerturbSpec(kind="feature_noise", level=0.2, seed=5))
    resid = f.features - small_ds.features
    assert 0.1 < resid.std() < 0.3
    assert np.array_equal(f.targets, small_ds.targets)

    t = perturb(small_ds, PerturbSpec(kind="target_noise", level=0.2, seed=5))
    assert np.array_equal(t.features, small_ds.features)
    assert 0.1 < (t.targets - small_ds.targets).std() < 0.3

    e = perturb(small_ds, PerturbSpec(kind="edge_dropout", level=0.3, seed=5))
    kept = e.graph.num_edges / small_ds.graph.num_edges
    assert 0.55 < kept < 0.85
    e.graph.validate()
    # masks never change, so metric populations stay comparable
    assert np.array_equal(e.train_mask, small_ds.train_mask)


def test_perturb_deterministic(small_ds):
    spec = PerturbSpec(kind="edge_dropout", level=0.3, seed=5)
    a = perturb(small_ds, spec)
    b = perturb(small_ds, spec)
    assert np.array_equal(a.graph.col_indices, b.graph.col_indices)


def test_perturb_spec_validation():
    with pytest.raises(ParameterError):
        PerturbSpec(kind="nope", level=0.1, seed=0)
    with pytest.raises(ParameterError):
        PerturbSpec(kind="target_noise", level=-1.0, seed=0)
    with pytest.raises(ParameterError):
        PerturbSpec(kind="edge_dropout", level=1.5, seed=0)
    # NaN fails every comparison; neither it nor infinity is a level
    for kind in ("feature_noise", "target_noise", "edge_dropout"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ParameterError, match="level"):
                PerturbSpec(kind=kind, level=bad, seed=0)
        assert PerturbSpec(kind=kind, level=0.0).level == 0.0


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_round_trip(tmp_path, small_ds):
    paths = [tmp_path / n for n in ("e.csv", "f.csv", "t.csv")]
    q.save_csv(small_ds, *paths)
    back = q.load_csv(*paths, split_spec=SplitSpec(kind="random",
                                                   ratios=DEFAULT_RATIOS,
                                                   seed=0))
    assert np.array_equal(back.graph.col_indices, small_ds.graph.col_indices)
    np.testing.assert_allclose(back.features, small_ds.features)
    np.testing.assert_allclose(back.targets, small_ds.targets)


def test_csv_round_trip_with_header_lines(tmp_path, small_ds):
    paths = [tmp_path / n for n in ("e.csv", "f.csv", "t.csv")]
    q.save_csv(small_ds, *paths)
    for path in paths:
        path.write_text(f"head\n{path.read_text()}")
    back = q.load_csv(*paths, header=True)
    assert np.array_equal(back.graph.row_offsets, small_ds.graph.row_offsets)
    assert np.array_equal(back.graph.col_indices, small_ds.graph.col_indices)
    assert back.features.tobytes() == small_ds.features.tobytes()
    assert back.targets.tobytes() == small_ds.targets.tobytes()


# (file, its text, header, the error it must raise); every other file is
# the valid two-node default below.
_GARBAGE = [
    ("e", "0,notanint\n", False, r"e\.csv:1: bad node index"),
    ("e", "0,9\n", False, r"e\.csv:1: node index 9 out of range for 2 nodes"),
    ("e", "0,1,1\n", False, r"e\.csv:1: expected 'src,dst'"),
    ("f", "1.0,2.0\n0.5\n", False, r"f\.csv:2: expected 2 columns, got 1"),
    ("t", "1.0\n", False, r"f\.csv: 2 feature rows for 1 targets"),
    ("t", "1.0\nabc\n", False, r"t\.csv:2: bad float 'abc'"),
    ("t", "1.0\n2.0,3.0\n", False, r"t\.csv:2: expected a single target"),
    ("t", "", False, r"t\.csv: no target rows"),
    # line numbers count the skipped header line
    ("t", "y\n1.0\nabc\n", True, r"t\.csv:3: bad float 'abc'"),
    ("t", None, False, r"t\.csv: \[Errno 2\]"),
]


def test_load_csv_rejects_garbage(tmp_path):
    """Each malformed input raises an error citing its file and line."""
    for name, text, header, match in _GARBAGE:
        files = {"e": "0,1\n", "f": "1.0,2.0\n0.5,0.5\n", "t": "1.0\n2.0\n"}
        if header:
            files = {k: f"head\n{v}" for k, v in files.items()}
        files[name] = text
        paths = [tmp_path / f"{k}.csv" for k in "eft"]
        for path, k in zip(paths, "eft"):
            path.unlink(missing_ok=True)
            if files[k] is not None:
                path.write_text(files[k])
        with pytest.raises(IngestionError, match=match):
            q.load_csv(*paths, header=header)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_csv_rejects_non_finite(tmp_path, bad):
    e, f, t = tmp_path / "e.csv", tmp_path / "f.csv", tmp_path / "t.csv"
    e.write_text("0,1\n")
    f.write_text("1.0,2.0\n0.5,0.5\n")
    t.write_text(f"1.0\n{bad}\n")
    with pytest.raises(IngestionError,
                       match=rf"t\.csv:2: non-finite value '{bad}'"):
        q.load_csv(e, f, t)
    t.write_text("1.0\n2.0\n")
    f.write_text(f"1.0,2.0\n0.5,{bad}\n")
    with pytest.raises(IngestionError, match=r"f\.csv:2: non-finite"):
        q.load_csv(e, f, t)
