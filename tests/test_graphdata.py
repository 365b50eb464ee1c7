"""Graph construction, file ingestion, normalized adjacency, spmm, the
homophily statistics, and the block-model generator."""

import math
import os
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import signa.diffcore as dc
import signa.diffcore.ops as ops
import signa.graphdata as graphdata
from signa.diffcore import Parameter, RngStream, Tensor, backward
from signa.errors import AnalysisError, IngestionError, ShapeError
from signa.graphdata import (
    COUNT_HIST_CAP,
    RATIO_HIST_BINS,
    Graph,
    load_graph,
    local_homophily,
    normalized_adjacency,
    sbm_generate,
    spmm,
)

from conftest import random_labeled_graph, split_generator
import tape_ops as kit
from oracles import (
    csr_oracle,
    global_homophily_oracle,
    local_homophily_oracle,
    sbm_generate_oracle,
)


# ---------------------------------------------------------------------------
# construction and validation


def test_path_graph_structure(path4_graph):
    g = path4_graph
    assert g.num_nodes == 4
    assert g.num_edges == 3
    np.testing.assert_array_equal(g.degrees, [1, 2, 2, 1])
    np.testing.assert_array_equal(kit.neighbors(g, 1), [0, 2])


def test_from_edges_drops_loops_and_duplicates():
    edges = np.array([[0, 1], [1, 0], [1, 1]])
    with pytest.warns(UserWarning, match="1 self-loop.*1 duplicate"):
        g = Graph(edges, np.zeros((2, 1)))
    assert g.num_edges == 1
    np.testing.assert_array_equal(kit.neighbors(g, 0), [1])
    np.testing.assert_array_equal(kit.neighbors(g, 1), [0])


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ShapeError):
        Graph(np.array([[0, 5]]), np.zeros((3, 1)))


def test_csr_matches_edge_set_oracle():
    rng = np.random.default_rng(11)
    dropped = set()
    for _ in range(400):
        n = int(rng.integers(1, 13))
        edges = rng.integers(0, n, size=(int(rng.integers(0, 3 * n)), 2))
        edges = np.concatenate([edges, edges[rng.random(len(edges)) < 0.3, ::-1]])  # reversed pairs
        offsets, sources, targets, loops, dupes = csr_oracle(edges, n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            g = Graph(edges, np.zeros((n, 1)))
        want = [f"dropped {loops} self-loop(s) and {dupes} duplicate edge(s)"] if loops or dupes else []
        assert [str(w.message) for w in caught] == want
        dropped.add((loops > 0, dupes > 0))

        src, dst = g.csr_sources, g.csr_targets
        assert not np.any(src == dst)
        same_row = src[1:] == src[:-1]
        assert np.all(np.diff(dst)[same_row] > 0)  # rows strictly increasing
        assert set(zip(src.tolist(), dst.tolist())) == set(zip(dst.tolist(), src.tolist()))
        for got, want in ((g.csr_offsets, offsets), (src, sources), (dst, targets)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, np.asarray(want, dtype=np.int64))
        assert g.num_nodes == n and g.num_edges == len(targets) // 2
    assert dropped == {(False, False), (False, True), (True, False), (True, True)}


def _csr_by_unique(edges: np.ndarray, n: int) -> tuple:
    """(offsets, sources, targets) as Graph built them with np.unique's keys."""
    lo, hi = edges.min(axis=1), edges.max(axis=1)
    keys = np.unique(lo[lo != hi] * n + hi[lo != hi])
    lo, hi = np.divmod(keys, n)
    sources, targets = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
    return np.searchsorted(sources, np.arange(n + 1)), sources, targets


@pytest.mark.parametrize("case", ["empty", "only_loops", "one_edge_repeated", "messy_small", "messy_large"])
def test_csr_keys_equal_those_of_np_unique(case):
    # the sorted keys with each run of equal keys cut to one are np.unique's:
    # the CSR arrays are the same, byte for byte, on self-loops, duplicates,
    # reversed pairs and an empty list
    rng = np.random.default_rng(41)
    n = {"empty": 5, "only_loops": 4, "one_edge_repeated": 3, "messy_small": 9, "messy_large": 3000}[case]
    if case == "empty":
        edges = np.zeros((0, 2), dtype=np.int64)
    elif case == "only_loops":
        edges = np.repeat(np.arange(n), 2)[:, None].repeat(2, axis=1)
    elif case == "one_edge_repeated":
        edges = np.array([[0, 2], [2, 0], [0, 2], [2, 0], [1, 1]])
    else:
        edges = rng.integers(0, n, size=(7 * n, 2))
        edges = np.concatenate([edges, edges[rng.random(len(edges)) < 0.4, ::-1], edges[: n // 2]])
        edges = np.concatenate([edges, np.repeat(rng.integers(0, n, size=(n // 3, 1)), 2, axis=1)])  # self-loops
        edges = edges[rng.permutation(len(edges))]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = Graph(edges, np.zeros((n, 1)))
    for got, want in zip((g.csr_offsets, g.csr_sources, g.csr_targets), _csr_by_unique(np.asarray(edges), n)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_graph_rejects_bad_labels():
    with pytest.raises(ShapeError):
        Graph(np.array([[0, 1]]), np.zeros((2, 1)), labels=[0])
    with pytest.raises(ShapeError, match="non-negative"):
        Graph(np.array([[0, 1]]), np.zeros((2, 1)), labels=[0, -1])


def test_graph_rejects_features_that_are_not_a_matrix():
    with pytest.raises(ShapeError, match=r"features must be \(num_nodes, F\)"):
        Graph([], np.zeros(3))


def test_empty_graph_allowed():
    g = Graph(np.zeros((0, 2)), np.zeros((3, 2)))
    assert g.num_edges == 0
    np.testing.assert_array_equal(g.degrees, [0, 0, 0])


# ---------------------------------------------------------------------------
# file ingestion


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_graph_happy_path(tmp_path):
    feats = _write(tmp_path, "f.csv", "1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    edges = _write(tmp_path, "e.txt", "# a comment\n0 1\n\n1 2\n")
    labels = _write(tmp_path, "l.txt", "0\n1\n1\n")
    g = load_graph(edges, feats, labels)
    assert g.num_nodes == 3
    assert g.num_edges == 2
    np.testing.assert_array_equal(g.features, [[1, 2], [3, 4], [5, 6]])
    np.testing.assert_array_equal(g.labels, [0, 1, 1])


def test_load_graph_rejects_a_feature_header(tmp_path):
    feats = _write(tmp_path, "f.csv", "x,y\n1.0,2.0\n3.0,4.0\n")
    edges = _write(tmp_path, "e.txt", "0 1\n")
    with pytest.raises(IngestionError, match=r"f\.csv:1: non-numeric"):
        load_graph(edges, feats)


@pytest.mark.parametrize("which", ["features", "edges", "labels"])
def test_a_byte_order_mark_is_accepted(which, tmp_path):
    # as spreadsheet "CSV UTF-8" exports write it
    texts = {"features": "1.0,2.0\n3.0,4.0\n5.0,6.0\n", "edges": "# a comment\n0 1\n\n1 2\n", "labels": "0\n1\n1\n"}
    plain = {k: _write(tmp_path, f"plain_{k}", text) for k, text in texts.items()}
    marked = dict(plain, **{which: _write(tmp_path, f"bom_{which}", "\ufeff" + texts[which])})
    want = load_graph(plain["edges"], plain["features"], plain["labels"])
    got = load_graph(marked["edges"], marked["features"], marked["labels"])
    np.testing.assert_array_equal(got.features.view(np.uint64), want.features.view(np.uint64))
    np.testing.assert_array_equal(got.csr_offsets, want.csr_offsets)
    np.testing.assert_array_equal(got.csr_targets, want.csr_targets)
    np.testing.assert_array_equal(got.labels, want.labels)


def test_ingestion_errors_carry_line_numbers(tmp_path):
    feats = _write(tmp_path, "f.csv", "1.0,2.0\n3.0\n")
    edges = _write(tmp_path, "e.txt", "0 1\n")
    with pytest.raises(IngestionError, match=r"f\.csv:2: ragged"):
        load_graph(edges, feats)

    feats = _write(tmp_path, "f2.csv", "1.0\n2.0\n")
    bad_edges = _write(tmp_path, "e2.txt", "0 1\n0 7\n")
    with pytest.raises(IngestionError, match=r"e2\.txt:2: node id out of range"):
        load_graph(bad_edges, feats)

    bad_edges = _write(tmp_path, "e3.txt", "0 1 2\n")
    with pytest.raises(IngestionError, match=r"e3\.txt:1: expected two node ids"):
        load_graph(bad_edges, feats)

    bad_edges = _write(tmp_path, "e4.txt", "zero one\n")
    with pytest.raises(IngestionError, match=r"e4\.txt:1: .*base-10"):
        load_graph(bad_edges, feats)

    good_edges = _write(tmp_path, "e5.txt", "0 1\n")
    bad_labels = _write(tmp_path, "l.txt", "0\nx\n")
    with pytest.raises(IngestionError, match=r"l\.txt:2: labels must be integers"):
        load_graph(good_edges, feats, bad_labels)

    short_labels = _write(tmp_path, "l2.txt", "0\n")
    with pytest.raises(IngestionError, match="1 labels for 2 nodes"):
        load_graph(good_edges, feats, short_labels)


def test_empty_feature_file_rejected(tmp_path):
    feats = _write(tmp_path, "f.csv", "\n\n")
    edges = _write(tmp_path, "e.txt", "")
    with pytest.raises(IngestionError, match="no data rows"):
        load_graph(edges, feats)


def test_edgeless_file_gives_edgeless_graph(tmp_path):
    feats = _write(tmp_path, "f.csv", "1.0\n2.0\n3.0\n")
    edges = _write(tmp_path, "e.txt", "# nothing\n")
    g = load_graph(edges, feats)
    assert g.num_edges == 0
    assert g.num_nodes == 3


def _edge_text(rng, num_edges, num_nodes):
    """An edge list as `np.savetxt` writes it, with random blank lines,
    spaces, tabs and leading zeros mixed in, and maybe no final newline."""
    ids = rng.integers(0, num_nodes, size=(num_edges, 2))
    gaps = [" ", "\t", "  ", " \t "]
    lines = []
    for u, v in ids:
        width = int(rng.integers(0, 3)) if rng.random() < 0.2 else 0
        lead = gaps[rng.integers(4)] if rng.random() < 0.1 else ""
        trail = gaps[rng.integers(4)] if rng.random() < 0.1 else ""
        lines.append(f"{lead}{u:0{width}d}{gaps[rng.integers(4)] if rng.random() < 0.3 else ' '}{v}{trail}")
        if rng.random() < 0.05:
            lines.append(gaps[rng.integers(4)] if rng.random() < 0.5 else "")
    return "\n".join(lines) + ("\n" if rng.random() < 0.8 else "")


@pytest.mark.parametrize("seed", range(6))
def test_the_vectorized_edge_reader_equals_the_line_loop(seed, tmp_path):
    rng = np.random.default_rng(seed)
    num_nodes = [2, 10, 4000, 10**6, 10**17, 10**18][seed]
    path = _write(tmp_path, "e.txt", _edge_text(rng, 300, num_nodes))
    fast = graphdata._parse_edges(path, num_nodes)
    assert fast is not None, "the vectorized reader declined a file it should take"
    loop = graphdata._read_edges_lines(path, num_nodes)
    assert fast.dtype == loop.dtype == np.int64 and fast.shape == loop.shape
    np.testing.assert_array_equal(fast, loop)


@pytest.mark.parametrize(
    "text",
    [
        "# a comment\n0 1\n",  # a comment
        "\ufeff0 1\n",  # a byte-order mark
        "0 +1\n",  # a sign
        "0 1_0\n",  # an underscore
        "0 \u0661\n",  # a non-ASCII digit
        "0 1\r\n1 2\r\n",  # CRLF line ends
        "0 1\x0c\n",  # a form feed
        "0 1\n0000000000000000000012 2\n",  # 22 digits
    ],
)
def test_edge_files_the_vectorized_reader_declines_are_read_by_the_loop(text, tmp_path):
    path = _write(tmp_path, "e.txt", text)
    assert graphdata._parse_edges(path, 20) is None
    np.testing.assert_array_equal(graphdata._read_edges(path, 20), graphdata._read_edges_lines(path, 20))


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n0 1 2\n", r"e\.txt:2: expected two node ids, got 3 tokens"),
        ("0 1\n\n2\n", r"e\.txt:3: expected two node ids, got 1 tokens"),
        ("0 1\n1 3\n", r"e\.txt:2: node id out of range: 3 >= 3 feature rows"),
        ("0 1\n-1 2\n", r"e\.txt:2: node ids must be non-negative"),
        ("0 99999999999999999999\n", r"e\.txt:1: node id out of range"),
    ],
)
def test_edge_errors_keep_their_line_numbers(text, message, tmp_path):
    path = _write(tmp_path, "e.txt", text)
    assert graphdata._parse_edges(path, 3) is None
    with pytest.raises(IngestionError, match=message):
        graphdata._read_edges(path, 3)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_an_edge_list_from_a_pipe_is_read_once_by_the_loop(tmp_path):
    # the loop opens a file the vectorized path declines (here for its
    # comment) again, so that path must leave a pipe unread; a reader stuck
    # on the reopen gets EOF after 10 s
    fifo = str(tmp_path / "e.txt")
    os.mkfifo(fifo)

    def write():
        with open(fifo, "w") as fh:
            fh.write("# two edges\n0 1\n1 2\n")

    feats = _write(tmp_path, "f.csv", "1\n2\n3\n")
    graphs = []
    threads = [threading.Thread(target=f, daemon=True) for f in (write, lambda: graphs.append(load_graph(fifo, feats)))]
    for t in threads:
        t.start()
    threads[1].join(timeout=10)
    if threads[1].is_alive():
        os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert graphs and graphs[0].num_edges == 2


def test_a_benchmark_sized_edge_list_skips_the_line_loop(tmp_path, monkeypatch):
    g = sbm_generate([1000] * 4, 0.005, 0.0005, np.zeros((4, 2)), 1.0, np.random.default_rng(0))
    src = np.repeat(np.arange(g.num_nodes), g.degrees)
    path = str(tmp_path / "e.txt")
    np.savetxt(path, np.stack([src, g.csr_targets], axis=1), fmt="%d")
    expected = graphdata._read_edges_lines(path, g.num_nodes)
    monkeypatch.setattr(graphdata, "_read_edges_lines", lambda *args: pytest.fail("the line loop ran"))
    np.testing.assert_array_equal(graphdata._read_edges(path, g.num_nodes), expected)


# ---------------------------------------------------------------------------
# normalized adjacency and spmm


def test_normalized_adjacency_two_nodes(two_node_graph):
    adj = normalized_adjacency(two_node_graph)
    dense = adj.toarray()
    np.testing.assert_allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)


def test_normalized_adjacency_path3():
    g = Graph(np.array([[0, 1], [1, 2]]), np.zeros((3, 1)))
    dense = normalized_adjacency(g).toarray()
    np.testing.assert_allclose(dense[0, 1], 1.0 / np.sqrt(6.0), atol=1e-15)
    np.testing.assert_allclose(dense[0, 0], 0.5, atol=1e-15)
    np.testing.assert_allclose(dense[1, 1], 1.0 / 3.0, atol=1e-15)
    np.testing.assert_allclose(dense, dense.T, atol=1e-15)


def test_normalized_adjacency_matches_dense_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_labeled_graph(rng, max_nodes=64)
        n = g.num_nodes
        a = np.zeros((n, n))
        for u in range(n):
            a[u, kit.neighbors(g, u)] = 1.0
        ahat_oracle = a + np.eye(n)
        dhat = ahat_oracle.sum(axis=1)
        ahat_oracle /= np.sqrt(np.outer(dhat, dhat))
        dense = normalized_adjacency(g).toarray()
        np.testing.assert_allclose(dense, ahat_oracle, atol=1e-12)


def test_spmm_two_node_fixture(two_node_graph):
    adj = normalized_adjacency(two_node_graph)
    out = spmm(adj, Tensor([[2.0], [4.0]]))
    np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-15)


def test_spmm_matches_dense_product():
    rng = np.random.default_rng(1)
    for _ in range(10):
        g = random_labeled_graph(rng, max_nodes=40)
        adj = normalized_adjacency(g)
        x = rng.standard_normal((g.num_nodes, 5))
        np.testing.assert_allclose(
            spmm(adj, Tensor(x)).data, adj.toarray() @ x, atol=1e-12
        )


def test_spmm_backward_is_transpose_product():
    g = Graph(np.array([[0, 1], [1, 2]]), np.zeros((3, 1)))
    adj = normalized_adjacency(g)
    x = Parameter(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]), name="x")
    w = np.array([[1.0, -1.0], [0.5, 2.0], [0.0, 1.0]])
    backward(kit.tsum(kit.hadamard(spmm(adj, x), Tensor(w))))
    np.testing.assert_allclose(x.grad, adj.toarray().T @ w, atol=1e-12)


def test_spmm_gradcheck():
    g = Graph(np.array([[0, 1], [1, 2], [0, 2]]), np.zeros((3, 1)))
    adj = normalized_adjacency(g)
    rng = np.random.default_rng(2)
    x = Parameter(rng.standard_normal((3, 4)), name="x")
    w = rng.uniform(0.5, 1.5, size=(3, 4))
    report = kit.gradcheck(lambda: kit.tsum(kit.hadamard(spmm(adj, x), Tensor(w))), [x])
    assert report.passed, report.max_rel_err


# ---------------------------------------------------------------------------
# homophily


def test_path_fixture_homophily(path4_graph):
    rep = local_homophily(path4_graph)
    assert rep.global_ratio == pytest.approx(2.0 / 3.0, abs=1e-15)
    np.testing.assert_array_equal(rep.local_counts, [1, 1, 1, 1])
    np.testing.assert_allclose(rep.local_ratios, [1.0, 0.5, 0.5, 1.0], atol=1e-15)
    assert rep.num_isolated == 0


def test_homophily_requires_labels(two_node_graph):
    with pytest.raises(AnalysisError):
        local_homophily(two_node_graph)


def test_global_homophily_undefined_without_edges():
    g = Graph(np.zeros((0, 2)), np.zeros((3, 1)), labels=[0, 1, 0])
    rep = local_homophily(g)
    assert np.isnan(rep.global_ratio)
    assert rep.num_isolated == 3


def test_homophily_matches_oracles_on_random_graphs():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = random_labeled_graph(rng, max_nodes=50)
        rep = local_homophily(g)
        assert rep.global_ratio == global_homophily_oracle(g)
        counts, ratios = local_homophily_oracle(g)
        np.testing.assert_array_equal(rep.local_counts, counts)
        np.testing.assert_array_equal(
            np.nan_to_num(rep.local_ratios, nan=-1.0), np.nan_to_num(ratios, nan=-1.0)
        )


def test_local_counts_sum_identity():
    # directed same-label pair count equals 2 * |E| * global ratio
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = random_labeled_graph(rng, max_nodes=40)
        rep = local_homophily(g)
        total = rep.local_counts.sum()
        assert total == pytest.approx(2 * g.num_edges * rep.global_ratio, abs=1e-9)


def test_isolated_nodes_excluded_from_histograms():
    # node 3 is isolated: NaN ratio, in neither histogram
    g = Graph(np.array([[0, 1], [1, 2]]), np.zeros((4, 1)), labels=[0, 0, 1, 1])
    rep = local_homophily(g)
    assert np.isnan(rep.local_ratios[3])
    assert rep.num_isolated == 1
    assert rep.count_hist.sum() == 3
    assert rep.ratio_hist.sum() == 3
    assert rep.count_hist.shape == (COUNT_HIST_CAP + 2,)
    assert rep.ratio_hist.shape == (RATIO_HIST_BINS,)


def test_ratio_one_lands_in_last_bin():
    g = Graph(np.array([[0, 1]]), np.zeros((2, 1)), labels=[1, 1])
    rep = local_homophily(g)
    assert rep.ratio_hist[-1] == 2
    assert rep.ratio_hist[:-1].sum() == 0


def test_count_hist_overflow_bin():
    # a star center with 60 same-label neighbors exceeds the 0..50 bins
    n = 61
    edges = np.stack([np.zeros(60, dtype=int), np.arange(1, 61)], axis=1)
    g = Graph(edges, np.zeros((n, 1)), labels=np.zeros(n, dtype=int))
    rep = local_homophily(g)
    assert rep.count_hist[-1] == 1  # the center
    assert rep.count_hist[1] == 60  # each leaf has one same-label neighbor


def test_report_json_replaces_nan_with_none():
    g = Graph(np.array([[0, 1]]), np.zeros((3, 1)), labels=[0, 0, 1])
    doc = local_homophily(g).to_json_dict()
    assert doc["local_ratios"][2] is None
    assert doc["local_ratios"][0] == 1.0
    assert len(doc["count_hist"]) == COUNT_HIST_CAP + 2
    assert len(doc["ratio_hist_edges"]) == RATIO_HIST_BINS + 1


# ---------------------------------------------------------------------------
# stochastic block model


def test_sbm_shapes_and_labels():
    rng = split_generator(0)
    means = np.array([[0.0, 0.0], [1.0, 1.0]])
    g = sbm_generate([30, 20], 0.3, 0.05, means, 0.5, rng)
    assert g.num_nodes == 50
    np.testing.assert_array_equal(g.labels, [0] * 30 + [1] * 20)
    assert g.num_classes == 2
    assert g.features.shape == (50, 2)


def test_sbm_feature_means():
    rng = split_generator(1)
    means = np.array([[0.0], [10.0]])
    g = sbm_generate([500, 500], 0.01, 0.01, means, 1.0, rng)
    assert abs(g.features[:500].mean() - 0.0) < 0.2
    assert abs(g.features[500:].mean() - 10.0) < 0.2


def test_sbm_extreme_probabilities_give_cliques():
    rng = split_generator(2)
    g = sbm_generate([4, 3], 1.0, 0.0, np.zeros((2, 1)), 1.0, rng)
    # two disjoint cliques: C(4,2) + C(3,2) edges, no cross edges
    assert g.num_edges == 6 + 3
    assert local_homophily(g).global_ratio == 1.0


def test_sbm_edge_count_near_expectation():
    rng = split_generator(3)
    g = sbm_generate([100, 100], 0.1, 0.01, np.zeros((2, 1)), 1.0, rng)
    expected = 2 * (100 * 99 / 2) * 0.1 + 100 * 100 * 0.01
    assert abs(g.num_edges - expected) / expected < 0.15


def test_sbm_is_deterministic_per_seed():
    means = np.zeros((2, 2))
    a = sbm_generate([10, 10], 0.3, 0.1, means, 1.0, split_generator(7))
    b = sbm_generate([10, 10], 0.3, 0.1, means, 1.0, split_generator(7))
    np.testing.assert_array_equal(a.csr_targets, b.csr_targets)
    np.testing.assert_array_equal(a.features, b.features)


@pytest.mark.parametrize("block_entries", [5, 1 << 18])
def test_sbm_matches_oracle(block_entries, monkeypatch):
    monkeypatch.setattr(ops, "_BLOCK_ENTRIES", block_entries)
    cases = [[1], [2], [1, 1], [3, 4], [20, 7, 13], [300, 400], [500, 650]]
    for sizes in cases:
        for seed in range(3):
            means = np.random.default_rng(seed).normal(size=(len(sizes), 3))
            for make in (np.random.default_rng, split_generator):
                rng, rng_oracle = make(seed), make(seed)
                g = sbm_generate(sizes, 0.3, 0.02, means, 0.5, rng)
                want = sbm_generate_oracle(sizes, 0.3, 0.02, means, 0.5, rng_oracle)
                np.testing.assert_array_equal(g.csr_offsets, want.csr_offsets)
                np.testing.assert_array_equal(g.csr_targets, want.csr_targets)
                np.testing.assert_array_equal(g.labels, want.labels)
                assert g.features.tobytes() == want.features.tobytes()
                # both generators are left in the same state
                assert rng.bit_generator.state == rng_oracle.bit_generator.state


def test_sbm_memory_is_not_quadratic():
    # the all-pairs draw peaked at ~140 MB here; row blocks need ~10 MB
    tracemalloc.start()
    try:
        g = sbm_generate([600] * 5, 7 / 599, 3 / 2400, np.zeros((5, 4)), 1.0, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.num_nodes == 3000 and g.num_edges > 0
    assert peak < 40 * 2**20


def test_normalized_adjacency_is_built_in_the_active_precision():
    g = random_labeled_graph(np.random.default_rng(4), max_nodes=30)
    ref = normalized_adjacency(g)
    assert ref.dtype == np.float64
    dc.set_precision("f32")
    adj = normalized_adjacency(g)
    assert adj.dtype == np.float32
    np.testing.assert_array_equal(adj.indptr, ref.indptr)
    np.testing.assert_array_equal(adj.indices, ref.indices)
    assert np.array_equal(adj.data, ref.data.astype(np.float32))  # f64 values, rounded once
    assert (adj @ np.ones((g.num_nodes, 2), dtype=np.float32)).dtype == np.float32  # spmm's product


@pytest.mark.parametrize("block_entries", [5, ops._BLOCK_ENTRIES])
@pytest.mark.parametrize("shape", [(37, 11), (1, 7), (40,), (0, 3), (4, 3, 5)])
def test_keep_mask_equals_one_draw(shape, block_entries, monkeypatch):
    # blocked draws take the same doubles from the stream as one draw, and
    # leave it in the same state
    monkeypatch.setattr(ops, "_BLOCK_ENTRIES", block_entries)
    blocked, whole = RngStream(9, "dropout"), RngStream(9, "dropout")
    keep = ops.keep_mask(blocked, shape, 0.3)
    width = math.prod(shape[1:])
    assert keep.dtype == np.uint8 and keep.shape == (shape[0], -(-width // 8))
    unpacked = np.unpackbits(keep, axis=1, count=width).astype(bool).reshape(shape)
    np.testing.assert_array_equal(unpacked, whole.uniform(size=shape) >= 0.3)
    assert blocked._gen.bit_generator.state == whole._gen.bit_generator.state


def test_keep_mask_draws_one_block_at_a_time():
    # the mask as bits (0.125 MB), one block of f64 uniforms (1 MB) and the
    # block's booleans (0.125 MB); one draw of the whole shape would take
    # 8 MB, and the boolean mask 1 MB
    shape = (2000, 512)
    tracemalloc.start()
    try:
        keep = ops.keep_mask(RngStream(0, "dropout"), shape, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= keep.nbytes + ops._BLOCK_ENTRIES * (8 + 1) + 64 * 1024


def test_graph_features_are_in_the_active_precision():
    feats = np.random.default_rng(2).normal(size=(3, 2))
    edges = np.array([[0, 1]])
    assert Graph(edges, feats).features is feats  # f64: not copied
    dc.set_precision("f32")
    held = Graph(edges, feats).features
    assert held.dtype == np.float32
    assert held.tobytes() == feats.astype(np.float32).tobytes()
