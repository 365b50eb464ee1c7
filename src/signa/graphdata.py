"""Graph construction, file ingestion, normalized adjacency, and homophily analytics.

Graphs are undirected and unweighted, stored in CSR form (symmetric, no
self-loops, no duplicates).  Node count is fixed by the feature matrix;
edge endpoints must index into it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .diffcore import Tensor, accumulate_grad, active_dtype, check_finite, record_backward
from .errors import AnalysisError, ConfigError, IngestionError, ShapeError

if TYPE_CHECKING:  # scipy is imported only where a sparse matrix is built
    import scipy.sparse as sp


class Graph:
    """Immutable undirected graph with node features and optional labels.

    `csr_targets[csr_offsets[u]:csr_offsets[u+1]]` lists the neighbors of u
    in increasing order.  `features` is a float matrix with one row per node;
    `labels`, when given, are class indices in [0, num_classes).
    """

    def __init__(self, num_nodes, csr_offsets, csr_targets, features, labels=None, num_classes=None):
        self.num_nodes = int(num_nodes)
        self.csr_offsets = np.asarray(csr_offsets, dtype=np.int64)
        self.csr_targets = np.asarray(csr_targets, dtype=np.int64)
        self.features = np.asarray(features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.num_nodes:
            raise ShapeError(
                f"features must be (num_nodes, F), got {self.features.shape} for {self.num_nodes} nodes"
            )
        if self.csr_offsets.shape != (self.num_nodes + 1,):
            raise ShapeError("csr_offsets must have length num_nodes + 1")
        if self.csr_offsets[0] != 0 or self.csr_offsets[-1] != self.csr_targets.size:
            raise ShapeError("csr_offsets do not span csr_targets")
        if np.any(np.diff(self.csr_offsets) < 0):
            raise ShapeError("csr_offsets must be non-decreasing")
        if self.csr_targets.size and (
            self.csr_targets.min() < 0 or self.csr_targets.max() >= self.num_nodes
        ):
            raise ShapeError("csr_targets contain out-of-range node ids")

        if labels is None:
            self.labels = None
            self.num_classes = None
        else:
            self.labels = np.asarray(labels, dtype=np.int64)
            if self.labels.shape != (self.num_nodes,):
                raise ShapeError(f"labels must have length {self.num_nodes}, got {self.labels.shape}")
            inferred = int(self.labels.max()) + 1 if self.num_nodes else 0
            self.num_classes = int(num_classes) if num_classes is not None else inferred
            if self.num_nodes and (self.labels.min() < 0 or inferred > self.num_classes):
                raise ShapeError(f"labels must lie in [0, {self.num_classes})")

        self._validate_adjacency()

    def _validate_adjacency(self) -> None:
        n = self.num_nodes
        src = np.repeat(np.arange(n), self.degrees)
        dst = self.csr_targets
        if np.any(src == dst):
            raise ShapeError("adjacency contains self-loops")
        unsorted = (np.diff(dst) <= 0) & (src[1:] == src[:-1])
        if np.any(unsorted):
            raise ShapeError(f"row {int(src[np.argmax(unsorted)])} is not strictly sorted (duplicates?)")
        # rows are strictly sorted, so src*n+dst is sorted and duplicate-free;
        # the graph is symmetric iff the reversed keys are the same set
        if not np.array_equal(src * n + dst, np.sort(dst * n + src)):
            raise ShapeError("adjacency is not symmetric")

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.csr_offsets)

    @property
    def num_edges(self) -> int:
        """Undirected edge count."""
        return self.csr_targets.size // 2

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    def neighbors(self, u: int) -> np.ndarray:
        return self.csr_targets[self.csr_offsets[u] : self.csr_offsets[u + 1]]


def from_edges(edges, num_nodes, features, labels=None, num_classes=None) -> Graph:
    """Build a Graph from an (m, 2) array of possibly messy directed edges.

    Self-loops are dropped and duplicate/reverse duplicates collapse into one
    undirected edge; a warning reports how many of each were discarded.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ShapeError(f"edge endpoints must lie in [0, {num_nodes})")
    loops = edges[:, 0] == edges[:, 1]
    num_loops = int(loops.sum())
    edges = edges[~loops]
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    undirected = np.unique(np.stack([lo, hi], axis=1), axis=0) if edges.size else edges.reshape(0, 2)
    num_dupes = edges.shape[0] - undirected.shape[0]
    if num_loops or num_dupes:
        warnings.warn(f"dropped {num_loops} self-loop(s) and {num_dupes} duplicate edge(s)")

    directed = np.concatenate([undirected, undirected[:, ::-1]], axis=0)
    order = np.lexsort((directed[:, 1], directed[:, 0]))
    directed = directed[order]
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(directed[:, 0], minlength=num_nodes), out=offsets[1:])
    return Graph(num_nodes, offsets, directed[:, 1], features, labels, num_classes)


# ---------------------------------------------------------------------------
# file ingestion


def _read_features(path: str, skip_header: bool) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if skip_header and lineno == 1:
                continue
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                row = [float(tok) for tok in parts]
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: non-numeric feature value ({exc})") from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise IngestionError(
                    f"{path}:{lineno}: ragged feature row: expected {width} columns, got {len(row)}"
                )
            rows.append(row)
    if not rows:
        raise IngestionError(f"{path}: feature file contains no data rows")
    return np.asarray(rows, dtype=np.float64)


def _read_edges(path: str, num_nodes: int) -> np.ndarray:
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise IngestionError(f"{path}:{lineno}: expected two node ids, got {len(parts)} tokens")
            try:
                u, v = int(parts[0], 10), int(parts[1], 10)
            except ValueError:
                raise IngestionError(f"{path}:{lineno}: node ids must be base-10 integers") from None
            if u < 0 or v < 0:
                raise IngestionError(f"{path}:{lineno}: node ids must be non-negative")
            if u >= num_nodes or v >= num_nodes:
                raise IngestionError(
                    f"{path}:{lineno}: node id out of range: {max(u, v)} >= {num_nodes} feature rows"
                )
            pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _read_labels(path: str, num_nodes: int) -> np.ndarray:
    values: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line, 10))
            except ValueError:
                raise IngestionError(f"{path}:{lineno}: labels must be integers, got {line!r}") from None
    if len(values) != num_nodes:
        raise IngestionError(f"{path}: {len(values)} labels for {num_nodes} nodes")
    arr = np.asarray(values, dtype=np.int64)
    if arr.size and arr.min() < 0:
        raise IngestionError(f"{path}: labels must be non-negative")
    return arr


def load_graph(edge_path, feature_path, label_path=None, skip_feature_header=False) -> Graph:
    """Load a graph from an edge list, a feature CSV, and optional labels.

    The feature file fixes the node count; every edge endpoint must be a
    valid row index.  Directed input edges are symmetrized.
    """
    try:
        features = _read_features(feature_path, skip_feature_header)
        num_nodes = features.shape[0]
        edges = _read_edges(edge_path, num_nodes)
        labels = _read_labels(label_path, num_nodes) if label_path is not None else None
    except OSError as exc:
        raise IngestionError(f"cannot read {exc.filename}: {exc.strerror}") from None
    return from_edges(edges, num_nodes, features, labels)


# ---------------------------------------------------------------------------
# normalized adjacency and its differentiable product


def normalized_adjacency(g: Graph) -> sp.csr_matrix:
    """Symmetric CSR matrix Dhat^{-1/2} (A+I) Dhat^{-1/2}, dhat = degree in A+I.

    Row u holds the neighbors of u plus the self-loop, each entry equal to
    1/sqrt(dhat_u * dhat_v), computed in f64 and stored in the active
    precision so that `spmm` runs in it forward and backward.
    """
    import scipy.sparse as sp

    n = g.num_nodes
    dhat = g.degrees + 1
    src = np.repeat(np.arange(n), g.degrees)
    rows = np.concatenate([src, np.arange(n)])
    cols = np.concatenate([g.csr_targets, np.arange(n)])
    vals = (1.0 / np.sqrt(dhat[rows] * dhat[cols])).astype(active_dtype(), copy=False)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sort_indices()
    return mat


def spmm(adj: sp.csr_matrix, x: Tensor) -> Tensor:
    """Differentiable sparse-dense product adj @ x (gradient w.r.t. x only)."""
    n = adj.shape[0]
    if x.data.ndim != 2 or x.data.shape[0] != n:
        raise ShapeError(f"spmm expects ({n}, d) input, got {x.data.shape}")
    out = Tensor(adj @ x.data, _parents=(x,))
    check_finite("spmm", out.data)

    def _bw(g):
        # the adjacency is symmetric, so A^T g == A g
        accumulate_grad(x, adj @ g)

    return record_backward(out, _bw)


# ---------------------------------------------------------------------------
# homophily analytics

COUNT_HIST_CAP = 50  # unit bins 0..50, one overflow bin above
RATIO_HIST_BINS = 20


@dataclass
class HomophilyReport:
    """Global edge homophily plus per-node same-label neighbor statistics.

    `local_ratios[u]` is NaN for isolated nodes; such nodes appear in
    neither histogram.  `global_ratio` is NaN when the graph has no edges.
    """

    global_ratio: float
    local_counts: np.ndarray
    local_ratios: np.ndarray
    count_hist: np.ndarray  # 52 bins: counts 0..50 then >50
    ratio_hist: np.ndarray  # 20 uniform bins on [0, 1]
    num_isolated: int

    def to_json_dict(self) -> dict:
        return {
            "global_ratio": self.global_ratio,
            "num_isolated": self.num_isolated,
            "local_counts": self.local_counts.tolist(),
            "local_ratios": [None if np.isnan(r) else r for r in self.local_ratios],
            "count_hist_bins": [str(i) for i in range(COUNT_HIST_CAP + 1)] + [f">{COUNT_HIST_CAP}"],
            "count_hist": self.count_hist.tolist(),
            "ratio_hist_edges": [i / RATIO_HIST_BINS for i in range(RATIO_HIST_BINS + 1)],
            "ratio_hist": self.ratio_hist.tolist(),
        }


def global_homophily(g: Graph) -> float:
    """Fraction of undirected edges whose endpoints share a label."""
    if g.labels is None:
        raise AnalysisError("global homophily requires labels")
    if g.num_edges == 0:
        raise AnalysisError("global homophily is undefined on an edgeless graph")
    src = np.repeat(np.arange(g.num_nodes), g.degrees)
    same = g.labels[src] == g.labels[g.csr_targets]
    return float(same.sum() / same.size)


def local_homophily(g: Graph) -> HomophilyReport:
    """Per-node same-label neighbor counts and ratios, with histograms."""
    if g.labels is None:
        raise AnalysisError("local homophily requires labels")
    n = g.num_nodes
    deg = g.degrees
    src = np.repeat(np.arange(n), deg)
    same = (g.labels[src] == g.labels[g.csr_targets]).astype(np.int64)
    counts = np.bincount(src, weights=same, minlength=n).astype(np.int64)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(deg > 0, counts / np.maximum(deg, 1), np.nan)

    connected = deg > 0
    capped = np.minimum(counts[connected], COUNT_HIST_CAP + 1)
    count_hist = np.bincount(capped, minlength=COUNT_HIST_CAP + 2)
    ratio_hist, _ = np.histogram(ratios[connected], bins=RATIO_HIST_BINS, range=(0.0, 1.0))
    global_ratio = float(same.sum() / same.size) if g.num_edges else float("nan")
    return HomophilyReport(
        global_ratio=global_ratio,
        local_counts=counts,
        local_ratios=ratios,
        count_hist=count_hist,
        ratio_hist=ratio_hist,
        num_isolated=int((~connected).sum()),
    )


# ---------------------------------------------------------------------------
# synthetic data

_SBM_BLOCK_PAIRS = 1 << 18  # node pairs drawn per block of rows


def sbm_generate(block_sizes, p_in, p_out, feature_means, noise_sigma, rng) -> Graph:
    """Stochastic block model with Gaussian features centered per block.

    Each unordered pair is an edge with probability p_in (same block) or
    p_out (different blocks); labels are block indices.
    """
    if not 0.0 <= p_out <= p_in <= 1.0:
        raise ConfigError(f"need 0 <= p_out <= p_in <= 1, got p_in={p_in}, p_out={p_out}")
    if noise_sigma < 0:
        raise ConfigError(f"noise_sigma must be non-negative, got {noise_sigma}")
    sizes = [int(s) for s in block_sizes]
    if not sizes or any(s <= 0 for s in sizes):
        raise ConfigError(f"block sizes must be positive, got {block_sizes}")
    means = np.asarray(feature_means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] != len(sizes):
        raise ShapeError(
            f"feature_means must be (num_blocks, F), got {means.shape} for {len(sizes)} blocks"
        )

    n = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    # the pairs of np.triu_indices(n, k=1), in that order, one block of rows
    # at a time: the same uniforms as one n^2/2 draw, without O(n^2) arrays
    cols = np.arange(n)
    block_rows = max(1, _SBM_BLOCK_PAIRS // n)
    edges = [np.empty((0, 2), dtype=np.int64)]
    for r0 in range(0, n - 1, block_rows):
        iu, iv = np.nonzero(cols > np.arange(r0, min(r0 + block_rows, n - 1))[:, None])
        iu += r0
        probs = np.where(labels[iu] == labels[iv], p_in, p_out)
        keep = rng.uniform(size=iu.size) < probs
        edges.append(np.stack([iu[keep], iv[keep]], axis=1))
    edges = np.concatenate(edges)
    features = means[labels] + noise_sigma * rng.normal(size=(n, means.shape[1]))
    return from_edges(edges, n, features, labels, num_classes=len(sizes))
