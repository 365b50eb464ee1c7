"""Frozen-encoder evaluation: linear probe, k-means clustering, pairwise
similarity histograms, and the MLP-vs-GConv inference timing harness.

Everything here consumes plain numpy embeddings; nothing feeds back into
training.  The probe is a softmax regression with a closed-form gradient,
stepped by diffcore's Adam so the whole toolkit shares one optimizer
implementation.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from .contrast import NORM_FLOOR, pair_strips, unit_rows
from .encoder import EncoderState, ModelSpec, encode_rows
from .errors import AnalysisError, ConfigError, DegenerateEmbeddingError, ShapeError
from .graphdata import Graph, normalized_adjacency


@dataclass
class Split:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def make_splits(labels, rng: dc.RngStream, num_runs=1) -> list[Split]:
    """Independent random 10/10/80 train/val/test splits over all labeled nodes.

    Sizes are round(n * 0.1) for train and val, remainder test; run r
    draws from `rng.child(r)`, so runs are independent yet reproducible.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    n_train = n_val = int(round(n * 0.1))
    if n_train < 1 or n - n_train - n_val < 1:
        raise AnalysisError(f"{n} labeled nodes are too few for ratios (0.1, 0.1, 0.8)")
    splits = []
    for run in range(num_runs):
        perm = rng.child(run).permutation(n)
        splits.append(
            Split(
                train=np.sort(perm[:n_train]),
                val=np.sort(perm[n_train : n_train + n_val]),
                test=np.sort(perm[n_train + n_val :]),
            )
        )
    return splits


# ---------------------------------------------------------------------------
# linear probe


@dataclass
class ProbeConfig:
    learning_rate: float = 0.01
    num_epochs: int = 300
    weight_decay: float = 1e-4


def micro_f1(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Micro-averaged F1 over classes (equals accuracy for single-label)."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise AnalysisError("micro_f1 needs equal-length non-empty label arrays")
    # one label per node: each miss is a false positive of the predicted class
    # and a false negative of the true one
    tp = int(np.count_nonzero(y_pred == y_true))
    fp = fn = y_true.size - tp
    # single integer division keeps the single-label case bit-identical to accuracy
    return 2 * tp / (2 * tp + fp + fn)


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    return float(np.mean(y_true == y_pred))


def linear_probe(
    embeddings: np.ndarray,
    labels: np.ndarray,
    split: Split,
    config: ProbeConfig,
) -> tuple[float, float]:
    """Softmax regression on frozen embeddings; returns (micro_f1, accuracy)
    on the test set at the epoch with the best validation micro-F1.

    For single-label data the validation micro-F1 is (correct predictions)
    / |val|, so each epoch only counts correct predictions; the first epoch
    with the highest count wins, and the test split is scored once.

    Deterministic: weights start at zero and the objective is convex, so no
    randomness enters the probe itself.

    Only the split rows are read, each gathered before it is widened to f64
    (exact from f32); the test rows are scored one block at a time.

    The gradient is the closed form x^T (softmax - onehot) / m of the mean
    cross-entropy, formed in buffers that every epoch reuses.  The weight
    rows and the bias row are one parameter, so each epoch takes one Adam
    step; Adam is elementwise, so the bits are those of two parameters.
    """
    emb = np.asarray(embeddings)
    y = np.asarray(labels, dtype=np.int64)
    if emb.ndim != 2 or emb.shape[0] != y.shape[0]:
        raise ShapeError(f"embeddings {emb.shape} do not match {y.shape[0]} labels")
    num_classes = int(y.max()) + 1
    missing = sorted(set(range(num_classes)) - set(y[split.train].tolist()))
    if missing:
        warnings.warn(f"classes {missing} absent from the training split; they get zero prior")

    def rows(idx: np.ndarray) -> np.ndarray:
        return np.asarray(emb[idx], dtype=np.float64)

    dim = emb.shape[1]
    theta = dc.Parameter(np.zeros((dim + 1, num_classes)), name="probe.weight_bias")
    w, b = theta.data[:dim], theta.data[dim]
    grad = np.empty_like(theta.data)  # handed to each step, which only reads it
    grad_w, grad_b = grad[:dim], grad[dim]
    adam = dc.AdamState([theta], lr=config.learning_rate, weight_decay=config.weight_decay)

    # the training rows and targets take the parameter's dtype (f32 runs
    # train in f32); the validation rows stay f64, so f32 runs score with
    # f64 logits
    x_train = rows(split.train).astype(theta.data.dtype)
    m = x_train.shape[0]
    onehot = np.zeros((m, num_classes), dtype=theta.data.dtype)
    onehot[np.arange(m), y[split.train]] = 1.0
    x_val, y_val = rows(split.val), y[split.val]

    # every epoch writes into these; views of them are formed once
    x_train_t = x_train.T
    probs = np.empty_like(onehot)
    # the row max is taken column by column: exact, and far cheaper than a
    # reduction along rows a few entries long
    columns = [probs[:, j : j + 1] for j in range(num_classes)]
    row_max = np.empty((m, 1), dtype=probs.dtype)
    row_sum = np.empty_like(row_max)
    val_logits = np.empty((y_val.size, num_classes))
    val_pred = np.empty(y_val.size, dtype=np.intp)
    val_hit = np.empty(y_val.size, dtype=bool)
    best_correct, best = -1, theta.data.copy()
    for _ in range(config.num_epochs):
        np.matmul(x_train, w, out=probs)
        probs += b
        np.maximum(columns[0], columns[-1], out=row_max)
        for column in columns[1:-1]:
            np.maximum(row_max, column, out=row_max)
        probs -= row_max
        np.exp(probs, out=probs)
        np.add.reduce(probs, axis=1, keepdims=True, out=row_sum)
        probs /= row_sum
        probs -= onehot
        probs /= m
        np.matmul(x_train_t, probs, out=grad_w)
        np.add.reduce(probs, axis=0, out=grad_b)
        theta.grad = grad
        dc.adam_step(adam)

        np.matmul(x_val, w, out=val_logits)
        val_logits += b
        np.argmax(val_logits, axis=1, out=val_pred)  # the first maximum on a tie
        correct = np.count_nonzero(np.equal(val_pred, y_val, out=val_hit))
        if correct > best_correct:
            best_correct = correct
            np.copyto(best, theta.data)

    best_w, best_b = best[:dim], best[dim]
    test_pred = np.empty(split.test.size, dtype=np.intp)
    for start, stop in dc.row_blocks(split.test.size, max(dim, num_classes)):
        test_pred[start:stop] = np.argmax(rows(split.test[start:stop]) @ best_w + best_b, axis=1)
    return micro_f1(y[split.test], test_pred), accuracy(y[split.test], test_pred)


# ---------------------------------------------------------------------------
# k-means


@dataclass
class KMeansResult:
    assignments: np.ndarray
    inertia: float
    inertia_trace: list[float]


def _sq_dists(a: np.ndarray, aa: np.ndarray, b: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Squared distances (len(a), len(b)) between the rows of a and of b,
    given their squared row norms: |a|^2 + |b|^2 - 2 a.b, clamped at zero.

    They are written into the one product a.b, one `row_blocks` block at a
    time, so no other array of the result's size is formed; each entry
    takes the same operations in the same order as a whole-array pass.
    """
    d2 = a @ b.T
    for start, stop in dc.row_blocks(*d2.shape):
        block = d2[start:stop]
        block *= 2.0
        np.subtract(np.add.outer(aa[start:stop], bb), block, out=block)
        np.maximum(block, 0.0, out=block)
    return d2


def _assign(x: np.ndarray, xx: np.ndarray, centroids: np.ndarray):
    """Score m restarts' centroids (m, k, d) with one distance product.

    Returns the distances (n, m, k), each restart's nearest centroid per
    point (n, m) and each restart's inertia (m,).  An inertia is summed over
    a contiguous row, as a 1-D sum over the points would be.  The distances
    are the only (n, m, k) array formed.
    """
    m, k, d = centroids.shape
    flat = centroids.reshape(m * k, d)
    d2 = _sq_dists(x, xx, flat, np.sum(flat * flat, axis=1)).reshape(-1, m, k)
    assignments = np.argmin(d2, axis=2)
    inertias = np.ascontiguousarray(np.min(d2, axis=2).T).sum(axis=1)
    return d2, assignments, inertias


def _row_sq_norms(x: np.ndarray) -> np.ndarray:
    """np.sum(x * x, axis=1), one `row_blocks` block at a time (no n x d
    temporary)."""
    xx = np.empty(x.shape[0])
    for start, stop in dc.row_blocks(*x.shape):
        xx[start:stop] = np.sum(np.square(x[start:stop]), axis=1)
    return xx


# below this fraction of |x|^2 + |c|^2 the expansion cannot tell a squared
# distance from zero; such entries of the seeding weights are recomputed exactly
_SEED_EXACT_BELOW = 1e-8


def _seed_dists(x: np.ndarray, xx: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Squared distances (len(picks), n) from the picked rows to every row.

    Entries the expansion cannot tell from zero (the picked rows themselves,
    their duplicates) are recomputed as sums of squared differences, so a
    duplicate of a chosen centroid weighs exactly zero.
    """
    d2 = _sq_dists(x[picks], xx[picks], x, xx)
    rows, cols = np.nonzero(d2 <= _SEED_EXACT_BELOW * np.add.outer(xx[picks], xx))
    d2[rows, cols] = np.sum((x[cols] - x[picks[rows]]) ** 2, axis=1)
    return d2


def _kmeans_pp(x: np.ndarray, xx: np.ndarray, k: int, rngs: list) -> np.ndarray:
    """k-means++ seeds (R, k, d), restart r drawing from rngs[r].

    The first centroid is uniform, each further one is drawn with weight the
    squared distance to the nearest centroid chosen so far; once every weight
    is zero the remaining centroids repeat the first.  The restarts take each
    step together, so a step is one (R, d) x (d, n) product.
    """
    n = x.shape[0]
    first = np.array([int(rng.integers(0, n)) for rng in rngs])
    centroids = np.empty((len(rngs), k, x.shape[1]))
    centroids[:, 0] = x[first]
    seeding = np.arange(len(rngs))
    closest = _seed_dists(x, xx, first)  # (R, n)
    for j in range(1, k):
        totals = closest[seeding].sum(axis=1)
        live = totals > 0.0
        for r in seeding[~live]:
            centroids[r, j:] = x[first[r]]
        seeding, totals = seeding[live], totals[live]
        if seeding.size == 0:
            break
        cums = np.cumsum(closest[seeding], axis=1)
        picks = np.array(
            [
                min(int(np.searchsorted(cum, rngs[r].uniform() * float(total))), n - 1)
                for r, cum, total in zip(seeding, cums, totals)
            ]
        )
        centroids[seeding, j] = x[picks]
        if j < k - 1:
            closest[seeding] = np.minimum(closest[seeding], _seed_dists(x, xx, picks))
    return centroids


def _update_one_by_one(
    x: np.ndarray, d2: np.ndarray, assignments: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """One restart's centroid update, cluster by cluster, for an iteration in
    which one of its clusters is empty: that cluster is re-seeded at the
    point farthest from its centroid, and the point leaves its old cluster
    (whose mean, if still to come, no longer counts it).  If even that
    distance is below seeding's floor, every point sits on its centroid and
    the empty cluster keeps its centroid; re-seeding it at rounding noise
    would move a point back and forth and never converge."""
    n = x.shape[0]
    new_centroids = centroids.copy()
    for j in range(centroids.shape[0]):
        members = assignments == j
        if members.any():
            new_centroids[j] = x[members].mean(axis=0)
            continue
        nearest = d2[np.arange(n), assignments]
        far = int(np.argmax(nearest))
        c = centroids[assignments[far]]
        if nearest[far] > _SEED_EXACT_BELOW * (x[far] @ x[far] + c @ c):
            new_centroids[j] = x[far]
            assignments[far] = j
    return new_centroids


_KMEANS_TOL = 1e-6


def kmeans(
    embeddings: np.ndarray,
    k: int,
    rng: dc.RngStream,
    restarts: int = 10,
    max_iters: int = 300,
) -> KMeansResult:
    """Lloyd's algorithm with k-means++ seeding; best of `restarts` by inertia.

    Restart r seeds from `rng.child(r)`.  The restarts run in lockstep: one
    iteration scores the centroids of every restart still moving with one
    distance product and sums their clusters with one one-hot product.  A
    restart stops once none of its centroids moved by `_KMEANS_TOL`.  The first
    restart with the lowest final inertia wins; `inertia_trace` is its
    inertia before each iteration, then the final one.

    Besides x, one (n, restarts * k) array lives at a time: an iteration's
    distances die before its one-hot is made, and the one-hot before the
    next iteration's distance product; the rest is O(n * restarts).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"embeddings must be a matrix, got shape {x.shape}")
    n = x.shape[0]
    if not 1 <= k <= n:
        raise AnalysisError(f"k must be in [1, {n}], got {k}")
    if restarts < 1:
        raise AnalysisError(f"restarts must be >= 1, got {restarts}")
    xx = _row_sq_norms(x)
    centroids = _kmeans_pp(x, xx, k, [rng.child(r) for r in range(restarts)])
    traces: list[list[float]] = [[] for _ in range(restarts)]

    active = np.arange(restarts)
    for _ in range(max_iters):
        if active.size == 0:
            break
        m = active.size
        old = centroids[active]
        d2, assignments, inertias = _assign(x, xx, old)
        cells = (assignments + k * np.arange(m)).T  # (m, n) cluster ids across restarts
        counts = np.bincount(cells.ravel(), minlength=m * k).reshape(m, k)
        # a restart with an empty cluster reads its own distance columns;
        # then the distances die, before the one-hot of the same size is made
        reseeded = [
            (a, _update_one_by_one(x, d2[:, a], assignments[:, a].copy(), old[a]))
            for a in np.flatnonzero((counts == 0).any(axis=1))
        ]
        del d2, assignments
        onehot = np.zeros((m * k, n))
        onehot[cells, np.arange(n)] = 1.0
        del cells
        new = (onehot @ x).reshape(m, k, -1)
        del onehot
        new /= np.maximum(counts, 1)[:, :, None]
        for a, centroids_a in reseeded:
            new[a] = centroids_a
        shifts = np.max(np.sqrt(np.sum((new - old) ** 2, axis=2)), axis=1)
        centroids[active] = new
        for r, inertia in zip(active, inertias):
            traces[r].append(float(inertia))
        active = active[~(shifts < _KMEANS_TOL)]

    _, assignments, inertias = _assign(x, xx, centroids)
    best = 0
    for r in range(restarts):
        traces[r].append(float(inertias[r]))
        if inertias[r] < inertias[best]:
            best = r
    return KMeansResult(np.ascontiguousarray(assignments[:, best]), float(inertias[best]), traces[best])


# ---------------------------------------------------------------------------
# partition agreement metrics


def _cell_index(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(index, cells): v itself and max(v) + 1 when v's values lie in
    [0, len(v)), else their ranks and the number of distinct values."""
    lo, hi = v.min(), v.max()
    if lo < 0 or hi >= v.size:
        values, ranks = np.unique(v, return_inverse=True)
        return ranks, values.size
    return v, int(hi) + 1


def _contingency(a, b) -> np.ndarray:
    """Counts of each (a, b) value pair, built with one bincount.

    Rows follow a's values and columns b's, in increasing order.  A table
    indexed by the values themselves can hold empty rows and columns,
    which neither metric reads.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise AnalysisError("partition metrics need two equal-length non-empty 1-D arrays")
    (a, rows), (b, cols) = _cell_index(a), _cell_index(b)
    return np.bincount(a * cols + b, minlength=rows * cols).reshape(rows, cols)


def _entropy(counts: np.ndarray, n: int) -> float:
    """The entropy of the cells of `counts`, which sum to n."""
    p = counts[counts > 0] / n
    return float(-(p * np.log(p)).sum())


def partition_metrics(assignments, labels) -> tuple[float, float]:
    """(nmi, homogeneity) of a clustering against class labels, from one
    contingency table (rows: clusters, columns: classes).

    NMI is the mutual information normalized by the arithmetic mean of the
    entropies, natural log internally.  Two identical nontrivial partitions
    give 1.0; if both partitions are trivial (single cell) they agree, also
    1.0; if exactly one is trivial the MI is 0 and so is the score.
    Homogeneity is 1 - H(classes | clusters) / H(classes), and 1.0 when
    H(classes) = 0.
    """
    table = _contingency(assignments, labels)
    n = len(assignments)
    clusters, classes = table.sum(axis=1), table.sum(axis=0)
    h_k, h_c = _entropy(clusters, n), _entropy(classes, n)
    nz = table > 0
    rows, cols = np.nonzero(nz)
    counts = table[nz]
    per_cluster = nz.sum(axis=1)  # nonzero cells of each cluster

    if h_k == 0.0 and h_c == 0.0:
        score = 1.0
    elif per_cluster.max() <= 1 and nz.sum(axis=0).max() <= 1:
        # identical partitions up to relabeling: one nonzero per row and column.
        # Score exactly 1.0 instead of accumulating rounding in the MI sum.
        score = 1.0
    else:
        pij = counts / n
        mi = float((pij * np.log(pij / ((clusters / n)[rows] * (classes / n)[cols]))).sum())
        score = float(min(max(mi / ((h_k + h_c) / 2.0), 0.0), 1.0))
    if h_c == 0.0:
        return score, 1.0

    p = counts / clusters[rows]  # each cluster's nonzero class shares, cluster after cluster
    p *= np.log(p)
    h_c_given_k, start = 0.0, 0
    for total, end in zip(clusters, per_cluster.cumsum()):
        if total:  # the cluster's class entropy is -(its p log p).sum()
            h_c_given_k += (total / n) * float(-p[start:end].sum())
        start = end
    return score, float(min(max(1.0 - h_c_given_k / h_c, 0.0), 1.0))


def nmi(assignments: np.ndarray, labels: np.ndarray) -> float:
    """The NMI of `partition_metrics`."""
    return partition_metrics(assignments, labels)[0]


def homogeneity(assignments: np.ndarray, labels: np.ndarray) -> float:
    """The homogeneity of `partition_metrics`."""
    return partition_metrics(assignments, labels)[1]


# ---------------------------------------------------------------------------
# similarity histograms


@dataclass
class SimilarityHistograms:
    """Binned cosine similarities over node pairs, split by adjacency and
    (when labels exist) label agreement.  Bins cover [-1, 1]."""

    bin_edges: np.ndarray
    neighbor: np.ndarray
    non_neighbor: np.ndarray
    same_label: np.ndarray | None
    diff_label: np.ndarray | None
    num_pairs: int
    subsampled: bool


def similarity_histograms(
    embeddings: np.ndarray,
    graph: Graph,
    rng: dc.RngStream,
    bins: int = 50,
    subsample_pairs: int | None = None,
) -> SimilarityHistograms:
    """Histograms of the cosine similarity of every node pair i < j, or of
    `subsample_pairs` pairs drawn with replacement from `rng`.

    All pairs stream in the strips of `contrast.pair_strips`: a strip
    scores its rows against themselves and every later node, marks its
    adjacent pairs from its rows of the CSR arrays and adds its counts.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    n = graph.num_nodes
    if x.shape[0] != n:
        raise ShapeError(f"embeddings rows {x.shape[0]} != |V| {n}")
    dc.check_finite("embeddings", x)
    xn, norms = unit_rows(x)
    if np.any(norms == NORM_FLOOR):  # a cosine needs a direction
        row = int(np.argmin(norms))
        raise DegenerateEmbeddingError(f"row {row} has near-zero norm ({float(np.linalg.norm(x[row])):.3e})")
    edges = np.linspace(-1.0, 1.0, bins + 1)
    labels, offsets = graph.labels, graph.csr_offsets
    sources, targets = graph.csr_sources, graph.csr_targets
    # A pair's cell is the bin np.histogram gives its clipped similarity, plus
    # `bins` if it is adjacent and 2 * `bins` if its labels match.  The last
    # cell collects the strip entries that are not pairs i < j.
    counts = np.zeros(4 * bins + 1, dtype=np.int64)
    if subsample_pairs is None:
        for r0, r1 in pair_strips(n):
            cell = np.searchsorted(edges[1:-1], xn[r0:r1] @ xn[r0:].T, side="right")
            rows = sources[offsets[r0] : offsets[r1]] - r0
            cols = targets[offsets[r0] : offsets[r1]] - r0
            cell[rows[cols >= 0], cols[cols >= 0]] += bins
            if labels is not None:
                np.add(cell, 2 * bins, out=cell, where=labels[r0:r1, None] == labels[r0:])
            cell[np.tril_indices(r1 - r0)] = 4 * bins
            counts += np.bincount(cell.ravel(), minlength=4 * bins + 1)
    else:
        if n < 2:
            raise AnalysisError(f"subsampled pairs need at least 2 nodes, got {n}")
        iu = rng.integers(0, n, size=subsample_pairs)
        iv = rng.integers(0, n - 1, size=subsample_pairs)
        iv = np.where(iv >= iu, iv + 1, iv)  # never a self-pair
        cell = np.searchsorted(edges[1:-1], np.einsum("ij,ij->i", xn[iu], xn[iv]), side="right")
        cell[np.isin(iu * n + iv, sources * n + targets)] += bins
        if labels is not None:
            cell[labels[iu] == labels[iv]] += 2 * bins
        counts += np.bincount(cell, minlength=4 * bins + 1)

    counts = counts[:-1].reshape(2, 2, bins)  # (label match, adjacent, bin)
    return SimilarityHistograms(
        bin_edges=edges,
        neighbor=counts[:, 1].sum(axis=0),
        non_neighbor=counts[:, 0].sum(axis=0),
        same_label=None if labels is None else counts[1].sum(axis=0),
        diff_label=None if labels is None else counts[0].sum(axis=0),
        num_pairs=int(counts.sum()),
        subsampled=subsample_pairs is not None,
    )


# ---------------------------------------------------------------------------
# inference timing


@dataclass
class TimingEntry:
    encoder_kind: str
    wall_millis: float


@dataclass
class TimingReport:
    entries: list[TimingEntry]
    ratio_gconv_over_linear: float
    repeats: int


def timing_harness(graph: Graph, spec: ModelSpec, repeats: int = 20) -> TimingReport:
    """Median single-pass inference wall time of `spec` with each base encoder.

    The linear and gconv models differ only in `base_encoder`.  The
    normalized adjacency is built once outside the timed region; only the
    forward pass, with the parameters as constants, is measured.  After
    each encoder's three warmup passes the repeats alternate between them,
    each going first every other time, so a burst of machine load lands on
    both sides alike.
    """
    if repeats < 1:
        raise ConfigError(f"repeats must be >= 1, got {repeats}")

    adj = normalized_adjacency(graph)
    runs = []
    for kind, use_adj in (("linear", None), ("gconv", adj)):
        spec = replace(spec, base_encoder=kind)
        state = EncoderState(spec, graph.num_features, dc.RngStream(0, "init")).frozen()
        for _ in range(3):
            encode_rows(state, spec, graph.features, adj=use_adj)
        runs.append((state, spec, use_adj))
    times: list[list[float]] = [[], []]
    for i in range(repeats):
        for k in (0, 1) if i % 2 == 0 else (1, 0):
            state, spec, use_adj = runs[k]
            t0 = time.perf_counter()
            encode_rows(state, spec, graph.features, adj=use_adj)
            times[k].append((time.perf_counter() - t0) * 1000.0)
    medians = [float(np.median(t)) for t in times]
    entries = [TimingEntry("linear", medians[0]), TimingEntry("gconv", medians[1])]
    ratio = medians[1] / medians[0] if medians[0] > 0 else float("inf")
    return TimingReport(entries=entries, ratio_gconv_over_linear=ratio, repeats=repeats)
