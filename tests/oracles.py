"""Naive reference implementations used to cross-check the vectorized code.

Most of this is written as plain double loops over nodes or items, on
purpose: slow, obvious, and independent of the library's own linear
algebra.  Tests compare the fast paths against these.

The `dense_loss_*` functions are the library's earlier losses, kept as they
were: each builds the full n x n score matrix on the autodiff tape, so its
gradient comes from the generic tape ops of `tape_ops.py`.  They are the reference for
the row-blocked loss op's value and dL/dz.

`sbm_generate_oracle` is the library's earlier SBM generator, which draws
all n^2/2 pairs at once; it is the reference for the row-blocked one.

`linear_probe_oracle` is the library's earlier probe loop, kept as it was:
it steps the weight and the bias as two parameters, forms each epoch's
gradient in fresh arrays (`probe_gradients_oracle`) and scores every epoch's
validation split with `micro_f1`.  It is the reference for the probe's
(micro-F1, accuracy).

`adam_step_oracle` is the library's earlier Adam step, which allocates its
temporaries afresh; the lean step must match it bit for bit.

`kmeans_serial_oracle` is the library's first k-means, which runs its
restarts one after another; the lockstep one must give the same
assignments.  `kmeans_oracle` is the library's earlier lockstep k-means,
kept as it was: it forms the squared distances beside their product as a
second array of that size, and keeps an iteration's distances and one-hot
alive into the next; k-means must match it bit for bit.

`dropout_oracle`, `layer_norm_oracle` and `activation_oracle` are the
library's earlier training ops, kept as they were: each forms its output in
fresh temporaries and its backward reads the input, as the tape once kept
it (layer_norm's reads xhat, and forms each term of dL/dx in a fresh
array; the leaky activations select with np.where).  The lean ops must give
the same output and gradients bit for bit.  `dropout_oracle` followed by
`matmul` (`dropout_matmul_oracle` runs the two as one tape node) is the
reference for `matmul` with dropout, which replaced dropout as an op of its
own in every layer, and `activated_layer_norm_oracle`, `activation_oracle` followed by
`layer_norm_oracle` as two tape nodes, the reference for `layer_norm` with
the activation before it, which keeps neither the activation's output nor
xhat.  `activation_oracle`'s leaky_relu, whose slope is a float, is the
reference for a prelu with a constant slope Tensor, which replaced it.

`similarity_histograms_oracle` is the library's earlier histogram routine,
which indexes the full n x n Gram matrix with all n(n-1)/2 pairs and looks
adjacency up in a scipy CSR matrix; the strip-streamed one must give the
same counts.

`estimator_loss_strips_oracle` is the library's earlier row-blocked loss op,
kept as it was: each strip op forms D, 1-D, log(1-D) and the gradient in
fresh temporaries.  It reads `signa.contrast._BLOCK_ELEMS` at call time, so
it cuts the same strips as the library; the in-place strip ops must give
the same loss value and dL/dz bit for bit.  `logistic_oracle` is the
earlier `diffcore.logistic`, which gathers each sign's entries apart.

`partition_metrics_oracle` is the library's earlier pair of partition
metrics, kept as it was: `nmi` and `homogeneity` each rank both label
vectors with np.unique and fill their own contingency table with
np.add.at.  The one-table `partition_metrics` must match it bit for bit.
`partition_metrics_one_table_oracle` is the library's first one-table
`partition_metrics`, kept as it was: it takes each label vector's min and
max twice and sums the table and each marginal again for its entropies;
the leaner one must match it bit for bit.

`inference_embeddings_oracle` is the library's earlier inference: one
frozen forward over the whole graph, whatever the encoder.  The linear
encoder's row-blocked inference must match it bit for bit.

`save_checkpoint_v1_oracle` is the library's earlier checkpoint writer,
format version 1, which widens every parameter to an `<f8` blob whatever
the run's precision; the loader must still read its files.
"""

import base64
import math
import warnings

import numpy as np

import signa.contrast as contrast
import signa.diffcore as dc
import tape_ops as kit
from signa.atomic import write_json
from signa.contrast import ContrastDraw, EstimatorSpec
from signa.diffcore.optim import BETA1, BETA2, EPS
from signa.encoder import encode
from signa.errors import (
    AnalysisError,
    ConfigError,
    DegenerateEmbeddingError,
    DegenerateGraphError,
    OptimizationError,
    ShapeError,
)
from signa.evaluate import (
    _SEED_EXACT_BELOW,
    KMeansResult,
    ProbeConfig,
    SimilarityHistograms,
    Split,
    accuracy,
    micro_f1,
)
from signa.graphdata import Graph, normalized_adjacency


def unit_rows(z: np.ndarray) -> np.ndarray:
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def jsd_style_loss_oracle(z: np.ndarray, draw, mode: str, eps: float = 1e-7) -> float:
    """Double-loop mean anchor loss for the norm-JSD / JSD objectives."""
    n = z.shape[0]
    zn = unit_rows(z)
    total = 0.0
    for u in range(n):
        pos = set(int(v) for v in kit.positives(draw, u))
        neg = [v for v in range(n) if v not in pos]
        pos_sum = 0.0
        for v in pos:
            if mode == "norm_jsd":
                d = (float(np.dot(zn[u], zn[v])) + 1.0) / 2.0
            else:
                d = 1.0 / (1.0 + math.exp(-float(np.dot(z[u], z[v]))))
            d = min(max(d, eps), 1.0 - eps)
            pos_sum += math.log(d)
        neg_sum = 0.0
        for v in neg:
            if mode == "norm_jsd":
                d = (float(np.dot(zn[u], zn[v])) + 1.0) / 2.0
            else:
                d = 1.0 / (1.0 + math.exp(-float(np.dot(z[u], z[v]))))
            d = min(max(d, eps), 1.0 - eps)
            neg_sum += math.log(1.0 - d)
        total += -pos_sum / len(pos) - neg_sum / len(neg)
    return total / n


def info_nce_loss_oracle(z: np.ndarray, draw, tau: float = 0.5) -> float:
    """Double-loop softmax contrast; positives exclude the anchor itself."""
    n = z.shape[0]
    zn = unit_rows(z)
    sims = zn @ zn.T
    total = 0.0
    for u in range(n):
        pos = [int(v) for v in kit.positives(draw, u) if int(v) != u]
        if not pos:
            continue
        denom = sum(math.exp(sims[u, w] / tau) for w in range(n) if w != u)
        term = 0.0
        for v in pos:
            term += math.log(math.exp(sims[u, v] / tau) / denom)
        total += -term / len(pos)
    return total / n


# ---------------------------------------------------------------------------
# dense tape losses


def _cosine_matrix(z: dc.Tensor) -> dc.Tensor:
    zn = kit.rows_l2_normalize(z)
    return dc.matmul(zn, kit.transpose(zn))


def _pair_weights(draw: ContrastDraw):
    """Constant weight matrices: Wp[u,v]=1/|P_u| on P_u, Wn[u,v]=1/|Q_u| on Q_u."""
    n = draw.num_nodes
    pos_counts = draw.pos_counts
    neg_counts = n - pos_counts
    if np.any(neg_counts == 0):
        u = int(np.argmin(neg_counts))
        raise DegenerateGraphError(f"anchor {u} has an empty negative set (|P_u| = |V|)")
    m = kit.membership(draw)
    wp = m / pos_counts[:, None]
    wn = (~m) / neg_counts[:, None]
    return wp, wn


def _jsd_style_loss(d: dc.Tensor, draw: ContrastDraw, eps: float) -> dc.Tensor:
    wp, wn = _pair_weights(draw)
    dcl = kit.clamp(d, eps, 1.0 - eps)
    pos_term = kit.tsum(kit.hadamard(dc.Tensor(wp), kit.log(dcl)))
    neg_term = kit.tsum(kit.hadamard(dc.Tensor(wn), kit.log(kit.sub(1.0, dcl))))
    return kit.scalar_mul(kit.add(pos_term, neg_term), -1.0 / draw.num_nodes)


def _check_z(z: dc.Tensor, draw: ContrastDraw) -> None:
    if z.data.ndim != 2 or z.data.shape[0] != draw.num_nodes:
        raise ShapeError(f"Z must be ({draw.num_nodes}, d), got {z.data.shape}")


def dense_loss_norm_jsd(z: dc.Tensor, draw: ContrastDraw, eps: float = 1e-7) -> dc.Tensor:
    """Mean over anchors of -(1/|P_u|) sum log D - (1/|Q_u|) sum log(1-D)
    with D = (cos+1)/2 on the projected embeddings."""
    _check_z(z, draw)
    d = kit.scalar_mul(kit.add(_cosine_matrix(z), 1.0), 0.5)
    return _jsd_style_loss(d, draw, eps)


def dense_loss_jsd_ablation(z: dc.Tensor, draw: ContrastDraw, eps: float = 1e-7) -> dc.Tensor:
    """Same objective with the unnormalized D = sigmoid(z_u . z_v)."""
    _check_z(z, draw)
    d = kit.sigmoid(dc.matmul(z, kit.transpose(z)))
    return _jsd_style_loss(d, draw, eps)


def dense_loss_info_nce_ablation(z: dc.Tensor, draw: ContrastDraw, tau: float = 0.5) -> dc.Tensor:
    """Softmax contrast: positives from P_u \\ {u}, denominator over all w != u.

    Anchors whose only positive is themselves contribute zero; the per-anchor
    average uses the realized positive count, so equal similarities give
    exactly log(|V| - 1).
    """
    _check_z(z, draw)
    n = draw.num_nodes
    logits = kit.scalar_mul(_cosine_matrix(z), 1.0 / tau)
    off_diag = ~np.eye(n, dtype=bool)

    # detached row max over w != u keeps exp in range without touching gradients
    row_max = np.max(np.where(off_diag, logits.data, -np.inf), axis=1, keepdims=True)
    shifted = kit.exp(kit.sub(logits, dc.Tensor(row_max)))
    denom = kit.tsum(kit.hadamard(shifted, dc.Tensor(off_diag.astype(logits.data.dtype))), axis=1, keepdims=True)
    log_denom = kit.add(kit.log(denom), dc.Tensor(row_max))
    log_prob = kit.sub(logits, log_denom)

    pos = kit.membership(draw) & off_diag
    pos_counts = pos.sum(axis=1)
    weights = pos / np.maximum(pos_counts, 1)[:, None]
    return kit.scalar_mul(kit.tsum(kit.hadamard(dc.Tensor(weights), log_prob)), -1.0 / n)


# ---------------------------------------------------------------------------
# the earlier row-blocked loss op


def logistic_oracle(d: np.ndarray) -> np.ndarray:
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    s[~pos] = ez / (1.0 + ez)
    return s


def _jsd_side_oracle(d, log_neg, one_minus, pos, neg_w, axis):
    i, j, w = pos
    d_pos = d[i, j]
    log_neg[i, j] = 0.0  # positives leave the negative sum
    loss = neg_w * log_neg.sum(axis=axis)
    loss += np.bincount(j if axis == 0 else i, weights=w * np.log(d_pos), minlength=neg_w.size)
    g = np.divide(-(neg_w if axis == 0 else neg_w[:, None]), one_minus, out=log_neg)
    g[i, j] = w / d_pos
    return loss, g


def _jsd_block_oracle(s, row_pos, col_pos, neg_w, kind, eps):
    b = s.shape[0]
    if kind == "norm_jsd":
        d, slope = (s + 1.0) * 0.5, 0.5
    else:
        d = logistic_oracle(s)
        slope = d * (1.0 - d)
    inside = (d >= eps) & (d <= 1.0 - eps)  # the clamp's ends count as inside
    np.clip(d, eps, 1.0 - eps, out=d)
    one_minus = 1.0 - d
    log_neg = np.log(one_minus)
    right = np.s_[:, b:]
    col_loss, g_col = _jsd_side_oracle(d[right], log_neg[right].copy(), one_minus[right], col_pos, neg_w[b:], axis=0)
    row_loss, g = _jsd_side_oracle(d, log_neg, one_minus, row_pos, neg_w[:b], axis=1)
    g[right] += g_col
    g *= inside
    g *= slope
    return row_loss, col_loss, g


def _info_nce_block_oracle(s, r0, rows, cols, pos_w, tau):
    b = s.shape[0]
    logits = s * (1.0 / tau)
    logits[np.arange(b), np.arange(r0, r0 + b)] = -np.inf  # w != u
    row_max = logits.max(axis=1)
    p = np.exp(logits - row_max[:, None])
    denom = p.sum(axis=1)
    log_denom = np.log(denom) + row_max
    loss = np.bincount(rows, weights=pos_w * (logits[rows, cols] - log_denom[rows]), minlength=b)
    p *= (-np.bincount(rows, weights=pos_w, minlength=b) / denom).astype(s.dtype)[:, None]
    p[rows, cols] += pos_w
    p *= 1.0 / tau
    return loss, p


def estimator_loss_strips_oracle(z: dc.Tensor, draw: ContrastDraw, spec: EstimatorSpec) -> dc.Tensor:
    """The earlier `estimator_loss`, cut into the library's current strips."""
    n = draw.num_nodes
    if z.data.ndim != 2 or z.data.shape[0] != n:
        raise ShapeError(f"Z must be ({n}, d), got {z.data.shape}")
    kind, eps, tau = spec.kind, spec.clamp_eps, spec.temperature
    x = z.data
    anchors = np.repeat(np.arange(n), draw.pos_counts)
    targets = draw.pos_targets
    if kind == "info_nce":
        if n < 2:
            raise DegenerateGraphError("InfoNCE needs at least two nodes")
        other = targets != anchors
        anchors, targets = anchors[other], targets[other]
        w_pos = -1.0 / (n * np.maximum(np.bincount(anchors, minlength=n), 1))
    else:
        neg_counts = n - draw.pos_counts
        if np.any(neg_counts == 0):
            u = int(np.argmin(neg_counts))
            raise DegenerateGraphError(f"anchor {u} has an empty negative set (|P_u| = |V|)")
        w_pos = -1.0 / (n * draw.pos_counts)
        w_neg = (-1.0 / (n * neg_counts)).astype(x.dtype)
    w_pos = w_pos.astype(x.dtype)

    if kind == "jsd":
        zn = x  # raw inner products
    else:
        norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
        if np.any(norms < 1e-12):
            row = int(np.argmin(norms))
            raise DegenerateEmbeddingError(f"row {row} has near-zero norm ({float(norms[row, 0]):.3e})")
        zn = x / norms

    if kind != "info_nce":  # positives by target, for the strips' column anchors
        by_target = np.argsort(targets, kind="stable")
        t_targets, t_anchors = targets[by_target], anchors[by_target]

    per_anchor = np.zeros(n)
    dzn = np.zeros_like(x)
    step = max(1, contrast._BLOCK_ELEMS // n)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        c0 = 0 if kind == "info_nce" else r0
        lo, hi = np.searchsorted(anchors, (r0, r1))
        keep = targets[lo:hi] >= c0
        row_anchors = anchors[lo:hi][keep]
        row_pos = (row_anchors - r0, targets[lo:hi][keep] - c0, w_pos[row_anchors])
        s = zn[r0:r1] @ zn[c0:].T
        dc.check_finite("pairwise scores", s)
        if kind == "info_nce":
            per_anchor[r0:r1], g = _info_nce_block_oracle(s, r0, *row_pos, tau)
        else:
            lo, hi = np.searchsorted(t_targets, (r0, r1))
            keep = t_anchors[lo:hi] >= r1
            col_anchors = t_anchors[lo:hi][keep]
            col_pos = (t_targets[lo:hi][keep] - r0, col_anchors - r1, w_pos[col_anchors])
            row_loss, col_loss, g = _jsd_block_oracle(s, row_pos, col_pos, w_neg[r0:], kind, eps)
            per_anchor[r0:r1] += row_loss
            per_anchor[r1:] += col_loss
        dzn[r0:r1] += g @ zn[c0:]
        dzn[c0:] += g.T @ zn[r0:r1]

    if kind == "jsd":
        dz = dzn
    else:  # through the row normalization: (dzn - zn <dzn, zn>_row) / ||z||
        dz = (dzn - zn * np.sum(dzn * zn, axis=1, keepdims=True)) / norms
    out = dc.Tensor(per_anchor.sum(), _parents=(z,))

    def _bw(g):
        return (dz * g,)

    return dc.record_backward(out, _bw)


# ---------------------------------------------------------------------------
# inference


def inference_embeddings_oracle(state, spec, graph) -> dc.Tensor:
    adj = normalized_adjacency(graph) if spec.base_encoder == "gconv" else None
    return encode(state.frozen(), spec, graph, adj=adj, training=False)


# ---------------------------------------------------------------------------
# the earlier training ops


def dropout_oracle(x: dc.Tensor, p: float, rng, training: bool) -> dc.Tensor:
    if not training or p == 0.0:
        return x
    keep = rng.uniform(size=x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    out = dc.Tensor(x.data * keep * scale, _parents=(x,))
    return dc.record_backward(out, lambda g: (g * keep * scale,))


def dropout_matmul_oracle(x: dc.Tensor, w: dc.Tensor, p: float, rng, training: bool) -> dc.Tensor:
    """`matmul(dropout_oracle(x, ...), w)` as one tape node, whose closure
    runs the matmul's closure and then the dropout's: its gradients are
    those of the two ops apart."""
    dropped = dropout_oracle(x, p, rng, training)
    out = dc.matmul(dropped, w)
    if dropped is x or dropped._node is None:  # no draw, or no dL/dx
        return out
    matmul_bw, dropout_bw = out._node.backward, dropped._node.backward

    def _bw(g):
        d_dropped, dw = matmul_bw(g)
        return dropout_bw(d_dropped)[0], dw

    return dc.record_backward(dc.Tensor(out.data, _parents=(x, w)), _bw)


def layer_norm_oracle(x: dc.Tensor, gain: dc.Tensor, bias: dc.Tensor, eps: float = 1e-5) -> dc.Tensor:
    mu = np.mean(x.data, axis=1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = dc.Tensor(xhat * gain.data + bias.data, _parents=(x, gain, bias))
    dc.check_finite("layer_norm", out.data)

    def _bw(g):
        gx = g * gain.data
        m1 = np.mean(gx, axis=1, keepdims=True)
        m2 = np.mean(gx * xhat, axis=1, keepdims=True)
        return inv * (gx - m1 - xhat * m2), np.sum(g * xhat, axis=0), np.sum(g, axis=0)

    return dc.record_backward(out, _bw)


def activated_layer_norm_oracle(x: dc.Tensor, gain: dc.Tensor, bias: dc.Tensor, kind, slope=None) -> dc.Tensor:
    """The earlier activation `kind`, then the earlier LayerNorm: the
    reference for `layer_norm`, which takes the activation before it."""
    return layer_norm_oracle(activation_oracle(x, kind, slope), gain, bias)


def _leaky_factor_oracle(d: np.ndarray, s: float) -> np.ndarray:
    return np.where(d > 0, d.dtype.type(1.0), d.dtype.type(s))


def activation_oracle(x: dc.Tensor, kind: str, slope=None) -> dc.Tensor:
    d = x.data
    if kind == "relu":
        out = dc.Tensor(np.maximum(d, 0.0), _parents=(x,))
        return dc.record_backward(out, lambda g: (g * (d > 0),))
    if kind == "elu":
        neg = np.exp(np.minimum(d, 0.0)) - 1.0
        out = dc.Tensor(np.where(d > 0, d, neg), _parents=(x,))
        return dc.record_backward(out, lambda g: (g * np.where(d > 0, 1.0, neg + 1.0),))
    if kind == "leaky_relu":
        s = float(slope if slope is not None else 0.01)
        out = dc.Tensor(np.where(d > 0, d, s * d), _parents=(x,))
        return dc.record_backward(out, lambda g: (g * _leaky_factor_oracle(d, s),))
    if kind == "prelu":
        s = float(slope.data.reshape(-1)[0])
        out = dc.Tensor(np.where(d > 0, d, s * d), _parents=(x, slope))

        def _bw(g):
            ds = np.array([np.sum(g * d * (d <= 0))], dtype=d.dtype).reshape(slope.data.shape)
            return g * _leaky_factor_oracle(d, s), ds

        return dc.record_backward(out, _bw)
    raise ConfigError(f"unknown activation kind {kind!r}")


# ---------------------------------------------------------------------------
# linear probe


def micro_f1_oracle(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """The earlier micro-F1: true positives, false positives and false
    negatives summed class by class, then one division."""
    classes = np.unique(np.concatenate([y_true, y_pred]))
    tp = sum(int(np.sum((y_pred == c) & (y_true == c))) for c in classes)
    fp = sum(int(np.sum((y_pred == c) & (y_true != c))) for c in classes)
    fn = sum(int(np.sum((y_pred != c) & (y_true == c))) for c in classes)
    return 2 * tp / (2 * tp + fp + fn)


def probe_gradients_oracle(
    x: np.ndarray, onehot: np.ndarray, w: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the mean softmax cross-entropy of logits x @ w + b with
    respect to (w, b): the closed form x^T (softmax - onehot) / m."""
    logits = x @ w + b
    p = np.exp(logits - np.max(logits, axis=1, keepdims=True))
    p /= np.sum(p, axis=1, keepdims=True)
    delta = (p - onehot) / x.shape[0]
    return x.T @ delta, np.sum(delta, axis=0)


def linear_probe_oracle(
    embeddings: np.ndarray,
    labels: np.ndarray,
    split: Split,
    config: ProbeConfig | None = None,
) -> tuple[float, float]:
    """Softmax regression on frozen embeddings; returns (micro_f1, accuracy)
    on the test set at the epoch with the best validation micro-F1.

    Deterministic: weights start at zero and the objective is convex, so no
    randomness enters the probe itself.
    """
    if config is None:
        config = ProbeConfig()
    x = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ShapeError(f"embeddings {x.shape} do not match {y.shape[0]} labels")
    num_classes = int(y.max()) + 1
    missing = sorted(set(range(num_classes)) - set(y[split.train].tolist()))
    if missing:
        warnings.warn(f"classes {missing} absent from the training split; they get zero prior")

    w = dc.Parameter(np.zeros((x.shape[1], num_classes)), name="probe.weight")
    b = dc.Parameter(np.zeros(num_classes), name="probe.bias")
    adam = dc.AdamState([w, b], lr=config.learning_rate, weight_decay=config.weight_decay)

    x_train = x[split.train].astype(w.data.dtype)
    onehot = np.zeros((x_train.shape[0], num_classes), dtype=w.data.dtype)
    onehot[np.arange(x_train.shape[0]), y[split.train]] = 1.0

    def predict(idx: np.ndarray) -> np.ndarray:
        logits = x[idx] @ w.data + b.data
        return np.argmax(logits, axis=1)

    best_val, best_snapshot = -1.0, (w.data.copy(), b.data.copy())
    for _ in range(config.num_epochs):
        w.grad, b.grad = probe_gradients_oracle(x_train, onehot, w.data, b.data)
        dc.adam_step(adam)
        val_f1 = micro_f1(y[split.val], predict(split.val))
        if val_f1 > best_val:
            best_val = val_f1
            best_snapshot = (w.data.copy(), b.data.copy())

    w.data[...] = best_snapshot[0]
    b.data[...] = best_snapshot[1]
    test_pred = predict(split.test)
    return micro_f1(y[split.test], test_pred), accuracy(y[split.test], test_pred)


# ---------------------------------------------------------------------------
# graphs


def csr_oracle(edges, num_nodes):
    """The CSR arrays (offsets, sources, targets) of the undirected graph on
    `edges`, built pair by pair through a set, and the number of self-loops
    and of duplicate edges that were dropped."""
    seen: set = set()
    loops = dupes = 0
    for u, v in edges.tolist():
        if u == v:
            loops += 1
        elif (min(u, v), max(u, v)) in seen:
            dupes += 1
        else:
            seen.add((min(u, v), max(u, v)))
    rows: list[list[int]] = [[] for _ in range(num_nodes)]
    for u, v in seen:
        rows[u].append(v)
        rows[v].append(u)
    rows = [sorted(row) for row in rows]
    offsets = np.cumsum([0] + [len(row) for row in rows])
    sources = [u for u, row in enumerate(rows) for _ in row]
    targets = [v for row in rows for v in row]
    return offsets, sources, targets, loops, dupes


def global_homophily_oracle(graph) -> float:
    same = total = 0
    for u in range(graph.num_nodes):
        for v in kit.neighbors(graph, u):
            total += 1
            if graph.labels[u] == graph.labels[v]:
                same += 1
    return same / total


def local_homophily_oracle(graph):
    counts, ratios = [], []
    for u in range(graph.num_nodes):
        nbrs = kit.neighbors(graph, u)
        c = sum(1 for v in nbrs if graph.labels[u] == graph.labels[v])
        counts.append(c)
        ratios.append(c / nbrs.size if nbrs.size else float("nan"))
    return np.array(counts), np.array(ratios)


def contingency_oracle(a, b) -> dict:
    table: dict = {}
    for x, y in zip(a, b):
        table[(int(x), int(y))] = table.get((int(x), int(y)), 0) + 1
    return table


def _entropy_from_counts(counts, n) -> float:
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / n
            h -= p * math.log(p)
    return h


def nmi_oracle(a, b) -> float:
    """Mutual information over the contingency table, arithmetic-mean norm."""
    n = len(a)
    table = contingency_oracle(a, b)
    row: dict = {}
    col: dict = {}
    for (x, y), c in table.items():
        row[x] = row.get(x, 0) + c
        col[y] = col.get(y, 0) + c
    mi = 0.0
    for (x, y), c in table.items():
        mi += (c / n) * math.log(n * c / (row[x] * col[y]))
    ha = _entropy_from_counts(row.values(), n)
    hb = _entropy_from_counts(col.values(), n)
    if ha == 0.0 and hb == 0.0:
        return 1.0
    denom = (ha + hb) / 2.0
    if denom == 0.0:
        return 0.0
    return min(max(mi / denom, 0.0), 1.0)


def homogeneity_oracle(assignments, labels) -> float:
    """1 - H(labels | assignments) / H(labels), with the degenerate
    all-one-label case defined as 1."""
    n = len(labels)
    table = contingency_oracle(labels, assignments)
    row: dict = {}
    col: dict = {}
    for (x, y), c in table.items():
        row[x] = row.get(x, 0) + c
        col[y] = col.get(y, 0) + c
    h_c = _entropy_from_counts(row.values(), n)
    if h_c == 0.0:
        return 1.0
    h_ck = 0.0
    for (x, y), c in table.items():
        h_ck -= (c / n) * math.log(c / col[y])
    return min(max(1.0 - h_ck / h_c, 0.0), 1.0)


# ---------------------------------------------------------------------------
# synthetic data


def _contingency_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise AnalysisError("partition metrics need two equal-length non-empty 1-D arrays")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _entropy_oracle(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def _nmi_earlier(assignments: np.ndarray, labels: np.ndarray) -> float:
    table = _contingency_oracle(assignments, labels)
    n = table.sum()
    ha = _entropy_oracle(table.sum(axis=1))
    hb = _entropy_oracle(table.sum(axis=0))
    if ha == 0.0 and hb == 0.0:
        return 1.0
    if np.all((table > 0).sum(axis=0) <= 1) and np.all((table > 0).sum(axis=1) <= 1):
        return 1.0
    pij = table / n
    pa = table.sum(axis=1) / n
    pb = table.sum(axis=0) / n
    nz = pij > 0
    mi = float((pij[nz] * np.log(pij[nz] / np.outer(pa, pb)[nz])).sum())
    value = mi / ((ha + hb) / 2.0)
    return float(min(max(value, 0.0), 1.0))


def _homogeneity_earlier(assignments: np.ndarray, labels: np.ndarray) -> float:
    table = _contingency_oracle(assignments, labels)
    n = table.sum()
    h_c = _entropy_oracle(table.sum(axis=0))
    if h_c == 0.0:
        return 1.0
    h_c_given_k = 0.0
    for row in table:
        total = row.sum()
        if total:
            h_c_given_k += (total / n) * _entropy_oracle(row)
    value = 1.0 - h_c_given_k / h_c
    return float(min(max(value, 0.0), 1.0))


def partition_metrics_oracle(assignments, labels) -> tuple[float, float]:
    return _nmi_earlier(assignments, labels), _homogeneity_earlier(assignments, labels)


def _cell_index_oracle(v: np.ndarray) -> np.ndarray:
    if v.min() < 0 or v.max() >= v.size:
        return np.unique(v, return_inverse=True)[1]
    return v


def _one_table_oracle(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise AnalysisError("partition metrics need two equal-length non-empty 1-D arrays")
    a, b = _cell_index_oracle(a), _cell_index_oracle(b)
    rows, cols = int(a.max()) + 1, int(b.max()) + 1
    return np.bincount(a * cols + b, minlength=rows * cols).reshape(rows, cols)


def partition_metrics_one_table_oracle(assignments, labels) -> tuple[float, float]:
    table = _one_table_oracle(assignments, labels)
    n = table.sum()
    clusters, classes = table.sum(axis=1), table.sum(axis=0)
    h_k, h_c = _entropy_oracle(clusters), _entropy_oracle(classes)
    nz = table > 0
    rows, cols = np.nonzero(nz)
    counts = table[nz]

    if h_k == 0.0 and h_c == 0.0:
        score = 1.0
    elif (nz.sum(axis=0) <= 1).all() and (nz.sum(axis=1) <= 1).all():
        score = 1.0
    else:
        pij = counts / n
        mi = float((pij * np.log(pij / ((clusters / n)[rows] * (classes / n)[cols]))).sum())
        score = float(min(max(mi / ((h_k + h_c) / 2.0), 0.0), 1.0))
    if h_c == 0.0:
        return score, 1.0

    p = counts / clusters[rows]
    p *= np.log(p)
    h_c_given_k, start = 0.0, 0
    for total, end in zip(clusters, nz.sum(axis=1).cumsum()):
        if total:
            h_c_given_k += (total / n) * float(-p[start:end].sum())
        start = end
    return score, float(min(max(1.0 - h_c_given_k / h_c, 0.0), 1.0))


def sbm_generate_oracle(block_sizes, p_in, p_out, feature_means, noise_sigma, rng) -> Graph:
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
    iu, iv = np.triu_indices(n, k=1)
    probs = np.where(labels[iu] == labels[iv], p_in, p_out)
    keep = rng.uniform(size=iu.size) < probs
    edges = np.stack([iu[keep], iv[keep]], axis=1)
    features = means[labels] + noise_sigma * rng.normal(size=(n, means.shape[1]))
    return Graph(edges, features, labels)


def canonical_partitions(n: int, max_cells: int = 3) -> list:
    """All label vectors of n items into at most max_cells cells, one
    representative per set partition (cells numbered by first appearance)."""
    out = []
    vec = [0] * n

    def grow(i: int, used: int):
        if i == n:
            out.append(tuple(vec))
            return
        for c in range(min(used + 1, max_cells)):
            vec[i] = c
            grow(i + 1, max(used, c + 1))

    grow(0, 0)
    return out


def adam_step_oracle(state: dc.AdamState) -> None:
    """The library's earlier Adam step, kept as it was: six temporaries per
    parameter.  The reference for `dc.adam_step`'s bits.  Like it, it steps
    a parameter with no gradient as if it were zero and then releases
    every gradient."""
    for p in state.params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
        if not np.all(np.isfinite(p.grad)):
            raise OptimizationError(f"non-finite gradient for parameter {p.name!r}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for p in state.params:
        if state.weight_decay != 0.0:
            p.data *= 1.0 - state.lr * state.weight_decay
        m = state.m[p.name]
        v = state.v[p.name]
        m *= BETA1
        m += (1.0 - BETA1) * p.grad
        v *= BETA2
        v += (1.0 - BETA2) * (p.grad * p.grad)
        mhat = m / bc1
        vhat = v / bc2
        p.data -= state.lr * mhat / (np.sqrt(vhat) + EPS)
        p.grad = None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint_v1_oracle(state, config, path: str, final_loss: float | None = None) -> None:
    """The library's earlier checkpoint writer, kept as it was: format
    version 1, every parameter an `<f8` blob."""
    params = []
    for p in state.parameters():
        payload = np.ascontiguousarray(p.data, dtype="<f8")
        params.append(
            {
                "name": p.name,
                "shape": list(p.data.shape),
                "data": base64.b64encode(payload.tobytes()).decode("ascii"),
            }
        )
    doc = {
        "format_version": 1,
        "precision": dc.get_precision(),
        "config": config.to_dict(),
        "num_features": state.num_features,
        "parameters": params,
        "final_loss": final_loss,
        "epochs": config.num_epochs,
        "seed": config.seed,
    }
    write_json(path, doc)


# ---------------------------------------------------------------------------
# k-means


def _sq_dists_oracle(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    d2 = (
        np.sum(x * x, axis=1)[:, None]
        + np.sum(centroids * centroids, axis=1)[None, :]
        - 2.0 * (x @ centroids.T)
    )
    return np.maximum(d2, 0.0)


def _kmeans_once_oracle(x: np.ndarray, k: int, max_iters: int, tol: float, rng) -> KMeansResult:
    n = x.shape[0]
    # k-means++ seeding: first centroid uniform, then distance^2-weighted
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    closest = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(closest.sum())
        if total <= 0.0:
            centroids[j:] = x[first]
            break
        r = rng.uniform() * total
        idx = int(np.searchsorted(np.cumsum(closest), r))
        centroids[j] = x[min(idx, n - 1)]
        closest = np.minimum(closest, np.sum((x - centroids[j]) ** 2, axis=1))

    trace: list[float] = []
    assignments = np.zeros(n, dtype=np.int64)
    for _ in range(max_iters):
        d2 = _sq_dists_oracle(x, centroids)
        assignments = np.argmin(d2, axis=1)
        trace.append(float(d2[np.arange(n), assignments].sum()))
        new_centroids = centroids.copy()
        for j in range(k):
            members = assignments == j
            if members.any():
                new_centroids[j] = x[members].mean(axis=0)
            else:
                # empty cluster: re-seed at the point farthest from its
                # centroid, unless that distance is rounding noise
                nearest = d2[np.arange(n), assignments]
                far = int(np.argmax(nearest))
                c = centroids[assignments[far]]
                if nearest[far] > _SEED_EXACT_BELOW * (x[far] @ x[far] + c @ c):
                    new_centroids[j] = x[far]
                    assignments[far] = j
        shift = float(np.max(np.sqrt(np.sum((new_centroids - centroids) ** 2, axis=1))))
        centroids = new_centroids
        if shift < tol:
            break
    d2 = _sq_dists_oracle(x, centroids)
    assignments = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(n), assignments].sum())
    trace.append(inertia)
    return KMeansResult(assignments, inertia, trace)


def kmeans_serial_oracle(
    embeddings: np.ndarray,
    k: int,
    restarts: int = 10,
    max_iters: int = 300,
    tol: float = 1e-6,
    rng=None,
) -> KMeansResult:
    """The library's first k-means, kept as it was: restarts run one after
    another, each iteration scores its k centroids with its own product and
    averages each cluster separately.  The reference for the lockstep one."""
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"embeddings must be a matrix, got shape {x.shape}")
    if not 1 <= k <= x.shape[0]:
        raise AnalysisError(f"k must be in [1, {x.shape[0]}], got {k}")
    if rng is None:
        rng = dc.RngStream(0, "kmeans")
    best: KMeansResult | None = None
    for r in range(restarts):
        result = _kmeans_once_oracle(x, k, max_iters, tol, rng.child(r))
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def _sq_dists_lockstep_oracle(a, aa, b, bb):
    prod = a @ b.T
    prod *= 2.0
    d2 = np.add.outer(aa, bb)
    d2 -= prod
    return np.maximum(d2, 0.0, out=d2)


def _assign_lockstep_oracle(x, xx, centroids):
    m, k, d = centroids.shape
    flat = centroids.reshape(m * k, d)
    d2 = _sq_dists_lockstep_oracle(x, xx, flat, np.sum(flat * flat, axis=1)).reshape(-1, m, k)
    assignments = np.argmin(d2, axis=2)
    inertias = np.ascontiguousarray(np.min(d2, axis=2).T).sum(axis=1)
    return d2, assignments, inertias


def _seed_dists_lockstep_oracle(x, xx, picks):
    d2 = _sq_dists_lockstep_oracle(x[picks], xx[picks], x, xx)
    rows, cols = np.nonzero(d2 <= _SEED_EXACT_BELOW * np.add.outer(xx[picks], xx))
    d2[rows, cols] = np.sum((x[cols] - x[picks[rows]]) ** 2, axis=1)
    return d2


def _kmeans_pp_lockstep_oracle(x, xx, k, rngs):
    n = x.shape[0]
    first = np.array([int(rng.integers(0, n)) for rng in rngs])
    centroids = np.empty((len(rngs), k, x.shape[1]))
    centroids[:, 0] = x[first]
    seeding = np.arange(len(rngs))
    closest = _seed_dists_lockstep_oracle(x, xx, first)
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
            closest[seeding] = np.minimum(closest[seeding], _seed_dists_lockstep_oracle(x, xx, picks))
    return centroids


def _update_one_by_one_lockstep_oracle(x, d2, assignments, centroids):
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


def kmeans_oracle(
    embeddings: np.ndarray, k: int, rng, restarts: int = 10, max_iters: int = 300
) -> KMeansResult:
    """The library's earlier lockstep k-means, kept as it was (with its
    seeding and empty-cluster update): one distance product and one one-hot
    product per iteration over every restart still moving."""
    x = np.asarray(embeddings, dtype=np.float64)
    n = x.shape[0]
    xx = np.empty(n)
    for start, stop in dc.row_blocks(*x.shape):
        xx[start:stop] = np.sum(np.square(x[start:stop]), axis=1)
    centroids = _kmeans_pp_lockstep_oracle(x, xx, k, [rng.child(r) for r in range(restarts)])
    traces: list[list[float]] = [[] for _ in range(restarts)]

    active = np.arange(restarts)
    for _ in range(max_iters):
        if active.size == 0:
            break
        m = active.size
        old = centroids[active]
        d2, assignments, inertias = _assign_lockstep_oracle(x, xx, old)
        cells = (assignments + k * np.arange(m)).T
        counts = np.bincount(cells.ravel(), minlength=m * k).reshape(m, k)
        onehot = np.zeros((m * k, n))
        onehot[cells, np.arange(n)] = 1.0
        new = (onehot @ x).reshape(m, k, -1)
        new /= np.maximum(counts, 1)[:, :, None]
        for a in np.flatnonzero((counts == 0).any(axis=1)):
            new[a] = _update_one_by_one_lockstep_oracle(x, d2[:, a], assignments[:, a].copy(), old[a])
        shifts = np.max(np.sqrt(np.sum((new - old) ** 2, axis=2)), axis=1)
        centroids[active] = new
        for r, inertia in zip(active, inertias):
            traces[r].append(float(inertia))
        active = active[~(shifts < 1e-6)]

    _, assignments, inertias = _assign_lockstep_oracle(x, xx, centroids)
    best = 0
    for r in range(restarts):
        traces[r].append(float(inertias[r]))
        if inertias[r] < inertias[best]:
            best = r
    return KMeansResult(np.ascontiguousarray(assignments[:, best]), float(inertias[best]), traces[best])


def similarity_histograms_oracle(
    embeddings: np.ndarray, graph: Graph, rng, bins: int = 50, subsample_pairs: int | None = None
) -> SimilarityHistograms:
    """The library's earlier similarity histograms, kept as they were apart
    from their refusal of full pairs above 5000 nodes: the full-pair path
    indexes the n x n Gram matrix with np.triu_indices, adjacency comes
    from a scipy CSR matrix, and np.histogram bins each population."""
    import scipy.sparse as sp

    x = np.asarray(embeddings, dtype=np.float64)
    n = graph.num_nodes
    if x.shape[0] != n:
        raise ShapeError(f"embeddings rows {x.shape[0]} != |V| {n}")
    norms = np.linalg.norm(x, axis=1)
    if np.any(norms < 1e-12):
        raise DegenerateEmbeddingError(f"row {int(np.argmin(norms))} has near-zero norm")
    xn = x / norms[:, None]

    if subsample_pairs is None:
        iu, iv = np.triu_indices(n, k=1)
        sims = (xn @ xn.T)[iu, iv]
        subsampled = False
    else:
        iu = rng.integers(0, n, size=subsample_pairs)
        iv = rng.integers(0, n - 1, size=subsample_pairs)
        iv = np.where(iv >= iu, iv + 1, iv)
        sims = np.einsum("ij,ij->i", xn[iu], xn[iv])
        subsampled = True
    sims = np.clip(sims, -1.0, 1.0)

    ones = np.ones(graph.csr_targets.size, dtype=np.int8)
    a = sp.csr_matrix((ones, graph.csr_targets, graph.csr_offsets), shape=(n, n))
    adjacent = np.asarray(a[iu, iv]).ravel() > 0

    edges = np.linspace(-1.0, 1.0, bins + 1)

    def hist(values: np.ndarray) -> np.ndarray:
        return np.histogram(values, bins=edges)[0]

    same = diff = None
    if graph.labels is not None:
        label_match = graph.labels[iu] == graph.labels[iv]
        same = hist(sims[label_match])
        diff = hist(sims[~label_match])
    return SimilarityHistograms(
        bin_edges=edges,
        neighbor=hist(sims[adjacent]),
        non_neighbor=hist(sims[~adjacent]),
        same_label=same,
        diff_label=diff,
        num_pairs=int(iu.shape[0]),
        subsampled=subsampled,
    )
