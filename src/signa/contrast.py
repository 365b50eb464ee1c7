"""Stochastic neighbor masking and the contrastive loss estimators.

Each epoch, every directed neighbor pair (u, v) independently keeps v as a
positive for anchor u with probability 1-alpha; the anchor itself is always
a positive.  Everything outside P_u is a negative.  Three estimators score
the resulting draw: the normalized-JSD loss (cosine-based discriminator),
a plain JSD variant (sigmoid of inner products), and an InfoNCE variant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, DegenerateGraphError, ShapeError
from .graphdata import Graph

ESTIMATOR_KINDS = ("norm_jsd", "jsd", "info_nce")


@dataclass
class ContrastDraw:
    """One epoch's realized positive sets, in CSR form over anchors.

    `pos_targets[pos_offsets[u]:pos_offsets[u+1]]` lists P_u in increasing
    order; u itself is always present.  Negatives are implicit: V \\ P_u.
    """

    num_nodes: int
    pos_offsets: np.ndarray
    pos_targets: np.ndarray
    epoch: int = 0

    @property
    def pos_counts(self) -> np.ndarray:
        return np.diff(self.pos_offsets)


def draw_masks(graph: Graph, alpha: float, rng: dc.RngStream, epoch: int = 0) -> ContrastDraw:
    """Sample one epoch's positive sets: keep each directed neighbor pair
    with probability 1-alpha, then add the anchor itself."""
    if not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"mask rate must be in [0, 1], got {alpha}")
    n = graph.num_nodes
    keep = rng.uniform(size=graph.csr_targets.size) >= alpha
    all_src = np.concatenate([graph.csr_sources[keep], np.arange(n)])
    all_tgt = np.concatenate([graph.csr_targets[keep], np.arange(n)])
    order = np.lexsort((all_tgt, all_src))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(all_src, minlength=n), out=offsets[1:])
    return ContrastDraw(n, offsets, all_tgt[order], epoch)


@dataclass
class EstimatorSpec:
    """Which contrastive objective to use and its numeric knobs."""

    kind: str = "norm_jsd"
    temperature: float = 0.5
    clamp_eps: float = 1e-7

    def __post_init__(self):
        if self.kind not in ESTIMATOR_KINDS:
            raise ConfigError(f"estimator kind must be one of {ESTIMATOR_KINDS}, got {self.kind!r}")
        if self.temperature <= 0.0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")
        if not 0.0 < self.clamp_eps < 0.5:
            raise ConfigError(f"clamp_eps must be in (0, 0.5), got {self.clamp_eps}")


# ---------------------------------------------------------------------------
# the three estimators, as one row-blocked op

# Entries in one strip of a pairwise score matrix: strips hold max(1, this // n)
# rows, so a pass needs O(B*n + n*d) memory and never an n x n array.
_BLOCK_ELEMS = 2**20
# rows shorter than this have no direction: `unit_rows` divides them by it
NORM_FLOOR = 1e-12


def pair_strips(n: int):
    """Yield the (r0, r1) bounds of the row strips of an n x n score matrix,
    for the loss and the similarity histograms: `_BLOCK_ELEMS` is read at
    call time, and the last strip may have one row (the loss's float sums
    depend on where strips split, so unlike `dc.row_blocks` this never
    moves a split).  n = 0 yields no strip."""
    step = max(1, _BLOCK_ELEMS // max(n, 1))
    for r0 in range(0, n, step):
        yield r0, min(n, r0 + step)


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x / norms, norms), with norms = max(||x_i||, NORM_FLOOR) an (n, 1) column,
    as torch.nn.functional.normalize divides: a zero row (dropout can zero
    all of a node's features) stays zero and scores 0 against every row."""
    norms = np.sqrt(np.sum(x * x, axis=1, keepdims=True))
    np.maximum(norms, NORM_FLOOR, out=norms)
    return x / norms, norms


def _side_loss(log_neg, pos, d_pos, neg_w, axis):
    """Loss per anchor of one side of a JSD strip.

    The anchors are the rows (axis=1) or the columns (axis=0) of log(1-D).
    pos = (i, j, w) places their positives, each with weight
    w = -1/(n|P_u|), and d_pos holds their clamped D; anchor k's negatives
    weigh neg_w[k] = -1/(n|Q_u|).  The positives leave the negative sum
    while it is taken, and log_neg is left as it was.
    """
    i, j, w = pos
    kept = log_neg[i, j]
    log_neg[i, j] = 0.0
    loss = neg_w * log_neg.sum(axis=axis)
    log_neg[i, j] = kept
    loss += np.bincount(j if axis == 0 else i, weights=w * np.log(d_pos), minlength=neg_w.size)
    return loss


def _side_grad(one_minus, pos, d_pos, neg_w, axis, out):
    """dLoss/dD of one side of a JSD strip from its 1-D, written into `out`."""
    i, j, w = pos
    g = np.divide(-(neg_w if axis == 0 else neg_w[:, None]), one_minus, out=out)
    g[i, j] = w / d_pos
    return g


def _jsd_block(s, row_pos, col_pos, neg_w, kind, eps):
    """Per-anchor loss and dLoss/dS of one strip of the two JSD estimators.

    `s` scores the strip's b anchors against themselves and every later
    node.  D is symmetric, so an entry right of the first b columns also
    scores its column's node as anchor against its row's: the strips cover
    every ordered pair once.  row_pos / col_pos place the row and column
    anchors' positives (col_pos relative to column b); neg_w[c] is
    -1/(n|Q_u|) of column c's node.  Returns both sides' losses and dL/dS.

    The strip works in two arrays of its size: `s` becomes D, then 1-D,
    and its right part the column side's gradient; a second array holds
    log(1-D), then the row side's gradient, then dL/dS.  jsd's sigmoid
    slope D(1-D) takes a third.
    """
    b = s.shape[0]
    if kind == "norm_jsd":
        s += 1.0
        s *= 0.5
        slope = 0.5
    else:
        dc.logistic(s, out=s)
        slope = 1.0 - s
        slope *= s
    inside = s >= eps  # the clamp's ends count as inside
    inside &= s <= 1.0 - eps
    np.clip(s, eps, 1.0 - eps, out=s)
    right = np.s_[:, b:]
    (ri, rj, _), (ci, cj, _) = row_pos, col_pos
    d_row, d_col = s[ri, rj], s[right][ci, cj]
    one_minus = np.subtract(1.0, s, out=s)
    log_neg = np.log(one_minus)
    col_loss = _side_loss(log_neg[right], col_pos, d_col, neg_w[b:], axis=0)
    row_loss = _side_loss(log_neg, row_pos, d_row, neg_w[:b], axis=1)
    g = _side_grad(one_minus, row_pos, d_row, neg_w[:b], axis=1, out=log_neg)
    g[right] += _side_grad(one_minus[right], col_pos, d_col, neg_w[b:], axis=0, out=one_minus[right])
    g *= inside
    g *= slope
    return row_loss, col_loss, g


def _info_nce_block(s, r0, rows, cols, pos_w, tau):
    """Per-anchor loss and dLoss/dS of one InfoNCE block, whose first anchor is r0.

    Each row is whole, so its max and log-sum-exp over w != u are exact.
    (rows, cols) are the positives other than the anchor, with weight
    pos_w = -1/(n * max(1, |P_u| - 1)).  `s` becomes the logits, then their
    softmax, then dL/dS.
    """
    b = s.shape[0]
    s *= 1.0 / tau
    s[np.arange(b), np.arange(r0, r0 + b)] = -np.inf  # w != u
    row_max = s.max(axis=1)
    pos_logits = s[rows, cols]
    s -= row_max[:, None]
    p = np.exp(s, out=s)
    denom = p.sum(axis=1)
    log_denom = np.log(denom) + row_max
    loss = np.bincount(rows, weights=pos_w * (pos_logits - log_denom[rows]), minlength=b)
    # d/dlogits of sum_v w log softmax = w_v - (sum_v w_v) softmax
    p *= (-np.bincount(rows, weights=pos_w, minlength=b) / denom).astype(s.dtype)[:, None]
    p[rows, cols] += pos_w
    p *= 1.0 / tau
    return loss, p


def estimator_loss(z: dc.Tensor, draw: ContrastDraw, spec: EstimatorSpec) -> dc.Tensor:
    """The mean anchor loss of `spec.kind` on the projected embeddings z.

    * norm_jsd: the mean over anchors of -(1/|P_u|) sum_{v in P_u} log D
      - (1/|Q_u|) sum_{v in Q_u} log(1-D), with D = (cos(z_u, z_v)+1)/2,
      clamped to [clamp_eps, 1-clamp_eps].
    * jsd: the same objective with the unnormalized D = sigmoid(z_u . z_v).
    * info_nce: softmax contrast at temperature tau: positives from
      P_u \\ {u}, denominator over all w != u.  Anchors whose only positive
      is themselves contribute zero; the per-anchor average uses the
      realized positive count, so equal similarities give exactly
      log(|V| - 1).

    The loss is one tape node, streamed in `pair_strips`: each block of B
    anchors is scored, its loss terms added and dLoss/dS pushed into dLoss/dz
    in the same pass, so the backward only scales the stored gradient.
    InfoNCE scores whole rows.  The JSD kinds' D is symmetric, so their
    blocks score only the strip from the diagonal on, which halves the
    matrix products.  Positives come from the CSR draw.
    """
    n = draw.num_nodes
    if z.data.ndim != 2 or z.data.shape[0] != n:
        raise ShapeError(f"Z must be ({n}, d), got {z.data.shape}")
    kind, eps, tau = spec.kind, spec.clamp_eps, spec.temperature
    x = z.data
    anchors = np.repeat(np.arange(n), draw.pos_counts)
    targets = draw.pos_targets
    if n < 2:  # no anchor has a negative
        raise DegenerateGraphError(f"the {kind} loss needs at least two nodes, got {n}")
    if kind == "info_nce":
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
        zn, norms = unit_rows(x)
    # the loss's node, made now so that z's array dies here unless the
    # caller holds it (jsd scores it as zn); its value is filled in below
    out = dc.Tensor(0.0, _parents=(z,))
    del z, x

    if kind != "info_nce":  # positives by target, for the strips' column anchors
        by_target = np.argsort(targets, kind="stable")
        t_targets, t_anchors = targets[by_target], anchors[by_target]

    per_anchor = np.zeros(n)
    dzn = np.zeros_like(zn)
    for r0, r1 in pair_strips(n):
        c0 = 0 if kind == "info_nce" else r0
        lo, hi = np.searchsorted(anchors, (r0, r1))
        keep = targets[lo:hi] >= c0
        row_anchors = anchors[lo:hi][keep]
        row_pos = (row_anchors - r0, targets[lo:hi][keep] - c0, w_pos[row_anchors])
        s = zn[r0:r1] @ zn[c0:].T
        dc.check_finite("pairwise scores", s)
        if kind == "info_nce":
            per_anchor[r0:r1], g = _info_nce_block(s, r0, *row_pos, tau)
        else:
            lo, hi = np.searchsorted(t_targets, (r0, r1))
            keep = t_anchors[lo:hi] >= r1
            col_anchors = t_anchors[lo:hi][keep]
            col_pos = (t_targets[lo:hi][keep] - r0, col_anchors - r1, w_pos[col_anchors])
            row_loss, col_loss, g = _jsd_block(s, row_pos, col_pos, w_neg[r0:], kind, eps)
            per_anchor[r0:r1] += row_loss
            per_anchor[r1:] += col_loss
        del s  # only dL/dS stays alive through the products
        dzn[r0:r1] += g @ zn[c0:]
        dzn[c0:] += g.T @ zn[r0:r1]
        del g

    if kind != "jsd":  # through the row normalization: (dzn - zn <dzn, zn>_row) / ||z||
        scratch = dzn * zn
        np.multiply(zn, np.sum(scratch, axis=1, keepdims=True), out=scratch)
        dzn -= scratch
        dzn /= norms
    out.data[...] = per_anchor.sum()  # rounds as the Tensor cast does

    def _bw(g):
        return (dzn * g,)

    return dc.record_backward(out, _bw)
