"""Graph construction, file ingestion, normalized adjacency, and homophily analytics.

Graphs are undirected and unweighted, stored in CSR form (symmetric, no
self-loops, no duplicates).  Node count is fixed by the feature matrix;
edge endpoints must index into it.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .diffcore import Tensor, active_dtype, check_finite, record_backward, row_blocks
from .errors import AnalysisError, ConfigError, IngestionError, ShapeError, not_utf8

if TYPE_CHECKING:  # scipy is imported only where a sparse matrix is built
    import scipy.sparse as sp


class Graph:
    """Immutable undirected graph with node features and optional labels.

    Built from an (m, 2) array of possibly messy directed edges: self-loops
    are dropped and duplicate/reverse duplicates collapse into one undirected
    edge; a warning reports how many of each were discarded.  The feature
    rows fix the node count, and labels, when given, are class indices in
    [0, num_classes) with num_classes = max(label) + 1.

    `csr_targets[csr_offsets[u]:csr_offsets[u+1]]` lists the neighbors of u
    in increasing order; `csr_sources` holds the row u of each entry.
    """

    def __init__(self, edges, features, labels=None):
        # in the active precision: training and inference read these rows in
        # place, and an array already in it is not copied
        self.features = np.asarray(features, dtype=active_dtype())
        if self.features.ndim != 2:
            raise ShapeError(f"features must be (num_nodes, F), got {self.features.shape}")
        n = self.num_nodes = self.features.shape[0]
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ShapeError(f"edge endpoints must lie in [0, {n})")

        # each undirected edge is the key lo*n+hi; with its reverse added,
        # the sorted keys are the CSR entries in row-major order.  A key is
        # kept where it differs from the one before it: np.unique's keys,
        # without its import of numpy.ma
        lo, hi = edges.min(axis=1), edges.max(axis=1)
        loops = lo == hi
        keys = np.sort(lo[~loops] * n + hi[~loops])
        fresh = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        num_loops = int(loops.sum())
        num_dupes = edges.shape[0] - num_loops - keys.size
        if num_loops or num_dupes:
            warnings.warn(f"dropped {num_loops} self-loop(s) and {num_dupes} duplicate edge(s)")
        lo, hi = np.divmod(keys, n)
        self.csr_sources, self.csr_targets = np.divmod(np.sort(np.concatenate([keys, hi * n + lo])), n)
        self.csr_offsets = np.searchsorted(self.csr_sources, np.arange(n + 1))

        self.labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        self.num_classes = None
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise ShapeError(f"labels must have length {n}, got {self.labels.shape}")
            if n and self.labels.min() < 0:
                raise ShapeError("labels must be non-negative")
            self.num_classes = int(self.labels.max()) + 1 if n else 0

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


# ---------------------------------------------------------------------------
# file ingestion


_BLOCK_BYTES = 1 << 18  # feature CSV bytes the kernel reads per block
_TOKEN_BYTES = 24  # longest token the kernel converts itself: three 8-digit words

# The kernel is exact only where np.longdouble is the x87 80-bit format: its
# 64-bit significand holds every mantissa below 10^19 and 10^0..10^27, so
# mantissa / 10^k is one correctly rounded division, and rounding that to a
# double gives float()'s double except on a midpoint (see _midpoints).
_X87_LONGDOUBLE = np.finfo(np.longdouble).nmant == 63 and np.dtype(np.longdouble).itemsize == 16
_WORD_STARTS = np.arange(-_TOKEN_BYTES, 0, 8)[:, None]  # a token's three words, from its end
# _BYTE_MASKS[:, c]: the three words with the first c bytes set
_BYTE_MASKS = np.array(
    [[(1 << 8 * min(max(c - 8 * w, 0), 8)) - 1 for c in range(_TOKEN_BYTES + 1)] for w in range(3)],
    dtype=np.uint64,
)
# _SCALES[split + 25 * negative]: the signed divisor of a token whose dot
# sits left of column split (split 0: no dot)
_TENS = np.multiply.accumulate(np.array([1] + [10] * (_TOKEN_BYTES - 1), dtype=np.longdouble))
_SCALES = np.concatenate([[1], _TENS[::-1], [-1], -_TENS[::-1]])
_WINDOW_PAD = b"0" * (_TOKEN_BYTES + 1)  # before a block, so its first tokens have full words


def _read_features(path: str) -> np.ndarray:
    """Parse a feature CSV, bit for bit as `float()` parses each token.

    The vectorized kernel takes a file of comma-separated rows of equal width
    whose bytes are all in `0-9 . , - + e E` and newlines, and returns it in
    the active precision; every other file, and every file whose errors need
    a line number, goes through the line loop, which returns f64.
    """
    if _X87_LONGDOUBLE:
        features = _parse_features(path)
        if features is not None:
            return features
    return _read_features_lines(path)


def _parse_features(path: str) -> np.ndarray | None:
    """The kernel: the parsed features in the active precision, or None to
    leave the file to the loop.  Each block is rounded to f64, as `float()`
    rounds, and then to the output's dtype, so an f32 parse holds no f64
    copy of the whole file."""
    # it reads a file twice, so a pipe goes to the loop unopened
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        width = fh.readline().count(b",") + 1
        fh.seek(0)
        rows, last = 0, b"\n"
        while block := fh.read(_BLOCK_BYTES):
            rows += block.count(b"\n")
            last = block[-1:]
        rows += last != b"\n"
        if rows == 0:
            return None
        fh.seek(0)

        out = np.empty(rows * width, dtype=active_dtype())
        filled = 0
        while data := fh.read(_BLOCK_BYTES):
            chunk = _WINDOW_PAD + data + fh.readline()  # whole lines only
            if not chunk.endswith(b"\n"):
                chunk += b"\n"
            count = _parse_block(chunk, width, out[filled:])
            if count is None:
                return None
            filled += count
    # short or long only if the file changed between the two passes
    return out.reshape(rows, width) if filled == out.size else None


def _parse_block(chunk: bytes, width: int, out: np.ndarray) -> int | None:
    """Parse the lines in chunk[25:] into out[:count] and return count, or
    return None if the loop must take the file."""
    pad = len(_WINDOW_PAD)
    buf = np.frombuffer(chunk, dtype=np.uint8)
    body = buf[pad:]
    # '+' to '9', 'e', 'E' and newline; '/' among them fails float() below
    allowed = (body - np.uint8(43)) <= 14
    allowed |= (body | 32) == 101
    allowed |= body == 10
    if not allowed.all():
        return None
    ends = np.flatnonzero((buf == 44) | (buf == 10))
    count = ends.size
    starts = np.empty_like(ends)
    starts[0] = pad
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if count % width or count > out.size:
        return None
    newline = buf[ends] == 10
    if np.count_nonzero(newline) * width != count or not newline[width - 1 :: width].all():
        return None

    # the dot splits a token's last 24 bytes at column `split` (0: no dot)
    dots = np.flatnonzero(body == 46) + pad
    dot_token = np.searchsorted(ends, dots)
    split = np.zeros(count, dtype=np.intp)
    split[dot_token] = dots + (_TOKEN_BYTES + 1) - ends[dot_token]
    long = lengths > _TOKEN_BYTES
    split[long] = 0
    negative = buf[starts] == 45
    num_digits = np.minimum(lengths, _TOKEN_BYTES) - negative - (split > 0)

    # those bytes as three rows of little-endian words, the first byte lowest;
    # the bytes left of the dot move one column right over it, and the
    # columns left of the digits become '0'
    unaligned = np.ndarray((len(chunk) - 7,), dtype=np.uint64, buffer=chunk, strides=(1,))
    words = unaligned.take(ends + _WORD_STARTS)
    shifted = words << 8
    shifted[1:] |= words[:-1] >> 56
    words ^= (shifted ^ words) & _BYTE_MASKS.take(split, axis=1)
    words ^= (words ^ 0x3030303030303030) & _BYTE_MASKS.take(_TOKEN_BYTES - num_digits, axis=1)

    not_digit = ((words + 0x4646464646464646) | (words - 0x3030303030303030)) & 0x8080808080808080
    chunks = _eight_digits(words)
    mantissa = chunks[0] * 10**16 + chunks[1] * 10**8 + chunks[2]
    quotient = mantissa.astype(np.longdouble)
    quotient /= _SCALES[split + negative * (_TOKEN_BYTES + 1)]
    values = quotient.astype(np.float64)

    slow = long | (num_digits == 0) | (chunks[0] >= 1000)
    slow |= (not_digit[0] | not_digit[1] | not_digit[2]) != 0
    slow |= _midpoints(quotient)
    for i in np.flatnonzero(slow):
        try:
            values[i] = float(chunk[starts[i] : ends[i]])
        except ValueError:
            return None
    # a value beyond f32's range becomes inf; load_graph refuses it by row
    with np.errstate(over="ignore"):
        out[:count] = values
    return count


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The integer each uint64 of 8 ASCII digits spells (SWAR multiply-shifts)."""
    words = ((words & 0x0F0F0F0F0F0F0F0F) * 2561) >> 8
    words = ((words & 0x00FF00FF00FF00FF) * 6553601) >> 16
    return ((words & 0x0000FFFF0000FFFF) * 42949672960001) >> 32


def _midpoints(quotient: np.ndarray) -> np.ndarray:
    """Where a 64-bit significand lies halfway between two doubles.

    Rounding the correctly rounded quotient to a double again gives the
    correctly rounded double everywhere else; there it may not.
    """
    return (quotient.view(np.uint64)[::2] & 0x7FF) == 0x400


def _read_features_lines(path: str) -> np.ndarray:
    rows: list[list[float]] = []
    width = None
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
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


_ID_DIGITS = 18  # longest node id the fast path converts: below 2**63


def _read_edges(path: str, num_nodes: int) -> np.ndarray:
    """Parse an edge list into an (m, 2) int64 array.

    The vectorized path takes a file whose bytes are all ASCII digits,
    spaces, tabs and newlines, with two ids in range on each non-blank line;
    every other file, and every file whose errors need a line number, goes
    through the line loop.
    """
    edges = _parse_edges(path, num_nodes)
    return edges if edges is not None else _read_edges_lines(path, num_nodes)


def _parse_edges(path: str, num_nodes: int) -> np.ndarray | None:
    """The vectorized path: the edges, or None to leave the file to the loop."""
    # the loop reads the file again, so a pipe goes to it unopened
    if not os.path.isfile(path):
        return None
    with open(path, "rb") as fh:
        buf = np.frombuffer(fh.read(), dtype=np.uint8)
    digit = (buf - np.uint8(48)) < 10
    newline = buf == 10
    if not (digit | newline | (buf == 32) | (buf == 9)).all():
        return None
    # an id is a run of digits: it starts after a non-digit and stops before one
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    last = digit.copy()
    last[:-1] &= ~digit[1:]
    starts = np.flatnonzero(first)
    stops = np.flatnonzero(last) + 1
    if starts.size == 0:
        return None
    # every line holds two ids or none
    line_starts = np.flatnonzero(newline) + 1
    line_starts = np.r_[0, line_starts[line_starts < buf.size]]
    if not np.isin(np.add.reduceat(first, line_starts, dtype=np.int64), (0, 2)).all():
        return None
    lengths = stops - starts
    if lengths.max() > _ID_DIGITS:
        return None
    ids = np.zeros(starts.size, dtype=np.int64)
    for k in range(int(lengths.max())):
        # the k-th digit from the right, zero where an id is shorter
        d = buf.take(stops - 1 - k).astype(np.int64)
        d -= 48
        d *= lengths > k
        d *= 10**k
        ids += d
    if ids.max() >= num_nodes:
        return None
    return ids.reshape(-1, 2)


def _read_edges_lines(path: str, num_nodes: int) -> np.ndarray:
    pairs: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
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
    with open(path, "r", encoding="utf-8-sig") as fh:
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


def load_graph(edge_path, feature_path, label_path=None) -> Graph:
    """Load a graph from an edge list, a feature CSV, and optional labels.

    The feature file fixes the node count; every edge endpoint must be a
    valid row index, and every feature value must be finite in the active
    precision (under f32, a value beyond its range overflows).  Directed
    input edges are symmetrized.  Each file is UTF-8 text and may start with
    a byte-order mark.
    """
    try:
        features = _decoding(_read_features, feature_path)
        # the kernel's array is already in the active precision and is kept
        # as it is; the line loop's f64 array is cast here.  Under f32 a value
        # beyond its range becomes inf, refused below
        with np.errstate(over="ignore"):
            features = features.astype(active_dtype(), copy=False)
        num_nodes = features.shape[0]
        for start, stop in row_blocks(*features.shape):
            bad = ~np.isfinite(features[start:stop]).all(axis=1)
            if bad.any():
                row = start + int(np.argmax(bad))
                # under f32 the value may be finite in the file and overflow in the cast
                cast = "" if features.dtype == np.float64 else f" as {features.dtype}"
                raise IngestionError(f"{feature_path}: feature row {row} holds a non-finite value{cast}")
        edges = _decoding(_read_edges, edge_path, num_nodes)
        labels = _decoding(_read_labels, label_path, num_nodes) if label_path is not None else None
    except OSError as exc:
        raise IngestionError(f"cannot read {exc.filename}: {exc.strerror}") from None
    return Graph(edges, features, labels)


def _decoding(read, path, *args):
    """read(path, *args), with a file that is not UTF-8 text as an IngestionError."""
    try:
        return read(path, *args)
    except UnicodeDecodeError as exc:
        raise IngestionError(not_utf8(path, exc)) from None


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
    rows = np.concatenate([g.csr_sources, np.arange(n)])
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
        return (adj @ g,)

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


def local_homophily(g: Graph) -> HomophilyReport:
    """Per-node same-label neighbor counts and ratios, with histograms."""
    if g.labels is None:
        raise AnalysisError("local homophily requires labels")
    n = g.num_nodes
    deg = g.degrees
    same = (g.labels[g.csr_sources] == g.labels[g.csr_targets]).astype(np.int64)
    counts = np.bincount(g.csr_sources, weights=same, minlength=n).astype(np.int64)
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
    edges = [np.empty((0, 2), dtype=np.int64)]
    for r0, r1 in row_blocks(n - 1, n):
        iu, iv = np.nonzero(cols > np.arange(r0, r1)[:, None])
        iu += r0
        probs = np.where(labels[iu] == labels[iv], p_in, p_out)
        keep = rng.uniform(size=iu.size) < probs
        edges.append(np.stack([iu[keep], iv[keep]], axis=1))
    edges = np.concatenate(edges)
    features = means[labels] + noise_sigma * rng.normal(size=(n, means.shape[1]))
    return Graph(edges, features, labels)
