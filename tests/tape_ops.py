"""Test-side autodiff kit: the tape ops, gradient check, graph and draw
accessors and draw checks that only the tests use.

The ops use only the public custom-op API of `signa.diffcore` (`Tensor`,
`record_backward`, `check_finite`, `logistic`), as `graphdata.spmm` and the
blocked loss op do: proof that the API suffices.  Each backward closure
returns one gradient per parent and captures arrays, never Tensors.
Elementwise ops broadcast as numpy does, with gradients summed back down to
each input's shape; `log` demands strictly positive input (clamp first).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from signa import diffcore as dc
from signa.contrast import ContrastDraw
from signa.errors import ConfigError, ContractError, DegenerateEmbeddingError, NumericError, ShapeError
from signa.graphdata import Graph


def _as_tensor(x) -> dc.Tensor:
    return x if isinstance(x, dc.Tensor) else dc.Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# tape ops


def transpose(x: dc.Tensor) -> dc.Tensor:
    if x.data.ndim != 2:
        raise ShapeError(f"transpose expects a matrix, got shape {x.data.shape}")
    out = dc.Tensor(x.data.T, _parents=(x,))

    def _bw(g):
        return (g.T,)

    return dc.record_backward(out, _bw)


def add(a, b) -> dc.Tensor:
    """a + b with broadcasting: the encoder's bias sum before `dc.activation`
    took the bias, and the reference its fused sum is checked against."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = dc.Tensor(a.data + b.data, _parents=(a, b))
    a_shape, b_shape = a.data.shape, b.data.shape

    def _bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return dc.record_backward(out, _bw)


def sub(a, b) -> dc.Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = dc.Tensor(a.data - b.data, _parents=(a, b))
    a_shape, b_shape = a.data.shape, b.data.shape

    def _bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(-g, b_shape)

    return dc.record_backward(out, _bw)


def hadamard(a, b) -> dc.Tensor:
    """Elementwise product (with broadcasting)."""
    a, b = _as_tensor(a), _as_tensor(b)
    out = dc.Tensor(a.data * b.data, _parents=(a, b))
    a_data, b_data = a.data, b.data

    def _bw(g):
        return _unbroadcast(g * b_data, a_data.shape), _unbroadcast(g * a_data, b_data.shape)

    return dc.record_backward(out, _bw)


def scalar_mul(x: dc.Tensor, c: float) -> dc.Tensor:
    c = float(c)
    out = dc.Tensor(x.data * c, _parents=(x,))

    def _bw(g):
        return (g * c,)

    return dc.record_backward(out, _bw)


def log(x: dc.Tensor) -> dc.Tensor:
    if np.any(x.data <= 0.0):
        raise NumericError("log requires strictly positive input; clamp before taking logs")
    out = dc.Tensor(np.log(x.data), _parents=(x,))
    x_data = x.data

    def _bw(g):
        return (g / x_data,)

    return dc.record_backward(out, _bw)


def exp(x: dc.Tensor) -> dc.Tensor:
    e = np.exp(x.data)
    dc.check_finite("exp", e)
    out = dc.Tensor(e, _parents=(x,))

    def _bw(g):
        return (g * e,)

    return dc.record_backward(out, _bw)


def sigmoid(x: dc.Tensor) -> dc.Tensor:
    s = dc.logistic(x.data)
    out = dc.Tensor(s, _parents=(x,))

    def _bw(g):
        return (g * s * (1.0 - s),)

    return dc.record_backward(out, _bw)


def clamp(x: dc.Tensor, lo: float, hi: float) -> dc.Tensor:
    """Clip values into [lo, hi]; gradient is zero outside the interval."""
    out = dc.Tensor(np.clip(x.data, lo, hi), _parents=(x,))
    inside = (x.data >= lo) & (x.data <= hi)

    def _bw(g):
        return (g * inside,)

    return dc.record_backward(out, _bw)


def tsum(x: dc.Tensor, axis: int | None = None, keepdims: bool = False) -> dc.Tensor:
    out = dc.Tensor(np.sum(x.data, axis=axis, keepdims=keepdims), _parents=(x,))
    shape = x.data.shape

    def _bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return dc.record_backward(out, _bw)


def rows_l2_normalize(x: dc.Tensor) -> dc.Tensor:
    """Scale each row to unit Euclidean norm.

    Backward accounts for the norm's dependence on the whole row:
    dL/dx = (g - y * <g, y>_row) / ||x||.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"rows_l2_normalize expects a matrix, got shape {x.data.shape}")
    norms = np.sqrt(np.sum(x.data * x.data, axis=1, keepdims=True))
    if np.any(norms < 1e-12):
        row = int(np.argmin(norms))
        raise DegenerateEmbeddingError(f"row {row} has near-zero norm ({float(norms[row, 0]):.3e})")
    y = x.data / norms
    out = dc.Tensor(y, _parents=(x,))

    def _bw(g):
        dots = np.sum(g * y, axis=1, keepdims=True)
        return ((g - y * dots) / norms,)

    return dc.record_backward(out, _bw)


# ---------------------------------------------------------------------------
# finite-difference gradient verification


@dataclass
class GradCheckReport:
    max_rel_err: float
    passed: bool
    worst_param: str = ""
    worst_index: tuple = ()


def gradcheck(fn, params: list[dc.Parameter], tol=1e-5, h=1e-6, abs_floor=1e-5) -> GradCheckReport:
    """Check d fn() / d param for every entry of every parameter against
    central differences and report the worst relative error.

    `fn` must be a zero-argument callable rebuilding the scalar loss from
    the live parameter values each call (tapes are single-use).

    Entries where both gradients fall below `abs_floor` are compared
    absolutely: central differences carry noise of roughly |f|*1e-16/h, so
    ratios of near-zero gradients measure rounding, not correctness.  A
    failed comparison is reported, never raised.
    """
    if dc.get_precision() != "f64":
        raise ContractError("gradcheck requires f64 precision")

    for p in params:
        p.grad = None
    dc.backward(fn())
    analytic = {p.name: np.zeros_like(p.data) if p.grad is None else p.grad for p in params}
    for p in params:
        p.grad = None

    report = GradCheckReport(max_rel_err=0.0, passed=True)
    for p in params:
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = float(fn().data)
            flat[i] = orig - h
            f_minus = float(fn().data)
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = float(analytic[p.name].reshape(-1)[i])
            denom = max(abs(a), abs(numeric))
            err = abs(a - numeric) if denom < abs_floor else abs(a - numeric) / denom
            if err > report.max_rel_err:
                report.max_rel_err = err
                report.worst_param = p.name
                report.worst_index = np.unravel_index(i, p.data.shape)
    report.passed = report.max_rel_err <= tol
    return report


# ---------------------------------------------------------------------------
# graphs, mask draws and the discriminator


def neighbors(graph: Graph, u: int) -> np.ndarray:
    return graph.csr_targets[graph.csr_offsets[u] : graph.csr_offsets[u + 1]]


def positives(draw: ContrastDraw, u: int) -> np.ndarray:
    return draw.pos_targets[draw.pos_offsets[u] : draw.pos_offsets[u + 1]]


def membership(draw: ContrastDraw) -> np.ndarray:
    """Dense boolean matrix M[u, v] = (v in P_u)."""
    m = np.zeros((draw.num_nodes, draw.num_nodes), dtype=bool)
    m[np.repeat(np.arange(draw.num_nodes), draw.pos_counts), draw.pos_targets] = True
    return m


def validate_draw(draw: ContrastDraw, graph: Graph) -> None:
    """Check the P_u invariants of a draw against the generating graph."""
    for u in range(draw.num_nodes):
        pos = positives(draw, u)
        if u not in pos:
            raise ConfigError(f"anchor {u} missing from its own positive set")
        rest = pos[pos != u]
        if not np.isin(rest, neighbors(graph, u)).all():
            raise ConfigError(f"anchor {u} has a non-neighbor positive")


def discriminator_norm(z_u: np.ndarray, z_v: np.ndarray) -> float:
    """D = (cos(z_u, z_v) + 1) / 2, the [0, 1]-ranged cosine discriminator."""
    z_u = np.asarray(z_u, dtype=np.float64).reshape(-1)
    z_v = np.asarray(z_v, dtype=np.float64).reshape(-1)
    nu, nv = np.linalg.norm(z_u), np.linalg.norm(z_v)
    if nu < 1e-12 or nv < 1e-12:
        raise DegenerateEmbeddingError(f"discriminator input has near-zero norm ({nu:.3e}, {nv:.3e})")
    cos = float(np.dot(z_u, z_v) / (nu * nv))
    return (cos + 1.0) / 2.0
