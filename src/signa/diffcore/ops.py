"""Differentiable operations over Tensors.

Each operation computes its forward value eagerly and attaches a closure
that maps the output gradient to gradient contributions for its inputs.
`backward` replays those closures in reverse topological order from a
scalar loss.  The recorded graph is single-use: after `backward` the links
are released and a second call on the same loss raises.  Only tensors that
`needs_grad` (Parameters and what is computed from them) take part; the
others get no closure, so a forward over constants keeps nothing alive.

These are the ops the training tape records, together with the
custom-op API (`Tensor`, `record_backward`, `accumulate_grad`,
`check_finite`, `logistic`) through which `graphdata.spmm` and the
blocked contrastive loss add their own.

Conventions:
  * `add` follows numpy broadcasting, with gradients summed back down to
    each input's shape;
  * operations that can manufacture non-finite values from finite input
    (matmul, layer_norm) verify finiteness of their output.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, ContractError, NumericError, ShapeError
from .tensor import Parameter, Tensor

def check_finite(name: str, arr: np.ndarray) -> None:
    """Raise if arr holds NaN/Inf."""
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} produced non-finite values")


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add a gradient contribution to a tensor (public for custom ops).

    A tensor that needs no gradient drops the contribution.
    """
    if not t.needs_grad:
        return
    if isinstance(t, Parameter):
        t.grad += g
    elif t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def record_backward(out: Tensor, backward_fn) -> Tensor:
    """Attach `backward_fn` (upstream gradient -> contributions to the
    parents) to `out` and return it (public for custom ops).

    A tensor that needs no gradient gets none: nothing would call it, and
    its closure would keep the op's inputs and temporaries alive.
    """
    if out.needs_grad:
        out._backward = backward_fn
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, undoing numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b with gradients dL/da = g bT, dL/db = aT g.

    Backward forms each side only when that input needs it.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b))
    check_finite("matmul", out.data)

    def _bw(g):
        if a.needs_grad:
            accumulate_grad(a, g @ b.data.T)
        if b.needs_grad:
            accumulate_grad(b, a.data.T @ g)

    return record_backward(out, _bw)


# ---------------------------------------------------------------------------
# elementwise


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, _parents=(a, b))

    def _bw(g):
        accumulate_grad(a, _unbroadcast(g, a.data.shape))
        accumulate_grad(b, _unbroadcast(g, b.data.shape))

    return record_backward(out, _bw)


def logistic(d: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-d)) on a plain array, without overflow for large |d|."""
    s = np.empty_like(d)
    pos = d >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    ez = np.exp(d[~pos])
    s[~pos] = ez / (1.0 + ez)
    return s


# ---------------------------------------------------------------------------
# neural-network layers


def dropout(x: Tensor, p: float, rng, training: bool) -> Tensor:
    """Inverted dropout: zero entries with probability p, scale by 1/(1-p).

    Inference mode is the exact identity and consumes no randomness; the
    same holds for p == 0 in training mode.  Dropout on a tensor that needs
    no gradient (the input features) draws the same mask.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = rng.uniform(size=x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    out = Tensor(x.data * keep * scale, _parents=(x,))

    def _bw(g):
        accumulate_grad(x, g * keep * scale)

    return record_backward(out, _bw)


def layer_norm(x: Tensor, gain: Parameter, bias: Parameter, eps: float = 1e-5) -> Tensor:
    """Per-row standardization (population variance) with affine gain/bias."""
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match width {d}"
        )
    mu = np.mean(x.data, axis=1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data, _parents=(x, gain, bias))
    check_finite("layer_norm", out.data)

    def _bw(g):
        accumulate_grad(gain, np.sum(g * xhat, axis=0))
        accumulate_grad(bias, np.sum(g, axis=0))
        gx = g * gain.data
        m1 = np.mean(gx, axis=1, keepdims=True)
        m2 = np.mean(gx * xhat, axis=1, keepdims=True)
        accumulate_grad(x, inv * (gx - m1 - xhat * m2))

    return record_backward(out, _bw)


ACTIVATIONS = ("relu", "elu", "prelu", "leaky_relu")


def _leaky_factor(d: np.ndarray, s: float) -> np.ndarray:
    """d out / d in of a leaky relu with slope s, in d's dtype (a float
    factor would make an f32 gradient f64)."""
    return np.where(d > 0, d.dtype.type(1.0), d.dtype.type(s))


def activation(x: Tensor, kind: str, slope=None) -> Tensor:
    """Elementwise nonlinearity.

    `prelu` takes its slope as a one-element Tensor: a Parameter receives
    a gradient, a constant (a frozen encoder's) does not; `leaky_relu` takes
    a fixed float slope.
    """
    d = x.data
    if kind == "relu":
        out = Tensor(np.maximum(d, 0.0), _parents=(x,))

        def _bw(g):
            accumulate_grad(x, g * (d > 0))

    elif kind == "elu":
        neg = np.exp(np.minimum(d, 0.0)) - 1.0
        out = Tensor(np.where(d > 0, d, neg), _parents=(x,))

        def _bw(g):
            accumulate_grad(x, g * np.where(d > 0, 1.0, neg + 1.0))

    elif kind == "leaky_relu":
        s = float(slope if slope is not None else 0.01)
        out = Tensor(np.where(d > 0, d, s * d), _parents=(x,))

        def _bw(g):
            accumulate_grad(x, g * _leaky_factor(d, s))

    elif kind == "prelu":
        if not isinstance(slope, Tensor):
            raise ConfigError("prelu requires a slope Tensor")
        s = float(slope.data.reshape(-1)[0])
        out = Tensor(np.where(d > 0, d, s * d), _parents=(x, slope))

        def _bw(g):
            accumulate_grad(x, g * _leaky_factor(d, s))
            accumulate_grad(slope, np.array([np.sum(g * d * (d <= 0))], dtype=d.dtype).reshape(slope.data.shape))

    else:
        raise ConfigError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")
    return record_backward(out, _bw)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dParam into every reachable Parameter's grad.

    Only nodes that need a gradient are visited; a tensor that needs none
    keeps no parent links, so the walk never reaches past it.  The tape is
    consumed: graph links are dropped afterwards and calling backward twice
    on the same loss raises a ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._consumed:
        raise ContractError("backward called on an already-consumed tape")
    if not loss.needs_grad:  # no Parameter reaches the loss
        loss._consumed = True
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.needs_grad and id(parent) not in seen:
                stack.append((parent, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None  # fully pushed to the parents; free it before the rest runs

    for node in topo:
        node._consumed = True
        node._backward = None
        node._parents = ()
        if not isinstance(node, Parameter):
            node.grad = None
    loss._consumed = True
