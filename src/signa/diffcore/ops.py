"""Differentiable operations over Tensors.

Each operation computes its forward value eagerly and attaches a closure
that maps the output gradient to one gradient per input (None for an input
that needs none).  `backward` replays those closures in reverse topological
order from a scalar loss and adds each gradient into its input's node.
The recorded graph is single-use: after `backward` the links are released
and a second call on the same loss raises.  Only tensors that `needs_grad`
(Parameters and what is computed from them) take part; the others get no
closure, so a forward over constants keeps nothing alive.

A closure captures only the arrays its backward reads, never a Tensor, so
an op's input lives on only if some backward needs it.  Ops allocate only
what they keep: an activation keeps a boolean mask, its input (prelu)
or its own output (elu, whose derivative is out + 1 below zero), and
layer_norm its standardized input.  The relu mask is formed only for an
output that needs a gradient.

These are the ops the training tape records, together with the
custom-op API (`Tensor`, `record_backward`, `check_finite`, `logistic`)
through which `graphdata.spmm` and the blocked contrastive loss add their
own.

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


def record_backward(out: Tensor, backward_fn) -> Tensor:
    """Attach `backward_fn` to `out` and return it (public for custom ops).

    `backward_fn` maps the upstream gradient to a tuple with one gradient
    per parent of `out`, in `_parents` order; an entry may be None, and is
    dropped for a parent that needs no gradient.  It should capture the
    arrays it reads, not the parent Tensors.  A tensor that needs no
    gradient gets no closure: nothing would call it, and it would keep the
    op's temporaries alive.
    """
    if out._node is not None:
        out._node.backward = backward_fn
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

    Each side is formed, and its operand kept, only when that input needs
    a gradient.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")
    out = Tensor(a.data @ b.data, _parents=(a, b))
    check_finite("matmul", out.data)
    a_data = a.data if b.needs_grad else None  # dL/db reads a
    b_data = b.data if a.needs_grad else None  # dL/da reads b

    def _bw(g):
        return (
            None if b_data is None else g @ b_data.T,
            None if a_data is None else a_data.T @ g,
        )

    return record_backward(out, _bw)


# ---------------------------------------------------------------------------
# elementwise


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor(a.data + b.data, _parents=(a, b))
    a_shape, b_shape = a.data.shape, b.data.shape

    def _bw(g):
        return _unbroadcast(g, a_shape), _unbroadcast(g, b_shape)

    return record_backward(out, _bw)


def logistic(d: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-d)) on a plain array, without overflow for large |d|.

    With t = exp(-|d|) this is 1 / (1 + t) where d >= 0 and t / (1 + t)
    elsewhere.  `out` may be d itself; one array of d's size is allocated
    for 1 + t.
    """
    pos = d >= 0
    t = np.abs(d, out=out)
    np.negative(t, out=t)
    np.exp(t, out=t)
    denom = t + 1.0
    t[pos] = 1.0
    t /= denom
    return t


# ---------------------------------------------------------------------------
# neural-network layers


def dropout(x: Tensor, p: float, rng, training: bool) -> Tensor:
    """Inverted dropout: zero entries with probability p, scale by 1/(1-p).

    Inference mode is the exact identity and consumes no randomness; the
    same holds for p == 0 in training mode.  Dropout on a tensor that needs
    no gradient (the input features) draws the same mask.  The tape keeps
    the boolean mask, not the input.
    """
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = rng.uniform(size=x.data.shape) >= p
    scale = 1.0 / (1.0 - p)
    kept = x.data * keep
    kept *= scale
    out = Tensor(kept, _parents=(x,))

    def _bw(g):
        return (g * keep * scale,)

    return record_backward(out, _bw)


def layer_norm(x: Tensor, gain: Parameter, bias: Parameter, eps: float = 1e-5) -> Tensor:
    """Per-row standardization (population variance) with affine gain/bias.

    The tape keeps the standardized input and the per-row inverse
    deviation, not the input.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.data.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match width {d}"
        )
    mu = np.mean(x.data, axis=1, keepdims=True)
    xhat = x.data - mu  # centered here, standardized in place below
    var = np.mean(xhat * xhat, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv
    normed = xhat * gain.data
    normed += bias.data
    out = Tensor(normed, _parents=(x, gain, bias))
    check_finite("layer_norm", out.data)
    gain_data = gain.data

    def _bw(g):
        gx = g * gain_data
        m1 = np.mean(gx, axis=1, keepdims=True)
        m2 = np.mean(gx * xhat, axis=1, keepdims=True)
        return inv * (gx - m1 - xhat * m2), np.sum(g * xhat, axis=0), np.sum(g, axis=0)

    return record_backward(out, _bw)


ACTIVATIONS = ("relu", "elu", "prelu", "leaky_relu")


def _leaky_factor(pos: np.ndarray, s: float, dtype: np.dtype) -> np.ndarray:
    """d out / d in of a leaky relu with slope s where `pos` marks d > 0, in
    the input's dtype (a float factor would make an f32 gradient f64)."""
    return np.where(pos, dtype.type(1.0), dtype.type(s))


def activation(x: Tensor, kind: str, slope=None) -> Tensor:
    """Elementwise nonlinearity.

    `prelu` takes its slope as a one-element Tensor: a Parameter receives
    a gradient, a constant (a frozen encoder's) does not; `leaky_relu` takes
    a fixed float slope.  The tape keeps a boolean mask (relu, leaky_relu),
    the output (elu), which the next op may hold anyway, or the input
    (prelu, whose slope gradient reads it).
    """
    d = x.data
    dtype = d.dtype
    if kind == "relu":
        out = Tensor(np.maximum(d, 0.0), _parents=(x,))
        pos = d > 0 if out.needs_grad else None

        def _bw(g):
            return (g * pos,)

    elif kind == "elu":
        elu = np.minimum(d, 0.0)
        np.exp(elu, out=elu)
        elu -= 1.0
        np.copyto(elu, d, where=d > 0)
        out = Tensor(elu, _parents=(x,))

        def _bw(g):
            # d out / d in is out + 1 below zero, (exp(d) - 1) + 1, which can
            # differ from exp(d) in the last bit; above zero out + 1 >= 1.
            # The gradient overwrites the factor, so the backward adds one
            # array of x's size to the tape's, not two.
            factor = elu + 1.0
            np.minimum(factor, 1.0, out=factor)
            return (np.multiply(g, factor, out=factor),)

    elif kind == "leaky_relu":
        if slope is None:
            raise ConfigError("leaky_relu requires a float slope")
        s = float(slope)
        pos = d > 0
        leaky = s * d
        np.copyto(leaky, d, where=pos)
        out = Tensor(leaky, _parents=(x,))

        def _bw(g):
            return (g * _leaky_factor(pos, s, dtype),)

    elif kind == "prelu":
        if not isinstance(slope, Tensor):
            raise ConfigError("prelu requires a slope Tensor")
        s = float(slope.data.reshape(-1)[0])
        leaky = s * d
        np.copyto(leaky, d, where=d > 0)
        out = Tensor(leaky, _parents=(x, slope))
        slope_shape = slope.data.shape

        def _bw(g):
            return (
                g * _leaky_factor(d > 0, s, dtype),
                np.array([np.sum(g * d * (d <= 0))], dtype=dtype).reshape(slope_shape),
            )

    else:
        raise ConfigError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")
    return record_backward(out, _bw)


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(node, g: np.ndarray) -> None:
    """Add one gradient into a node: in place into a Parameter's buffer,
    by a fresh sum elsewhere (the first gradient may be an array another
    node also holds)."""
    if node.persistent:
        node.grad += g
    elif node.grad is None:
        node.grad = g
    else:
        node.grad = node.grad + g


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dParam into every reachable Parameter's grad.

    Only nodes that need a gradient are visited; a tensor that needs none
    has no node, so the walk never reaches past it.  The tape is consumed:
    graph links are dropped afterwards and calling backward twice on the
    same loss raises a ContractError.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._consumed:
        raise ContractError("backward called on an already-consumed tape")
    loss._consumed = True
    if loss._node is None:  # no Parameter reaches the loss
        return

    topo = []
    seen: set[int] = set()
    stack = [(loss._node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))

    loss._node.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node.backward is None or node.grad is None:
            continue
        grads = node.backward(node.grad)
        node.grad = None  # fully pushed to the parents; free it before the rest runs
        if not isinstance(grads, tuple) or len(grads) != len(node.parents):
            raise ContractError(f"a backward must return a tuple of {len(node.parents)} gradients, one per parent")
        for parent, g in zip(node.parents, grads):
            if parent is not None and g is not None:
                _accumulate(parent, g)

    for node in topo:
        node.backward = None
        node.parents = ()
        if not node.persistent:
            node.grad = None
