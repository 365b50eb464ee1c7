"""Differentiable operations over Tensors.

Each operation computes its forward value eagerly and attaches a closure
that maps the output gradient to one gradient per input (None for an input
that needs none).  `backward` replays those closures in reverse topological
order from a scalar loss and adds each gradient into its input's node.
The recorded graph is single-use: `backward` releases it as it walks it,
and a second call on the same loss raises.  Only tensors that `needs_grad`
(Parameters and what is computed from them) take part; the others get no
closure, so a forward over constants keeps nothing alive.  What each op
keeps, and when it is freed, is the "Memory" note of `signa.diffcore`.

These are the ops the training tape records, together with the
custom-op API (`Tensor`, `record_backward`, `check_finite`, `logistic`)
through which `graphdata.spmm` and the blocked contrastive loss add their
own, and the block schedules (`spans`, `row_blocks`, `keep_mask`) that the
products and the rest of signa cut.  Every op keeps one rule: it keeps its
input's rebuild when the input has one, else the input.  There is one
product op, `matmul`, which takes the dropout of its left operand: it
keeps the mask, as bits, and that operand, and forms the dropped operand
and the boolean mask one block at a time.  A product of constant features
no wider than it gets a rebuild from those.  The nonlinearities,
`activation` (with the layer's bias) and `layer_norm` (with its gain and
bias), give their output a rebuild from what they keep.  A standalone ELU
keeps its output instead, which its derivative reads.
Operations that can manufacture non-finite values from finite input
(matmul, layer_norm) verify finiteness of their output.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError, ContractError, NumericError, ShapeError
from .tensor import Parameter, Tensor


def check_finite(name: str, arr: np.ndarray) -> None:
    """Raise if arr holds NaN/Inf.  It scans one `row_blocks` block of rows
    at a time, so no boolean array of the whole of arr is formed."""
    blocks = [arr] if arr.ndim == 0 else (arr[a:b] for a, b in row_blocks(arr.shape[0], math.prod(arr.shape[1:])))
    if not all(np.isfinite(block).all() for block in blocks):
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


# ---------------------------------------------------------------------------
# linear algebra


_BLOCK_ENTRIES = 2**17  # entries of a row block's widest array, and of an Adam block


def spans(count: int, step: int):
    """Yield the (start, stop) bounds of consecutive spans of `step` (at
    least 2) out of `count` rows or columns.

    A span is at least two wide unless `count` < 2: numpy runs a product
    with one row (or, in X^T G, one column of X) as a matrix-vector
    product, whose bits can differ from the matrix-matrix one, so a
    one-wide tail joins the span before it.
    """
    step = max(2, step)
    start = 0
    while start < count:
        stop = start + step if count - start - step > 1 else count
        yield start, stop
        start = stop


def row_blocks(num_rows: int, width: int):
    """The `spans` of row blocks, each about `_BLOCK_ENTRIES` entries of a
    `width`-column array, for the passes whose bits do not depend on the
    block height: linear inference, the probe's test scoring, k-means'
    distances and row norms, the features' and `check_finite`'s finite
    scans, the SBM's rows of node pairs, the dropout masks' uniforms, dL/dx
    times a mask and `layer_norm`'s backward."""
    return spans(num_rows, _BLOCK_ENTRIES // max(width, 1))


def keep_mask(rng, shape: tuple, p: float) -> np.ndarray:
    """`rng.uniform(size=shape) >= p` held as bits: each row (the entries
    of shape[1:], in order) packed by `np.packbits`, one uint8 per 8
    entries.  It is drawn one `row_blocks` block at a time, each block
    packed straight into the result: blocked draws take the same doubles
    from the stream as one draw, and no float or boolean array of the full
    shape is built.  `_unpacked` gives a block of it back as booleans."""
    rows, width = shape[0], math.prod(shape[1:])
    keep = np.empty((rows, -(-width // 8)), np.uint8)
    for start, stop in row_blocks(rows, width):
        keep[start:stop] = np.packbits(rng.uniform(size=(stop - start, width)) >= p, axis=1)
    return keep


def _unpacked(keep: np.ndarray, c0: int, c1: int) -> np.ndarray:
    """Columns c0:c1 of the packed mask `keep` (rows of it, when `keep` is
    a row slice) as a boolean array; c0 is a multiple of 8, as every `spans`
    start of `_GRAD_COLUMNS` is."""
    return np.unpackbits(keep[:, c0 // 8 : -(-c1 // 8)], axis=1, count=c1 - c0).view(bool)


_FORWARD_ROWS = 1024  # rows of its dropped input `matmul` forms at a time
_GRAD_COLUMNS = 512  # columns of X a weight gradient X^T g forms at a time


def _operand(x: Tensor):
    """What an op keeps of its input x: x's rebuild when it has one (a
    `matmul` product of the features, a `layer_norm` or `activation`
    output), so the tape keeps no array of x's, else x's array.  Read it
    with `_columns`."""
    return x.data if x.rebuild is None else x.rebuild


def _columns(kept, c0: int, c1: int) -> np.ndarray:
    """Columns c0:c1 (entries, of a vector) of what `_operand` kept: a view
    of the array, or the rebuild's block.  The caller writes into neither."""
    return kept[..., c0:c1] if isinstance(kept, np.ndarray) else kept(c0, c1)


def _dropped(data: np.ndarray, keep: np.ndarray, scale: float, out=None) -> np.ndarray:
    kept = np.multiply(data, keep, out=out)
    if scale != 1.0:
        kept *= scale
    return kept


def _weight_grad(x, width: int, dtype, g: np.ndarray, keep=None, scale: float = 1.0) -> np.ndarray:
    """dL/dW = X^T g, one block of `_GRAD_COLUMNS` columns of X at a time,
    into one preallocated array.  X is the `width`-column input of `dtype`
    that `_operand` kept, times the packed mask `keep` and `scale` (see
    `_dropped`) when a mask is given.  Each block is rebuilt, or cut from
    the held array, then dropped (in place, in a rebuild's own new block)
    with that block of the mask unpacked, and freed before the next, so
    neither the whole dropped X nor the whole boolean mask is formed.  A
    column block of X gives those rows of the product with the whole
    product's bits, but for a one-column block, which numpy runs as a
    matrix-vector product; `spans` cuts none.
    """
    dw = np.empty((width, g.shape[1]), np.result_type(dtype, g))
    for c0, c1 in spans(width, _GRAD_COLUMNS):
        block = _columns(x, c0, c1)
        if keep is not None:
            own = callable(x) and block.flags.writeable
            block = _dropped(block, _unpacked(keep, c0, c1), scale, out=block if own else None)
        np.matmul(block.T, g, out=dw[c0:c1])
        del block
    return dw


def _product(x: np.ndarray, w: np.ndarray, keep, scale: float) -> np.ndarray:
    """x @ w, or with the packed mask `keep`, the product of x dropped (see
    `_dropped`), its rows formed, unpacked and multiplied `_FORWARD_ROWS`
    at a time: a row block of the product has the whole product's bits,
    but for a one-row block, which `spans` never cuts."""
    if keep is None:
        return x @ w
    product = np.empty((x.shape[0], w.shape[1]), np.result_type(x, w))
    for r0, r1 in spans(len(product), _FORWARD_ROWS):
        np.matmul(_dropped(x[r0:r1], _unpacked(keep[r0:r1], 0, x.shape[1]), scale), w, out=product[r0:r1])
    return product


def _product_rebuild(x: np.ndarray, w: np.ndarray, keep, scale: float):
    """A `Tensor.rebuild` of `_product(x, w, keep, scale)`.  Its first call
    forms the whole product again, in the forward's operations and so with
    its bits, and every call returns a read-only view of columns of that
    one array, which lives as long as the rebuild: until the last tape node
    that keeps it has run."""
    formed = []

    def rebuild(c0: int, c1: int) -> np.ndarray:
        if not formed:
            product = _product(x, w, keep, scale)
            product.flags.writeable = False
            formed.append(product)
        return formed[0][:, c0:c1]

    return rebuild


def matmul(x: Tensor, w: Tensor, p: float = 0.0, rng=None, training: bool = False, rescale: bool = True) -> Tensor:
    """The product x @ w; in training with p > 0, of x under inverted
    dropout (each entry zeroed with probability p, the rest scaled by
    1/(1-p)), and otherwise the plain product, which draws nothing.

    The mask is drawn as bits (`keep_mask`) and the dropped rows are formed
    `_FORWARD_ROWS` at a time (`_product`), so neither a boolean mask nor a
    dropped copy of the whole x is formed.  Without `rescale` a kept entry
    keeps its value (a scale of 1, exact), as feature masking needs.  The
    tape keeps the packed mask, x (its rebuild, when it has one) when w
    needs a gradient, and w when x needs one.  The backward forms dL/dw
    with `_weight_grad`, then dL/dx = g w^T, times the mask and the scale
    one `row_blocks` block at a time.

    When the output needs a gradient and x needs none (the graph's
    features), the output carries a rebuild from what the tape keeps
    anyway, x, w and the mask, so the op that reads the output keeps no
    product.  Only for an x no wider than the output: re-forming the
    product then costs at most one product of the output's width by
    itself, once per backward.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {x.data.shape} @ {w.data.shape}")
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {p}")
    keep, scale = None, 1.0
    if training and p > 0.0:
        keep = keep_mask(rng, x.data.shape, p)
        scale = 1.0 / (1.0 - p) if rescale else 1.0
    out = Tensor(_product(x.data, w.data, keep, scale), _parents=(x, w))
    check_finite("matmul", out.data)
    x_kept = _operand(x) if w.needs_grad else None  # dL/dw reads x
    w_data = w.data if x.needs_grad else None  # dL/dx reads w
    width, dtype = x.data.shape[1], x.data.dtype
    if out.needs_grad and not x.needs_grad and width <= w.data.shape[1]:
        out.rebuild = _product_rebuild(x.data, w.data, keep, scale)

    def _bw(g):
        dw = None if x_kept is None else _weight_grad(x_kept, width, dtype, g, keep, scale)
        if w_data is None:
            return None, dw
        dx = g @ w_data.T
        if keep is not None:
            for r0, r1 in row_blocks(*dx.shape):
                block = dx[r0:r1]
                _dropped(block, _unpacked(keep[r0:r1], 0, width), scale, out=block)
        return dx, dw

    return record_backward(out, _bw)


# ---------------------------------------------------------------------------
# elementwise


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


ACTIVATIONS = ("relu", "elu", "prelu")


def _slope_of(kind: str, slope) -> float | None:
    """The prelu's slope as a float, else None.

    Rejects an unknown kind, and a prelu slope that is not a one-element
    Tensor: a Parameter, or a constant for a fixed slope.
    """
    if kind not in ACTIVATIONS:
        raise ConfigError(f"unknown activation kind {kind!r}; expected one of {ACTIVATIONS}")
    if kind != "prelu":
        return None
    if not isinstance(slope, Tensor):
        raise ConfigError("prelu requires a slope Tensor")
    return float(slope.data.reshape(-1)[0])


def _leaky_factor(pos: np.ndarray, s: float, dtype, out=None) -> np.ndarray:
    """d out / d in of a prelu with slope s, 1 where `pos` (d > 0) and
    s elsewhere, in the input's dtype (a float factor would make an f32
    gradient f64), written into `out` (a new array when None).

    It picks one of the two bit patterns without a branch, as
    (pos * (one ^ s)) ^ s on the unsigned view: np.where and
    copyto(where=) branch on every entry and run several times slower on
    the random signs of a layer's pre-activations.
    """
    bits = np.dtype(f"u{np.dtype(dtype).itemsize}")
    one, slope = np.array([1.0, s], dtype=dtype).view(bits)
    factor = np.multiply(pos, one ^ slope, out=None if out is None else out.view(bits))
    factor ^= slope
    return factor.view(dtype)


_SELECT_ENTRIES = 2**14  # `_or_where`'s scratch: 128 KiB at f64


def _or_where(a: np.ndarray, d: np.ndarray, pos: np.ndarray) -> None:
    """Write d into a where `pos`, for an `a` that is +0 there, without a
    branch (see `_leaky_factor`): d's bits times pos are OR-ed into a's on
    the unsigned views, a few rows at a time in a small scratch."""
    bits = np.dtype(f"u{a.dtype.itemsize}")
    a_bits, d_bits, pos = np.atleast_1d(a.view(bits), d.view(bits), pos)
    step = max(1, _SELECT_ENTRIES // max(1, math.prod(a_bits.shape[1:])))
    scratch = np.empty((min(step, len(a_bits)),) + a_bits.shape[1:], bits)
    for start in range(0, len(a_bits), step):
        rows = slice(start, start + step)
        picked = np.multiply(d_bits[rows], pos[rows], out=scratch[: len(a_bits[rows])])
        a_bits[rows] |= picked


def _activate(kind: str, d: np.ndarray, s: float | None, pos: np.ndarray | None, out=None) -> np.ndarray:
    """The activation of d, written into `out` (a new array when None).
    `pos` is d > 0; relu does not read it."""
    if kind == "relu":
        return np.maximum(d, 0.0, out=out)
    if kind == "elu":
        a = np.minimum(d, 0.0, out=out)
        np.exp(a, out=a)
        a -= 1.0  # +0 where d > 0: exp(0) - 1
        _or_where(a, d, pos)
        return a
    # prelu: d * 1 is d, and d * s is s * d
    factor = _leaky_factor(pos, s, d.dtype, out)
    return np.multiply(d, factor, out=factor)


def _activation_grad(kind: str, g, s, pos, d=None, a=None, out=None, spare=None, slope_shape=None) -> tuple:
    """The activation's gradients for the upstream g: (dL/d input,), and
    for prelu (dL/d input, dL/d slope), the slope's None unless
    `slope_shape` is given (a slope that needs a gradient).

    dL/d input is written into `out` (a new array when None), never into
    g.  relu and prelu read `pos`, the input's d > 0 mask.  The slope
    gradient also reads the input d; it forms g * d * (d <= 0) in `spare`
    (a new array when None, or g itself when the caller owns it: dL/d input
    has read g by then) and turns pos into d <= 0.  The elu reads its
    output `a`, or rebuilds it from d and pos into `out`.
    """
    if kind == "relu":
        return (np.multiply(g, pos, out=out),)
    if kind == "elu":
        # d out / d in is out + 1 below zero, (exp(d) - 1) + 1, which can
        # differ from exp(d) in the last bit; above zero out + 1 >= 1
        if a is None:
            a = _activate(kind, d, s, pos, out=out)
        factor = np.add(a, 1.0, out=out)
        np.minimum(factor, 1.0, out=factor)
        return (np.multiply(g, factor, out=factor),)
    factor = _leaky_factor(pos, s, g.dtype, out)
    gd = np.multiply(g, factor, out=factor)
    if slope_shape is None:
        return gd, None
    prod = np.multiply(g, d, out=spare)
    prod *= np.logical_not(pos, out=pos)
    return gd, np.array([np.sum(prod)], dtype=prod.dtype).reshape(slope_shape)


def activation(x: Tensor, kind: str, slope=None, bias=None) -> Tensor:
    """Elementwise nonlinearity of x + bias (of x when `bias` is None):
    relu, the ELU, or prelu, whose slope is a one-element Tensor.  A
    Parameter slope receives a gradient; a constant one (a frozen
    encoder's, or a fixed leaky slope) gets none, and none is formed.  The
    bias is a row the sum broadcasts; its gradient is the column sums of
    dL/d(x + bias).

    The tape keeps the input x + bias, as `layer_norm` keeps its input, and
    the output carries a `rebuild` of any column block from it, so an op
    that reads the output in its backward keeps that instead of the output
    array.  When x has a rebuild (a product of the features), the tape
    keeps that and the bias instead, and x + bias is formed from them when
    it is read.  The ELU keeps its output, which its derivative reads, and
    carries no rebuild.  An activation that LayerNorm follows runs inside
    `layer_norm`.
    """
    s = _slope_of(kind, slope)
    prelu, elu = kind == "prelu", kind == "elu"
    d = x.data if bias is None else x.data + bias.data
    value = _activate(kind, d, s, None if kind == "relu" else d > 0)
    parents = ((x, slope) if prelu else (x,)) + (() if bias is None else (bias,))
    out = Tensor(value, _parents=parents)
    if not out.needs_grad:  # a frozen forward keeps nothing alive through its output
        return out
    kept, bias_data = (d, None) if x.rebuild is None else (x.rebuild, None if bias is None else bias.data)
    if elu:
        kept = None
    a = out.data if elu else None
    slope_shape = slope.data.shape if prelu and slope.needs_grad else None
    width, biased = d.shape[-1], bias is not None

    def summed(c0: int, c1: int) -> np.ndarray:
        """Columns c0:c1 of x + bias, to be read, not written."""
        block = _columns(kept, c0, c1)
        return block if bias_data is None else block + bias_data[c0:c1]

    def rebuild(c0: int, c1: int) -> np.ndarray:
        """Columns c0:c1 of the output, a new array with the forward's bits."""
        db = summed(c0, c1)
        return _activate(kind, db, s, None if kind == "relu" else db > 0)

    if not elu:
        out.rebuild = rebuild

    def _bw(g):
        db = None if elu else summed(0, width)
        grads = _activation_grad(kind, g, s, None if elu else db > 0, d=db, a=a, slope_shape=slope_shape)
        return grads + (np.sum(grads[0], axis=0),) if biased else grads

    return record_backward(out, _bw)


def _centered(kind: str, d: np.ndarray, s, pos, mu=None):
    """(a - mu, mu) for a the activation of d and mu its row mean, computed
    when not given; a - mu is written into a, one new array."""
    a = _activate(kind, d, s, pos)
    if mu is None:
        mu = np.mean(a, axis=1, keepdims=True)
    return np.subtract(a, mu, out=a), mu


_LAYER_NORM_EPS = 1e-5  # added to each row's variance


def layer_norm(x: Tensor, gain: Parameter, bias: Parameter, kind: str, slope=None) -> Tensor:
    """The activation `kind` (`slope` as for `activation`), then per-row
    standardization (population variance) with affine gain/bias, as one
    op: a LayerNorm after `activation`, bit for bit.

    The tape keeps the activation's input (its rebuild, when it has one:
    a product of the features) and two n x 1 columns, the row mean and the
    inverse deviation: neither the activation's output nor the
    standardized rows.  The backward rebuilds both with the forward's own
    operations and forms two arrays of the input's size, which serve the
    activation's backward too, the mask d > 0 and one row block's scratch.

    The output carries a `rebuild` of any column block from the same
    arrays, in the same operations, so an op that reads the output in its
    backward (`matmul`) keeps that instead of the output array.  Both read
    gain, bias and the slope as they are in the backward: a parameter must
    not change between the forward and the backward.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"layer_norm expects a matrix, got shape {x.data.shape}")
    width = x.data.shape[1]
    if gain.data.shape != (width,) or bias.data.shape != (width,):
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} do not match width {width}"
        )
    s = _slope_of(kind, slope)
    d = x.data
    xhat, mu = _centered(kind, d, s, None if kind == "relu" else d > 0)
    var = np.mean(xhat * xhat, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat *= inv
    normed = xhat * gain.data
    normed += bias.data
    prelu = kind == "prelu"
    out = Tensor(normed, _parents=(x, gain, bias, slope) if prelu else (x, gain, bias))
    check_finite("layer_norm", out.data)
    gain_data, bias_data = gain.data, bias.data
    slope_shape = slope.data.shape if prelu and slope.needs_grad else None
    kept = _operand(x)

    def rebuild(c0: int, c1: int) -> np.ndarray:
        """Columns c0:c1 of the output, a new array with the forward's bits:
        every step but the row mean, which is kept, acts entry by entry."""
        db = _columns(kept, c0, c1)
        block, _ = _centered(kind, db, s, None if kind == "relu" else db > 0, mu)
        block *= inv
        block *= gain_data[c0:c1]
        block += bias_data[c0:c1]
        return block

    if out.needs_grad:  # a frozen forward keeps nothing alive through its output
        out.rebuild = rebuild

    def _bw(g):
        d = _columns(kept, 0, width)
        # one row block's scratch, made before the n x width arrays: made
        # after them, it sat above them on the heap, and a later epoch's
        # peak RSS rose by one such array
        blocks = list(row_blocks(*d.shape))
        rows = max((stop - start for start, stop in blocks), default=0)
        scratch = np.empty((rows, width), d.dtype)
        pos = d > 0
        xhat, _ = _centered(kind, d, s, pos, mu)
        xhat *= inv
        # inv * (gx - m1 - xhat * m2), in the same order, in gx = g * gain,
        # which becomes dL/da.  Every term is a row's own, so it runs one row
        # block at a time, each product with xhat in the scratch; a row's
        # mean has the same bits in a block as in the whole.
        gx = g * gain_data
        for start, stop in blocks:
            gb, xb, t = gx[start:stop], xhat[start:stop], scratch[: stop - start]
            m1 = np.mean(gb, axis=1, keepdims=True)
            np.multiply(gb, xb, out=t)
            m2 = np.mean(t, axis=1, keepdims=True)
            gb -= m1
            np.multiply(xb, m2, out=t)
            gb -= t
            np.multiply(inv[start:stop], gb, out=gb)
        grads = (np.sum(np.multiply(g, xhat, out=xhat), axis=0), np.sum(g, axis=0))
        # xhat's array is free: dL/dd goes there, and prelu's slope product
        # into gx once dL/dd has read it
        gd, *ds = _activation_grad(kind, gx, s, pos, d=d, out=xhat, spare=gx, slope_shape=slope_shape)
        return (gd,) + grads + tuple(ds)

    return record_backward(out, _bw)


# ---------------------------------------------------------------------------
# backward pass


def _accumulate(node, g: np.ndarray) -> None:
    """Add one gradient into a node: the first is kept by reference (a
    Parameter's too), a later one sums into a fresh array, since the first
    may be an array another node also holds."""
    node.grad = g if node.grad is None else node.grad + g


def backward(loss: Tensor) -> None:
    """Hand every reachable Parameter dLoss/dParam as its grad.

    Only nodes that need a gradient are visited; a tensor that needs none
    has no node, so the walk never reaches past it.  The tape is consumed
    node by node as the walk visits it, and calling backward twice on the
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
        _visit(node)


def _visit(node) -> None:
    """Run a node's closure; its share of the tape dies before the next one runs."""
    backward_fn, parents, g = node.backward, node.parents, node.grad
    node.backward, node.parents = None, ()
    if not node.persistent:
        node.grad = None
    if backward_fn is None or g is None:
        return
    grads = backward_fn(g)
    if not isinstance(grads, tuple) or len(grads) != len(parents):
        raise ContractError(f"a backward must return a tuple of {len(parents)} gradients, one per parent")
    for parent, pg in zip(parents, grads):
        if parent is not None and pg is not None:
            _accumulate(parent, pg)
