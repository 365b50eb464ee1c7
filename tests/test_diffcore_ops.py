"""Forward values and backward gradients for every differentiable op, in
`signa.diffcore` and in the test kit `tape_ops.py`.

Every op gets (a) pinned examples small enough to verify by hand, and
(b) gradient checks against central finite differences on 20 random
instances, relative error under 1e-5 in 64-bit mode.
"""

import ast
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import CountsTranspose, assert_drew
import oracles
import tape_ops as kit
from tape_ops import gradcheck

import signa.diffcore as dc
from signa.diffcore import ops
from signa.diffcore import (
    Parameter,
    RngStream,
    Tensor,
    backward,
    set_precision,
)
from signa.errors import (
    ConfigError,
    ContractError,
    DegenerateEmbeddingError,
    NumericError,
    ShapeError,
)

N_INSTANCES = 20
TOL = 1e-5


def _weighted_sum(t: Tensor, w: np.ndarray) -> Tensor:
    """Reduce to a scalar against fixed weights so the upstream gradient
    is not all-ones."""
    return kit.tsum(kit.hadamard(t, Tensor(w)))


def _param(rng, shape, name, lo=-1.0, hi=1.0) -> Parameter:
    return Parameter(rng.uniform(lo, hi, size=shape), name=name)


def _weights(rng, shape) -> np.ndarray:
    return rng.uniform(0.5, 1.5, size=shape)


def _as_prelu(kind, slope):
    """The library's (kind, slope) for a test's: a leaky relu with a float
    slope runs as a prelu with that slope as a constant Tensor, as the
    encoder runs it."""
    return ("prelu", Tensor([slope])) if kind == "leaky_relu" else (kind, slope)


def _run_gradchecks(make_fn_and_params, n=N_INSTANCES):
    for i in range(n):
        rng = np.random.default_rng(1000 + i)
        fn, params = make_fn_and_params(rng)
        report = gradcheck(fn, params, tol=TOL)
        assert report.passed, (
            f"instance {i}: rel err {report.max_rel_err:.3e} at "
            f"{report.worst_param}{report.worst_index}"
        )


# ---------------------------------------------------------------------------
# pinned forward values


def test_matmul_identity_and_inner_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    np.testing.assert_array_equal(dc.matmul(a, eye).data, a.data)
    row = Tensor([[1.0, 2.0]])
    col = Tensor([[3.0], [4.0]])
    np.testing.assert_array_equal(dc.matmul(row, col).data, [[11.0]])


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        dc.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))


def test_transpose_value():
    x = Tensor([[1.0, 2.0, 3.0]])
    np.testing.assert_array_equal(kit.transpose(x).data, [[1.0], [2.0], [3.0]])


def test_elementwise_values_and_broadcasting():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([10.0, 20.0])
    np.testing.assert_array_equal(kit.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])
    np.testing.assert_array_equal(kit.sub(a, b).data, [[-9.0, -18.0], [-7.0, -16.0]])
    np.testing.assert_array_equal(kit.hadamard(a, b).data, [[10.0, 40.0], [30.0, 80.0]])
    np.testing.assert_array_equal(kit.scalar_mul(a, -2.0).data, [[-2.0, -4.0], [-6.0, -8.0]])


def test_broadcast_backward_sums_down():
    a = Parameter(np.ones((3, 4)), name="a")
    b = Parameter(np.ones(4), name="b")
    backward(kit.tsum(kit.add(a, b)))
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


def test_log_exp_sigmoid_values():
    x = Tensor([1.0, np.e])
    np.testing.assert_allclose(kit.log(x).data, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(kit.exp(Tensor([0.0, 1.0])).data, [1.0, np.e], rtol=1e-15)
    np.testing.assert_allclose(kit.sigmoid(Tensor([0.0])).data, [0.5], atol=1e-15)


def test_sigmoid_is_stable_at_extremes():
    out = kit.sigmoid(Tensor([-1000.0, 1000.0])).data
    assert out[0] == 0.0 and out[1] == 1.0
    assert np.all(np.isfinite(out))


def test_log_rejects_nonpositive():
    with pytest.raises(NumericError, match="strictly positive"):
        kit.log(Tensor([1.0, 0.0]))
    with pytest.raises(NumericError, match="strictly positive"):
        kit.log(Tensor([-1.0]))


def test_clamp_values_and_flat_gradient_outside():
    x = Parameter(np.array([-2.0, 0.3, 2.0]), name="x")
    out = kit.clamp(x, 0.0, 1.0)
    np.testing.assert_array_equal(out.data, [0.0, 0.3, 1.0])
    backward(kit.tsum(out))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_sum_mean_values():
    # a mean is a sum scaled by 1/count
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert float(kit.tsum(x).data) == 10.0
    assert float(kit.scalar_mul(kit.tsum(x), 1 / 4).data) == 2.5
    np.testing.assert_array_equal(kit.tsum(x, axis=0).data, [4.0, 6.0])
    np.testing.assert_array_equal(kit.scalar_mul(kit.tsum(x, axis=1, keepdims=True), 1 / 2).data, [[1.5], [3.5]])


def test_dropout_matmul_keep_rate_and_scale():
    p = 0.4
    x, eye = Tensor(np.ones((300, 300))), Tensor(np.eye(300))
    out = dc.matmul(x, eye, p=p, rng=RngStream(1, "dropout"), training=True)
    vals = out.data.ravel()
    kept = vals != 0.0
    assert abs(kept.mean() - (1 - p)) < 0.01
    np.testing.assert_allclose(vals[kept], 1.0 / (1 - p))
    # inverted scaling keeps the expected activation unchanged
    assert abs(out.data.mean() - 1.0) < 0.01
    # without the rescale (feature masking) a kept entry keeps its value
    out = dc.matmul(x, eye, p=p, rng=RngStream(1, "dropout"), training=True, rescale=False)
    assert set(np.unique(out.data)) == {0.0, 1.0}


def test_dropout_matmul_rejects_bad_rate():
    x, w = Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2)))
    for p, training in ((1.0, True), (-0.1, True), (1.0, False)):
        with pytest.raises(ConfigError, match="dropout rate"):
            dc.matmul(x, w, p=p, rng=RngStream(0, "dropout"), training=training)


@pytest.mark.parametrize("input_needs_grad", [True, False])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_dropout_matmul_equals_matmul_of_dropout_bitwise(precision, input_needs_grad):
    # the one op against the two it replaced: the same output, dL/dx, dL/dW,
    # and the stream left where dropout leaves it
    set_precision(precision)
    rng = np.random.default_rng(21)
    x, w, upstream = rng.normal(size=(37, 11)), rng.normal(size=(11, 5)), rng.normal(size=(37, 5))
    results = []
    for op in (dc.matmul, oracles.dropout_matmul_oracle):
        stream, weight = RngStream(3, "dropout"), Parameter(w, name="w")
        features = Parameter(x, name="x") if input_needs_grad else Tensor(x)
        out = op(features, weight, 0.4, stream, training=True)
        grads = out._node.backward(upstream.astype(out.data.dtype))
        results.append((out.data, grads, stream.uniform(size=3)))
    (new, (new_dx, new_dw), new_next), (old, (old_dx, old_dw), old_next) = results
    assert _same_bits(new, old)
    if input_needs_grad:
        assert _same_bits(new_dx, old_dx)
    else:
        assert new_dx is None and old_dx is None
    assert _same_bits(new_dw, old_dw)
    assert _same_bits(new_next, old_next)


def test_dropout_matmul_without_dropout_is_matmul_and_draws_nothing():
    # inference, and p == 0 in training, are the plain matmul: the same
    # product and, for an input that needs one, the same dL/dx
    w, upstream = Parameter(np.ones((3, 2)), name="w"), np.arange(4.0).reshape(2, 2)
    for x in (Tensor(np.arange(6.0).reshape(2, 3)), Parameter(np.arange(6.0).reshape(2, 3), name="x")):
        for p, training in ((0.4, False), (0.0, True)):
            rng = RngStream(0, "dropout")
            out = dc.matmul(x, w, p=p, rng=rng, training=training)
            assert _same_bits(out.data, x.data @ w.data)
            dx, dw = out._node.backward(upstream)
            assert _same_bits(dw, x.data.T @ upstream)
            assert dx is None if not x.needs_grad else _same_bits(dx, upstream @ w.data.T)
            assert_drew(rng)


def test_dropout_matmul_checks_its_input():
    rng = RngStream(0, "dropout")
    with pytest.raises(ShapeError, match="matmul shape mismatch"):
        dc.matmul(Tensor(np.ones((4, 3))), Parameter(np.ones((2, 5)), name="w"), p=0.5, rng=rng, training=True)
    assert_drew(rng)
    # an input that needs a gradient gets one: the tape reaches it and W
    x, w = Parameter(np.ones((4, 2)), name="x"), Parameter(np.ones((2, 5)), name="w")
    out = dc.matmul(x, w, p=0.5, rng=rng, training=True)
    assert out._node.parents == (x._node, w._node)
    backward(kit.tsum(out))
    assert x.grad is not None and x.grad.shape == (4, 2)
    assert w.grad is not None and w.grad.shape == (2, 5)


def test_dropout_matmul_keeps_the_mask_and_no_dropped_rows():
    # the tape's share is the mask, packed to bits; the dropped input and
    # the mask as booleans are formed one row block at a time in the forward
    # and one column block at a time in the backward, each block freed
    # before the next.  The earlier op formed the whole dropped input (17.6
    # MB here) both times; the op before this one kept its mask as booleans
    # (2.2 MB, 0.275 MB as bits), and its bounds, with that mask and without
    # the boolean blocks, were looser than these.
    x = Tensor(np.random.default_rng(22).normal(size=(2000, 1100)))
    w = Parameter(np.ones((1100, 8)), name="w")
    tracemalloc.start()
    try:
        out = dc.matmul(x, w, p=0.5, rng=RngStream(0, "dropout"), training=True)
        upstream = np.ones_like(out.data)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        (_, dw) = out._node.backward(upstream)
        backward_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (n, width), slack = x.data.shape, 16 * 1024
    mask = n * -(-width // 8)
    row_block, column_block = ops._FORWARD_ROWS * width * 8, n * ops._GRAD_COLUMNS * 8
    mask_row_block, mask_column_block = ops._FORWARD_ROWS * width, n * ops._GRAD_COLUMNS
    # numpy multiplies by the bool mask through a buffer of 8192 entries per
    # operand it must cast or, in a column block, gather
    buffer = 8192 * 8
    assert held <= 2 * out.data.nbytes + mask + slack
    assert peak <= out.data.nbytes + mask + row_block + mask_row_block + buffer + slack
    assert backward_peak <= held + column_block + mask_column_block + dw.nbytes + 2 * buffer + slack


# the encoder's shape classes (n, F, hidden): dense-n4k's layers 0 and 1
# at f64; wide-gconv-n1k's layers 0 and 1 and the Photo preset's layer 0 at
# f32; then widths of two blocks and a column (a one-column block would
# make a matrix-vector product) and of three columns
_PRODUCT_SHAPES = [
    ((4000, 100, 256), "f64"),
    ((4000, 256, 256), "f64"),
    ((1000, 2000, 1024), "f32"),
    ((1000, 1024, 1024), "f32"),
    ((7650, 745, 1024), "f32"),
    ((1000, 2 * 512 + 1, 1024), "f32"),
    ((300, 2 * 512 + 1, 7), "f64"),
    ((300, 3, 7), "f64"),
    ((2 * 1024 + 1, 3, 7), "f64"),
]


@pytest.mark.parametrize("shape, precision", _PRODUCT_SHAPES, ids=["x".join(map(str, s)) + f"-{p}" for s, p in _PRODUCT_SHAPES])
def test_blocked_products_equal_the_whole_products(shape, precision):
    # matmul's dropped forward in row blocks and every dL/dW in column
    # blocks of X, from the held array, through a rebuild, dropped or not,
    # have the bytes of the whole products.  That is a property of the BLAS
    # build, so it is checked here for each shape class the encoder uses.
    set_precision(precision)
    n, width, hidden = shape
    rng = np.random.default_rng(31)
    dtype = dc.active_dtype()
    x = rng.normal(size=(n, width)).astype(dtype)
    w = rng.normal(size=(width, hidden)).astype(dtype)
    g = rng.normal(size=(n, hidden)).astype(dtype)
    keep = _unpacked_mask(ops.keep_mask(RngStream(3, "dropout"), x.shape, 0.4), width)
    dropped = x * keep
    dropped *= 1.0 / (1.0 - 0.4)
    rebuilt = Tensor(x)
    rebuilt.rebuild = lambda c0, c1: x[:, c0:c1].copy()
    for source in (Tensor(x), rebuilt):
        out = dc.matmul(source, Parameter(w, name="w"), p=0.4, rng=RngStream(3, "dropout"), training=True)
        assert _same_bits(out.data, dropped @ w)
        assert _same_bits(out._node.backward(g)[1], dropped.T @ g)
        plain = dc.matmul(source, Parameter(w, name="w"))
        assert _same_bits(plain._node.backward(g)[1], x.T @ g)


# a product of the features: n not a multiple of `_FORWARD_ROWS`, F no
# wider than the output, which is wider than `_GRAD_COLUMNS`
_FEATURE_PRODUCT = (2 * 1024 + 37, 300, 600)


@pytest.mark.parametrize("mode", ["dropout", "plain", "nfm"])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_a_product_of_the_features_rebuilds_with_the_forwards_bits(precision, mode, monkeypatch):
    # the rebuild forms the product once, at its first read, in the
    # forward's operations, and every read of a column block is that block
    # of the forward's output, bit for bit and read-only; it draws nothing
    set_precision(precision)
    n, width, hidden = _FEATURE_PRODUCT
    rng = np.random.default_rng(33)
    x = rng.normal(size=(n, width)).astype(dc.active_dtype())
    w = Parameter(rng.normal(size=(width, hidden)), name="w")
    stream = RngStream(3, "dropout")
    p, rescale = {"dropout": (0.4, True), "plain": (0.0, True), "nfm": (0.3, False)}[mode]
    out = dc.matmul(Tensor(x), w, p, stream, training=True, rescale=rescale)
    forward, state = out.data.copy(), stream._gen.bit_generator.state
    formed = []
    product = ops._product
    monkeypatch.setattr(ops, "_product", lambda *args: formed.append(1) or product(*args))
    for c0, c1 in [(0, 512), (512, hidden), (0, hidden), (3, 9), (hidden - 1, hidden)]:
        block = out.rebuild(c0, c1)
        assert _same_bits(block, forward[:, c0:c1]), (c0, c1)
        assert not block.flags.writeable
    assert len(formed) == 1
    assert stream._gen.bit_generator.state == state


@pytest.mark.parametrize("width", [1, 7, 13, 517, 1029])
def test_packed_masks_round_trip_bit_for_bit(width):
    # the bits of every row block the forward unpacks, and of every column
    # block a backward unpacks, are the boolean draw's; packing the booleans
    # again gives the mask, its padding bits zero
    n = 1024 + 5
    keep = ops.keep_mask(RngStream(4, "dropout"), (n, width), 0.3)
    want = RngStream(4, "dropout").uniform(size=(n, width)) >= 0.3
    assert keep.shape == (n, -(-width // 8)) and keep.dtype == np.uint8
    for r0, r1 in ops.spans(n, ops._FORWARD_ROWS):
        assert np.array_equal(ops._unpacked(keep[r0:r1], 0, width), want[r0:r1])
    for c0, c1 in ops.spans(width, ops._GRAD_COLUMNS):
        block = ops._unpacked(keep, c0, c1)
        assert block.dtype == bool and np.array_equal(block, want[:, c0:c1])
    assert np.packbits(want, axis=1).tobytes() == keep.tobytes()


def test_a_product_of_features_wider_than_the_output_is_kept():
    # F > the output's width: re-forming it would cost more than a product
    # of the output's width, so the output gets no rebuild and the op that
    # reads it keeps its array; at F <= width it keeps the rebuild, and the
    # array dies with the product's Tensor
    rng = np.random.default_rng(34)
    gain, bias = Parameter(np.ones(8), name="g"), Parameter(np.zeros(8), name="b")
    for width, kept in ((9, True), (8, False), (3, False)):
        x = Tensor(rng.normal(size=(20, width)))
        product = dc.matmul(x, Parameter(rng.normal(size=(width, 8)), name="w"), 0.3, RngStream(5, "dropout"), True)
        assert (product.rebuild is None) == kept
        array = weakref.ref(product.data)
        out = dc.layer_norm(product, gain, bias, "relu")
        del product
        assert (array() is not None) == kept, width
        assert out.needs_grad


def test_the_dropout_forward_forms_no_boolean_mask_of_the_whole_input():
    # the mask is drawn into its bits and unpacked a row block at a time:
    # the forward's peak is the output, the bits and one block's uniforms and
    # booleans (the finite check scans a block at a time), under the output
    # plus a boolean n x F mask (6.4 MB)
    n, width, hidden = 200_000, 32, 8
    x = Tensor(np.random.default_rng(35).normal(size=(n, width)))
    w = Parameter(np.ones((width, hidden)), name="w")
    tracemalloc.start()
    try:
        out = dc.matmul(x, w, p=0.5, rng=RngStream(6, "dropout"), training=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bits, slack = n * width // 8, 64 * 1024
    assert held <= out.data.nbytes + bits + slack
    bound = out.data.nbytes + bits + ops._BLOCK_ENTRIES * (8 + 1) + slack
    assert peak <= bound < out.data.nbytes + n * width


# dense-n4k's layers 0 and 1 at f64, wide-gconv-n1k's layer 1 shape at f32:
# shape classes whose row-blocked products have the whole products' bits
_CHAINED = [((4000, 100, 256, 256), "f64"), ((1000, 1024, 1024, 1024), "f32")]


@pytest.mark.parametrize("shape, precision", _CHAINED, ids=[p for _, p in _CHAINED])
def test_a_product_that_reads_a_product_of_the_features_equals_the_oracle(shape, precision):
    # the second product's dL/dW drops each read-only block of the first
    # product's rebuild into a new array; the gradients are the oracle's,
    # which keeps every array
    set_precision(precision)
    n, width, hidden, out_width = shape
    rng = np.random.default_rng(36)
    x = rng.normal(size=(n, width))
    w0, w1 = rng.normal(size=(width, hidden)), rng.normal(size=(hidden, out_width))
    upstream = rng.normal(size=(n, out_width))
    results = []
    for op in (dc.matmul, oracles.dropout_matmul_oracle):
        stream, first, second = RngStream(7, "dropout"), Parameter(w0, name="w0"), Parameter(w1, name="w1")
        h = op(Tensor(x), first, 0.4, stream, training=True)
        assert h.rebuild is not None
        if op is not dc.matmul:  # the oracle's second product keeps h's array
            h.rebuild = None
        out = op(h, second, 0.4, stream, training=True)
        backward(kit.tsum(kit.hadamard(out, Tensor(upstream))))
        results.append((out.data, first.grad, second.grad))
    for new, old in zip(*results):
        assert _same_bits(new, old)


def _layer_norm_traced(kind, slope=None):
    """(bytes the forward leaves held, the backward's peak above what it
    started with, the input, the gradients) of layer_norm on a 2000 x 256
    f64 input, under tracemalloc."""
    x = Parameter(np.random.default_rng(23).normal(size=(2000, 256)), name="x")
    gain, bias = Parameter(np.ones(256), name="g"), Parameter(np.zeros(256), name="b")
    tracemalloc.start()
    try:
        out = dc.layer_norm(x, gain, bias, kind, slope)
        held = tracemalloc.get_traced_memory()[0] - out.data.nbytes
        upstream = np.ones_like(out.data)
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = out._node.backward(upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return held, peak - before, x, grads


# two n x 1 columns, the row mean and inverse deviation, and a few more in
# the backward
_COLUMNS, _SLACK = 2 * 2000 * 8, 256 * 1024
# a row block's product with xhat: 512 rows of 256
_BLOCK = ops._BLOCK_ENTRIES * 8


@pytest.mark.parametrize("kind", ["relu", "elu", "leaky_relu", "prelu"])
def test_layer_norm_with_an_activation_keeps_its_input_and_two_columns(kind):
    # the tape holds the input, which its owner holds anyway, and two n x 1
    # columns: neither the activation's output nor the standardized rows.
    # The backward rebuilds those rows in one array and builds dL/dx in
    # place in g * gain, one row block at a time, each product with xhat in
    # a block-sized array; g * xhat, for the gain's gradient, overwrites
    # xhat.  The activation's backward writes into those two arrays, so the
    # backward forms two, the mask d > 0 and a row block's scratch
    slope = {"prelu": Parameter(np.array([0.25]), name="s"), "leaky_relu": 0.23}.get(kind)
    held, backward_peak, x, grads = _layer_norm_traced(*_as_prelu(kind, slope))
    assert held <= _COLUMNS + _SLACK
    assert backward_peak <= 2 * x.data.nbytes + x.data.size + _BLOCK + _SLACK
    assert len(grads) == (4 if kind in ("prelu", "leaky_relu") else 3)
    assert (kind == "leaky_relu") == (grads[-1] is None)  # a constant slope gets no gradient


@pytest.mark.parametrize("kind", ["relu", "elu", "leaky_relu", "prelu"])
def test_taped_activation_holds_its_input_or_the_elus_output(kind):
    # once the caller has let go of the input and the output, the tape holds
    # one array of their size: the input, from which the backward forms
    # d > 0 and a product rebuilds the output's columns, or the ELU's
    # output, which its derivative reads.  Before, relu and leaky relu kept
    # a bool mask and prelu its input, and the next product kept the output
    # beside either.
    slope = {"prelu": Parameter(np.array([0.25]), name="s"), "leaky_relu": 0.23}.get(kind)
    tracemalloc.start()
    try:
        x = Parameter(np.random.default_rng(23).normal(size=(2000, 256)), name="x")
        out = dc.activation(x, *_as_prelu(kind, slope))
        refs = weakref.ref(x.data), weakref.ref(out.data)
        loss = kit.tsum(out)
        del x, out
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [ref() is not None for ref in refs] == ([False, True] if kind == "elu" else [True, False])
    array = 2000 * 256 * 8
    assert array <= held < array + _SLACK
    backward(loss)
    if kind == "prelu":
        assert slope.grad is not None


def test_layer_norm_constant_row_maps_to_bias():
    x = Tensor(np.full((2, 4), 7.0))
    gain = Parameter(np.ones(4), name="g")
    bias = Parameter(np.array([1.0, 2.0, 3.0, 4.0]), name="b")
    out = dc.layer_norm(x, gain, bias, "relu")
    np.testing.assert_allclose(out.data, np.broadcast_to(bias.data, (2, 4)), atol=1e-12)


def test_layer_norm_standardizes_rows():
    x = Tensor([[1.0, -1.0]])
    gain = Parameter(np.ones(2), name="g")
    bias = Parameter(np.zeros(2), name="b")
    out = dc.layer_norm(x, gain, bias, "elu")
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)
    assert abs(out.data.mean()) < 1e-12


def test_layer_norm_adds_its_eps_to_each_rows_variance():
    # relu maps [a, -a] to [a, 0]: centred rows [a/2, -a/2] of variance
    # a^2/4 = 1e-6, a tenth of eps, so the output is far from +-1
    a = 2e-3
    x = Tensor([[a, -a]])
    out = dc.layer_norm(x, Parameter(np.ones(2), name="g"), Parameter(np.zeros(2), name="b"), "relu")
    want = a / 2 / np.sqrt(a * a / 4 + 1e-5)
    np.testing.assert_allclose(out.data, [[want, -want]], rtol=1e-12)


def test_layer_norm_requires_its_activation_kind():
    # the LayerNorm alone, which no layer runs, is no longer an op
    x = Tensor(np.ones((2, 3)))
    gain, bias = Parameter(np.ones(3), name="g"), Parameter(np.zeros(3), name="b")
    with pytest.raises(TypeError):
        dc.layer_norm(x, gain, bias)
    with pytest.raises(ConfigError, match="unknown activation kind None"):
        dc.layer_norm(x, gain, bias, None)


def test_activation_values():
    x = Tensor([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(dc.activation(x, "relu").data, [0.0, 0.0, 2.0])
    np.testing.assert_allclose(
        dc.activation(x, "elu").data, [np.exp(-1.0) - 1.0, 0.0, 2.0], atol=1e-15
    )
    np.testing.assert_allclose(
        dc.activation(x, "prelu", slope=Tensor([0.1])).data, [-0.1, 0.0, 2.0], atol=1e-15
    )
    slope = Parameter(np.array([0.25]), name="s")
    np.testing.assert_allclose(
        dc.activation(x, "prelu", slope=slope).data, [-0.25, 0.0, 2.0], atol=1e-15
    )


def test_prelu_requires_parameter_slope():
    with pytest.raises(ConfigError):
        dc.activation(Tensor([1.0]), "prelu", slope=0.25)


def test_unknown_activation_rejected():
    with pytest.raises(ConfigError):
        dc.activation(Tensor([1.0]), "gelu")


def test_rows_l2_normalize_value():
    out = kit.rows_l2_normalize(Tensor([[3.0, 4.0]]))
    np.testing.assert_allclose(out.data, [[0.6, 0.8]], atol=1e-15)


def test_rows_l2_normalize_rejects_zero_row():
    with pytest.raises(DegenerateEmbeddingError):
        kit.rows_l2_normalize(Tensor([[1.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# backward mechanics


def test_backward_of_sum_gives_ones():
    x = Parameter(np.arange(6, dtype=np.float64).reshape(2, 3), name="x")
    backward(kit.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = Parameter(np.ones(3), name="x")
    with pytest.raises(ContractError):
        backward(kit.scalar_mul(x, 2.0))


def test_tape_is_single_use():
    x = Parameter(np.ones(3), name="x")
    loss = kit.tsum(x)
    backward(loss)
    with pytest.raises(ContractError):
        backward(loss)


def test_intermediate_grads_are_released():
    x = Parameter(np.ones((2, 2)), name="x")
    mid = kit.scalar_mul(x, 3.0)
    backward(kit.tsum(mid))
    assert mid.grad is None
    assert mid._node.parents == () and mid._node.backward is None


def test_intermediate_grads_are_released_during_the_pass():
    x = Parameter(np.ones(3), name="x")
    mid = kit.scalar_mul(x, 2.0)
    top = kit.scalar_mul(mid, 3.0)
    seen = []
    mid_backward = mid._node.backward

    def spy(g):
        seen.append(top.grad)
        return mid_backward(g)

    mid._node.backward = spy
    backward(kit.tsum(top))
    assert len(seen) == 1 and seen[0] is None  # freed before the rest of the tape ran
    np.testing.assert_array_equal(x.grad, np.full(3, 6.0))


def test_arrays_of_a_run_closure_die_before_the_next_closure_runs():
    x = Parameter(np.ones(3), name="x")
    mid = kit.scalar_mul(x, 2.0)
    held = np.full(3, 3.0)  # read by top's closure alone
    held_ref = weakref.ref(held)
    top = dc.record_backward(Tensor(held * mid.data, _parents=(mid,)), lambda g, h=held: (g * h,))
    del held
    seen = []
    mid_backward = mid._node.backward

    def spy(g):
        seen.append((held_ref() is None, top._node.backward is None, top._node.parents == ()))
        return mid_backward(g)

    mid._node.backward = spy
    backward(kit.tsum(top))
    assert seen == [(True, True, True)]
    np.testing.assert_array_equal(x.grad, np.full(3, 6.0))


def test_parameter_grads_accumulate_across_tapes():
    x = Parameter(np.ones(3), name="x")
    backward(kit.tsum(x))
    backward(kit.tsum(kit.scalar_mul(x, 2.0)))
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


def test_reused_node_receives_summed_gradient():
    x = Parameter(np.array([2.0]), name="x")
    y = kit.scalar_mul(x, 1.0)
    backward(kit.tsum(kit.add(y, y)))
    np.testing.assert_array_equal(x.grad, [2.0])


def test_needs_grad_follows_parameters():
    x = Tensor(np.ones((2, 2)))
    w = Parameter(np.ones((2, 2)), name="w")
    assert not x.needs_grad and w.needs_grad
    const = dc.matmul(x, x)
    assert not const.needs_grad and const._node is None
    assert dc.matmul(x, w).needs_grad and kit.add(dc.matmul(x, w), x).needs_grad


def test_backward_drops_gradients_for_constants():
    # a closure may return a gradient for a parent that needs none; it is
    # dropped, not stored
    x = Tensor(np.ones(3))
    w = Parameter(np.ones(3), name="w")
    out = dc.record_backward(Tensor(x.data + w.data, _parents=(x, w)), lambda g: (g, g))
    backward(kit.tsum(out))
    assert x.grad is None
    np.testing.assert_array_equal(w.grad, np.ones(3))


@pytest.mark.parametrize("returned", [lambda g: g, lambda g: (g,), lambda g: [g, g]], ids=["array", "short", "list"])
def test_backward_demands_one_gradient_per_parent(returned):
    w = Parameter(np.ones(3), name="w")
    out = dc.record_backward(Tensor(2.0 * w.data, _parents=(w, w)), returned)
    with pytest.raises(ContractError, match="one per parent"):
        backward(kit.tsum(out))


def test_backward_visits_only_nodes_that_need_a_gradient():
    x = Tensor(np.arange(6, dtype=np.float64).reshape(2, 3))
    w = Parameter(np.ones((3, 2)), name="w")
    calls = []
    # constant subtree: it gets no node, so a closure attached to it never runs
    left = dc.record_backward(Tensor(2.0 * x.data, _parents=(x,)), lambda g: calls.append(g) or (g * 2.0,))
    assert left._node is None
    backward(kit.tsum(dc.matmul(left, w)))
    assert calls == []
    assert x.grad is None and left.grad is None
    np.testing.assert_array_equal(w.grad, np.tile((2.0 * x.data).sum(axis=0)[:, None], (1, 2)))


def test_matmul_forms_only_the_needed_side():
    w = Parameter(np.ones((3, 2)), name="w")
    w.data = w.data.view(CountsTranspose)
    CountsTranspose.transposes = 0
    x = Parameter(np.ones((4, 3)), name="x")
    backward(kit.tsum(dc.matmul(Tensor(np.ones((4, 3))), w)))
    assert CountsTranspose.transposes == 0  # dL/da = g @ w.T is not formed
    backward(kit.tsum(dc.matmul(x, w)))
    assert CountsTranspose.transposes == 1
    np.testing.assert_array_equal(x.grad, np.full((4, 3), 2.0))


def test_backward_of_a_constant_loss_is_a_noop():
    loss = kit.tsum(Tensor(np.ones(3)))
    backward(loss)
    assert loss.grad is None
    with pytest.raises(ContractError):
        backward(loss)


def test_dropout_matmul_on_constants_records_no_backward():
    x = Tensor(np.ones((4, 5)))
    rng = RngStream(0, "dropout")
    out = dc.matmul(x, Tensor(np.ones((5, 2))), p=0.5, rng=rng, training=True)
    assert_drew(rng, lambda r: r.uniform(size=(4, 5)))
    assert not out.needs_grad and out._node is None


_OP_CASES = {
    "matmul": lambda a, b, s: dc.matmul(a, b),
    "transpose": lambda a, b, s: kit.transpose(a),
    "add": lambda a, b, s: kit.add(a, b),
    "sub": lambda a, b, s: kit.sub(a, b),
    "hadamard": lambda a, b, s: kit.hadamard(a, b),
    "scalar_mul": lambda a, b, s: kit.scalar_mul(a, 2.0),
    "log": lambda a, b, s: kit.log(b),
    "exp": lambda a, b, s: kit.exp(a),
    "sigmoid": lambda a, b, s: kit.sigmoid(a),
    "clamp": lambda a, b, s: kit.clamp(a, -0.5, 0.5),
    "tsum": lambda a, b, s: kit.tsum(a),
    "layer_norm": lambda a, b, s: dc.layer_norm(a, s, s, "elu"),
    "layer_norm_relu": lambda a, b, s: dc.layer_norm(a, s, s, "relu"),
    "relu": lambda a, b, s: dc.activation(a, "relu"),
    "relu+bias": lambda a, b, s: dc.activation(a, "relu", None, s),
    "elu": lambda a, b, s: dc.activation(a, "elu"),
    "leaky_relu": lambda a, b, s: dc.activation(a, "prelu", Tensor([0.1])),
    "prelu": lambda a, b, s: dc.activation(a, "prelu", s),
    "rows_l2_normalize": lambda a, b, s: kit.rows_l2_normalize(b),
}


@pytest.mark.parametrize("op", sorted(_OP_CASES))
def test_ops_on_constants_record_no_backward(op):
    # a closure on a tensor that needs no gradient would only keep the
    # op's inputs alive; with a Parameter among the inputs it is recorded
    for cls in (Tensor, Parameter):

        def make(data):
            return cls(data, name="p") if cls is Parameter else cls(data)

        a = make(np.array([[-1.0, 0.5], [2.0, -0.25]]))
        b = make(np.array([[1.0, 2.0], [0.5, 3.0]]))
        s = make(np.array([0.25]) if op == "prelu" else np.full(2, 0.25))
        out = _OP_CASES[op](a, b, s)
        assert out.needs_grad == (cls is Parameter)
        assert (out._node is not None and out._node.backward is not None) == (cls is Parameter)


def test_prelu_takes_a_constant_slope():
    x = Parameter(np.array([-2.0, 0.0, 2.0]), name="x")
    const = Tensor(np.array([0.25]))
    param = Parameter(np.array([0.25]), name="s")
    out = dc.activation(x, "prelu", const)
    np.testing.assert_array_equal(out.data, dc.activation(x, "prelu", param).data)
    backward(kit.tsum(out))
    np.testing.assert_array_equal(x.grad, [0.25, 0.25, 1.0])
    assert const.grad is None
    assert not dc.activation(Tensor(x.data), "prelu", const).needs_grad


def test_leaky_relu_takes_its_slope_explicitly():
    # a leaky relu is a prelu with a constant slope Tensor: no kind of its
    # own, and no default or float slope
    for slope in (None, 0.01):
        with pytest.raises(ConfigError, match="prelu requires a slope Tensor"):
            dc.activation(Tensor([-1.0, 2.0]), "prelu", slope)
    with pytest.raises(ConfigError, match="unknown activation kind"):
        dc.activation(Tensor([-1.0, 2.0]), "leaky_relu", Tensor([0.01]))


@pytest.mark.parametrize("kind", ["leaky_relu", "prelu", "elu", "relu"])
def test_activation_backward_keeps_f32(kind):
    set_precision("f32")
    x = Parameter(np.array([[-1.5, 0.5], [2.0, -0.25]]), name="x")
    slope = Parameter(np.array([0.25]), name="slope") if kind == "prelu" else 0.2
    out = dc.activation(x, *_as_prelu(kind, slope))
    pushed = []
    original = out._node.backward

    def spy(g):
        grads = original(g)
        pushed.extend(np.asarray(dg).dtype for dg in grads if dg is not None)  # a constant slope's is None
        return grads

    out._node.backward = spy
    backward(kit.tsum(out))
    assert pushed and set(pushed) == {np.dtype(np.float32)}


# ---------------------------------------------------------------------------
# the lean training ops against the earlier ones


# the dropped product's weight, 8 x 8: its output has the input's shape, which
# the upstream gradient takes
_LEAN_WEIGHT = np.random.default_rng(12).normal(size=(8, 8))

_LEAN_OPS = {
    "dropout_matmul": (
        lambda x, slope: dc.matmul(
            x, Parameter(_LEAN_WEIGHT, name="w"), p=0.3, rng=RngStream(7, "dropout"), training=True
        ),
        lambda x, slope: oracles.dropout_matmul_oracle(
            x, Parameter(_LEAN_WEIGHT, name="w"), 0.3, RngStream(7, "dropout"), training=True
        ),
    ),
    "relu": (
        lambda x, slope: dc.activation(x, "relu"),
        lambda x, slope: oracles.activation_oracle(x, "relu"),
    ),
    "elu": (
        lambda x, slope: dc.activation(x, "elu"),
        lambda x, slope: oracles.activation_oracle(x, "elu"),
    ),
    "leaky_relu": (
        lambda x, slope: dc.activation(x, "prelu", Tensor([0.23])),
        lambda x, slope: oracles.activation_oracle(x, "leaky_relu", 0.23),
    ),
    "prelu": (
        lambda x, slope: dc.activation(x, "prelu", slope),
        lambda x, slope: oracles.activation_oracle(x, "prelu", slope),
    ),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # bytes, not values: -0.0 == 0.0 would hide a sign flip
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _unpacked_mask(keep: np.ndarray, width: int) -> np.ndarray:
    """A `keep_mask` of `width` columns as the boolean array it packs."""
    return np.unpackbits(keep, axis=1, count=width).astype(bool)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("op", sorted(_LEAN_OPS))
def test_lean_ops_equal_the_earlier_ops_bitwise(op, precision):
    set_precision(precision)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 8))
    special = [0.0, -0.0, 0.0, -0.0, 1e18, -1e18, 3e5, -3e5, 1e-30, -1e-30]
    x.flat[rng.choice(x.size, size=len(special), replace=False)] = special
    x[5] = -0.0  # a row with no positive entry
    upstream = rng.normal(size=x.shape)
    upstream.flat[:4] = [0.0, -0.0, 1e6, -1e6]
    results = []
    for make in _LEAN_OPS[op]:
        out = make(Parameter(x, name="x"), Parameter([0.25], name="s"))
        grads = out._node.backward(upstream.astype(out.data.dtype))
        results.append((out.data, [g for g in grads if g is not None]))  # a constant slope's is None
    (new, new_grads), (old, old_grads) = results
    assert _same_bits(new, old)
    assert len(new_grads) == len(old_grads)
    for a, b in zip(new_grads, old_grads):
        assert _same_bits(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("kind", ["relu", "elu", "leaky_relu", "prelu"])
@pytest.mark.parametrize("shape", [(6, 8), (1100, 256)], ids=["one_block", "three_blocks"])
def test_layer_norm_with_its_activation_equals_the_earlier_pair_bitwise(shape, kind, precision):
    # one op rebuilds the activation's output and the standardized rows in
    # its backward, and forms dL/dx one row block at a time (1100 rows of
    # 256 are blocks of 512, 512 and 76); the earlier activation and
    # LayerNorm kept both and formed dL/dx whole.  The output and every
    # gradient, the prelu slope's included, are the same bytes.
    set_precision(precision)
    rng = np.random.default_rng(13)
    x = rng.normal(size=shape)
    special = [0.0, -0.0, 0.0, -0.0, 1e18, -1e18, 3e5, -3e5, 1e-30, -1e-30]
    x.flat[rng.choice(x.size, size=len(special), replace=False)] = special
    x[5] = -0.0  # a row with no positive entry, and zero variance
    gain, bias = rng.uniform(0.5, 1.5, size=shape[1]), rng.normal(size=shape[1])
    upstream = rng.normal(size=x.shape)
    upstream.flat[:4] = [0.0, -0.0, 1e6, -1e6]
    results = []
    for op in (dc.layer_norm, oracles.activated_layer_norm_oracle):
        params = [Parameter(x, name="x"), Parameter(gain, name="g"), Parameter(bias, name="b"), Parameter([0.25], name="s")]
        slope = {"prelu": params[3], "leaky_relu": 0.23}.get(kind)
        out = op(*params[:3], *(_as_prelu(kind, slope) if op is dc.layer_norm else (kind, slope)))
        backward(kit.tsum(kit.hadamard(out, Tensor(upstream))))
        results.append((out.data, [p.grad for p in params]))
    (new, new_grads), (old, old_grads) = results
    assert _same_bits(new, old)
    formed = 4 if kind == "prelu" else 3  # x, gain, bias and the slope
    assert [g is not None for g in new_grads] == [g is not None for g in old_grads] == [True] * formed + [False] * (4 - formed)
    for a, b in zip(new_grads[:formed], old_grads):
        assert _same_bits(a, b)


_REBUILT = [pytest.param("layer_norm", kind, id=kind) for kind in ("relu", "elu", "leaky_relu", "prelu")]
_REBUILT += [pytest.param("activation", kind, id=f"activation-{kind}") for kind in ("relu", "elu", "leaky_relu", "prelu")]


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("op, kind", _REBUILT)
def test_layer_norm_rebuilds_each_column_block_of_its_output_bitwise(op, kind, precision):
    # the rebuild runs the forward's own entrywise steps on a block of the
    # kept input (for layer_norm with the kept row mean and inverse
    # deviation): any block, one column, the block widths dL/dW cuts and
    # the whole, has the output's bytes, on the special values of the
    # bitwise tests above.  A standalone ELU keeps its output and carries
    # no rebuild.
    set_precision(precision)
    rng = np.random.default_rng(29)
    x = rng.normal(size=(40, 1100))
    special = [0.0, -0.0, 0.0, -0.0, 1e18, -1e18, 3e5, -3e5, 1e-30, -1e-30]
    x.flat[rng.choice(x.size, size=len(special), replace=False)] = special
    x[5] = -0.0  # a row with no positive entry, and zero variance
    gain = Parameter(rng.uniform(0.5, 1.5, size=1100), name="g")
    bias = Parameter(rng.normal(size=1100), name="b")
    slope = {"prelu": Parameter([0.25], name="s"), "leaky_relu": 0.23}.get(kind)

    def run(x, gain, bias, slope):
        if op == "activation":
            return dc.activation(x, *_as_prelu(kind, slope))
        return dc.layer_norm(x, gain, bias, *_as_prelu(kind, slope))

    out = run(Parameter(x, name="x"), gain, bias, slope)
    assert out.needs_grad
    bounds = [(0, 1100), (0, 1), (1099, 1100), (7, 300), (0, 512), (512, 1024), (1024, 1100)]
    if op == "activation" and kind == "elu":
        assert out.rebuild is None
    else:
        for c0, c1 in bounds:
            block = out.rebuild(c0, c1)
            assert _same_bits(block, np.ascontiguousarray(out.data[:, c0:c1])), (c0, c1)
    # a frozen forward carries no rebuild, which would keep its input alive
    frozen_slope = Tensor([0.25]) if kind == "prelu" else slope
    frozen = run(Tensor(x), Tensor(gain.data), Tensor(bias.data), frozen_slope)
    assert not frozen.needs_grad and frozen.rebuild is None


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("kind", ["relu", "elu", "prelu", "prelu+constant_slope"])
def test_activation_with_a_bias_equals_the_earlier_add_bitwise(kind, precision):
    # a layer without LayerNorm sums its bias inside the activation; before,
    # `add` summed it as an op of its own.  The output, each column block of
    # its rebuild (one column, the blocks dL/dW cuts, the whole) and every
    # gradient, the bias's column sums included, keep their bytes, on signed
    # zeros and sums that cancel to +0
    set_precision(precision)
    rng = np.random.default_rng(37)
    x, bias = rng.normal(size=(40, 1100)), rng.normal(size=1100)
    special = [0.0, -0.0, 0.0, -0.0, 1e18, -1e18, 3e5, -3e5, 1e-30, -1e-30]
    x.flat[rng.choice(x.size, size=len(special), replace=False)] = special
    bias[:2] = -0.0
    x[5] = -bias  # a row whose sums are +0 or -0
    x[6, :2] = 0.0  # +0 + -0: +0
    upstream = rng.normal(size=x.shape)
    upstream.flat[:4] = [0.0, -0.0, 1e6, -1e6]
    results = []
    for fused in (True, False):
        xp, bp = Parameter(x, name="x"), Parameter(bias, name="b")
        slope = {"prelu": Parameter([0.25], name="s"), "prelu+constant_slope": Tensor([0.1])}.get(kind)
        g = upstream.astype(dc.active_dtype())
        if fused:
            out = dc.activation(xp, kind.split("+")[0], slope, bp)
            grads = out._node.backward(g)
        else:
            summed = kit.add(xp, bp)
            out = dc.activation(summed, kind.split("+")[0], slope)
            gd, *ds = out._node.backward(g)
            dx, db = summed._node.backward(gd)
            grads = (dx, *ds, db)  # in the fused op's parent order: x, slope, bias
        results.append((out, [grad for grad in grads if grad is not None]))  # a constant slope's is None
    (new, new_grads), (old, old_grads) = results
    assert _same_bits(new.data, old.data)
    assert len(new_grads) == len(old_grads) == (3 if kind == "prelu" else 2)
    for a, b in zip(new_grads, old_grads, strict=True):
        assert _same_bits(np.asarray(a), np.asarray(b))
    assert new_grads[-1].shape == bias.shape
    if kind == "elu":
        assert new.rebuild is None and old.rebuild is None
        return
    for c0, c1 in [(0, 1100), (0, 1), (1099, 1100), (7, 300), (0, 512), (512, 1024), (1024, 1100)]:
        block = new.rebuild(c0, c1)
        assert _same_bits(block, np.ascontiguousarray(new.data[:, c0:c1])), (c0, c1)
        assert _same_bits(block, old.rebuild(c0, c1)), (c0, c1)


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("s", [0.25, 0.23, 0.01, 1.0, 2.5, -0.3, 0.0, -0.0, 1e-40])
def test_leaky_slopes_equal_the_earlier_ops_bitwise(s, precision):
    # the leaky factor picks 1 or s by bits, not by np.where: the same bytes
    # for any slope, a negative, a zero of either sign and (in f32) a
    # subnormal one included, on signed zeros, infinities and NaN
    set_precision(precision)
    rng = np.random.default_rng(17)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-40, -1e-40, np.inf, -np.inf, np.nan]
    x = np.concatenate([special, rng.normal(size=1000) * 10.0 ** rng.integers(-30, 30, size=1000)]).reshape(1, -1)
    upstream = rng.normal(size=x.shape).astype(dc.active_dtype())
    results = []
    for op in (dc.activation, oracles.activation_oracle):
        slope = Parameter(np.array([s]), name="s")
        # the earlier leaky relu took a float slope; the library's is a
        # prelu with a constant slope, whose gradient entry is None
        leaky_kind = ("leaky_relu", float(slope.data[0]))
        with np.errstate(all="ignore"):  # inf * 0 and the like, in both ops
            out = op(Parameter(x, name="x"), "prelu", slope)
            grads = out._node.backward(upstream)
            leaky = op(Parameter(x, name="x"), *(_as_prelu(*leaky_kind) if op is dc.activation else leaky_kind))
            leaky_grads = [g for g in leaky._node.backward(upstream) if g is not None]
            results.append((out.data, leaky.data, *grads, *leaky_grads))
    for new, old in zip(*results, strict=True):
        assert _same_bits(np.asarray(new), np.asarray(old))


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("shape", [(1, 40_360), (1009, 40)], ids=["one_row", "rows"])
def test_elu_equals_the_earlier_elu_bitwise_at_the_edges(shape, precision):
    # the ELU forward ORs d's bits into exp(min(d, 0)) - 1, which is +0
    # where d > 0, a few rows at a time (1009 rows of 40 run as blocks of
    # 409, the last one short), and its backward forms out + 1, capped at 1:
    # the same bytes as the earlier op's np.where and (exp(d) - 1) + 1, on
    # signed zeros and subnormals, where exp underflows (-745, -800), on
    # large negative values, at the infinities, on NaN, on the slope test's
    # inputs and on 10,000 random magnitudes
    set_precision(precision)
    rng, slope_rng = np.random.default_rng(19), np.random.default_rng(17)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-40, -1e-40, 1e-45, -1e-45, 2.2e-308, -2.2e-308]
    special += [-745.0, -800.0, -1e5, -3e38, -1e300, np.inf, -np.inf, np.nan]
    slope_inputs = slope_rng.normal(size=1000) * 10.0 ** slope_rng.integers(-30, 30, size=1000)
    magnitudes = rng.normal(size=10_000) * 10.0 ** rng.integers(-40, 4, size=10_000)
    x = np.concatenate([special, slope_inputs, magnitudes])
    x = np.concatenate([x, rng.normal(size=40_360 - x.size)]).reshape(shape)
    upstream = rng.normal(size=x.shape).astype(dc.active_dtype())
    results = []
    for op in (dc.activation, oracles.activation_oracle):
        with np.errstate(all="ignore"):  # f32 casts -1e300 to -inf
            out = op(Parameter(x, name="x"), "elu")
            (grad,) = out._node.backward(upstream)
        results.append((out.data, np.asarray(grad)))
    (new, new_grad), (old, old_grad) = results
    assert _same_bits(new, old)
    assert _same_bits(new_grad, old_grad)


def test_frozen_relu_allocates_only_its_output():
    # the boolean mask is the backward's; a forward over constants makes none
    x = Tensor(np.random.default_rng(20).normal(size=(4000, 256)))
    tracemalloc.start()
    try:
        out = dc.activation(x, "relu")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not out.needs_grad
    # a mask would add x.size bytes (1000 KiB)
    assert peak <= out.data.nbytes + 64 * 1024


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logistic_in_place_equals_the_earlier_logistic_bitwise(dtype):
    rng = np.random.default_rng(12)
    x = (rng.normal(size=(40, 33)) * 10.0 ** rng.integers(-3, 4, size=(40, 33))).astype(dtype)
    x.flat[:8] = [0.0, -0.0, 1e-30, -1e-30, 800.0, -800.0, 1e30, -1e30]
    old = oracles.logistic_oracle(x)
    assert _same_bits(dc.logistic(x), old)
    dc.logistic(x, out=x)
    assert _same_bits(x, old)

# ---------------------------------------------------------------------------
# the export list


def _public_definitions(tree: ast.Module) -> list[tuple[tuple[str, ...], bool]]:
    """(qualified name, is a dataclass field) of a module's public top-level
    names, of the public methods and properties of its classes, and of the
    fields of its dataclasses."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(((node.name,), False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [((t.id,), False) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [((node.name, f.name), False) for f in node.body if isinstance(f, ast.FunctionDef)]
            if any(getattr(d, "id", None) == "dataclass" for d in node.decorator_list):
                found += [
                    ((node.name, f.target.id), True)
                    for f in node.body
                    if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                ]
    return [(q, is_field) for q, is_field in found if not q[-1].startswith("_")]


def _owned(tree: ast.Module):
    """(node, its parent, the names of the definitions that enclose it) for
    every node; a definition's own name is not among its owners."""
    stack = [(tree, ())]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            yield child, node, owner
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = owner + (child.name,)
            stack.append((child, inner))


def _loads(tree: ast.Module):
    """(name, enclosing definition, is an attribute) for every name or
    attribute read."""
    for node, _, owner in _owned(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, owner, False
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, owner, True


# Filled by every draw_masks call and read nowhere: it stays only while the
# benchmark passes draw_masks(..., epoch=).
_UNREAD_FIELDS = {"signa/contrast.py: ContrastDraw.epoch"}


def test_every_export_has_a_caller():
    # The library holds what the CLI and the benchmark run: every public
    # name of every signa module, and every public method or property, is
    # read in src/ or perfbench/ outside its own definition.  So is every
    # dataclass field, as an attribute (`x.field`); a bare name of the same
    # spelling is a local or a parameter, not the field.  Names are matched
    # by spelling, so `x.to_dict` counts for any class's to_dict.  A
    # diffcore export is called as `dc.<name>`, inside the package, or
    # where it was imported from there; re-exporting is no call.  Code only
    # the tests need belongs in tape_ops.py or the test itself.
    package = Path(dc.__file__).parents[1]
    files = sorted(package.rglob("*.py")) + sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    defined, loads, dc_used = [], [], set()
    for path in files:
        tree = ast.parse(path.read_text())
        if package in path.parents:
            defined += [(path, q, is_field) for q, is_field in _public_definitions(tree)]
        loads += [(path, owner, name, is_attr) for name, owner, is_attr in _loads(tree)]
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("diffcore")
            for alias in node.names
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "dc":
                dc_used.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if package / "diffcore" in path.parents or node.id in imported:
                    dc_used.add(node.id)
    uncalled = [
        f"{path.relative_to(package.parent)}: {'.'.join(qual)}"
        for path, qual, is_field in defined
        if not any(
            name == qual[-1] and (is_attr or not is_field) and (where, owner[: len(qual)]) != (path, qual)
            for where, owner, name, is_attr in loads
        )
    ]
    assert sorted(uncalled) == sorted(_UNREAD_FIELDS)
    assert set(dc.__all__) - dc_used == set()


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, the name a call spells, parameter, position) of
    every parameter with a default, of every function and method.  The
    position counts the arguments a call passes (a method's self is bound);
    it is None for a keyword-only parameter.  A call spells `__init__` as
    its class."""
    for node, parent, owner in _owned(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound = isinstance(parent, ast.ClassDef) and not any(
            getattr(d, "id", None) == "staticmethod" for d in node.decorator_list
        )
        spelled = parent.name if bound and node.name == "__init__" else node.name
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield owner + (node.name,), spelled, arg.arg, i - bound
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield owner + (node.name,), spelled, arg.arg, None


def _calls(tree: ast.Module):
    """(the name called, enclosing definition, positional arguments, keyword
    names) for every call; a starred argument counts as every position, and
    `**` splat as every keyword (None)."""
    for node, _, owner in _owned(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield name, owner, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


# Defaults that stay although nothing in src/ or perfbench/ passes them: the
# tests run k-means with fewer restarts and iterations, and the tests call
# the CLI's main with their own argv.
_UNPASSED_PARAMETERS = {
    "signa/cli.py: main(argv)",
    "signa/evaluate.py: kmeans(max_iters)",
    "signa/evaluate.py: kmeans(restarts)",
}


def test_every_defaulted_parameter_is_passed():
    # a default that no caller overrides is a constant: every parameter with
    # a default, of every function and method of signa, is passed, by
    # keyword or by position, by some call in src/ or perfbench/ outside its
    # own definition.  Names are matched by spelling, as the export guard
    # above matches them, so a call of any `f` passes a parameter of every
    # function `f`.
    package = Path(dc.__file__).parents[1]
    files = sorted(package.rglob("*.py")) + sorted((Path(__file__).parents[1] / "perfbench").glob("*.py"))
    defined, calls = [], []
    for path in files:
        tree = ast.parse(path.read_text())
        if package in path.parents:
            defined += [(path, *found) for found in _defaulted_parameters(tree)]
        calls += [(path, *call) for call in _calls(tree)]
    unpassed = [
        f"{path.relative_to(package.parent)}: {'.'.join(qual)}({param})"
        for path, qual, spelled, param, position in defined
        if not any(
            name == spelled
            and (where, owner[: len(qual)]) != (path, qual)
            and (param in keywords or None in keywords or (position is not None and position < passed))
            for where, name, owner, passed, keywords in calls
        )
    ]
    assert sorted(unpassed) == sorted(_UNPASSED_PARAMETERS)


def _imported_modules(path: Path, package: str) -> list[str]:
    """The absolute names of the modules a file of `package` imports, at
    the top or inside a function; `from . import x` names the module x."""
    parts, names = package.split("."), []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names += [module] if node.module else [f"{module}.{alias.name}" for alias in node.names]
    return names


def test_diffcore_imports_nothing_of_signa_but_its_errors():
    # the rest of signa builds on diffcore, never the other way round: the
    # block schedules its products cut live in it, not in graphdata
    root = Path(dc.__file__).parent
    outside = [
        f"{path.name}: {name}"
        for path in sorted(root.rglob("*.py"))
        for name in _imported_modules(path, "signa.diffcore")
        if name.split(".")[0] == "signa" and name.split(".")[:2] != ["signa", "diffcore"] and name != "signa.errors"
    ]
    assert outside == []
    assert "signa.errors" in _imported_modules(root / "ops.py", "signa.diffcore")


# ---------------------------------------------------------------------------
# precision and finite checks


def test_precision_toggle_controls_dtype():
    set_precision("f32")
    assert Tensor(np.ones(2)).data.dtype == np.float32
    set_precision("f64")
    assert Tensor(np.ones(2)).data.dtype == np.float64


def test_gradcheck_demands_f64():
    set_precision("f32")
    p = Parameter(np.ones(2), name="p")
    with pytest.raises(ContractError):
        gradcheck(lambda: kit.tsum(p), [p])


def test_finite_check_catches_overflow():
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError):
            kit.exp(Tensor([1000.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("shape", [(), (5,), (0, 3), (50_000, 7), (40, 3, 5)])
def test_finite_check_finds_a_bad_value_in_any_block(shape, bad):
    # each entry in turn of a 0-d, 1-d, empty and many-block array, the last
    # block's last entry included
    arr = np.ones(shape)
    dc.check_finite("x", arr)
    assert shape != (50_000, 7) or len(list(ops.row_blocks(*shape))) == 3
    for index in {0, arr.size - 1, arr.size // 2} if arr.size else ():
        arr.reshape(-1)[index] = bad
        with pytest.raises(NumericError, match="^x produced non-finite values$"):
            dc.check_finite("x", arr)
        arr.reshape(-1)[index] = 1.0


def test_finite_check_forms_no_boolean_array_of_the_whole_input():
    arr = np.ones((400_000, 16))
    arr[-1, -1] = np.nan
    tracemalloc.start()
    try:
        with pytest.raises(NumericError):
            dc.check_finite("x", arr)
        _held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= ops._BLOCK_ENTRIES + 64 * 1024 < arr.size // 8


# ---------------------------------------------------------------------------
# gradient checks, 20 random instances per op


def test_grad_matmul():
    def make(rng):
        a = _param(rng, (3, 4), "a")
        b = _param(rng, (4, 2), "b")
        w = _weights(rng, (3, 2))
        return lambda: _weighted_sum(dc.matmul(a, b), w), [a, b]

    _run_gradchecks(make)


def test_grad_transpose():
    def make(rng):
        a = _param(rng, (3, 4), "a")
        w = _weights(rng, (4, 3))
        return lambda: _weighted_sum(kit.transpose(a), w), [a]

    _run_gradchecks(make)


def test_grad_add_sub_hadamard_broadcast():
    def make(rng):
        a = _param(rng, (3, 4), "a")
        b = _param(rng, (4,), "b")
        c = _param(rng, (3, 1), "c")
        w = _weights(rng, (3, 4))

        def fn():
            t = kit.add(a, b)
            t = kit.sub(t, c)
            t = kit.hadamard(t, b)
            return _weighted_sum(t, w)

        return fn, [a, b, c]

    _run_gradchecks(make)


def test_grad_scalar_mul():
    def make(rng):
        a = _param(rng, (4, 2), "a")
        w = _weights(rng, (4, 2))
        return lambda: _weighted_sum(kit.scalar_mul(a, -1.7), w), [a]

    _run_gradchecks(make)


def test_grad_log():
    def make(rng):
        a = _param(rng, (4, 3), "a", lo=0.2, hi=3.0)
        w = _weights(rng, (4, 3))
        return lambda: _weighted_sum(kit.log(a), w), [a]

    _run_gradchecks(make)


def test_grad_exp():
    def make(rng):
        a = _param(rng, (4, 3), "a")
        w = _weights(rng, (4, 3))
        return lambda: _weighted_sum(kit.exp(a), w), [a]

    _run_gradchecks(make)


def test_grad_sigmoid():
    def make(rng):
        a = _param(rng, (4, 3), "a", lo=-3.0, hi=3.0)
        w = _weights(rng, (4, 3))
        return lambda: _weighted_sum(kit.sigmoid(a), w), [a]

    _run_gradchecks(make)


def test_grad_clamp_interior():
    # entries stay away from the clamp bounds: the kink there is not
    # finite-difference measurable
    def make(rng):
        vals = rng.uniform(-2.0, 2.0, size=(4, 3))
        while np.any(np.abs(np.abs(vals) - 0.5) < 1e-2):
            vals = rng.uniform(-2.0, 2.0, size=(4, 3))
        a = Parameter(vals, name="a")
        w = _weights(rng, (4, 3))
        return lambda: _weighted_sum(kit.clamp(a, -0.5, 0.5), w), [a]

    _run_gradchecks(make)


def test_grad_sum_mean_axes():
    def make(rng):
        a = _param(rng, (3, 5), "a")
        axis = [None, 0, 1][int(rng.integers(0, 3))]
        keep = bool(rng.integers(0, 2))

        count = a.data.size if axis is None else a.data.shape[axis]

        def fn():
            t = kit.scalar_mul(kit.tsum(a, axis=axis, keepdims=keep), 1.0 / count)
            s = kit.tsum(a, axis=axis, keepdims=keep)
            return kit.add(kit.tsum(t), kit.tsum(kit.scalar_mul(s, 0.3)))

        return fn, [a]

    _run_gradchecks(make)


def test_grad_dropout_fixed_mask():
    # rebuilding the stream from the same seed each call freezes the mask,
    # making the op deterministic for finite differences; the input is a
    # Parameter, as every layer's but the first is
    def make(rng):
        a = _param(rng, (4, 6), "a")
        b = _param(rng, (6, 3), "b")
        seed = int(rng.integers(0, 2**31))
        w = _weights(rng, (4, 3))

        def fn():
            out = dc.matmul(a, b, p=0.4, rng=RngStream(seed, "dropout"), training=True)
            return _weighted_sum(out, w)

        return fn, [a, b]

    _run_gradchecks(make)


def test_grad_dropout_matmul_fixed_mask():
    def make(rng):
        x = rng.uniform(-1.0, 1.0, size=(4, 6))
        b = _param(rng, (6, 3), "b")
        seed = int(rng.integers(0, 2**31))
        w = _weights(rng, (4, 3))

        def fn():
            out = dc.matmul(Tensor(x), b, p=0.4, rng=RngStream(seed, "dropout"), training=True)
            return _weighted_sum(out, w)

        return fn, [b]

    _run_gradchecks(make)


def test_grad_layer_norm():
    def make(rng):
        a = _param(rng, (4, 6), "a", lo=-2.0, hi=2.0)
        g = _param(rng, (6,), "g", lo=0.5, hi=1.5)
        b = _param(rng, (6,), "b")
        w = _weights(rng, (4, 6))
        return lambda: _weighted_sum(dc.layer_norm(a, g, b, "elu"), w), [a, g, b]

    _run_gradchecks(make)


@pytest.mark.parametrize("kind", ["elu", "prelu"])
@pytest.mark.parametrize("dropout", [True, False], ids=["dropout_matmul", "matmul"])
def test_grad_of_a_product_that_reads_a_layer_norm_output(dropout, kind):
    # the product's dL/dW reads the rebuilt output, not the output array
    def make(rng):
        a = _param(rng, (4, 6), "a", lo=-2.0, hi=2.0)
        g = _param(rng, (6,), "g", lo=0.5, hi=1.5)
        b = _param(rng, (6,), "b")
        s = Parameter(np.array([0.25]), name="s")
        v = _param(rng, (6, 3), "v")
        seed = int(rng.integers(0, 2**31))
        w = _weights(rng, (4, 3))

        def fn():
            h = dc.layer_norm(a, g, b, kind, s if kind == "prelu" else None)
            assert h.rebuild is not None
            if dropout:
                return _weighted_sum(dc.matmul(h, v, p=0.4, rng=RngStream(seed, "dropout"), training=True), w)
            return _weighted_sum(dc.matmul(h, v), w)

        return fn, [a, g, b, v] + ([s] if kind == "prelu" else [])

    _run_gradchecks(make)


@pytest.mark.parametrize("kind", ["elu", "prelu"])
@pytest.mark.parametrize("layer_norm", [True, False], ids=["ln", "no_ln"])
def test_grad_through_layer_0(layer_norm, kind):
    # layer 0 of the encoder with dropout: the product of constant features
    # has a rebuild, which the nonlinearity keeps, and the next product's
    # dL/dW reads the nonlinearity's rebuild of it
    def make(rng):
        x = Tensor(rng.uniform(-1.0, 1.0, size=(5, 3)))
        w0 = _param(rng, (3, 4), "w0")
        g = _param(rng, (4,), "g", lo=0.5, hi=1.5)
        b = _param(rng, (4,), "b")
        s = Parameter(np.array([0.25]), name="s")
        v = _param(rng, (4, 2), "v")
        seed = int(rng.integers(0, 2**31))
        w = _weights(rng, (5, 2))
        slope = s if kind == "prelu" else None

        def fn():
            stream = RngStream(seed, "dropout")
            h = dc.matmul(x, w0, p=0.3, rng=stream, training=True)
            assert h.rebuild is not None
            h = dc.layer_norm(h, g, b, kind, slope) if layer_norm else dc.activation(h, kind, slope, b)
            return _weighted_sum(dc.matmul(h, v, p=0.3, rng=stream, training=True), w)

        return fn, [w0, b, v] + ([g] if layer_norm else []) + ([s] if kind == "prelu" else [])

    _run_gradchecks(make)


def test_grad_activations():
    # inputs are kept clear of each kink: relu / leaky_relu / prelu are
    # not differentiable at exactly zero
    def make(rng):
        vals = rng.uniform(0.05, 1.5, size=(4, 5)) * rng.choice([-1.0, 1.0], size=(4, 5))
        a = Parameter(vals, name="a")
        slope = Parameter(np.array([0.25]), name="slope")
        kind = ["relu", "elu", "leaky_relu", "prelu"][int(rng.integers(0, 4))]
        w = _weights(rng, (4, 5))

        def fn():
            out = dc.activation(a, *_as_prelu(kind, slope if kind == "prelu" else 0.01))
            return _weighted_sum(out, w)

        params = [a, slope] if kind == "prelu" else [a]
        return fn, params

    _run_gradchecks(make)


def test_grad_rows_l2_normalize():
    def make(rng):
        a = _param(rng, (5, 4), "a", lo=0.2, hi=2.0)
        w = _weights(rng, (5, 4))
        return lambda: _weighted_sum(kit.rows_l2_normalize(a), w), [a]

    _run_gradchecks(make)


def test_gradcheck_flags_a_wrong_gradient():
    # a deliberately corrupted backward must be reported, not masked
    q = Parameter(np.array([1.0, 2.0]), name="q")

    def fn_bad():
        out = kit.scalar_mul(q, 2.0)
        real_bw = out._node.backward

        def bad_bw(g):
            return real_bw(g * 1.5)

        out._node.backward = bad_bw
        return kit.tsum(out)

    report = gradcheck(fn_bad, [q])
    assert not report.passed
    assert report.max_rel_err > 0.1
