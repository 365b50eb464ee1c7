"""Forward values and backward gradients for every differentiable op, in
`signa.diffcore` and in the test kit `tape_ops.py`.

Every op gets (a) pinned examples small enough to verify by hand, and
(b) gradient checks against central finite differences on 20 random
instances, relative error under 1e-5 in 64-bit mode.
"""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import CountsTranspose, assert_drew
import oracles
import tape_ops as kit
from tape_ops import gradcheck

import signa.diffcore as dc
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
    np.testing.assert_array_equal(dc.add(a, b).data, [[11.0, 22.0], [13.0, 24.0]])
    np.testing.assert_array_equal(kit.sub(a, b).data, [[-9.0, -18.0], [-7.0, -16.0]])
    np.testing.assert_array_equal(kit.hadamard(a, b).data, [[10.0, 40.0], [30.0, 80.0]])
    np.testing.assert_array_equal(kit.scalar_mul(a, -2.0).data, [[-2.0, -4.0], [-6.0, -8.0]])


def test_broadcast_backward_sums_down():
    a = Parameter(np.ones((3, 4)), name="a")
    b = Parameter(np.ones(4), name="b")
    backward(kit.tsum(dc.add(a, b)))
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


def test_dropout_inference_is_identity_and_draws_nothing():
    x = Tensor(np.ones((5, 5)))
    rng = RngStream(0, "dropout")
    out = dc.dropout(x, 0.4, rng, training=False)
    assert out is x
    assert_drew(rng)
    out = dc.dropout(x, 0.0, rng, training=True)
    assert out is x
    assert_drew(rng)


def test_dropout_keep_rate_and_scale():
    p = 0.4
    x = Tensor(np.ones((300, 300)))
    out = dc.dropout(x, p, RngStream(1, "dropout"), training=True)
    vals = out.data.ravel()
    kept = vals != 0.0
    assert abs(kept.mean() - (1 - p)) < 0.01
    np.testing.assert_allclose(vals[kept], 1.0 / (1 - p))
    # inverted scaling keeps the expected activation unchanged
    assert abs(out.data.mean() - 1.0) < 0.01


def test_dropout_rejects_bad_rate():
    x = Tensor(np.ones(3))
    with pytest.raises(ConfigError):
        dc.dropout(x, 1.0, RngStream(0, "dropout"), training=True)
    with pytest.raises(ConfigError):
        dc.dropout(x, -0.1, RngStream(0, "dropout"), training=True)


def test_layer_norm_constant_row_maps_to_bias():
    x = Tensor(np.full((2, 4), 7.0))
    gain = Parameter(np.ones(4), name="g")
    bias = Parameter(np.array([1.0, 2.0, 3.0, 4.0]), name="b")
    out = dc.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data, np.broadcast_to(bias.data, (2, 4)), atol=1e-12)


def test_layer_norm_standardizes_rows():
    x = Tensor([[1.0, -1.0]])
    gain = Parameter(np.ones(2), name="g")
    bias = Parameter(np.zeros(2), name="b")
    out = dc.layer_norm(x, gain, bias)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-4)
    assert abs(out.data.mean()) < 1e-12


def test_activation_values():
    x = Tensor([-1.0, 0.0, 2.0])
    np.testing.assert_array_equal(dc.activation(x, "relu").data, [0.0, 0.0, 2.0])
    np.testing.assert_allclose(
        dc.activation(x, "elu").data, [np.exp(-1.0) - 1.0, 0.0, 2.0], atol=1e-15
    )
    np.testing.assert_allclose(
        dc.activation(x, "leaky_relu", slope=0.1).data, [-0.1, 0.0, 2.0], atol=1e-15
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


def test_parameter_grads_accumulate_across_tapes():
    x = Parameter(np.ones(3), name="x")
    backward(kit.tsum(x))
    backward(kit.tsum(kit.scalar_mul(x, 2.0)))
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


def test_reused_node_receives_summed_gradient():
    x = Parameter(np.array([2.0]), name="x")
    y = kit.scalar_mul(x, 1.0)
    backward(kit.tsum(dc.add(y, y)))
    np.testing.assert_array_equal(x.grad, [2.0])


def test_needs_grad_follows_parameters():
    x = Tensor(np.ones((2, 2)))
    w = Parameter(np.ones((2, 2)), name="w")
    assert not x.needs_grad and w.needs_grad
    const = dc.matmul(x, x)
    assert not const.needs_grad and const._node is None
    assert dc.matmul(x, w).needs_grad and dc.add(dc.matmul(x, w), x).needs_grad


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


def test_dropout_on_a_constant_records_no_backward():
    x = Tensor(np.ones((4, 5)))
    rng = RngStream(0, "dropout")
    out = dc.dropout(x, 0.5, rng, training=True)
    assert_drew(rng, lambda r: r.uniform(size=(4, 5)))
    assert not out.needs_grad and out._node is None


_OP_CASES = {
    "matmul": lambda a, b, s: dc.matmul(a, b),
    "transpose": lambda a, b, s: kit.transpose(a),
    "add": lambda a, b, s: dc.add(a, b),
    "sub": lambda a, b, s: kit.sub(a, b),
    "hadamard": lambda a, b, s: kit.hadamard(a, b),
    "scalar_mul": lambda a, b, s: kit.scalar_mul(a, 2.0),
    "log": lambda a, b, s: kit.log(b),
    "exp": lambda a, b, s: kit.exp(a),
    "sigmoid": lambda a, b, s: kit.sigmoid(a),
    "clamp": lambda a, b, s: kit.clamp(a, -0.5, 0.5),
    "tsum": lambda a, b, s: kit.tsum(a),
    "dropout": lambda a, b, s: dc.dropout(a, 0.5, RngStream(0, "dropout"), training=True),
    "layer_norm": lambda a, b, s: dc.layer_norm(a, s, s),
    "relu": lambda a, b, s: dc.activation(a, "relu"),
    "elu": lambda a, b, s: dc.activation(a, "elu"),
    "leaky_relu": lambda a, b, s: dc.activation(a, "leaky_relu", 0.1),
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
    with pytest.raises(ConfigError, match="leaky_relu requires a float slope"):
        dc.activation(Tensor([-1.0, 2.0]), "leaky_relu")


@pytest.mark.parametrize("kind", ["leaky_relu", "prelu", "elu", "relu"])
def test_activation_backward_keeps_f32(kind):
    set_precision("f32")
    x = Parameter(np.array([[-1.5, 0.5], [2.0, -0.25]]), name="x")
    slope = Parameter(np.array([0.25]), name="slope") if kind == "prelu" else 0.2
    out = dc.activation(x, kind, slope)
    pushed = []
    original = out._node.backward

    def spy(g):
        grads = original(g)
        pushed.extend(np.asarray(dg).dtype for dg in grads)
        return grads

    out._node.backward = spy
    backward(kit.tsum(out))
    assert pushed and set(pushed) == {np.dtype(np.float32)}


# ---------------------------------------------------------------------------
# the lean training ops against the earlier ones


_LEAN_OPS = {
    "dropout": (
        lambda x, gain, bias, slope: dc.dropout(x, 0.3, RngStream(7, "dropout"), training=True),
        lambda x, gain, bias, slope: oracles.dropout_oracle(x, 0.3, RngStream(7, "dropout"), training=True),
    ),
    "layer_norm": (
        lambda x, gain, bias, slope: dc.layer_norm(x, gain, bias),
        lambda x, gain, bias, slope: oracles.layer_norm_oracle(x, gain, bias),
    ),
    "relu": (
        lambda x, gain, bias, slope: dc.activation(x, "relu"),
        lambda x, gain, bias, slope: oracles.activation_oracle(x, "relu"),
    ),
    "elu": (
        lambda x, gain, bias, slope: dc.activation(x, "elu"),
        lambda x, gain, bias, slope: oracles.activation_oracle(x, "elu"),
    ),
    "leaky_relu": (
        lambda x, gain, bias, slope: dc.activation(x, "leaky_relu", 0.23),
        lambda x, gain, bias, slope: oracles.activation_oracle(x, "leaky_relu", 0.23),
    ),
    "prelu": (
        lambda x, gain, bias, slope: dc.activation(x, "prelu", slope),
        lambda x, gain, bias, slope: oracles.activation_oracle(x, "prelu", slope),
    ),
}


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    # bytes, not values: -0.0 == 0.0 would hide a sign flip
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("op", sorted(_LEAN_OPS))
def test_lean_ops_equal_the_earlier_ops_bitwise(op, precision):
    set_precision(precision)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, 8))
    special = [0.0, -0.0, 0.0, -0.0, 1e18, -1e18, 3e5, -3e5, 1e-30, -1e-30]
    x.flat[rng.choice(x.size, size=len(special), replace=False)] = special
    x[5] = -0.0  # a row with no positive entry, and zero variance for layer_norm
    gain, bias = rng.uniform(0.5, 1.5, size=8), rng.normal(size=8)
    upstream = rng.normal(size=x.shape)
    upstream.flat[:4] = [0.0, -0.0, 1e6, -1e6]
    results = []
    for make in _LEAN_OPS[op]:
        args = [Parameter(x, name="x"), Parameter(gain, name="g"), Parameter(bias, name="b"), Parameter([0.25], name="s")]
        out = make(*args)
        grads = out._node.backward(upstream.astype(out.data.dtype))
        results.append((out.data, grads))
    (new, new_grads), (old, old_grads) = results
    assert _same_bits(new, old)
    assert len(new_grads) == len(old_grads)
    for a, b in zip(new_grads, old_grads):
        assert _same_bits(np.asarray(a), np.asarray(b))


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_elu_equals_the_earlier_elu_bitwise_at_the_edges(precision):
    # the ELU keeps only its output and its backward forms out + 1, capped
    # at 1: the same bytes as the earlier op's exp(min(d, 0)) - 1 and
    # (exp(d) - 1) + 1, on signed zeros and subnormals, where exp
    # underflows (-745, -800), at the infinities, on NaN and on 10,000
    # random magnitudes
    set_precision(precision)
    rng = np.random.default_rng(19)
    special = [0.0, -0.0, 5e-324, -5e-324, -745.0, -800.0, np.inf, -np.inf, np.nan]
    magnitudes = rng.normal(size=10_000) * 10.0 ** rng.integers(-40, 4, size=10_000)
    x = np.concatenate([special, magnitudes]).reshape(1, -1)
    upstream = rng.normal(size=x.shape).astype(dc.active_dtype())
    results = []
    for op in (dc.activation, oracles.activation_oracle):
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


def _loads(tree: ast.Module):
    """(name, enclosing definition, is an attribute) for every name or
    attribute read."""
    stack = [(tree, ())]
    while stack:
        node, owner = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = owner + (child.name,)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                yield child.id, owner, False
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                yield child.attr, owner, True
            stack.append((child, inner))


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
            t = dc.add(a, b)
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
            return dc.add(kit.tsum(t), kit.tsum(kit.scalar_mul(s, 0.3)))

        return fn, [a]

    _run_gradchecks(make)


def test_grad_dropout_fixed_mask():
    # rebuilding the stream from the same seed each call freezes the mask,
    # making the op deterministic for finite differences
    def make(rng):
        a = _param(rng, (4, 6), "a")
        seed = int(rng.integers(0, 2**31))
        w = _weights(rng, (4, 6))

        def fn():
            out = dc.dropout(a, 0.4, RngStream(seed, "dropout"), training=True)
            return _weighted_sum(out, w)

        return fn, [a]

    _run_gradchecks(make)


def test_grad_layer_norm():
    def make(rng):
        a = _param(rng, (4, 6), "a", lo=-2.0, hi=2.0)
        g = _param(rng, (6,), "g", lo=0.5, hi=1.5)
        b = _param(rng, (6,), "b")
        w = _weights(rng, (4, 6))
        return lambda: _weighted_sum(dc.layer_norm(a, g, b), w), [a, g, b]

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
            out = dc.activation(a, kind, slope=slope if kind == "prelu" else 0.01)
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
