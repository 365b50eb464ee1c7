"""Adam update semantics: bias correction, decoupled weight decay, the
gradient released after each step and never written, blocks of a large
parameter, and bit-identity with the earlier step."""

import tracemalloc
import weakref

import numpy as np
import pytest

from signa import diffcore as dc
from signa.diffcore import AdamState, Parameter, active_dtype, adam_step, set_precision
from signa.diffcore.ops import _BLOCK_ENTRIES
from signa.errors import ConfigError, OptimizationError, ShapeError

import tape_ops as kit
from oracles import adam_step_oracle


def _single(value=0.0, grad=1.0, **kw):
    p = Parameter(np.array([value]), name="w")
    p.grad = np.full(1, grad)
    return p, AdamState([p], lr=kw.pop("lr", 0.1), **kw)


def test_first_step_matches_hand_trace():
    # t=1: m_hat = g, v_hat = g^2, delta = lr * g / (|g| + eps)
    p, st = _single(value=0.0, grad=1.0, lr=0.1)
    adam_step(st)
    np.testing.assert_allclose(p.data, [-0.1], atol=1e-8)
    assert st.step_count == 1


def test_two_steps_hand_trace():
    p, st = _single(value=0.0, grad=1.0, lr=0.1)
    adam_step(st)
    p.grad = np.ones(1)
    adam_step(st)
    # constant gradient keeps m_hat = 1, v_hat = 1 after correction
    np.testing.assert_allclose(p.data, [-0.2], atol=1e-7)


def test_descends_a_quadratic():
    p = Parameter(np.array([3.0]), name="w")
    st = AdamState([p], lr=0.05)
    for _ in range(2000):
        p.grad = 2.0 * p.data
        adam_step(st)
    assert abs(p.data[0]) < 1e-3


def test_zero_gradient_is_a_noop_without_decay():
    p = Parameter(np.array([1.5]), name="w")
    st = AdamState([p], lr=0.1)
    adam_step(st)
    np.testing.assert_array_equal(p.data, [1.5])


def test_weight_decay_is_decoupled():
    # with zero gradient the update is exactly the multiplicative shrink
    p = Parameter(np.array([2.0]), name="w")
    st = AdamState([p], lr=0.1, weight_decay=0.01)
    adam_step(st)
    np.testing.assert_allclose(p.data, [2.0 * (1.0 - 0.1 * 0.01)], atol=1e-15)


def test_parameters_update_independently():
    a = Parameter(np.array([0.0]), name="a")
    b = Parameter(np.array([0.0]), name="b")
    st = AdamState([a, b], lr=0.1)
    a.grad = np.ones(1)
    b.grad = np.zeros(1)
    adam_step(st)
    assert a.data[0] != 0.0
    assert b.data[0] == 0.0


def test_grads_are_released_after_step():
    # the parameter keeps the array its backward pass formed, not a copy,
    # and that array dies at the step
    p = Parameter(np.array([[0.5], [-1.0], [2.0]]), name="w")
    st = AdamState([p], lr=0.1)
    assert p.grad is None
    dc.backward(dc.matmul(dc.Tensor(np.array([[1.0, 2.0, 3.0]])), p))
    np.testing.assert_array_equal(p.grad, [[1.0], [2.0], [3.0]])
    adopted = weakref.ref(p.grad)
    adam_step(st)
    assert p.grad is None
    assert adopted() is None


def test_grad_setter_casts_and_checks_the_shape():
    set_precision("f32")
    p = Parameter(np.zeros((2, 3)), name="w")
    g = np.ones((2, 3), dtype=np.float32)
    p.grad = g
    assert p.grad is g  # kept by reference in the parameter's dtype
    p.grad = np.ones((2, 3))  # f64: cast
    assert p.grad.dtype == np.float32
    with pytest.raises(ShapeError, match="'w'"):
        p.grad = np.ones(3)
    p.grad = None
    assert p.grad is None


def test_moment_state_is_per_parameter():
    p, st = _single(grad=1.0)
    adam_step(st)
    assert st.m["w"][0] != 0.0
    assert st.v["w"][0] != 0.0


def test_nonfinite_gradient_rejected_with_name():
    p, st = _single(grad=np.nan)
    with pytest.raises(OptimizationError, match="w"):
        adam_step(st)


def test_validation_errors():
    p = Parameter(np.array([0.0]), name="w")
    with pytest.raises(ConfigError):
        AdamState([p], lr=0.0)
    with pytest.raises(ConfigError):
        AdamState([p], lr=0.1, weight_decay=-1.0)
    q = Parameter(np.array([0.0]), name="w")
    with pytest.raises(ConfigError):
        AdamState([p, q], lr=0.1)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_step_is_bit_identical_to_the_oracle(precision, weight_decay):
    set_precision(precision)
    rng = np.random.default_rng(3)
    # "big" and "long" are above one block: the last blocks are partial.
    # "wt" is built from an array that is not C-contiguous
    shapes = {"w": (7, 5), "b": (5,), "s": (1,), "big": (387, 353), "long": (2 * _BLOCK_ENTRIES + 3,), "wt": (5, 7)}
    init = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    init["wt"] = np.asfortranarray(init["wt"])  # the layout of a transpose

    def make():
        params = [Parameter(init[name], name=name) for name in shapes]
        return params, AdamState(params, lr=0.01, weight_decay=weight_decay)

    lean, lean_state = make()
    ref, ref_state = make()
    for _ in range(5):
        for a, b in zip(lean, ref):
            # magnitudes from 1e-6 to 1e3, with exact zeros mixed in
            g = rng.standard_normal(a.data.shape) * 10.0 ** rng.integers(-6, 4, size=a.data.shape)
            g[rng.random(a.data.shape) < 0.2] = 0.0
            a.grad = g
            b.grad = g
        adam_step(lean_state)
        adam_step_oracle(ref_state)
        for a, b in zip(lean, ref):
            assert a.data.dtype == b.data.dtype == active_dtype()
            assert np.array_equal(a.data, b.data), a.name
            assert np.array_equal(lean_state.m[a.name], ref_state.m[b.name]), a.name
            assert np.array_equal(lean_state.v[a.name], ref_state.v[b.name]), a.name
            assert a.grad is None
    assert lean_state.step_count == ref_state.step_count == 5


def test_a_parameter_holds_c_contiguous_data():
    # the step flattens a parameter and its moments in place, so a
    # transposed input is copied once, and a C-contiguous one in the active
    # dtype is held as it is
    data = np.arange(6.0).reshape(2, 3)
    assert Parameter(data, name="w").data is data
    p = Parameter(data.T, name="wt")
    assert p.data.flags.c_contiguous and np.array_equal(p.data, data.T)


def test_an_f32_parameter_holds_c_contiguous_f32_data():
    set_precision("f32")
    data = np.arange(6.0, dtype=np.float32).reshape(2, 3)
    assert Parameter(data, name="w").data is data
    for source in (data.T, np.arange(6.0).reshape(3, 2), np.asfortranarray(np.arange(6.0).reshape(3, 2))):
        p = Parameter(source, name="w")
        assert p.data.dtype == np.float32 and p.data.flags.c_contiguous
        assert np.array_equal(p.data, source.astype(np.float32))


@pytest.mark.parametrize(
    "size",
    [_BLOCK_ENTRIES - 1, _BLOCK_ENTRIES, _BLOCK_ENTRIES + 1, 2 * _BLOCK_ENTRIES],
    ids=["one_short", "one_block", "one_over", "two_blocks"],
)
def test_a_step_at_the_block_edges_equals_the_oracle(size):
    # the last block is whole, or one entry; the second step has no
    # gradient and steps every block as if it were zero
    rng = np.random.default_rng(6)
    init = rng.standard_normal((size,))
    lean, ref = Parameter(init, name="w"), Parameter(init.copy(), name="w")
    lean_state = AdamState([lean], lr=0.01, weight_decay=0.01)
    ref_state = AdamState([ref], lr=0.01, weight_decay=0.01)
    for grad in (rng.standard_normal((size,)), None):
        lean.grad, ref.grad = grad, grad
        adam_step(lean_state)
        adam_step_oracle(ref_state)
        assert np.array_equal(lean.data, ref.data)
        assert np.array_equal(lean_state.m["w"], ref_state.m["w"])
        assert np.array_equal(lean_state.v["w"], ref_state.v["w"])


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_parameters_that_share_one_gradient_array_step_as_the_oracle(precision):
    # the kit's `add` of two inputs of one shape hands both parents its upstream
    # gradient: both adopt that one array, and neither step may write into
    # it before the other reads it
    set_precision(precision)
    rng = np.random.default_rng(4)
    shape = (400, 400)  # above one block
    init = [rng.standard_normal(shape) for _ in range(2)]
    left, right = (dc.Tensor(rng.standard_normal((1, shape[0]))), dc.Tensor(rng.standard_normal((shape[1], 1))))
    lean = [Parameter(x, name=name) for x, name in zip(init, "ab")]
    ref = [Parameter(x, name=name) for x, name in zip(init, "ab")]
    lean_state = AdamState(lean, lr=0.01, weight_decay=0.01)
    ref_state = AdamState(ref, lr=0.01, weight_decay=0.01)
    for _ in range(3):
        dc.backward(dc.matmul(dc.matmul(left, kit.add(*lean)), right))
        shared = lean[0].grad
        assert lean[1].grad is shared
        before = shared.copy()
        for p in ref:
            p.grad = before.copy()
        adam_step(lean_state)
        adam_step_oracle(ref_state)
        assert np.array_equal(shared, before)  # read, never written
        for a, b in zip(lean, ref):
            assert np.array_equal(a.data, b.data), a.name
            assert np.array_equal(lean_state.m[a.name], ref_state.m[b.name]), a.name
            assert np.array_equal(lean_state.v[a.name], ref_state.v[b.name]), a.name
            assert a.grad is None


def test_a_large_step_needs_scratch_of_one_block():
    # W0 of a 2000-feature, 1024-wide encoder in f32 (8 MB): the step's two
    # scratch arrays are one block each, 1 MB together; one pass over the
    # whole parameter held two 8 MB arrays
    set_precision("f32")
    rng = np.random.default_rng(5)
    p = Parameter(rng.standard_normal((2000, 1024)), name="w")
    st = AdamState([p], lr=0.01, weight_decay=1e-4)
    p.grad = rng.standard_normal(p.data.shape)
    tracemalloc.start()
    try:
        adam_step(st)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
