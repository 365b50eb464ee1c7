"""Encoder forward semantics: layer composition, both base encoders,
deterministic inference, parameter bookkeeping, and what one training step
computes (f32 throughout under f32, no gradient for the input features)."""

import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from conftest import CountsTranspose, assert_drew
import oracles
import tape_ops as kit

import signa.diffcore as dc
import signa.diffcore.ops as ops
import signa.encoder as encoder_module
from signa.contrast import EstimatorSpec, draw_masks, estimator_loss
from signa.diffcore import RngStream, backward
from signa.encoder import (
    ACTIVATION_KINDS,
    PRELU_INIT_SLOPE,
    RRELU_SLOPE,
    EncoderState,
    ModelSpec,
    encode,
    encode_rows,
    inference_embeddings,
    project,
)
from signa.errors import ConfigError, ShapeError
from signa.graphdata import Graph, normalized_adjacency
from signa.trainer import TrainConfig, train


def _plain_spec(**kw) -> ModelSpec:
    base = dict(
        num_layers=1,
        base_encoder="linear",
        hidden_dim=1,
        dropout_p=0.0,
        activation="relu",
        layer_norm_enabled=False,
        projector_dim=1,
        projector_activation="elu",
    )
    base.update(kw)
    return ModelSpec(**base)


def test_model_spec_validation():
    with pytest.raises(ConfigError):
        _plain_spec(base_encoder="transformer")
    with pytest.raises(ConfigError):
        _plain_spec(activation="gelu")
    with pytest.raises(ConfigError):
        _plain_spec(projector_activation="swish")
    with pytest.raises(ConfigError):
        _plain_spec(num_layers=0)
    with pytest.raises(ConfigError):
        _plain_spec(dropout_p=1.0)
    with pytest.raises(ConfigError):
        _plain_spec(hidden_dim=0)


def test_model_spec_dict_round_trip():
    spec = ModelSpec(hidden_dim=7, activation="elu")
    assert ModelSpec(**asdict(spec)) == spec


# per-layer parameter suffixes, in checkpoint order, by (layer_norm, activation)
_LAYER_LAYOUT = {
    (True, "prelu"): ["weight", "prelu_slope", "ln_gain", "ln_bias"],
    (True, "elu"): ["weight", "ln_gain", "ln_bias"],
    (True, "rrelu"): ["weight", "ln_gain", "ln_bias"],
    (False, "prelu"): ["weight", "bias", "prelu_slope"],
    (False, "elu"): ["weight", "bias"],
    (False, "rrelu"): ["weight", "bias"],
}
_PROJECTOR_LAYOUT = {
    "prelu": ["projector.0.weight", "projector.1.weight", "projector.prelu_slope"],
    "elu": ["projector.0.weight", "projector.1.weight"],
}


@pytest.mark.parametrize("num_layers", [1, 2], ids=lambda v: f"L{v}")
@pytest.mark.parametrize("projector_activation", ["prelu", "elu"], ids=lambda v: f"proj_{v}")
@pytest.mark.parametrize("activation", ["prelu", "elu", "rrelu"])
@pytest.mark.parametrize("layer_norm", [True, False], ids=["ln", "no_ln"])
def test_parameter_names_and_shapes(layer_norm, activation, projector_activation, num_layers):
    spec = ModelSpec(
        num_layers=num_layers,
        hidden_dim=8,
        activation=activation,
        layer_norm_enabled=layer_norm,
        projector_dim=4,
        projector_activation=projector_activation,
    )
    state = EncoderState(spec, 5, RngStream(7, "init"))
    expected = [
        f"layers.{l}.{suffix}" for l in range(num_layers) for suffix in _LAYER_LAYOUT[layer_norm, activation]
    ] + _PROJECTOR_LAYOUT[projector_activation]
    assert list(state.params) == expected
    assert [p.name for p in state.parameters()] == expected
    assert all(p is state.params[p.name] for p in state.parameters())

    # the Glorot weights are one sequential draw from the init stream
    rng = RngStream(7, "init")
    weight_shapes = [(5, 8)] + [(8, 8)] * (num_layers - 1) + [(8, 4), (4, 4)]
    weight_names = [name for name in expected if name.endswith(".weight")]
    for name, (fan_in, fan_out) in zip(weight_names, weight_shapes, strict=True):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        redraw = (2.0 * rng.uniform(size=(fan_in, fan_out)) - 1.0) * bound
        np.testing.assert_array_equal(state.params[name].data, redraw, err_msg=name)
    for name in expected:
        data = state.params[name].data
        if name.endswith("prelu_slope"):
            np.testing.assert_array_equal(data, [PRELU_INIT_SLOPE])
        elif name.endswith("ln_gain"):
            np.testing.assert_array_equal(data, np.ones(8))
        elif name.endswith("bias"):  # also ln_bias
            np.testing.assert_array_equal(data, np.zeros(8))


def test_bias_only_without_layer_norm():
    spec = _plain_spec(layer_norm_enabled=False, hidden_dim=3)
    state = EncoderState(spec, 2, RngStream(0, "init"))
    names = [p.name for p in state.parameters()]
    assert "layers.0.bias" in names
    assert not any("ln_" in n for n in names)

    spec = _plain_spec(layer_norm_enabled=True, hidden_dim=3)
    state = EncoderState(spec, 2, RngStream(0, "init"))
    names = [p.name for p in state.parameters()]
    assert "layers.0.bias" not in names
    assert "layers.0.ln_gain" in names


def test_init_is_seeded_and_bounded():
    spec = _plain_spec(hidden_dim=16)
    a = EncoderState(spec, 8, RngStream(3, "init"))
    b = EncoderState(spec, 8, RngStream(3, "init"))
    c = EncoderState(spec, 8, RngStream(4, "init"))
    np.testing.assert_array_equal(a.params["layers.0.weight"].data, b.params["layers.0.weight"].data)
    assert not np.array_equal(a.params["layers.0.weight"].data, c.params["layers.0.weight"].data)
    bound = np.sqrt(6.0 / (8 + 16))
    assert np.abs(a.params["layers.0.weight"].data).max() <= bound


def test_state_without_rng_is_zeroed():
    state = EncoderState(_plain_spec(hidden_dim=4), 3, None)
    assert not state.params["layers.0.weight"].data.any()


def test_state_without_rng_is_built_in_the_active_dtype():
    # the checkpoint loader's state on the wide-gconv-n1k shape (F=2000,
    # hidden 1024, projector 256) under f32: no f64 copy of a weight is
    # made on the way, so the peak is what stays alive (each parameter and
    # its gradient buffer)
    dc.set_precision("f32")
    spec = ModelSpec(base_encoder="gconv", hidden_dim=1024, projector_dim=256)
    tracemalloc.start()
    try:
        state = EncoderState(spec, 2000, rng=None)
        alive, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= alive + 2**20
    assert {p.data.dtype for p in state.parameters()} == {np.dtype(np.float32)}
    assert state.params["layers.0.prelu_slope"].data[0] == np.float32(PRELU_INIT_SLOPE)
    assert state.params["layers.0.ln_gain"].data.all() and not state.params["projector.1.weight"].data.any()


def test_gconv_layer_equals_spmm(two_node_graph):
    spec = _plain_spec(base_encoder="gconv")
    state = EncoderState(spec, 1, RngStream(0, "init"))
    state.params["layers.0.weight"].data[...] = 1.0
    adj = normalized_adjacency(two_node_graph)
    out = encode(state, spec, two_node_graph, adj=adj)
    np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-15)


def test_linear_layer_ignores_graph(two_node_graph):
    spec = _plain_spec()
    state = EncoderState(spec, 1, RngStream(0, "init"))
    state.params["layers.0.weight"].data[...] = 1.0
    out = encode(state, spec, two_node_graph)
    np.testing.assert_allclose(out.data, [[2.0], [4.0]], atol=1e-15)


def test_adjacency_usage_is_enforced(two_node_graph):
    adj = normalized_adjacency(two_node_graph)
    spec = _plain_spec(base_encoder="gconv")
    state = EncoderState(spec, 1, RngStream(0, "init"))
    with pytest.raises(ConfigError):
        encode(state, spec, two_node_graph)
    spec = _plain_spec()
    state = EncoderState(spec, 1, RngStream(0, "init"))
    with pytest.raises(ConfigError):
        encode(state, spec, two_node_graph, adj=adj)


def test_rows_of_the_wrong_width_fail_in_the_first_matmul(two_node_graph):
    spec = _plain_spec(dropout_p=0.5)
    state = EncoderState(spec, 1, RngStream(0, "init"))
    with pytest.raises(ShapeError, match="matmul shape mismatch"):
        encode_rows(state, spec, np.ones((2, 3)), training=True, rng=RngStream(0, "dropout"))
    rows = encode_rows(state, spec, two_node_graph.features)
    assert rows.data.tobytes() == encode(state, spec, two_node_graph).data.tobytes()


def test_training_dropout_requires_rng(two_node_graph):
    spec = _plain_spec(dropout_p=0.5)
    state = EncoderState(spec, 1, RngStream(0, "init"))
    with pytest.raises(ConfigError):
        encode(state, spec, two_node_graph, training=True)


def test_inference_is_deterministic_and_draws_nothing(two_node_graph):
    spec = ModelSpec(num_layers=2, hidden_dim=6, dropout_p=0.4, projector_dim=3)
    state = EncoderState(spec, 1, RngStream(1, "init"))
    rng = RngStream(1, "dropout")
    a = encode(state, spec, two_node_graph, rng=rng)
    b = encode(state, spec, two_node_graph)
    np.testing.assert_array_equal(a.data, b.data)
    assert_drew(rng)


def test_zero_dropout_training_equals_inference(two_node_graph):
    spec = ModelSpec(num_layers=2, hidden_dim=6, dropout_p=0.0, projector_dim=3)
    state = EncoderState(spec, 1, RngStream(1, "init"))
    tr = encode(state, spec, two_node_graph, training=True, rng=RngStream(0, "dropout"))
    inf = encode(state, spec, two_node_graph)
    np.testing.assert_array_equal(tr.data, inf.data)


def test_training_dropout_perturbs_output(two_node_graph):
    spec = ModelSpec(num_layers=2, hidden_dim=6, dropout_p=0.4, projector_dim=3)
    state = EncoderState(spec, 1, RngStream(1, "init"))
    tr = encode(state, spec, two_node_graph, training=True, rng=RngStream(0, "dropout"))
    inf = encode(state, spec, two_node_graph)
    assert not np.array_equal(tr.data, inf.data)


def test_rrelu_uses_fixed_slope(two_node_graph):
    # the negative branch scales by the fixed mid-range slope
    spec = _plain_spec(activation="rrelu")
    state = EncoderState(spec, 1, RngStream(0, "init"))
    state.params["layers.0.weight"].data[...] = -1.0
    state.params["layers.0.bias"].data[...] = 0.0
    out = encode(state, spec, two_node_graph)
    np.testing.assert_allclose(out.data, [[-2.0 * RRELU_SLOPE], [-4.0 * RRELU_SLOPE]], atol=1e-15)


def test_layer_norm_position_after_activation(two_node_graph):
    # with LN enabled each output row is standardized (gain 1, bias 0)
    spec = ModelSpec(num_layers=1, hidden_dim=8, dropout_p=0.0, layer_norm_enabled=True)
    state = EncoderState(spec, 1, RngStream(2, "init"))
    out = encode(state, spec, two_node_graph).data
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-3)


def test_projector_shape_and_composition(two_node_graph):
    spec = ModelSpec(num_layers=1, hidden_dim=4, dropout_p=0.0, projector_dim=2)
    state = EncoderState(spec, 1, RngStream(3, "init"))
    h = encode(state, spec, two_node_graph)
    z = project(state, h)
    assert z.data.shape == (2, 2)
    # zeroing the last projector weight zeroes the output
    state.params["projector.1.weight"].data[...] = 0.0
    z = project(state, encode(state, spec, two_node_graph))
    assert not z.data.any()


def test_inference_embeddings_builds_adjacency(two_node_graph):
    spec = _plain_spec(base_encoder="gconv")
    state = EncoderState(spec, 1, RngStream(0, "init"))
    state.params["layers.0.weight"].data[...] = 1.0
    out = inference_embeddings(state, spec, two_node_graph)
    np.testing.assert_allclose(out.data, [[3.0], [3.0]], atol=1e-15)


def _chain_graph(n: int, num_features: int) -> Graph:
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return Graph(edges, np.random.default_rng(0).normal(size=(n, num_features)))


@pytest.mark.parametrize("layer_norm", [True, False], ids=["ln", "no_ln"])
@pytest.mark.parametrize("activation", ["prelu", "elu"])
@pytest.mark.parametrize("base", ["linear", "gconv"])
def test_inference_embeddings_equal_the_taped_forward(base, activation, layer_norm):
    graph = _chain_graph(40, 5)
    spec = ModelSpec(
        num_layers=2, base_encoder=base, hidden_dim=8, activation=activation,
        layer_norm_enabled=layer_norm, projector_dim=4,
    )
    state = EncoderState(spec, 5, RngStream(4, "init"))
    adj = normalized_adjacency(graph) if base == "gconv" else None
    taped = encode(state, spec, graph, adj=adj)
    frozen = inference_embeddings(state, spec, graph)
    assert taped.needs_grad and taped._node.backward is not None
    assert not frozen.needs_grad and frozen._node is None
    np.testing.assert_array_equal(frozen.data, taped.data)
    assert frozen.data.dtype == taped.data.dtype
    # the frozen view shares the parameter arrays and leaves their gradients alone
    view = state.frozen()
    assert all(view.params[k].data is p.data for k, p in state.params.items())
    assert all(p.grad is None for p in state.parameters())


@pytest.mark.parametrize("base", ["linear", "gconv"])
def test_inference_embeddings_keep_no_tape(base):
    # without a tape each intermediate dies once the next op has read it, so
    # the peak is a few n x hidden arrays however deep the encoder is; with
    # one, every layer's LayerNorm input stays alive until the forward
    # returns, and with the output that is more than the frozen peak.  The
    # linear encoder's layer 0 input to LayerNorm is a product of the
    # features, which the tape re-forms instead of keeping, so five layers
    # keep five arrays there (four layers kept 4.15 units, below the frozen
    # peak of 4.19), and gconv's keep six.
    n, hidden = 1000, 64
    graph = _chain_graph(n, 16)
    spec = ModelSpec(num_layers=5, base_encoder=base, hidden_dim=hidden, activation="prelu")
    state = EncoderState(spec, 16, RngStream(5, "init"))
    adj = normalized_adjacency(graph) if base == "gconv" else None
    held = []
    # inference_embeddings builds its own adjacency, a few n-sized arrays
    for forward in (lambda: encode(state, spec, graph, adj=adj), lambda: inference_embeddings(state, spec, graph)):
        tracemalloc.start()
        try:
            out = forward()
            held.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        del out
    (taped, _), (_, frozen) = held
    unit = n * hidden * 8
    kept = spec.num_layers + (base == "gconv")
    assert frozen < 4.5 * unit < kept * unit <= taped


def _assert_blocks_equal_the_oracle(spec: ModelSpec, num_features: int) -> None:
    state = EncoderState(spec, num_features, RngStream(7, "init"))
    rng = np.random.default_rng(8)
    for p in state.parameters():  # move slopes, gains and biases off their init values
        p.data[...] += 0.1 * rng.normal(size=p.data.shape)
    b = ops._BLOCK_ENTRIES // max(num_features, spec.hidden_dim)  # rows per block
    # no rows, one row, a short block, one block, a one-row tail, several blocks
    for n in (0, 1, b - 1, b, b + 1, 3 * b + 7):
        graph = Graph(np.zeros((0, 2)), rng.normal(size=(n, num_features)))
        got = inference_embeddings(state, spec, graph).data
        want = oracles.inference_embeddings_oracle(state, spec, graph).data
        assert got.shape == (n, spec.hidden_dim) and got.dtype == want.dtype == dc.active_dtype()
        assert got.tobytes() == want.tobytes(), n


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("layer_norm", [True, False], ids=["ln", "no_ln"])
@pytest.mark.parametrize("activation", ["prelu", "elu", "relu"])
@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_linear_inference_blocks_equal_the_full_graph_forward(precision, activation, layer_norm, num_layers):
    # row-split GEMMs keeping their bits is a property of the BLAS build, so
    # it is checked here on the dense-n4k shape class (F=100, hidden 256)
    dc.set_precision(precision)
    spec = ModelSpec(num_layers=num_layers, hidden_dim=256, activation=activation, layer_norm_enabled=layer_norm)
    _assert_blocks_equal_the_oracle(spec, 100)


def test_linear_inference_blocks_equal_the_full_graph_forward_when_wide():
    # the wide-gconv-n1k shape class (F=2000, hidden 1024, f32): 65-row blocks
    dc.set_precision("f32")
    _assert_blocks_equal_the_oracle(ModelSpec(hidden_dim=1024, projector_dim=8), 2000)


@pytest.mark.parametrize("width", [2**17, 2**17 // 3, 2**17 // 5])
def test_row_blocks_tile_the_rows_without_a_one_row_block(width):
    step = max(2, ops._BLOCK_ENTRIES // width)
    for n in range(4 * step + 3):
        bounds = list(dc.row_blocks(n, width))
        edges = [0] + [b for _, b in bounds]
        assert [a for a, _ in bounds] == edges[:-1] and edges[-1] == n
        sizes = [b - a for a, b in bounds]
        assert sizes == [1] if n == 1 else all(2 <= s <= step + 1 for s in sizes)


def test_linear_inference_holds_the_output_and_one_block():
    # the dense-n4k shape: a 7.8 MiB output, filled block by block.  A
    # block's working set is about three block-sized arrays (its layer input,
    # the product and LayerNorm's centered copy: 3.15 blocks measured); one
    # full-graph forward peaked at the output plus 16.7 MiB
    n, num_features, hidden = 4000, 100, 256
    graph = Graph(np.zeros((0, 2)), np.random.default_rng(0).normal(size=(n, num_features)))
    spec = ModelSpec(hidden_dim=hidden)
    state = EncoderState(spec, num_features, RngStream(5, "init"))
    tracemalloc.start()
    try:
        inference_embeddings(state, spec, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = ops._BLOCK_ENTRIES * 8
    assert peak <= n * hidden * 8 + 4 * block


def test_multi_layer_composition_by_hand(two_node_graph):
    # two linear layers with weight 2 and no nonlinearity effects (inputs
    # stay positive under relu): output = x * 2 * 2
    spec = _plain_spec(num_layers=2)
    state = EncoderState(spec, 1, RngStream(0, "init"))
    for name in ("layers.0.weight", "layers.1.weight"):
        state.params[name].data[...] = 2.0
    out = encode(state, spec, two_node_graph)
    np.testing.assert_allclose(out.data, [[8.0], [16.0]], atol=1e-15)


# ---------------------------------------------------------------------------
# one training step: precision and where gradients flow


def _step_graph() -> Graph:
    rng = np.random.default_rng(5)
    n = 12
    edges = np.array([[u, (u + k) % n] for u in range(n) for k in (1, 3)])
    return Graph(edges, rng.standard_normal((n, 6)))


def _record_grads(monkeypatch) -> list:
    """Record every gradient the backward pass adds into a tape node,
    whichever op's closure returned it."""
    pushed = []
    original = ops._accumulate

    def spy(node, g):
        pushed.append((node, np.asarray(g)))
        original(node, g)

    monkeypatch.setattr(ops, "_accumulate", spy)
    return pushed


@pytest.mark.parametrize("projector", ["prelu", "elu"])
@pytest.mark.parametrize("activation", ACTIVATION_KINDS)
@pytest.mark.parametrize("base", ["linear", "gconv"])
def test_f32_training_step_stays_f32(monkeypatch, base, activation, projector):
    # every array an op puts on the tape (before Tensor's cast) and every
    # gradient pushed is float32; the scalar loss value alone is summed in f64
    made = []
    tensor_init = dc.Tensor.__init__

    def record(self, data, _parents=()):
        if _parents and np.size(data) > 1:
            made.append(np.asarray(data).dtype)
        tensor_init(self, data, _parents)

    monkeypatch.setattr(dc.Tensor, "__init__", record)
    pushed = _record_grads(monkeypatch)
    spec = ModelSpec(
        num_layers=2,
        base_encoder=base,
        hidden_dim=8,
        dropout_p=0.3,
        activation=activation,
        projector_dim=4,
        projector_activation=projector,
    )
    config = TrainConfig(model=spec, estimator=EstimatorSpec(), num_epochs=1, precision="f32")
    state, _ = train(_step_graph(), config)
    assert made and pushed
    assert {str(d) for d in made} == {"float32"}
    assert {str(g.dtype) for _, g in pushed} == {"float32"}
    assert {str(p.data.dtype) for p in state.parameters()} == {"float32"}


def _leaf_step(spec: ModelSpec, graph: Graph, monkeypatch, input_is_parameter: bool):
    """One f64 training step by hand; returns (state, the layers' matmul
    calls, transposes of W0).

    Each call is a layer's (input, output, the output's tape parents), layer
    0's first.  With `input_is_parameter` each layer runs as the earlier
    dropout, then matmul (`oracles.py`), on the input features as a
    Parameter, so the backward forms dL/dX as it did before a leaf could opt
    out of gradients.
    """
    calls = []
    matmul = dc.matmul

    def spy(x, w, p=0.0, rng=None, training=False, rescale=True):
        if not training:  # the projector's products, and the oracle's own
            return matmul(x, w)
        if input_is_parameter:
            if not x.needs_grad:
                x = dc.Parameter(x.data, name="features")
            out = oracles.dropout_matmul_oracle(x, w, p, rng, training)
        else:
            out = matmul(x, w, p, rng, training, rescale)
        calls.append((x, out, out._node.parents))
        return out

    monkeypatch.setattr(dc, "matmul", spy)
    state = EncoderState(spec, graph.num_features, RngStream(4, "init"))
    w0 = state.params["layers.0.weight"]
    w0.data = w0.data.view(CountsTranspose)
    CountsTranspose.transposes = 0
    adj = normalized_adjacency(graph) if spec.base_encoder == "gconv" else None
    h = encode(state, spec, graph, adj=adj, training=True, rng=RngStream(4, "dropout"))
    z = project(state, h)
    draw = draw_masks(graph, 0.3, RngStream(4, "mask"))
    backward(estimator_loss(z, draw, EstimatorSpec()))
    return state, calls, CountsTranspose.transposes


@pytest.mark.parametrize("base", ["linear", "gconv"])
def test_input_features_receive_no_gradient(monkeypatch, base):
    spec = ModelSpec(num_layers=2, base_encoder=base, hidden_dim=8, dropout_p=0.3, projector_dim=4)
    graph = _step_graph()
    state, calls, transposes = _leaf_step(spec, graph, monkeypatch, input_is_parameter=False)
    assert len(calls) == 2  # one per layer
    features, out, parents = calls[0]
    assert features.data is graph.features  # read in place, not copied
    assert not features.needs_grad
    assert features.grad is None
    assert parents == (None, state.params["layers.0.weight"]._node)  # the tape reaches W0 alone
    assert transposes == 0  # the first layer never forms g @ W0.T
    grads = {name: p.grad.copy() for name, p in state.params.items()}

    # the same step with dL/dX formed: the spy sees W0.T, and every
    # parameter gradient is bit-identical
    full, calls, transposes = _leaf_step(spec, graph, monkeypatch, input_is_parameter=True)
    assert transposes == 1
    assert calls[0][0].grad is not None
    for name, p in full.params.items():
        assert np.array_equal(p.grad, grads[name]), name


# ---------------------------------------------------------------------------
# what the training tape keeps


def _spy_inputs(monkeypatch, earlier: bool) -> dict:
    """Weak references to the input array of every layer's matmul and of
    every layer_norm and spmm call, to each layer_norm output
    ("normalized"), to each array of dropped rows and to each activation
    output, by op.  With `earlier` the ops the lean ones replaced
    (`oracles.py`) run instead, activations included, and each layer runs
    as dropout, then matmul."""
    inputs = {"matmul": [], "layer_norm": [], "normalized": [], "spmm": [], "dropped": [], "activated": []}
    if earlier:
        monkeypatch.setattr(dc, "activation", oracles.activation_oracle)
    matmul, layer_norm = dc.matmul, oracles.activated_layer_norm_oracle if earlier else dc.layer_norm

    def matmul_spy(x, w, p=0.0, rng=None, training=False, rescale=True):
        if not training:  # the projector's products, and the oracle's own
            return matmul(x, w)
        inputs["matmul"].append(weakref.ref(x.data))
        if earlier:
            return oracles.dropout_matmul_oracle(x, w, p, rng, training)
        return matmul(x, w, p, rng, training, rescale)

    def layer_norm_spy(x, *args):
        inputs["layer_norm"].append(weakref.ref(x.data))
        out = layer_norm(x, *args)
        inputs["normalized"].append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(dc, "matmul", matmul_spy)
    monkeypatch.setattr(dc, "layer_norm", layer_norm_spy)
    spmm = encoder_module.spmm

    def spmm_spy(adj, x):
        inputs["spmm"].append(weakref.ref(x.data))
        return spmm(adj, x)

    monkeypatch.setattr(encoder_module, "spmm", spmm_spy)
    for name, attr in (("dropped", "_dropped"), ("activated", "_activate")):

        def out_spy(*args, name=name, fn=getattr(ops, attr), **kwargs):
            out = fn(*args, **kwargs)
            inputs[name].append(weakref.ref(out))
            return out

        monkeypatch.setattr(ops, attr, out_spy)
    return inputs


@pytest.mark.parametrize("base, activation", [("linear", "prelu"), ("gconv", "relu")])
def test_tape_frees_what_no_backward_reads(monkeypatch, base, activation):
    # once encode and project return, the activation outputs, the gconv
    # matmul outputs, each layer's dropped rows and each layer_norm output
    # (layer 1's matmul input, and h) are gone: no closure reads
    # them.  Each layer's activation input stays, for layer_norm's backward
    # rebuilds the activation and the standardized rows from it, and so do
    # its output's columns for the dL/dW of the op that reads it, but for
    # the linear encoder's layer 0, whose activation input is a product of
    # the features (F 6, hidden 8): the tape re-forms it from the features,
    # the mask and W0.  Layer 0's matmul input, the graph's own feature
    # array, stays.  The gradients equal those of the earlier ops, which
    # kept the dropped rows, the activation outputs and the layer_norm
    # outputs.
    spec = ModelSpec(num_layers=2, base_encoder=base, hidden_dim=8, dropout_p=0.3, activation=activation, projector_dim=4)
    graph = _step_graph()
    adj = normalized_adjacency(graph) if base == "gconv" else None
    grads = []
    for earlier in (True, False):
        with monkeypatch.context() as m:
            inputs = _spy_inputs(m, earlier)
            state = EncoderState(spec, graph.num_features, RngStream(4, "init"))
            z = project(state, encode(state, spec, graph, adj=adj, training=True, rng=RngStream(4, "dropout")))
            if not earlier:
                assert inputs["matmul"][0]() is graph.features
                assert len(inputs["dropped"]) == 2  # layer 0's rows, then layer 1's
                assert len(inputs["activated"]) == 3  # each layer's, then the projector's
                assert len(inputs["normalized"]) == 2  # layer 0's, then h
                rebuilt = 0 if base == "gconv" else 1  # layer 0's activation input
                freed = inputs["activated"][:2] + inputs["spmm"] + inputs["dropped"] + inputs["matmul"][1:]
                freed += inputs["normalized"] + inputs["layer_norm"][:rebuilt]
                assert len(freed) == (9 if base == "gconv" else 8)
                assert [ref() is None for ref in freed] == [True] * len(freed)
                kept = inputs["layer_norm"][rebuilt:] + inputs["matmul"][:1]
                assert [ref() is None for ref in kept] == [False] * (3 - rebuilt)
            backward(estimator_loss(z, draw_masks(graph, 0.3, RngStream(4, "mask")), EstimatorSpec()))
        grads.append({name: p.grad for name, p in state.params.items()})
    earlier_grads, lean_grads = grads
    for name, g in lean_grads.items():
        assert g.tobytes() == earlier_grads[name].tobytes(), name


def _tape_after_project(
    n: int, hidden: int, num_features: int, nfm: bool = False, activation: str = "prelu", layer_norm: bool = True
) -> tuple[int, list[int]]:
    """Encode and project one f64 training step under tracemalloc; returns
    the bytes held once project returns and the sizes of the allocations
    behind them.  The graph's features come before, so neither counts them.
    As in `trainer.train`, h is not named, so it dies when project returns.
    With `nfm` the encoder has no dropout and masks the input entries at
    the same rate."""
    graph = _chain_graph(n, num_features)
    spec = ModelSpec(
        num_layers=2,
        hidden_dim=hidden,
        dropout_p=0.0 if nfm else 0.3,
        activation=activation,
        layer_norm_enabled=layer_norm,
        projector_dim=hidden,
    )
    state = EncoderState(spec, graph.num_features, RngStream(5, "init"))
    rng = RngStream(5, "dropout")
    tracemalloc.start()
    try:
        z = project(state, encode_rows(state, spec, graph.features, training=True, rng=rng, feature_mask_p=0.3 if nfm else 0.0))
        held = tracemalloc.get_traced_memory()[0]
        sizes = [trace.size for trace in tracemalloc.take_snapshot().traces]
    finally:
        tracemalloc.stop()
    assert z.needs_grad
    return held, sizes


def test_tape_after_project_holds_a_fixed_count_of_arrays():
    # What the tape holds once project returns, in n x hidden arrays:
    # layer 0 keeps its dropout mask as bits (F = hidden/4: 1/256); layer 1
    # its dropout mask as bits (1/64) and the PReLU input; then the ELU
    # output (which the ELU's backward and the second matmul both read),
    # and z: 3.01953125 in all, plus each layer's two n x 1 columns, the
    # row mean and the inverse deviation.  Layer 0's PReLU input, a product
    # of the features, is re-formed in the backward from the features, the
    # mask and W0; layer 1's matmul input and h, the two LayerNorm outputs,
    # are rebuilt from what LayerNorm keeps.  A tape that kept layer 0's
    # PReLU input and boolean masks held 4.15625 (its bound was [4.15625,
    # 4.25)), one that also kept the LayerNorm outputs 6.15625, one whose
    # LayerNorm kept its standardized rows beside the PReLU input 8.15625,
    # one whose layer 0 kept its dropped input rows 8.375, a tape whose ELU
    # kept a derivative factor beside its output 9.375, and the earlier
    # tape, which also kept each LayerNorm and dropout input, the ELU input
    # and a second ELU array, 13.375.
    n, hidden = 1000, 64
    held, _ = _tape_after_project(n, hidden, hidden // 4)
    unit, columns = n * hidden * 8, 2 * 2 * n * 8
    assert 3.01953125 * unit + columns <= held < 3.0625 * unit + columns


@pytest.mark.parametrize("activation", ["prelu", "relu"])
def test_tape_without_layer_norm_holds_a_fixed_count_of_arrays(activation):
    # Without LayerNorm each layer's activation keeps its input, the output
    # of the bias add, and the product that reads its output (layer 1's
    # matmul, the projector's first) keeps a rebuild from that input.
    # Layer 0's activation keeps the rebuild of its input's product of the
    # features, and the bias, instead.  So the tape holds, in n x hidden
    # arrays: layer 0's dropout mask as bits (1/256), layer 1's (1/64) and
    # activation input, the ELU output and z: 3.01953125, for either kind.
    # A tape that kept layer 0's activation input and boolean masks held
    # 4.15625 (its bound was [4.15625, 4.25) + the biases); one whose
    # products also kept each activation output held 6.15625 with prelu,
    # which also kept its input, and 4.40625 with relu, which kept a bool
    # mask (1/8).
    n, hidden = 1000, 64
    held, _ = _tape_after_project(n, hidden, hidden // 4, activation=activation, layer_norm=False)
    unit, biases = n * hidden * 8, 2 * hidden * 8
    assert 3.01953125 * unit <= held < 3.0625 * unit + biases


def test_wide_input_leaves_only_its_mask_on_the_tape():
    # F = 4 x hidden: layer 0 keeps its n x F mask as bits (1/16 units) and
    # no n x F float or boolean array.  F is wider than the layer, so the
    # tape keeps layer 0's product (1 unit) rather than re-form it: it holds
    # 4.078125 n x hidden f64 units and the four n x 1 columns.  A tape
    # with boolean masks held 4.625 (its bound was [4.625, 4.75)); keeping
    # the dropped rows (4 units) as well would make it 8.125
    n, hidden = 1000, 64
    num_features = 4 * hidden
    held, sizes = _tape_after_project(n, hidden, num_features)
    unit, columns = n * hidden * 8, 2 * 2 * n * 8
    assert 4.078125 * unit + columns <= held < 4.125 * unit + columns
    assert sizes.count(n * num_features // 8) == 1  # the mask, as bits
    assert n * num_features not in sizes  # no boolean mask
    assert max(sizes) < n * num_features * 4  # no n x F float array, f32 or f64


def test_masked_wide_input_leaves_only_its_mask_on_the_tape():
    # the nfm ablation: layer 0 keeps the n x F feature mask as bits (1/16
    # units), no boolean one and no masked n x F float copy of the features
    # (4 units), and layer 1 keeps no dropout mask, so the tape holds 4.0625
    # units and the four n x 1 columns.  With a boolean mask it held 4.5
    # (its bound was [4.5, 4.625))
    n, hidden = 1000, 64
    num_features = 4 * hidden
    held, sizes = _tape_after_project(n, hidden, num_features, nfm=True)
    unit, columns = n * hidden * 8, 2 * 2 * n * 8
    assert 4.0625 * unit + columns <= held < 4.125 * unit + columns
    assert sizes.count(n * num_features // 8) == 1  # the mask, as bits
    assert n * num_features not in sizes  # no boolean mask
    assert max(sizes) < n * num_features * 4  # no n x F float array, f32 or f64


def test_feature_masking_is_the_earlier_masked_input_bitwise():
    # nfm masked the features (no rescale) with a `keep_mask` draw from the
    # dropout stream and then encoded them without dropout
    graph = _chain_graph(50, 12)
    spec = ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.0, activation="prelu", projector_dim=8)
    outputs = []
    for masked_outside in (True, False):
        state = EncoderState(spec, graph.num_features, RngStream(5, "init"))
        rng = RngStream(5, "dropout")
        if masked_outside:
            keep = ops.keep_mask(rng, graph.features.shape, 0.3)
            feats = graph.features * np.unpackbits(keep, axis=1, count=graph.num_features).astype(bool)
            h = encode_rows(state, spec, feats, training=True, rng=rng)
        else:
            h = encode_rows(state, spec, graph.features, training=True, rng=rng, feature_mask_p=0.3)
        dc.backward(kit.tsum(project(state, h)))
        outputs.append((h.data, {name: p.grad for name, p in state.params.items()}, rng.uniform()))
    (h_a, grads_a, next_a), (h_b, grads_b, next_b) = outputs
    assert h_a.tobytes() == h_b.tobytes()
    assert grads_a.keys() == grads_b.keys()
    for name in grads_a:
        assert grads_a[name].tobytes() == grads_b[name].tobytes(), name
    assert next_a == next_b  # the same draws from the stream


def test_feature_masking_replaces_dropout():
    graph = _chain_graph(10, 4)
    spec = ModelSpec(num_layers=1, hidden_dim=4, dropout_p=0.3, projector_dim=4)
    state = EncoderState(spec, graph.num_features, RngStream(5, "init"))
    with pytest.raises(ConfigError, match="feature masking"):
        encode_rows(state, spec, graph.features, training=True, rng=RngStream(5, "dropout"), feature_mask_p=0.3)
    with pytest.raises(ConfigError, match="rng"):
        encode_rows(state, replace(spec, dropout_p=0.0), graph.features, training=True, feature_mask_p=0.3)
