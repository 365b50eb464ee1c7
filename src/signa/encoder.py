"""Dropout-noised encoder (Linear or GConv base) and the MLP projector.

Each of the L layers applies dropout, then the base encoder, then the
activation, then LayerNorm (optional).  The output of the last layer is the representation
consumed downstream; the projector exists only for the contrastive loss.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import diffcore as dc
from .errors import ConfigError
from .graphdata import Graph, normalized_adjacency, row_blocks, spmm

if TYPE_CHECKING:  # linear-encoder processes never import scipy
    import scipy.sparse as sp

BASE_ENCODERS = ("linear", "gconv")
# rrelu runs as a fixed-slope leaky relu (midpoint of the usual random range)
ACTIVATION_KINDS = ("relu", "elu", "prelu", "leaky_relu", "rrelu")
RRELU_SLOPE = 0.23
PRELU_INIT_SLOPE = 0.25


@dataclass
class ModelSpec:
    """Architecture description; immutable once validated."""

    num_layers: int = 2
    base_encoder: str = "linear"
    hidden_dim: int = 128
    dropout_p: float = 0.4
    activation: str = "prelu"
    layer_norm_enabled: bool = True
    projector_dim: int = 64
    projector_activation: str = "elu"

    def __post_init__(self):
        if self.num_layers < 1:
            raise ConfigError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.base_encoder not in BASE_ENCODERS:
            raise ConfigError(f"base_encoder must be one of {BASE_ENCODERS}, got {self.base_encoder!r}")
        if self.hidden_dim < 1 or self.projector_dim < 1:
            raise ConfigError("hidden_dim and projector_dim must be >= 1")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ConfigError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        for field in ("activation", "projector_activation"):
            kind = getattr(self, field)
            if kind not in ACTIVATION_KINDS:
                raise ConfigError(f"{field} must be one of {ACTIVATION_KINDS}, got {kind!r}")


def _resolve_activation(kind: str) -> tuple[str, float | None]:
    if kind == "rrelu":
        return "leaky_relu", RRELU_SLOPE
    if kind == "leaky_relu":
        return "leaky_relu", 0.01
    return kind, None


class EncoderState:
    """Named parameters for the encoder layers and the projector.

    `params` maps each stable name ("layers.0.weight", "projector.1.weight",
    ...) to its Parameter, in checkpoint and optimizer order.  Base-encoder
    layers carry a bias only when layer norm is off; a prelu activation adds
    its slope.
    """

    def __init__(self, spec: ModelSpec, num_features: int, rng: dc.RngStream | None):
        # rng=None leaves the weights zero (checkpoint loading overwrites them).
        # Every array but a random draw is built in the active dtype, so no
        # f64 copy is made under f32.
        dtype = dc.active_dtype()
        self.spec = spec
        self.num_features = int(num_features)
        self.params: dict[str, dc.Parameter] = {}

        dims = [self.num_features] + [spec.hidden_dim] * spec.num_layers
        for l in range(spec.num_layers):
            self._glorot(f"layers.{l}.weight", dims[l], dims[l + 1], rng)
            if not spec.layer_norm_enabled:
                self._add(f"layers.{l}.bias", np.zeros(dims[l + 1], dtype))
            if spec.activation == "prelu":
                self._add(f"layers.{l}.prelu_slope", np.full(1, PRELU_INIT_SLOPE, dtype))
            if spec.layer_norm_enabled:
                self._add(f"layers.{l}.ln_gain", np.ones(dims[l + 1], dtype))
                self._add(f"layers.{l}.ln_bias", np.zeros(dims[l + 1], dtype))
        self._glorot("projector.0.weight", spec.hidden_dim, spec.projector_dim, rng)
        self._glorot("projector.1.weight", spec.projector_dim, spec.projector_dim, rng)
        if spec.projector_activation == "prelu":
            self._add("projector.prelu_slope", np.full(1, PRELU_INIT_SLOPE, dtype))

    def _add(self, name: str, data: np.ndarray) -> None:
        self.params[name] = dc.Parameter(data, name=name)

    def _glorot(self, name: str, fan_in: int, fan_out: int, rng: dc.RngStream | None) -> None:
        if rng is None:
            self._add(name, np.zeros((fan_in, fan_out), dc.active_dtype()))
            return
        # drawn in f64 and then cast, so f32 weights round the f64 draw
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        self._add(name, (2.0 * rng.uniform(size=(fan_in, fan_out)) - 1.0) * bound)

    def parameters(self) -> list[dc.Parameter]:
        return list(self.params.values())

    def frozen(self) -> EncoderState:
        """This state with every parameter as a constant over the same array.

        A forward through it records no tape, so each intermediate is freed
        as soon as the next op has read it.
        """
        view = copy.copy(self)
        view.params = {name: dc.Tensor(p.data) for name, p in self.params.items()}
        return view


def encode(
    state: EncoderState,
    spec: ModelSpec,
    graph: Graph,
    adj: sp.csr_matrix | None = None,
    training: bool = False,
    rng: dc.RngStream | None = None,
) -> dc.Tensor:
    """`encode_rows` over all of the graph's feature rows (|V| x d_enc)."""
    return encode_rows(state, spec, graph.features, adj, training, rng)


def encode_rows(
    state: EncoderState,
    spec: ModelSpec,
    feats: np.ndarray,
    adj: sp.csr_matrix | None = None,
    training: bool = False,
    rng: dc.RngStream | None = None,
) -> dc.Tensor:
    """The L layers on any (m, F) block of feature rows, giving m x d_enc.

    Dropout draws from `rng` only in training mode with p > 0; inference
    consumes no randomness.  At inference without `adj`, every op acts on
    each row by itself, so a block of rows gives those rows of the full
    forward.  With `adj` (gconv only), it is the operator over exactly
    these m rows.  A width other than the state's F fails in the first
    matmul.
    """
    if spec.base_encoder == "gconv" and adj is None:
        raise ConfigError("gconv base encoder requires a normalized adjacency")
    if spec.base_encoder == "linear" and adj is not None:
        raise ConfigError("linear base encoder does not take an adjacency")
    if training and spec.dropout_p > 0.0 and rng is None:
        raise ConfigError("training with dropout requires an rng stream")

    act_kind, act_slope = _resolve_activation(spec.activation)
    params = state.params
    h = dc.Tensor(feats)
    for l in range(spec.num_layers):
        h = dc.dropout(h, spec.dropout_p, rng, training)
        h = dc.matmul(h, params[f"layers.{l}.weight"])
        if spec.base_encoder == "gconv":
            h = spmm(adj, h)
        if not spec.layer_norm_enabled:
            h = dc.add(h, params[f"layers.{l}.bias"])
        h = dc.activation(h, act_kind, params.get(f"layers.{l}.prelu_slope", act_slope))
        if spec.layer_norm_enabled:
            h = dc.layer_norm(h, params[f"layers.{l}.ln_gain"], params[f"layers.{l}.ln_bias"])
    return h


def project(state: EncoderState, h: dc.Tensor) -> dc.Tensor:
    """Two-layer MLP z = W2 sigma(W1 h); no activation after the last layer."""
    act_kind, act_slope = _resolve_activation(state.spec.projector_activation)
    params = state.params
    z = dc.matmul(h, params["projector.0.weight"])
    z = dc.activation(z, act_kind, params.get("projector.prelu_slope", act_slope))
    return dc.matmul(z, params["projector.1.weight"])


def inference_embeddings(state: EncoderState, spec: ModelSpec, graph: Graph) -> dc.Tensor:
    """Frozen-encoder representations (|V| x hidden_dim, active dtype):
    encode with training off, the parameters as constants (no tape) and no
    projector.

    The linear encoder acts on each row by itself, so the output is
    allocated once and filled one `row_blocks` block at a time: eval holds
    the output plus one block's intermediates, and the bits equal one
    full-graph forward.  gconv mixes rows through the adjacency, so it runs
    one full-graph forward.
    """
    frozen = state.frozen()
    if spec.base_encoder == "gconv":
        return encode_rows(frozen, spec, graph.features, adj=normalized_adjacency(graph))
    out = np.empty((graph.num_nodes, spec.hidden_dim), dtype=dc.active_dtype())
    for start, stop in row_blocks(graph.num_nodes, max(graph.num_features, spec.hidden_dim)):
        out[start:stop] = encode_rows(frozen, spec, graph.features[start:stop]).data
    return dc.Tensor(out)
