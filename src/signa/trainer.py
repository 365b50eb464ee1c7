"""Full-batch training loop, run configuration, and checkpoint I/O.

One epoch is: encode with dropout noise -> project -> redraw neighbor masks
-> estimator loss -> backward -> Adam.  Ablation variants rewrite the
effective model/estimator/mask settings before training starts.
"""

from __future__ import annotations

import binascii
import json
import math
import warnings
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import diffcore as dc
from .atomic import open_atomic
from .contrast import EstimatorSpec, draw_masks, estimator_loss
from .encoder import EncoderState, ModelSpec, encode_rows, project
from .errors import CheckpointError, ConfigError, OptimizationError, not_utf8
from .graphdata import Graph, normalized_adjacency

ABLATIONS = ("none", "no_dropout", "nfm", "no_stoch_mask", "all_mask")
CHECKPOINT_FORMAT_VERSION = 2
# v2 stores each parameter blob in the checkpoint's precision; v1 always in f64
_BLOB_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_BLOB_CHUNK = 3 << 16  # blob bytes base64-encoded per write; a multiple of 3
_BLOB_MARK = "\x00blob\x00"  # stands for each blob's string in the checkpoint's header
# estimator keys that v1 checkpoints written before their removal still carry
_RETIRED_ESTIMATOR_KEYS = ("target_pos", "target_neg")


@dataclass
class TrainConfig:
    model: ModelSpec
    estimator: EstimatorSpec
    mask_rate: float = 0.3
    learning_rate: float = 0.001
    weight_decay: float = 0.0
    num_epochs: int = 200
    seed: int = 0
    ablation: str = "none"
    nfm_p_feat: float | None = None  # nfm only; falls back to model.dropout_p
    precision: str = "f64"
    log_every: int = 0

    def __post_init__(self):
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ConfigError(f"mask_rate must be in [0, 1], got {self.mask_rate}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0.0:
            raise ConfigError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.num_epochs < 1:
            raise ConfigError(f"num_epochs must be >= 1, got {self.num_epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {self.ablation!r}")
        if self.nfm_p_feat is not None and not 0.0 <= self.nfm_p_feat < 1.0:
            raise ConfigError(f"nfm_p_feat must be in [0, 1), got {self.nfm_p_feat}")
        if self.precision not in ("f32", "f64"):
            raise ConfigError(f"precision must be 'f32' or 'f64', got {self.precision!r}")
        if self.log_every < 0:
            raise ConfigError(f"log_every must be non-negative, got {self.log_every}")

    @classmethod
    def from_dict(cls, raw: dict) -> "TrainConfig":
        """Strict parse: every unknown key (top-level or nested) is collected
        and reported in one error, so typos surface all at once."""
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        model_raw = raw.get("model", {})
        est_raw = raw.get("estimator", {})
        if not isinstance(model_raw, dict):
            raise ConfigError("config key 'model' must be an object")
        if not isinstance(est_raw, dict):
            raise ConfigError("config key 'estimator' must be an object")
        unknown = _unknown_keys(cls, raw, "") + _unknown_keys(ModelSpec, model_raw, "model.")
        unknown += _unknown_keys(EstimatorSpec, est_raw, "estimator.")
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
        top = {k: v for k, v in raw.items() if k not in ("model", "estimator")}
        _check_types(cls, top, "")
        _check_types(ModelSpec, model_raw, "model.")
        _check_types(EstimatorSpec, est_raw, "estimator.")
        return cls(model=ModelSpec(**model_raw), estimator=EstimatorSpec(**est_raw), **top)

    def to_dict(self) -> dict:
        return asdict(self)


def _unknown_keys(cls, raw: dict, prefix: str) -> list[str]:
    names = {f.name for f in fields(cls)}
    return [prefix + k for k in raw if k not in names]


# The JSON values each declared field type accepts: an int is a float, a
# bool is not an int.  Field types are read as the annotation strings.
_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool, "None": type(None)}


def _check_types(cls, raw: dict, prefix: str) -> None:
    declared = {f.name: f.type for f in fields(cls)}
    for key, value in raw.items():
        kinds = declared[key].split(" | ")
        if not any(isinstance(value, _JSON_TYPES[k]) for k in kinds) or (
            isinstance(value, bool) and "bool" not in kinds
        ):
            raise ConfigError(f"config key {prefix + key!r} must be {declared[key]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):  # json reads NaN and Infinity
            raise ConfigError(f"config key {prefix + key!r} must be finite, got {value!r}")


def apply_ablation(config: TrainConfig) -> TrainConfig:
    """The effective config of the requested ablation variant.

    no_dropout zeroes encoder dropout; nfm swaps encoder dropout for input
    feature masking (zeroing without rescale); no_stoch_mask / all_mask pin
    the mask rate to 0 / 1.  Estimator swaps are plain config choices.
    `nfm_p_feat` is None unless the nfm ablation is active.
    """
    model = config.model
    mask_rate = config.mask_rate
    nfm_p = None
    if config.ablation in ("no_dropout", "nfm"):
        model = replace(model, dropout_p=0.0)
    if config.ablation == "nfm":
        nfm_p = config.nfm_p_feat if config.nfm_p_feat is not None else config.model.dropout_p
    if config.ablation == "no_stoch_mask":
        mask_rate = 0.0
    if config.ablation == "all_mask":
        mask_rate = 1.0
    return replace(config, model=model, mask_rate=mask_rate, nfm_p_feat=nfm_p)


def train(graph: Graph, config: TrainConfig) -> tuple[EncoderState, list[float]]:
    """Run the unsupervised loop and return the trained state + loss curve.

    The loss recorded per epoch is the pre-update value (the one whose
    gradient the step applied).  A non-finite loss aborts immediately.

    A graph holds its features in the precision it was built under.  An
    f64 graph under an f32 run is cast at layer 0, but f32 features under an
    f64 run are refused: widening them cannot undo their rounding.
    """
    if config.precision == "f64" and graph.features.dtype != np.float64:
        raise ConfigError(
            f"the graph's features are {graph.features.dtype} but the run's precision is f64: "
            "build the graph under f64"
        )
    dc.set_precision(config.precision)
    effective = apply_ablation(config)
    init_rng = dc.RngStream(config.seed, "init")
    dropout_rng = dc.RngStream(config.seed, "dropout")
    mask_rng = dc.RngStream(config.seed, "mask")

    adj = normalized_adjacency(graph) if effective.model.base_encoder == "gconv" else None
    state = EncoderState(effective.model, graph.num_features, init_rng)
    params = state.parameters()
    adam = dc.AdamState(params, lr=config.learning_rate, weight_decay=config.weight_decay)

    curve: list[float] = []
    for epoch in range(config.num_epochs):
        draw = draw_masks(graph, effective.mask_rate, mask_rng, epoch=epoch)
        # neither h nor z is named: h dies when project returns, z inside the
        # loss, and then only the tape holds what backward reads ("Memory" in
        # signa.diffcore)
        loss = estimator_loss(
            project(state, encode_rows(
                state, effective.model, graph.features, adj=adj, training=True, rng=dropout_rng,
                feature_mask_p=effective.nfm_p_feat or 0.0,
            )),
            draw,
            effective.estimator,
        )
        del draw
        value = float(loss.data)
        if not np.isfinite(value):
            raise OptimizationError(f"non-finite loss at epoch {epoch}")
        dc.backward(loss)
        dc.adam_step(adam)
        curve.append(value)
        if config.log_every and (epoch % config.log_every == 0 or epoch == config.num_epochs - 1):
            print(f"epoch {epoch:5d}  loss {value:.6f}")
    return state, curve


# ---------------------------------------------------------------------------
# checkpoint I/O


def save_checkpoint(state: EncoderState, config: TrainConfig, path: str, final_loss: float | None = None) -> None:
    """Write a JSON checkpoint with base64 little-endian parameter blobs.

    Each blob holds the parameter in the active precision, `<f4` under f32
    and `<f8` under f64; the `precision` field names which.  The file is
    `json.dumps(doc, indent=2, sort_keys=True)` and a newline, written
    atomically, but each blob's base64 text is streamed into it one chunk
    of `_BLOB_CHUNK` bytes at a time: no whole blob's text is ever formed.
    """
    precision = dc.get_precision()
    payloads = []
    params = []
    for p in state.parameters():
        payloads.append(np.ascontiguousarray(p.data, dtype=_BLOB_DTYPES[precision]).reshape(-1).view(np.uint8))
        params.append({"name": p.name, "shape": list(p.data.shape), "data": _BLOB_MARK})
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "precision": precision,
        "config": config.to_dict(),
        "num_features": state.num_features,
        "parameters": params,
        "final_loss": final_loss,
        "epochs": config.num_epochs,
        "seed": config.seed,
    }
    # the text around the blobs, split where each blob's string goes
    *heads, tail = json.dumps(doc, indent=2, sort_keys=True).split(json.dumps(_BLOB_MARK))
    with open_atomic(path) as fh:
        for head, payload in zip(heads, payloads, strict=True):
            fh.write(head)
            fh.write('"')
            # a chunk of whole 3-byte groups encodes without padding, so the
            # chunks' texts join into the whole blob's base64
            for start in range(0, payload.size, _BLOB_CHUNK):
                fh.write(binascii.b2a_base64(payload[start : start + _BLOB_CHUNK], newline=False).decode("ascii"))
            fh.write('"')
        fh.write(tail)
        fh.write("\n")


def load_checkpoint(path: str) -> tuple[EncoderState, TrainConfig]:
    """Read a v1 or v2 checkpoint back; parameters are bit-exact under the
    precision they were trained in.

    v1 blobs are always `<f8`; v2 blobs are in the checkpoint's precision.
    Loading under a different active precision converts the parameters
    (widening f32 to f64 is exact) and warns.  Corrupt or truncated payloads
    fail with no partial state.
    """
    # json.load drops the file's text once parsed; below, each payload string
    # leaves the document as its blob is decoded
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"checkpoint {not_utf8(path, exc)}") from None

    if not isinstance(doc, dict):
        raise CheckpointError(f"checkpoint {path} holds a JSON {type(doc).__name__}, not an object")
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, CHECKPOINT_FORMAT_VERSION):  # True == 1.0 == 1
        raise CheckpointError(
            f"checkpoint format version {version!r} unsupported (expected 1 or {CHECKPOINT_FORMAT_VERSION})"
        )
    saved_precision = doc.get("precision")
    if version == 1:
        blob_dtype = _BLOB_DTYPES["f64"]
    elif isinstance(saved_precision, str) and saved_precision in _BLOB_DTYPES:
        blob_dtype = _BLOB_DTYPES[saved_precision]
    else:
        raise CheckpointError(f"checkpoint precision {saved_precision!r} is not 'f32' or 'f64'")
    raw = _field(doc, "config", dict, "checkpoint")
    if isinstance(raw.get("estimator"), dict):
        for key in _RETIRED_ESTIMATOR_KEYS:
            raw["estimator"].pop(key, None)
    try:
        config = TrainConfig.from_dict(raw)
    except ConfigError as exc:
        raise CheckpointError(f"checkpoint {path}: {exc}") from None
    num_features = _field(doc, "num_features", int, "checkpoint")
    if num_features < 1:
        raise CheckpointError(f"checkpoint field 'num_features' must be >= 1, got {num_features}")
    # no ablation: dropout_p shapes no parameter, and inference never drops out
    state = EncoderState(config.model, num_features, rng=None)

    if saved_precision != dc.get_precision():
        warnings.warn(
            f"checkpoint saved under {saved_precision}, loading under {dc.get_precision()}: converting"
        )

    seen = set()
    for entry in _field(doc, "parameters", list, "checkpoint"):
        if not isinstance(entry, dict):
            raise CheckpointError(f"checkpoint parameter entry is a {type(entry).__name__}, not an object")
        name = entry.get("name")
        if not isinstance(name, str) or name not in state.params:
            raise CheckpointError(f"checkpoint parameter {name!r} does not fit the config architecture")
        if name in seen:
            raise CheckpointError(f"checkpoint parameter {name!r} appears twice")
        param = state.params[name]
        shape = _field(entry, "shape", list, f"parameter {name!r}")
        if not all(type(d) is int for d in shape):
            raise CheckpointError(f"parameter {name!r} shape {shape} is not a list of integers")
        shape = tuple(shape)
        if shape != param.data.shape:
            raise CheckpointError(f"parameter {name!r} shape {shape} != expected {param.data.shape}")
        _field(entry, "data", str, f"parameter {name!r}")
        try:
            # reads the ASCII text in place, where b64decode would copy it to bytes
            # first; strict_mode is why the package needs Python 3.11
            blob = binascii.a2b_base64(entry.pop("data"), strict_mode=True)
        except ValueError as exc:
            raise CheckpointError(f"parameter {name!r} payload is corrupt: {exc}") from None
        if len(blob) % blob_dtype.itemsize:
            raise CheckpointError(
                f"parameter {name!r} payload is {len(blob)} bytes,"
                f" not a whole number of {blob_dtype.itemsize}-byte values"
            )
        flat = np.frombuffer(blob, dtype=blob_dtype)
        if flat.size != param.data.size:
            raise CheckpointError(
                f"parameter {name!r} payload holds {flat.size} values, expected {param.data.size}"
            )
        param.data[...] = flat.reshape(shape)  # the cast rounds as .astype does
        del blob, flat
        seen.add(name)
    missing = set(state.params) - seen
    if missing:
        raise CheckpointError(f"checkpoint missing parameters: {', '.join(sorted(missing))}")
    return state, config


def _field(doc: dict, key: str, kind: type, where: str):
    """doc[key], which must be a `kind` (a bool does not count as an int)."""
    value = doc.get(key)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise CheckpointError(f"{where} field {key!r} is missing or not a {kind.__name__}")
    return value
