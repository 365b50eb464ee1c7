"""Training loop determinism, ablation rewriting, checkpoint round trips,
and the embedding export format."""

import base64
import hashlib
import json
import math
import os
import tracemalloc
import types
import warnings
import weakref

import numpy as np
import pytest

from conftest import edge_list, split_generator
import memtrace
from memtrace import epoch_phases
from oracles import save_checkpoint_v1_oracle, save_checkpoint_v2_oracle

import signa.contrast as contrast
import signa.diffcore as dc
import signa.trainer as trainer
from signa.contrast import EstimatorSpec, draw_masks, estimator_loss
from signa.diffcore import set_precision
from signa.diffcore.ops import _BLOCK_ENTRIES
from signa.cli import main
from signa.encoder import EncoderState, ModelSpec, encode, inference_embeddings, project
from signa.errors import CheckpointError, ConfigError
from signa.graphdata import normalized_adjacency, sbm_generate
from signa.trainer import (
    TrainConfig,
    apply_ablation,
    load_checkpoint,
    save_checkpoint,
    train,
)


def _small_graph(seed=0, blocks=(12, 12), f=6):
    means = np.zeros((2, f))
    means[1, 0] = 1.0
    return sbm_generate(list(blocks), 0.4, 0.05, means, 0.5, split_generator(seed))


def _config(**kw) -> TrainConfig:
    model = kw.pop(
        "model",
        ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, projector_dim=4),
    )
    base = dict(
        model=model,
        estimator=EstimatorSpec(),
        mask_rate=0.3,
        learning_rate=0.01,
        num_epochs=15,
        seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# config parsing


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(mask_rate=1.5)
    with pytest.raises(ConfigError):
        _config(learning_rate=0.0)
    with pytest.raises(ConfigError):
        _config(num_epochs=0)
    with pytest.raises(ConfigError):
        _config(ablation="dropout_off")
    with pytest.raises(ConfigError):
        _config(precision="f16")
    with pytest.raises(ConfigError):
        _config(weight_decay=-1.0)


def test_from_dict_round_trip():
    cfg = _config(mask_rate=0.7, seed=3)
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_to_dict_keeps_the_v1_schema():
    # the v1 layout of a default config, without the retired estimator targets
    golden = {
        "model": {
            "num_layers": 2,
            "base_encoder": "linear",
            "hidden_dim": 128,
            "dropout_p": 0.4,
            "activation": "prelu",
            "layer_norm_enabled": True,
            "projector_dim": 64,
            "projector_activation": "elu",
        },
        "estimator": {"kind": "norm_jsd", "temperature": 0.5, "clamp_eps": 1e-7},
        "mask_rate": 0.3,
        "learning_rate": 0.001,
        "weight_decay": 0.0,
        "num_epochs": 200,
        "seed": 0,
        "ablation": "none",
        "nfm_p_feat": None,
        "precision": "f64",
        "log_every": 0,
    }
    assert TrainConfig(model=ModelSpec(), estimator=EstimatorSpec()).to_dict() == golden


def test_from_dict_rejects_retired_estimator_targets():
    with pytest.raises(ConfigError, match="estimator.target_pos"):
        TrainConfig.from_dict({"estimator": {"target_pos": 1.0}})


def test_from_dict_reports_all_unknown_keys_at_once():
    raw = _config().to_dict()
    raw["typo_top"] = 1
    raw["model"]["typo_model"] = 2
    raw["estimator"]["typo_est"] = 3
    with pytest.raises(ConfigError) as excinfo:
        TrainConfig.from_dict(raw)
    msg = str(excinfo.value)
    assert "typo_top" in msg
    assert "model.typo_model" in msg
    assert "estimator.typo_est" in msg


def test_from_dict_checks_value_types():
    # a bool is not an int, an int is a float, and nfm_p_feat may be null
    for raw, key in (
        ({"model": {"num_layers": "2"}}, "model.num_layers"),
        ({"model": {"layer_norm_enabled": 1}}, "model.layer_norm_enabled"),
        ({"estimator": {"temperature": None}}, "estimator.temperature"),
        ({"mask_rate": None}, "mask_rate"),
        ({"num_epochs": True}, "num_epochs"),
        ({"num_epochs": 10.0}, "num_epochs"),
        ({"ablation": ["none"]}, "ablation"),
    ):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be "):
            TrainConfig.from_dict(raw)
    cfg = TrainConfig.from_dict(
        {"mask_rate": 0, "learning_rate": 1, "nfm_p_feat": None, "model": {"dropout_p": 0}}
    )
    assert (cfg.mask_rate, cfg.learning_rate, cfg.nfm_p_feat, cfg.model.dropout_p) == (0, 1, None, 0)


def test_from_dict_rejects_non_object():
    with pytest.raises(ConfigError):
        TrainConfig.from_dict([1, 2, 3])


def test_partial_dict_uses_defaults():
    cfg = TrainConfig.from_dict({"model": {"hidden_dim": 5}, "estimator": {}})
    assert cfg.model.hidden_dim == 5
    assert cfg.mask_rate == 0.3
    assert cfg.estimator.kind == "norm_jsd"


# ---------------------------------------------------------------------------
# ablation rewriting


def test_ablation_none_changes_nothing():
    cfg = _config()
    assert apply_ablation(cfg) == cfg
    # nfm_p_feat takes effect only under the nfm ablation
    assert apply_ablation(_config(nfm_p_feat=0.8)).nfm_p_feat is None


def test_ablation_no_dropout():
    plan = apply_ablation(_config(ablation="no_dropout"))
    assert plan.model.dropout_p == 0.0
    assert plan.mask_rate == 0.3


def test_ablation_nfm_moves_noise_to_features():
    cfg = _config(ablation="nfm")
    plan = apply_ablation(cfg)
    assert plan.model.dropout_p == 0.0
    # falls back to the encoder dropout rate when nfm_p_feat is unset
    assert plan.nfm_p_feat == cfg.model.dropout_p
    plan = apply_ablation(_config(ablation="nfm", nfm_p_feat=0.8))
    assert plan.nfm_p_feat == 0.8


def test_ablation_mask_pinning():
    assert apply_ablation(_config(ablation="no_stoch_mask")).mask_rate == 0.0
    assert apply_ablation(_config(ablation="all_mask")).mask_rate == 1.0


# ---------------------------------------------------------------------------
# training loop


def test_loss_curve_shape_and_finiteness():
    g = _small_graph()
    state, curve = train(g, _config(num_epochs=10))
    assert len(curve) == 10
    assert np.all(np.isfinite(curve))


def test_training_reduces_loss():
    g = _small_graph()
    _, curve = train(g, _config(num_epochs=80))
    head = np.mean(curve[:8])
    tail = np.mean(curve[-8:])
    assert tail < head


def test_training_is_deterministic():
    g = _small_graph()
    s1, c1 = train(g, _config())
    s2, c2 = train(g, _config())
    assert c1 == c2
    for p, q in zip(s1.parameters(), s2.parameters()):
        assert p.data.tobytes() == q.data.tobytes()


def test_seed_changes_trajectory():
    g = _small_graph()
    _, c1 = train(g, _config(seed=0))
    _, c2 = train(g, _config(seed=1))
    assert c1 != c2


def test_no_stoch_mask_equals_zero_mask_rate():
    g = _small_graph()
    _, c1 = train(g, _config(ablation="no_stoch_mask"))
    _, c2 = train(g, _config(mask_rate=0.0))
    assert c1 == c2


def test_nfm_runs_and_differs_from_plain():
    g = _small_graph()
    _, c_plain = train(g, _config(num_epochs=5))
    _, c_nfm = train(g, _config(num_epochs=5, ablation="nfm"))
    assert c_plain != c_nfm


def test_gconv_training_runs():
    g = _small_graph()
    model = ModelSpec(
        num_layers=2, base_encoder="gconv", hidden_dim=8, dropout_p=0.2, projector_dim=4
    )
    _, curve = train(g, _config(model=model, num_epochs=5))
    assert len(curve) == 5


def test_f32_training_runs():
    g = _small_graph()
    state, curve = train(g, _config(precision="f32", num_epochs=5))
    assert state.parameters()[0].data.dtype == np.float32
    assert np.all(np.isfinite(curve))


@pytest.mark.parametrize("seed, ablation", [(s, "none") for s in range(6)] + [(0, "nfm")])
def test_a_node_whose_features_are_all_dropped_still_trains(seed, ablation):
    # with F = 4 and p = 0.4 dropout (or nfm's masking) zeroes all of some
    # node's features, which makes its row of z exactly zero at
    # initialization; the loss scores it with the other rows
    g = _small_graph(blocks=(30, 30), f=4)
    model = ModelSpec(hidden_dim=8, projector_dim=8)
    _, curve = train(g, _config(model=model, num_epochs=50, seed=seed, ablation=ablation))
    assert np.all(np.isfinite(curve))
    assert np.mean(curve[-5:]) < np.mean(curve[:5])


def test_an_epochs_backward_peaks_below_its_loss(monkeypatch):
    # backward frees the tape as it walks it, so at this shape it peaks below
    # the loss forward; it peaked ~0.8 MiB above it while every closure lived
    # to the end of the pass.  Ten-row loss strips make the n x d arrays, not
    # the strips, the loss's working set.
    n = 400
    monkeypatch.setattr(contrast, "_BLOCK_ELEMS", 10 * n)
    means = np.zeros((2, 16))
    means[1, 0] = 1.0
    graph = sbm_generate([n // 2, n // 2], 0.04, 0.01, means, 1.0, split_generator(0))
    peaks = {}

    def traced(phase, fn):
        def run(*args):
            tracemalloc.reset_peak()
            out = fn(*args)
            peaks[phase] = tracemalloc.get_traced_memory()[1]
            return out

        return run

    monkeypatch.setattr(trainer, "estimator_loss", traced("loss", estimator_loss))
    monkeypatch.setattr(dc, "backward", traced("backward", dc.backward))
    model = ModelSpec(hidden_dim=128, projector_dim=128)
    tracemalloc.start()
    try:
        train(graph, _config(model=model, num_epochs=1))
    finally:
        tracemalloc.stop()
    assert peaks["backward"] < peaks["loss"], peaks


def test_log_every_prints(capsys):
    g = _small_graph()
    train(g, _config(num_epochs=4, log_every=2))
    out = capsys.readouterr().out
    assert "epoch" in out and "loss" in out


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    g = _small_graph()
    for precision in ("f32", "f64"):
        cfg = _config(precision=precision)
        state, curve = train(g, cfg)
        path = str(tmp_path / f"{precision}.json")
        save_checkpoint(state, cfg, path, final_loss=curve[-1])
        loaded_state, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        for p, q in zip(state.parameters(), loaded_state.parameters()):
            assert p.name == q.name
            assert p.data.dtype == q.data.dtype
            assert p.data.tobytes() == q.data.tobytes()


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_loaded_parameters_hold_no_gradient_until_a_backward(precision, tmp_path):
    g = _small_graph()
    cfg = _config(num_epochs=2, precision=precision)
    state, curve = train(g, cfg)
    assert all(p.grad is None for p in state.parameters())  # the last step released them
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, path, final_loss=curve[-1])
    loaded, _ = load_checkpoint(path)
    assert all(p.grad is None for p in loaded.parameters())
    z = project(loaded, encode(loaded, cfg.model, g))
    dc.backward(estimator_loss(z, draw_masks(g, cfg.mask_rate, dc.RngStream(0, "mask")), cfg.estimator))
    for p in loaded.parameters():
        assert p.grad.dtype == p.data.dtype and p.grad.shape == p.data.shape
    assert any(p.grad.any() for p in loaded.parameters())


def test_v1_checkpoint_with_estimator_targets_loads(tmp_path):
    g = _small_graph()
    cfg = _config(num_epochs=3)
    state, curve = train(g, cfg)
    path = str(tmp_path / "ck.json")
    save_checkpoint_v1_oracle(state, cfg, path, final_loss=curve[-1])
    doc = json.load(open(path))
    doc["config"]["estimator"].update(target_pos=1.0, target_neg=0.0)
    json.dump(doc, open(path, "w"))
    loaded_state, loaded_cfg = load_checkpoint(path)
    assert loaded_cfg == cfg
    for p, q in zip(state.parameters(), loaded_state.parameters()):
        assert p.data.tobytes() == q.data.tobytes()


def _load_recording_warnings(path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        state, _ = load_checkpoint(path)
    return state, [str(w.message) for w in caught]


@pytest.mark.parametrize("trained", ["f32", "f64"])
@pytest.mark.parametrize("active", ["f32", "f64"])
def test_v1_and_v2_checkpoints_load_to_the_same_bits(trained, active, tmp_path):
    g = _small_graph()
    cfg = _config(num_epochs=3, precision=trained)
    state, curve = train(g, cfg)
    v1, v2 = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
    save_checkpoint_v1_oracle(state, cfg, v1, final_loss=curve[-1])
    save_checkpoint(state, cfg, v2, final_loss=curve[-1])
    set_precision(active)
    (old, old_warned), (new, new_warned) = _load_recording_warnings(v1), _load_recording_warnings(v2)
    expected = [] if trained == active else [f"checkpoint saved under {trained}, loading under {active}: converting"]
    assert old_warned == new_warned == expected
    dtype = np.float32 if active == "f32" else np.float64
    for p, q, r in zip(state.parameters(), old.parameters(), new.parameters()):
        assert q.data.dtype == r.data.dtype == dtype
        assert q.data.tobytes() == r.data.tobytes() == p.data.astype(dtype).tobytes()


def test_loading_a_checkpoint_holds_the_document_once(tmp_path):
    # While a blob is decoded the loader holds the parsed document, the state
    # and that blob; tracemalloc counts the state twice over, each parameter
    # and its gradient buffer, which np.zeros leaves untouched.  No bytes copy
    # of a payload (what base64.b64decode makes of a str) is alive with
    # them.  f64 checkpoint loaded under f64, so nothing is converted.
    model = ModelSpec(num_layers=1, hidden_dim=256, projector_dim=8)
    state = EncoderState(model, 2000, dc.RngStream(0, "init"))
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, _config(model=model), path)
    params = sum(p.data.nbytes for p in state.parameters())
    largest = max(p.data.nbytes for p in state.parameters())
    del state
    tracemalloc.start()
    try:
        load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= os.path.getsize(path) + 2 * params + largest + 2**20


def test_f32_checkpoint_blobs_are_f4_and_at_most_55_percent_of_v1(tmp_path):
    g = _small_graph()
    model = ModelSpec(num_layers=2, hidden_dim=96, dropout_p=0.3, projector_dim=48)
    cfg = _config(model=model, num_epochs=1, precision="f32")
    state, curve = train(g, cfg)
    v1, v2 = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
    save_checkpoint_v1_oracle(state, cfg, v1, final_loss=curve[-1])
    save_checkpoint(state, cfg, v2, final_loss=curve[-1])
    doc = json.load(open(v2))
    assert (doc["format_version"], doc["precision"]) == (2, "f32")
    for entry, p in zip(doc["parameters"], state.parameters(), strict=True):
        assert base64.b64decode(entry["data"]) == p.data.astype("<f4").tobytes()
    assert os.path.getsize(v2) <= 0.55 * os.path.getsize(v1)


def test_f64_checkpoint_differs_from_v1_only_in_format_version(tmp_path):
    g = _small_graph()
    cfg = _config(num_epochs=3)
    state, curve = train(g, cfg)
    v1, v2 = str(tmp_path / "v1.json"), str(tmp_path / "v2.json")
    save_checkpoint_v1_oracle(state, cfg, v1, final_loss=curve[-1])
    save_checkpoint(state, cfg, v2, final_loss=curve[-1])
    assert json.load(open(v2)) == dict(json.load(open(v1)), format_version=2)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_checkpoint_reads_as_the_benchmark_reads_it(precision, tmp_path):
    """`perfbench/run.py`'s `check_checkpoint` json-loads every checkpoint
    as UTF-8 text and needs a finite float `final_loss`, so the file stays
    JSON until that check can read another format."""
    g = _small_graph()
    cfg = _config(num_epochs=3, precision=precision)
    state, curve = train(g, cfg)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, path, final_loss=curve[-1])
    with open(path, "r", encoding="utf-8") as fh:
        loss = json.load(fh).get("final_loss")
    assert isinstance(loss, float) and math.isfinite(loss)


@pytest.mark.parametrize("chunk", [3, 3 * 7, trainer._BLOB_CHUNK])
@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_streamed_checkpoint_equals_the_write_json_writer(precision, chunk, monkeypatch, tmp_path):
    # blobs of 0-2 bytes past a whole chunk, a gconv and a linear state, a
    # final loss and none
    monkeypatch.setattr(trainer, "_BLOB_CHUNK", chunk)
    g = _small_graph()
    for base, hidden in (("linear", 8), ("gconv", 7)):
        model = ModelSpec(num_layers=2, base_encoder=base, hidden_dim=hidden, dropout_p=0.3, projector_dim=5)
        cfg = _config(model=model, num_epochs=2, precision=precision)
        state, curve = train(g, cfg)
        for loss in (curve[-1], None):
            mine, theirs = str(tmp_path / "mine.json"), str(tmp_path / "theirs.json")
            save_checkpoint(state, cfg, mine, final_loss=loss)
            save_checkpoint_v2_oracle(state, cfg, theirs, final_loss=loss)
            assert open(mine, "rb").read() == open(theirs, "rb").read()


def test_saving_a_checkpoint_holds_one_chunk_of_text(tmp_path):
    # the parameters' P bytes are held before the save; the save adds about
    # one chunk's base64 bytes, its str and its UTF-8 encoding, and the
    # header, where one document of base64 strings held ~3.5 P at its peak.
    # W0 spans many chunks, and the file is the earlier writer's
    model = ModelSpec(num_layers=1, hidden_dim=256, projector_dim=8)
    state = EncoderState(model, 2000, dc.RngStream(0, "init"))
    cfg = _config(model=model)
    blobs = sum(p.data.nbytes for p in state.parameters())
    path = str(tmp_path / "ck.json")
    tracemalloc.start()
    try:
        save_checkpoint(state, cfg, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 3 * trainer._BLOB_CHUNK * 4 // 3 + 2**16
    assert peak <= bound < blobs / 4
    assert max(p.data.nbytes for p in state.parameters()) > 10 * trainer._BLOB_CHUNK
    save_checkpoint_v2_oracle(state, cfg, str(tmp_path / "oracle.json"))
    assert open(path, "rb").read() == open(str(tmp_path / "oracle.json"), "rb").read()


def test_checkpoint_rerun_is_byte_identical(tmp_path):
    g = _small_graph()
    cfg = _config()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    state, curve = train(g, cfg)
    save_checkpoint(state, cfg, p1, final_loss=curve[-1])
    state, curve = train(g, cfg)
    save_checkpoint(state, cfg, p2, final_loss=curve[-1])
    assert open(p1, "rb").read() == open(p2, "rb").read()


# sha256 of the checkpoints small runs wrote with the earlier ops.  The
# first three were written while the ELU kept a derivative factor beside its
# output, relu formed its mask in every forward and the nfm ablation passed
# its masked rows as a features override; the other four while each layer's
# activation and LayerNorm were two ops, LayerNorm keeping its standardized
# rows; the next four while dropout was its own op before each later
# layer's matmul; the next three while a standalone relu or leaky relu kept
# a bool mask and the product after it the activation's output; the last
# two while a layer without LayerNorm summed its bias in an `add` op of its
# own before the activation; the last six by the same ops, to pin paths no
# earlier run reached: features wider than the layers (layer 0's product
# stays on the tape), gconv with LayerNorm at f64, and projectors other
# than the ELU.  Each run is 15 epochs on `_small_graph()` with one BLAS thread, and
# LayerNorm is on in all of them but the "no-layer-norm" ones.
_EARLIER_CHECKPOINT_SHA256 = {
    "relu": "e04d3356eecee5a2003358391b09e35b8c2006a7daefd13f0c136221f2906549",
    "rrelu-f32": "cfb9482f2a67fcc2cf92b66d0a55d595f8dd88dc5bf2e5eeb8a157fcb2d840a5",
    "nfm": "2e6a851cab70c9618860b1158d06cec407551db5354778b6a23e312134aebae3",
    "prelu": "5ee7f6afa428a43895311ef70af345e65b195aee83b3976a43d3b41819d81f74",
    "prelu-f32": "72ae3673a4a70b0ac9094bf53c8c68ea3118c7750be2ab63eab813808fd6bd5e",
    "elu": "4764a23a6232e9ed087e606e95336eb0d37188d9431c685976f7bea35f45088c",
    "leaky_relu": "ac8556859162717a08ae11573275aeb39ee6bece9b19e370a71b262a954bdabd",
    "gconv-info_nce-f32": "264064eeb06304dc8f237327fd82853345017a6ca330147670a82699f81cbd9b",
    "no-layer-norm": "620a205d9cc4eb88dba00a3561a8bc23b804c313df47b2862b4a234b3d080436",
    "three-layers": "58e659c550d4698ca6023ef4e41b428598b17e37a52fbf6bf96ef2c1d30aa413",
    "jsd": "b1110742f8dc518ae38569d018901d808287ec13a62ec7f399ec245282069e58",
    "no-layer-norm-relu": "0d9143361f9925d3895b1942cf6bbec4b8fc680601b3a1856aa2d5eb5fa92e48",
    "no-layer-norm-leaky_relu-f32": "a6964812c99b12563081246d04f1ba1e748e06238487ea68e77a73251395e973",
    "no-layer-norm-rrelu": "a3f9a477e88205f465a2c35537a62ad00cbec4d0431edb397357c8e2f7afa6fc",
    "no-layer-norm-elu": "57c682712b852128be5055f96d7b96d88bd3ceb959b0a9f4aa6304c74d28f692",
    "no-layer-norm-prelu-gconv": "26938e54b2b4d365d98912070f693a00f7400e2599b2e3bd901994d17f00be81",
    "wide-features": "0a371e5546b5470417c94f1751c5943148582a8b1865671caa51a54f3fb3729b",
    "wide-features-gconv-f32": "14c5dc259074e55c5da4522df5760d116a5ee70d86c4fa14a9aabef3e0d5eadc",
    "wide-features-no-layer-norm-relu": "157ee43ef742e95455795f7175dac279d1cbc3b2901b487f48bbee5c3cc14ab7",
    "gconv": "a9ed9baa1ccee4ec9f87f095c8a6dfaebaf8d573bb6fba8dc60a9d1233cbe0ec",
    "prelu-projector": "1d669cd1a2982ce26b2c77e87143acad1615244f93c441eeec3fbbdbfe5e83b9",
    "leaky_relu-projector-no-layer-norm-elu-f32": "193eff17d7f27b7abbc471f47acb3444f8a1fe65369043570e68e39ba2476839",
}


def _gconv() -> ModelSpec:
    return ModelSpec(num_layers=2, base_encoder="gconv", hidden_dim=8, dropout_p=0.3, projector_dim=4)


def _no_layer_norm(activation: str, base_encoder: str = "linear") -> ModelSpec:
    return ModelSpec(
        num_layers=2,
        base_encoder=base_encoder,
        hidden_dim=8,
        dropout_p=0.3,
        activation=activation,
        layer_norm_enabled=False,
        projector_dim=4,
    )


_SMALL_RUNS = {
    "relu": dict(model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, activation="relu", projector_dim=4)),
    "rrelu-f32": dict(
        model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, activation="rrelu", projector_dim=4),
        precision="f32",
    ),
    "nfm": dict(ablation="nfm"),
    "prelu": dict(),
    "prelu-f32": dict(precision="f32"),
    "elu": dict(model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, activation="elu", projector_dim=4)),
    "leaky_relu": dict(
        model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, activation="leaky_relu", projector_dim=4)
    ),
    "gconv-info_nce-f32": dict(
        model=ModelSpec(num_layers=2, base_encoder="gconv", hidden_dim=8, dropout_p=0.3, projector_dim=4),
        estimator=EstimatorSpec(kind="info_nce"),
        precision="f32",
    ),
    "no-layer-norm": dict(
        model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, layer_norm_enabled=False, projector_dim=4)
    ),
    "three-layers": dict(model=ModelSpec(num_layers=3, hidden_dim=8, dropout_p=0.3, projector_dim=4)),
    "jsd": dict(estimator=EstimatorSpec(kind="jsd")),
    "no-layer-norm-relu": dict(model=_no_layer_norm("relu")),
    "no-layer-norm-leaky_relu-f32": dict(model=_no_layer_norm("leaky_relu"), precision="f32"),
    "no-layer-norm-rrelu": dict(model=_no_layer_norm("rrelu")),
    # the ELU keeps its output; with gconv the bias follows spmm
    "no-layer-norm-elu": dict(model=_no_layer_norm("elu")),
    "no-layer-norm-prelu-gconv": dict(model=_no_layer_norm("prelu", "gconv")),
    # 12 features, wider than the 8-wide layers: layer 0's product is held,
    # not formed again in the backward (`f` is `_small_graph`'s feature count)
    "wide-features": dict(f=12),
    "wide-features-gconv-f32": dict(f=12, model=_gconv(), precision="f32"),
    "wide-features-no-layer-norm-relu": dict(f=12, model=_no_layer_norm("relu")),
    "gconv": dict(model=_gconv()),
    "prelu-projector": dict(
        model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, projector_dim=4, projector_activation="prelu")
    ),
    "leaky_relu-projector-no-layer-norm-elu-f32": dict(
        model=ModelSpec(
            num_layers=2, hidden_dim=8, dropout_p=0.3, activation="elu", layer_norm_enabled=False,
            projector_dim=4, projector_activation="leaky_relu",
        ),
        precision="f32",
    ),
}


@pytest.mark.parametrize("run", sorted(_SMALL_RUNS))
def test_small_checkpoints_keep_the_earlier_bytes(run, tmp_path):
    # the projectors are ELUs but in the last two entries; the encoder layers
    # run each activation kind, and the other runs prelu
    kw = dict(_SMALL_RUNS[run])
    graph = _small_graph(f=kw.pop("f", 6))
    cfg = _config(**kw)
    state, curve = train(graph, cfg)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, path, final_loss=curve[-1])
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == _EARLIER_CHECKPOINT_SHA256[run]


def _public_steps(graph, config) -> tuple:
    """`trainer.train` spelt out in signa's public calls, as
    `perfbench/traced.py` times it: per epoch `draw_masks`, `encode`,
    `project`, `estimator_loss`, `dc.backward` and `dc.adam_step`."""
    dc.set_precision(config.precision)
    plan = apply_ablation(config)
    init_rng, dropout_rng, mask_rng = (dc.RngStream(config.seed, p) for p in ("init", "dropout", "mask"))
    adj = normalized_adjacency(graph) if plan.model.base_encoder == "gconv" else None
    state = EncoderState(plan.model, graph.num_features, init_rng)
    adam = dc.AdamState(state.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay)
    curve = []
    for epoch in range(config.num_epochs):
        draw = draw_masks(graph, plan.mask_rate, mask_rng, epoch=epoch)
        h = encode(state, plan.model, graph, adj=adj, training=True, rng=dropout_rng)
        z = project(state, h)
        loss = estimator_loss(z, draw, plan.estimator)
        curve.append(float(loss.data))
        dc.backward(loss)
        dc.adam_step(adam)
    return state, curve


@pytest.mark.parametrize("precision", ["f32", "f64"])
@pytest.mark.parametrize("base", ["linear", "gconv"])
def test_the_public_step_sequence_gives_trains_checkpoint(base, precision, tmp_path):
    # the benchmark's traced stage times these calls in place of `train`;
    # its checkpoint must be train's, byte for byte
    set_precision(precision)
    graph = _small_graph()
    model = ModelSpec(num_layers=2, base_encoder=base, hidden_dim=8, dropout_p=0.3, projector_dim=4)
    cfg = _config(model=model, precision=precision, num_epochs=4)
    paths = []
    for run in (train, _public_steps):
        state, curve = run(graph, cfg)
        paths.append(tmp_path / f"{run.__name__}.json")
        save_checkpoint(state, cfg, str(paths[-1]), final_loss=curve[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_f32_features_refuse_an_f64_run(monkeypatch):
    # a graph holds its features in the precision it was built under; f32
    # features would train an f64 run on their rounding, so the run refuses
    # them before any work
    set_precision("f32")
    graph = _small_graph()
    monkeypatch.setattr(trainer, "EncoderState", None)  # no work: not even the weights
    with pytest.raises(ConfigError, match="features are float32 but the run's precision is f64"):
        train(graph, _config())
    assert dc.get_precision() == "f32"


def _wide_run(**kw) -> tuple:
    """A 200-node graph with 1024 features and an f32 linear encoder 256
    wide: W0 is two Adam blocks."""
    graph = _small_graph(blocks=(100, 100), f=1024)
    model = ModelSpec(num_layers=2, hidden_dim=256, dropout_p=0.2, projector_dim=64)
    return graph, _config(model=model, num_epochs=2, precision="f32", **kw)


def test_no_gradient_outlives_its_step():
    graph, cfg = _wide_run()
    phases = epoch_phases(graph, cfg)
    state = EncoderState(cfg.model, graph.num_features, None)
    param_bytes = sum(p.data.nbytes for p in state.parameters())
    # the second epoch starts holding the parameters and Adam's two moments,
    # and no gradient (a parameter that kept a gradient array held 4 x)
    assert 3 * param_bytes <= phases["encode"].start < 3.1 * param_bytes
    # the step releases every gradient, and its scratch is two arrays of
    # one block at most (one pass over W0 held two W0-sized arrays)
    assert phases["adam"].start - phases["adam"].end >= param_bytes
    assert phases["adam"].peak - phases["adam"].start <= 2 * _BLOCK_ENTRIES * 4 + 16384


def test_nfm_holds_no_more_than_dropout():
    # nfm masks the input entries where dropout drops them: both keep the
    # mask alone of the n x F input (nfm then needs no later dropout mask);
    # with a masked float copy of the features on its tape, nfm's encode and
    # loss peaks sat 1.4 MB above the dropout run's
    graph, plain = _wide_run()
    _, nfm = _wide_run(ablation="nfm")
    assert apply_ablation(nfm).nfm_p_feat == plain.model.dropout_p
    dropout_phases, nfm_phases = epoch_phases(graph, plain), epoch_phases(graph, nfm)
    for name in ("encode", "loss", "backward"):
        assert nfm_phases[name].peak <= dropout_phases[name].peak, name


@pytest.mark.parametrize("base", ["linear", "gconv"])
def test_no_layer_norm_output_outlives_project(monkeypatch, base):
    # an op that reads a layer_norm output in its backward keeps the
    # output's rebuild, not its array, and the loop does not name h: in each
    # epoch, once project has returned (at the loss's start), every
    # layer_norm output and h are gone.  Before, the next layer's
    # dropout_matmul and the projector's matmul kept each of them, and the
    # loop kept h through the loss.
    layer_norm, encode_rows = dc.layer_norm, trainer.encode_rows
    outputs, alive = [], []

    def layer_norm_spy(*args, **kwargs):
        out = layer_norm(*args, **kwargs)
        outputs.append(weakref.ref(out.data))
        return out

    def encode_spy(*args, **kwargs):
        h = encode_rows(*args, **kwargs)
        outputs.append(weakref.ref(h.data))
        return h

    def loss_spy(*args):
        alive.append((len(outputs), sum(ref() is not None for ref in outputs)))
        outputs.clear()
        return estimator_loss(*args)

    monkeypatch.setattr(dc, "layer_norm", layer_norm_spy)
    monkeypatch.setattr(trainer, "encode_rows", encode_spy)
    monkeypatch.setattr(trainer, "estimator_loss", loss_spy)
    model = ModelSpec(num_layers=3, base_encoder=base, hidden_dim=8, dropout_p=0.3, projector_dim=4)
    train(_small_graph(), _config(model=model, num_epochs=2))
    # per epoch: three layer_norm outputs, then h (the last of them), none alive
    assert alive == [(4, 0), (4, 0)]


def test_memtrace_runs_a_preset_on_an_sbm_of_the_given_shape(capsys):
    # the shape mode trains the preset's model on an in-process SBM, no
    # file needed, for two epochs, and prints the four phases
    graph = memtrace.sbm_graph(60, 12)
    assert graph.features.shape == (60, 12) and graph.features.dtype == np.float64
    assert graph.num_edges > 0 and sorted(set(graph.labels)) == [0, 1, 2, 3, 4]
    memtrace.main(["--preset", "photo", "--nodes", "60", "--features", "12"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["phase", "encode", "loss", "backward", "adam"]
    with pytest.raises(SystemExit):
        memtrace.main(["--preset", "photo", "--nodes", "60", "--features", "12", "--edges", "e.txt"])


def test_memtrace_times_each_phase_of_epochs_after_the_first(capsys, monkeypatch):
    # --ms N trains N epochs under the same spies without tracemalloc and
    # prints each phase's median ms over epochs 2..N and the median epoch,
    # the phases' sum
    started = []
    start = memtrace.tracemalloc.start
    monkeypatch.setattr(memtrace.tracemalloc, "start", lambda *a: started.append(a) or start(*a))
    memtrace.main(["--preset", "photo", "--nodes", "60", "--features", "12", "--ms", "3"])
    assert started == []
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["phase", "ms", "(medians", "of", "epochs", "2-3)"]
    rows = {line.split()[0]: float(line.split()[1]) for line in lines[1:]}
    assert list(rows) == ["encode", "loss", "backward", "adam", "epoch"]
    assert all(ms > 0 for ms in rows.values())
    assert rows["epoch"] <= sum(ms for name, ms in rows.items() if name != "epoch") + 0.2
    for argv in (["--ms", "1"], ["--ms", "3", "--eval", "cluster"]):
        with pytest.raises(SystemExit):
            memtrace.main(["--preset", "photo", "--nodes", "60", "--features", "12", *argv])


def test_timed_phases_time_each_call_of_each_phase(monkeypatch):
    # a fake clock that only the spied calls and the gap between them move
    clock = [0.0]
    monkeypatch.setattr(memtrace.time, "perf_counter", lambda: clock[0])

    def work(seconds):
        clock[0] += seconds

    calls = types.SimpleNamespace(first=work, second=work)

    def run():
        for seconds in (0.002, 0.004):
            calls.first(seconds)  # phase "a", then "b" until `second`
            clock[0] += 0.001
            calls.second(2 * seconds)  # phase "c"
            clock[0] += 0.5  # outside every phase

    times = memtrace.timed_phases(run, [(calls, "first", "a", "b"), (calls, "second", "c", None)])
    assert {name: np.round(ms, 9).tolist() for name, ms in times.items()} == {"a": [2, 4], "b": [1, 1], "c": [4, 8]}


def test_epoch_ms_takes_medians_over_the_epochs_after_the_first(monkeypatch):
    times = {"encode": [90, 2, 4, 6], "loss": [90, 3, 5, 1], "backward": [90, 1, 1, 9], "adam": [90, 1, 1, 1]}
    monkeypatch.setattr(memtrace, "timed_phases", lambda run, spies: times)
    medians = memtrace.epoch_ms(None, None)
    # epochs 2..4 sum to 7, 11 and 17
    assert medians == {"encode": 4.0, "loss": 3.0, "backward": 1.0, "adam": 1.0, "epoch": 11.0}


def test_checkpoint_errors(tmp_path):
    g = _small_graph()
    cfg = _config()
    state, _ = train(g, cfg)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, path)

    missing = str(tmp_path / "nope.json")
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(missing)

    truncated = str(tmp_path / "trunc.json")
    open(truncated, "w").write(open(path).read()[:100])
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(truncated)

    doc = json.load(open(path))

    bad = dict(doc, format_version=99)
    bad_path = str(tmp_path / "ver.json")
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"][0]["name"] = "layers.9.weight"
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="does not fit"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"][0]["shape"] = [1, 1]
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="shape"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"][0]["data"] = "!!notbase64!!"
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    blob = base64.b64decode(bad["parameters"][0]["data"])
    bad["parameters"][0]["data"] = base64.b64encode(blob[:-8]).decode()
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="values"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    blob = base64.b64decode(bad["parameters"][0]["data"])
    bad["parameters"][0]["data"] = base64.b64encode(blob[:-1]).decode()
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="not a whole number of 8-byte values"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"][0]["shape"] = [float(d) for d in bad["parameters"][0]["shape"]]
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="not a list of integers"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"].append(bad["parameters"][0])
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="appears twice"):
        load_checkpoint(bad_path)

    bad = dict(doc, precision="f16")
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="precision 'f16'"):
        load_checkpoint(bad_path)

    bad = json.loads(json.dumps(doc))
    bad["parameters"] = bad["parameters"][1:]
    json.dump(bad, open(bad_path, "w"))
    with pytest.raises(CheckpointError, match="missing parameters"):
        load_checkpoint(bad_path)


def test_checkpoint_precision_conversion_warns(tmp_path):
    g = _small_graph()
    cfg = _config(num_epochs=3)
    state, _ = train(g, cfg)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, path)
    set_precision("f32")
    with pytest.warns(UserWarning, match="converting"):
        loaded, _ = load_checkpoint(path)
    assert loaded.parameters()[0].data.dtype == np.float32


# ---------------------------------------------------------------------------
# embedding export


def test_export_embeddings_format(tmp_path):
    # a freshly trained state, exported through its checkpoint by `signa embed`
    g = _small_graph()
    cfg = _config(num_epochs=3)
    state, curve = train(g, cfg)
    ckpt = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, ckpt, final_loss=curve[-1])
    edges, feats = tmp_path / "edges.txt", tmp_path / "features.csv"
    edges.write_text("".join(f"{u} {v}\n" for u, v in edge_list(g)))
    np.savetxt(feats, g.features, fmt="%.17g", delimiter=",")
    path = str(tmp_path / "emb.csv")
    assert main(["embed", "--checkpoint", ckpt, "--edges", str(edges), "--features", str(feats),
                 "--out", path, "--quiet"]) == 0
    lines = open(path).read().strip().split("\n")
    assert lines[0] == ",".join(f"dim_{j}" for j in range(cfg.model.hidden_dim))
    assert len(lines) == g.num_nodes + 1
    parsed = np.loadtxt(path, delimiter=",", skiprows=1)
    # 17 significant digits round-trip doubles exactly
    expected = inference_embeddings(state, cfg.model, g).data
    np.testing.assert_array_equal(parsed, expected)
