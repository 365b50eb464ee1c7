"""Training loop determinism, ablation rewriting, checkpoint round trips,
and the embedding export format."""

import base64
import hashlib
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import edge_list, split_generator
from oracles import save_checkpoint_v1_oracle

import signa.diffcore as dc
from signa.contrast import EstimatorSpec, draw_masks, estimator_loss
from signa.diffcore import set_precision
from signa.cli import main
from signa.encoder import EncoderState, ModelSpec, encode, inference_embeddings, project
from signa.errors import CheckpointError, ConfigError
from signa.graphdata import sbm_generate
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
def test_loaded_gradients_are_zero_writable_and_take_a_backward(precision, tmp_path):
    g = _small_graph()
    cfg = _config(num_epochs=2, precision=precision)
    state, curve = train(g, cfg)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, path, final_loss=curve[-1])
    loaded, _ = load_checkpoint(path)
    buffers = []
    for p in loaded.parameters():
        assert p.grad.dtype == p.data.dtype and p.grad.shape == p.data.shape
        assert p.grad.flags.writeable and not p.grad.any()
        buffers.append(p.grad)
    z = project(loaded, encode(loaded, cfg.model, g))
    dc.backward(estimator_loss(z, draw_masks(g, cfg.mask_rate, dc.RngStream(0, "mask")), cfg.estimator))
    for p, buffer in zip(loaded.parameters(), buffers):
        assert p.grad is buffer  # summed into in place
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


def test_checkpoint_rerun_is_byte_identical(tmp_path):
    g = _small_graph()
    cfg = _config()
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    state, curve = train(g, cfg)
    save_checkpoint(state, cfg, p1, final_loss=curve[-1])
    state, curve = train(g, cfg)
    save_checkpoint(state, cfg, p2, final_loss=curve[-1])
    assert open(p1, "rb").read() == open(p2, "rb").read()


# sha256 of the checkpoints three small runs wrote while the ELU kept a
# derivative factor beside its output, relu formed its mask in every
# forward and the nfm ablation passed its masked rows as a features
# override.  Each run is 15 epochs on `_small_graph()` with one BLAS thread.
_EARLIER_CHECKPOINT_SHA256 = {
    "relu": "e04d3356eecee5a2003358391b09e35b8c2006a7daefd13f0c136221f2906549",
    "rrelu-f32": "cfb9482f2a67fcc2cf92b66d0a55d595f8dd88dc5bf2e5eeb8a157fcb2d840a5",
    "nfm": "2e6a851cab70c9618860b1158d06cec407551db5354778b6a23e312134aebae3",
}
_SMALL_RUNS = {
    "relu": dict(model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, activation="relu", projector_dim=4)),
    "rrelu-f32": dict(
        model=ModelSpec(num_layers=2, hidden_dim=8, dropout_p=0.3, activation="rrelu", projector_dim=4),
        precision="f32",
    ),
    "nfm": dict(ablation="nfm"),
}


@pytest.mark.parametrize("run", sorted(_SMALL_RUNS))
def test_small_checkpoints_keep_the_earlier_bytes(run, tmp_path):
    # every projector here is an ELU; the encoder layers are relu, rrelu
    # and (nfm) prelu
    cfg = _config(**_SMALL_RUNS[run])
    state, curve = train(_small_graph(), cfg)
    path = str(tmp_path / "ck.json")
    save_checkpoint(state, cfg, path, final_loss=curve[-1])
    assert hashlib.sha256(open(path, "rb").read()).hexdigest() == _EARLIER_CHECKPOINT_SHA256[run]


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
