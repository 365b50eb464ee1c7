"""End-to-end subcommand runs on tiny temp datasets, plus exit-code mapping."""

import base64
import hashlib
import json
import os
import subprocess
import sys
import threading
import weakref

import numpy as np
import pytest

from oracles import inference_embeddings_oracle, similarity_histograms_oracle
import memtrace
import rss_spread

import signa
import signa.encoder as encoder
import signa.errors as errors
from signa.cli import ABLATE_VARIANTS, _config_with, main
from signa.diffcore import RngStream
from signa.encoder import inference_embeddings
from signa.errors import ConfigError, ContractError, DataError, NumericError, ShapeError, SignaError
from signa.graphdata import load_graph
from signa.trainer import TrainConfig, load_checkpoint


EDGES = """# two loose 4-cliques joined by one bridge
0 1
0 2
0 3
1 2
1 3
2 3
4 5
4 6
4 7
5 6
5 7
6 7
3 4
"""

LABELS = "0\n0\n0\n0\n1\n1\n1\n1\n"


def _write_dataset(tmp_path, seed=0):
    rng = np.random.default_rng(seed)
    edges = tmp_path / "edges.txt"
    feats = tmp_path / "features.csv"
    labels = tmp_path / "labels.txt"
    edges.write_text(EDGES)
    x = rng.normal(size=(8, 3))
    x[4:, 0] += 2.0
    feats.write_text("\n".join(",".join(f"{v:.6f}" for v in row) for row in x) + "\n")
    labels.write_text(LABELS)
    return str(edges), str(feats), str(labels)


def _write_config(tmp_path, **overrides):
    doc = {
        "model": {
            "num_layers": 2,
            "base_encoder": "linear",
            "hidden_dim": 6,
            "dropout_p": 0.2,
            "activation": "prelu",
            "projector_dim": 4,
        },
        "estimator": {"kind": "norm_jsd"},
        "mask_rate": 0.3,
        "learning_rate": 0.01,
        "num_epochs": 6,
        "seed": 0,
        "log_every": 0,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _sha(path) -> str:
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def _train(tmp_path, name="model.ckpt", extra=()):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    ckpt = str(tmp_path / name)
    rc = main(
        ["train", "--config", config, "--edges", edges, "--features", feats,
         "--out-checkpoint", ckpt, "--quiet", *extra]
    )
    assert rc == 0
    return edges, feats, labels, config, ckpt


# ---------------------------------------------------------------------------
# homophily


def test_homophily_outputs_and_manifest(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    out_json = str(tmp_path / "hom.json")
    out_csv = str(tmp_path / "hom.csv")
    rc = main(
        ["homophily", "--edges", edges, "--features", feats, "--labels", labels,
         "--out-json", out_json, "--out-csv", out_csv]
    )
    assert rc == 0
    assert "global homophily" in capsys.readouterr().out

    doc = json.loads(open(out_json).read())
    # one bridge between the two labeled cliques: 24 of 26 directed ends match
    assert doc["global_ratio"] == pytest.approx(24 / 26)
    assert doc["num_isolated"] == 0

    lines = open(out_csv).read().splitlines()
    assert lines[0] == "histogram,bin,count"
    assert len(lines) > 1

    manifest = json.loads(open(out_json + ".manifest.json").read())
    assert manifest["command"] == "homophily"
    assert {e["path"] for e in manifest["inputs"]} == {edges, feats, labels}
    for entry in manifest["outputs"]:
        assert entry["sha256"] == _sha(entry["path"])


def test_homophily_on_an_edgeless_graph_exits_two(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    open(edges, "w").close()
    out_json = tmp_path / "hom.json"
    rc = main(
        ["homophily", "--edges", edges, "--features", feats, "--labels", labels,
         "--out-json", str(out_json), "--out-csv", str(tmp_path / "hom.csv")]
    )
    assert rc == 2
    assert "error: global homophily is undefined on an edgeless graph" in capsys.readouterr().err
    assert not out_json.exists()


def test_homophily_on_a_non_finite_feature_exits_two(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    rows = open(feats).read().splitlines()
    rows[2] = "0.5,nan,1.25"
    open(feats, "w").write("\n".join(rows) + "\n")
    out_json = tmp_path / "hom.json"
    rc = main(["homophily", "--edges", edges, "--features", feats, "--labels", labels,
               "--out-json", str(out_json), "--out-csv", str(tmp_path / "hom.csv")])
    assert rc == 2
    assert f"error: {feats}: feature row 2 holds a non-finite value" in capsys.readouterr().err
    assert not out_json.exists()


def test_homophily_quiet_and_missing_file(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    rc = main(
        ["homophily", "--edges", edges, "--features", feats, "--labels", labels,
         "--out-json", str(tmp_path / "a.json"), "--out-csv", str(tmp_path / "a.csv"),
         "--quiet"]
    )
    assert rc == 0
    assert capsys.readouterr().out == ""
    rc = main(
        ["homophily", "--edges", str(tmp_path / "nope.txt"), "--features", feats,
         "--labels", labels, "--out-json", str(tmp_path / "b.json"),
         "--out-csv", str(tmp_path / "b.csv")]
    )
    assert rc == 2


@pytest.mark.parametrize("which", ["edges", "features", "labels"])
def test_input_that_is_not_utf8_exits_two(which, tmp_path, capsys):
    paths = dict(zip(("edges", "features", "labels"), _write_dataset(tmp_path)))
    with open(paths[which], "ab") as fh:
        fh.write(b"\xff\n")
    rc = main(
        ["homophily", "--edges", paths["edges"], "--features", paths["features"],
         "--labels", paths["labels"], "--out-json", str(tmp_path / "h.json"),
         "--out-csv", str(tmp_path / "h.csv")]
    )
    assert rc == 2
    assert f"{paths[which]}: not UTF-8 text: byte 0xff" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_writes_checkpoint_curve_manifest(tmp_path):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    ckpt = str(tmp_path / "model.ckpt")
    curve = str(tmp_path / "curve.csv")
    rc = main(
        ["train", "--config", config, "--edges", edges, "--features", feats,
         "--out-checkpoint", ckpt, "--out-loss-curve", curve, "--quiet"]
    )
    assert rc == 0

    lines = open(curve).read().splitlines()
    assert lines[0] == "epoch,loss"
    assert len(lines) == 7  # header + 6 epochs

    manifest = json.loads(open(ckpt + ".manifest.json").read())
    assert manifest["seed"] == 0
    assert manifest["config"]["sha256"] == _sha(config)
    assert manifest["effective"]["mask_rate"] == 0.3
    assert manifest["effective"]["estimator_kind"] == "norm_jsd"
    assert {e["path"] for e in manifest["outputs"]} == {ckpt, curve}


def test_train_rerun_byte_identical(tmp_path):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    for out in (a, b):
        rc = main(["train", "--config", config, "--edges", edges, "--features", feats,
                   "--out-checkpoint", out, "--quiet"])
        assert rc == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_train_seed_flag_overrides_config(tmp_path):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    main(["train", "--config", config, "--edges", edges, "--features", feats,
          "--out-checkpoint", a, "--quiet"])
    main(["train", "--config", config, "--edges", edges, "--features", feats,
          "--out-checkpoint", b, "--seed", "7", "--quiet"])
    assert open(a, "rb").read() != open(b, "rb").read()
    manifest = json.loads(open(b + ".manifest.json").read())
    assert manifest["seed"] == 7


def test_train_ablation_flag_reflected_in_manifest(tmp_path):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    ckpt = str(tmp_path / "ab.ckpt")
    rc = main(["train", "--config", config, "--edges", edges, "--features", feats,
               "--out-checkpoint", ckpt, "--ablation", "no_dropout", "--quiet"])
    assert rc == 0
    manifest = json.loads(open(ckpt + ".manifest.json").read())
    assert manifest["effective"]["dropout_p"] == 0.0


def test_train_unknown_ablation_exits_one(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    rc = main(["train", "--config", config, "--edges", edges, "--features", feats,
               "--out-checkpoint", str(tmp_path / "x.ckpt"), "--ablation", "bogus", "--quiet"])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_train_exit_codes(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"model": {"hiden_dim": 4}}))
    rc = main(["train", "--config", str(bad), "--edges", edges, "--features", feats,
               "--out-checkpoint", str(tmp_path / "x.ckpt"), "--quiet"])
    assert rc == 1
    assert "hiden_dim" in capsys.readouterr().err

    config = _write_config(tmp_path)
    rc = main(["train", "--config", config, "--edges", str(tmp_path / "nope.txt"),
               "--features", feats, "--out-checkpoint", str(tmp_path / "x.ckpt"),
               "--quiet"])
    assert rc == 2


@pytest.mark.parametrize(
    "override,key",
    [({"model": {"num_layers": "2"}}, "model.num_layers"), ({"mask_rate": None}, "mask_rate")],
    ids=["num_layers-string", "mask_rate-null"],
)
def test_train_config_value_of_the_wrong_type_exits_one(override, key, tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, **override)
    rc = main(["train", "--config", config, "--edges", edges, "--features", feats,
               "--out-checkpoint", str(tmp_path / "x.ckpt"), "--quiet"])
    assert rc == 1
    assert f"config key '{key}' must be " in capsys.readouterr().err


@pytest.mark.parametrize(
    "override,key",
    [
        ({"learning_rate": float("nan")}, "learning_rate"),
        ({"weight_decay": float("inf")}, "weight_decay"),
        ({"estimator": {"temperature": float("nan")}}, "estimator.temperature"),
    ],
    ids=["learning_rate-NaN", "weight_decay-Infinity", "temperature-NaN"],
)
def test_train_config_value_that_is_not_finite_exits_one(override, key, tmp_path, capsys):
    # json reads NaN and Infinity, and a NaN passes every range check
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, num_epochs=1, **override)
    assert "NaN" in open(config).read() or "Infinity" in open(config).read()
    ckpt = tmp_path / "x.ckpt"
    rc = main(["train", "--config", config, "--edges", edges, "--features", feats,
               "--out-checkpoint", str(ckpt), "--quiet"])
    assert rc == 1
    assert f"config key '{key}' must be finite, got " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json", "edges.txt", "features.csv", "labels.txt"]


def test_train_config_that_is_not_utf8_exits_one(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    with open(config, "ab") as fh:
        fh.write(b"\xff\n")
    rc = main(["train", "--config", config, "--edges", edges, "--features", feats,
               "--out-checkpoint", str(tmp_path / "x.ckpt"), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"config {config}: not UTF-8 text: byte 0xff" in err
    assert "Traceback" not in err


def test_train_numeric_failure_exits_three(tmp_path, capsys):
    # a triangle plus self-positives makes every negative set empty
    edges = tmp_path / "tri.txt"
    edges.write_text("0 1\n0 2\n1 2\n")
    feats = tmp_path / "tri.csv"
    feats.write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    config = _write_config(tmp_path)
    rc = main(["train", "--config", config, "--edges", str(edges),
               "--features", str(feats), "--out-checkpoint", str(tmp_path / "x.ckpt"),
               "--quiet"])
    assert rc == 3
    assert "negative set" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_a_feature_beyond_f32_exits_two_at_load_under_f32(command, tmp_path, capsys):
    # the features are held in the run's precision, cast as they are read:
    # 1e39 overflows f32 there and is refused at load, naming its row,
    # rather than at the first matmul (exit 3)
    edges, feats, labels = _write_dataset(tmp_path)
    rows = open(feats).read().splitlines()
    rows[5] = "0.5,1e39,1.25"
    open(feats, "w").write("\n".join(rows) + "\n")
    config = _write_config(tmp_path, precision="f32")
    args = {
        "train": ["--out-checkpoint", str(tmp_path / "m.ckpt")],
        "ablate": ["--labels", labels, "--variants", "none", "--num-seeds", "1", "--probe-runs", "1",
                   "--out-dir", str(tmp_path / "ablation")],
    }[command]
    rc = main([command, "--config", config, "--edges", edges, "--features", feats, "--quiet"] + args)
    assert rc == 2
    assert f"error: {feats}: feature row 5 holds a non-finite value as float32" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json", "edges.txt", "features.csv", "labels.txt"]  # wrote nothing


# ---------------------------------------------------------------------------
# eval


def test_eval_classify_report(tmp_path):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    out = str(tmp_path / "classify.json")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "classify", "--runs", "2",
               "--out", out, "--quiet"])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["mode"] == "classify" and doc["runs"] == 2
    assert len(doc["micro_f1"]["per_run"]) == 2
    assert 0.0 <= doc["accuracy"]["mean"] <= 1.0
    assert doc["accuracy"]["std"] is not None
    manifest = json.loads(open(out + ".manifest.json").read())
    assert ckpt in {e["path"] for e in manifest["inputs"]}


def test_eval_hashes_the_checkpoint_once(tmp_path, monkeypatch):
    import signa.cli as cli

    edges, feats, labels, config, ckpt = _train(tmp_path)
    hashed = []
    sha256 = cli._sha256
    monkeypatch.setattr(cli, "_sha256", lambda path: hashed.append(path) or sha256(path))
    out = str(tmp_path / "cluster.json")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "cluster", "--out", out, "--quiet"])
    assert rc == 0
    assert hashed.count(ckpt) == 1
    manifest = json.loads(open(out + ".manifest.json").read())
    digests = {e["path"]: e["sha256"] for e in manifest["inputs"] + manifest["outputs"]}
    assert digests == {p: _sha(p) for p in (ckpt, edges, feats, labels, out)}
    assert json.loads(open(out).read())["checkpoint_sha256"] == _sha(ckpt)


def test_eval_classify_requires_labels(tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--mode", "classify", "--out", str(tmp_path / "x.json"), "--quiet"])
    assert rc == 1
    assert "--labels" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode,flag",
    [("classify", "--labels"), ("cluster", "--labels"), ("histograms", "--out-csv"),
     ("classify", "--runs"), ("timing", "--repeats")],
)
def test_eval_flag_errors_come_before_the_checkpoint(mode, flag, tmp_path, capsys):
    # a count flag is given as 0; any other flag is left out
    edges, feats, labels = _write_dataset(tmp_path)
    count = flag in ("--runs", "--repeats")
    rc = main(["eval", "--checkpoint", str(tmp_path / "missing.ckpt"), "--edges", edges,
               "--features", feats, "--mode", mode, *([flag, "0"] if count else []),
               "--out", str(tmp_path / "x.json"), "--quiet"])
    assert rc == 1
    message = f"{flag} must be >= 1, got 0" if count else f"{mode} mode requires {flag}"
    assert message in capsys.readouterr().err


def test_eval_zero_runs_exits_one(tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    out = tmp_path / "classify.json"
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "classify", "--runs", "0",
               "--out", str(out), "--quiet"])
    assert rc == 1
    assert "--runs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def _scipy_sparse_modules(argv, env):
    """(exit code, the scipy.sparse modules imported) of `signa argv` run
    in a fresh process."""
    script = (
        "import sys\n"
        "from signa.cli import main\n"
        f"rc = main({argv!r})\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy.sparse')))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_linear_classify_does_not_import_scipy(tmp_path):
    # nor does a linear cluster run (k-means sums its clusters densely) or a
    # histograms run (adjacency comes from the graph's CSR arrays)
    edges, feats, labels, config, ckpt = _train(tmp_path)
    src = os.path.dirname(os.path.dirname(signa.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    hist = ["--out-csv", str(tmp_path / "hist.csv")]
    for mode, extra in (("classify", ["--runs", "2"]), ("cluster", []), ("histograms", hist)):
        out = str(tmp_path / f"{mode}.json")
        argv = ["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
                "--labels", labels, "--mode", mode, *extra, "--out", out, "--quiet"]
        assert _scipy_sparse_modules(argv, env) == ["0", "[]"], mode
    assert len(json.loads(open(str(tmp_path / "classify.json")).read())["micro_f1"]["per_run"]) == 2
    assert json.loads(open(str(tmp_path / "cluster.json")).read())["k"] == 2

    # gconv runs load only scipy's CSR kernel, outside sys.modules
    gconv = _write_config(tmp_path, model={"num_layers": 2, "base_encoder": "gconv", "hidden_dim": 6,
                                           "dropout_p": 0.2, "activation": "prelu", "projector_dim": 4})
    gconv_ckpt = str(tmp_path / "gconv.ckpt")
    argv = ["train", "--config", gconv, "--edges", edges, "--features", feats,
            "--out-checkpoint", gconv_ckpt, "--quiet"]
    assert _scipy_sparse_modules(argv, env) == ["0", "[]"], "gconv train"
    for mode in ("classify", "cluster"):
        out = str(tmp_path / f"gconv-{mode}.json")
        argv = ["eval", "--checkpoint", gconv_ckpt, "--edges", edges, "--features", feats,
                "--labels", labels, "--mode", mode, "--out", out, "--quiet"]
        assert _scipy_sparse_modules(argv, env) == ["0", "[]"], f"gconv {mode}"
        assert os.path.exists(out)


def test_eval_cluster_report(tmp_path):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    out = str(tmp_path / "cluster.json")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "cluster", "--out", out, "--quiet"])
    assert rc == 0
    doc = json.loads(open(out).read())
    assert doc["k"] == 2
    assert 0.0 <= doc["nmi"] <= 1.0
    assert 0.0 <= doc["homogeneity"] <= 1.0
    assert doc["inertia"] >= 0.0


@pytest.mark.parametrize("mode", ["classify", "cluster"])
def test_eval_frees_the_graph_before_the_probe_and_kmeans(tmp_path, monkeypatch, mode):
    # they read only the labels: the graph and its features, and the encoder
    # state and its weights, are freed once the frozen forward returns
    import signa.cli as cli
    import signa.evaluate as evaluate
    import signa.graphdata as graphdata
    import signa.trainer as trainer

    edges, feats, labels, config, ckpt = _train(tmp_path)
    loaded, alive = [], []

    def load_spy(*args, load=graphdata.load_graph):
        graph = load(*args)
        loaded.append(weakref.ref(graph))
        return graph

    def checkpoint_spy(*args, load=trainer.load_checkpoint):
        state, config = load(*args)
        loaded.append(weakref.ref(state.params["layers.0.weight"].data))
        return state, config

    monkeypatch.setattr(graphdata, "load_graph", load_spy)
    monkeypatch.setattr(trainer, "load_checkpoint", checkpoint_spy)
    for owner, name in ((cli, "_probe_scores"), (evaluate, "kmeans")):
        def spy(*args, fn=getattr(owner, name), **kwargs):
            alive.append([ref() is not None for ref in loaded])
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    assert main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats, "--labels", labels,
                 "--mode", mode, "--runs", "2", "--out", str(tmp_path / "report.json"), "--quiet"]) == 0
    assert alive == [[False, False]]


def test_memtrace_reads_each_phase_of_an_eval(tmp_path, capsys):
    # it spies on the calls `signa eval` makes: the two loads, the frozen
    # forward, then the probe runs or k-means
    edges, feats, labels, config, ckpt = _train(tmp_path)
    files = sorted(os.listdir(tmp_path))
    argv = ["--checkpoint", ckpt, "--edges", edges, "--features", feats, "--labels", labels]
    for mode, last in (("classify", "probe"), ("cluster", "kmeans")):
        memtrace.main(["--eval", mode, *argv])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == ["phase", "checkpoint", "graph", "forward", last]
        peaks = [float(line.split()[2]) for line in lines[1:]]
        assert all(0.0 < mib < 100.0 for mib in peaks)
    assert sorted(os.listdir(tmp_path)) == files  # the report went to a temporary directory
    with pytest.raises(SystemExit) as failed:  # a command that fails exits as signa eval does
        memtrace.main(["--eval", "cluster", *argv[:-1], str(tmp_path / "missing.txt")])
    assert failed.value.code == 2
    with pytest.raises(SystemExit):
        memtrace.main(["--eval", "cluster", *argv[2:]])  # no checkpoint


def test_eval_histograms_csv(tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    out = str(tmp_path / "hist.json")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "histograms", "--out", out, "--quiet"])
    assert rc == 1  # --out-csv required
    capsys.readouterr()

    out_csv = str(tmp_path / "hist.csv")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "histograms", "--bins", "10",
               "--out", out, "--out-csv", out_csv, "--quiet"])
    assert rc == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "population,bin_lo,bin_hi,count"
    assert len(lines) == 1 + 4 * 10  # four populations, ten bins each
    doc = json.loads(open(out).read())
    assert doc["num_pairs"] == 28  # C(8, 2)
    assert doc["neighbor_total"] + doc["non_neighbor_total"] == 28
    assert not doc["subsampled"]

    # the counts are the earlier Gram-matrix routine's, with full and sampled pairs
    state, _ = load_checkpoint(ckpt)
    graph = load_graph(edges, feats, labels)
    emb = inference_embeddings(state, state.spec, graph).data
    for subsample in (None, 40):
        if subsample is not None:
            rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
                       "--labels", labels, "--mode", "histograms", "--bins", "10",
                       "--subsample-pairs", str(subsample), "--out", out, "--out-csv", out_csv,
                       "--quiet"])
            assert rc == 0
        ref = similarity_histograms_oracle(emb, graph, RngStream(0, "split"), 10, subsample)
        want = np.concatenate([ref.neighbor, ref.non_neighbor, ref.same_label, ref.diff_label])
        counts = [int(line.rsplit(",", 1)[1]) for line in open(out_csv).read().splitlines()[1:]]
        assert counts == want.tolist()


@pytest.mark.parametrize(
    "flag, value", [("--bins", "0"), ("--bins", "-3"), ("--subsample-pairs", "0"), ("--subsample-pairs", "-5")]
)
def test_eval_histograms_count_below_one_exits_one(tmp_path, capsys, flag, value):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    out, out_csv = tmp_path / "hist.json", tmp_path / "hist.csv"
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "histograms", flag, value,
               "--out", str(out), "--out-csv", str(out_csv), "--quiet"])
    assert rc == 1
    assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
    assert not out.exists() and not out_csv.exists()


def test_eval_timing_report(tmp_path):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    out = str(tmp_path / "timing.json")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--mode", "timing", "--repeats", "3", "--out", out, "--quiet"])
    assert rc == 0
    doc = json.loads(open(out).read())
    kinds = {e["encoder_kind"] for e in doc["entries"]}
    assert kinds == {"linear", "gconv"}
    assert doc["ratio_gconv_over_linear"] > 0


def test_eval_checkpoint_feature_mismatch(tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    wide = tmp_path / "wide.csv"
    wide.write_text("\n".join("1,2,3,4" for _ in range(8)) + "\n")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", str(wide),
               "--labels", labels, "--mode", "cluster",
               "--out", str(tmp_path / "x.json"), "--quiet"])
    assert rc == 2
    assert "features" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# embed


def test_embed_csv_shape(tmp_path):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    out = str(tmp_path / "emb.csv")
    rc = main(["embed", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--out", out, "--quiet"])
    assert rc == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("dim_0,")
    assert lines[0] == ",".join(f"dim_{j}" for j in range(6))  # hidden_dim columns
    assert len(lines) == 9  # header + 8 nodes
    # 17 significant digits round-trip doubles exactly
    state, _ = load_checkpoint(ckpt)
    want = inference_embeddings(state, state.spec, load_graph(edges, feats)).data
    assert np.loadtxt(out, delimiter=",", skiprows=1).tobytes() == want.tobytes()


@pytest.mark.parametrize("precision", ["f64", "f32"])
def test_embed_and_histograms_equal_the_full_graph_forward(precision, tmp_path, monkeypatch):
    # a linear graph of 1025 nodes spans two inference blocks of 512 rows
    # (F=100, hidden 256), the second taking the one-row tail; every output
    # must be the one-forward output's bytes
    n = 1025
    rng = np.random.default_rng(2)
    edges, feats, labels = tmp_path / "edges.txt", tmp_path / "features.csv", tmp_path / "labels.txt"
    edges.write_text("".join(f"{u} {(u + 1) % n}\n{u} {(u + 7) % n}\n" for u in range(n)))
    feats.write_text("".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in rng.normal(size=(n, 100))))
    labels.write_text("".join(f"{c}\n" for c in rng.integers(0, 3, size=n)))
    model = {"num_layers": 2, "base_encoder": "linear", "hidden_dim": 256, "projector_dim": 16}
    config = _write_config(tmp_path, model=model, num_epochs=2)
    ckpt = str(tmp_path / "model.ckpt")
    flags = ["--precision", precision, "--quiet"]
    assert main(["train", "--config", config, "--edges", str(edges), "--features", str(feats),
                 "--out-checkpoint", ckpt, *flags]) == 0

    def outputs(name):
        out = tmp_path / name
        out.mkdir()
        inputs = ["--checkpoint", ckpt, "--edges", str(edges), "--features", str(feats)]
        assert main(["embed", *inputs, "--out", str(out / "emb.csv"), *flags]) == 0
        assert main(["eval", *inputs, "--labels", str(labels), "--mode", "histograms",
                     "--out", str(out / "hist.json"), "--out-csv", str(out / "hist.csv"), *flags]) == 0
        return [(out / f).read_bytes() for f in ("emb.csv", "hist.json", "hist.csv")]

    blocked = outputs("blocked")
    monkeypatch.setattr(encoder, "inference_embeddings", inference_embeddings_oracle)
    assert outputs("full") == blocked


# ---------------------------------------------------------------------------
# ablate


def test_ablate_table_and_report(tmp_path):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, num_epochs=3)
    out_dir = str(tmp_path / "ablation")
    rc = main(["ablate", "--config", config, "--edges", edges, "--features", feats,
               "--labels", labels, "--variants", "none,jsd", "--num-seeds", "1",
               "--probe-runs", "1", "--out-dir", out_dir, "--quiet"])
    assert rc == 0

    lines = open(tmp_path / "ablation" / "ablation_table.csv").read().splitlines()
    assert lines[0] == "variant,status,micro_f1_mean,micro_f1_std,accuracy_mean,accuracy_std,error"
    assert len(lines) == 3
    assert lines[1].startswith("none,ok,") and lines[2].startswith("jsd,ok,")

    doc = json.loads(open(tmp_path / "ablation" / "ablation_report.json").read())
    assert set(doc["variants"]) == {"none", "jsd"}
    assert doc["variants"]["none"]["status"] == "ok"
    assert len(doc["variants"]["none"]["micro_f1_per_seed"]) == 1


def test_ablate_records_variant_failures(tmp_path, capsys):
    # complete triangle: every variant hits the empty-negative-set error
    edges = tmp_path / "tri.txt"
    edges.write_text("0 1\n0 2\n1 2\n")
    feats = tmp_path / "tri.csv"
    feats.write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
    labels = tmp_path / "tri_labels.txt"
    labels.write_text("0\n0\n1\n")
    config = _write_config(tmp_path, num_epochs=2)
    out_dir = str(tmp_path / "ablation")
    rc = main(["ablate", "--config", config, "--edges", str(edges),
               "--features", str(feats), "--labels", str(labels),
               "--variants", "none", "--num-seeds", "1", "--probe-runs", "1",
               "--out-dir", out_dir, "--quiet"])
    assert rc == 0  # the table is the product; failures live inside it
    lines = open(tmp_path / "ablation" / "ablation_table.csv").read().splitlines()
    assert lines[1].startswith("none,error,,,,,")
    assert "negative set" in lines[1]


def test_ablate_unknown_variant(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    rc = main(["ablate", "--config", config, "--edges", edges, "--features", feats,
               "--labels", labels, "--variants", "none,bogus",
               "--out-dir", str(tmp_path / "a"), "--quiet"])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_ablate_empty_variant_list_exits_one(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    out_dir = tmp_path / "ablation"
    rc = main(["ablate", "--config", config, "--edges", edges, "--features", feats,
               "--labels", labels, "--variants", ",", "--out-dir", str(out_dir), "--quiet"])
    assert rc == 1
    assert "--variants names no variant" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("flag", ["--probe-runs", "--num-seeds"])
def test_ablate_zero_counts_exit_one(flag, tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, num_epochs=2)
    out_dir = tmp_path / "ablation"
    other = "--num-seeds" if flag == "--probe-runs" else "--probe-runs"
    rc = main(["ablate", "--config", config, "--edges", edges, "--features", feats,
               "--labels", labels, "--variants", "none", flag, "0", other, "1",
               "--out-dir", str(out_dir), "--quiet"])
    assert rc == 1
    assert f"{flag} must be >= 1" in capsys.readouterr().err
    assert not out_dir.exists()


def test_ablate_variants_resolve_to_their_configs():
    base = {
        "model": {"hidden_dim": 16},
        "estimator": {"temperature": 0.2},
        "mask_rate": 0.5,
        "ablation": "nfm",
        "nfm_p_feat": 0.1,
        "seed": 3,
    }
    expected = {
        "none": base,
        "no_dropout": {**base, "ablation": "no_dropout"},
        "nfm": base,
        "no_stoch_mask": {**base, "ablation": "no_stoch_mask"},
        "all_mask": {**base, "ablation": "all_mask"},
        "jsd": {**base, "estimator": {"temperature": 0.2, "kind": "jsd"}},
        "info_nce": {**base, "estimator": {"temperature": 0.2, "kind": "info_nce"}},
        "all_off": {
            **base,
            "estimator": {"temperature": 0.2, "kind": "jsd"},
            "mask_rate": 0.0,
            "ablation": "no_dropout",
        },
    }
    assert list(ABLATE_VARIANTS) == list(expected)
    for variant, doc in expected.items():
        assert _config_with(base, ABLATE_VARIANTS[variant]) == TrainConfig.from_dict(doc), variant
    assert base["estimator"] == {"temperature": 0.2}  # the base config is not mutated
    with pytest.raises(ConfigError, match="'estimator' must be an object"):
        _config_with({"estimator": "jsd"}, ABLATE_VARIANTS["jsd"])


def test_ablate_explicit_seed_list(tmp_path):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, num_epochs=2)
    out_dir = str(tmp_path / "ablation")
    rc = main(["ablate", "--config", config, "--edges", edges, "--features", feats,
               "--labels", labels, "--variants", "none", "--seeds", "3,9",
               "--probe-runs", "1", "--out-dir", out_dir, "--quiet"])
    assert rc == 0
    doc = json.loads(open(tmp_path / "ablation" / "ablation_report.json").read())
    assert doc["seeds"] == [3, 9]


@pytest.mark.parametrize("seeds, bad", [("1,", "''"), ("a", "'a'"), ("1,2.5", "'2.5'")])
def test_ablate_bad_seed_entry_exits_one(seeds, bad, tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, num_epochs=2)
    out_dir = tmp_path / "ablation"
    rc = main(["ablate", "--config", config, "--edges", edges, "--features", feats,
               "--labels", labels, "--variants", "none", "--seeds", seeds,
               "--probe-runs", "1", "--out-dir", str(out_dir), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"--seeds entry {bad} is not an integer" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "key, value, message",
    [("seed", -1, "seed must be >= 0, got -1"), ("mask_rate", 2.0, "mask_rate must be in [0, 1], got 2.0")],
)
def test_ablate_base_config_error_exits_one(key, value, message, tmp_path, capsys):
    # an error every variant would share is the command's, found before the
    # graph is read (the edge file need not exist), not one row per variant
    _, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, num_epochs=1, **{key: value})
    out_dir = tmp_path / "ablation"
    rc = main(["ablate", "--config", config, "--edges", str(tmp_path / "missing"), "--features", feats,
               "--labels", labels, "--variants", "none,jsd", "--probe-runs", "1",
               "--out-dir", str(out_dir), "--quiet"])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_dir.exists()


NEGATIVE_SEEDS = {
    "train": (["--seed", "-1"], "seed must be >= 0, got -1"),
    "eval": (["--seed", "-1"], "--seed must be >= 0, got -1"),
    "ablate-seeds": (["--seeds", "2,-1"], "--seeds entry must be >= 0, got -1"),
    "ablate-seed": (["--seed", "-1"], "--seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", NEGATIVE_SEEDS)
def test_negative_seed_exits_one(case, tmp_path, capsys):
    # train checks it in its config; eval and ablate check the flag before
    # any file is read, so their checkpoint and config need not exist
    edges, feats, labels = _write_dataset(tmp_path)
    missing = str(tmp_path / "missing")
    command = case.split("-")[0]
    args = {
        "train": ["--config", _write_config(tmp_path), "--out-checkpoint", str(tmp_path / "x.ckpt")],
        "eval": ["--checkpoint", missing, "--labels", labels, "--mode", "classify",
                 "--out", str(tmp_path / "x.json")],
        "ablate": ["--config", missing, "--labels", labels, "--out-dir", str(tmp_path / "a")],
    }[command]
    flags, message = NEGATIVE_SEEDS[case]
    rc = main([command, "--edges", edges, "--features", feats, *args, *flags, "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "x.ckpt").exists() and not (tmp_path / "a").exists()


# ---------------------------------------------------------------------------
# top-level argument handling


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["train"]) == 1
    capsys.readouterr()


def test_every_error_class_exits_with_its_code(monkeypatch, capsys):
    import signa.cli as cli

    classes = [
        c for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, SignaError) and c is not SignaError
    ]
    assert len(classes) == 12
    for cls in classes:
        # the exit code main() mapped each class to before the classes carried one
        if issubclass(cls, ConfigError):
            want = 1
        elif issubclass(cls, (DataError, ShapeError)):
            want = 2
        else:
            assert issubclass(cls, (NumericError, ContractError)), cls
            want = 3

        def handler(args, cls=cls):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setitem(cli._HANDLERS, "homophily", handler)
        rc = main(["homophily", "--edges", "e", "--features", "f", "--labels", "l",
                   "--out-json", "o.json", "--out-csv", "o.csv"])
        assert (cls.__name__, rc) == (cls.__name__, want)
        assert capsys.readouterr().err == f"error: {cls.__name__} raised\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "homophily" in capsys.readouterr().out


def test_threads_flag_validation(tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    rc = main(["homophily", "--edges", edges, "--features", feats, "--labels", labels,
               "--out-json", str(tmp_path / "x.json"), "--out-csv", str(tmp_path / "x.csv"),
               "--threads", "0"])
    assert rc == 1
    assert "--threads" in capsys.readouterr().err


def test_threads_above_the_core_count_are_refused(monkeypatch, capsys):
    # refused before a BLAS variable is set and before any handler imports
    # numpy, so no pool is sized above the machine's cores
    import signa.cli as cli

    ran = []
    monkeypatch.setitem(cli._HANDLERS, "homophily", lambda args: ran.append(args) or 0)
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    before = {name: os.environ.get(name) for name in names}
    cores = os.cpu_count()
    rc = main(["homophily", "--edges", "e", "--features", "f", "--labels", "l",
               "--out-json", "o.json", "--out-csv", "o.csv", "--threads", str(cores + 1)])
    assert rc == 1 and ran == []
    assert {name: os.environ.get(name) for name in names} == before
    want = f"error: --threads must be from 1 to the {cores} cores of this machine, got {cores + 1}\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_are_refused(monkeypatch, capsys, threads):
    import signa.cli as cli

    ran = []
    monkeypatch.setitem(cli._HANDLERS, "homophily", lambda args: ran.append(args) or 0)
    rc = main(["homophily", "--edges", "e", "--features", "f", "--labels", "l",
               "--out-json", "o.json", "--out-csv", "o.csv", "--threads", str(threads)])
    assert rc == 1 and ran == []
    cores = os.cpu_count()
    assert capsys.readouterr().err == f"error: --threads must be from 1 to the {cores} cores of this machine, got {threads}\n"


@pytest.mark.parametrize("which", ["one", "all"])
def test_threads_within_the_core_count_pin_the_blas_pools(monkeypatch, which):
    # the handler is a stand-in, so no pool is started; monkeypatch puts the
    # three variables back after main sets them
    import signa.cli as cli

    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    for name in names:
        monkeypatch.setenv(name, "unset")
    seen = []
    monkeypatch.setitem(cli._HANDLERS, "homophily", lambda args: seen.append([os.environ[n] for n in names]) or 0)
    threads = 1 if which == "one" else os.cpu_count()
    rc = main(["homophily", "--edges", "e", "--features", "f", "--labels", "l",
               "--out-json", "o.json", "--out-csv", "o.csv", "--threads", str(threads)])
    assert rc == 0 and seen == [[str(threads)] * 3]


# ---------------------------------------------------------------------------
# malformed checkpoints


def _drop(key):
    def edit(doc):
        del doc[key]
        return doc

    return edit


def _edit_first_parameter(edit):
    def apply(doc):
        edit(doc["parameters"][0])
        return doc

    return apply


def _cut_one_byte(entry):
    blob = base64.b64decode(entry["data"])
    entry["data"] = base64.b64encode(blob[:-1]).decode("ascii")


MALFORMED_CHECKPOINTS = {
    "top-level list": lambda doc: [doc],
    "no config": _drop("config"),
    "config not an object": lambda doc: dict(doc, config="norm_jsd"),
    "no num_features": _drop("num_features"),
    "num_features null": lambda doc: dict(doc, num_features=None),
    "num_features below one": lambda doc: dict(doc, num_features=-1),
    "no parameters": _drop("parameters"),
    "parameter entry not an object": lambda doc: dict(doc, parameters=[1]),
    "parameter without shape": _edit_first_parameter(lambda p: p.pop("shape")),
    "parameter without data": _edit_first_parameter(lambda p: p.pop("data")),
    "format_version true": lambda doc: dict(doc, format_version=True),
    "format_version float": lambda doc: dict(doc, format_version=1.0),
    "format_version 3": lambda doc: dict(doc, format_version=3),
    "precision unknown": lambda doc: dict(doc, precision="f16"),
    "payload not whole values": _edit_first_parameter(_cut_one_byte),
    "shape of floats": _edit_first_parameter(lambda p: p.update(shape=[float(d) for d in p["shape"]])),
    "parameter name not a string": _edit_first_parameter(lambda p: p.update(name=[p["name"]])),
    "parameter twice": lambda doc: dict(doc, parameters=doc["parameters"][:1] + doc["parameters"]),
}


@pytest.mark.parametrize("edit", MALFORMED_CHECKPOINTS.values(), ids=MALFORMED_CHECKPOINTS.keys())
def test_eval_malformed_checkpoint_exits_two(edit, tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    doc = edit(json.loads(open(ckpt).read()))
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "cluster",
               "--out", str(tmp_path / "x.json"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "checkpoint" in err or "parameter" in err
    assert "Traceback" not in err


def test_eval_checkpoint_config_value_of_the_wrong_type_exits_two(tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    doc = json.loads(open(ckpt).read())
    doc["config"]["model"]["num_layers"] = "2"
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "cluster",
               "--out", str(tmp_path / "x.json"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: config key 'model.num_layers' must be int, got '2'" in err


def test_eval_checkpoint_config_value_that_is_not_finite_exits_two(tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    doc = json.loads(open(ckpt).read())
    doc["config"]["learning_rate"] = float("nan")
    with open(ckpt, "w") as fh:
        json.dump(doc, fh)
    out = tmp_path / "x.json"
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "cluster", "--out", str(out), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: config key 'learning_rate' must be finite, got nan" in err
    assert not out.exists()


def test_eval_checkpoint_that_is_not_utf8_exits_two(tmp_path, capsys):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    with open(ckpt, "ab") as fh:
        fh.write(b"\xff\n")
    rc = main(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
               "--labels", labels, "--mode", "cluster",
               "--out", str(tmp_path / "x.json"), "--quiet"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"checkpoint {ckpt}: not UTF-8 text: byte 0xff" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# output paths and manifests


def _argv(command, tmp_path, **outs):
    """`command`'s argv with every input a file that does not exist, so a
    run that reads one fails with exit 2; `outs` replaces output flags."""
    none = str(tmp_path / "none")
    ins = {"--edges": none, "--features": none}
    flags = {
        "homophily": {**ins, "--labels": none, "--out-json": "h.json", "--out-csv": "h.csv"},
        "train": {"--config": none, **ins, "--out-checkpoint": "m.ckpt", "--out-loss-curve": "c.csv"},
        "eval": {"--checkpoint": none, **ins, "--labels": none, "--mode": "histograms",
                 "--out": "r.json", "--out-csv": "r.csv"},
        "embed": {"--checkpoint": none, **ins, "--out": "e.csv"},
        "ablate": {"--config": none, **ins, "--labels": none, "--out-dir": "out"},
    }[command]
    flags.update(outs)
    return [command, *(x for item in flags.items() for x in item), "--quiet"]


@pytest.mark.parametrize(
    "command, flag",
    [("homophily", "--out-json"), ("homophily", "--out-csv"), ("train", "--out-checkpoint"),
     ("train", "--out-loss-curve"), ("eval", "--out"), ("eval", "--out-csv"), ("embed", "--out"),
     ("ablate", "--out-dir")],
)
def test_an_output_path_that_cannot_exist_fails_before_any_input_is_read(command, flag, tmp_path, capsys):
    # a missing directory, or (ablate, which makes its directory) a regular
    # file where a directory must be
    (tmp_path / "file").write_text("")
    out = str(tmp_path / "file" / "out") if command == "ablate" else str(tmp_path / "missing" / "x")
    assert main(_argv(command, tmp_path, **{flag: out})) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and out in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_an_artifact_that_cannot_be_written_is_an_error_line(command, tmp_path, capsys):
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path, num_epochs=1)
    if command == "train":  # a checkpoint path that is a directory
        out = str(tmp_path)
        argv = ["train", "--out-checkpoint", out]
    else:  # an output directory that is a regular file
        out = labels
        argv = ["ablate", "--labels", labels, "--variants", "none", "--out-dir", out]
    rc = main([*argv, "--config", config, "--edges", edges, "--features", feats, "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


def _run_cli(argv, timeout=60):
    """The CLI in a child process: a run that hangs fails here instead of
    hanging the test session."""
    src = os.path.dirname(os.path.dirname(signa.__file__))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    script = "import sys\nfrom signa.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env=env, timeout=timeout)


def test_an_input_read_from_a_fifo_is_listed_without_a_hash(tmp_path):
    edges, feats, labels = _write_dataset(tmp_path)
    fifo = tmp_path / "features.fifo"
    os.mkfifo(fifo)
    payload = open(feats, "rb").read()
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
    writer.start()
    out_json = str(tmp_path / "hom.json")
    result = _run_cli(["homophily", "--edges", edges, "--features", str(fifo), "--labels", labels,
                       "--out-json", out_json, "--out-csv", str(tmp_path / "hom.csv"), "--quiet"])
    writer.join(timeout=10)
    assert result.returncode == 0, result.stderr
    manifest = json.loads(open(out_json + ".manifest.json").read())
    digests = {e["path"]: e["sha256"] for e in manifest["inputs"]}
    assert digests == {edges: _sha(edges), str(fifo): None, labels: _sha(labels)}


def test_a_report_written_to_a_fifo_gets_no_manifest(tmp_path):
    edges, feats, labels, config, ckpt = _train(tmp_path)
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    result = _run_cli(["eval", "--checkpoint", ckpt, "--edges", edges, "--features", feats,
                       "--labels", labels, "--mode", "cluster", "--out", str(fifo), "--quiet"])
    reader.join(timeout=10)
    assert result.returncode == 0, result.stderr
    assert json.loads(received[0])["k"] == 2
    assert sorted(os.listdir(tmp_path)) == sorted(
        ["config.json", "edges.txt", "features.csv", "labels.txt", "model.ckpt",
         "model.ckpt.manifest.json", "report.fifo"]
    )


def test_rss_spread_reads_each_padded_run(tmp_path, capsys):
    # the src it measures, then one fresh child per padding: a line with its
    # peak RSS each, then the range; a child that fails makes the tool exit 1
    edges, feats, labels = _write_dataset(tmp_path)
    config = _write_config(tmp_path)
    ckpt = str(tmp_path / "model.ckpt")
    argv = ["train", "--config", config, "--edges", edges, "--features", feats, "--out-checkpoint", ckpt, "--quiet"]
    assert rss_spread.main(["--paddings", "2", "--", *argv]) == 0
    src, *lines = capsys.readouterr().out.splitlines()
    assert src == f"src {os.path.dirname(os.path.dirname(signa.__file__))}"
    assert [line.split()[:3] for line in lines[:2]] == [["padding", "0", "peak"], ["padding", "1000", "peak"]]
    peaks = [float(line.split()[3]) for line in lines[:2]]
    assert all(10.0 < mb < 1000.0 for mb in peaks)
    assert lines[2:] == [f"range {min(peaks):.1f}-{max(peaks):.1f} MB"]
    assert os.path.exists(ckpt)
    assert len(rss_spread.padded_env(1000)[rss_spread.PAD_VAR]) == 1000
    assert rss_spread.PAD_VAR not in rss_spread.padded_env(0)
    missing = ["train", "--config", str(tmp_path / "missing.json"), "--edges", edges, "--features", feats,
               "--out-checkpoint", ckpt, "--quiet"]
    assert rss_spread.main(["--paddings", "1", "--", *missing]) == 1
