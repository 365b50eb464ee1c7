"""Artifact writes replace the target in one step: a write that fails part
way leaves the previous file byte for byte, and no temp file behind."""

import json
import os
import stat
import threading

import numpy as np
import pytest

from conftest import split_generator

from signa.atomic import open_atomic, write_json
from signa.contrast import EstimatorSpec
from signa.encoder import ModelSpec
from signa.graphdata import sbm_generate
from signa.trainer import TrainConfig, save_checkpoint, train


def _trained():
    means = np.zeros((2, 4))
    means[1, 0] = 1.0
    graph = sbm_generate([8, 8], 0.4, 0.05, means, 0.5, split_generator(0))
    config = TrainConfig(
        model=ModelSpec(num_layers=1, hidden_dim=6, projector_dim=3),
        estimator=EstimatorSpec(),
        num_epochs=2,
    )
    state, curve = train(graph, config)
    return state, config, curve[-1]


def _write_checkpoint(path, final_loss):
    state, config, _ = _trained()
    save_checkpoint(state, config, path, final_loss=final_loss)


def _write_report(path, final_loss):
    write_json(path, {"final_loss": final_loss, "rows": list(range(50))})


@pytest.mark.parametrize("write", [_write_checkpoint, _write_report], ids=["checkpoint", "json"])
def test_failed_write_keeps_the_old_file(write, tmp_path, monkeypatch):
    path = str(tmp_path / "artifact.json")
    write(path, 1.0)
    before = open(path, "rb").read()

    def dump_then_fail(doc, fh, **kwargs):
        fh.write('{"final_loss": 2.0, "trunc')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write(path, 2.0)
    assert open(path, "rb").read() == before
    assert os.listdir(tmp_path) == ["artifact.json"]


def test_checkpoint_bytes_are_sorted_indented_json(tmp_path):
    path = str(tmp_path / "ck.json")
    state, config, loss = _trained()
    save_checkpoint(state, config, path, final_loss=loss)
    raw = open(path, "rb").read()
    doc = json.loads(raw)
    assert raw == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")


def test_fifo_target_is_written_in_place(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    try:
        with open_atomic(str(fifo)) as fh:
            fh.write("through the pipe\n")
    finally:
        reader.join(timeout=10)
    assert received == [b"through the pipe\n"]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_symlink_target_is_written_through(tmp_path):
    real = tmp_path / "real.json"
    real.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(real.name)
    with open_atomic(str(link)) as fh:
        fh.write("new\n")
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.json", "real.json"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_descriptor_link_replaces_the_open_file(tmp_path):
    # /dev/stdout redirected to a file is such a link: the file is replaced.
    path = tmp_path / "out.json"
    with open(path, "w") as held:
        with open_atomic(f"/proc/self/fd/{held.fileno()}") as fh:
            fh.write("new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.json"]


def test_replaced_file_keeps_its_mode(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    os.chmod(path, 0o640)
    with open_atomic(str(path)) as fh:
        fh.write("new\n")
    assert path.read_text() == "new\n"
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
