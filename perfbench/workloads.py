"""Workload table and seeded input generator for the train -> eval benchmark.

A workload fixes the graph shape (stochastic block model), the training
config and the epoch count.  `write_inputs` turns a workload and a seed into
the CLI file formats: an undirected edge list, a feature CSV written with 17
significant digits (so the CLI reads back exactly the generated floats) and
one label per line.  The same seed always gives the same files.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from signa.graphdata import Graph, sbm_generate


@dataclass(frozen=True)
class Workload:
    name: str
    num_nodes: int
    num_blocks: int
    num_features: int
    intra_degree: float  # expected same-block neighbors per node
    inter_degree: float  # expected other-block neighbors per node
    mean_scale: float  # std of the per-block feature means
    noise_sigma: float  # per-entry feature noise around the block mean
    config: dict  # TrainConfig document given to `signa train --config`

    @property
    def precision(self) -> str:
        return self.config["precision"]

    @property
    def epochs(self) -> int:
        return self.config["num_epochs"]

    def describe(self) -> dict:
        return {
            "n": self.num_nodes,
            "blocks": self.num_blocks,
            "F": self.num_features,
            "mean_degree": self.intra_degree + self.inter_degree,
            "precision": self.precision,
            "epochs": self.epochs,
            "encoder": self.config["model"]["base_encoder"],
            "estimator": self.config["estimator"]["kind"],
            "mask_rate": self.config["mask_rate"],
        }


def _config(encoder, hidden, projector, estimator, precision, epochs):
    return {
        "model": {
            "num_layers": 2,
            "base_encoder": encoder,
            "hidden_dim": hidden,
            "dropout_p": 0.4,
            "activation": "prelu",
            "layer_norm_enabled": True,
            "projector_dim": projector,
            "projector_activation": "elu",
        },
        "estimator": {"kind": estimator},
        "mask_rate": 0.3,
        "learning_rate": 0.001,
        "weight_decay": 0.0,
        "num_epochs": epochs,
        "seed": 0,
        "precision": precision,
        "log_every": 0,
    }


WORKLOADS = {
    w.name: w
    for w in (
        # the dense pairwise loss is most of each epoch, and its n x n
        # temporaries set peak RSS
        Workload("dense-n4k", 4000, 5, 100, 7.0, 3.0, 0.5, 1.0,
                 _config("linear", 256, 256, "norm_jsd", "f64", 2)),
        # encoder matmuls, spmm, Adam over ~3.4M parameters and CSV ingestion
        # dominate; the loss is ~10% of the epoch
        Workload("wide-gconv-n1k", 1000, 5, 2000, 18.0, 22.0, 0.02, 1.0,
                 _config("gconv", 1024, 256, "info_nce", "f32", 5)),
        # toy sizes for perfbench/test_perfbench.py; not in BENCHMARK.json
        Workload("smoke-linear", 100, 2, 8, 4.0, 1.0, 0.5, 1.0,
                 _config("linear", 16, 8, "norm_jsd", "f64", 2)),
        Workload("smoke-gconv", 100, 2, 8, 4.0, 1.0, 0.5, 1.0,
                 _config("gconv", 16, 8, "info_nce", "f32", 2)),
    )
}


def generate_graph(w: Workload, seed: int) -> Graph:
    """SBM graph with equal blocks; labels are block ids."""
    rng = np.random.default_rng([seed, int.from_bytes(w.name.encode(), "little") % (1 << 32)])
    block = w.num_nodes // w.num_blocks
    p_in = w.intra_degree / (block - 1)
    p_out = w.inter_degree / (w.num_nodes - block)
    means = w.mean_scale * rng.normal(size=(w.num_blocks, w.num_features))
    return sbm_generate([block] * w.num_blocks, p_in, p_out, means, w.noise_sigma, rng)


def write_inputs(w: Workload, seed: int, out_dir: str) -> tuple[Graph, dict]:
    """Write edges.txt, features.csv, labels.txt and config.json into out_dir.

    Returns the generated graph and a path map.
    """
    graph = generate_graph(w, seed)
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "edges": os.path.join(out_dir, "edges.txt"),
        "features": os.path.join(out_dir, "features.csv"),
        "labels": os.path.join(out_dir, "labels.txt"),
        "config": os.path.join(out_dir, "config.json"),
    }
    src = np.repeat(np.arange(graph.num_nodes), graph.degrees)
    upper = src < graph.csr_targets
    with _durable(paths["edges"]) as fh:
        np.savetxt(fh, np.stack([src[upper], graph.csr_targets[upper]], axis=1), fmt="%d")
    with _durable(paths["features"]) as fh:
        np.savetxt(fh, graph.features, fmt="%.17g", delimiter=",")
    with _durable(paths["labels"]) as fh:
        np.savetxt(fh, graph.labels, fmt="%d")
    with _durable(paths["config"]) as fh:
        fh.write(json.dumps(w.config, indent=2, sort_keys=True).encode())
    return graph, paths


@contextmanager
def _durable(path: str):
    """Open for binary writing and fsync on close, so that writing back the
    inputs does not overlap the first timed stage."""
    with open(path, "wb") as fh:
        yield fh
        fh.flush()
        os.fsync(fh.fileno())
