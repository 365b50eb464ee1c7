"""One traced stage of the benchmark, run in a fresh process.

    python perfbench/traced.py train --config C --edges E --features F \
        --out-checkpoint P --spans S
    python perfbench/traced.py eval --mode {classify,cluster} --checkpoint P \
        --edges E --features F --labels L --precision {f32,f64} --spans S

The stage calls signa's public functions in the same order as
`trainer.train` and `cli._cmd_eval`, and records a span around each call.
Spans live in memory and are written to the --spans JSON file when the
stage ends, together with per-epoch counts.  Work the CLI does not do (the
detached loss backward, a standalone normalized adjacency on linear
workloads) is marked `extra`, so perfbench/run.py can keep it out of the stage's
traced-call sum and out of the tracing overhead.

Run it with PYTHONPATH pointing at the package sources.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from signa import diffcore as dc
from signa.contrast import draw_masks, estimator_loss
from signa.encoder import EncoderState, encode, inference_embeddings, project
from signa.evaluate import ProbeConfig, homogeneity, kmeans, linear_probe, make_splits, nmi
from signa.graphdata import load_graph, normalized_adjacency
from signa.trainer import TrainConfig, apply_ablation, load_checkpoint, save_checkpoint


PROBE_RUNS = 20  # as `signa eval --mode classify --runs 20`


class Tracer:
    """In-memory spans (name, start, end, parent index) and named counts."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, list[float]] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, extra: bool = False):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None, "extra": extra}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(value)


def _detached_loss_backward(tr: Tracer, z_data: np.ndarray, draw, spec, measure_memory: bool) -> None:
    """Loss forward and backward on a detached copy of z, outside the step.

    With measure_memory the pass runs under tracemalloc and records its peak
    instead of its time, so allocation tracing never inflates a timed span.
    """
    z = dc.Parameter(z_data.copy(), name="z")
    if measure_memory:
        tracemalloc.start()
        try:
            dc.backward(estimator_loss(z, draw, spec))
            tr.count("contrast.loss_peak_mb", tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
        return
    loss = estimator_loss(z, draw, spec)
    with tr.span("contrast.loss_backward"):
        dc.backward(loss)


def stage_train(tr: Tracer, args) -> dict:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = TrainConfig.from_dict({**json.load(fh), "log_every": 0})  # as `--quiet`
    dc.set_precision(config.precision)
    with tr.span("graphdata.load_graph"):
        graph = load_graph(args.edges, args.features)

    # trainer.train, one span per call
    plan = apply_ablation(config)
    if plan.nfm_p_feat is not None:
        raise SystemExit("the traced loop does not model the nfm ablation")
    init_rng = dc.RngStream(config.seed, "init")
    dropout_rng = dc.RngStream(config.seed, "dropout")
    mask_rng = dc.RngStream(config.seed, "mask")
    adj = None
    if plan.model.base_encoder == "gconv":
        with tr.span("graphdata.normalized_adjacency"):
            adj = normalized_adjacency(graph)
    state = EncoderState(plan.model, graph.num_features, init_rng)
    params = state.parameters()
    adam = dc.AdamState(params, lr=config.learning_rate, weight_decay=config.weight_decay)
    tr.count("diffcore.param_count", sum(p.data.size for p in params))

    curve: list[float] = []
    for epoch in range(config.num_epochs):
        with tr.span("trainer.epoch"):
            with tr.span("contrast.draw_masks"):
                draw = draw_masks(graph, plan.mask_rate, mask_rng, epoch=epoch)
            with tr.span("encoder.encode"):
                h = encode(state, plan.model, graph, adj=adj, training=True, rng=dropout_rng)
            with tr.span("encoder.project"):
                z = project(state, h)
            with tr.span("contrast.estimator_loss"):
                loss = estimator_loss(z, draw, plan.estimator)
            value = float(loss.data)
            if not np.isfinite(value):
                raise SystemExit(f"non-finite loss at epoch {epoch}")
            with tr.span("diffcore.backward"):
                dc.backward(loss)
            with tr.span("diffcore.adam_step"):
                dc.adam_step(adam)
        curve.append(value)
        tr.count("contrast.pairs_per_epoch", draw.num_nodes * draw.num_nodes)
        tr.count("contrast.positives_per_epoch", draw.pos_targets.size)
        tr.count("contrast.kept_neighbor_pairs", draw.pos_targets.size - draw.num_nodes)
        tr.count("contrast.neighbor_pairs", graph.csr_targets.size)

        z_data = z.data
        del h, z, loss  # free the step's tape before the detached pass
        with tr.span("bench.detached_loss", extra=True):
            if epoch == 0:
                _detached_loss_backward(tr, z_data, draw, plan.estimator, measure_memory=True)
            _detached_loss_backward(tr, z_data, draw, plan.estimator, measure_memory=False)

    with tr.span("trainer.save_checkpoint"):
        save_checkpoint(state, config, args.out_checkpoint, final_loss=curve[-1])
    if adj is None:
        # linear encoders never build the adjacency; time it standalone so the
        # layer is still measured on every workload
        with tr.span("graphdata.normalized_adjacency", extra=True):
            normalized_adjacency(graph)
    return {"final_loss": curve[-1], "mask_rate": plan.mask_rate}


def stage_eval(tr: Tracer, args) -> dict:
    dc.set_precision(args.precision)
    with tr.span("trainer.load_checkpoint"):
        state, config = load_checkpoint(args.checkpoint)
    with tr.span("graphdata.load_graph"):
        graph = load_graph(args.edges, args.features, args.labels)
    with tr.span("encoder.inference_embeddings"):
        emb = inference_embeddings(state, state.spec, graph).data
    seed = config.seed
    if args.mode == "classify":
        splits = make_splits(graph.labels, num_runs=PROBE_RUNS, rng=dc.RngStream(seed, "split"))
        f1s = []
        for split in splits:
            with tr.span("evaluate.linear_probe"):
                f1, _acc = linear_probe(emb, graph.labels, split, ProbeConfig())
            f1s.append(f1)
        return {"micro_f1_mean": float(np.mean(f1s))}
    with tr.span("evaluate.kmeans"):
        result = kmeans(emb, graph.num_classes, rng=dc.RngStream(seed, "kmeans"))
    # Lloyd iterations of the restart kmeans kept (its trace ends with the final inertia)
    tr.count("evaluate.kmeans_iters", len(result.inertia_trace) - 1)
    with tr.span("evaluate.partition_metrics"):
        score = nmi(result.assignments, graph.labels)
        homogeneity(result.assignments, graph.labels)
    return {"nmi": score}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("stage", choices=("train", "eval"))
    parser.add_argument("--config")
    parser.add_argument("--checkpoint")
    parser.add_argument("--out-checkpoint")
    parser.add_argument("--edges", required=True)
    parser.add_argument("--features", required=True)
    parser.add_argument("--labels")
    parser.add_argument("--mode", choices=("classify", "cluster"))
    parser.add_argument("--precision", choices=("f32", "f64"), default="f64")
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tr = Tracer()
    stage = "train" if args.stage == "train" else args.mode
    with tr.span(f"cli.{stage}"):
        results = stage_train(tr, args) if args.stage == "train" else stage_eval(tr, args)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"stage": stage, "spans": tr.spans, "counts": tr.counts, "results": results}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
