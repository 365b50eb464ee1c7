"""Per-phase `tracemalloc` figures of a `trainer.train` epoch.

The phases are read by spying on the calls that bound them, not by copying
the training loop, so they follow the loop as it is:

- encode: `encode_rows`;
- loss: from `encode_rows`'s return to the backward pass (the projector
  and the contrastive loss);
- backward: `dc.backward`;
- adam: `dc.adam_step`.

Run as a script, it trains on the files `signa train` reads and prints the
last epoch's phases, in MiB of traced memory, the graph not counted:

    PYTHONPATH=src python tests/memtrace.py --config C --edges E --features F

or, with `--nodes`, on a stochastic block model of that shape built in
process (`sbm_graph`), no file needed, for 2 epochs of a config file or of
a packaged preset's config:

    PYTHONPATH=src python tests/memtrace.py --preset photo --nodes 7650 --features 745
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import tracemalloc
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

from signa import diffcore as dc
from signa import trainer
from signa.graphdata import Graph, load_graph, sbm_generate

PRESETS = os.path.join(os.path.dirname(trainer.__file__), "presets")


@dataclass
class Phase:
    start: int  # bytes traced when the phase began
    peak: int  # the most traced while it ran
    end: int  # bytes traced when it ended


def epoch_phases(graph, config) -> dict[str, Phase]:
    """Run `trainer.train(graph, config)` under `tracemalloc` and return the
    last epoch's phases by name.  Only what the run allocates is counted:
    the graph and anything else made before the call are not.  Earlier
    garbage is collected first and automatic collection is off during the
    run, so no finalizer of another object allocates inside a phase (the
    loop frees its arrays by reference counting)."""
    phases: dict[str, Phase] = {}
    running: list = [None, 0]  # the phase open now and the bytes traced when it began

    def mark(name: str | None) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if running[0] is not None:
            phases[running[0]] = Phase(running[1], peak, current)
        tracemalloc.reset_peak()
        running[:] = [name, current]

    def spy(fn, name: str, then: str | None):
        def call(*args, **kwargs):
            mark(name)
            try:
                return fn(*args, **kwargs)
            finally:
                mark(then)

        return call

    with (
        mock.patch.object(trainer, "encode_rows", spy(trainer.encode_rows, "encode", "loss")),
        mock.patch.object(dc, "backward", spy(dc.backward, "backward", None)),
        mock.patch.object(dc, "adam_step", spy(dc.adam_step, "adam", None)),
    ):
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            trainer.train(graph, config)
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
    return phases


def sbm_graph(nodes: int, features: int) -> Graph:
    """A stand-in graph of `nodes` nodes with `features` Gaussian features
    in the active precision, drawn from seed 1: 5 blocks (the last takes
    the remainder) with about 7 neighbors inside a node's block and 3
    outside, block means of scale 0.5 under unit noise, as on the dense-n4k
    benchmark workload."""
    blocks = 5
    if nodes < 2 * blocks or features < 1:
        raise ValueError(f"need at least {2 * blocks} nodes and one feature, got {nodes} and {features}")
    rng = np.random.default_rng(1)
    block = nodes // blocks
    sizes = [block] * (blocks - 1) + [nodes - block * (blocks - 1)]
    p_in = min(1.0, 7.0 / (block - 1))
    p_out = min(p_in, 3.0 / (nodes - block))
    return sbm_generate(sizes, p_in, p_out, 0.5 * rng.normal(size=(blocks, features)), 1.0, rng)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="the last training epoch's traced memory, phase by phase")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="a `signa train` config file")
    source.add_argument("--preset", help=f"the name of a config in {PRESETS}, such as photo")
    parser.add_argument("--edges", help="the edge list (without --nodes)")
    parser.add_argument("--features", required=True, help="the feature CSV, or with --nodes the feature count")
    parser.add_argument("--nodes", type=int, help="train 2 epochs on an in-process SBM of this many nodes")
    args = parser.parse_args(argv)
    if (args.nodes is None) == (args.edges is None):
        parser.error("give either --edges (with a feature CSV) or --nodes (with a feature count)")
    path = args.config or os.path.join(PRESETS, f"{args.preset}.json")
    with open(path, encoding="utf-8") as fh:
        config = trainer.TrainConfig.from_dict(json.load(fh))
    dc.set_precision(config.precision)  # the graph holds its features in it, as in `signa train`
    if args.nodes is None:
        graph = load_graph(args.edges, args.features)
    else:
        graph = sbm_graph(args.nodes, int(args.features))
        config = replace(config, num_epochs=2, log_every=0)
    phases = epoch_phases(graph, config)
    mib = 1 << 20
    print(f"{'phase':<9}{'start':>9}{'peak':>9}{'end':>9}  (MiB)")
    for name, phase in phases.items():
        print(f"{name:<9}{phase.start / mib:>9.1f}{phase.peak / mib:>9.1f}{phase.end / mib:>9.1f}")


if __name__ == "__main__":
    main()
