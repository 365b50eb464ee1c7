"""Per-phase `tracemalloc` figures of a `trainer.train` epoch, or of one
`signa eval` run.

The phases are read by spying on the calls that bound them, not by copying
the training loop or the eval command, so they follow the code as it is.
An epoch's phases:

- encode: `encode_rows`;
- loss: from `encode_rows`'s return to the backward pass (the projector
  and the contrastive loss);
- backward: `dc.backward`;
- adam: `dc.adam_step`.

An eval run's phases, each the call that `signa eval` makes:

- checkpoint: `trainer.load_checkpoint`;
- graph: `graphdata.load_graph`;
- forward: `encoder.inference_embeddings`, the frozen forward;
- probe (classify mode): `cli._probe_scores`, the 20 probe runs;
- kmeans (cluster mode): `evaluate.kmeans`.

Run as a script, it trains on the files `signa train` reads and prints the
last epoch's phases, in MiB of traced memory, the graph not counted:

    PYTHONPATH=src python tests/memtrace.py --config C --edges E --features F

or, with `--nodes`, on a stochastic block model of that shape built in
process (`sbm_graph`), no file needed, for 2 epochs of a config file or of
a packaged preset's config:

    PYTHONPATH=src python tests/memtrace.py --preset photo --nodes 7650 --features 745

or, with `--eval MODE`, runs `signa eval --mode MODE` on a checkpoint and
prints its phases, in MiB traced since the command began (the report goes
to a temporary directory):

    PYTHONPATH=src python tests/memtrace.py --eval cluster --checkpoint C \
        --edges E --features F --labels L

With `--ms N`, a training run of N epochs (N >= 2) spies on the same
calls without `tracemalloc` and prints each phase's median milliseconds
over epochs 2..N, and the median of their sums:

    PYTHONPATH=src python tests/memtrace.py --preset photo --nodes 7650 --features 745 --ms 5
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np

from signa import cli, encoder, evaluate, graphdata, trainer
from signa import diffcore as dc
from signa.graphdata import Graph, load_graph, sbm_generate

PRESETS = os.path.join(os.path.dirname(trainer.__file__), "presets")


@dataclass
class Phase:
    start: int  # bytes traced when the phase began
    peak: int  # the most traced while it ran
    end: int  # bytes traced when it ended


def _spied(run, spies, mark) -> None:
    """Call `run()` with each spy in place.  Each spy is (module, attribute,
    phase, then): a call to that function calls `mark(phase)`, and its
    return `mark(then)` (None closes the phase).  Earlier garbage is
    collected first and automatic collection is off during the run, so no
    finalizer of another object runs inside a phase (the code frees its
    arrays by reference counting)."""

    def spy(fn, name: str, then: str | None):
        def call(*args, **kwargs):
            mark(name)
            try:
                return fn(*args, **kwargs)
            finally:
                mark(then)

        return call

    with contextlib.ExitStack() as patches:
        for module, attribute, name, then in spies:
            patches.enter_context(
                mock.patch.object(module, attribute, spy(getattr(module, attribute), name, then))
            )
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            run()
        finally:
            if was_enabled:
                gc.enable()


def traced_phases(run, spies) -> dict[str, Phase]:
    """Call `run()` under `tracemalloc`, with the spies of `_spied`, and
    return its phases by name, the last of each name.  Only what the run
    allocates is counted."""
    phases: dict[str, Phase] = {}
    running: list = [None, 0]  # the phase open now and the bytes traced when it began

    def mark(name: str | None) -> None:
        current, peak = tracemalloc.get_traced_memory()
        if running[0] is not None:
            phases[running[0]] = Phase(running[1], peak, current)
        tracemalloc.reset_peak()
        running[:] = [name, current]

    tracemalloc.start()
    try:
        _spied(run, spies, mark)
    finally:
        tracemalloc.stop()
    return phases


def timed_phases(run, spies) -> dict[str, list[float]]:
    """Call `run()` with the spies of `_spied` and return, for each phase
    name, the milliseconds of each time the phase ran, in order."""
    times: dict[str, list[float]] = {}
    running: list = [None, 0.0]  # the phase open now and the clock when it began

    def mark(name: str | None) -> None:
        now = time.perf_counter()
        if running[0] is not None:
            times.setdefault(running[0], []).append(1e3 * (now - running[1]))
        running[:] = [name, now]

    _spied(run, spies, mark)
    return times


_EPOCH_SPIES = [
    (trainer, "encode_rows", "encode", "loss"),
    (dc, "backward", "backward", None),
    (dc, "adam_step", "adam", None),
]


def epoch_phases(graph, config) -> dict[str, Phase]:
    """The last epoch's phases of `trainer.train(graph, config)`; the graph
    and anything else made before the call are not counted."""
    return traced_phases(lambda: trainer.train(graph, config), _EPOCH_SPIES)


def epoch_ms(graph, config) -> dict[str, float]:
    """Each phase's median milliseconds over epochs 2..N of
    `trainer.train(graph, config)`, and as "epoch" the median of each
    epoch's phase sum; N, the config's epoch count, must be at least 2."""
    times = timed_phases(lambda: trainer.train(graph, config), _EPOCH_SPIES)
    later = {name: ms[1:] for name, ms in times.items()}
    medians = {name: float(np.median(ms)) for name, ms in later.items()}
    medians["epoch"] = float(np.median(np.sum(list(later.values()), axis=0)))
    return medians


def eval_phases(argv: list[str]) -> dict[str, Phase]:
    """The phases of `signa eval` with the command line `argv` (without the
    leading "eval").  A failing command, whose error the CLI has printed,
    exits with its code."""
    spies = [
        (trainer, "load_checkpoint", "checkpoint", None),
        (graphdata, "load_graph", "graph", None),
        (encoder, "inference_embeddings", "forward", None),
        (cli, "_probe_scores", "probe", None),
        (evaluate, "kmeans", "kmeans", None),
    ]
    code: list = []
    phases = traced_phases(lambda: code.append(cli.main(["eval", *argv])), spies)
    if code != [0]:
        raise SystemExit(code[0])
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


def _print_ms(medians: dict[str, float], epochs: int) -> None:
    print(f"{'phase':<11}{'ms':>9}  (medians of epochs 2-{epochs})")
    for name, ms in medians.items():
        print(f"{name:<11}{ms:>9.1f}")


def _print(phases: dict[str, Phase]) -> None:
    mib = 1 << 20
    print(f"{'phase':<11}{'start':>9}{'peak':>9}{'end':>9}  (MiB)")
    for name, phase in phases.items():
        print(f"{name:<11}{phase.start / mib:>9.1f}{phase.peak / mib:>9.1f}{phase.end / mib:>9.1f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="traced memory, phase by phase, of a training epoch or an eval")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="a `signa train` config file")
    source.add_argument("--preset", help=f"the name of a config in {PRESETS}, such as photo")
    source.add_argument("--eval", choices=("classify", "cluster"), help="trace `signa eval` in this mode")
    parser.add_argument("--edges", help="the edge list (without --nodes)")
    parser.add_argument("--features", required=True, help="the feature CSV, or with --nodes the feature count")
    parser.add_argument("--nodes", type=int, help="train 2 epochs on an in-process SBM of this many nodes")
    parser.add_argument("--checkpoint", help="the checkpoint to evaluate (with --eval)")
    parser.add_argument("--labels", help="the label file (with --eval)")
    parser.add_argument("--ms", type=int, metavar="N", help="train N epochs and time each phase of epochs 2..N")
    args = parser.parse_args(argv)
    if args.ms is not None and args.ms < 2:
        parser.error("--ms times epochs 2..N, so N must be at least 2")
    if args.eval:
        if None in (args.checkpoint, args.edges, args.labels) or args.nodes is not None:
            parser.error("--eval takes --checkpoint, --edges, --features and --labels, and no --nodes")
        if args.ms is not None:
            parser.error("--ms goes with a training run")
        with tempfile.TemporaryDirectory() as out:
            command = ["--mode", args.eval, "--checkpoint", args.checkpoint, "--edges", args.edges,
                       "--features", args.features, "--labels", args.labels, "--quiet",
                       "--out", os.path.join(out, "report.json")]
            _print(eval_phases(command))
        return
    if args.checkpoint or args.labels:
        parser.error("--checkpoint and --labels go with --eval")
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
    if args.ms is None:
        _print(epoch_phases(graph, config))
    else:
        _print_ms(epoch_ms(graph, replace(config, num_epochs=args.ms)), args.ms)


if __name__ == "__main__":
    main()
