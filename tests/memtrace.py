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
"""

from __future__ import annotations

import argparse
import gc
import json
import tracemalloc
from dataclasses import dataclass
from unittest import mock

from signa import diffcore as dc
from signa import trainer
from signa.graphdata import load_graph


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


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description="the last training epoch's traced memory, phase by phase")
    parser.add_argument("--config", required=True, help="a `signa train` config file")
    parser.add_argument("--edges", required=True)
    parser.add_argument("--features", required=True)
    args = parser.parse_args(argv)
    with open(args.config, encoding="utf-8") as fh:
        config = trainer.TrainConfig.from_dict(json.load(fh))
    dc.set_precision(config.precision)  # the graph holds its features in it, as in `signa train`
    phases = epoch_phases(load_graph(args.edges, args.features), config)
    mib = 1 << 20
    print(f"{'phase':<9}{'start':>9}{'peak':>9}{'end':>9}  (MiB)")
    for name, phase in phases.items():
        print(f"{name:<9}{phase.start / mib:>9.1f}{phase.peak / mib:>9.1f}{phase.end / mib:>9.1f}")


if __name__ == "__main__":
    main()
