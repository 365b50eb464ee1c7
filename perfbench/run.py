#!/usr/bin/env python3
"""Train -> eval benchmark for signa.

    python3 perfbench/run.py --workload dense-n4k --seed 1 --seconds 30 --trace 0

Run from the repository root.  The benchmark generates the workload's SBM
graph from --seed, writes it in the CLI file formats, and drives the user
flow `signa train` -> `signa eval --mode classify` -> `signa eval --mode
cluster`, one fresh single-threaded process (`--threads 1`) at a time.

--trace 0 measures the end-to-end metrics.  Set-up time is the median of
several fresh processes that only import the CLI and load the graph.  Then
the stages cycle train -> classify -> cluster -> train ... until --seconds
have passed and each has run, with at least two train runs so the
checkpoint's byte-reproducibility is checked; stage times and peak RSS
(from `os.wait4` on each child) are medians.

--trace 1 runs each stage once through the CLI and, right after it, once
through perfbench/traced.py, which calls the same public functions with a
span around each; it reports the per-layer metrics.

Every run checks the outputs; each failed check counts as a failed
operation.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record (environment,
input hashes, every sample and check) goes to
.perfbench_work/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import itertools
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3
MIN_TRAIN_RUNS = 2
RUN_DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s
CLI = "from signa.cli import run; run()"
# exactly the calls a train run makes before epoch 0
SETUP_SNIPPET = """\
import sys
import signa.cli
from signa import graphdata
graph = graphdata.load_graph(sys.argv[1], sys.argv[2])
if sys.argv[3] == "gconv":
    graphdata.normalized_adjacency(graph)
"""

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "train_peak_rss_mb": "MB",
    "eval_classify_s": "s",
    "eval_cluster_s": "s",
    "eval_peak_rss_mb": "MB",
    "probe_micro_f1": "fraction",
    "cluster_nmi": "fraction",
}
# span name -> per-layer metric (median span duration, ms)
SPAN_METRICS = (
    "graphdata.load_graph",
    "graphdata.normalized_adjacency",
    "contrast.draw_masks",
    "contrast.estimator_loss",
    "contrast.loss_backward",
    "encoder.encode",
    "encoder.project",
    "encoder.inference_embeddings",
    "diffcore.backward",
    "diffcore.adam_step",
    "trainer.epoch",
    "trainer.save_checkpoint",
    "trainer.load_checkpoint",
    "evaluate.linear_probe",
    "evaluate.kmeans",
    "evaluate.partition_metrics",
)
# counts recorded by the traced stages -> unit; the metric is their median
COUNT_METRICS = {
    "contrast.loss_peak_mb": "MB",
    "contrast.pairs_per_epoch": "count",
    "contrast.positives_per_epoch": "count",
    "diffcore.param_count": "count",
    "evaluate.kmeans_iters": "count",
}
UNMEASURED = {
    "eval --mode histograms": (
        "with full pairs it gathers two n(n-1)/2 x d arrays: ~8 GB at n=2000, d=256 "
        "(OOM-killed on an 8 GB machine) and a 15.3 GiB MemoryError traceback instead of "
        "an exit code at n=4000; the guard only refuses n > 5000"
    ),
}


@dataclass
class Stage:
    wall_s: float
    peak_rss_mb: float
    returncode: int


class Checks:
    """Operations attempted and failed; every check and child process is one."""

    def __init__(self):
        self.records: list[dict] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.records.append({"check": name, "ok": bool(ok), "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.records)


class Runner:
    """Launches children one at a time; each gets what is left of the run's deadline."""

    def __init__(self, work_dir: str, checks: Checks):
        self.work_dir = work_dir
        self.checks = checks
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=SRC, **{v: "1" for v in THREAD_VARS})
        self.launched = 0

    def launch(self, label: str, argv: list[str]) -> Stage:
        self.launched += 1
        log_path = os.path.join(self.work_dir, f"{self.launched:03d}-{label}.log")
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stage = Stage(wall, usage.ru_maxrss / 1024.0, proc.returncode)
        detail = "" if stage.returncode == 0 else _tail(log_path)
        self.checks.expect(f"{label} exits 0", stage.returncode == 0, detail)
        return stage

    def cli(self, label: str, *args: str) -> Stage:
        return self.launch(label, [sys.executable, "-c", CLI, *args, "--threads", "1", "--quiet"])


def _tail(path: str, lines: int = 5) -> str:
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-lines:])


def _median(values):
    return float(statistics.median(values))


def _load_json(path: str) -> dict | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_pins": {v: os.environ[v] for v in THREAD_VARS},
        "stage_flags": ["--threads", "1"],
    }


# ---------------------------------------------------------------------------
# checks shared by both modes


def check_positive_fraction(checks: Checks, kept: list[int], slots: list[int], mask_rate: float) -> None:
    """Pooled over the run's epochs, the realized share of neighbor pairs kept
    as positives lies within 3 binomial standard errors of 1 - alpha."""
    trials = sum(slots)
    share = sum(kept) / trials
    se = math.sqrt(mask_rate * (1.0 - mask_rate) / trials)
    checks.expect(
        "positive fraction within 3 SE of 1-alpha",
        abs(share - (1.0 - mask_rate)) <= 3.0 * se + 1e-12,
        f"{share:.5f} vs {1.0 - mask_rate:.5f} (SE {se:.5f}, {len(slots)} epochs)",
    )


def check_checkpoint(checks: Checks, path: str) -> str | None:
    doc = _load_json(path)
    loss = None if doc is None else doc.get("final_loss")
    checks.expect("final loss finite", isinstance(loss, float) and math.isfinite(loss), f"final_loss={loss}")
    return None if doc is None else sha256(path)


def check_reports(checks: Checks, ckpt_sha: str | None, classify: list[dict], cluster: list[dict]):
    """Reports name the trained checkpoint, scores are in (0, 1], and repeats agree."""
    f1s = [r["micro_f1"]["mean"] for r in classify if r]
    nmis = [r["nmi"] for r in cluster if r]
    shas = {r.get("checkpoint_sha256") for r in classify + cluster if r}
    ok = (
        len(f1s) == len(classify) > 0
        and len(nmis) == len(cluster) > 0
        and shas == {ckpt_sha}
        and len(set(f1s)) == 1
        and len(set(nmis)) == 1
        and 0.0 < f1s[0] <= 1.0
        and 0.0 < nmis[0] <= 1.0
    )
    checks.expect("eval reports consistent", ok, f"micro_f1={sorted(set(f1s))} nmi={sorted(set(nmis))}")
    return (f1s[0], nmis[0]) if ok else (None, None)


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the two modes


def _stage_args(paths: dict, precision: str, ckpt: str, mode: str, out: str) -> list[str]:
    return [
        "eval", "--checkpoint", ckpt, "--edges", paths["edges"], "--features", paths["features"],
        "--labels", paths["labels"], "--mode", mode, "--precision", precision, "--out", out,
    ] + (["--runs", "20"] if mode == "classify" else [])


def run_untraced(w, graph, paths, seconds, runner: Runner, checks: Checks, record: dict) -> dict:
    from signa import diffcore as dc
    from signa.contrast import draw_masks

    encoder = w.config["model"]["base_encoder"]
    setup = [
        runner.launch("setup", [sys.executable, "-c", SETUP_SNIPPET, paths["edges"], paths["features"], encoder])
        for _ in range(SETUP_REPEATS)
    ]

    samples = {"train": [], "classify": [], "cluster": []}
    reports = {"classify": [], "cluster": []}
    ckpt_shas = []
    # Runs are kept short: the machine's speed drifts over minutes, and a
    # short run lets a set of runs finish before it drifts far.
    start = time.perf_counter()
    for step in itertools.count():
        kind = ("train", "classify", "cluster")[step % 3]
        if kind == "train":
            ckpt = os.path.join(runner.work_dir, f"model-{len(ckpt_shas)}.ckpt")
            stage = runner.cli("train", "train", "--config", paths["config"], "--edges", paths["edges"],
                               "--features", paths["features"], "--out-checkpoint", ckpt)
            if stage.returncode == 0:
                ckpt_shas.append(check_checkpoint(checks, ckpt))
        else:
            out = os.path.join(runner.work_dir, f"{kind}-{len(samples[kind])}.json")
            stage = runner.cli(kind, *_stage_args(paths, w.precision, ckpt, kind, out))
            reports[kind].append(_load_json(out))
        samples[kind].append(stage)
        enough = len(samples["train"]) >= MIN_TRAIN_RUNS and samples["cluster"]
        if checks.failed or (enough and time.perf_counter() - start >= seconds):
            break

    if checks.failed:
        return {}
    checks.expect("checkpoint byte-reproducible across train runs", len(set(ckpt_shas)) == 1,
                  f"{len(ckpt_shas)} runs, {len(set(ckpt_shas))} distinct sha256")
    f1, score = check_reports(checks, ckpt_shas[0], reports["classify"], reports["cluster"])

    # replay the mask stream the train runs drew from (it feeds only draw_masks)
    mask_rng = dc.RngStream(w.config["seed"], "mask")
    draws = [draw_masks(graph, w.config["mask_rate"], mask_rng, epoch=e) for e in range(w.epochs)]
    check_positive_fraction(
        checks, [d.pos_targets.size - d.num_nodes for d in draws],
        [graph.csr_targets.size] * w.epochs, w.config["mask_rate"],
    )

    record["samples"] = {
        "setup": [s.wall_s for s in setup],
        **{k: [{"wall_s": s.wall_s, "peak_rss_mb": s.peak_rss_mb} for s in v] for k, v in samples.items()},
    }
    record["checkpoint_sha256"] = ckpt_shas[0]
    evals = samples["classify"] + samples["cluster"]
    return {
        "setup_s": _median([s.wall_s for s in setup]),
        "train_s": _median([s.wall_s for s in samples["train"]]),
        "train_peak_rss_mb": _median([s.peak_rss_mb for s in samples["train"]]),
        "eval_classify_s": _median([s.wall_s for s in samples["classify"]]),
        "eval_cluster_s": _median([s.wall_s for s in samples["cluster"]]),
        "eval_peak_rss_mb": max(s.peak_rss_mb for s in evals),
        "probe_micro_f1": f1,
        "cluster_nmi": score,
    }


def run_traced(w, paths, runner: Runner, checks: Checks, record: dict) -> dict:
    wd = runner.work_dir
    traced_py = os.path.join(HERE, "traced.py")
    cli_ckpt, traced_ckpt = os.path.join(wd, "cli.ckpt"), os.path.join(wd, "traced.ckpt")
    cli_stages, traced, reports = {}, {}, {}

    # An untimed train run first: the first large-memory process after light
    # ones runs slower, and the timed CLI/traced pair must start alike.  Each
    # CLI stage is then followed at once by its traced twin.
    spans_of = {k: os.path.join(wd, f"spans-{k}.json") for k in ("train", "classify", "cluster")}
    for label in ("warm-up-train", "train"):
        cli_stages["train"] = runner.cli(label, "train", "--config", paths["config"], "--edges", paths["edges"],
                                         "--features", paths["features"], "--out-checkpoint", cli_ckpt)
        if cli_stages["train"].returncode != 0:
            return {}
        cli_sha = check_checkpoint(checks, cli_ckpt)
    traced["train"] = runner.launch("traced-train", [
        sys.executable, traced_py, "train", "--config", paths["config"], "--edges", paths["edges"],
        "--features", paths["features"], "--out-checkpoint", traced_ckpt, "--spans", spans_of["train"]])
    for mode in ("classify", "cluster"):
        out = os.path.join(wd, f"{mode}.json")
        cli_stages[mode] = runner.cli(mode, *_stage_args(paths, w.precision, cli_ckpt, mode, out))
        reports[mode] = _load_json(out)
        traced[mode] = runner.launch(f"traced-{mode}", [
            sys.executable, traced_py, "eval", "--mode", mode, "--checkpoint", cli_ckpt,
            "--edges", paths["edges"], "--features", paths["features"], "--labels", paths["labels"],
            "--precision", w.precision, "--spans", spans_of[mode]])
    if checks.failed:
        return {}

    docs = {k: _load_json(p) for k, p in spans_of.items()}
    with open(cli_ckpt, "rb") as a, open(traced_ckpt, "rb") as b:
        checks.expect("traced checkpoint byte-identical to the CLI's", a.read() == b.read())
    f1, score = check_reports(checks, cli_sha, [reports["classify"]], [reports["cluster"]])
    checks.expect(
        "traced scores equal the CLI's",
        docs["classify"]["results"]["micro_f1_mean"] == f1 and docs["cluster"]["results"]["nmi"] == score,
        f"traced micro_f1={docs['classify']['results']['micro_f1_mean']} nmi={docs['cluster']['results']['nmi']}",
    )
    counts = {}
    for doc in docs.values():
        for name, values in doc["counts"].items():
            counts.setdefault(name, []).extend(values)
    check_positive_fraction(checks, counts["contrast.kept_neighbor_pairs"], counts["contrast.neighbor_pairs"],
                            docs["train"]["results"]["mask_rate"])

    durations: dict[str, list[float]] = {}
    overhead = {}
    extra_top = 0.0
    for stage, doc in docs.items():
        spans = doc["spans"]
        for s in spans:
            durations.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1000.0)
        # the root span is the stage; its direct children are the traced calls
        top = [s for s in spans if s["parent"] == 0]
        called = sum(s["end"] - s["start"] for s in top if not s["extra"])
        overhead[stage] = (cli_stages[stage].wall_s - called) * 1000.0
        if stage == "train":
            extra_top = sum(s["end"] - s["start"] for s in top if s["extra"])

    metrics = {f"{name}_ms": _median(durations[name]) for name in SPAN_METRICS}
    metrics.update({name: _median(counts[name]) for name in COUNT_METRICS})
    metrics["cli.stage_overhead_ms"] = _median(list(overhead.values()))
    traced_train_s = traced["train"].wall_s - extra_top
    metrics["tracing.overhead_ms"] = (traced_train_s - cli_stages["train"].wall_s) * 1000.0
    record["stage_overhead_ms"] = overhead
    record["traced_train_s"] = traced_train_s
    record["untraced_train_s"] = cli_stages["train"].wall_s
    record["loss_share_of_epoch"] = (
        metrics["contrast.estimator_loss_ms"] + metrics["contrast.loss_backward_ms"]
    ) / metrics["trainer.epoch_ms"]
    return metrics


PER_LAYER_UNITS = {
    **{f"{name}_ms": "ms" for name in SPAN_METRICS},
    **COUNT_METRICS,
    "cli.stage_overhead_ms": "ms",
    "tracing.overhead_ms": "ms",
}


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="signa train -> eval benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "signa", "cli.py")):
        print(f"error: package sources not found under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, write_inputs

    w = WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run_id = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work_dir = os.path.join(WORK, run_id)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)

    checks = Checks()
    runner = Runner(work_dir, checks)
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "params": w.describe(), "environment": environment(),
              "unmeasured": UNMEASURED}
    try:
        graph, paths = write_inputs(w, args.seed, os.path.join(work_dir, "inputs"))
        record["inputs_sha256"] = {k: sha256(p) for k, p in paths.items()}
        record["graph"] = {"num_edges": graph.num_edges, "mean_degree": graph.csr_targets.size / graph.num_nodes}
        if args.trace:
            metrics = run_traced(w, paths, runner, checks, record)
            units = PER_LAYER_UNITS
        else:
            metrics = run_untraced(w, graph, paths, args.seconds, runner, checks, record)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if not metrics and not checks.failed:
        checks.expect("metrics produced", False)
    record["checks"] = checks.records
    record["metrics"] = metrics
    with open(os.path.join(WORK, "results", f"{run_id}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    for r in checks.records:
        print(f"check {'ok' if r['ok'] else 'FAIL'}: {r['check']}" + (f" [{r['detail']}]" if r["detail"] else ""))
    if args.trace and metrics:
        print(f"note traced train {record['traced_train_s']:.3f} s vs untraced {record['untraced_train_s']:.3f} s; "
              f"loss fwd+bwd is {100 * record['loss_share_of_epoch']:.1f}% of an epoch")
    for name in units:
        if name in metrics:
            print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    for name, why in UNMEASURED.items():
        print(f"unmeasured {name}: {why}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
