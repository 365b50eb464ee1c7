"""Command-line entry point: homophily, train, eval, embed, ablate.

Subcommand handlers import numpy-heavy modules lazily so that --threads can
pin the BLAS thread pools through environment variables before numpy loads.
Every command writes a run manifest next to its primary output listing
content hashes of config, inputs, and produced artifacts; timestamps live
only in the manifest, so reports and checkpoints stay byte-reproducible.
Only regular files are hashed, and a primary output that is not one gets
no manifest.  Output directories are checked before any input is read.

Exit codes: 0 success, 1 usage/config, 2 data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys

from . import __version__
from .atomic import open_atomic, write_json
from .errors import AnalysisError, ConfigError, OutputError, SignaError, not_utf8

# `ablate` variants and the config overrides each merges into the base config
ABLATE_VARIANTS = {
    "none": {},
    "no_dropout": {"ablation": "no_dropout"},
    "nfm": {"ablation": "nfm"},
    "no_stoch_mask": {"ablation": "no_stoch_mask"},
    "all_mask": {"ablation": "all_mask"},
    "jsd": {"estimator": {"kind": "jsd"}},
    "info_nce": {"estimator": {"kind": "info_nce"}},
    "all_off": {"ablation": "no_dropout", "mask_rate": 0.0, "estimator": {"kind": "jsd"}},
}


# ---------------------------------------------------------------------------
# small helpers


def _sha256(path: str) -> str | None:
    """The file's sha256, or None for anything but a regular file: a pipe
    or FIFO was drained when it was read or written, and reopening it would
    wait for another writer or reader forever."""
    if not os.path.isfile(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_out_dirs(*paths: str | None) -> None:
    """Refuse an output (a file, or ablate's directory) whose directory does
    not exist, before any work."""
    for path in filter(None, paths):
        folder = os.path.dirname(os.path.normpath(path)) or "."
        if not os.path.isdir(folder):
            raise OutputError(f"cannot write {path}: {folder} is not a directory")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(
    primary_out: str,
    command: str,
    started: str,
    seed,
    inputs: list[str],
    outputs: list[str],
    config_path: str | None = None,
    extra: dict | None = None,
    digests: dict[str, str | None] | None = None,
) -> None:
    """Write `<primary_out>.manifest.json`; `digests` holds sha256 values
    already computed for some inputs, so those files are not read twice.
    A primary output that is not a regular file (a FIFO, /dev/stdout on a
    pipe) has no place beside it for a manifest, and gets none."""
    if not os.path.isfile(primary_out):
        return
    digests = digests or {}
    doc = {
        "command": command,
        "toolkit_version": __version__,
        "seed": seed,
        "config": None
        if config_path is None
        else {"path": config_path, "sha256": _sha256(config_path)},
        "inputs": [{"path": p, "sha256": digests.get(p) or _sha256(p)} for p in inputs],
        "outputs": [{"path": p, "sha256": _sha256(p)} for p in outputs],
        "started_at": started,
        "finished_at": _now(),
    }
    if extra:
        doc.update(extra)
    write_json(primary_out + ".manifest.json", doc)


def _load_config_dict(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {not_utf8(path, exc)}") from None


def _mean_std(values: list[float]) -> tuple[float, float | None]:
    """Population std; None when fewer than two runs."""
    import numpy as np

    mean = float(np.mean(values))
    std = float(np.std(values)) if len(values) >= 2 else None
    return mean, std


def _probe_scores(emb, labels, runs: int, seed: int) -> tuple[list[float], list[float]]:
    """Linear-probe micro-F1 and accuracy over `runs` splits drawn from `seed`."""
    from . import diffcore as dc
    from .evaluate import ProbeConfig, linear_probe, make_splits

    splits = make_splits(labels, num_runs=runs, rng=dc.RngStream(seed, "split"))
    scores = [linear_probe(emb, labels, split, ProbeConfig()) for split in splits]
    return [f1 for f1, _ in scores], [acc for _, acc in scores]


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_homophily(args) -> int:
    from .graphdata import load_graph, local_homophily

    started = _now()
    _check_out_dirs(args.out_json, args.out_csv)
    graph = load_graph(args.edges, args.features, args.labels)
    if graph.num_edges == 0:
        raise AnalysisError("global homophily is undefined on an edgeless graph")
    report = local_homophily(graph)

    doc = report.to_json_dict()
    write_json(args.out_json, doc)
    with open_atomic(args.out_csv) as fh:
        fh.write("histogram,bin,count\n")
        bins = doc["count_hist_bins"]
        for label, count in zip(bins, doc["count_hist"]):
            fh.write(f"count,{label},{count}\n")
        edges = doc["ratio_hist_edges"]
        for i, count in enumerate(doc["ratio_hist"]):
            fh.write(f"ratio,[{edges[i]:.2f};{edges[i + 1]:.2f}),{count}\n")

    _write_manifest(
        args.out_json,
        "homophily",
        started,
        seed=None,
        inputs=[args.edges, args.features, args.labels],
        outputs=[args.out_json, args.out_csv],
    )
    if not args.quiet:
        print(f"global homophily {report.global_ratio:.6f}  ({report.num_isolated} isolated nodes)")
    return 0


def _flag_overrides(args, seed) -> dict:
    """Config values set by flags (flag > config > default)."""
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if args.precision is not None:
        overrides["precision"] = args.precision
    if getattr(args, "ablation", None) is not None:
        overrides["ablation"] = args.ablation
    if args.quiet:
        overrides["log_every"] = 0
    return overrides


def _config_with(raw: dict, overrides: dict):
    """Validate `raw` with `overrides` merged in; nested objects merge key by key."""
    from .trainer import TrainConfig

    doc = json.loads(json.dumps(raw))  # deep copy, JSON-only types
    for key, value in overrides.items():
        if isinstance(value, dict):
            if not isinstance(doc.get(key, {}), dict):
                raise ConfigError(f"config key {key!r} must be an object")
            value = {**doc.get(key, {}), **value}
        doc[key] = value
    return TrainConfig.from_dict(doc)


def _cmd_train(args) -> int:
    from . import diffcore as dc
    from .graphdata import load_graph
    from .trainer import apply_ablation, save_checkpoint, train

    started = _now()
    _check_out_dirs(args.out_checkpoint, args.out_loss_curve)
    config = _config_with(_load_config_dict(args.config), _flag_overrides(args, args.seed))
    dc.set_precision(config.precision)  # the graph holds its features in it
    graph = load_graph(args.edges, args.features)
    state, curve = train(graph, config)
    save_checkpoint(state, config, args.out_checkpoint, final_loss=curve[-1])

    outputs = [args.out_checkpoint]
    if args.out_loss_curve:
        with open_atomic(args.out_loss_curve) as fh:
            fh.write("epoch,loss\n")
            for epoch, value in enumerate(curve):
                fh.write(f"{epoch},{value:.17g}\n")
        outputs.append(args.out_loss_curve)

    effective = apply_ablation(config)
    _write_manifest(
        args.out_checkpoint,
        "train",
        started,
        seed=config.seed,
        inputs=[args.edges, args.features],
        outputs=outputs,
        config_path=args.config,
        extra={
            "effective": {
                "mask_rate": effective.mask_rate,
                "dropout_p": effective.model.dropout_p,
                "nfm_p_feat": effective.nfm_p_feat,
                "estimator_kind": effective.estimator.kind,
            }
        },
    )
    if not args.quiet:
        print(f"trained {config.num_epochs} epochs, final loss {curve[-1]:.6f}")
    return 0


def _load_for_eval(args):
    from . import diffcore as dc
    from .errors import CheckpointError
    from .graphdata import load_graph
    from .trainer import load_checkpoint

    dc.set_precision(args.precision or "f64")
    state, config = load_checkpoint(args.checkpoint)
    graph = load_graph(args.edges, args.features, getattr(args, "labels", None))
    if graph.num_features != state.num_features:
        raise CheckpointError(
            f"checkpoint expects {state.num_features} features, graph has {graph.num_features}"
        )
    return state, config, graph


def _cmd_eval(args) -> int:
    from . import diffcore as dc
    from .encoder import inference_embeddings
    from .evaluate import kmeans, partition_metrics, similarity_histograms, timing_harness

    started = _now()
    counts = {
        "classify": (("--runs", args.runs),),
        "timing": (("--repeats", args.repeats),),
        "histograms": (("--bins", args.bins), ("--subsample-pairs", args.subsample_pairs)),
    }
    for flag, value in counts.get(args.mode, ()):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")
    _check_seed("--seed", args.seed)
    if args.mode in ("classify", "cluster") and args.labels is None:
        raise ConfigError(f"{args.mode} mode requires --labels")
    if args.mode == "histograms" and args.out_csv is None:
        raise ConfigError("histograms mode requires --out-csv")
    _check_out_dirs(args.out, args.out_csv)
    state, config, graph = _load_for_eval(args)
    seed = args.seed if args.seed is not None else config.seed
    checkpoint_sha256 = _sha256(args.checkpoint)
    report: dict = {
        "mode": args.mode,
        "seed": seed,
        "checkpoint_sha256": checkpoint_sha256,
        "config": config.to_dict(),
    }
    outputs = [args.out]

    if args.mode in ("classify", "cluster", "histograms"):
        emb = inference_embeddings(state, state.spec, graph).data
    if args.mode in ("classify", "cluster"):
        # the probe and k-means read only the labels: the graph with its
        # features and the encoder state with its weights die here, before
        # either runs
        labels, num_classes = graph.labels, graph.num_classes
        del graph, state

    if args.mode == "classify":
        f1s, accs = _probe_scores(emb, labels, args.runs, seed)
        f1_mean, f1_std = _mean_std(f1s)
        acc_mean, acc_std = _mean_std(accs)
        report.update(
            {
                "runs": args.runs,
                "micro_f1": {"per_run": f1s, "mean": f1_mean, "std": f1_std},
                "accuracy": {"per_run": accs, "mean": acc_mean, "std": acc_std},
            }
        )
    elif args.mode == "cluster":
        result = kmeans(emb, num_classes, rng=dc.RngStream(seed, "kmeans"))
        score, homog = partition_metrics(result.assignments, labels)
        report.update(
            {
                "k": num_classes,
                "nmi": score,
                "homogeneity": homog,
                "inertia": result.inertia,
            }
        )
    elif args.mode == "histograms":
        hists = similarity_histograms(
            emb, graph, dc.RngStream(seed, "split"), bins=args.bins, subsample_pairs=args.subsample_pairs
        )
        with open_atomic(args.out_csv) as fh:
            fh.write("population,bin_lo,bin_hi,count\n")
            populations = [("neighbor", hists.neighbor), ("non_neighbor", hists.non_neighbor)]
            if hists.same_label is not None:
                populations += [("same_label", hists.same_label), ("diff_label", hists.diff_label)]
            for name, counts in populations:
                for i, count in enumerate(counts):
                    fh.write(
                        f"{name},{hists.bin_edges[i]:.6f},{hists.bin_edges[i + 1]:.6f},{count}\n"
                    )
        outputs.append(args.out_csv)
        report.update(
            {
                "bins": args.bins,
                "num_pairs": hists.num_pairs,
                "subsampled": hists.subsampled,
                "neighbor_total": int(hists.neighbor.sum()),
                "non_neighbor_total": int(hists.non_neighbor.sum()),
            }
        )
    else:  # timing
        timing = timing_harness(graph, state.spec, repeats=args.repeats)
        report.update(
            {
                "repeats": timing.repeats,
                "entries": [
                    {"encoder_kind": e.encoder_kind, "wall_millis": e.wall_millis}
                    for e in timing.entries
                ],
                "ratio_gconv_over_linear": timing.ratio_gconv_over_linear,
            }
        )

    write_json(args.out, report)
    inputs = [args.checkpoint, args.edges, args.features]
    if args.labels:
        inputs.append(args.labels)
    _write_manifest(
        args.out,
        "eval",
        started,
        seed=seed,
        inputs=inputs,
        outputs=outputs,
        digests={args.checkpoint: checkpoint_sha256},
    )
    if not args.quiet:
        print(f"wrote {args.mode} report to {args.out}")
    return 0


def _cmd_embed(args) -> int:
    import numpy as np

    from .encoder import inference_embeddings

    started = _now()
    _check_out_dirs(args.out)
    state, config, graph = _load_for_eval(args)
    emb = inference_embeddings(state, state.spec, graph).data
    header = ",".join(f"dim_{j}" for j in range(emb.shape[1]))
    with open_atomic(args.out) as fh:
        np.savetxt(fh, emb, fmt="%.17g", delimiter=",", header=header, comments="")
    _write_manifest(
        args.out,
        "embed",
        started,
        seed=config.seed,
        inputs=[args.checkpoint, args.edges, args.features],
        outputs=[args.out],
    )
    if not args.quiet:
        print(f"wrote embeddings to {args.out}")
    return 0


def _check_seed(flag: str, seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ConfigError(f"{flag} must be >= 0, got {seed}")


def _parse_seeds(text: str) -> list[int]:
    seeds = []
    for entry in text.split(","):
        try:
            seeds.append(int(entry))
        except ValueError:
            raise ConfigError(f"--seeds entry {entry!r} is not an integer") from None
        _check_seed("--seeds entry", seeds[-1])
    return seeds


def _cmd_ablate(args) -> int:
    from . import diffcore as dc
    from .encoder import inference_embeddings
    from .graphdata import load_graph
    from .trainer import train

    started = _now()
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    if not variants:
        raise ConfigError(f"--variants names no variant: {args.variants!r}")
    bad = [v for v in variants if v not in ABLATE_VARIANTS]
    if bad:
        raise ConfigError(
            f"unknown ablation variants: {', '.join(bad)} (choose from {', '.join(ABLATE_VARIANTS)})"
        )
    if args.probe_runs < 1:
        raise ConfigError(f"--probe-runs must be >= 1, got {args.probe_runs}")
    if not args.seeds and args.num_seeds < 1:
        raise ConfigError(f"--num-seeds must be >= 1, got {args.num_seeds}")
    _check_seed("--seed", args.seed)
    seeds = _parse_seeds(args.seeds) if args.seeds else None
    _check_out_dirs(args.out_dir)
    raw = _load_config_dict(args.config)
    # an error every variant would share fails the command before the graph
    # is read; one that a variant's overrides bring gets that variant's row
    base = _config_with(raw, _flag_overrides(args, seeds[0] if seeds else args.seed))
    if seeds is None:
        seeds = [base.seed + i for i in range(args.num_seeds)]

    dc.set_precision(base.precision)  # no variant overrides it
    graph = load_graph(args.edges, args.features, args.labels)
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as exc:
        raise OutputError(f"cannot write {args.out_dir}: {exc.strerror or exc}") from None

    rows = []
    details: dict = {}
    for variant in variants:
        per_seed_f1, per_seed_acc = [], []
        try:
            for seed in seeds:
                config = _config_with(raw, {**ABLATE_VARIANTS[variant], **_flag_overrides(args, seed)})
                state, _curve = train(graph, config)
                emb = inference_embeddings(state, state.spec, graph).data
                f1s, accs = _probe_scores(emb, graph.labels, args.probe_runs, seed)
                per_seed_f1.append(float(sum(f1s) / len(f1s)))
                per_seed_acc.append(float(sum(accs) / len(accs)))
            f1_mean, f1_std = _mean_std(per_seed_f1)
            acc_mean, acc_std = _mean_std(per_seed_acc)
            rows.append((variant, "ok", f1_mean, f1_std, acc_mean, acc_std, ""))
            details[variant] = {
                "status": "ok",
                "seeds": seeds,
                "micro_f1_per_seed": per_seed_f1,
                "accuracy_per_seed": per_seed_acc,
            }
        except SignaError as exc:
            rows.append((variant, "error", None, None, None, None, str(exc)))
            details[variant] = {"status": "error", "error": str(exc)}
            if not args.quiet:
                print(f"variant {variant} failed: {exc}", file=sys.stderr)

    def fmt(v) -> str:
        return "" if v is None else f"{v:.6f}"

    table_path = os.path.join(args.out_dir, "ablation_table.csv")
    with open_atomic(table_path) as fh:
        fh.write("variant,status,micro_f1_mean,micro_f1_std,accuracy_mean,accuracy_std,error\n")
        for variant, status, f1m, f1s_, accm, accs_, err in rows:
            fh.write(f"{variant},{status},{fmt(f1m)},{fmt(f1s_)},{fmt(accm)},{fmt(accs_)},{err}\n")
    report_path = os.path.join(args.out_dir, "ablation_report.json")
    write_json(report_path, {"seeds": seeds, "variants": details, "base_config": raw})

    _write_manifest(
        report_path,
        "ablate",
        started,
        seed=seeds,
        inputs=[args.edges, args.features, args.labels],
        outputs=[table_path, report_path],
        config_path=args.config,
    )
    if not args.quiet:
        print(f"wrote ablation table to {table_path}")
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config/default seed")
    common.add_argument("--precision", choices=("f32", "f64"), default=None)
    common.add_argument("--threads", type=int, default=None, help="pin BLAS thread pools (at most the core count)")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")

    parser = argparse.ArgumentParser(
        prog="signa",
        description="Single-view graph contrastive learning with soft neighborhood awareness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homophily", parents=[common], help="global/local homophily report")
    p.add_argument("--edges", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out-json", required=True)
    p.add_argument("--out-csv", required=True)

    p = sub.add_parser("train", parents=[common], help="unsupervised training run")
    p.add_argument("--config", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--out-loss-curve", default=None)
    p.add_argument("--ablation", default=None, help="override the config's ablation variant")

    p = sub.add_parser("eval", parents=[common], help="evaluate a frozen checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--mode", required=True, choices=("classify", "cluster", "histograms", "timing"))
    p.add_argument("--runs", type=int, default=20, help="probe splits (classify mode)")
    p.add_argument("--repeats", type=int, default=20, help="timing repeats (timing mode)")
    p.add_argument("--bins", type=int, default=50, help="histogram bins (histograms mode)")
    p.add_argument("--subsample-pairs", type=int, default=None)
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--out-csv", default=None, help="histogram CSV path (histograms mode)")

    p = sub.add_parser("embed", parents=[common], help="export inference embeddings as CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ablate", parents=[common], help="train+probe a variant table")
    p.add_argument("--config", required=True)
    p.add_argument("--edges", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--variants", default=",".join(ABLATE_VARIANTS))
    p.add_argument("--seeds", default=None, help="comma-separated; overrides --num-seeds")
    p.add_argument("--num-seeds", type=int, default=3)
    p.add_argument("--probe-runs", type=int, default=3)
    p.add_argument("--out-dir", required=True)
    return parser


_HANDLERS = {
    "homophily": _cmd_homophily,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "embed": _cmd_embed,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold into the config bucket
        return 0 if exc.code == 0 else 1

    if args.threads is not None:
        cores = os.cpu_count() or 1
        if not 1 <= args.threads <= cores:
            print(f"error: --threads must be from 1 to the {cores} cores of this machine, got {args.threads}",
                  file=sys.stderr)
            return 1
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)

    try:
        return _HANDLERS[args.command](args)
    except SignaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def run() -> None:
    sys.exit(main())
