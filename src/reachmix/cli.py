"""Command-line interface.

    reachmix synth       generate a stochastic-block-model dataset
    reachmix train       train baseline or mixup models over seeds
    reachmix sweep       exhaustive hyperparameter grid search
    reachmix diagnose    rc | cka | avgsp | pearson reports
    reachmix gradcheck   finite-difference check of the backprop
    reachmix convert-cora  convert a Planetoid-style raw dump

Config is JSON (schema = TrainConfig.to_dict()); flags override config
fields, config overrides defaults. Exit codes: 0 success, 1 runtime failure,
2 usage error. Every output directory gets exactly one manifest.json; all
other outputs are deterministic for fixed seeds (wall-clock timings go to a
separate timings file). Every run table and JSON output is written by
write_tsv or write_json; dataset files and checkpoints are written by the
modules that read them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

import reachmix
from reachmix import diagnostics, graphio, nn, trainer
from reachmix.graphalg import from_edges
from reachmix.graphio import dataset_fingerprint, generate_sbm, load_dataset, save_dataset
from reachmix.seeding import substream
from reachmix.trainer import TrainConfig, train_multi


class UsageError(ValueError):
    pass


def resolve_data_dir(path: str) -> str:
    """Resolve a dataset directory, falling back to $REACHMIX_DATA_ROOT/<path>."""
    if os.path.isdir(path):
        return path
    root = os.environ.get("REACHMIX_DATA_ROOT")
    if root:
        candidate = os.path.join(root, path)
        if os.path.isdir(candidate):
            return candidate
    return path


def parse_seeds(text: str) -> list[int]:
    """Seed list: '0..9' (inclusive range) or '0,3,5'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise UsageError(f"bad seed range {text!r}") from None
        if hi < lo:
            raise UsageError(f"empty seed range {text!r}")
        return list(range(lo, hi + 1))
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad seed list {text!r}") from None


def _int_at_least(low: int):
    """An argparse ``type`` for integers >= ``low``: anything else is a usage
    error (exit 2) that names the flag."""
    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def _positive_float(text: str) -> float:
    """An argparse ``type`` for finite floats > 0: anything else is a usage
    error (exit 2) that names the flag."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not (np.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _git_describe() -> str | None:
    """The checkout the running package comes from, whatever the caller's
    working directory; None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(reachmix.__file__)),
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def prepare_outdir(path: str, force: bool) -> None:
    if os.path.exists(path):
        if not force:
            raise RuntimeError(f"output directory {path!r} exists; pass --force to overwrite")
    else:
        os.makedirs(path)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    value = value.item() if isinstance(value, np.generic) else value
    return json.dumps(value) if isinstance(value, bool) else repr(value)


def write_tsv(path, header, rows) -> None:
    """A run table: a header line, then one tab-separated line per row. A
    string cell is written verbatim, a bool as JSON ``true``/``false`` (the
    form ``--grid`` reads), and a number as the repr of its Python scalar
    (numpy scalars via ``.item()``), so it reads back with int() or float()
    exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(map(_cell, row)) + "\n")


def write_json(path, blob) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1)
        fh.write("\n")


def write_manifest(outdir, command: str, config: dict, dataset: tuple[str, str | None] | None = None) -> None:
    """The run's one manifest.json. ``dataset`` is the pair (directory,
    fingerprint) of the dataset the command read or wrote: for a command
    that loaded it, ``Dataset.fingerprint``, the digest of the bytes it
    loaded (None, written as null, where features.tsv changed while it was
    read); for one that wrote it, ``dataset_fingerprint`` of the files."""
    manifest = {
        "command": command,
        "config": config,
        "version": reachmix.__version__,
        "git": _git_describe(),
        "created_unix": time.time(),
    }
    if dataset is not None:
        data_dir, manifest["dataset_fingerprint"] = dataset
        manifest["dataset_dir"] = os.path.abspath(data_dir)
    write_json(os.path.join(outdir, "manifest.json"), manifest)


def load_config(path: str | None) -> TrainConfig:
    if path is None:
        return TrainConfig()
    with open(path, "r", encoding="utf-8") as fh:
        return TrainConfig.from_dict(json.load(fh))


def _config_with_overrides(args) -> TrainConfig:
    cfg = load_config(args.config)
    overrides = {}
    if args.seeds is not None:
        overrides["seeds"] = parse_seeds(args.seeds)
    if args.mixup is not None:
        overrides["mixup_enabled"] = args.mixup == "on"
    if args.max_epochs is not None:
        overrides["max_epochs"] = args.max_epochs
        overrides["patience"] = min(cfg.patience, args.max_epochs)
    return trainer.apply_grid_point(cfg, overrides)


# ---------------------------------------------------------------------------
# Subcommands


def _args_blob(args) -> dict:
    blob = {k: v for k, v in vars(args).items() if k != "func"}
    blob["out"] = os.path.abspath(args.out) if getattr(args, "out", None) else None
    return blob


def cmd_synth(args) -> int:
    dataset = generate_sbm(
        num_classes=args.classes,
        nodes_per_class=args.per_class,
        p_in=args.p_in,
        p_out=args.p_out,
        feature_dim=args.feature_dim,
        feature_noise=args.noise,
        seed=args.seed,
        labels_per_class=args.labels_per_class,
        valid_per_class=args.valid_per_class,
    )
    prepare_outdir(args.out, args.force)
    save_dataset(dataset, args.out)
    write_manifest(args.out, "synth", _args_blob(args), (args.out, dataset_fingerprint(args.out)))
    print(
        f"wrote {args.out}: {dataset.num_nodes} nodes, {dataset.edges.shape[0]} edges, "
        f"{dataset.num_classes} classes, {dataset.num_features} features; "
        f"split {dataset.split.labeled_ids.size}/{dataset.split.valid_ids.size}/{dataset.split.test_ids.size}"
    )
    return 0


def cmd_train(args) -> int:
    cfg = _config_with_overrides(args)
    args.data = resolve_data_dir(args.data)
    dataset = load_dataset(args.data)
    prepare_outdir(args.out, args.force)
    result = train_multi(dataset, cfg)
    for seed, outcome in zip(cfg.seeds, result.outcomes):
        write_tsv(os.path.join(args.out, f"metrics_seed{seed}.tsv"),
                  ["epoch", "total", "supervised", "intra", "inter", "val_acc"],
                  [(r.epoch, r.total, r.supervised, r.intra, r.inter, r.val_acc) for r in outcome.history])
        nn.save_params(os.path.join(args.out, f"checkpoint_seed{seed}.txt"), outcome.params)
    write_tsv(os.path.join(args.out, "timings.tsv"), ["seed", "epoch", "seconds"],
              [(seed, r.epoch, r.seconds) for seed, o in zip(cfg.seeds, result.outcomes) for r in o.history])
    summary = {
        "seeds": list(cfg.seeds),
        "test_acc": {str(s): float(a) for s, a in zip(cfg.seeds, result.test_accs)},
        "best_val_acc": {str(s): float(v) for s, v in zip(cfg.seeds, result.best_val_accs)},
        "best_epoch": {str(s): o.best_epoch for s, o in zip(cfg.seeds, result.outcomes)},
        # epochs up to the selected one that trained on at least one mixed pair
        "mixed_epochs_to_best": {str(s): sum(1 for r in o.history[:o.best_epoch + 1] if r.intra or r.inter)
                                 for s, o in zip(cfg.seeds, result.outcomes)},
        "mean": result.mean,
        "std": result.std,
        "sem": result.sem,
    }
    write_json(os.path.join(args.out, "summary.json"), summary)
    write_manifest(args.out, "train", cfg.to_dict(), (args.data, dataset.fingerprint))
    print(f"test_acc mean={result.mean:.4f} std={result.std:.4f} sem={result.sem:.4f} over {len(cfg.seeds)} seeds; "
          "mixed_epochs_to_best " + " ".join(map(str, summary["mixed_epochs_to_best"].values())))
    return 0


def _parse_grid(specs: list[str]) -> dict[str, list]:
    grids: dict[str, list] = {}
    for spec in specs:
        if "=" not in spec:
            raise UsageError(f"grid spec {spec!r} must look like field=v1,v2")
        field, values = spec.split("=", 1)
        parsed = []
        for v in values.split(","):
            v = v.strip()
            if not v:
                continue
            try:
                parsed.append(json.loads(v))
            except json.JSONDecodeError:
                parsed.append(v)
        if not parsed:
            raise UsageError(f"grid spec {spec!r} has no values")
        field = field.strip()
        if field in grids:
            raise UsageError(f"--grid gives field {field!r} more than once; list its values in one spec")
        grids[field] = parsed
    if not grids:
        raise UsageError("no grid specs given")
    return grids


def cmd_sweep(args) -> int:
    cfg = _config_with_overrides(args)
    args.data = resolve_data_dir(args.data)
    dataset = load_dataset(args.data)
    grids = _parse_grid(args.grid)
    trainer.grid_points(cfg, grids)  # every point's config is valid before --out is claimed
    prepare_outdir(args.out, args.force)
    best_cfg, rows = trainer.grid_search(dataset, cfg, grids, jobs=args.jobs)
    columns = list(grids) + ["mean_val_acc", "std_val_acc"]
    ranked = sorted(rows, key=lambda r: -r["mean_val_acc"])
    write_tsv(os.path.join(args.out, "sweep.tsv"), columns, [[row[k] for k in columns] for row in ranked])
    write_json(os.path.join(args.out, "best.json"), best_cfg.to_dict())
    write_manifest(args.out, "sweep", {"base": cfg.to_dict(), "grids": grids}, (args.data, dataset.fingerprint))
    best = ranked[0]
    print(f"swept {len(rows)} configurations; best mean_val_acc={best['mean_val_acc']:.4f}")
    print(f"best config written to {os.path.join(args.out, 'best.json')}")
    return 0


def cmd_diagnose(args) -> int:
    """Reach is measured on A: the BFS ignores self-loops and the structural
    degrees exclude them. Only ``cka`` and ``pearson`` build the model
    inputs, once, with ``trainer.build_operators``, after checking that the
    checkpoint's F and C fit the dataset."""
    needs_model = args.kind in ("cka", "pearson")
    if needs_model and not args.checkpoint:
        raise UsageError(f"diagnose {args.kind} needs --checkpoint")
    params = nn.load_params(args.checkpoint) if needs_model else None
    args.data = resolve_data_dir(args.data)
    dataset = load_dataset(args.data)
    if needs_model and (params.w1.shape[0], params.w2.shape[1]) != (dataset.num_features, dataset.num_classes):
        raise ValueError(f"{args.checkpoint}: checkpoint has {params.w1.shape[0]} features and {params.w2.shape[1]} "
                         f"classes, dataset {args.data} has {dataset.num_features} and {dataset.num_classes}")
    g = from_edges(dataset.num_nodes, dataset.edges)
    labeled = dataset.split.labeled_ids

    # Each kind yields its table (header, rows), its JSON summary and the
    # line printed on success. Array columns go in as lists of Python
    # scalars, so that write_tsv needs no .item() per cell.
    if args.kind == "rc":
        report = diagnostics.reaching_coefficient(g, labeled)
        header = ["node", "rc", "min_dist", "mean_dist"]
        rows = zip(report.node_ids.tolist(), report.rc.tolist(), report.min_dist.tolist(),
                   report.mean_dist.tolist())
        summary = {
            "diameter": report.diameter,
            "num_unlabeled": int(report.node_ids.size),
            "rc_mean": float(report.rc.mean()),
            "rc_max": float(report.rc.max()),
        }
        line = f"rc: {report.node_ids.size} unlabeled nodes, diameter {report.diameter}"
    elif args.kind == "avgsp":
        report = diagnostics.avg_sp_by_degree(g, labeled)
        header = ["degree", "avg_sp", "count"]
        rows = zip(report.degrees.tolist(), report.avg_sp.tolist(), report.counts.tolist())
        summary = {"num_degrees": int(report.degrees.size), "global_mean_sp": float(report.node_avg_sp.mean())}
        line = f"avgsp: {report.degrees.size} degree groups"
    elif args.kind == "cka":
        buckets = diagnostics.rc_buckets(diagnostics.reaching_coefficient(g, labeled))
        report = diagnostics.cka_by_bucket(params, trainer.build_operators(dataset), buckets, args.seed)
        values = ["absent" if v is None else v for v in report.values]
        header = ["bucket", "cka", "sample_size"]
        rows = zip(range(1, len(values) + 1), values, report.sample_sizes)
        summary = {"seed": report.seed, "values": report.values, "sample_sizes": report.sample_sizes}
        line = "cka by bucket: " + " ".join(v if isinstance(v, str) else f"{v:.4f}" for v in values)
    else:  # pearson; argparse restricts the choices
        rc = diagnostics.reaching_coefficient(g, labeled)
        r, pairs = diagnostics.pearson_rc_vs_score(params, trainer.build_operators(dataset), rc)
        header = ["node", "rc", "true_class_score"]
        rows = zip(rc.node_ids.tolist(), pairs[:, 1].tolist(), pairs[:, 2].tolist())
        summary = {"pearson_r": float(r), "n": int(pairs.shape[0])}
        line = f"pearson r={r:.4f} over {pairs.shape[0]} unlabeled nodes"
    prepare_outdir(args.out, args.force)  # after the report, so a failed one leaves no --out
    write_tsv(os.path.join(args.out, f"{args.kind}.tsv"), header, rows)
    write_json(os.path.join(args.out, f"{args.kind}_summary.json"), summary)
    write_manifest(args.out, f"diagnose {args.kind}", _args_blob(args), (args.data, dataset.fingerprint))
    print(line)
    return 0


def cmd_gradcheck(args) -> int:
    rng = substream(args.seed, "gradcheck")
    dataset = generate_sbm(
        num_classes=2, nodes_per_class=4, p_in=0.9, p_out=0.3,
        feature_dim=5, feature_noise=0.5, seed=args.seed,
        labels_per_class=2, valid_per_class=1,
    )
    params = nn.init_params(dataset.num_features, 6, dataset.num_classes, rng)
    max_rel, checked, skipped = nn.gradient_check(trainer.build_operators(dataset), params, eps=args.eps)
    ok = max_rel < args.threshold
    status = "PASS" if ok else "FAIL"
    print(f"{status} max_rel_err={max_rel:.3e} checked={checked} skipped={skipped} eps={args.eps:g}")
    return 0 if ok else 1


def _convert_planetoid(raw_dir: str, name: str):
    """Read the pickled Planetoid dump (ind.<name>.*) into arrays.

    Best-effort convenience: the pickles hold scipy sparse feature blocks,
    which are densified here. Follows the standard split: first 20*C nodes train, next 500
    validation, the test index file as test.
    """
    import pickle

    def load_pickle(suffix):
        path = os.path.join(raw_dir, f"ind.{name}.{suffix}")
        with open(path, "rb") as fh:
            return pickle.load(fh, encoding="latin1")

    x, y, tx, ty, allx, ally, graph = (load_pickle(s) for s in ("x", "y", "tx", "ty", "allx", "ally", "graph"))
    test_idx = np.loadtxt(os.path.join(raw_dir, f"ind.{name}.test.index"), dtype=np.int64)
    test_sorted = np.sort(test_idx)

    num_nodes = int(max(allx.shape[0] + tx.shape[0], test_idx.max() + 1, len(graph)))
    features = np.zeros((num_nodes, allx.shape[1]))
    features[: allx.shape[0]] = np.asarray(allx.todense())
    # tx row j belongs to the j-th line of test.index. Route rows through the
    # sorted positions first, then permute into file order; ids absent from
    # the dump (isolated nodes in some graphs) keep zero rows.
    features[test_sorted] = np.asarray(tx.todense())
    features[test_idx] = features[test_sorted]

    labels_hot = np.zeros((num_nodes, ally.shape[1]))
    labels_hot[: ally.shape[0]] = ally
    labels_hot[test_sorted] = ty
    labels_hot[test_idx] = labels_hot[test_sorted]
    labels = np.argmax(labels_hot, axis=1)

    edges = []
    for u, nbrs in graph.items():
        for v in nbrs:
            if u != v:
                edges.append((u, v))
    edges = np.asarray(edges, dtype=np.int64)

    n_train = y.shape[0]
    split = graphio.SplitSpec(
        labeled_ids=np.arange(n_train),
        valid_ids=np.arange(n_train, n_train + 500),
        test_ids=test_sorted,
    )
    return num_nodes, features, labels, edges, split


def cmd_convert_cora(args) -> int:
    num_nodes, features, labels, edges, split = _convert_planetoid(args.raw, args.name)
    if args.row_normalize:
        sums = features.sum(axis=1, keepdims=True)
        features = np.divide(features, sums, out=np.zeros_like(features), where=sums > 0)
    dataset = graphio.Dataset(num_nodes, int(labels.max()) + 1, edges, features, labels, split)
    prepare_outdir(args.out, args.force)
    save_dataset(dataset, args.out)
    write_manifest(args.out, "convert-cora", _args_blob(args), (args.out, dataset_fingerprint(args.out)))
    print(
        f"wrote {args.out}: {dataset.num_nodes} nodes, {dataset.edges.shape[0]} edges, "
        f"{dataset.num_classes} classes; labeled/valid/test = "
        f"{split.labeled_ids.size}/{split.valid_ids.size}/{split.test_ids.size}"
    )
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reachmix", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a stochastic-block-model dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--labels-per-class", type=int, default=None)
    p.add_argument("--valid-per-class", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train over seeds and aggregate test accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", default=None, help="e.g. 0..9 or 0,2,5")
    p.add_argument("--mixup", choices=("on", "off"), default=None, help="override config mixup_enabled")
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="exhaustive grid search by validation accuracy")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--seeds", default=None)
    p.add_argument("--mixup", choices=("on", "off"), default=None)
    p.add_argument("--max-epochs", type=int, default=None)
    p.add_argument("--grid", action="append", required=True,
                   help="field=v1,v2 (repeatable), e.g. mixup.gamma=0.5,0.7,0.9")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", help="reachability / alignment reports")
    p.add_argument("kind", choices=("rc", "cka", "avgsp", "pearson"))
    p.add_argument("--data", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="sampling seed for cka")
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("gradcheck", help="finite-difference check of backprop")
    p.add_argument("--eps", type=_positive_float, default=1e-5)
    p.add_argument("--threshold", type=_positive_float, default=1e-5)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("convert-cora", help="convert a Planetoid-style raw dump (ind.<name>.*)")
    p.add_argument("--raw", required=True, help="directory containing ind.cora.* files")
    p.add_argument("--name", default="cora")
    p.add_argument("--row-normalize", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_convert_cora)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits with code 2
    except (graphio.DatasetFormatError, trainer.TrainingDiverged, FloatingPointError,
            RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
