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
import functools
import json
import os
import subprocess
import sys
import time
from fnmatch import fnmatch

import numpy as np

import reachmix
from reachmix import diagnostics, graphio, mixup, nn, trainer
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
        seeds = [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad seed list {text!r}") from None
    if not seeds:
        raise UsageError("need at least one seed")
    return seeds


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


@functools.cache
def _git_describe() -> str | None:
    """The checkout the running package comes from, whatever the caller's
    working directory; None outside a git checkout. Asked once per process:
    the code that runs is fixed when it is imported, so every manifest of
    the process records the same answer."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(reachmix.__file__)),
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def prepare_outdir(path: str, force: bool, create: bool = True) -> None:
    """Refuse an existing ``path`` that is not a directory, and an existing
    directory without ``force``; else create it unless ``create`` is False.
    Every command creates ``--out`` once its results exist, so a failure
    leaves none; ``train`` and ``sweep`` also check it with ``create=False``
    before they train."""
    if os.path.exists(path):
        if not os.path.isdir(path):
            raise RuntimeError(f"--out {path!r} exists and is not a directory")
        if not force:
            raise RuntimeError(f"output directory {path!r} exists; pass --force to overwrite")
    elif create:
        os.makedirs(path)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    value = value.item() if isinstance(value, np.generic) else value
    return json.dumps(value) if isinstance(value, bool) else repr(value)


def _column(values) -> list[str]:
    """The cells of one column, each as ``_cell`` writes it. An array column
    becomes Python scalars in one ``tolist``; a column of only ints and
    floats, or only strings, takes one type test for the whole column."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    kinds = set(map(type, values))
    if kinds <= {int, float}:
        return list(map(repr, values))
    if kinds == {str}:
        return list(values)
    return list(map(_cell, values))


def write_tsv(path, columns: dict) -> None:
    """A run table from ``columns``, name -> values, all of one length: a
    header line of the names, then one tab-separated line per row. A string
    cell is written verbatim, a bool as JSON ``true``/``false`` (the form
    ``--grid`` reads), and a number as the repr of its Python scalar (numpy
    scalars via ``.item()``), so it reads back with int() or float()
    exactly."""
    cells = [_column(values) for values in columns.values()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(columns) + "\n")
        fh.writelines(f"{line}\n" for line in map("\t".join, zip(*cells, strict=True)))


def write_json(path, blob) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(blob, fh, indent=1)
        fh.write("\n")


def write_manifest(outdir, command: str, config: dict, dataset: tuple[str, str] | None = None) -> None:
    """The run's one manifest.json. ``dataset`` is the pair (directory,
    fingerprint) of the dataset the command read or wrote: for a command
    that loaded it, ``Dataset.fingerprint``, the digest of the bytes it
    loaded; for one that wrote it, ``dataset_fingerprint`` of the files."""
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
    """The config file's ``TrainConfig``, or the defaults without one. A
    fault in the file raises a ValueError that names it, and a JSON syntax
    error its line too."""
    if path is None:
        return TrainConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return TrainConfig.from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    blob["out"] = os.path.abspath(args.out)
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
    trainer.check_split(dataset.split)  # before training, as every run would refuse it
    prepare_outdir(args.out, args.force, create=False)
    result = train_multi(dataset, cfg)
    prepare_outdir(args.out, args.force)  # only now, so a run that fails leaves no --out
    for name in os.listdir(args.out):  # a forced run's per-seed files replace the previous run's
        if fnmatch(name, "metrics_seed*.tsv") or fnmatch(name, "checkpoint_seed*.txt"):
            os.remove(os.path.join(args.out, name))
    for seed, outcome in zip(cfg.seeds, result.outcomes):
        write_tsv(os.path.join(args.out, f"metrics_seed{seed}.tsv"),
                  {name: [getattr(r, name) for r in outcome.history]
                   for name in ("epoch", "total", "supervised", "intra", "inter", "val_acc")})
        nn.save_params(os.path.join(args.out, f"checkpoint_seed{seed}.txt"), outcome.params)
    runs = [(seed, r) for seed, o in zip(cfg.seeds, result.outcomes) for r in o.history]
    write_tsv(os.path.join(args.out, "timings.tsv"), {"seed": [seed for seed, _ in runs],
                                                      "epoch": [r.epoch for _, r in runs],
                                                      "seconds": [r.seconds for _, r in runs]})
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
    return grids


def cmd_sweep(args) -> int:
    cfg = _config_with_overrides(args)
    args.data = resolve_data_dir(args.data)
    dataset = load_dataset(args.data)
    grids = _parse_grid(args.grid)
    trainer.grid_points(cfg, grids)  # every point's config is valid before any run
    trainer.check_split(dataset.split, eval_test=False)
    prepare_outdir(args.out, args.force, create=False)
    best_cfg, rows = trainer.grid_search(dataset, cfg, grids)
    prepare_outdir(args.out, args.force)  # only now, so a run that fails leaves no --out
    columns = list(grids) + ["mean_val_acc", "std_val_acc"]
    ranked = sorted(rows, key=lambda r: -r["mean_val_acc"])
    write_tsv(os.path.join(args.out, "sweep.tsv"), {k: [row[k] for row in ranked] for k in columns})
    write_json(os.path.join(args.out, "best.json"), best_cfg.to_dict())
    write_manifest(args.out, "sweep", {"base": cfg.to_dict(), "grids": grids}, (args.data, dataset.fingerprint))
    best = ranked[0]
    print(f"swept {len(rows)} configurations; best mean_val_acc={best['mean_val_acc']:.4f}")
    print(f"best config written to {os.path.join(args.out, 'best.json')}")
    return 0


def cmd_diagnose(args) -> int:
    """Reach is measured on A: the BFS ignores self-loops and the structural
    degrees exclude them. Every kind reads the labeled-set hop distances and
    the exact diameter from the dataset's ``.reach.cache`` under its
    fingerprint, so only the first command on a dataset's content runs the
    BFS, and leaves them there. Only ``cka`` and ``pearson`` build the model
    inputs, once, with ``trainer.build_operators``, after checking that the
    checkpoint's F and C fit the dataset and that its values are finite, and
    round the checkpoint to the inputs' dtype, refusing a value beyond it."""
    needs_model = args.kind in ("cka", "pearson")
    if needs_model and not args.checkpoint:
        raise UsageError(f"diagnose {args.kind} needs --checkpoint")
    params = nn.load_params(args.checkpoint) if needs_model else None
    args.data = resolve_data_dir(args.data)
    dataset = load_dataset(args.data)
    if needs_model:
        if (params.w1.shape[0], params.w2.shape[1]) != (dataset.num_features, dataset.num_classes):
            raise ValueError(f"{args.checkpoint}: checkpoint has {params.w1.shape[0]} features and "
                             f"{params.w2.shape[1]} classes, dataset {args.data} has {dataset.num_features} "
                             f"and {dataset.num_classes}")
        inputs = trainer.build_operators(dataset)
        dtype = inputs.features.dtype
        for name, arr in params.as_dict().items():  # else the forward pass fails naming no file
            if not np.isfinite(arr).all():
                raise ValueError(f"{args.checkpoint}: parameter {name} holds a non-finite value")
            beyond = arr[np.abs(arr) > np.finfo(dtype).max]
            if beyond.size:
                raise ValueError(f"{args.checkpoint}: parameter {name} holds {float(beyond[0])!r}, "
                                 f"beyond the largest {dtype}")
        params = params.astype(dtype)
    g = from_edges(dataset.num_nodes, dataset.edges)
    labeled = dataset.split.labeled_ids
    cache = (args.data, dataset.fingerprint)

    # Each kind yields its table (column name -> values), its JSON summary
    # and the line printed on success.
    if args.kind == "rc":
        report = diagnostics.reaching_coefficient(g, labeled, cache)
        table = {"node": report.node_ids, "rc": report.rc, "min_dist": report.min_dist,
                 "mean_dist": report.mean_dist}
        summary = {
            "diameter": report.diameter,
            "num_unlabeled": int(report.node_ids.size),
            "rc_mean": float(report.rc.mean()),
            "rc_max": float(report.rc.max()),
        }
        line = f"rc: {report.node_ids.size} unlabeled nodes, diameter {report.diameter}"
    elif args.kind == "avgsp":
        report = diagnostics.avg_sp_by_degree(g, labeled, cache)
        table = {"degree": report.degrees, "avg_sp": report.avg_sp, "count": report.counts}
        summary = {"num_degrees": int(report.degrees.size), "global_mean_sp": float(report.node_avg_sp.mean())}
        line = f"avgsp: {report.degrees.size} degree groups"
    elif args.kind == "cka":
        buckets = diagnostics.rc_buckets(diagnostics.reaching_coefficient(g, labeled, cache))
        report = diagnostics.cka_by_bucket(params, inputs, buckets, args.seed)
        values = ["absent" if v is None else v for v in report.values]
        table = {"bucket": list(range(1, len(values) + 1)), "cka": values, "sample_size": report.sample_sizes}
        summary = {"seed": report.seed, "values": report.values, "sample_sizes": report.sample_sizes}
        line = "cka by bucket: " + " ".join(v if isinstance(v, str) else f"{v:.4f}" for v in values)
    else:  # pearson; argparse restricts the choices
        rc = diagnostics.reaching_coefficient(g, labeled, cache)
        r, scores = diagnostics.pearson_rc_vs_score(params, inputs, rc)
        table = {"node": rc.node_ids, "rc": rc.rc, "true_class_score": scores}
        summary = {"pearson_r": float(r), "n": int(scores.size)}
        line = f"pearson r={r:.4f} over {scores.size} unlabeled nodes"
    prepare_outdir(args.out, args.force)  # after the report, so a failed one leaves no --out
    write_tsv(os.path.join(args.out, f"{args.kind}.tsv"), table)
    write_json(os.path.join(args.out, f"{args.kind}_summary.json"), summary)
    write_manifest(args.out, f"diagnose {args.kind}", _args_blob(args), (args.data, dataset.fingerprint))
    print(line)
    return 0


def cmd_gradcheck(args) -> int:
    dataset = generate_sbm(
        num_classes=2, nodes_per_class=4, p_in=0.9, p_out=0.3,
        feature_dim=5, feature_noise=0.5, seed=args.seed,
        labels_per_class=2, valid_per_class=1,
    )
    params = nn.init_params(dataset.num_features, 6, dataset.num_classes, substream(args.seed, "gradcheck"))
    inputs = trainer.build_operators(dataset, dtype=np.float64)
    max_rel, checked, skipped = mixup.gradient_check(inputs, params, eps=args.eps)
    ok = max_rel < args.threshold
    print(f"{'PASS' if ok else 'FAIL'} max_rel_err={max_rel:.3e} checked={checked} skipped={skipped} eps={args.eps:g}")
    return 0 if ok else 1


def _convert_planetoid(raw_dir: str, name: str):
    """Read the pickled Planetoid dump (ind.<name>.*) into arrays.

    Best-effort convenience: the pickles hold scipy sparse feature blocks,
    which are densified here. Follows the standard split: first 20*C nodes train, next 500
    validation, the test index file as test.

    The files are read with ``pickle.load``, which can run code stored in
    them, so convert only dumps from a source you trust. A file that does
    not unpickle, a feature block (x, tx, allx) that is not a scipy sparse
    matrix, a label block (y, ty, ally) that is not a numpy array, a graph
    that is not a dict, and a test index that is not one distinct
    non-negative node id per row of tx raise ``ValueError`` naming the file.
    """
    import pickle

    from scipy.sparse import issparse

    def load_pickle(suffix, accepts, wanted):
        path = os.path.join(raw_dir, f"ind.{name}.{suffix}")
        with open(path, "rb") as fh:
            try:
                obj = pickle.load(fh, encoding="latin1")
            except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError) as exc:
                raise ValueError(f"{path}: not a readable pickle: {exc}") from None
        if not accepts(obj):
            raise ValueError(f"{path}: expected {wanted}, got {type(obj).__name__}")
        return obj

    sparse, dense = (issparse, "a scipy sparse matrix"), (lambda obj: isinstance(obj, np.ndarray), "a numpy array")
    x, y, tx, ty, allx, ally, graph = (load_pickle(suffix, *kind) for suffix, kind in (
        ("x", sparse), ("y", dense), ("tx", sparse), ("ty", dense), ("allx", sparse), ("ally", dense),
        ("graph", (lambda obj: isinstance(obj, dict), "a dict"))))
    index_path = os.path.join(raw_dir, f"ind.{name}.test.index")
    with open(index_path, encoding="utf-8") as fh:
        try:
            test_idx = np.array(fh.read().split(), dtype=np.int64)
        except (ValueError, OverflowError) as exc:  # not UTF-8 text, or a word that is no int64
            raise ValueError(f"{index_path}: {exc}") from None
    if (test_idx.shape != tx.shape[:1] or not test_idx.size or test_idx.min() < 0
            or np.unique(test_idx).size < test_idx.size):
        raise ValueError(f"{index_path}: expected {tx.shape[0]} distinct non-negative node ids, "
                         f"one per row of ind.{name}.tx")

    num_nodes = int(max(allx.shape[0] + tx.shape[0], test_idx.max() + 1, len(graph)))
    features = np.zeros((num_nodes, allx.shape[1]))
    features[: allx.shape[0]] = np.asarray(allx.todense())
    # tx row j belongs to the j-th line of test.index; ids absent from the
    # dump (isolated nodes in some graphs) keep zero rows.
    features[test_idx] = np.asarray(tx.todense())

    labels_hot = np.zeros((num_nodes, ally.shape[1]))
    labels_hot[: ally.shape[0]] = ally
    labels_hot[test_idx] = ty
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
        test_ids=np.sort(test_idx),
    )
    return features, labels, edges, split


def cmd_convert_cora(args) -> int:
    features, labels, edges, split = _convert_planetoid(args.raw, args.name)
    if args.row_normalize:
        sums = features.sum(axis=1, keepdims=True)
        features = np.divide(features, sums, out=np.zeros_like(features), where=sums > 0)
    dataset = graphio.Dataset(edges, features, labels, split)
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

    # Each flag that several commands take is declared once, in a parent.
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True)
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", default=None)
    run.add_argument("--seeds", default=None, help="e.g. 0..9 or 0,2,5")
    run.add_argument("--mixup", choices=("on", "off"), default=None, help="override config mixup_enabled")
    run.add_argument("--max-epochs", type=_int_at_least(1), default=None)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    out.add_argument("--force", action="store_true")

    p = sub.add_parser("synth", parents=[out], help="generate a stochastic-block-model dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--p-in", type=float, required=True)
    p.add_argument("--p-out", type=float, required=True)
    p.add_argument("--feature-dim", type=int, default=16)
    p.add_argument("--noise", type=float, default=1.0)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--labels-per-class", type=int, default=None)
    p.add_argument("--valid-per-class", type=int, default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", parents=[data, run, out], help="train over seeds and aggregate test accuracy")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", parents=[data, run, out], help="exhaustive grid search by validation accuracy")
    p.add_argument("--grid", action="append", required=True,
                   help="field=v1,v2 (repeatable), e.g. mixup.gamma=0.5,0.7,0.9")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("diagnose", parents=[data, out], help="reachability / alignment reports")
    p.add_argument("kind", choices=("rc", "cka", "avgsp", "pearson"))
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="sampling seed for cka")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("gradcheck", help="finite-difference check of backprop")
    p.add_argument("--eps", type=_positive_float, default=1e-5)
    p.add_argument("--threshold", type=_positive_float, default=1e-5)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("convert-cora", parents=[out], help="convert a Planetoid-style raw dump (ind.<name>.*)")
    p.add_argument("--raw", required=True, help="directory containing ind.cora.* files")
    p.add_argument("--name", default="cora")
    p.add_argument("--row-normalize", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=cmd_convert_cora)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits with code 2
    except (ValueError, RuntimeError, FloatingPointError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
