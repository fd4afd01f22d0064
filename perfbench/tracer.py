"""Spans and counts recorded from outside the program.

The benchmark replaces public functions in the namespaces of the modules
that call them (``reachmix.mixup.gcn_forward``, ``reachmix.nn.matmul_dense``,
...) with wrappers that record a span: name, start, end and parent. Nothing
under ``src/`` changes. A span's self time is its duration minus the time
its child spans cover; children never overlap because the program runs one
thread in the benchmark's process.
"""

from __future__ import annotations

import contextlib
import inspect
import time

from reachmix import cli, diagnostics, graphalg, graphio, mixup, nn, trainer


def _features_bytes(features) -> int:
    """In-memory size of a feature matrix, dense or scipy-sparse."""
    if hasattr(features, "indptr"):
        return int(features.data.nbytes + features.indices.nbytes + features.indptr.nbytes)
    return int(features.nbytes)


_GCN_SIGNATURE = inspect.signature(nn.gcn_forward)


def _forward_mode(args, kwargs, result):
    bound = _GCN_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    return {"train": bool(bound.arguments["train"])}


def _matmul_flops(args, kwargs, result):
    g = args[0] if args else kwargs["g"]
    return {"flops": 2 * g.nnz * result.shape[1]}


def _pseudo_labels(args, kwargs, result):
    probs = args[0] if args else kwargs["probs"]
    labeled = args[1] if len(args) > 1 else kwargs["labeled_ids"]
    return {"pseudo": len(result), "unlabeled": probs.shape[0] - len(labeled)}


def _pair_counts(args, kwargs, result):
    return {"intra": int(result.intra_targets.size), "inter": int(result.inter_targets.size)}


def _loaded(args, kwargs, result):
    return {"features_bytes": _features_bytes(result.features)}


# (module, attribute, span name, info) for every wrapped call site. ``info``
# reads counts off the arguments and return value after the span has ended.
CALL_SITES = [
    (graphio, "save_dataset", "graphio.save_dataset", None),
    (cli, "load_dataset", "graphio.load_dataset", _loaded),
    (cli, "dataset_fingerprint", "cli.dataset_fingerprint", None),
    (nn, "save_params", "nn.save_params", None),
    (nn, "matmul_dense", "graphalg.matmul_dense", _matmul_flops),
    (graphalg, "bfs_distances", "graphalg.bfs_distances", None),
    (trainer, "train_one", "trainer.train_one", None),
    (trainer, "build_operators", "trainer.build_operators", None),
    (trainer, "sym_normalize", "graphalg.sym_normalize", None),
    (trainer, "init_params", "nn.init_params", None),
    (trainer, "adam_init", "nn.adam_init", None),
    (trainer, "predict_probs", "mixup.predict_probs", None),
    (trainer, "build_pseudo_labels", "mixup.build_pseudo_labels", _pseudo_labels),
    (trainer, "prediction_label_matrix", "mixup.prediction_label_matrix", None),
    (trainer, "compute_nld", "mixup.compute_nld", None),
    (trainer, "sample_pairs", "mixup.sample_pairs", _pair_counts),
    (trainer, "build_batches", "mixup.build_batches", None),
    (trainer, "loss_and_grads", "mixup.loss_and_grads", None),
    (trainer, "adam_step", "nn.adam_step", None),
    (trainer, "evaluate", "trainer.evaluate", None),
    (trainer, "gcn_forward", "nn.gcn_forward", _forward_mode),
    (mixup, "gcn_forward", "nn.gcn_forward", _forward_mode),
    (mixup, "backward", "nn.backward", None),
    (mixup, "mlp_forward", "nn.mlp_forward", None),
    (mixup, "mix_adjacency", "graphalg.mix_adjacency", None),
    (mixup, "sym_normalize", "graphalg.sym_normalize", None),
    (diagnostics, "reaching_coefficient", "diagnostics.reaching_coefficient", None),
    (diagnostics, "avg_sp_by_degree", "diagnostics.avg_sp_by_degree", None),
    (diagnostics, "cka_by_bucket", "diagnostics.cka_by_bucket", None),
    (diagnostics, "pearson_rc_vs_score", "diagnostics.pearson_rc_vs_score", None),
    (diagnostics, "diameter_and_components", "graphalg.diameter_and_components", None),
    (diagnostics, "bfs_distances", "graphalg.bfs_distances", None),
    (diagnostics, "gcn_forward", "nn.gcn_forward", _forward_mode),
    (diagnostics, "sym_normalize", "graphalg.sym_normalize", None),
]

# Spans that make up one refresh of the mixup engine.
REFRESH_SPANS = ("mixup.predict_probs", "mixup.build_pseudo_labels", "mixup.prediction_label_matrix",
                 "mixup.compute_nld", "mixup.sample_pairs", "mixup.build_batches")


class Tracer:
    """Holds spans ``[name, start, end, parent, info]`` in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wraps every call site for the duration of the block. A call site
        the program no longer has is skipped, and its metrics read 0."""
        saved = []
        try:
            for module, attr, name, info in CALL_SITES:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(name, fn, info))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def write_tsv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def _total(tracer, names) -> float:
    return sum(span[2] - span[1] for span in tracer.spans if span[0] in names)


def _infos(tracer, name) -> list[dict]:
    return [span[4] for span in tracer.spans if span[0] == name]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# name -> (unit, better). Times are self times in seconds unless the
# README says otherwise; every value covers one traced set-up plus one
# traced repetition of the workload's commands.
PER_LAYER = {
    "graphio.load_dataset_s": ("s", "lower"),
    "graphio.save_dataset_s": ("s", "lower"),
    "graphio.features_bytes": ("B", "lower"),
    "graphalg.matmul_dense_s": ("s", "lower"),
    "graphalg.matmul_dense_calls": ("count", "lower"),
    "graphalg.matmul_dense_flops": ("flop", "lower"),
    "graphalg.mix_adjacency_s": ("s", "lower"),
    "graphalg.sym_normalize_s": ("s", "lower"),
    "graphalg.bfs_distances_s": ("s", "lower"),
    "graphalg.bfs_distances_calls": ("count", "lower"),
    "graphalg.diameter_and_components_s": ("s", "lower"),
    "nn.gcn_forward_s": ("s", "lower"),
    "nn.backward_s": ("s", "lower"),
    "nn.mlp_forward_s": ("s", "lower"),
    "nn.eval_forward_s": ("s", "lower"),
    "nn.adam_step_s": ("s", "lower"),
    "nn.save_params_s": ("s", "lower"),
    "mixup.loss_and_grads_s": ("s", "lower"),
    "mixup.refresh_s": ("s", "lower"),
    "mixup.predict_probs_s": ("s", "lower"),
    "mixup.compute_nld_s": ("s", "lower"),
    "mixup.sample_pairs_s": ("s", "lower"),
    "mixup.build_batches_s": ("s", "lower"),
    "mixup.refreshes": ("count", "higher"),
    "mixup.pseudo_label_frac": ("ratio", "higher"),
    "mixup.intra_pairs": ("count", "higher"),
    "mixup.inter_pairs": ("count", "higher"),
    "mixup.refresh_with_pairs_frac": ("ratio", "higher"),
    "trainer.epochs": ("count", "higher"),
    "trainer.build_operators_s": ("s", "lower"),
    "trainer.train_one_coverage": ("ratio", "higher"),
    "diagnostics.reaching_coefficient_s": ("s", "lower"),
    "diagnostics.avg_sp_by_degree_s": ("s", "lower"),
    "diagnostics.cka_by_bucket_s": ("s", "lower"),
    "diagnostics.pearson_rc_vs_score_s": ("s", "lower"),
    "cli.dataset_fingerprint_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the recorded spans; 0 where a layer
    did no work on this workload."""
    selftimes = tracer.self_times()

    def self_sum(name, where=None):
        return sum(t for span, t in zip(tracer.spans, selftimes)
                   if span[0] == name and (where is None or where(span[4])))

    pseudo = _infos(tracer, "mixup.build_pseudo_labels")
    pairs = _infos(tracer, "mixup.sample_pairs")
    loads = _infos(tracer, "graphio.load_dataset")
    matmuls = _infos(tracer, "graphalg.matmul_dense")
    train_one = [i for i, span in enumerate(tracer.spans) if span[0] == "trainer.train_one"]
    train_one_total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in train_one)
    train_one_self = sum(selftimes[i] for i in train_one)
    values = {
        "graphio.load_dataset_s": self_sum("graphio.load_dataset"),
        "graphio.save_dataset_s": self_sum("graphio.save_dataset"),
        "graphio.features_bytes": loads[-1]["features_bytes"] if loads else 0,
        "graphalg.matmul_dense_s": self_sum("graphalg.matmul_dense"),
        "graphalg.matmul_dense_calls": len(matmuls),
        "graphalg.matmul_dense_flops": sum(m["flops"] for m in matmuls),
        "graphalg.mix_adjacency_s": self_sum("graphalg.mix_adjacency"),
        "graphalg.sym_normalize_s": self_sum("graphalg.sym_normalize"),
        "graphalg.bfs_distances_s": self_sum("graphalg.bfs_distances"),
        "graphalg.bfs_distances_calls": len(_infos(tracer, "graphalg.bfs_distances")),
        "graphalg.diameter_and_components_s": self_sum("graphalg.diameter_and_components"),
        "nn.gcn_forward_s": self_sum("nn.gcn_forward", lambda info: info["train"]),
        "nn.backward_s": self_sum("nn.backward"),
        "nn.mlp_forward_s": self_sum("nn.mlp_forward"),
        "nn.eval_forward_s": self_sum("nn.gcn_forward", lambda info: not info["train"]),
        "nn.adam_step_s": self_sum("nn.adam_step"),
        "nn.save_params_s": self_sum("nn.save_params"),
        "mixup.loss_and_grads_s": self_sum("mixup.loss_and_grads"),
        "mixup.refresh_s": _total(tracer, REFRESH_SPANS),
        "mixup.predict_probs_s": self_sum("mixup.predict_probs"),
        "mixup.compute_nld_s": self_sum("mixup.compute_nld"),
        "mixup.sample_pairs_s": self_sum("mixup.sample_pairs"),
        "mixup.build_batches_s": self_sum("mixup.build_batches"),
        "mixup.refreshes": len(pseudo),
        "mixup.pseudo_label_frac": _ratio(sum(p["pseudo"] for p in pseudo),
                                          sum(p["unlabeled"] for p in pseudo)),
        "mixup.intra_pairs": sum(p["intra"] for p in pairs),
        "mixup.inter_pairs": sum(p["inter"] for p in pairs),
        "mixup.refresh_with_pairs_frac": _ratio(sum(1 for p in pairs if p["intra"] + p["inter"]),
                                                len(pseudo)),
        "trainer.epochs": len(_infos(tracer, "nn.adam_step")),
        "trainer.build_operators_s": self_sum("trainer.build_operators"),
        "trainer.train_one_coverage": _ratio(train_one_total - train_one_self, train_one_total),
        "diagnostics.reaching_coefficient_s": self_sum("diagnostics.reaching_coefficient"),
        "diagnostics.avg_sp_by_degree_s": self_sum("diagnostics.avg_sp_by_degree"),
        "diagnostics.cka_by_bucket_s": self_sum("diagnostics.cka_by_bucket"),
        "diagnostics.pearson_rc_vs_score_s": self_sum("diagnostics.pearson_rc_vs_score"),
        "cli.dataset_fingerprint_s": self_sum("cli.dataset_fingerprint"),
        "trace.overhead_s": overhead_s,
    }
    assert values.keys() == PER_LAYER.keys()
    return values
