"""Training orchestration: epoch loop with pseudo-label refresh, early
stopping on validation accuracy, multi-seed aggregation, and grid search.

Reproducibility contract: a run is fully determined by (dataset, config,
seed). Every random decision draws from a named substream of the master seed
(see seeding.py), each branch of the objective has its own dropout stream,
and all reductions are sequential, so repeated runs are bitwise identical.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from reachmix.graphalg import add_self_loops, from_edges, structural_degrees, sym_normalize
from reachmix.graphio import Dataset
from reachmix.mixup import (
    MixupConfig,
    TrainInputs,
    build_batches,
    build_pseudo_labels,
    compute_nld,
    loss_and_grads,
    prediction_label_matrix,
    sample_pairs,
    train_inputs,
)
from reachmix.nn import ModelParams, accuracy, adam_init, adam_step, gcn_forward, init_params, softmax
from reachmix.seeding import substream


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 64
    dropout: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4  # L2 on the first-layer weights, classic recipe
    max_epochs: int = 400
    patience: int = 100
    mixup_enabled: bool = False
    mixup: MixupConfig = field(default_factory=MixupConfig)
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not (1 <= self.patience <= self.max_epochs):
            raise ValueError("patience must lie in [1, max_epochs]")
        if len(self.seeds) == 0:
            raise ValueError("need at least one seed")

    def to_dict(self) -> dict:
        blob = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "mixup":
                blob[f.name] = value.to_dict()
            elif f.name == "seeds":
                blob[f.name] = list(value)
            else:
                blob[f.name] = value
        return blob

    @classmethod
    def from_dict(cls, blob: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(blob) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        kwargs = dict(blob)
        if "mixup" in kwargs and isinstance(kwargs["mixup"], dict):
            kwargs["mixup"] = MixupConfig.from_dict(kwargs["mixup"])
        return cls(**kwargs)


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    total: float
    supervised: float
    intra: float
    inter: float
    val_acc: float
    seconds: float  # wall clock; excluded from deterministic outputs


@dataclass(frozen=True)
class TrainOutcome:
    params: ModelParams  # best-validation checkpoint
    history: list[EpochRecord]
    best_val_acc: float
    best_epoch: int
    test_acc: float | None
    stopped_epoch: int


@dataclass(frozen=True)
class RunResult:
    seeds: tuple[int, ...]
    test_accs: np.ndarray
    mean: float
    std: float  # population std over seeds, matching mean +- std reporting
    sem: float  # std / sqrt(n)
    best_val_accs: np.ndarray
    outcomes: list[TrainOutcome]


def build_operators(dataset: Dataset):
    """(A with self-loops, normalized A, structural degrees) for a dataset."""
    a = add_self_loops(from_edges(dataset.num_nodes, dataset.edges))
    return a, sym_normalize(a), structural_degrees(a)


def evaluate(params: ModelParams, inputs: TrainInputs, a_norm, ids) -> tuple[float, np.ndarray]:
    """Eval-mode accuracy on ``ids``, and the logits of every node."""
    logits, _ = gcn_forward(inputs.features, a_norm, params)
    return accuracy(logits, inputs.dataset.labels, ids), logits


def _due(epoch: int, warmup: int, every: int) -> bool:
    return epoch >= warmup and (epoch - warmup) % every == 0


def train_one(
    dataset: Dataset,
    cfg: TrainConfig,
    seed: int,
    eval_test: bool = True,
    on_refresh=None,
) -> TrainOutcome:
    """Train a single model; returns the best-validation checkpoint and metrics.

    The mixup path refreshes pseudo-labels / NLD every ``refresh_every``
    epochs after warm-up and resamples pairs every ``pair_resample_every``
    (default: together with the refresh). ``on_refresh(epoch, dpl, pairs,
    batches)`` is invoked after each resample, for inspection hooks. A
    refresh reads the eval-mode logits of the previous epoch's validation
    pass, which were computed from the same parameters.
    """
    a_loops, a_norm, degrees = build_operators(dataset)
    inputs = train_inputs(dataset)
    params = init_params(dataset.num_features, cfg.hidden, dataset.num_classes, substream(seed, "init"))
    state = adam_init(params, cfg.lr, weight_decay={"w1": cfg.weight_decay})
    rngs = {
        "gnn": substream(seed, "dropout/gnn"),
        "intra": substream(seed, "dropout/intra"),
        "inter": substream(seed, "dropout/inter"),
    }
    rng_pairs = substream(seed, "pairs")
    rng_lam = substream(seed, "lambda")

    mix_cfg = cfg.mixup
    resample_every = mix_cfg.pair_resample_every or mix_cfg.refresh_every
    valid_ids = dataset.split.valid_ids
    if valid_ids.size == 0:
        raise ValueError("training requires a non-empty validation set")

    best_val = -1.0
    best_epoch = -1
    best_params = params.copy()
    since_best = 0
    history: list[EpochRecord] = []
    batches = None
    dpl = None
    nld = None
    logits = None  # eval-mode logits of the current params
    stopped = cfg.max_epochs - 1

    for epoch in range(cfg.max_epochs):
        t0 = time.perf_counter()
        if cfg.mixup_enabled:
            if _due(epoch, mix_cfg.warmup_epochs, mix_cfg.refresh_every):
                if logits is None:
                    logits, _ = gcn_forward(inputs.features, a_norm, params)
                probs = softmax(logits)
                dpl = build_pseudo_labels(probs, dataset.split.labeled_ids, mix_cfg.gamma)
                ybar = prediction_label_matrix(probs, dataset.labels, dataset.split.labeled_ids)
                nld = compute_nld(a_loops, ybar, include_self=mix_cfg.nld_include_self)
            if dpl is not None and _due(epoch, mix_cfg.warmup_epochs, resample_every):
                pairs = sample_pairs(
                    dataset.split.labeled_ids, dpl, nld, mix_cfg, degrees, rng_pairs, rng_lam
                )
                batches = build_batches(inputs, pairs, a_loops)
                if on_refresh is not None:
                    on_refresh(epoch, dpl, pairs, batches)

        try:
            parts, grads = loss_and_grads(
                params, inputs, a_norm, batches, mix_cfg,
                dropout=cfg.dropout, train=True, rngs=rngs,
            )
        except FloatingPointError as exc:
            raise TrainingDiverged(f"epoch {epoch}: {exc}") from exc
        if not np.isfinite(parts.total):
            raise TrainingDiverged(f"epoch {epoch}: loss is {parts.total}")
        adam_step(params, grads, state)

        val_acc, logits = evaluate(params, inputs, a_norm, valid_ids)
        history.append(
            EpochRecord(epoch, parts.total, parts.supervised, parts.intra, parts.inter,
                        val_acc, time.perf_counter() - t0)
        )
        if val_acc > best_val:
            best_val = val_acc
            best_epoch = epoch
            best_params = params.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                stopped = epoch
                break
    else:
        stopped = cfg.max_epochs - 1

    test_acc = evaluate(best_params, inputs, a_norm, dataset.split.test_ids)[0] if eval_test else None
    return TrainOutcome(best_params, history, best_val, best_epoch, test_acc, stopped)


def train_multi(dataset: Dataset, cfg: TrainConfig, eval_test: bool = True) -> RunResult:
    """Independent run per seed; aggregates test accuracy as mean / std / sem."""
    outcomes = [train_one(dataset, cfg, seed, eval_test=eval_test) for seed in cfg.seeds]
    best_vals = np.array([o.best_val_acc for o in outcomes])
    if eval_test:
        accs = np.array([o.test_acc for o in outcomes])
        mean = float(accs.mean())
        std = float(accs.std())  # population std (ddof=0)
        sem = float(std / np.sqrt(accs.size))
    else:
        accs = np.zeros(0)
        mean = std = sem = float("nan")
    return RunResult(cfg.seeds, accs, mean, std, sem, best_vals, outcomes)


def _set_config_field(blob: dict, dotted: str, value):
    parts = dotted.split(".")
    node = blob
    for key in parts[:-1]:
        node = node[key]
    if parts[-1] not in node:
        raise KeyError(f"unknown config field {dotted!r}")
    node[parts[-1]] = value


def apply_grid_point(cfg: TrainConfig, assignment: dict) -> TrainConfig:
    """New config with dotted fields (e.g. "mixup.gamma") overridden."""
    blob = cfg.to_dict()
    for dotted, value in assignment.items():
        _set_config_field(blob, dotted, value)
    return TrainConfig.from_dict(blob)


def _sweep_point(args):
    dataset, cfg_blob, assignment = args
    cfg = apply_grid_point(TrainConfig.from_dict(cfg_blob), assignment)
    result = train_multi(dataset, cfg, eval_test=False)
    vals = result.best_val_accs
    return {
        **assignment,
        "mean_val_acc": float(vals.mean()),
        "std_val_acc": float(vals.std()),
    }


def grid_search(dataset: Dataset, base_cfg: TrainConfig, grids: dict[str, list], jobs: int = 1):
    """Exhaustive Cartesian sweep; selects by mean validation accuracy.

    ``grids`` maps dotted config fields to candidate values. Ties break to the
    first point in product order (grids iterate in insertion order), so the
    result is deterministic. Model selection never touches test labels; run
    ``train_multi`` on the returned config for the one test evaluation.

    Returns (best_config, sweep_rows) with one row dict per grid point.
    """
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ValueError("grids must be non-empty")
    names = list(grids.keys())
    points = [dict(zip(names, combo)) for combo in itertools.product(*grids.values())]
    work = [(dataset, base_cfg.to_dict(), pt) for pt in points]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, work))  # map preserves submission order
    else:
        rows = [_sweep_point(w) for w in work]
    best_idx = 0
    for i, row in enumerate(rows):
        if row["mean_val_acc"] > rows[best_idx]["mean_val_acc"]:
            best_idx = i
    best_cfg = apply_grid_point(base_cfg, points[best_idx])
    return best_cfg, rows

