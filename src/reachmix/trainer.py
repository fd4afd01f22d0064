"""Training orchestration: epoch loop with pseudo-label refresh, early
stopping on validation accuracy, multi-seed aggregation, and grid search.

Reproducibility contract: a run is fully determined by (dataset, config,
seed). Every random decision draws from a named substream of the master seed
(see seeding.py), each branch of the objective has its own dropout stream,
and all reductions are sequential, so repeated runs are bitwise identical.
Each seed trains with BLAS held to one thread (``nn.one_blas_thread``), so
its bytes do not depend on the machine's core count either.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor, wait
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
    config_kwargs,
    loss_and_grads,
    one_hot,
    prediction_label_matrix,
    sample_pairs,
)
from reachmix.nn import (
    ModelParams,
    accuracy,
    adam_init,
    adam_step,
    as_csr,
    gcn_forward,
    init_params,
    one_blas_thread,
    softmax,
)
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
        repeated = [s for s, count in Counter(self.seeds).items() if count > 1]
        if repeated:
            raise ValueError(f"seeds must be distinct; seed {repeated[0]} is listed more than once")

    def to_dict(self) -> dict:
        blob = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**blob, "mixup": self.mixup.to_dict(), "seeds": list(self.seeds)}

    @classmethod
    def from_dict(cls, blob: dict) -> "TrainConfig":
        kwargs = config_kwargs(cls, blob)
        if "mixup" in kwargs:
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


@dataclass(frozen=True)
class RunResult:
    test_accs: np.ndarray
    mean: float
    std: float  # population std over seeds, matching mean +- std reporting
    sem: float  # std / sqrt(n)
    best_val_accs: np.ndarray
    outcomes: list[TrainOutcome]


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def build_operators(dataset: Dataset) -> TrainInputs:
    """The command's one ``TrainInputs``: everything an epoch reads of
    ``dataset``, from the CSR features and one-hot labels to A + I, A_hat and
    the structural degrees. Read-only, so every seed can share it."""
    a = add_self_loops(from_edges(dataset.num_nodes, dataset.edges))
    features = as_csr(dataset.features)
    y_hot = one_hot(dataset.labels, dataset.num_classes)
    weights = np.zeros(dataset.num_nodes)
    weights[dataset.split.labeled_ids] = 1.0
    degrees = structural_degrees(a)
    for arr in (features.data, features.indices, features.indptr, y_hot, weights, degrees):
        arr.setflags(write=False)
    return TrainInputs(dataset.labels, dataset.split, features, y_hot, weights, a, sym_normalize(a), degrees)


def evaluate(params: ModelParams, inputs: TrainInputs, ids) -> tuple[float, np.ndarray]:
    """Eval-mode accuracy on ``ids``, and the logits of every node, from the
    GCN over ``inputs.a_norm``."""
    logits, _ = gcn_forward(inputs.features, inputs.a_norm, params)
    return accuracy(logits, inputs.labels, ids), logits


def _due(epoch: int, warmup: int, every: int) -> bool:
    return epoch >= warmup and (epoch - warmup) % every == 0


def train_one(
    inputs: TrainInputs,
    cfg: TrainConfig,
    seed: int,
    eval_test: bool = True,
    on_refresh=None,
) -> TrainOutcome:
    """Train one model on the command's shared ``build_operators`` inputs;
    returns the best-validation checkpoint and metrics.

    With mixup enabled, every ``refresh_every`` epochs after warm-up one
    refresh runs the whole chain: pseudo-labels, NLD, pair sampling and the
    mixed batches, which the following epochs train on until the next
    refresh. ``on_refresh(epoch, dpl, pairs, batches)`` is invoked after each
    refresh, for inspection hooks. A refresh reads the eval-mode logits of
    the previous epoch's validation pass, which were computed from the same
    parameters.
    """
    params = init_params(inputs.features.shape[1], cfg.hidden, inputs.y_hot.shape[1], substream(seed, "init"))
    state = adam_init(params, cfg.lr, weight_decay={"w1": cfg.weight_decay})
    rngs = {
        "gnn": substream(seed, "dropout/gnn"),
        "intra": substream(seed, "dropout/intra"),
        "inter": substream(seed, "dropout/inter"),
    }
    rng_pairs = substream(seed, "pairs")
    rng_lam = substream(seed, "lambda")

    mix_cfg = cfg.mixup
    labeled_ids = inputs.split.labeled_ids
    valid_ids = inputs.split.valid_ids
    if valid_ids.size == 0:
        raise ValueError("training requires a non-empty validation set")

    best_val = -1.0
    best_epoch = -1
    best_params = params.copy()
    since_best = 0
    history: list[EpochRecord] = []
    batches = None
    logits = None  # eval-mode logits of the current params

    with one_blas_thread():
        for epoch in range(cfg.max_epochs):
            t0 = time.perf_counter()
            if cfg.mixup_enabled and _due(epoch, mix_cfg.warmup_epochs, mix_cfg.refresh_every):
                if logits is None:
                    logits, _ = gcn_forward(inputs.features, inputs.a_norm, params)
                probs = softmax(logits)
                dpl = build_pseudo_labels(probs, labeled_ids, mix_cfg.gamma)
                ybar = prediction_label_matrix(probs, inputs.labels, labeled_ids)
                nld = compute_nld(inputs.adjacency, ybar)
                pairs = sample_pairs(labeled_ids, dpl, nld, mix_cfg, inputs.degrees, rng_pairs, rng_lam)
                batches = build_batches(inputs, pairs)
                if on_refresh is not None:
                    on_refresh(epoch, dpl, pairs, batches)

            try:
                # A non-finite value anywhere in the step raises here, naming
                # the seed and epoch, instead of printing a numpy warning.
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    parts, grads = loss_and_grads(
                        params, inputs, batches, mix_cfg, dropout=cfg.dropout, train=True, rngs=rngs,
                    )
                    if not np.isfinite(parts.total):
                        raise FloatingPointError(f"loss is {parts.total}")
                    adam_step(params, grads, state)
                    val_acc, logits = evaluate(params, inputs, valid_ids)
            except FloatingPointError as exc:
                raise TrainingDiverged(f"seed {seed}, epoch {epoch}: training diverged ({exc})") from exc
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
                    break

        test_acc = evaluate(best_params, inputs, inputs.split.test_ids)[0] if eval_test else None
    return TrainOutcome(best_params, history, best_val, best_epoch, test_acc)


def train_multi(dataset: Dataset, cfg: TrainConfig) -> RunResult:
    """Independent run per seed, all on one ``build_operators``; aggregates
    test accuracy as mean / std / sem.

    The seeds train concurrently on min(seeds, usable cores) threads while
    BLAS is held to one thread (``nn.one_blas_thread``). They share only
    the read-only inputs and each draws from its own substreams, so every
    outcome is the one a serial run gives. Where BLAS cannot be pinned, the
    seeds run one after another on one thread. Outcomes come back in seed
    order; every seed runs to its end, and the first failure in seed order
    is raised. An interrupt starts no further seed.
    """
    inputs = build_operators(dataset)
    with one_blas_thread() as pinned:
        workers = min(len(cfg.seeds), _usable_cores()) if pinned else 1
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(train_one, inputs, cfg, seed) for seed in cfg.seeds]
            try:
                wait(futures)
            except BaseException:  # an interrupt: start no further seed, let the running ones end
                pool.shutdown(cancel_futures=True)
                raise
    failures = [exc for exc in (f.exception() for f in futures) if exc is not None]
    if failures:
        raise failures[0]
    outcomes = [f.result() for f in futures]
    accs = np.array([o.test_acc for o in outcomes])
    std = float(accs.std())  # population std (ddof=0)
    best_vals = np.array([o.best_val_acc for o in outcomes])
    return RunResult(accs, float(accs.mean()), std, float(std / np.sqrt(accs.size)), best_vals, outcomes)


def _set_config_field(blob: dict, dotted: str, value):
    *path, last = dotted.split(".")
    node = blob
    for key in path:
        node = node.get(key) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise ValueError(f"unknown config field {dotted!r}")
    node[last] = value


def apply_grid_point(cfg: TrainConfig, assignment: dict) -> TrainConfig:
    """New config with dotted fields (e.g. "mixup.gamma") overridden; an
    unknown field or a value of the wrong type raises ValueError."""
    blob = cfg.to_dict()
    for dotted, value in assignment.items():
        _set_config_field(blob, dotted, value)
    return TrainConfig.from_dict(blob)


def _sweep_point(args):
    inputs, base_cfg, assignment = args
    cfg = apply_grid_point(base_cfg, assignment)
    vals = np.array([train_one(inputs, cfg, seed, eval_test=False).best_val_acc for seed in cfg.seeds])
    return {
        **assignment,
        "mean_val_acc": float(vals.mean()),
        "std_val_acc": float(vals.std()),
    }


def grid_points(base_cfg: TrainConfig, grids: dict[str, list]) -> list[dict]:
    """Every assignment of the grid in product order (grids iterate in insertion
    order); a bad field or value in any point raises ValueError here."""
    if not grids or any(len(v) == 0 for v in grids.values()):
        raise ValueError("grids must be non-empty")
    points = [dict(zip(grids, combo)) for combo in itertools.product(*grids.values())]
    for point in points:
        apply_grid_point(base_cfg, point)
    return points


def grid_search(dataset: Dataset, base_cfg: TrainConfig, grids: dict[str, list], jobs: int = 1):
    """Exhaustive Cartesian sweep; selects by mean validation accuracy.

    ``grids`` maps dotted config fields to candidate values. Ties break to the
    first point in product order (see ``grid_points``), so the result is
    deterministic. Model selection never touches test labels; run
    ``train_multi`` on the returned config for the one test evaluation.

    Returns (best_config, sweep_rows) with one row dict per grid point.
    """
    points = grid_points(base_cfg, grids)
    inputs = build_operators(dataset)
    work = [(inputs, base_cfg, pt) for pt in points]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_point, work))  # map preserves submission order
    else:
        rows = [_sweep_point(w) for w in work]
    best_idx = max(range(len(rows)), key=lambda i: rows[i]["mean_val_acc"])  # the first of equals
    best_cfg = apply_grid_point(base_cfg, points[best_idx])
    return best_cfg, rows

