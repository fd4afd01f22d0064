"""The node-mixup training engine.

Pipeline per refresh: predict class probabilities in eval mode, keep
confident unlabeled nodes as pseudo-labeled candidates, compute each node's
neighborhood label distribution (NLD), then for every labeled node sample one
same-class and one different-class partner with probability proportional to a
weight that favors similar neighbor patterns (same class), dissimilar ones
(different class), and low-degree candidates in both cases. Same-class pairs
mix features, labels, and adjacency rows/columns; different-class pairs mix
features and labels only and are trained through the MLP path (identity
adjacency), which blocks message passing between them.

The combined objective is
    L = L_sup + lambda_intra * L_intra + lambda_inter * L_inter
where L_sup is the ordinary masked cross-entropy on labeled nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np
from scipy.sparse import csr_array

from reachmix.graphalg import CsrGraph, MixSelector, mix_adjacency, sym_normalize
from reachmix.graphio import Dataset
from reachmix.nn import (
    ModelParams,
    as_csr,
    backward,
    gcn_forward,
    mlp_forward,
    soft_cross_entropy_with_grad,
)


@dataclass(frozen=True)
class MixupConfig:
    """All mixup hyperparameters.

    lambda_intra / lambda_inter scale the two auxiliary losses (0 disables a
    branch). beta_s and beta_d set the strength of NLD similarity and of the
    low-degree preference in the sampling weight. gamma is the pseudo-label
    confidence threshold, tau the NLD sharpening temperature, alpha the
    Beta(alpha, alpha) shape for the interpolation draw (alpha = 0 degenerates
    to a fair coin over {0, 1}).
    """

    lambda_intra: float = 1.0
    lambda_inter: float = 1.0
    beta_s: float = 1.0
    beta_d: float = 1.0
    gamma: float = 0.7
    tau: float = 0.5
    alpha: float = 1.0
    warmup_epochs: int = 10
    refresh_every: int = 1
    pair_resample_every: int | None = None  # None: resample when pseudo-labels refresh
    nld_include_self: bool = True

    def __post_init__(self):
        if not (0.0 <= self.lambda_intra <= 1.5) or not (0.0 <= self.lambda_inter <= 1.5):
            raise ValueError("lambda_intra and lambda_inter must lie in [0, 1.5]")
        if self.beta_s <= 0 or self.beta_d <= 0:
            raise ValueError("beta_s and beta_d must be > 0")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must lie in (0, 1]")
        if not (0.0 < self.tau <= 1.0):
            raise ValueError("tau must lie in (0, 1]")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        if self.pair_resample_every is not None and self.pair_resample_every < 1:
            raise ValueError("pair_resample_every must be >= 1")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, blob: dict) -> "MixupConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(blob) - known
        if unknown:
            raise ValueError(f"unknown mixup config keys: {sorted(unknown)}")
        return cls(**blob)


def mix(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """Convex interpolation lam * a + (1 - lam) * b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"cannot mix shapes {a.shape} and {b.shape}")
    if not (0.0 <= lam <= 1.0):
        raise ValueError("lambda must lie in [0, 1]")
    return lam * a + (1.0 - lam) * b


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass(frozen=True)
class TrainInputs:
    """A dataset in the form every epoch reads it, built once per run by
    ``train_inputs``: CSR features, one-hot labels, and the row weights that
    restrict the supervised loss to labeled nodes."""

    dataset: Dataset
    features: csr_array
    y_hot: np.ndarray  # (N, C)
    labeled_weights: np.ndarray  # (N,): 1 on labeled rows, 0 elsewhere


def train_inputs(dataset: Dataset) -> TrainInputs:
    y_hot = one_hot(dataset.labels, dataset.num_classes)
    weights = np.zeros(dataset.num_nodes)
    weights[dataset.split.labeled_ids] = 1.0
    for arr in (y_hot, weights):
        arr.setflags(write=False)
    return TrainInputs(dataset, as_csr(dataset.features), y_hot, weights)


@dataclass(frozen=True)
class PseudoLabelSet:
    """Confident unlabeled nodes: ids, argmax pseudo-labels, max-prob confidences."""

    ids: np.ndarray
    labels: np.ndarray
    confidences: np.ndarray

    def __len__(self) -> int:
        return int(self.ids.size)


def build_pseudo_labels(probs: np.ndarray, labeled_ids: np.ndarray, gamma: float) -> PseudoLabelSet:
    """Unlabeled nodes whose top softmax probability reaches gamma (inclusive).

    Ties in the argmax resolve to the lowest class index. An empty result is
    fine; callers skip mixup for that refresh.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs < 0) or np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("probs rows must be probability vectors")
    if not (0.0 < gamma <= 1.0):
        raise ValueError("gamma must lie in (0, 1]")
    mask = np.ones(probs.shape[0], dtype=bool)
    mask[np.asarray(labeled_ids, dtype=np.int64)] = False
    conf = probs.max(axis=1)
    keep = mask & (conf >= gamma)
    ids = np.nonzero(keep)[0].astype(np.int64)
    return PseudoLabelSet(ids, np.argmax(probs[ids], axis=1).astype(np.int64), conf[ids])


@dataclass(frozen=True)
class NLDTable:
    """Per-node neighborhood label distribution q and the label matrix it used."""

    q: np.ndarray  # (N, C), rows on the simplex for nodes with neighbors
    ybar: np.ndarray  # (N, C) one-hot: true labels for labeled, predictions elsewhere


def compute_nld(a: CsrGraph, ybar: np.ndarray, include_self: bool = True) -> NLDTable:
    """Mean of neighbor label rows, with the neighbor set read directly off ``a``.

    ``a`` is expected to carry self-loops, so by default a node's own label
    participates; ``include_self=False`` masks the diagonal for ablations.
    Edge weights are ignored: any stored entry counts as one neighbor.
    """
    ybar = np.asarray(ybar, dtype=np.float64)
    if ybar.shape[0] != a.num_nodes:
        raise ValueError("ybar must have one row per node")
    if np.any((ybar != 0.0) & (ybar != 1.0)) or np.any(ybar.sum(axis=1) != 1.0):
        raise ValueError("ybar rows must be one-hot")
    rows = a.row_ids()
    cols = a.indices
    if not include_self:
        off = rows != cols
        rows, cols = rows[off], cols[off]
    counts = np.bincount(rows, minlength=a.num_nodes)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    neighbors = csr_array((np.ones(cols.size), cols, indptr), shape=(a.num_nodes, a.num_nodes))
    sums = neighbors @ ybar  # sums of 0/1 values: exact in any order
    counts = counts.astype(np.float64)
    q = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
    return NLDTable(q, ybar)


def sharpen(q: np.ndarray, tau: float) -> np.ndarray:
    """Temperature sharpening q_c^{1/tau} / sum_k q_k^{1/tau}; zeros stay zero.

    Accepts a single distribution or a matrix of row distributions. Rows that
    are entirely zero (nodes without neighbors under an ablation) are returned
    unchanged.
    """
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0):
        raise ValueError("q must be nonnegative")
    single = q.ndim == 1
    rows = q[None, :] if single else q
    powered = rows ** (1.0 / tau)
    norm = powered.sum(axis=1, keepdims=True)
    out = np.divide(powered, norm, out=np.zeros_like(powered), where=norm > 0)
    return out[0] if single else out


def nld_similarity(qa: np.ndarray, qb: np.ndarray) -> float:
    """Cosine similarity of two (sharpened) distributions; in [0, 1] for
    nonnegative inputs."""
    qa = np.asarray(qa, dtype=np.float64)
    qb = np.asarray(qb, dtype=np.float64)
    na, nb = np.linalg.norm(qa), np.linalg.norm(qb)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cannot compare a zero distribution")
    return float(np.clip(qa @ qb / (na * nb), 0.0, 1.0))


def sampling_weight(same_class: bool, s: float, degree_j: int, beta_s: float, beta_d: float) -> float:
    """Selection weight of candidate j: exp(+-beta_s * s) / (1 + beta_d * d_j).

    The sign of the exponent flips with class agreement: same-class mixing
    prefers similar neighbor patterns, different-class mixing dissimilar
    ones. Low-degree candidates are favored in both branches.
    """
    if not (0.0 <= s <= 1.0):
        raise ValueError("similarity must lie in [0, 1]")
    if degree_j < 0:
        raise ValueError("degree must be >= 0")
    expo = beta_s * s if same_class else -beta_s * s
    return float(np.exp(expo) / (1.0 + beta_d * degree_j))


@dataclass(frozen=True)
class PairAssignment:
    """Sampled partners per labeled node; a node missing from a branch had an
    empty candidate pool there."""

    intra_targets: np.ndarray
    intra_partners: np.ndarray
    intra_partner_labels: np.ndarray
    intra_lams: np.ndarray
    inter_targets: np.ndarray
    inter_partners: np.ndarray
    inter_partner_labels: np.ndarray
    inter_lams: np.ndarray

    @classmethod
    def empty(cls) -> "PairAssignment":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, z, np.zeros(0), z.copy(), z.copy(), z.copy(), np.zeros(0))


def _cosine_matrix(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    na = np.linalg.norm(qa, axis=1)
    nb = np.linalg.norm(qb, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("zero NLD row encountered; cannot compute similarities")
    sims = (qa / na[:, None]) @ (qb / nb[:, None]).T
    return np.clip(sims, 0.0, 1.0)


def _choose_rows(weight_matrix: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One weighted draw per row via inverse-CDF; deterministic given rng."""
    cdf = np.cumsum(weight_matrix, axis=1)
    r = rng.random(weight_matrix.shape[0]) * cdf[:, -1]
    return (r[:, None] < cdf).argmax(axis=1)


def _draw_lams(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    if alpha == 0.0:
        return rng.integers(0, 2, size=n).astype(np.float64)  # Beta(0,0) limit
    return rng.beta(alpha, alpha, size=n)


def sample_pairs(
    labeled_ids: np.ndarray,
    dpl: PseudoLabelSet,
    nld: NLDTable,
    cfg: MixupConfig,
    degrees: np.ndarray,
    rng: np.random.Generator,
    lam_rng: np.random.Generator | None = None,
) -> PairAssignment:
    """Sample one same-class and one different-class partner per labeled node.

    Candidates come from the pseudo-labeled set only; the draw over a pool is
    proportional to ``sampling_weight``. Labeled classes are processed in
    ascending order and labeled ids ascending within a class, so the stream
    consumption (and hence the result) is reproducible. Interpolation
    coefficients are Beta(alpha, alpha), drawn for all same-class pairs first,
    then all different-class pairs.
    """
    if lam_rng is None:
        lam_rng = rng
    labeled_ids = np.asarray(sorted(labeled_ids), dtype=np.int64)
    if len(dpl) == 0:
        return PairAssignment.empty()
    if np.intersect1d(dpl.ids, labeled_ids).size:
        raise ValueError("pseudo-labeled candidates must be unlabeled nodes")

    q_sharp = sharpen(nld.q, cfg.tau)
    labeled_classes = np.argmax(nld.ybar[labeled_ids], axis=1)
    degree_factor = 1.0 / (1.0 + cfg.beta_d * degrees[dpl.ids])

    intra_t, intra_p, intra_y = [], [], []
    inter_t, inter_p, inter_y = [], [], []
    for c in np.unique(labeled_classes):
        group = labeled_ids[labeled_classes == c]
        same = np.nonzero(dpl.labels == c)[0]
        diff = np.nonzero(dpl.labels != c)[0]
        if same.size:
            s = _cosine_matrix(q_sharp[group], q_sharp[dpl.ids[same]])
            w = np.exp(cfg.beta_s * s) * degree_factor[same]
            picks = same[_choose_rows(w, rng)]
            intra_t.extend(group.tolist())
            intra_p.extend(dpl.ids[picks].tolist())
            intra_y.extend(dpl.labels[picks].tolist())
        if diff.size:
            s = _cosine_matrix(q_sharp[group], q_sharp[dpl.ids[diff]])
            w = np.exp(-cfg.beta_s * s) * degree_factor[diff]
            picks = diff[_choose_rows(w, rng)]
            inter_t.extend(group.tolist())
            inter_p.extend(dpl.ids[picks].tolist())
            inter_y.extend(dpl.labels[picks].tolist())

    return PairAssignment(
        intra_targets=np.asarray(intra_t, dtype=np.int64),
        intra_partners=np.asarray(intra_p, dtype=np.int64),
        intra_partner_labels=np.asarray(intra_y, dtype=np.int64),
        intra_lams=_draw_lams(lam_rng, cfg.alpha, len(intra_t)),
        inter_targets=np.asarray(inter_t, dtype=np.int64),
        inter_partners=np.asarray(inter_p, dtype=np.int64),
        inter_partner_labels=np.asarray(inter_y, dtype=np.int64),
        inter_lams=_draw_lams(lam_rng, cfg.alpha, len(inter_t)),
    )


@dataclass(frozen=True)
class MixupBatches:
    """Materialized training inputs for one refresh period.

    The same-class branch is full-graph: CSR features with labeled target
    rows replaced by their mixes, soft targets for every labeled row, and the
    mixed adjacency (plus its normalized form, cached for the forward pass).
    The different-class branch is row-per-pair and runs through the MLP path.
    Either branch may be absent (None / empty) when its pool was empty.
    """

    pairs: PairAssignment
    intra_features: csr_array | None
    intra_targets: np.ndarray | None  # aligned with sorted labeled_ids
    adjacency_mixed: CsrGraph | None
    adjacency_mixed_norm: CsrGraph | None
    inter_features: csr_array
    inter_targets: np.ndarray

    @property
    def has_intra(self) -> bool:
        return self.intra_features is not None

    @property
    def has_inter(self) -> bool:
        return self.inter_features.shape[0] > 0


def _validate_pairs(dataset, pairs: PairAssignment) -> None:
    labeled = set(dataset.split.labeled_ids.tolist())
    for branch, same in (("intra", True), ("inter", False)):
        targets = getattr(pairs, f"{branch}_targets")
        partners = getattr(pairs, f"{branch}_partners")
        plabels = getattr(pairs, f"{branch}_partner_labels")
        lams = getattr(pairs, f"{branch}_lams")
        if not (targets.size == partners.size == plabels.size == lams.size):
            raise ValueError(f"{branch} pair arrays have inconsistent lengths")
        if targets.size == 0:
            continue
        if not all(t in labeled for t in targets.tolist()):
            raise ValueError(f"{branch} targets must be labeled nodes")
        if any(p in labeled for p in partners.tolist()):
            raise ValueError(f"{branch} partners must be unlabeled nodes")
        if lams.min() < 0.0 or lams.max() > 1.0:
            raise ValueError(f"{branch} lambda outside [0, 1]")
        agree = dataset.labels[targets] == plabels
        if same and not np.all(agree):
            raise ValueError("intra pair with mismatched classes")
        if not same and np.any(agree):
            raise ValueError("inter pair with matching classes")


def _mixed_targets(inputs: TrainInputs, sel: MixSelector, partner_labels) -> np.ndarray:
    """lam * one_hot(target's label) + (1 - lam) * one_hot(partner's pseudo-label)."""
    lam = sel.lams[:, None]
    other = one_hot(partner_labels, inputs.dataset.num_classes)
    return lam * inputs.y_hot[sel.targets] + (1.0 - lam) * other


def build_batches(inputs: TrainInputs, pairs: PairAssignment, a: CsrGraph) -> MixupBatches:
    """Materialize mixed inputs from a pair assignment.

    ``a`` is the unnormalized adjacency with self-loops. Each branch mixes
    with one selector S (see ``MixSelector.matrix``): the same-class branch
    takes S X and S A S^T, renormalized here so the training loop can reuse
    it for every step of the refresh period; the different-class branch takes
    the pair rows S[targets] X.
    """
    dataset = inputs.dataset
    _validate_pairs(dataset, pairs)
    n = dataset.num_nodes
    labeled = dataset.split.labeled_ids

    intra_x = intra_t = a_mixed = a_mixed_norm = None
    if pairs.intra_targets.size:
        sel = MixSelector(pairs.intra_targets, pairs.intra_partners, pairs.intra_lams)
        intra_x = sel.matrix(n) @ inputs.features
        intra_t = inputs.y_hot[labeled].copy()
        pos = np.searchsorted(labeled, pairs.intra_targets)
        intra_t[pos] = _mixed_targets(inputs, sel, pairs.intra_partner_labels)
        a_mixed = mix_adjacency(a, sel)
        a_mixed_norm = sym_normalize(a_mixed)

    if pairs.inter_targets.size:
        sel = MixSelector(pairs.inter_targets, pairs.inter_partners, pairs.inter_lams)
        inter_x = sel.matrix(n)[sel.targets] @ inputs.features
        inter_t = _mixed_targets(inputs, sel, pairs.inter_partner_labels)
    else:
        inter_x = csr_array((0, dataset.num_features))
        inter_t = np.zeros((0, dataset.num_classes))

    batches = MixupBatches(pairs, intra_x, intra_t, a_mixed, a_mixed_norm, inter_x, inter_t)
    check_batch_invariants(batches)
    return batches


def check_batch_invariants(batches: MixupBatches) -> None:
    """Assert the structural guarantees every batch must satisfy beyond the
    pair checks ``build_batches`` runs first."""
    if batches.has_intra:
        rows = batches.intra_targets
        if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
            raise AssertionError("intra soft-label row off the simplex")
        if batches.adjacency_mixed is None or batches.adjacency_mixed_norm is None:
            raise AssertionError("intra branch present without mixed adjacency")
    if batches.has_inter:
        rows = batches.inter_targets
        if np.any(rows < 0) or np.any(np.abs(rows.sum(axis=1) - 1.0) > 1e-9):
            raise AssertionError("inter soft-label row off the simplex")


@dataclass(frozen=True)
class LossParts:
    total: float
    supervised: float
    intra: float
    inter: float


def loss_and_grads(
    params: ModelParams,
    inputs: TrainInputs,
    a_norm: CsrGraph,
    batches: MixupBatches | None,
    cfg: MixupConfig,
    dropout: float = 0.0,
    train: bool = False,
    rngs: dict | None = None,
) -> tuple[LossParts, dict[str, np.ndarray]]:
    """Combined objective and its parameter gradients.

    With ``batches=None`` (or both branches empty / both lambdas zero) this is
    exactly the baseline supervised loss. Each branch uses its own dropout
    stream (``rngs`` keys: "gnn", "intra", "inter") so that disabling a branch
    never perturbs the others.
    """
    rngs = rngs or {}
    labeled = inputs.dataset.split.labeled_ids
    w_labeled = inputs.labeled_weights

    logits, trace = gcn_forward(
        inputs.features, a_norm, params, dropout, train, rngs.get("gnn")
    )
    sup, dlogits = soft_cross_entropy_with_grad(logits, inputs.y_hot, w_labeled)
    grads = backward(trace, dlogits)

    intra_loss = 0.0
    inter_loss = 0.0
    if batches is not None and cfg.lambda_intra > 0.0 and batches.has_intra:
        targets = inputs.y_hot.copy()
        targets[labeled] = batches.intra_targets
        logits_i, trace_i = gcn_forward(
            batches.intra_features, batches.adjacency_mixed_norm, params, dropout, train, rngs.get("intra")
        )
        intra_loss, dlogits_i = soft_cross_entropy_with_grad(logits_i, targets, w_labeled)
        for name, g in backward(trace_i, dlogits_i).items():
            grads[name] = grads[name] + cfg.lambda_intra * g
    if batches is not None and cfg.lambda_inter > 0.0 and batches.has_inter:
        logits_e, trace_e = mlp_forward(
            batches.inter_features, params, dropout, train, rngs.get("inter")
        )
        inter_loss, dlogits_e = soft_cross_entropy_with_grad(
            logits_e, batches.inter_targets, np.ones(batches.inter_targets.shape[0])
        )
        for name, g in backward(trace_e, dlogits_e).items():
            grads[name] = grads[name] + cfg.lambda_inter * g

    total = sup + cfg.lambda_intra * intra_loss + cfg.lambda_inter * inter_loss
    return LossParts(total, sup, intra_loss, inter_loss), grads


def prediction_label_matrix(probs: np.ndarray, labels: np.ndarray, labeled_ids: np.ndarray) -> np.ndarray:
    """One-hot label matrix: true classes for labeled nodes, argmax predictions
    for every unlabeled node."""
    n, c = probs.shape
    pred = np.argmax(probs, axis=1)
    pred[labeled_ids] = labels[labeled_ids]
    return one_hot(pred, c)
