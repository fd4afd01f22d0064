"""The node-mixup training engine.

Pipeline per refresh: read class probabilities off the eval-mode logits of
the previous epoch's validation pass (no new prediction), keep confident
unlabeled nodes as pseudo-labeled candidates, compute each node's
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

from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse import csr_array

from reachmix.graphalg import MixSelector, mix_adjacency, sym_normalize
from reachmix.graphio import SplitSpec
from reachmix.nn import (
    ModelParams,
    backward,
    gcn_forward,
    mlp_forward,
    soft_cross_entropy_with_grad,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# For each annotated field type of a config dataclass: the test a JSON value
# must pass, and how a mismatch is described.
_FIELD_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a bool"),
    "int": (_is_int, "an int"),
    "float": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "tuple[int, ...]": (lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v)), "a list of ints"),
    "MixupConfig": (lambda v: isinstance(v, dict), "an object"),
}


def config_kwargs(cls, blob, prefix: str = "") -> dict:
    """Keyword arguments for the config dataclass ``cls`` from a JSON object.

    An unknown key or a value of the wrong type raises ValueError naming the
    key (after ``prefix``): a bool field takes a bool, an int field an int
    that is not a bool, a float field an int or a float.
    """
    if not isinstance(blob, dict):
        raise ValueError(f"config must be a JSON object, got {blob!r}")
    types = {f.name: f.type for f in fields(cls)}
    unknown = sorted(prefix + key for key in set(blob) - set(types))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    for key, value in blob.items():
        accepts, wanted = _FIELD_TYPES[types[key]]
        if not accepts(value):
            raise ValueError(f"config field {prefix}{key} must be {wanted}, got {value!r}")
    return dict(blob)


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

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, blob: dict) -> "MixupConfig":
        return cls(**config_kwargs(cls, blob, "mixup."))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels] = 1.0
    return out


@dataclass(frozen=True)
class TrainInputs:
    """A dataset in the form every epoch reads it, built once per command by
    ``trainer.build_operators`` and shared by every seed: labels and split,
    CSR features, one-hot labels, the row weights that restrict the
    supervised loss to labeled nodes, and the graph as the refresh (A + I,
    degrees) and the forward pass (A_hat) read it. N, F and C are read off
    the arrays; no dense feature table is kept, so a sweep worker receives
    little. The arrays are read-only."""

    labels: np.ndarray  # (N,) int64
    split: SplitSpec
    features: csr_array
    y_hot: np.ndarray  # (N, C)
    labeled_weights: np.ndarray  # (N,): 1 on labeled rows, 0 elsewhere
    adjacency: csr_array  # A + I, unnormalized; a graphalg graph (canonical, read-only)
    a_norm: csr_array  # D^-1/2 (A + I) D^-1/2, likewise
    degrees: np.ndarray  # (N,) structural degrees, self-loops excluded


@dataclass(frozen=True)
class PseudoLabelSet:
    """Confident unlabeled nodes: ids and their argmax pseudo-labels."""

    ids: np.ndarray
    labels: np.ndarray

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
    return PseudoLabelSet(ids, np.argmax(probs[ids], axis=1).astype(np.int64))


@dataclass(frozen=True)
class NLDTable:
    """Per-node neighborhood label distribution q and the label matrix it used."""

    q: np.ndarray  # (N, C), rows on the simplex for nodes with neighbors
    ybar: np.ndarray  # (N, C) one-hot: true labels for labeled, predictions elsewhere


def compute_nld(a: csr_array, ybar: np.ndarray) -> NLDTable:
    """Mean of neighbor label rows, with the neighbor set read directly off ``a``.

    ``a`` carries self-loops (``TrainInputs.adjacency``), so a node's own
    label participates and every row, an isolated node's too, has at least
    one entry. Edge weights are ignored: any stored entry counts as one
    neighbor.
    """
    ybar = np.asarray(ybar, dtype=np.float64)
    if ybar.shape[0] != a.shape[0]:
        raise ValueError("ybar must have one row per node")
    if np.any((ybar != 0.0) & (ybar != 1.0)) or np.any(ybar.sum(axis=1) != 1.0):
        raise ValueError("ybar rows must be one-hot")
    neighbors = csr_array((np.ones(a.nnz), a.indices, a.indptr), shape=a.shape)
    sums = neighbors @ ybar  # sums of 0/1 values: exact in any order
    return NLDTable(sums / np.diff(a.indptr)[:, None], ybar)


def sharpen(q: np.ndarray, tau: float) -> np.ndarray:
    """Temperature sharpening q_c^{1/tau} / sum_k q_k^{1/tau} of each row of
    ``q``; zeros stay zero, and a row that is entirely zero is returned
    unchanged (``compute_nld`` makes none)."""
    if not (0.0 < tau <= 1.0):
        raise ValueError("tau must lie in (0, 1]")
    q = np.asarray(q, dtype=np.float64)
    if np.any(q < 0):
        raise ValueError("q must be nonnegative")
    powered = q ** (1.0 / tau)
    norm = powered.sum(axis=1, keepdims=True)
    return np.divide(powered, norm, out=np.zeros_like(powered), where=norm > 0)


def nld_similarity(qa: np.ndarray, qb: np.ndarray) -> np.ndarray:
    """Cosine similarity of every row of ``qa`` with every row of ``qb``
    (sharpened NLD rows); in [0, 1] for nonnegative inputs."""
    na = np.linalg.norm(qa, axis=1)
    nb = np.linalg.norm(qb, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise ValueError("zero NLD row encountered; cannot compute similarities")
    sims = (qa / na[:, None]) @ (qb / nb[:, None]).T
    return np.clip(sims, 0.0, 1.0)


def sampling_weights(
    same_class: bool, s: np.ndarray, degrees: np.ndarray, beta_s: float, beta_d: float
) -> np.ndarray:
    """Selection weights exp(+-beta_s * s) * (1 / (1 + beta_d * d)) of
    candidates with structural degrees ``degrees`` (the last axis of ``s``).

    The sign of the exponent flips with class agreement: same-class mixing
    prefers similar neighbor patterns, different-class mixing dissimilar
    ones. Low-degree candidates are favored in both branches. The reciprocal
    is multiplied in rather than divided by: the pairs drawn depend on the
    exact bits of the weights.
    """
    sign = 1.0 if same_class else -1.0
    return np.exp(sign * beta_s * s) * (1.0 / (1.0 + beta_d * degrees))


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
    lam_rng: np.random.Generator,
) -> PairAssignment:
    """Sample one same-class and one different-class partner per labeled node.

    Candidates come from the pseudo-labeled set only; the draw over a pool is
    proportional to ``sampling_weights`` of the ``nld_similarity`` between
    sharpened NLD rows. Labeled classes are processed in ascending order and
    labeled ids ascending within a class, the same-class pick before the
    different-class one, so the stream consumption (and hence the result) is
    reproducible. Interpolation coefficients are Beta(alpha, alpha), drawn
    from ``lam_rng`` for all same-class pairs first, then all different-class
    pairs.
    """
    labeled_ids = np.asarray(sorted(labeled_ids), dtype=np.int64)
    if np.intersect1d(dpl.ids, labeled_ids).size:
        raise ValueError("pseudo-labeled candidates must be unlabeled nodes")

    q_sharp = sharpen(nld.q, cfg.tau)
    labeled_classes = np.argmax(nld.ybar[labeled_ids], axis=1)

    chosen = {True: ([], []), False: ([], [])}  # per branch: targets, pool positions
    for c in np.unique(labeled_classes):
        group = labeled_ids[labeled_classes == c]
        for same_class in (True, False):
            pool = np.nonzero((dpl.labels == c) == same_class)[0]
            if pool.size:
                s = nld_similarity(q_sharp[group], q_sharp[dpl.ids[pool]])
                w = sampling_weights(same_class, s, degrees[dpl.ids[pool]], cfg.beta_s, cfg.beta_d)
                targets, positions = chosen[same_class]
                targets.extend(group.tolist())
                positions.extend(pool[_choose_rows(w, rng)].tolist())

    branches = []
    for same_class in (True, False):
        targets, positions = (np.asarray(v, dtype=np.int64) for v in chosen[same_class])
        branches += [targets, dpl.ids[positions], dpl.labels[positions],
                     _draw_lams(lam_rng, cfg.alpha, targets.size)]
    return PairAssignment(*branches)


@dataclass(frozen=True)
class MixupBatches:
    """Materialized training inputs for one refresh period.

    The same-class branch is full-graph: CSR features with labeled target
    rows replaced by their mixes, the N x C soft targets (one-hot labels with
    the target rows mixed; the loss reads the labeled rows only) and the
    normalized mixed adjacency; all three are None when the branch has no
    pairs. The different-class branch is row-per-pair (k x F features, k x C
    targets, k = 0 without pairs) and runs through the MLP path.
    """

    intra_features: csr_array | None
    intra_targets: np.ndarray | None  # (N, C)
    adjacency_mixed_norm: csr_array | None  # normalized S A S^T, canonical and read-only
    inter_features: csr_array
    inter_targets: np.ndarray

    @property
    def has_intra(self) -> bool:
        return self.intra_features is not None

    @property
    def has_inter(self) -> bool:
        return self.inter_features.shape[0] > 0


def _branch(inputs: TrainInputs, same_class: bool, targets, partners, partner_labels, lams):
    """One branch's checked selector and the soft targets of its pairs,
    lam * one_hot(target's label) + (1 - lam) * one_hot(partner's pseudo-label).

    ``MixSelector`` checks the pair ids; this adds the checks it cannot
    make: labeled targets, unlabeled partners, and class agreement
    (same-class branch) or disagreement (different-class branch).
    """
    branch = "intra" if same_class else "inter"
    sel = MixSelector(inputs.labels.size, targets, partners, lams)
    labeled = inputs.labeled_weights > 0.0
    if partner_labels.size != len(sel):
        raise ValueError(f"{branch} pair arrays have inconsistent lengths")
    if not np.all(labeled[sel.targets]):
        raise ValueError(f"{branch} targets must be labeled nodes")
    if np.any(labeled[sel.partners]):
        raise ValueError(f"{branch} partners must be unlabeled nodes")
    if np.any((inputs.labels[sel.targets] == partner_labels) != same_class):
        raise ValueError(f"{branch} pair with {'mismatched' if same_class else 'matching'} classes")
    lam = sel.lams[:, None]
    other = one_hot(partner_labels, inputs.y_hot.shape[1])
    return sel, lam * inputs.y_hot[sel.targets] + (1.0 - lam) * other


def build_batches(inputs: TrainInputs, pairs: PairAssignment) -> MixupBatches:
    """Materialize mixed inputs from a pair assignment.

    A same-class branch with pairs builds its n x n selector S once
    (``MixSelector.matrix``) and takes S X and S A S^T, where A is
    ``inputs.adjacency``, renormalized here so the training loop can reuse
    it for every step of the refresh period. The different-class branch
    builds only its k x n pair rows (``MixSelector.pair_rows``) and takes
    their product with X.
    """
    intra, intra_mixed = _branch(inputs, True, pairs.intra_targets, pairs.intra_partners,
                                 pairs.intra_partner_labels, pairs.intra_lams)
    inter, inter_t = _branch(inputs, False, pairs.inter_targets, pairs.inter_partners,
                             pairs.inter_partner_labels, pairs.inter_lams)
    intra_x = intra_t = a_mixed_norm = None
    if len(intra):
        s = intra.matrix()
        intra_x = s @ inputs.features
        intra_t = inputs.y_hot.copy()
        intra_t[intra.targets] = intra_mixed
        a_mixed_norm = sym_normalize(mix_adjacency(inputs.adjacency, s))
    return MixupBatches(intra_x, intra_t, a_mixed_norm, inter.pair_rows() @ inputs.features, inter_t)


@dataclass(frozen=True)
class LossParts:
    total: float
    supervised: float
    intra: float
    inter: float


def loss_and_grads(
    params: ModelParams,
    inputs: TrainInputs,
    batches: MixupBatches | None,
    cfg: MixupConfig,
    dropout: float = 0.0,
    train: bool = False,
    rngs: dict | None = None,
) -> tuple[LossParts, dict[str, np.ndarray]]:
    """Combined objective and its parameter gradients.

    The supervised term runs the GCN on ``inputs.features`` over
    ``inputs.a_norm``. With ``batches=None`` (or both branches empty / both
    lambdas zero) this is exactly the baseline supervised loss. Each branch
    uses its own dropout stream (``rngs`` keys: "gnn", "intra", "inter") so
    that disabling a branch never perturbs the others.
    """
    rngs = rngs or {}
    grads: dict[str, np.ndarray] = {}

    def term(scale, forward_out, targets, weights) -> float:
        """Soft cross-entropy of one branch; backpropagates it and adds its
        gradients, times ``scale``, to those of the terms before it."""
        logits, trace = forward_out
        loss, dlogits = soft_cross_entropy_with_grad(logits, targets, weights)
        for name, g in backward(trace, dlogits).items():
            grads[name] = grads[name] + scale * g if name in grads else g
        return loss

    sup = term(1.0, gcn_forward(inputs.features, inputs.a_norm, params, dropout, train, rngs.get("gnn")),
               inputs.y_hot, inputs.labeled_weights)
    intra_loss = 0.0
    inter_loss = 0.0
    if batches is not None and cfg.lambda_intra > 0.0 and batches.has_intra:
        intra_loss = term(
            cfg.lambda_intra,
            gcn_forward(batches.intra_features, batches.adjacency_mixed_norm, params, dropout, train,
                        rngs.get("intra")),
            batches.intra_targets, inputs.labeled_weights,
        )
    if batches is not None and cfg.lambda_inter > 0.0 and batches.has_inter:
        inter_loss = term(
            cfg.lambda_inter,
            mlp_forward(batches.inter_features, params, dropout, train, rngs.get("inter")),
            batches.inter_targets, np.ones(batches.inter_targets.shape[0]),
        )

    total = sup + cfg.lambda_intra * intra_loss + cfg.lambda_inter * inter_loss
    return LossParts(total, sup, intra_loss, inter_loss), grads


def prediction_label_matrix(probs: np.ndarray, labels: np.ndarray, labeled_ids: np.ndarray) -> np.ndarray:
    """One-hot label matrix: true classes for labeled nodes, argmax predictions
    for every unlabeled node."""
    n, c = probs.shape
    pred = np.argmax(probs, axis=1)
    pred[labeled_ids] = labels[labeled_ids]
    return one_hot(pred, c)
