"""The node-mixup training engine.

Pipeline per refresh, run as one unit by ``trainer.refresh``: read class
probabilities off the eval-mode logits of the previous epoch's validation
pass (no new prediction), keep confident unlabeled nodes as pseudo-labeled
candidates, compute each node's neighborhood label distribution (NLD), then
for every labeled node sample one same-class and one different-class partner
with probability proportional to a weight that favors similar neighbor
patterns (same class), dissimilar ones (different class), and low-degree
candidates in both cases. Same-class pairs mix features, labels, and
adjacency rows/columns; different-class pairs mix features and labels only
and are trained through the MLP path (identity adjacency), which blocks
message passing between them.

The combined objective is
    L = L_sup + lambda_intra * L_intra + lambda_inter * L_inter
where L_sup is the ordinary masked cross-entropy on labeled nodes. Each is
a ``Term``, one network pass scored by soft cross-entropy; a refresh builds
the two mixup terms, and ``loss_and_grads`` runs all three in one loop.
``gradient_check`` compares that loop's gradient with central differences
of its loss, so it checks the objective every training step runs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse import csr_array

from reachmix.graphalg import MixSelector, mix_adjacency, sym_normalize, with_dtype
from reachmix.graphio import SplitSpec
from reachmix.nn import ModelParams, backward, gcn_forward, mlp_forward, soft_cross_entropy_with_grad


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


def check_finite(config) -> None:
    """Refuse nan, an infinity or an int beyond the float range in any float
    field of the config dataclass ``config``, naming it; called last in each
    ``__post_init__``, so a value a range check refuses keeps its message."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not abs(value) <= sys.float_info.max:  # exact for an int of any size
            raise ValueError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class MixupConfig:
    """All mixup hyperparameters.

    lambda_intra / lambda_inter scale the two auxiliary losses (0 disables a
    branch). beta_s and beta_d set the strength of NLD similarity and of the
    low-degree preference in the sampling weight; 0 makes that factor 1 for
    every candidate. gamma is the pseudo-label confidence threshold, tau the
    NLD sharpening temperature, alpha the Beta(alpha, alpha) shape for the
    interpolation draw (alpha = 0 degenerates to a fair coin over {0, 1}).
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
        for name in ("beta_s", "beta_d"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        for name in ("gamma", "tau"):
            if not (0.0 < getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.refresh_every < 1:
            raise ValueError("refresh_every must be >= 1")
        check_finite(self)

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
    ``trainer.build_operators`` and shared by every run: labels and split,
    CSR features, one-hot labels, the row weights that restrict the
    supervised loss to labeled nodes, and the graph as the refresh (A + I,
    degrees) and the forward pass (A_hat) read it. N, F and C are read off
    the arrays; no dense feature table is kept. The arrays are read-only."""

    labels: np.ndarray  # (N,) int64
    split: SplitSpec
    features: csr_array  # the network's dtype: float32 to train, float64 for the gradient check
    y_hot: np.ndarray  # (N, C)
    labeled_weights: np.ndarray  # (N,): 1 on labeled rows, 0 elsewhere
    adjacency: csr_array  # A + I, unnormalized; a graphalg graph (canonical, read-only)
    a_norm: csr_array  # D^-1/2 (A + I) D^-1/2, likewise, in the features' dtype
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


def compute_nld(a: csr_array, ybar: np.ndarray) -> np.ndarray:
    """The NLD q (N, C): each node's mean of neighbor rows of the one-hot
    ``ybar``, with the neighbor set read directly off ``a``.

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
    return sums / np.diff(a.indptr)[:, None]


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


def _draw_lams(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros(0)
    if alpha == 0.0:
        return rng.integers(0, 2, size=n).astype(np.float64)  # Beta(0,0) limit
    return rng.beta(alpha, alpha, size=n)


def sample_pairs(
    labeled_ids: np.ndarray,
    labels: np.ndarray,
    dpl: PseudoLabelSet,
    q: np.ndarray,
    cfg: MixupConfig,
    degrees: np.ndarray,
    rng: np.random.Generator,
    lam_rng: np.random.Generator,
) -> PairAssignment:
    """Sample one same-class and one different-class partner per labeled node.

    Candidates come from the pseudo-labeled set only; the draw over a pool is
    proportional to ``sampling_weights`` of the ``nld_similarity`` between
    sharpened rows of the NLD ``q``; a pool whose weights overflow or all
    vanish (too large a ``beta_s`` or ``beta_d``) raises ValueError instead.
    Labeled classes, read off ``labels``, are processed in ascending order and
    labeled ids ascending within a class, the same-class pick before the
    different-class one, so the stream consumption (and hence the result) is
    reproducible. Interpolation coefficients are Beta(alpha, alpha), drawn
    from ``lam_rng`` for all same-class pairs first, then all different-class
    pairs.
    """
    labeled_ids = np.asarray(sorted(labeled_ids), dtype=np.int64)
    if np.intersect1d(dpl.ids, labeled_ids).size:
        raise ValueError("pseudo-labeled candidates must be unlabeled nodes")

    q_sharp = sharpen(q, cfg.tau)
    labeled_classes = labels[labeled_ids]

    chosen = {True: ([], []), False: ([], [])}  # per branch: targets, pool positions
    for c in np.unique(labeled_classes):
        group = labeled_ids[labeled_classes == c]
        for same_class in (True, False):
            pool = np.nonzero((dpl.labels == c) == same_class)[0]
            if pool.size:
                s = nld_similarity(q_sharp[group], q_sharp[dpl.ids[pool]])
                with np.errstate(over="ignore", invalid="ignore"):  # such weights are refused below
                    w = sampling_weights(same_class, s, degrees[dpl.ids[pool]], cfg.beta_s, cfg.beta_d)
                    cdf = np.cumsum(w, axis=1)  # one draw per target, by inverse CDF
                total = cdf[:, -1]
                if not (total.min() > 0.0 and total.max() < np.inf):  # a draw would pick the first candidate
                    raise ValueError(f"beta_s={cfg.beta_s!r} and beta_d={cfg.beta_d!r} make the sampling weights "
                                     f"of a class-{c} pool overflow or vanish; choose smaller values")
                r = rng.random(group.size) * total
                targets, positions = chosen[same_class]
                targets.extend(group.tolist())
                positions.extend(pool[(r[:, None] < cdf).argmax(axis=1)].tolist())

    branches = []
    for same_class in (True, False):
        targets, positions = (np.asarray(v, dtype=np.int64) for v in chosen[same_class])
        branches += [targets, dpl.ids[positions], dpl.labels[positions],
                     _draw_lams(lam_rng, cfg.alpha, targets.size)]
    return PairAssignment(*branches)


@dataclass(frozen=True)
class Term:
    """One soft cross-entropy term of the objective: the network on
    ``features``, propagated over ``adjacency`` (None: the MLP path, no
    propagation), scored against ``targets`` with row ``weights``."""

    features: csr_array  # canonical, read-only, in the operators' dtype
    adjacency: csr_array | None  # normalized, canonical and read-only, likewise
    targets: np.ndarray  # (rows, C) soft targets, float64
    weights: np.ndarray  # (rows,), float64

    def forward(self, params: ModelParams, dropout: float = 0.0, train: bool = False, rng=None):
        """The network's logits and trace on this term: ``gcn_forward`` over
        ``adjacency``, or ``mlp_forward`` when it is None."""
        if self.adjacency is None:
            return mlp_forward(self.features, params, dropout, train, rng)
        return gcn_forward(self.features, self.adjacency, params, dropout, train, rng)


@dataclass(frozen=True)
class MixupBatches:
    """The two auxiliary terms of one refresh period (``_branch``); None for
    a branch without pairs."""

    intra: Term | None
    inter: Term | None


def _branch(inputs: TrainInputs, pairs: PairAssignment, same_class: bool) -> Term | None:
    """One branch's term, None without pairs. A pair's soft target is
    lam * one_hot(target's label) + (1 - lam) * one_hot(partner's pseudo-label).

    ``MixSelector`` checks the pair ids; this adds the checks it cannot
    make: labeled targets, unlabeled partners, and class agreement
    (same-class branch) or disagreement (different-class branch).
    - same-class: S X (``MixSelector.apply``), the one-hot labels with the
      target rows mixed, weighted to the labeled rows, and S A S^T of
      A = ``inputs.adjacency``, normalized once here.
    - different-class, on the MLP path: the k mixed rows of X
      (``MixSelector.mixed_rows``), the k x C targets, weight 1 each.
    Rows of S X that are not targets are X's own, stored zeros included, so
    input dropout draws over the supervised term's pattern there. At
    lambda = 1 a mixed row is X's row less its stored zeros, and the mixed
    A_hat holds the bytes of ``inputs.a_norm``.
    """
    branch = "intra" if same_class else "inter"
    targets, partners, partner_labels, lams = (
        getattr(pairs, f"{branch}_{name}") for name in ("targets", "partners", "partner_labels", "lams"))
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
    if not len(sel):
        return None
    lam = sel.lams[:, None]
    mixed = lam * inputs.y_hot[sel.targets] + (1.0 - lam) * one_hot(partner_labels, inputs.y_hot.shape[1])
    if not same_class:
        return Term(sel.mixed_rows(inputs.features), None, mixed, np.ones(len(sel)))
    y = inputs.y_hot.copy()
    y[sel.targets] = mixed
    a_norm = with_dtype(sym_normalize(mix_adjacency(inputs.adjacency, sel)), inputs.features.dtype)
    return Term(sel.apply(inputs.features), a_norm, y, inputs.labeled_weights)


def build_batches(inputs: TrainInputs, pairs: PairAssignment) -> MixupBatches:
    """Materialize both branches' terms from a pair assignment."""
    return MixupBatches(_branch(inputs, pairs, True), _branch(inputs, pairs, False))


@dataclass(frozen=True)
class LossParts:
    total: float
    supervised: float
    intra: float
    inter: float


def _terms(inputs: TrainInputs, batches: MixupBatches | None, cfg: MixupConfig) -> list[tuple[str, float, Term]]:
    """The objective's active terms as (dropout stream, scale, term): the
    supervised one (the GCN on ``inputs.features`` over ``inputs.a_norm``,
    weighted to the labeled rows), then ``batches.intra`` and
    ``batches.inter`` scaled by their lambdas. A term that is None or has
    scale 0 is left out."""
    intra, inter = (None, None) if batches is None else (batches.intra, batches.inter)
    terms = [("gnn", 1.0, Term(inputs.features, inputs.a_norm, inputs.y_hot, inputs.labeled_weights)),
             ("intra", cfg.lambda_intra, intra), ("inter", cfg.lambda_inter, inter)]
    return [(stream, scale, term) for stream, scale, term in terms if term is not None and scale != 0.0]


def loss_and_grads(
    params: ModelParams,
    inputs: TrainInputs,
    batches: MixupBatches | None,
    cfg: MixupConfig,
    dropout: float = 0.0,
    train: bool = False,
    rngs: dict | None = None,
) -> tuple[LossParts, dict[str, np.ndarray]]:
    """Combined objective and its parameter gradients, in one loop over the
    active terms (``_terms``), so with ``batches=None`` (or both branches
    empty / both lambdas zero) this is exactly the baseline supervised loss.
    Each term draws dropout from its own stream (``rngs`` keys: "gnn",
    "intra", "inter"), so that disabling a branch never perturbs the others.
    The loss reads each term's logits in float64; its gradient is rounded
    back to their dtype before ``backward``.
    """
    rngs = rngs or {}
    grads: dict[str, np.ndarray] = {}
    losses = {"gnn": 0.0, "intra": 0.0, "inter": 0.0}
    for stream, scale, term in _terms(inputs, batches, cfg):
        logits, trace = term.forward(params, dropout, train, rngs.get(stream))
        loss, dlogits = soft_cross_entropy_with_grad(logits, term.targets, term.weights)
        dlogits = dlogits.astype(logits.dtype, copy=False)
        for name, g in backward(trace, dlogits).items():  # scale times g onto the sum so far
            grads[name] = grads[name] + scale * g if name in grads else g
        losses[stream] = loss
    total = losses["gnn"] + cfg.lambda_intra * losses["intra"] + cfg.lambda_inter * losses["inter"]
    return LossParts(total, losses["gnn"], losses["intra"], losses["inter"]), grads


def gradient_check(inputs: TrainInputs, params: ModelParams, batches: MixupBatches | None = None,
                   cfg: MixupConfig = MixupConfig(), eps: float = 1e-5) -> tuple[float, int, int]:
    """Analytic vs central-difference gradients of the objective, both read
    off ``loss_and_grads`` in eval mode: the supervised term with
    ``batches=None``, the whole objective with a refresh's batches. It needs
    float64 operators (``build_operators(dataset, dtype=np.float64)``, the
    batches built from them) and parameters; float32 ones raise ValueError.
    A coordinate whose +/- eps step flips the sign of a ReLU pre-activation
    of any active term is skipped: the loss has no derivative there.
    Returns (max_relative_error, n_checked, n_skipped).
    """
    if inputs.features.dtype != np.float64:
        raise ValueError(f"gradient_check needs float64 operators, got {inputs.features.dtype}")
    terms = _terms(inputs, batches, cfg)

    def signs(p):
        return [term.forward(p)[1].pre1 > 0.0 for _, _, term in terms]

    base_signs = signs(params)
    _, analytic = loss_and_grads(params, inputs, batches, cfg)
    max_rel, checked, skipped = 0.0, 0, 0
    work = params.copy()
    for name, arr in work.as_dict().items():
        flat = arr.reshape(-1)
        for j, orig in enumerate(arr.reshape(-1).copy()):
            totals, smooth = [], True
            for value in (orig + eps, orig - eps):
                flat[j] = value
                totals.append(loss_and_grads(work, inputs, batches, cfg)[0].total)
                smooth = smooth and all(map(np.array_equal, signs(work), base_signs))
            flat[j] = orig
            if smooth:
                numeric = (totals[0] - totals[1]) / (2.0 * eps)
                a = analytic[name].reshape(-1)[j]
                max_rel = max(max_rel, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
            checked, skipped = checked + smooth, skipped + (not smooth)
    return max_rel, checked, skipped


def prediction_label_matrix(probs: np.ndarray, labels: np.ndarray, labeled_ids: np.ndarray) -> np.ndarray:
    """One-hot label matrix: true classes for labeled nodes, argmax predictions
    for every unlabeled node."""
    n, c = probs.shape
    pred = np.argmax(probs, axis=1)
    pred[labeled_ids] = labels[labeled_ids]
    return one_hot(pred, c)
