"""Two-layer GCN in numpy and scipy.sparse: forward, exact reverse-mode
gradients, masked soft-target cross-entropy, inverted dropout, Adam, gradient
checking.

Everything runs in float64. The input features are a CSR matrix (dense input
is converted), so input dropout, ``X @ W1`` and ``X^T @ dXW`` touch the stored
entries only. The MLP path is the same network with the propagation step
omitted; feeding the GCN an identity adjacency produces bit-identical output
to the MLP.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array, issparse

from reachmix.graphalg import CsrGraph, matmul_dense

PARAM_NAMES = ("w1", "b1", "w2", "b2")


@dataclass
class ModelParams:
    w1: np.ndarray  # (F, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, C)
    b2: np.ndarray  # (C,)

    def as_dict(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}

    def copy(self) -> "ModelParams":
        return ModelParams(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())

    def check_finite(self) -> None:
        for name, arr in self.as_dict().items():
            if not np.all(np.isfinite(arr)):
                raise FloatingPointError(f"non-finite values in parameter {name}")


def init_params(num_features: int, hidden: int, num_classes: int, rng: np.random.Generator) -> ModelParams:
    """Glorot-uniform weights, zero biases."""

    def glorot(fan_in, fan_out):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    return ModelParams(
        w1=glorot(num_features, hidden),
        b1=np.zeros(hidden),
        w2=glorot(hidden, num_classes),
        b2=np.zeros(num_classes),
    )


@dataclass
class ForwardTrace:
    """Intermediates cached by a forward pass, consumed exactly once by backward."""

    x_in: csr_array  # input after dropout
    pre1: np.ndarray  # first-layer pre-activation (after propagation)
    hidden: np.ndarray  # post-ReLU, post-dropout hidden
    adjacency: CsrGraph | None  # None for the MLP path
    w2: np.ndarray
    mask1: np.ndarray | None  # inverted-dropout scale per stored input entry
    mask2: np.ndarray | None  # ... and per hidden unit; None when not applied
    consumed: bool = field(default=False)


def as_csr(x) -> csr_array:
    """Features as a float64 CSR matrix; a float64 ``csr_array`` passes through."""
    if isinstance(x, csr_array) and x.dtype == np.float64:
        return x
    return csr_array(x, dtype=np.float64)


def _dropout(x, rate: float, train: bool, rng: np.random.Generator | None):
    """Inverted dropout. On a CSR matrix it draws one uniform per stored entry
    and scales the stored entries only, so zeros stay zero (the reference
    GCN's ``sparse_dropout``)."""
    if not train or rate == 0.0:
        return x, None
    if rng is None:
        raise ValueError("train-mode dropout needs an rng")
    values = x.data if issparse(x) else x
    mask = (rng.random(values.shape) >= rate) / (1.0 - rate)
    if issparse(x):
        return csr_array((x.data * mask, x.indices, x.indptr), shape=x.shape), mask
    return x * mask, mask


def _forward(x, adjacency, params, dropout_rate, train, rng):
    x = as_csr(x)
    if x.ndim != 2 or x.shape[1] != params.w1.shape[0]:
        raise ValueError(f"input shape {x.shape} does not match w1 {params.w1.shape}")
    if adjacency is not None and adjacency.num_nodes != x.shape[0]:
        raise ValueError("adjacency size does not match feature rows")
    if not (0.0 <= dropout_rate < 1.0):
        raise ValueError("dropout_rate must be in [0, 1)")
    x0, mask1 = _dropout(x, dropout_rate, train, rng)
    xw = x0 @ params.w1
    pre1 = (matmul_dense(adjacency, xw) if adjacency is not None else xw) + params.b1
    h = np.maximum(pre1, 0.0)
    h1, mask2 = _dropout(h, dropout_rate, train, rng)
    hw = h1 @ params.w2
    logits = (matmul_dense(adjacency, hw) if adjacency is not None else hw) + params.b2
    if not np.all(np.isfinite(logits)):
        raise FloatingPointError("non-finite logits (training diverged?)")
    trace = ForwardTrace(x0, pre1, h1, adjacency, params.w2, mask1, mask2)
    return logits, trace


def gcn_forward(x, a_hat: CsrGraph, params: ModelParams, dropout_rate=0.0, train=False, rng=None):
    """logits = A_hat . drop(ReLU(A_hat . drop(X) W1 + b1)) W2 + b2.

    ``x`` is CSR or dense (converted to CSR); ``a_hat`` is the normalized
    adjacency. Eval mode (train=False) applies no dropout and is
    deterministic.
    """
    return _forward(x, a_hat, params, dropout_rate, train, rng)


def mlp_forward(x, params: ModelParams, dropout_rate=0.0, train=False, rng=None):
    """Same network without propagation; equals the GCN under an identity adjacency."""
    return _forward(x, None, params, dropout_rate, train, rng)


def backward(trace: ForwardTrace, dlogits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients of the traced forward pass w.r.t. all parameters.

    ``dlogits`` is the upstream gradient of the scalar loss w.r.t. the logits.
    The trace is single-use; a second call raises.
    """
    if trace.consumed:
        raise RuntimeError("forward trace already consumed by a backward pass")
    trace.consumed = True
    a = trace.adjacency
    d_hw = matmul_dense(a, dlogits) if a is not None else dlogits  # A_hat is symmetric
    db2 = dlogits.sum(axis=0)
    dw2 = trace.hidden.T @ d_hw
    dh1 = d_hw @ trace.w2.T
    if trace.mask2 is not None:
        dh1 = dh1 * trace.mask2
    dpre1 = dh1 * (trace.pre1 > 0.0)
    d_xw = matmul_dense(a, dpre1) if a is not None else dpre1
    db1 = dpre1.sum(axis=0)
    dw1 = trace.x_in.T @ d_xw
    return {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _check_targets_weights(logits, targets, weights):
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if targets.shape != logits.shape:
        raise ValueError("targets must match logits shape")
    if weights.shape != (logits.shape[0],):
        raise ValueError("weights must have one entry per row")
    if np.any(targets < 0) or np.any(np.abs(targets.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("each target row must be a probability simplex vector")
    if np.any(weights < 0):
        raise ValueError("weights must be >= 0")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must not all be zero")
    return targets, weights, total


def soft_cross_entropy(logits, targets, weights) -> float:
    """Weighted mean over rows of -sum_c target_c log softmax(logits)_c."""
    loss, _ = soft_cross_entropy_with_grad(logits, targets, weights)
    return loss


def soft_cross_entropy_with_grad(logits, targets, weights):
    """Loss plus its gradient w.r.t. the logits (for backprop)."""
    logits = np.asarray(logits, dtype=np.float64)
    targets, weights, total = _check_targets_weights(logits, targets, weights)
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    per_row = -(targets * log_probs).sum(axis=1)
    loss = float((weights * per_row).sum() / total)
    probs = np.exp(log_probs)
    dlogits = (weights / total)[:, None] * (probs - targets)
    return loss, dlogits


def accuracy(logits: np.ndarray, labels: np.ndarray, ids: np.ndarray) -> float:
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("cannot compute accuracy over an empty id set")
    pred = np.argmax(logits[ids], axis=1)
    return float(np.mean(pred == labels[ids]))


@dataclass
class AdamState:
    """Adam moments and hyperparameters.

    ``weight_decay`` maps parameter names to decay coefficients; wd * theta
    is added to the gradient before the moment update (classic L2).
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: dict[str, float] = field(default_factory=dict)


def adam_init(params: ModelParams, lr: float, weight_decay=None) -> AdamState:
    zeros = {k: np.zeros_like(p) for k, p in params.as_dict().items()}
    return AdamState(
        m=zeros,
        v={k: np.zeros_like(p) for k, p in params.as_dict().items()},
        step=0,
        lr=lr,
        weight_decay=dict(weight_decay or {}),
    )


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState):
    """One bias-corrected Adam update, in place. Returns (params, state)."""
    state.step += 1
    t = state.step
    for name, p in params.as_dict().items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        wd = state.weight_decay.get(name, 0.0)
        if wd:
            g = g + wd * p
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return params, state


def save_params(path, params: ModelParams) -> None:
    """Flat text checkpoint: one header per parameter, then row-major values."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, arr in params.as_dict().items():
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {arr.ndim} {dims}\n")
            fh.write(" ".join(map(repr, arr.reshape(-1).tolist())) + "\n")


def load_params(path) -> ModelParams:
    """Read a ``save_params`` checkpoint. Malformed content raises a
    ``ValueError`` that starts with ``<path>:<line>:``."""
    values: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        head = lines[i].split()
        try:
            if head[0] != "param":
                raise ValueError
            name, ndim, shape = head[1], int(head[2]), tuple(int(d) for d in head[3:])
            if ndim != len(shape) or any(d < 0 for d in shape):
                raise ValueError
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{i + 1}: malformed checkpoint header {lines[i]!r}") from None
        if i + 1 == len(lines):
            raise ValueError(f"{path}:{i + 1}: parameter {name} has no value line")
        try:
            flat = np.array([float(x) for x in lines[i + 1].split()])
        except ValueError as exc:
            raise ValueError(f"{path}:{i + 2}: {exc}") from None
        if flat.size != np.prod(shape, dtype=np.int64):
            raise ValueError(f"{path}:{i + 2}: {flat.size} values for parameter {name} of shape {shape}")
        values[name] = flat.reshape(shape)
        i += 2
    missing = [n for n in PARAM_NAMES if n not in values]
    if missing:
        raise ValueError(f"{path}: checkpoint missing parameters {missing}")
    return ModelParams(values["w1"], values["b1"], values["w2"], values["b2"])


def gradient_check(dataset, params: ModelParams, eps: float = 1e-5):
    """Analytic vs central-difference gradients of the supervised loss.

    Runs the GCN in eval mode (dropout disabled, double precision) on a small
    graph. Coordinates whose +/- eps perturbation flips a ReLU pre-activation
    sign are excluded: the loss is not differentiable there. Returns
    (max_relative_error, n_checked, n_skipped).
    """
    from reachmix.graphalg import add_self_loops, from_edges, sym_normalize

    a_hat = sym_normalize(add_self_loops(from_edges(dataset.num_nodes, dataset.edges)))
    x = as_csr(dataset.features)
    labeled = dataset.split.labeled_ids
    targets = np.zeros((dataset.num_nodes, dataset.num_classes))
    targets[np.arange(dataset.num_nodes), dataset.labels] = 1.0
    w = np.zeros(dataset.num_nodes)
    w[labeled] = 1.0

    def loss_and_signs(p):
        logits, trace = gcn_forward(x, a_hat, p)
        return soft_cross_entropy(logits, targets, w), trace.pre1 > 0.0

    _, base_signs = loss_and_signs(params)
    logits, trace = gcn_forward(x, a_hat, params)
    _, dlogits = soft_cross_entropy_with_grad(logits, targets, w)
    analytic = backward(trace, dlogits)

    max_rel = 0.0
    checked = skipped = 0
    work = params.copy()
    for name, arr in work.as_dict().items():
        flat = arr.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lo_plus, signs_plus = loss_and_signs(work)
            flat[j] = orig - eps
            lo_minus, signs_minus = loss_and_signs(work)
            flat[j] = orig
            if not (np.array_equal(signs_plus, base_signs) and np.array_equal(signs_minus, base_signs)):
                skipped += 1
                continue
            numeric = (lo_plus - lo_minus) / (2.0 * eps)
            a = analytic[name].reshape(-1)[j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
            max_rel = max(max_rel, rel)
            checked += 1
    return max_rel, checked, skipped
