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

import contextlib
import ctypes
import functools
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array, issparse

from reachmix.graphalg import CsrGraph, matmul_dense

PARAM_NAMES = ("w1", "b1", "w2", "b2")


@functools.cache
def blas_thread_setter():
    """OpenBLAS's ``openblas_set_num_threads_local`` (OpenBLAS >= 0.3.27),
    looked up among the shared objects this process has loaded, or None when
    none of them exports it. It sets the BLAS thread count and returns the
    previous one. Despite its name, in OpenBLAS's pthreads build, the one
    numpy's wheels load, the count it sets holds for every thread."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            mapped = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return None
    paths = sorted({cols[5].strip() for cols in mapped if len(cols) == 6})
    for path in paths:
        if "openblas" not in os.path.basename(path):
            continue
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        return setter
    return None


# The count is one value for the whole process, so the pin is too: the first
# holder sets the count to 1, and the last to leave restores what it found.
_BLAS_PIN_LOCK = threading.Lock()
_blas_pin = {"holders": 0, "saved": 0}


@contextlib.contextmanager
def one_blas_thread():
    """Runs the block with BLAS on one thread, so a product rounds the same
    whatever the machine's core count (OpenBLAS splits ``H.T @ D``
    differently at 2 threads than at 1). Any number of threads may hold it
    at once; the previous count comes back when the last one leaves. Yields
    whether the pin holds: False, with nothing changed, when no loaded BLAS
    exports the setting (``blas_thread_setter``)."""
    setter = blas_thread_setter()
    if setter is None:
        yield False
        return
    with _BLAS_PIN_LOCK:
        if _blas_pin["holders"] == 0:
            _blas_pin["saved"] = setter(1)
        _blas_pin["holders"] += 1
    try:
        yield True
    finally:
        with _BLAS_PIN_LOCK:
            _blas_pin["holders"] -= 1
            if _blas_pin["holders"] == 0:
                setter(_blas_pin["saved"])


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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments, step count and learning rate (the betas and eps are the
    module constants ``ADAM_*``).

    ``weight_decay`` maps parameter names to decay coefficients; wd * theta
    is added to the gradient before the moment update (classic L2).
    """

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int
    lr: float
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


def adam_step(params: ModelParams, grads: dict[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place."""
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
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def save_params(path, params: ModelParams) -> None:
    """Flat text checkpoint: one header per parameter, then row-major values."""
    with open(path, "w", encoding="utf-8") as fh:
        for name, arr in params.as_dict().items():
            dims = " ".join(str(d) for d in arr.shape)
            fh.write(f"param {name} {arr.ndim} {dims}\n")
            fh.write(" ".join(map(repr, arr.reshape(-1).tolist())) + "\n")


def load_params(path) -> ModelParams:
    """Read a ``save_params`` checkpoint. Malformed content raises a
    ``ValueError`` that starts with ``<path>:<line>:``; shapes other than
    w1 (F, H), b1 (H,), w2 (H, C), b2 (C,) raise one that starts with
    ``<path>:``."""
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
    w1, b1, w2, b2 = (values[n].shape for n in PARAM_NAMES)
    if not (len(w1) == len(w2) == 2 and b1 == (w1[1],) == w2[:1] and b2 == w2[1:]):
        shapes = ", ".join(f"{n} {values[n].shape}" for n in PARAM_NAMES)
        raise ValueError(f"{path}: parameter shapes {shapes} do not fit w1 (F, H), b1 (H,), w2 (H, C), b2 (C,)")
    return ModelParams(values["w1"], values["b1"], values["w2"], values["b2"])


def gradient_check(inputs, params: ModelParams, eps: float = 1e-5):
    """Analytic vs central-difference gradients of the supervised loss.

    ``inputs`` is a run's ``TrainInputs`` (``trainer.build_operators``), so
    the loss is the supervised term training minimizes: its features, A_hat,
    one-hot targets and labeled weights. Runs the GCN in eval mode (dropout
    disabled, double precision) on a small graph. Coordinates whose +/- eps
    perturbation flips a ReLU pre-activation sign are excluded: the loss is
    not differentiable there. Returns (max_relative_error, n_checked,
    n_skipped).
    """

    def loss_and_signs(p):
        logits, trace = gcn_forward(inputs.features, inputs.a_norm, p)
        return soft_cross_entropy(logits, inputs.y_hot, inputs.labeled_weights), trace.pre1 > 0.0

    _, base_signs = loss_and_signs(params)
    logits, trace = gcn_forward(inputs.features, inputs.a_norm, params)
    _, dlogits = soft_cross_entropy_with_grad(logits, inputs.y_hot, inputs.labeled_weights)
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
