"""Reachability and representation-alignment diagnostics.

The reaching coefficient of an unlabeled node i is
    RC_i = mean over labeled j of (1 - log d(i, j) / log D)
where d is the BFS hop distance, D the graph diameter, and d(i, j) := D when
i and j live in different components (so such pairs contribute 0). Distance 1
contributes the maximal term 1. The log base cancels in the ratio.

Representation similarity between node sets uses linear CKA with column
centering:
    CKA(A, B) = ||B^T A||_F^2 / (||A^T A||_F ||B^T B||_F)
which is 1 on identical inputs and invariant to orthogonal transforms and
nonzero isotropic scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from reachmix.graphalg import CsrGraph, bfs_distances, diameter_and_components, structural_degrees
from reachmix.mixup import TrainInputs
from reachmix.nn import ModelParams, gcn_forward, softmax

NUM_BUCKETS = 5


@dataclass(frozen=True)
class RCReport:
    node_ids: np.ndarray  # unlabeled nodes, ascending
    rc: np.ndarray  # reaching coefficient per node, in [0, 1]
    diameter: int
    min_dist: np.ndarray  # distances to the labeled set, after the diameter
    mean_dist: np.ndarray  # substitution for unreachable pairs


@dataclass(frozen=True)
class CKAReport:
    values: list  # one entry per bucket I..V; None where fewer than 3 nodes could be compared
    sample_sizes: list
    seed: int


@dataclass(frozen=True)
class DegreeSPReport:
    degrees: np.ndarray  # structural degree values with >= 1 unlabeled node
    avg_sp: np.ndarray  # mean over those nodes of mean distance to labeled set
    counts: np.ndarray
    node_avg_sp: np.ndarray  # per unlabeled node, ascending id


def _labeled_distances(g: CsrGraph, labeled_ids) -> tuple[int, np.ndarray, np.ndarray]:
    """(diameter, unlabeled ids ascending, (|labeled|, |unlabeled|) hop
    distances) with unreachable pairs counted as the diameter; labeled rows
    in ascending id order.

    The distances are one ``bfs_distances`` call, which runs the labeled
    sources 64 at a time; the diameter is ``diameter_and_components``'.
    """
    labeled_ids = np.asarray(labeled_ids, dtype=np.int64)
    if labeled_ids.size == 0:
        raise ValueError("labeled set must be non-empty")
    diameter, _ = diameter_and_components(g)
    dists = bfs_distances(g, labeled_ids)
    mask = np.ones(g.num_nodes, dtype=bool)
    mask[labeled_ids] = False
    unlabeled = np.flatnonzero(mask)
    if unlabeled.size == 0:
        raise ValueError("no unlabeled nodes")
    dists = dists[:, unlabeled]
    return diameter, unlabeled, np.where(np.isfinite(dists), dists, float(diameter))


def reaching_coefficient(g: CsrGraph, labeled_ids) -> RCReport:
    """RC per unlabeled node (see module docstring)."""
    diameter, unlabeled, d = _labeled_distances(g, labeled_ids)
    if diameter < 2:
        raise ValueError(f"diameter {diameter} < 2: the log-ratio in RC is degenerate")
    terms = 1.0 - np.log(d) / np.log(float(diameter))
    rc = terms.mean(axis=0)
    return RCReport(
        node_ids=unlabeled,
        rc=rc,
        diameter=diameter,
        min_dist=d.min(axis=0),
        mean_dist=d.mean(axis=0),
    )


def rc_buckets(report: RCReport) -> list[np.ndarray]:
    """Partition unlabeled nodes into five RC ranges.

    With m = max RC, bucket I is [0, m/5] and bucket k is ((k-1)m/5, km/5].
    If m == 0 every edge is 0, so every node lands in bucket I.
    """
    if report.node_ids.size == 0:
        raise ValueError("need at least one unlabeled node")
    m = float(report.rc.max())
    edges = np.array([k * m / NUM_BUCKETS for k in range(1, NUM_BUCKETS)])
    idx = np.searchsorted(edges, report.rc, side="left")
    return [report.node_ids[idx == k] for k in range(NUM_BUCKETS)]


def _center_columns(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    return z - z.mean(axis=0, keepdims=True)


def cka(zl: np.ndarray, zu: np.ndarray) -> float:
    """Linear CKA between two equally-sized sample matrices, in [0, 1]."""
    zl = _center_columns(zl)
    zu = _center_columns(zu)
    if zl.shape[0] != zu.shape[0]:
        raise ValueError("matrices must have the same number of rows")
    cross = np.linalg.norm(zu.T @ zl) ** 2
    norm_l = np.linalg.norm(zl.T @ zl)
    norm_u = np.linalg.norm(zu.T @ zu)
    if norm_l == 0.0 or norm_u == 0.0:
        raise ValueError("zero-variance input: all rows identical after centering")
    return float(cross / (norm_l * norm_u))


def representations(params: ModelParams, inputs: TrainInputs) -> np.ndarray:
    """Final-layer pre-softmax output in eval mode, one row per node, from
    ``inputs`` (``trainer.build_operators`` of the dataset)."""
    return gcn_forward(inputs.features, inputs.a_norm, params)[0]


def cka_by_bucket(
    params: ModelParams,
    inputs: TrainInputs,
    buckets: list[np.ndarray],
    sample_seed: int,
) -> CKAReport:
    """CKA between labeled representations and each RC bucket's.

    Each comparison samples min(|labeled|, |bucket|) nodes from both sets
    without replacement (one seeded stream, buckets in order). The score
    pairs row i of one matrix with row i of the other, so sampled ids are
    sorted to make the pairing canonical; a bucket identical to the labeled
    set then scores exactly 1. A comparison of fewer than 3 nodes is reported
    as absent and draws no sample: with 2 nodes the centred rows are +-v, so
    the CKA is 1 for any input.
    """
    z = representations(params, inputs)
    labeled = inputs.split.labeled_ids
    rng = np.random.default_rng(sample_seed)
    values, sizes = [], []
    for bucket in buckets:
        m = int(min(labeled.size, bucket.size))
        if m < 3:
            values.append(None)
            sizes.append(m)
            continue
        sample_l = np.sort(rng.choice(labeled, size=m, replace=False))
        sample_b = np.sort(rng.choice(bucket, size=m, replace=False))
        values.append(cka(z[sample_l], z[sample_b]))
        sizes.append(m)
    return CKAReport(values, sizes, sample_seed)


def avg_sp_by_degree(g: CsrGraph, labeled_ids) -> DegreeSPReport:
    """Mean distance to the labeled set, grouped by structural degree.

    Per unlabeled node: the mean BFS distance to every labeled node, with
    unreachable pairs counted as the diameter (same convention as RC); then
    averaged within groups of equal self-loop-free degree.
    """
    _, unlabeled, dists = _labeled_distances(g, labeled_ids)
    node_avg = dists.mean(axis=0)
    node_deg = structural_degrees(g)[unlabeled]
    degrees = np.unique(node_deg)
    avg = np.array([node_avg[node_deg == d].mean() for d in degrees])
    counts = np.array([int((node_deg == d).sum()) for d in degrees])
    return DegreeSPReport(degrees, avg, counts, node_avg)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.size != y.size or x.size < 3:
        raise ValueError("need >= 3 paired observations")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = np.sqrt((dx * dx).sum())
    sy = np.sqrt((dy * dy).sum())
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance in one of the series")
    return float((dx * dy).sum() / (sx * sy))


def pearson_rc_vs_score(params: ModelParams, inputs: TrainInputs, report: RCReport):
    """Correlation between the softmax probability of each unlabeled node's
    true class and its reaching coefficient.

    Returns (r, pairs) where pairs is an (n, 3) array of
    (node_id, rc, true_class_score).
    """
    probs = softmax(representations(params, inputs))
    scores = probs[report.node_ids, inputs.labels[report.node_ids]]
    r = pearson(report.rc, scores)
    pairs = np.stack([report.node_ids.astype(np.float64), report.rc, scores], axis=1)
    return r, pairs
