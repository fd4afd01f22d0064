"""Reachability and representation-alignment diagnostics.

The reaching coefficient of an unlabeled node i is
    RC_i = mean over labeled j of (1 - log d(i, j) / log D)
where d is the BFS hop distance, D the graph diameter, and d(i, j) := D when
i and j live in different components (so such pairs contribute 0). Distance 1
contributes the maximal term 1. The log base cancels in the ratio.

Every reach report reads the same two results: the exact diameter D and
the (|labeled|, |unlabeled|) matrix of those distances. A caller that names
the dataset they come from, as ``diagnose`` does, keeps both in
``<data directory>/.reach.cache`` under its fingerprint (``graphio``'s
cache format, version 1, as readable as edges.tsv): D as an int64, then the
matrix in the smallest unsigned dtype that holds D. The first report on a
dataset's content computes and writes them; later ones, in any process,
read them and run no BFS. An entry is valid only if D >= 1 and the matrix
has the split's shape, that dtype and every entry in [1, D]; any other is
computed again and replaced. A graph with no edge (D = 0) is refused by
every report.

Representation similarity between node sets uses linear CKA with column
centering:
    CKA(A, B) = ||B^T A||_F^2 / (||A^T A||_F ||B^T B||_F)
which is 1 on identical inputs and invariant to orthogonal transforms and
nonzero isotropic scaling.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

from reachmix import graphio
from reachmix.graphalg import bfs_distances, diameter_and_components, structural_degrees
from reachmix.mixup import TrainInputs
from reachmix.nn import ModelParams, gcn_forward, softmax

NUM_BUCKETS = 5
REACH_CACHE = ".reach.cache"
# The first line of a reach cache; change the number whenever its layout or
# the meaning of its entry changes, so that every older cache is a miss.
_REACH_MAGIC = b"reachmix reach cache 1\n"


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


def _cached_reach(cache, shape) -> tuple[int, np.ndarray] | None:
    """The diameter and distance matrix of ``(directory, fingerprint)``'s
    ``.reach.cache``, or None unless the file holds a valid entry: a diameter
    D >= 1 and a matrix of ``shape`` in the smallest unsigned dtype that holds
    D, every entry in [1, D] (a labeled node is no unlabeled one, and an
    unreachable pair counts as D)."""
    directory, fingerprint = cache
    arrays = graphio.read_cache(os.path.join(directory, REACH_CACHE), _REACH_MAGIC, fingerprint, 2)
    if arrays is None:
        return None
    diameter, d = arrays
    if diameter.shape != () or diameter.dtype != np.int64:
        return None
    diameter = int(diameter)
    if d.shape == shape and d.dtype == np.min_scalar_type(diameter) and d.min() >= 1 and d.max() <= diameter:
        return diameter, d
    return None


def _labeled_distances(g: csr_array, labeled_ids, cache=None) -> tuple[int, np.ndarray, np.ndarray]:
    """(diameter, unlabeled ids ascending, (|labeled|, |unlabeled|) hop
    distances) with unreachable pairs counted as the diameter; labeled rows
    in ascending id order. The distances are integers in [1, D], in the
    smallest unsigned dtype that holds D, as the cache keeps them.

    The distances are one ``bfs_distances`` call, which runs the labeled
    sources 64 at a time. Their rows are the first block of
    ``diameter_and_components``' bound rounds, so the exact diameter costs
    only the blocks those rows leave open.

    ``cache``, the pair (dataset directory, ``Dataset.fingerprint``) of the
    dataset that ``g`` and ``labeled_ids`` come from, keeps both results in
    ``<directory>/.reach.cache`` (module docstring): a valid entry there is
    read instead of running either, and a computed one is written there.
    """
    labeled_ids = np.asarray(labeled_ids, dtype=np.int64)
    if labeled_ids.size == 0:
        raise ValueError("labeled set must be non-empty")
    unlabeled = np.setdiff1d(np.arange(g.shape[0]), labeled_ids)
    if unlabeled.size == 0:
        raise ValueError("no unlabeled nodes")
    shape = (g.shape[0] - unlabeled.size, unlabeled.size)
    entry = None if cache is None else _cached_reach(cache, shape)
    if entry is not None:
        diameter, d = entry
    else:
        dists = bfs_distances(g, labeled_ids)
        diameter, _ = diameter_and_components(g, dists)
        if diameter == 0:
            raise ValueError("diameter 0: the graph has no edge, so no unlabeled node reaches the labeled set")
        dists = dists[:, unlabeled]
        d = np.where(np.isfinite(dists), dists, diameter).astype(np.min_scalar_type(diameter))
        if cache is not None:
            directory, fingerprint = cache
            graphio.write_cache(os.path.join(directory, REACH_CACHE), _REACH_MAGIC, fingerprint,
                                (np.array(diameter, dtype=np.int64), d), os.path.join(directory, graphio.EDGES_FILE))
    return diameter, unlabeled, d


def reaching_coefficient(g: csr_array, labeled_ids, cache=None) -> RCReport:
    """RC per unlabeled node (see module docstring); ``cache`` as for
    ``_labeled_distances``. A distance takes one of D values, so the term
    1 - log(k) / log(D) is computed once per k and looked up."""
    diameter, unlabeled, d = _labeled_distances(g, labeled_ids, cache)
    if diameter < 2:
        raise ValueError(f"diameter {diameter} < 2: the log-ratio in RC is degenerate")
    ks = np.arange(diameter + 1, dtype=np.float64)
    ks[0] = 1.0  # entry 0 is never read: every distance is at least 1
    terms = 1.0 - np.log(ks) / np.log(float(diameter))
    return RCReport(
        node_ids=unlabeled,
        rc=terms[d].mean(axis=0),
        diameter=diameter,
        min_dist=d.min(axis=0).astype(np.float64),
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


def avg_sp_by_degree(g: csr_array, labeled_ids, cache=None) -> DegreeSPReport:
    """Mean distance to the labeled set, grouped by structural degree.

    Per unlabeled node: the mean BFS distance to every labeled node, with
    unreachable pairs counted as the diameter (same convention as RC); then
    averaged within groups of equal self-loop-free degree. ``cache`` as for
    ``_labeled_distances``.
    """
    _, unlabeled, dists = _labeled_distances(g, labeled_ids, cache)
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

    Returns (r, scores), the true-class scores in ``report.node_ids`` order.
    """
    probs = softmax(representations(params, inputs))
    scores = probs[report.node_ids, inputs.labels[report.node_ids]]
    return pearson(report.rc, scores), scores
