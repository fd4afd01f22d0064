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

import json
import os
from dataclasses import dataclass

import numpy as np

from reachmix.graphalg import (
    CsrGraph,
    add_self_loops,
    diameter_and_components,
    from_edges,
    hop_distances,
    structural_degrees,
    sym_normalize,
)
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
    values: list  # one entry per bucket I..V; None where the bucket was empty
    sample_sizes: list
    seed: int


@dataclass(frozen=True)
class DegreeSPReport:
    degrees: np.ndarray  # structural degree values with >= 1 unlabeled node
    avg_sp: np.ndarray  # mean over those nodes of mean distance to labeled set
    counts: np.ndarray
    node_ids: np.ndarray  # per-unlabeled-node backing data
    node_avg_sp: np.ndarray
    node_degrees: np.ndarray


def _labeled_distances(g: CsrGraph, labeled_ids) -> tuple[int, np.ndarray, np.ndarray]:
    """(diameter, unlabeled ids ascending, (|labeled|, |unlabeled|) hop
    distances) with unreachable pairs counted as the diameter; labeled rows
    in ascending id order."""
    labeled_ids = np.asarray(labeled_ids, dtype=np.int64)
    if labeled_ids.size == 0:
        raise ValueError("labeled set must be non-empty")
    diameter, _ = diameter_and_components(g)
    dists = hop_distances(g, labeled_ids)
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
    If m == 0 every node lands in bucket I.
    """
    if report.node_ids.size == 0:
        raise ValueError("need at least one unlabeled node")
    m = float(report.rc.max())
    if m == 0.0:
        buckets = [report.node_ids] + [np.zeros(0, dtype=np.int64) for _ in range(NUM_BUCKETS - 1)]
        return buckets
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


def representations(params: ModelParams, dataset) -> np.ndarray:
    """Final-layer pre-softmax output in eval mode, one row per node."""
    a_norm = sym_normalize(add_self_loops(from_edges(dataset.num_nodes, dataset.edges)))
    logits, _ = gcn_forward(dataset.features, a_norm, params)
    return logits


def cka_by_bucket(
    params: ModelParams,
    dataset,
    buckets: list[np.ndarray],
    sample_seed: int,
) -> CKAReport:
    """CKA between labeled representations and each RC bucket's.

    Each comparison samples min(|labeled|, |bucket|) nodes from both sets
    without replacement (one seeded stream, buckets in order). The score
    pairs row i of one matrix with row i of the other, so sampled ids are
    sorted to make the pairing canonical; a bucket identical to the labeled
    set then scores exactly 1. Buckets with fewer than 2 nodes are reported
    as absent.
    """
    z = representations(params, dataset)
    labeled = dataset.split.labeled_ids
    rng = np.random.default_rng(sample_seed)
    values, sizes = [], []
    for bucket in buckets:
        m = int(min(labeled.size, bucket.size))
        if m < 2:
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
    return DegreeSPReport(degrees, avg, counts, unlabeled, node_avg, node_deg)


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


def pearson_rc_vs_score(params: ModelParams, dataset, report: RCReport):
    """Correlation between the softmax probability of each unlabeled node's
    true class and its reaching coefficient.

    Returns (r, pairs) where pairs is an (n, 3) array of
    (node_id, rc, true_class_score).
    """
    z = representations(params, dataset)
    probs = softmax(z)
    scores = probs[report.node_ids, dataset.labels[report.node_ids]]
    r = pearson(report.rc, scores)
    pairs = np.stack([report.node_ids.astype(np.float64), report.rc, scores], axis=1)
    return r, pairs


# ---------------------------------------------------------------------------
# Report serialization: TSV tables plus a JSON scalar summary.

def save_rc_report(report: RCReport, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "rc.tsv"), "w", encoding="utf-8") as fh:
        fh.write("node\trc\tmin_dist\tmean_dist\n")
        for i in range(report.node_ids.size):
            fh.write(
                f"{report.node_ids[i]}\t{report.rc[i]!r}\t"
                f"{report.min_dist[i]!r}\t{report.mean_dist[i]!r}\n"
            )
    summary = {
        "diameter": report.diameter,
        "num_unlabeled": int(report.node_ids.size),
        "rc_mean": float(report.rc.mean()),
        "rc_max": float(report.rc.max()),
    }
    with open(os.path.join(outdir, "rc_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


def save_cka_report(report: CKAReport, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "cka.tsv"), "w", encoding="utf-8") as fh:
        fh.write("bucket\tcka\tsample_size\n")
        for k, (value, size) in enumerate(zip(report.values, report.sample_sizes), start=1):
            text = "absent" if value is None else repr(value)
            fh.write(f"{k}\t{text}\t{size}\n")
    summary = {
        "seed": report.seed,
        "values": [None if v is None else float(v) for v in report.values],
        "sample_sizes": [int(s) for s in report.sample_sizes],
    }
    with open(os.path.join(outdir, "cka_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


def save_avgsp_report(report: DegreeSPReport, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "avgsp.tsv"), "w", encoding="utf-8") as fh:
        fh.write("degree\tavg_sp\tcount\n")
        for d, sp, c in zip(report.degrees, report.avg_sp, report.counts):
            fh.write(f"{d}\t{sp!r}\t{c}\n")
    summary = {
        "num_degrees": int(report.degrees.size),
        "global_mean_sp": float(report.node_avg_sp.mean()),
    }
    with open(os.path.join(outdir, "avgsp_summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


def save_pearson_report(r: float, pairs: np.ndarray, outdir) -> None:
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "pearson.tsv"), "w", encoding="utf-8") as fh:
        fh.write("node\trc\ttrue_class_score\n")
        for node, rc_value, score in pairs:
            fh.write(f"{int(node)}\t{rc_value!r}\t{score!r}\n")
    with open(os.path.join(outdir, "pearson_summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"pearson_r": float(r), "n": int(pairs.shape[0])}, fh, indent=1)
        fh.write("\n")
