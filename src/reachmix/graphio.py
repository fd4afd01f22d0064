"""Dataset loading, validation, persistence, and synthesis.

A dataset is a directory of four text files:

    edges.tsv     one undirected edge per line, "u<TAB>v", 0-based node ids;
                  '#' starts a comment; duplicates and reversed copies of an
                  edge are merged on load; self-loop lines are rejected
                  (self-loops are added later by the graph pipeline)
    features.tsv  line i = tab-separated real features of node i; blank
                  lines are skipped, '#' is not a comment
    labels.tsv    line i = integer class label of node i
    split.json    {"labeled": [...], "valid": [...], "test": [...]}

Class indices must be contiguous: every class in [0, C) has at least one
node, so C is recoverable from labels.tsv alone and save/load round-trips.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

EDGES_FILE = "edges.tsv"
FEATURES_FILE = "features.tsv"
LABELS_FILE = "labels.tsv"
SPLIT_FILE = "split.json"


class DatasetFormatError(ValueError):
    """A dataset file failed to parse or validate; carries file and line."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        where = f"{path}:{line_no}" if line_no is not None else str(path)
        super().__init__(f"{where}: {message}")


def _as_sorted_ids(values, name: str) -> np.ndarray:
    ids = np.asarray(sorted(int(v) for v in values), dtype=np.int64)
    if ids.size != np.unique(ids).size:
        raise ValueError(f"{name} contains duplicate node ids")
    return ids


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint labeled/validation/test node-id sets; everything not labeled is unlabeled."""

    labeled_ids: np.ndarray
    valid_ids: np.ndarray
    test_ids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labeled_ids", _as_sorted_ids(self.labeled_ids, "labeled_ids"))
        object.__setattr__(self, "valid_ids", _as_sorted_ids(self.valid_ids, "valid_ids"))
        object.__setattr__(self, "test_ids", _as_sorted_ids(self.test_ids, "test_ids"))
        if self.labeled_ids.size == 0:
            raise ValueError("labeled_ids must be non-empty")
        lab, val, tst = set(self.labeled_ids), set(self.valid_ids), set(self.test_ids)
        if lab & val or lab & tst or val & tst:
            raise ValueError("split sets must be pairwise disjoint")
        for arr in (self.labeled_ids, self.valid_ids, self.test_ids):
            arr.setflags(write=False)

    def check_ids(self, num_nodes: int) -> None:
        for name, arr in (("labeled", self.labeled_ids), ("valid", self.valid_ids), ("test", self.test_ids)):
            if arr.size and (arr.min() < 0 or arr.max() >= num_nodes):
                raise ValueError(f"{name} split contains node id outside [0, {num_nodes})")


@dataclass(frozen=True)
class Dataset:
    """Immutable graph dataset: undirected edge list, features, labels, split.

    ``edges`` is deduplicated and canonical (each edge once, u < v, sorted);
    self-loops are not stored.
    """

    num_nodes: int
    num_classes: int
    edges: np.ndarray  # (E, 2) int64, u < v
    features: np.ndarray  # (N, F) float64
    labels: np.ndarray  # (N,) int64
    split: SplitSpec

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

        n = self.num_nodes
        if n < 1:
            raise ValueError("num_nodes must be >= 1")
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError(f"features must be (num_nodes, F); got {features.shape} for N={n}")
        if labels.shape != (n,):
            raise ValueError("labels must have one entry per node")
        if edges.size:
            if edges.min() < 0 or edges.max() >= n:
                raise ValueError("edge endpoint outside [0, num_nodes)")
            if np.any(edges[:, 0] >= edges[:, 1]):
                raise ValueError("edges must be canonical: u < v (no self-loops)")
            order = np.lexsort((edges[:, 1], edges[:, 0]))
            if not np.array_equal(order, np.arange(edges.shape[0])):
                raise ValueError("edges must be sorted lexicographically")
            if np.unique(edges, axis=0).shape[0] != edges.shape[0]:
                raise ValueError("duplicate undirected edge")
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= self.num_classes:
            raise ValueError(f"label outside [0, {self.num_classes})")
        present = np.unique(labels)
        if present.size != self.num_classes:
            missing = sorted(set(range(self.num_classes)) - set(present.tolist()))
            raise ValueError(f"classes {missing} have no nodes; labels must cover 0..C-1")
        self.split.check_ids(n)
        for arr in (edges, features, labels):
            arr.setflags(write=False)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def _canonical_edges(raw: np.ndarray) -> np.ndarray:
    """Symmetrize and deduplicate an arbitrary (E, 2) edge array (no self-loops)."""
    if raw.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    return pairs.astype(np.int64)


def _read_lines(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except FileNotFoundError:
        raise DatasetFormatError(path, None, "required file is missing") from None


def _read_features(path) -> np.ndarray:
    """The feature table in one vectorised parse."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            features = np.loadtxt(path, dtype=np.float64, comments=None, ndmin=2, encoding="utf-8")
    except FileNotFoundError:
        raise DatasetFormatError(path, None, "required file is missing") from None
    except ValueError as exc:  # ragged rows or non-numeric tokens; numpy names the row
        raise DatasetFormatError(path, None, str(exc)) from None
    if features.shape[0] == 0:
        raise DatasetFormatError(path, None, "no feature rows")
    return features


def load_dataset(directory) -> Dataset:
    """Load and validate a dataset directory (see module docstring for formats)."""
    directory = os.fspath(directory)
    edges_path = os.path.join(directory, EDGES_FILE)
    features_path = os.path.join(directory, FEATURES_FILE)
    labels_path = os.path.join(directory, LABELS_FILE)
    split_path = os.path.join(directory, SPLIT_FILE)

    raw_edges = []
    for line_no, line in enumerate(_read_lines(edges_path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if len(parts) != 2:
            raise DatasetFormatError(edges_path, line_no, f"expected 'u<TAB>v', got {text!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise DatasetFormatError(edges_path, line_no, f"non-integer node id in {text!r}") from None
        if u == v:
            raise DatasetFormatError(edges_path, line_no, f"self-loop {u} not allowed in edge list")
        if u < 0 or v < 0:
            raise DatasetFormatError(edges_path, line_no, "negative node id")
        raw_edges.append((u, v))

    features = _read_features(features_path)
    num_nodes = features.shape[0]

    labels = []
    for line_no, line in enumerate(_read_lines(labels_path), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            labels.append(int(text))
        except ValueError:
            raise DatasetFormatError(labels_path, line_no, f"non-integer label {text!r}") from None
    if len(labels) != num_nodes:
        raise DatasetFormatError(labels_path, None, f"{len(labels)} labels for {num_nodes} feature rows")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.min() < 0:
        bad = int(np.argmin(labels)) + 1
        raise DatasetFormatError(labels_path, bad, f"negative label {labels[bad - 1]}")
    num_classes = int(labels.max()) + 1
    present = set(np.unique(labels).tolist())
    missing = sorted(set(range(num_classes)) - present)
    if missing:
        # Report the first line whose label sits above the gap: that label is
        # what forced the (impossible) class count.
        gap = missing[0]
        line_of = int(np.nonzero(labels > gap)[0][0]) + 1
        raise DatasetFormatError(
            labels_path, line_of,
            f"label {labels[line_of - 1]} out of range: class {gap} has no nodes, so labels are not contiguous",
        )

    edges = _canonical_edges(np.asarray(raw_edges, dtype=np.int64).reshape(-1, 2))
    if edges.size and edges.max() >= num_nodes:
        raise DatasetFormatError(edges_path, None, f"edge endpoint {edges.max()} >= num_nodes {num_nodes}")

    try:
        with open(split_path, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except FileNotFoundError:
        raise DatasetFormatError(split_path, None, "required file is missing") from None
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(split_path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    for key in ("labeled", "valid", "test"):
        if key not in blob or not isinstance(blob[key], list):
            raise DatasetFormatError(split_path, None, f"missing integer array {key!r}")
    try:
        split = SplitSpec(blob["labeled"], blob["valid"], blob["test"])
    except ValueError as exc:
        raise DatasetFormatError(split_path, None, str(exc)) from None

    try:
        return Dataset(num_nodes, num_classes, edges, features, labels, split)
    except ValueError as exc:
        raise DatasetFormatError(directory, None, str(exc)) from None


def save_dataset(dataset: Dataset, directory) -> None:
    """Write the four dataset files; floats use shortest exact decimal form."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, EDGES_FILE), "w", encoding="utf-8") as fh:
        for u, v in dataset.edges:
            fh.write(f"{u}\t{v}\n")
    with open(os.path.join(directory, FEATURES_FILE), "w", encoding="utf-8") as fh:
        for row in dataset.features:
            fh.write("\t".join(map(repr, row.tolist())) + "\n")
    with open(os.path.join(directory, LABELS_FILE), "w", encoding="utf-8") as fh:
        for lab in dataset.labels:
            fh.write(f"{lab}\n")
    split = {
        "labeled": dataset.split.labeled_ids.tolist(),
        "valid": dataset.split.valid_ids.tolist(),
        "test": dataset.split.test_ids.tolist(),
    }
    with open(os.path.join(directory, SPLIT_FILE), "w", encoding="utf-8") as fh:
        json.dump(split, fh, indent=1)
        fh.write("\n")


def with_split(dataset: Dataset, split: SplitSpec) -> Dataset:
    """Same graph/features/labels under a different split."""
    return replace(dataset, split=split)


def make_split(dataset: Dataset, labels_per_class: int, valid_per_class: int, seed: int) -> SplitSpec:
    """Sample a per-class split: T labeled + V validation nodes per class, rest test.

    Sampling is uniform without replacement and fully determined by ``seed``.
    """
    if labels_per_class < 1:
        raise ValueError("labels_per_class must be >= 1")
    if valid_per_class < 0:
        raise ValueError("valid_per_class must be >= 0")
    rng = np.random.default_rng(seed)
    labeled, valid = [], []
    need = labels_per_class + valid_per_class
    for c in range(dataset.num_classes):
        ids = np.nonzero(dataset.labels == c)[0]
        if ids.size < need:
            raise ValueError(f"class {c} has {ids.size} nodes, needs {need} for the requested split")
        chosen = rng.choice(ids, size=need, replace=False)
        labeled.extend(chosen[:labels_per_class].tolist())
        valid.extend(chosen[labels_per_class:].tolist())
    taken = np.zeros(dataset.num_nodes, dtype=bool)
    taken[labeled] = True
    taken[valid] = True
    test = np.nonzero(~taken)[0]
    return SplitSpec(labeled, valid, test)


def generate_sbm(
    num_classes: int,
    nodes_per_class: int,
    p_in: float,
    p_out: float,
    feature_dim: int,
    feature_noise: float,
    seed: int,
    labels_per_class: int | None = None,
    valid_per_class: int | None = None,
) -> Dataset:
    """Synthesize a stochastic-block-model dataset.

    Nodes are grouped by class in contiguous blocks; each intra-class pair is
    an edge with probability ``p_in`` and each inter-class pair with ``p_out``.
    Features are the one-hot class centroid embedded in ``feature_dim``
    dimensions plus isotropic Gaussian noise of scale ``feature_noise``.
    Edge sampling consumes the seeded stream block by block (classes in
    ascending order), then features, then the split, so output is fully
    deterministic for a fixed seed.

    The default split labels ~5% and holds out ~15% of each class for
    validation; pass explicit counts (or re-split with ``make_split``) for
    anything that matters.
    """
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError("require 0 <= p_out < p_in <= 1")
    if num_classes < 1 or nodes_per_class < 1:
        raise ValueError("counts must be >= 1")
    if feature_dim < num_classes:
        raise ValueError("feature_dim must be >= num_classes to embed class centroids")
    if feature_noise < 0:
        raise ValueError("feature_noise must be >= 0")

    rng = np.random.default_rng(seed)
    n = nodes_per_class
    num_nodes = num_classes * n
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n)

    blocks = []
    for a in range(num_classes):
        # Within-block: upper triangle only.
        r = rng.random((n, n))
        iu, ju = np.nonzero(np.triu(r < p_in, k=1))
        blocks.append(np.stack([iu + a * n, ju + a * n], axis=1))
        for b in range(a + 1, num_classes):
            if p_out > 0.0:
                r = rng.random((n, n))
                ii, jj = np.nonzero(r < p_out)
                blocks.append(np.stack([ii + a * n, jj + b * n], axis=1))
    edges = _canonical_edges(np.concatenate(blocks, axis=0) if blocks else np.zeros((0, 2), dtype=np.int64))

    centroids = np.zeros((num_classes, feature_dim))
    centroids[np.arange(num_classes), np.arange(num_classes)] = 1.0
    features = centroids[labels]
    if feature_noise > 0.0:
        features = features + feature_noise * rng.standard_normal((num_nodes, feature_dim))

    if labels_per_class is None:
        labels_per_class = max(1, round(0.05 * n))
    if valid_per_class is None:
        valid_per_class = min(max(1, round(0.15 * n)), n - labels_per_class)

    probe = Dataset(
        num_nodes, num_classes, edges, features, labels,
        SplitSpec([0], [], []),
    )
    split = make_split(probe, labels_per_class, valid_per_class, int(rng.integers(2**63 - 1)))
    return with_split(probe, split)
