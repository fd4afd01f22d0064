"""Dataset loading, validation, persistence, and synthesis.

A dataset is a directory of four text files:

    edges.tsv     one undirected edge per line, "u<TAB>v", 0-based node ids;
                  '#' starts a comment; duplicates and reversed copies of an
                  edge are merged; self-loop lines are rejected (self-loops
                  are added later by the graph pipeline)
    features.tsv  line i = tab-separated real features of node i; blank
                  lines are skipped, '#' is not a comment; every value must
                  be finite (nan, inf and -inf are rejected, naming the line)
    labels.tsv    line i = integer class label of node i
    split.json    {"labeled": [...], "valid": [...], "test": [...]}

Class indices must be contiguous: every class in [0, C) has at least one
node, so C is recoverable from labels.tsv alone and save/load round-trips.

Each fact of a row (an edge's endpoints, a label's class, a feature's
finiteness) is checked once, where a ``Dataset`` is built; ``load_dataset``
checks only what needs the file's text and names the line of a row fault.
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


class DatasetRowError(ValueError):
    """One row of a dataset table breaks a fact; carries the table
    (``"edges"``, ``"features"``, ``"labels"`` or ``"split"``) and its 0-based
    row, None for the split, whose message names the id instead."""

    def __init__(self, table: str, row: int | None, message: str):
        self.table = table
        self.row = row
        super().__init__(message)


def _check_finite(features: np.ndarray) -> None:
    """Raise ``DatasetRowError`` for the first nan or infinite cell."""
    # min and max propagate nan and show an infinity without an (N, F) mask,
    # which would raise the peak memory of every load.
    if features.size == 0 or (np.isfinite(features.min()) and np.isfinite(features.max())):
        return
    finite = np.isfinite(features)
    node = int(np.argmin(finite.all(axis=1)))
    col = int(np.argmin(finite[node]))
    value = float(features[node, col])
    raise DatasetRowError("features", node, f"non-finite feature {value!r} in column {col + 1} of node {node}")


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
        """Raise ``DatasetRowError`` naming the set and its first id outside [0, N)."""
        for name, arr in (("labeled", self.labeled_ids), ("valid", self.valid_ids), ("test", self.test_ids)):
            bad = arr[(arr < 0) | (arr >= num_nodes)]
            if bad.size:
                raise DatasetRowError("split", None, f"{name} id {bad[0]} outside [0, {num_nodes})")


@dataclass(frozen=True)
class Dataset:
    """Immutable graph dataset: undirected edge list, features, labels, split.

    ``edges`` may list an edge in either direction and more than once; it is
    stored canonical (each edge once, u < v, sorted). A self-loop, an
    endpoint outside [0, N), a label outside [0, C) and a label above a
    class with no nodes raise ``DatasetRowError`` naming the first bad row,
    as does a non-finite feature; a split id outside [0, N) raises one
    naming the id. So whatever ``save_dataset`` writes,
    ``load_dataset`` reads back.
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

        n = self.num_nodes
        if n < 1:
            raise ValueError("num_nodes must be >= 1")
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError(f"features must be (num_nodes, F); got {features.shape} for N={n}")
        _check_finite(features)
        if labels.shape != (n,):
            raise ValueError("labels must have one entry per node")

        lo, hi = edges.min(axis=1), edges.max(axis=1)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            row = int(np.argmax(bad))
            message = (f"self-loop {lo[row]} not allowed in edge list" if lo[row] == hi[row]
                       else "negative node id" if lo[row] < 0 else f"edge endpoint {hi[row]} >= num_nodes {n}")
            raise DatasetRowError("edges", row, message)
        edges = np.unique(np.stack([lo, hi], axis=1), axis=0)

        bad = (labels < 0) | (labels >= self.num_classes)
        if bad.any():
            row = int(np.argmax(bad))
            label = labels[row]
            raise DatasetRowError("labels", row, f"negative label {label}" if label < 0
                                  else f"label {label} >= num_classes {self.num_classes}")
        present = np.unique(labels)
        if present.size < self.num_classes:
            # present[i] - i classes below present[i] have no nodes, so the
            # first empty class is the first i where that is positive. The
            # first label above it is the one that forced the class count.
            gap = int(np.searchsorted(present - np.arange(present.size), 1))
            above = np.flatnonzero(labels > gap)
            if above.size == 0:
                raise ValueError(f"classes {list(range(gap, self.num_classes))} have no nodes; "
                                 "labels must cover 0..C-1")
            row = int(above[0])
            raise DatasetRowError("labels", row, f"label {labels[row]} out of range: class {gap} has no nodes, "
                                                 "so labels are not contiguous")
        self.split.check_ids(n)
        for name, arr in (("edges", edges), ("features", features), ("labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


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


def _line_of_row(path, row: int) -> int:
    """The 1-based line of row ``row`` of a features or labels file: blank
    lines hold no row."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line_no for line_no, line in enumerate(fh, start=1) if line.strip()][row]


def load_dataset(directory) -> Dataset:
    """Load a dataset directory (see module docstring for formats).

    Parses the four files and checks what needs their text; the ``Dataset``
    checks every row fact, and a ``DatasetRowError`` comes back as a
    ``DatasetFormatError`` naming that row's file and line.
    """
    directory = os.fspath(directory)
    edges_path = os.path.join(directory, EDGES_FILE)
    features_path = os.path.join(directory, FEATURES_FILE)
    labels_path = os.path.join(directory, LABELS_FILE)
    split_path = os.path.join(directory, SPLIT_FILE)

    edge_lines = [(line_no, text) for line_no, line in enumerate(_read_lines(edges_path), start=1)
                  if (text := line.split("#", 1)[0].strip())]
    edges = []
    for line_no, text in edge_lines:
        parts = text.split()
        if len(parts) != 2:
            raise DatasetFormatError(edges_path, line_no, f"expected 'u<TAB>v', got {text!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise DatasetFormatError(edges_path, line_no, f"non-integer node id in {text!r}") from None

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
        return Dataset(num_nodes, max(labels) + 1, edges, features, labels, split)
    except DatasetRowError as exc:
        if exc.table == "edges":
            raise DatasetFormatError(edges_path, edge_lines[exc.row][0], str(exc)) from None
        if exc.table == "split":
            raise DatasetFormatError(split_path, None, str(exc)) from None
        path = features_path if exc.table == "features" else labels_path
        raise DatasetFormatError(path, _line_of_row(path, exc.row), str(exc)) from None
    except ValueError as exc:
        raise DatasetFormatError(directory, None, str(exc)) from None


def save_dataset(dataset: Dataset, directory) -> None:
    """Write the four dataset files; a feature is written as the ``repr`` of
    its float, the shortest decimal that reads back to the same bits.

    Only the cells whose bits are not those of ``+0.0`` are formatted. Every
    other cell is the literal ``"0.0"``, which is ``repr(0.0)``, so a sparse
    table costs time in proportion to its stored entries. ``-0.0`` has a set
    sign bit, so it is formatted and keeps its sign.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, EDGES_FILE), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in dataset.edges.tolist()))
    features = dataset.features
    zero_row = ["0.0"] * features.shape[1]
    with open(os.path.join(directory, FEATURES_FILE), "w", encoding="utf-8") as fh:
        for row, bits in zip(features, features.view(np.int64)):
            cols = np.flatnonzero(bits)
            cells = zero_row.copy()
            for col, text in zip(cols.tolist(), map(repr, row[cols].tolist())):
                cells[col] = text
            fh.write("\t".join(cells) + "\n")
    with open(os.path.join(directory, LABELS_FILE), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{lab}\n" for lab in dataset.labels.tolist()))
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
    edges = np.concatenate(blocks, axis=0)

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
