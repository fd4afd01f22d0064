"""Dataset loading, validation, persistence, and synthesis.

A dataset is a directory of four text files:

    edges.tsv     one undirected edge per line, "u<TAB>v", 0-based node ids;
                  '#' starts a comment; duplicates and reversed copies of an
                  edge are merged; self-loop lines are rejected (self-loops
                  are added later by the graph pipeline)
    features.tsv  line i = tab-separated real features of node i; blank
                  lines are skipped, '#' is not a comment; every value must
                  be finite (nan, inf and -inf are rejected, naming the line)
    labels.tsv    line i = integer class label of node i; blank lines are
                  skipped
    split.json    {"labeled": [...], "valid": [...], "test": [...]}, each a
                  list of JSON integers

Node ids and labels must fit in int64; a value that does not is rejected,
naming its file, its line where there is one, and the value.

Class indices must be contiguous: every class in [0, C) has at least one
node, so C is recoverable from labels.tsv alone and save/load round-trips.

Each fact of a row (an edge's endpoints, a label's class, a feature's
finiteness) is checked once, where a ``Dataset`` is built; ``load_dataset``
checks only what needs the file's text and names the line of a row fault.

A dataset's fingerprint is the SHA-256 of the four files in the order
above, each fed as its name and then its bytes (``dataset_fingerprint``).
``load_dataset`` computes it from the bytes it reads, hashing each file once,
and keeps it as ``Dataset.fingerprint``.

``load_dataset`` parses features.tsv once per dataset content. After a load
that passes every check, it leaves the parsed table beside the file in
``.features.cache``, keyed by the fingerprint; a later load of the same four
files reads the table from there instead of parsing the text, and runs every
check again. The cache is a magic line naming its layout version, the hex
digest and a newline, then the float64 table in ``.npy`` format, so every
bit of every cell comes back. A cache that is missing, stale, of another
version or unreadable is ignored and replaced; deleting it is always safe. A
directory that cannot be written to gets no cache.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

EDGES_FILE = "edges.tsv"
FEATURES_FILE = "features.tsv"
LABELS_FILE = "labels.tsv"
SPLIT_FILE = "split.json"
DATASET_FILES = (EDGES_FILE, FEATURES_FILE, LABELS_FILE, SPLIT_FILE)  # in fingerprint order
CACHE_FILE = ".features.cache"
# The first line of a cache file; change the number whenever its layout or
# the meaning of its key or table changes, so that every older cache is a
# miss. Version 2 is keyed by the fingerprint of all four files.
_CACHE_MAGIC = b"reachmix features.tsv cache 2\n"
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1


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

    ``fingerprint`` is the ``dataset_fingerprint`` of the bytes
    ``load_dataset`` read, and None for a dataset built any other way,
    ``with_split`` included.
    """

    num_nodes: int
    num_classes: int
    edges: np.ndarray  # (E, 2) int64, u < v
    features: np.ndarray  # (N, F) float64
    labels: np.ndarray  # (N,) int64
    split: SplitSpec
    fingerprint: str | None = field(default=None, init=False, compare=False, repr=False)

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


def _stamp(path) -> tuple:
    """What changes whenever a file's bytes do: its inode, size and
    modification and status-change times."""
    st = os.stat(path)
    return st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _hash_file(digest, path, keep: bool = False) -> tuple[tuple, list[str] | None]:
    """Feeds ``digest`` a dataset file's name, then its bytes in 1 MiB
    chunks, so that no table passes through one read whole. Returns the
    file's ``_stamp`` from before the read and, with ``keep``, the lines of
    the bytes read, split as ``open`` splits text (UTF-8, universal
    newlines), so that what is parsed is what was hashed."""
    chunks = []
    try:
        stamp = _stamp(path)
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode())
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                if keep:
                    chunks.append(chunk)
    except FileNotFoundError:
        raise DatasetFormatError(path, None, "required file is missing") from None
    lines = io.TextIOWrapper(io.BytesIO(b"".join(chunks)), encoding="utf-8").readlines() if keep else None
    return stamp, lines


def _unchanged(path, stamp: tuple) -> bool:
    """Whether a file still has the ``_stamp`` it had."""
    try:
        return _stamp(path) == stamp
    except OSError:
        return False


def dataset_fingerprint(directory) -> str:
    """The hex SHA-256 of the four dataset files as they are now, each fed
    as its name and then its bytes, in ``DATASET_FILES`` order: the digest
    that ``load_dataset`` takes of the bytes it reads."""
    digest = hashlib.sha256()
    for name in DATASET_FILES:
        _hash_file(digest, os.path.join(directory, name))
    return digest.hexdigest()


def _cache_header(digest: str) -> bytes:
    return _CACHE_MAGIC + digest.encode() + b"\n"


def _cached_features(directory, digest: str) -> np.ndarray | None:
    """The table cached under ``digest``, or None if the cache is missing,
    holds another digest or version, or is not a whole cache file."""
    header = _cache_header(digest)
    try:
        with open(os.path.join(directory, CACHE_FILE), "rb") as fh:
            if fh.read(len(header)) != header:
                return None
            return np.lib.format.read_array(fh, allow_pickle=False)
    except Exception:  # numpy raises several types for a cut or garbled table; the parse decides instead
        return None


def _write_cache(directory, digest: str, features: np.ndarray) -> None:
    """Caches ``features``, parsed from features.tsv, under ``digest``. The
    cache is written beside its place and renamed over it, so readers see a
    whole cache or the old one; where it cannot be written, nothing is left
    behind."""
    features_path = os.path.join(directory, FEATURES_FILE)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=CACHE_FILE, suffix=".tmp", dir=directory)
        with os.fdopen(fd, "wb") as fh:
            fh.write(_cache_header(digest))
            np.lib.format.write_array(fh, features, allow_pickle=False)
        shutil.copymode(features_path, tmp)  # readable by whoever may read the text
        os.replace(tmp, os.path.join(directory, CACHE_FILE))
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _parse_features(path) -> np.ndarray:
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


def _line_of_row(lines, row: int) -> int:
    """The 1-based line of row ``row`` of a features or labels file's
    lines: blank lines hold no row."""
    return [line_no for line_no, line in enumerate(lines, start=1) if line.strip()][row]


def load_dataset(directory) -> Dataset:
    """Load a dataset directory (see module docstring for formats).

    Reads each of the four files once, feeding one SHA-256 its name and
    bytes in ``DATASET_FILES`` order; the digest is the cache key and the
    returned ``Dataset.fingerprint``. Edges, labels and the split are parsed
    from the bytes that were hashed. The loaded files are checked for what
    needs their text; the ``Dataset`` checks every row fact, and a
    ``DatasetRowError`` comes back as a ``DatasetFormatError`` naming that
    row's file and line.

    The feature table comes from ``.features.cache`` when that holds the
    fingerprint, and from ``np.loadtxt`` otherwise. After a parse, and only
    once the ``Dataset`` is built, the table is cached under the
    fingerprint. If features.tsv changed while it was read, the parse may
    have read other bytes than were hashed: then nothing is cached and the
    fingerprint is None. Either way the same checks run, so the same bytes
    load to the same dataset, or fail with the same message, as without a
    cache.
    """
    directory = os.fspath(directory)
    paths = [os.path.join(directory, name) for name in DATASET_FILES]
    edges_path, features_path, labels_path, split_path = paths
    digest = hashlib.sha256()
    (_, edge_text), (stamp, _), (_, label_text), (_, split_text) = (
        _hash_file(digest, path, keep=path != features_path) for path in paths)
    fingerprint = digest.hexdigest()

    edge_lines = [(line_no, text) for line_no, line in enumerate(edge_text, start=1)
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
    try:
        edges = np.array(edges, dtype=np.int64).reshape(-1, 2)
    except OverflowError:  # an id outside int64: name the first
        row, node = next((row, node) for row, edge in enumerate(edges) for node in edge
                         if not _INT64_MIN <= node <= _INT64_MAX)
        raise DatasetFormatError(edges_path, edge_lines[row][0], f"node id {node} outside the int64 range") from None

    features = _cached_features(directory, fingerprint)
    parsed = features is None
    if parsed:
        features = _parse_features(features_path)
    num_nodes = features.shape[0]

    labels = []
    for line_no, line in enumerate(label_text, start=1):
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
        labels = np.array(labels, dtype=np.int64)
    except OverflowError:  # a label outside int64: name the first
        row, label = next((row, label) for row, label in enumerate(labels) if not _INT64_MIN <= label <= _INT64_MAX)
        raise DatasetFormatError(labels_path, _line_of_row(label_text, row),
                                 f"label {label} outside the int64 range") from None

    try:
        blob = json.loads("".join(split_text))
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(split_path, exc.lineno, f"invalid JSON: {exc.msg}") from None
    for key in ("labeled", "valid", "test"):
        if not isinstance(blob, dict) or not isinstance(blob.get(key), list):
            raise DatasetFormatError(split_path, None, f"missing integer array {key!r}")
        for value in blob[key]:
            if type(value) is not int:  # bool is an int subclass, and JSON true is no id
                raise DatasetFormatError(split_path, None, f"{key} id {json.dumps(value)} is not an integer")
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise DatasetFormatError(split_path, None, f"{key} id {value} outside the int64 range")
    try:
        split = SplitSpec(blob["labeled"], blob["valid"], blob["test"])
    except ValueError as exc:
        raise DatasetFormatError(split_path, None, str(exc)) from None

    try:
        dataset = Dataset(num_nodes, int(labels.max()) + 1, edges, features, labels, split)
    except DatasetRowError as exc:
        if exc.table == "edges":
            raise DatasetFormatError(edges_path, edge_lines[exc.row][0], str(exc)) from None
        if exc.table == "labels":
            raise DatasetFormatError(labels_path, _line_of_row(label_text, exc.row), str(exc)) from None
        if exc.table == "split":
            raise DatasetFormatError(split_path, None, str(exc)) from None
        with open(features_path, "r", encoding="utf-8") as fh:
            raise DatasetFormatError(features_path, _line_of_row(fh, exc.row), str(exc)) from None
    except ValueError as exc:
        raise DatasetFormatError(directory, None, str(exc)) from None
    if parsed:
        if _unchanged(features_path, stamp):
            _write_cache(directory, fingerprint, dataset.features)
        else:
            fingerprint = None
    object.__setattr__(dataset, "fingerprint", fingerprint)
    return dataset


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
    if not (np.isfinite(feature_noise) and feature_noise >= 0):
        raise ValueError("feature_noise must be finite and >= 0")

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
