"""Dataset loading, validation, persistence, and synthesis.

A dataset is a directory of four text files:

    edges.tsv     one undirected edge per line, "u<TAB>v", 0-based node ids;
                  '#' starts a comment; duplicates and reversed copies of an
                  edge are merged; self-loop lines are rejected (self-loops
                  are added later by the graph pipeline)
    features.tsv  a header line "N<TAB>F", then one "row<TAB>col<TAB>value"
                  line per stored entry of the N x F table, 0-based; a cell
                  with no line is +0.0; blank lines are skipped, '#' is not
                  a comment; an index outside [0, N) or [0, F), a repeated
                  (row, col) and a value that is not finite (nan, inf,
                  -inf) are rejected, naming the line, as is a header whose
                  N x F exceeds int64 or whose N + 1 row pointers cannot
                  be allocated; the dense layout of earlier versions, one
                  line of F values per node, is rejected with the fix:
                  write the dataset again
    labels.tsv    line i = integer class label of node i; blank lines are
                  skipped
    split.json    {"labeled": [...], "valid": [...], "test": [...]}, each a
                  list of JSON integers

Each file is UTF-8 text with any newline convention; a byte that is not
UTF-8 is rejected, naming its file, its line and its offset.

Node ids and labels must fit in int64; a value that does not is rejected,
naming its file, its line where there is one, and the value. Every integer
token of the three tables is read as np.loadtxt reads an int64: an optional
sign, then ASCII digits, so ``1_0``, non-ASCII digits and ``1.0`` are
rejected, naming the line.

A dataset's N is its number of labels and its C the largest label plus
one, both read off labels.tsv. Class indices must be contiguous: every
class in [0, C) has at least one node, so save/load round-trips.

Each table is read by ``_table``: one ``np.loadtxt`` into a structured
dtype, a record per row line (edges ``(u, v)``, labels ``(label,)``, feature
entries ``(row, col, value)``), so numpy itself refuses a line of another
width; only then are the lines read one at a time, by the table's
token-syntax fault function, to name the line. So one rule holds for all
three tables: a token-syntax fault is named first; otherwise the first row
or entry whose fact fails is named, by its line. Each fact is checked once:
an edge's and a label's where a ``Dataset`` is built, and a feature entry's
(its indices, its finiteness, its cell given once) in bulk on the parsed
entries.

A dataset's fingerprint is the SHA-256 of the four files in the order
above, each fed as its name and then its bytes (``dataset_fingerprint``).
``load_dataset`` reads each file once, whole, and both hashes and parses
those bytes, so its ``Dataset.fingerprint`` is always the digest of what
was loaded.

``load_dataset`` returns the feature table read-only in its one CSR form,
which this module alone makes (``csr_features``): a float64 ``csr_array``
that stores exactly the cells whose bits are not +0.0's (the entries
``save_dataset`` writes, so ``-0.0`` is kept), each row's columns sorted
and given once, with int32 ``indices`` and ``indptr`` where N, F and the
entry count fit, int64 otherwise. It parses features.tsv once per dataset
content. After a load that passes every check, it leaves the table beside
the file in ``.features.cache``, keyed by the fingerprint; a later load of
the same four files reads the table from there instead of parsing the
text, and runs every check again. A cached table is used only if it is a
valid CSR of the header's shape (``check_format(full_check=True)``,
``indptr`` ending at the entry count) already in the one CSR form; scipy's
sparse kernels do not bounds-check indices, so nothing else reaches them.

Every cache of the package, ``.features.cache`` here and ``diagnostics``'
``.reach.cache``, is one file format, read by ``read_cache`` and written by
``write_cache``: a line naming its layout version, the fingerprint in hex
and a newline, then ``.npy`` arrays, so every bit of every array comes
back. The features cache (version 5) holds the shape, then the CSR's
``data``, ``indices`` and ``indptr`` as they are. A cache is written to a
temporary file beside it, given the permission bits of the data file it
stands for and renamed into place; a directory that cannot be written to
gets none, silently. One that is missing, stale, of another version,
invalid or unreadable is a miss and is replaced; its owner decides what
is valid. Deleting a cache is always safe.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import tempfile
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np
from scipy.sparse import csr_array, issparse

from reachmix.graphalg import index_dtype

EDGES_FILE = "edges.tsv"
FEATURES_FILE = "features.tsv"
LABELS_FILE = "labels.tsv"
SPLIT_FILE = "split.json"
DATASET_FILES = (EDGES_FILE, FEATURES_FILE, LABELS_FILE, SPLIT_FILE)  # in fingerprint order
CACHE_FILE = ".features.cache"
# The first line of a cache file; change the number whenever its layout or
# the meaning of its key or table changes, so that every older cache is a
# miss.
_CACHE_MAGIC = b"reachmix features.tsv cache 5\n"
# One row line of each table, as np.loadtxt reads it.
_EDGE = np.dtype([("u", np.int64), ("v", np.int64)])
_LABEL = np.dtype([("label", np.int64)])
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
# An integer token as np.loadtxt reads one into int64, before the range.
_INT_TOKEN = re.compile(r"[+-]?[0-9]+")
# save_dataset formats this many entries per write, so that the text of a
# dense table is never held whole (a 2709 x 1433 one is 110 MB of it).
_ENTRIES_PER_WRITE = 1 << 16
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


def _non_finite(value: float, node: int, col: int) -> str:
    return f"non-finite feature {value!r} of node {node}, column {col}"


def _check_finite(features) -> None:
    """Raise ``DatasetRowError`` for the first nan or infinite cell, in
    row-major order, of a dense table or of a canonical CSR one."""
    values = features.data if issparse(features) else features
    # min and max propagate nan and show an infinity without an (N, F) mask,
    # which would raise the peak memory of every load.
    if values.size == 0 or (np.isfinite(values.min()) and np.isfinite(values.max())):
        return
    if issparse(features):  # its entries are in row-major order
        i = int(np.argmin(np.isfinite(values)))
        node, col = int(np.searchsorted(features.indptr, i, side="right")) - 1, int(features.indices[i])
        value = values[i]
    else:
        finite = np.isfinite(features)
        node = int(np.argmin(finite.all(axis=1)))
        col = int(np.argmin(finite[node]))
        value = features[node, col]
    raise DatasetRowError("features", node, _non_finite(float(value), node, col))


def _csr(values, cols, indptr, shape) -> csr_array:
    """The CSR form of a table's stored entries, none of them +0.0, given in
    row-major order by their values, columns and row pointers."""
    index = index_dtype(shape, values.size)
    return csr_array((values, cols.astype(index, copy=False), indptr.astype(index, copy=False)), shape=shape)


def csr_features(table) -> csr_array:
    """A feature table, dense or scipy-sparse, in its one CSR form (module
    docstring); a table already in that form is returned as it is. A dense
    table's cells whose bits are not +0.0's are found in one pass over it:
    scipy's ``csr_array(x)`` would drop ``-0.0``, and takes ~4 times as
    long on a 2709 x 1433 bag-of-words table. A sparse table has its
    repeats summed, then its stored +0.0 entries dropped."""
    if not issparse(table):
        x = np.ascontiguousarray(table, dtype=np.float64)
        n, f = x.shape
        cells = np.flatnonzero(x.view(np.int64))
        return _csr(x.ravel()[cells], cells % max(f, 1), np.searchsorted(cells, np.arange(n + 1) * f), (n, f))
    if not (isinstance(table, csr_array) and table.dtype == np.float64 and table.has_canonical_format):
        table = csr_array(table, dtype=np.float64, copy=True)
        table.sum_duplicates()
    stored = table.data.view(np.int64) != 0
    if stored.all() and table.indices.dtype == table.indptr.dtype == index_dtype(table.shape, table.nnz):
        return table
    indptr = np.concatenate(([0], np.cumsum(stored)))[table.indptr]
    return _csr(table.data[stored], table.indices[stored], indptr, table.shape)


def _as_sorted_ids(values, name: str) -> np.ndarray:
    for v in values:  # a bool or a float, Python or numpy, is no id: int() would truncate it
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise ValueError(f"{name} id {v!r} is not an integer")
        if not -2**63 <= int(v) < 2**63:
            raise ValueError(f"{name} id {v!r} lies outside int64")
    ids = np.asarray(sorted(values), dtype=np.int64)
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

    N and C come from ``labels``: its size and its largest value plus one.
    ``labels``, and ``edges`` when it holds an edge, must have an integer
    dtype other than bool, else a ``ValueError`` names the table and dtype.

    ``edges`` may list an edge in either direction and more than once; it is
    stored canonical (each edge once, u < v, sorted). A self-loop, an
    endpoint outside [0, N), a negative label and a label above a class with
    no nodes raise ``DatasetRowError`` naming the first bad row, as does a
    non-finite feature; a split id outside [0, N) raises one naming the id.
    So whatever ``save_dataset`` writes, ``load_dataset`` reads back.

    ``features`` is a dense table, kept dense, or a scipy-sparse one, kept
    in the one CSR form (``csr_features``): a table already in that form,
    as ``load_dataset`` gives, is kept as it is, and any other is copied
    into it, repeats summed.

    ``fingerprint`` is the ``dataset_fingerprint`` of the bytes
    ``load_dataset`` read and parsed, which every loaded dataset carries,
    and None for a dataset built any other way, ``dataclasses.replace``
    included.
    """

    edges: np.ndarray  # (E, 2) int64, u < v
    features: np.ndarray | csr_array  # (N, F) float64, dense or CSR
    labels: np.ndarray  # (N,) int64
    split: SplitSpec
    fingerprint: str | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        edges, labels = np.asarray(self.edges), np.asarray(self.labels)
        for name, table in (("labels", labels), ("edges", edges)):
            if table.dtype.kind not in "iu" and (name == "labels" or table.size):
                raise ValueError(f"{name} must have an integer dtype, not {table.dtype}")
        edges, labels = edges.astype(np.int64, copy=False).reshape(-1, 2), labels.astype(np.int64, copy=False)
        features = self.features
        if issparse(features):
            features = csr_features(features)
        else:
            features = np.ascontiguousarray(np.asarray(features, dtype=np.float64))

        if labels.ndim != 1 or labels.size == 0:
            raise ValueError(f"labels must be a non-empty vector, got shape {labels.shape}")
        n = labels.size
        if features.ndim != 2 or features.shape[0] != n:
            raise ValueError(f"features must be (num_nodes, F); got {features.shape} for N={n}")
        _check_finite(features)

        lo, hi = edges.min(axis=1), edges.max(axis=1)
        bad = (lo == hi) | (lo < 0) | (hi >= n)
        if bad.any():
            row = int(np.argmax(bad))
            message = (f"self-loop {lo[row]} not allowed in edge list" if lo[row] == hi[row]
                       else "negative node id" if lo[row] < 0 else f"edge endpoint {hi[row]} >= num_nodes {n}")
            raise DatasetRowError("edges", row, message)
        # Sorting the key lo * N + hi sorts by (lo, hi). The key is below N²,
        # which int64 holds for any N < 3.03e9, and such a table's labels
        # alone would take 24 GB.
        key = np.sort(lo * n + hi)
        key = np.concatenate((key[:1], key[1:][key[1:] != key[:-1]]))
        lo = key // n
        edges = np.stack([lo, key - lo * n], axis=1)

        if labels.min() < 0:
            row = int(np.argmax(labels < 0))
            raise DatasetRowError("labels", row, f"negative label {labels[row]}")
        present = np.unique(labels)
        if present.size < present[-1] + 1:
            # present[i] - i classes below present[i] have no nodes, so the
            # first empty class is the first i where that is positive. The
            # first label above it is the one that forced the class count.
            gap = int(np.searchsorted(present - np.arange(present.size), 1))
            row = int(np.argmax(labels > gap))
            raise DatasetRowError("labels", row, f"label {labels[row]} out of range: class {gap} has no nodes, "
                                                 "so labels are not contiguous")
        self.split.check_ids(n)
        for name, value in (("edges", edges), ("features", features), ("labels", labels)):
            for arr in (value.data, value.indices, value.indptr) if issparse(value) else (value,):
                arr.setflags(write=False)
            object.__setattr__(self, name, value)

    @property
    def num_nodes(self) -> int:
        return self.labels.size

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


def _read(digest, path) -> bytes:
    """A dataset file's bytes, read whole; feeds ``digest`` the file's name,
    then those bytes."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise DatasetFormatError(path, None, "required file is missing") from None
    digest.update(os.path.basename(path).encode())
    digest.update(data)
    return data


def _text(path, data: bytes) -> io.TextIOWrapper:
    """A stream of the text ``open`` reads from a file of ``data`` (UTF-8,
    universal newlines), decoded a block at a time as it is read: an
    ``io.StringIO`` of the whole text would hold 4 bytes per character.
    ``data`` is checked first: a byte that is not UTF-8 raises
    ``DatasetFormatError`` naming its line and offset."""
    try:
        if not data.isascii():  # ASCII is UTF-8, and isascii allocates nothing
            data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line_no = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise DatasetFormatError(path, line_no, f"byte 0x{data[exc.start]:02x} at offset {exc.start} "
                                                "is not UTF-8") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None)


def dataset_fingerprint(directory) -> str:
    """The hex SHA-256 of the four dataset files as they are now, each fed
    as its name and then its bytes, in ``DATASET_FILES`` order: the digest
    that ``load_dataset`` takes of the bytes it reads."""
    digest = hashlib.sha256()
    for name in DATASET_FILES:
        _read(digest, os.path.join(directory, name))
    return digest.hexdigest()


def read_cache(path, magic: bytes, digest: str, count: int) -> list[np.ndarray] | None:
    """The ``count`` arrays of the cache file at ``path``, or None if it
    does not start with the line ``magic`` and then the line ``digest``, or
    cannot be read: any failure to read a cache is a miss. The arrays are
    checked by their owner, never here."""
    header = magic + digest.encode() + b"\n"
    try:
        with open(path, "rb") as fh:
            if fh.read(len(header)) != header:
                return None
            return [np.lib.format.read_array(fh, allow_pickle=False) for _ in range(count)]
    except Exception:  # numpy raises several types for a cut or garbled cache
        return None


def write_cache(path, magic: bytes, digest: str, arrays, mode_of) -> None:
    """Writes the cache file at ``path``: the line ``magic`` (its layout
    version), the line ``digest`` (its key), then each of ``arrays`` in
    ``.npy`` format, so every bit comes back. It is written beside its place,
    given the permission bits of the data file ``mode_of`` (readable by
    whoever may read the data) and renamed over it, so readers see a whole
    cache or the old one. Where it cannot be written, nothing is left behind
    and nothing is said."""
    directory, name = os.path.split(os.fspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=directory)
        with os.fdopen(fd, "wb") as fh:
            fh.write(magic + digest.encode() + b"\n")
            for array in arrays:
                np.lib.format.write_array(fh, array, allow_pickle=False)
        shutil.copymode(mode_of, tmp)
        os.replace(tmp, path)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _cached_features(directory, features_path, data: bytes, digest: str) -> csr_array | None:
    """The table cached under ``digest`` for features.tsv's bytes ``data``,
    or None if the cache is missing, holds another digest or version, is not
    a whole cache file, or holds anything but a table in the one CSR form
    (``csr_features``) of the header's shape."""
    arrays = read_cache(os.path.join(directory, CACHE_FILE), _CACHE_MAGIC, digest, 4)
    if arrays is None:
        return None
    shape, values, indices, indptr = arrays
    try:
        table = csr_array((values, indices, indptr), shape=tuple(shape.tolist()))
        table.check_format(full_check=True)  # indices within [0, F), indptr non-decreasing from 0
        _, n, f = _header(features_path, data)
        if indptr[-1] == values.size and table.shape == (n, f) and csr_features(table) is table:
            return table
    except Exception:  # scipy raises several types for arrays that are no CSR; the parse decides instead
        pass
    return None


def _is_float_token(token: str) -> bool:
    """Whether np.loadtxt reads ``token`` into a float64: ``float`` also
    takes underscores and non-ASCII digits, which it does not."""
    try:
        float(token)
    except ValueError:
        return False
    return token.isascii() and "_" not in token


def _header(path, data: bytes) -> tuple[int, int, int]:
    """The line number, N and F of the header of features.tsv's bytes
    ``data``: its first line that is not blank. The text is decoded a block
    at a time, as ``open`` reads it, only as far as the header."""
    try:
        for line_no, line in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=None), start=1):
            if text := line.strip():
                break
        else:
            raise DatasetFormatError(path, None, "no feature rows: expected a header line 'N<TAB>F'")
    except UnicodeDecodeError:
        _text(path, data)  # raises DatasetFormatError, naming the byte's line and offset
        raise
    fields = text.split()
    ints = all(map(_INT_TOKEN.fullmatch, fields))
    if len(fields) == 2 and ints and (n := int(fields[0])) >= 0 and (f := int(fields[1])) >= 0:
        if n == 0:
            raise DatasetFormatError(path, line_no, "no feature rows: the header gives N = 0")
        return line_no, n, f
    if fields and not ints and all(map(_is_float_token, fields)):
        raise DatasetFormatError(path, line_no, "a row of F values is the dense layout of earlier versions, "
                                                "which is no longer read; write the dataset again with "
                                                "`reachmix synth` or `reachmix convert-cora`")
    raise DatasetFormatError(path, line_no, f"expected a header 'N<TAB>F' of two non-negative integers, "
                                            f"got {text!r}")


def _int64_fault(name: str, token: str) -> str | None:
    """Why np.loadtxt would not read ``token`` into an int64, calling it
    ``name``; None where it would."""
    if not _INT_TOKEN.fullmatch(token):
        return f"non-integer {name} {token!r}"
    value = int(token)
    return None if _INT64_MIN <= value <= _INT64_MAX else f"{name} {value} outside the int64 range"


def _edge_fault(text: str) -> str | None:
    fields = text.split()
    if len(fields) != 2:
        return f"expected 'u<TAB>v', got {text!r}"
    if not all(map(_INT_TOKEN.fullmatch, fields)):
        return f"non-integer node id in {text!r}"
    return _int64_fault("node id", fields[0]) or _int64_fault("node id", fields[1])


def _entry_fault(text: str) -> str | None:
    fields = text.split()
    if len(fields) != 3:
        return f"expected 3 columns 'row<TAB>col<TAB>value', got {text!r}"
    if fault := _int64_fault("row index", fields[0]) or _int64_fault("column index", fields[1]):
        return fault
    return None if _is_float_token(fields[2]) else f"non-numeric value {fields[2]!r}"


def _row_lines(path, data: bytes, comments: str | None) -> list[tuple[int, str]]:
    """(1-based line, text) of each line of a file's bytes ``data`` that holds
    a row, as np.loadtxt reads one: the line up to its first ``comments``
    mark, stripped, where that is not empty."""
    return [(line_no, text) for line_no, line in enumerate(_text(path, data), start=1)
            if (text := (line.split(comments, 1)[0] if comments else line).strip())]


def _table(path, data: bytes, dtype: np.dtype, comments: str | None, fault, skip: int = 0) -> np.ndarray:
    """The records of ``dtype`` that one ``np.loadtxt`` reads from a file's
    bytes ``data`` after its first ``skip`` lines: blank lines hold no row,
    ``comments`` starts a comment, and a line of another width is refused.
    On a fault, the row lines are read one at a time, and the first for which
    ``fault(text)`` gives a message (None for a row that reads) is named."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(_text(path, data), dtype=dtype, comments=comments, skiprows=skip, ndmin=1)
    except ValueError as exc:  # a token that numpy cannot read, or a line of another width
        message = str(exc)
    for line_no, text in _row_lines(path, data, comments):
        if line_no > skip and (row_fault := fault(text)):
            raise DatasetFormatError(path, line_no, row_fault)
    raise DatasetFormatError(path, None, message)


def _parse_features(path, data: bytes) -> csr_array:
    """The feature table of features.tsv's bytes ``data`` as a CSR array:
    the header sizes its row pointers, ``_table`` parses the entry lines
    after it, the facts of all entries are checked at once, and the entries
    whose bits are not +0.0's are stored, sorted. A fact fault names entry
    i's line: row line i + 1."""
    header_no, n, f = _header(path, data)
    try:
        if n * f > _INT64_MAX:  # the cell keys row * F + col below must fit int64
            raise ValueError
        indptr = np.zeros(n + 1, dtype=np.int64)
    except (ValueError, MemoryError):
        raise DatasetFormatError(path, header_no, f"cannot allocate an N x F table, N = {n}, F = {f}") from None
    entries = _table(path, data, _ENTRY, None, _entry_fault, skip=header_no)
    rows, cols, values = entries["row"], entries["col"], entries["value"]
    bad = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= f) | ~np.isfinite(values)
    # A good entry's key is below N * F. A bad entry's key may wrap, but the
    # bad entry is named before any repeat it fakes.
    keys = rows * f + cols
    order = None
    if bad.any() or not (keys[1:] > keys[:-1]).all():  # save_dataset writes row-major, which needs no sort
        order = np.argsort(keys, kind="stable")  # each cell's entries in file order
        bad[order[1:]] |= keys[order[1:]] == keys[order[:-1]]
    if not bad.any():
        del keys  # freed before the CSR arrays are made, so a load peaks lower
        if order is not None:
            rows, cols, values = rows[order], cols[order], values[order]
        stored = values.view(np.int64) != 0  # not +0.0, as save_dataset writes
        if not stored.all():  # save_dataset writes no +0.0, so its files need no copy
            rows, cols, values = rows[stored], cols[stored], values[stored]
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        return _csr(values, cols, indptr, (n, f))
    i = int(np.argmax(bad))
    row, col, value = int(rows[i]), int(cols[i]), float(values[i])
    lines = _row_lines(path, data, None)
    if not 0 <= row < n:
        message = f"row index {row} outside [0, {n})"
    elif not 0 <= col < f:
        message = f"column index {col} outside [0, {f})"
    elif not math.isfinite(value):
        message = _non_finite(value, row, col)
    else:
        first = int(np.argmax(keys == keys[i]))
        message = f"node {row}, column {col} is given again (first on line {lines[first + 1][0]})"
    raise DatasetFormatError(path, lines[i + 1][0], message)


def load_dataset(directory) -> Dataset:
    """Load a dataset directory (see module docstring for formats).

    Reads each of the four files once, whole, feeding one SHA-256 its name
    and bytes in ``DATASET_FILES`` order; the digest is the cache key and
    the returned ``Dataset.fingerprint``. Everything is parsed from the
    bytes that were hashed, so the fingerprint is always that of what was
    loaded.

    Each table is parsed by one ``_table``. A token-syntax fault is named
    first; otherwise the first row or entry whose fact fails is named by
    its file and line: the ``Dataset`` checks edges and labels, and its
    ``DatasetRowError`` comes back as a ``DatasetFormatError``, and
    ``_parse_features`` checks the feature entries.

    The feature table comes from ``.features.cache`` when that holds the
    fingerprint and a valid CSR table of the header's shape; otherwise
    features.tsv is parsed. After a parse, and only once the ``Dataset`` is
    built, the table is cached under it. Either way the same checks run, so
    the same bytes load to the same dataset, or fail with the same message,
    as without a cache.
    """
    directory = os.fspath(directory)
    paths = [os.path.join(directory, name) for name in DATASET_FILES]
    edges_path, features_path, labels_path, split_path = paths
    digest = hashlib.sha256()
    raw = {path: _read(digest, path) for path in paths}
    fingerprint = digest.hexdigest()
    edges = _table(edges_path, raw[edges_path], _EDGE, "#", _edge_fault).view(np.int64).reshape(-1, 2)

    features = _cached_features(directory, features_path, raw[features_path], fingerprint)
    parsed = features is None
    if parsed:
        features = _parse_features(features_path, raw[features_path])
    num_nodes = features.shape[0]

    labels = _table(labels_path, raw[labels_path], _LABEL, None, partial(_int64_fault, "label"))["label"]
    if labels.size != num_nodes:
        raise DatasetFormatError(labels_path, None, f"{labels.size} labels for {num_nodes} feature rows")

    try:
        blob = json.load(_text(split_path, raw[split_path]))
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
        dataset = Dataset(edges, features, labels, split)
    except DatasetRowError as exc:
        if exc.table in ("edges", "labels"):
            path, comments = (edges_path, "#") if exc.table == "edges" else (labels_path, None)
            raise DatasetFormatError(path, _row_lines(path, raw[path], comments)[exc.row][0], str(exc)) from None
        if exc.table == "split":
            raise DatasetFormatError(split_path, None, str(exc)) from None
        # A parsed table had its finiteness checked with its lines, so this
        # one came from a cache that this module did not write.
        raise DatasetFormatError(os.path.join(directory, CACHE_FILE), None, str(exc)) from None
    except ValueError as exc:
        raise DatasetFormatError(directory, None, str(exc)) from None
    if parsed:
        features = dataset.features
        write_cache(os.path.join(directory, CACHE_FILE), _CACHE_MAGIC, fingerprint,
                    (np.array(features.shape, dtype=np.int64), features.data, features.indices, features.indptr),
                    features_path)
    object.__setattr__(dataset, "fingerprint", fingerprint)
    return dataset


def save_dataset(dataset: Dataset, directory) -> None:
    """Write the four dataset files. features.tsv gets its header ``N<TAB>F``
    and then one ``row<TAB>col<TAB>value`` line per stored entry, in
    row-major order; a value is the ``repr`` of its float, the shortest
    decimal that reads back to the same bits.

    The entries are those of the table's one CSR form (``csr_features``):
    the cells whose bits are not those of ``+0.0``, so a sparse table costs
    time in proportion to its entries. ``-0.0`` has a set sign bit, so it is
    stored and keeps its sign. A dense table and its CSR form write the same
    bytes.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, EDGES_FILE), "w", encoding="utf-8") as fh:
        fh.write("".join(f"{u}\t{v}\n" for u, v in dataset.edges.tolist()))
    features = csr_features(dataset.features)
    rows = np.repeat(np.arange(features.shape[0]), np.diff(features.indptr))
    with open(os.path.join(directory, FEATURES_FILE), "w", encoding="utf-8") as fh:
        fh.write("{}\t{}\n".format(*features.shape))
        for block in range(0, rows.size, _ENTRIES_PER_WRITE):
            r, c, v = (a[block:block + _ENTRIES_PER_WRITE] for a in (rows, features.indices, features.data))
            fh.write("".join(f"{row}\t{col}\t{text}\n" for row, col, text in
                             zip(r.tolist(), c.tolist(), map(repr, v.tolist()))))
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
    if valid_per_class is None:  # never below 0, so a class too small is named by make_split
        valid_per_class = max(0, min(max(1, round(0.15 * n)), n - labels_per_class))

    probe = Dataset(edges, features, labels, SplitSpec([0], [], []))
    split = make_split(probe, labels_per_class, valid_per_class, int(rng.integers(2**63 - 1)))
    return replace(probe, split=split)
