import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from conftest import dense_table, path_dataset
from reachmix import graphio
from reachmix.graphio import (
    Dataset,
    DatasetFormatError,
    DatasetRowError,
    SplitSpec,
    generate_sbm,
    load_dataset,
    make_split,
    save_dataset,
)
from reachmix.trainer import build_operators


PATH_EDGES = "0\t1\n1\t2\n"
PATH_FEATURES = "3\t1\n0\t0\t1.0\n1\t0\t2.0\n2\t0\t3.0\n"  # the 3 x 1 table [[1], [2], [3]]
PATH_LABELS = "0\n1\n0\n"
TWO_NODE_FEATURES = "2\t1\n0\t0\t1.0\n1\t0\t2.0\n"


def write_dataset_dir(tmp_path, edges_text, features_text, labels_text, split):
    (tmp_path / "edges.tsv").write_text(edges_text)
    (tmp_path / "features.tsv").write_text(features_text)
    (tmp_path / "labels.tsv").write_text(labels_text)
    (tmp_path / "split.json").write_text(json.dumps(split))
    return tmp_path


def test_load_three_node_path(tmp_path):
    d = write_dataset_dir(
        tmp_path,
        "0\t1\n1\t2\n",
        "3\t2\n0\t0\t1.0\n1\t1\t1.0\n2\t0\t0.5\n2\t1\t0.5\n",
        "0\n1\n0\n",
        {"labeled": [0], "valid": [1], "test": [2]},
    )
    ds = load_dataset(d)
    assert ds.num_nodes == 3
    assert ds.edges.shape == (2, 2)
    assert ds.num_classes == 2
    np.testing.assert_array_equal(ds.edges, [[0, 1], [1, 2]])


def test_load_symmetrizes_and_dedupes(tmp_path):
    d = write_dataset_dir(
        tmp_path,
        "0 1\n1 0\n# comment line\n0\t1  # trailing comment\n",
        TWO_NODE_FEATURES,
        "0\n1\n",
        {"labeled": [0], "valid": [], "test": [1]},
    )
    ds = load_dataset(d)
    assert ds.edges.shape == (1, 2)
    np.testing.assert_array_equal(ds.edges, [[0, 1]])


def test_label_out_of_range_reports_line(tmp_path):
    d = write_dataset_dir(
        tmp_path,
        "0\t1\n",
        "4\t1\n0\t0\t1.0\n1\t0\t2.0\n2\t0\t3.0\n3\t0\t4.0\n",
        "0\n1\n2\n7\n",
        {"labeled": [0], "valid": [], "test": [1]},
    )
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(d)
    assert "labels.tsv:4" in str(err.value)
    assert "7" in str(err.value)


def test_missing_file_is_reported(tmp_path):
    (tmp_path / "edges.tsv").write_text("")
    with pytest.raises(DatasetFormatError, match="missing"):
        load_dataset(tmp_path)


def test_malformed_edge_line(tmp_path):
    d = write_dataset_dir(
        tmp_path, "0\t1\textra\n", TWO_NODE_FEATURES, "0\n1\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match="edges.tsv:1"):
        load_dataset(d)


def test_out_of_range_edge_endpoint_names_its_line(tmp_path):
    # Line 2 is a comment and line 4 is blank; the first bad edge is on line 5.
    d = write_dataset_dir(
        tmp_path, "0\t1\n# comment\n1\t2\n\n2\t5\n7\t0\n", PATH_FEATURES, "0\n1\n0\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match=r"edges\.tsv:5: edge endpoint 5 >= num_nodes 3$"):
        load_dataset(d)


def test_self_loop_edge_rejected(tmp_path):
    d = write_dataset_dir(
        tmp_path, "1\t1\n", TWO_NODE_FEATURES, "0\n1\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match="self-loop"):
        load_dataset(d)




@pytest.mark.parametrize("file, text, line, message", [
    # The edge faults follow a comment line and a blank line, which hold no row.
    ("edges.tsv", "0\t1\n# comment\n\n2\t2\n", 4, "self-loop 2 not allowed in edge list"),
    ("edges.tsv", "0\t1\n# comment\n\n-1\t2\n", 4, "negative node id"),
    ("edges.tsv", "0\t1\n# comment\n\n1\t3\n", 4, "edge endpoint 3 >= num_nodes 3"),
    ("labels.tsv", "0\n-1\n1\n", 2, "negative label -1"),
    ("labels.tsv", "0\n2\n0\n", 2, "label 2 out of range: class 1 has no nodes, so labels are not contiguous"),
    ("features.tsv", "3\t1\n0\t0\t1.0\n\n1\t0\tnan\n2\t0\t3.0\n", 4, "non-finite feature nan of node 1, column 0"),
    # Tables of whole int64 rows of the wrong width.
    ("edges.tsv", "# comment\n0 1 2\n1 2 0\n", 2, "expected 'u<TAB>v', got '0 1 2'"),
    ("labels.tsv", "\n0 1\n1 0\n0 1\n", 2, "non-integer label '0 1'"),
    # Integers that Python's int reads and np.loadtxt's int64 does not.
    ("edges.tsv", "0\t1\n1_0\t2\n", 2, "non-integer node id in '1_0\\t2'"),
    ("edges.tsv", "0\t1\n# c\n1\t\u0662\n", 3, "non-integer node id in '1\\t\u0662'"),
    ("edges.tsv", "0\t1.0\n", 1, "non-integer node id in '0\\t1.0'"),
    ("labels.tsv", "0\n1_0\n0\n", 2, "non-integer label '1_0'"),
    ("labels.tsv", "0\n\n\u0661\n0\n", 3, "non-integer label '\u0661'"),
    ("labels.tsv", "0\n1.0\n0\n", 2, "non-integer label '1.0'"),
], ids=["self-loop", "negative-id", "endpoint", "negative-label", "label-gap", "non-finite", "three-columns",
        "two-label-columns", "edge-underscore", "edge-arabic-indic-digit", "edge-float", "label-underscore",
        "label-arabic-indic-digit", "label-float"])
def test_single_fault_names_file_line_and_message(tmp_path, file, text, line, message):
    texts = {"edges.tsv": PATH_EDGES, "features.tsv": PATH_FEATURES, "labels.tsv": PATH_LABELS, file: text}
    d = write_dataset_dir(tmp_path, texts["edges.tsv"], texts["features.tsv"], texts["labels.tsv"],
                          {"labeled": [0], "valid": [1], "test": [2]})
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(d)
    assert str(err.value) == f"{d / file}:{line}: {message}"
    assert (err.value.path, err.value.line_no) == (str(d / file), line)


# --- edges.tsv and labels.tsv, each parsed by one np.loadtxt --------------

@st.composite
def edge_and_label_files(draw):
    """(N, edge pairs, labels, edges.tsv bytes, labels.tsv bytes): each edge
    in either order, some given again reversed or as they are, tokens with
    and without '+', comments, blank lines and one newline convention."""
    n = draw(st.integers(2, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=25))
    pairs += [draw(st.sampled_from([(u, v), (v, u)])) for u, v in pairs if draw(st.booleans())]
    token = st.sampled_from(["", "+"])
    lines = []
    for u, v in draw(st.permutations(pairs)):
        sep = draw(st.sampled_from(["\t", " ", " \t "]))
        comment = draw(st.sampled_from(["", "  # note", "\t#"]))
        lines.append(f"{draw(token)}{u}{sep}{draw(token)}{v}{comment}")
        lines += draw(st.lists(st.sampled_from(["", "# 0\t1", " \t", "#"]), max_size=1))
    labels = [i % 2 for i in range(n)]
    label_lines = [f"{draw(token)}{label}" for label in labels]
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    edges_text = newline.join(lines) + draw(st.sampled_from(["", newline]))
    labels_text = newline.join(label_lines) + newline + draw(st.sampled_from(["", newline, " " + newline]))
    return n, pairs, labels, edges_text.encode(), labels_text.encode()


@settings(max_examples=80, deadline=None)
@given(edge_and_label_files())
@example((3, [], [0, 1, 0], b"", b"0\n1\n0\n"))
@example((3, [(2, 0), (0, 2), (1, 0)], [0, 1, 0], b"2 0\r\n# c\r\n+0\t+2\r\n\r\n1 0 # x\r\n", b"0\r+1\r0\r"))
def test_edge_and_label_files_load_as_their_canonical_tables(tmp_path_factory, case):
    n, pairs, labels, edges_data, labels_data = case
    d = write_dataset_dir(tmp_path_factory.mktemp("int-tables"), "", f"{n}\t1\n", "",
                          {"labeled": [0], "valid": [], "test": []})
    (d / "edges.tsv").write_bytes(edges_data)
    (d / "labels.tsv").write_bytes(labels_data)
    ds = load_dataset(d)
    expected = np.unique(np.sort(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1), axis=0)
    assert ds.edges.dtype == expected.dtype == np.int64
    assert ds.edges.shape == expected.shape and ds.edges.tobytes() == expected.tobytes()
    assert not ds.edges.flags.writeable
    assert ds.labels.dtype == np.int64 and ds.labels.tolist() == labels


@pytest.mark.parametrize("text", ["", "\n\n", "# no edges\n", " \t\r\n"], ids=["empty", "blank", "comment", "space"])
def test_an_edge_file_with_no_edge_loads(tmp_path, text):
    d = write_dataset_dir(tmp_path, text, PATH_FEATURES, PATH_LABELS, {"labeled": [0], "valid": [1], "test": [2]})
    edges = load_dataset(d).edges
    assert edges.shape == (0, 2) and edges.dtype == np.int64


def test_label_fault_line_skips_blank_lines(tmp_path):
    d = write_dataset_dir(tmp_path, PATH_EDGES, PATH_FEATURES, "0\n\n1\n\n-3\n",
                          {"labeled": [0], "valid": [1], "test": [2]})
    with pytest.raises(DatasetFormatError, match=r"labels\.tsv:5: negative label -3$"):
        load_dataset(d)


@pytest.mark.parametrize("split, message", [
    ({"labeled": [0], "valid": [1], "test": [7, 2, 5]}, "test id 5 outside [0, 3)"),
    ({"labeled": [0, -2], "valid": [1], "test": [2]}, "labeled id -2 outside [0, 3)"),
], ids=["above", "negative"])
def test_split_id_fault_names_file_and_id(tmp_path, split, message):
    d = write_dataset_dir(tmp_path, PATH_EDGES, PATH_FEATURES, PATH_LABELS, split)
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(d)
    assert str(err.value) == f"{d / 'split.json'}: {message}"
    assert (err.value.path, err.value.line_no) == (str(d / "split.json"), None)


def row_fault(edges=((0, 1),), features=None, labels=(0, 1, 0)):
    features = np.ones((3, 2)) if features is None else features
    with pytest.raises(DatasetRowError) as err:
        Dataset(np.array(edges), features, np.array(labels), SplitSpec([0], [], []))
    return err.value.table, err.value.row, str(err.value)


def test_dataset_reports_the_first_bad_row_of_each_table():
    assert row_fault(edges=[(0, 1), (2, 1), (0, 3), (1, 1)]) == ("edges", 2, "edge endpoint 3 >= num_nodes 3")
    assert row_fault(edges=[(0, 1), (-1, 5)]) == ("edges", 1, "negative node id")
    assert row_fault(edges=[(2, 1), (-1, -1)]) == ("edges", 1, "self-loop -1 not allowed in edge list")
    assert row_fault(labels=(0, 2, -1)) == ("labels", 2, "negative label -1")
    assert row_fault(labels=(0, 3, 3)) == (
        "labels", 1, "label 3 out of range: class 1 has no nodes, so labels are not contiguous")
    assert row_fault(labels=(0, 1, 3)) == (
        "labels", 2, "label 3 out of range: class 2 has no nodes, so labels are not contiguous")
    features = np.ones((3, 2))
    features[1, 0] = -np.inf
    assert row_fault(features=features) == ("features", 1, "non-finite feature -inf of node 1, column 0")


def test_dataset_reads_n_and_c_off_its_labels():
    ds = Dataset(np.zeros((0, 2)), np.ones((4, 1)), np.array([0, 2, 1, 2]), SplitSpec([0], [], []))
    assert (ds.num_nodes, ds.num_classes, ds.num_features) == (4, 3, 1)
    assert [f.name for f in fields(Dataset) if f.init] == ["edges", "features", "labels", "split"]
    with pytest.raises(ValueError, match=r"^labels must be a non-empty vector, got shape \(0,\)$"):
        Dataset(np.zeros((0, 2)), np.ones((0, 1)), np.zeros(0, dtype=np.int64), SplitSpec([0], [], []))
    with pytest.raises(ValueError, match=r"^features must be \(num_nodes, F\); got \(3, 1\) for N=4$"):
        Dataset(np.zeros((0, 2)), np.ones((3, 1)), np.array([0, 2, 1, 2]), SplitSpec([0], [], []))


@pytest.mark.parametrize("table, value, dtype", [
    ("labels", np.array([0.7, 1.9, 0.2]), "float64"),
    ("labels", np.array([0.0, np.nan, 1.0]), "float64"),
    ("labels", np.array([True, False, True]), "bool"),
    ("edges", np.array([[0.0, 1.5]]), "float64"),
    ("edges", np.array([[True, False]]), "bool"),
], ids=["float-labels", "nan-label", "bool-labels", "float-edges", "bool-edges"])
def test_dataset_refuses_tables_that_are_not_integer(table, value, dtype):
    """A float or bool would be truncated to an integer node id or class."""
    with pytest.raises(ValueError, match=f"^{table} must have an integer dtype, not {dtype}$"):
        replace(path_dataset(), **{table: value})


def test_dataset_stores_the_canonical_edge_list(rng):
    raw = np.array([[2, 0], [0, 2], [1, 0], [2, 0], [0, 1], [3, 1], [1, 3]])
    ds = Dataset(raw, np.ones((4, 1)), np.zeros(4, dtype=np.int64), SplitSpec([0], [], []))
    assert ds.edges.dtype == np.int64 and not ds.edges.flags.writeable
    np.testing.assert_array_equal(ds.edges, [[0, 1], [0, 2], [1, 3]])
    again = replace(ds, split=SplitSpec([1], [2], []))
    assert again.edges.shape == ds.edges.shape and again.edges.tobytes() == ds.edges.tobytes()
    for _ in range(20):
        n = int(rng.integers(2, 30))
        raw = rng.integers(0, n, size=(int(rng.integers(0, 80)), 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        oracle = sorted({(min(u, v), max(u, v)) for u, v in raw.tolist()})
        edges = Dataset(raw, np.ones((n, 1)), np.zeros(n, dtype=np.int64), SplitSpec([0], [], [])).edges
        assert edges.tolist() == [list(e) for e in oracle] and edges.shape == (len(oracle), 2)


def test_dimension_mismatch(tmp_path):
    d = write_dataset_dir(
        tmp_path, "0\t1\n", TWO_NODE_FEATURES, "0\n1\n0\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match="labels"):
        load_dataset(d)


@pytest.mark.parametrize(
    "features_text, message",
    [
        ("2\t2\n0\t0\t1.0\n1\t1\n", "columns"),  # an entry line of two fields
        ("2\t2\n0\t0\t1.0\n1\t1\tabc\n", "abc"),  # non-numeric token
        ("2\t2\n0\t0\t1.0 # note\n1\t1\t4.0\n", "#"),  # '#' is a token, not a comment
        ("", "no feature rows"),
        ("\n  \t\n", "no feature rows"),
    ],
)
def test_malformed_features_name_the_file(tmp_path, features_text, message):
    d = write_dataset_dir(
        tmp_path, "0\t1\n", features_text, "0\n1\n", {"labeled": [0], "valid": [], "test": [1]},
    )
    with pytest.raises(DatasetFormatError, match="features.tsv") as err:
        load_dataset(d)
    assert message in str(err.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_feature_names_file_and_line(tmp_path, token):
    # Line 4 is blank; the first non-finite entry, on line 6, is named, not
    # the row-major first.
    d = write_dataset_dir(
        tmp_path, "0\t1\n", f"3\t2\n0\t0\t1.0\n0\t1\t2.0\n\n1\t0\t3.0\n2\t0\t{token}\n1\t1\t{token}\n",
        "0\n1\n0\n", {"labeled": [0], "valid": [], "test": [1]},
    )
    with pytest.raises(DatasetFormatError,
                       match=rf"features\.tsv:6: non-finite feature {token} of node 2, column 0$"):
        load_dataset(d)


def test_features_blank_lines_are_skipped(tmp_path):
    d = write_dataset_dir(
        tmp_path, "0\t1\n", "\n2\t2\n0\t0\t1.0\n\n  \n0\t1\t2.0\n1\t0\t3.0\n\n1\t1\t4.0\n\n", "0\n1\n",
        {"labeled": [0], "valid": [], "test": [1]},
    )
    np.testing.assert_array_equal(load_dataset(d).features.toarray(), [[1.0, 2.0], [3.0, 4.0]])


@st.composite
def features_with_one_fact_fault(draw):
    """(N, features.tsv text, line, message): the entries of an N x F table
    in any order, with blank lines, and one more entry that breaks a fact:
    an index out of range, a value that is not finite, or a cell that an
    earlier entry gave after blank lines."""
    n, f = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, f - 1)), unique=True, min_size=1,
                          max_size=n * f))
    values = [repr(draw(st.floats(allow_nan=False, allow_infinity=False))) for _ in cells]
    kind = draw(st.sampled_from(["row", "column", "non-finite", "repeat"]))
    at = draw(st.integers(1 if kind == "repeat" else 0, len(cells)))  # the planted entry's index
    row, col = draw(st.sampled_from(cells[:at] if kind == "repeat" else cells))
    value = "1.0"
    if kind == "row":
        row = draw(st.sampled_from([-1, n, n + 2**40, -(2**63)]))
        message = f"row index {row} outside [0, {n})"
    elif kind == "column":
        col = draw(st.sampled_from([-1, f, f + 2**40, 2**63 - 1]))
        message = f"column index {col} outside [0, {f})"
    elif kind == "non-finite":
        value = draw(st.sampled_from(["nan", "inf", "-inf", "1e999", "+NaN"]))
        message = f"non-finite feature {float(value)!r} of node {row}, column {col}"
    first = cells.index((row, col)) if kind == "repeat" else None
    cells.insert(at, (row, col))
    values.insert(at, value)
    blank = st.sampled_from(["", " ", "\t "])
    lines = draw(st.lists(blank, max_size=2)) + [f"{n}\t{f}"]
    entry_lines = []
    for i, (cell, text) in enumerate(zip(cells, values)):
        lines += draw(st.lists(blank, min_size=int(i == first), max_size=2))
        lines.append("{}\t{}\t{}".format(*cell, text))
        entry_lines.append(len(lines))
    if kind == "repeat":
        message = f"node {row}, column {col} is given again (first on line {entry_lines[first]})"
    return n, "\n".join(lines) + "\n", entry_lines[at], message


@settings(max_examples=150, deadline=None)
@given(features_with_one_fact_fault())
@example((3, "3\t2\n\n1\t1\t2.0\n0\t0\t1.0\n1\t1\t3.0\n", 5, "node 1, column 1 is given again (first on line 3)"))
def test_a_fact_fault_names_its_entry_line(tmp_path_factory, case):
    n, text, line, message = case
    d = write_dataset_dir(tmp_path_factory.mktemp("fact"), "", text, "0\n" * n,
                          {"labeled": [0], "valid": [], "test": []})
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(d)
    assert str(err.value) == f"{d / 'features.tsv'}:{line}: {message}"


def test_save_features_bytes_are_shortest_repr(tmp_path):
    # -0.0 keeps its sign, the smallest subnormal and a value that needs all
    # 17 significant digits are written exactly and read back bit for bit.
    features = np.array([[-0.0, 5e-324, 0.1 + 0.2], [1.0, 0.0, 1e300]])
    ds = Dataset(np.array([[0, 1]]), features, np.array([0, 1]), SplitSpec([0], [], [1]))
    save_dataset(ds, tmp_path)
    assert (tmp_path / "features.tsv").read_bytes() == (b"2\t3\n0\t0\t-0.0\n0\t1\t5e-324\n0\t2\t0.30000000000000004\n"
                                                       b"1\t0\t1.0\n1\t2\t1e+300\n")
    back = load_dataset(tmp_path).features
    assert dense_table(back).tobytes() == features.tobytes()


def features_dataset(features):
    n = features.shape[0]
    return Dataset(np.zeros((0, 2)), features, np.zeros(n, dtype=np.int64), SplitSpec([0], [], []))


def repr_oracle(features):
    """The features.tsv bytes built cell by cell: the header, then a line
    for each cell that is not +0.0, with its value formatted on its own."""
    lines = [f"{features.shape[0]}\t{features.shape[1]}\n"]
    for i, row in enumerate(features.tolist()):
        lines += [f"{i}\t{j}\t{v!r}\n" for j, v in enumerate(row) if v != 0.0 or math.copysign(1.0, v) < 0]
    return "".join(lines).encode()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 0.1 + 0.2, 1 / 3, -2 / 3, 1e300, -1e300]
CELLS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
STORED_CELLS = CELLS.filter(lambda v: np.float64(v).view(np.int64) != 0)  # anything but +0.0


@st.composite
def feature_matrices(draw):
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.sampled_from(["zero", "dense", "mixed"]), min_size=1, max_size=6))
    cells = {"zero": st.just(0.0), "dense": STORED_CELLS, "mixed": CELLS}
    table = np.array([draw(st.lists(cells[kind], min_size=width, max_size=width)) for kind in rows])
    # Trailing all-zero rows and columns have no entry line; the header keeps them.
    return np.pad(table, ((0, draw(st.integers(0, 2))), (0, draw(st.integers(0, 2)))))


@settings(max_examples=60, deadline=None)
@given(feature_matrices())
@example(np.zeros((3, 4)))
@example(np.array([[-0.0, 0.0], [0.0, 5e-324], [0.0, 0.0]]))
def test_save_features_match_per_cell_repr_and_reload_bit_for_bit(tmp_path_factory, features):
    out = tmp_path_factory.mktemp("oracle")
    save_dataset(features_dataset(features), out)
    assert (out / "features.tsv").read_bytes() == repr_oracle(features)
    assert dense_table(load_dataset(out).features).tobytes() == features.tobytes()


def test_save_formats_only_cells_that_are_not_plus_zero(tmp_path, monkeypatch):
    formatted = []

    def counting_repr(value):
        formatted.append(value)
        return repr(value)

    monkeypatch.setattr(graphio, "repr", counting_repr, raising=False)
    monkeypatch.setattr(graphio, "_ENTRIES_PER_WRITE", 4)  # the 10 entries below take three writes
    features = np.zeros((4, 7))
    features[0, 3] = 0.25
    features[2] = np.arange(1.0, 8.0)  # a dense row
    features[3, [0, 6]] = [-0.0, 5e-324]  # bits that are not +0.0's
    save_dataset(features_dataset(features), tmp_path / "sparse")
    assert len(formatted) == 1 + 7 + 2
    assert (tmp_path / "sparse" / "features.tsv").read_bytes() == repr_oracle(features)

    formatted.clear()
    save_dataset(features_dataset(np.zeros((4, 3))), tmp_path / "zeros")
    assert formatted == []
    assert (tmp_path / "zeros" / "features.tsv").read_bytes() == b"4\t3\n"


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(value):
    # Checked where a Dataset is built, so save_dataset never writes a
    # features.tsv that load_dataset would refuse.
    features = np.ones((3, 2))
    features[2, 1] = value
    features[2, 0] = 0.0  # a CSR stores no entry for it: column 1 is row 2's first entry there
    for table in (features, csr_array(features)):
        with pytest.raises(ValueError, match=rf"^non-finite feature {value!r} of node 2, column 1$"):
            features_dataset(table)


def test_a_dataset_keeps_a_csr_table_in_canonical_form():
    # Row 0 lists its columns out of order, and row 1 gives column 1 twice.
    table = csr_array((np.array([2.0, -0.0, 3.0, 4.0]), np.array([1, 0, 1, 1]), np.array([0, 2, 4])), shape=(2, 2))
    ds = features_dataset(table)
    assert ds.features.has_canonical_format
    assert dense_table(ds.features).tobytes() == np.array([[-0.0, 2.0], [0.0, 7.0]]).tobytes()
    np.testing.assert_array_equal(table.indices, [1, 0, 1, 1])  # the caller's table is not changed
    assert features_dataset(ds.features).features is ds.features  # a canonical one is kept as it is


@settings(max_examples=40, deadline=None)
@given(feature_matrices())
@example(np.array([[-0.0, 0.0], [0.0, 5e-324], [0.0, 0.0]]))
def test_a_loaded_table_gives_the_model_the_arrays_of_the_dense_one(tmp_path_factory, features):
    """Every form of a table gives the model one CSR, dtypes included: the
    dense table, a CSR of the same cells that also stores each +0.0 (int64
    indices), and each of them saved and loaded, parsed or from the cache.
    That CSR stores exactly the cells whose bits are not +0.0's, -0.0 too,
    and each form saves to the same features.tsv bytes."""
    n, f = features.shape
    every_cell = csr_array((features.ravel(), np.tile(np.arange(f), n), np.arange(n + 1) * f), shape=(n, f))

    def model_features(ds):  # in float64, the dtype of the tables
        return build_operators(ds, dtype=np.float64).features

    expected = model_features(features_dataset(features))
    assert dense_table(expected).tobytes() == features.tobytes()
    assert (expected.data.view(np.int64) != 0).all()  # no stored +0.0
    assert expected.indices.dtype == expected.indptr.dtype == np.int32
    forms = {"every-cell": model_features(features_dataset(every_cell))}
    texts = set()
    for name, table in (("dense", features), ("every-cell", every_cell)):
        out = tmp_path_factory.mktemp("saved")
        save_dataset(features_dataset(table), out)
        texts.add((out / "features.tsv").read_bytes())
        for load in ("parsed", "cached"):
            loaded = load_dataset(out)
            assert os.path.exists(out / graphio.CACHE_FILE), load
            forms[f"{name}, {load}"] = model_features(loaded)
        again = tmp_path_factory.mktemp("saved-again")
        save_dataset(loaded, again)
        texts.add((again / "features.tsv").read_bytes())
    assert len(texts) == 1
    for form, got in forms.items():
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got, name), getattr(expected, name)
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), (form, name)


@st.composite
def dense_tables(draw):
    """Tables with all-zero, fully dense and mixed rows over the cells that
    tell a conversion apart: +0.0, -0.0 (stored, as its bits are not +0.0's)
    and nan."""
    width = draw(st.integers(1, 5))
    cells = {"zero": st.sampled_from([0.0, -0.0]),
             "dense": st.sampled_from([1.0, -2.5, 5e-324, np.nan]),
             "mixed": st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, np.nan])}
    rows = draw(st.lists(st.sampled_from(sorted(cells)), min_size=0, max_size=7))
    return np.array([draw(st.lists(cells[kind], min_size=width, max_size=width)) for kind in rows]).reshape(-1, width)


@settings(max_examples=80, deadline=None)
@given(dense_tables())
def test_csr_features_stores_every_cell_but_plus_zero(x):
    """The dense conversion gives a canonical CSR with int32 indices that
    stores no +0.0 and writes back, through the independent
    ``conftest.dense_table``, to the table's own bytes; it is its own form."""
    got = graphio.csr_features(x)
    assert got.shape == x.shape and got.has_canonical_format
    assert got.indices.dtype == got.indptr.dtype == np.int32
    assert (got.data.view(np.int64) != 0).all()
    assert dense_table(got).tobytes() == x.tobytes()
    assert graphio.csr_features(got) is got


def test_round_trip_identity(tmp_path, rng):
    for trial in range(10):
        n = int(rng.integers(3, 20))
        classes = int(rng.integers(2, 4))
        labels = np.concatenate([np.arange(classes), rng.integers(0, classes, n - classes)])
        rng.shuffle(labels)
        mask = np.triu(rng.random((n, n)) < 0.3, k=1)
        rows, cols = np.nonzero(mask)
        edges = np.stack([rows, cols], axis=1)
        features = rng.standard_normal((n, 4))
        ids = rng.permutation(n)
        split = SplitSpec(ids[:2], ids[2:4], ids[4:])
        ds = Dataset(edges, features, labels, split)
        out = tmp_path / f"ds{trial}"
        save_dataset(ds, out)
        back = load_dataset(out)
        assert back.num_nodes == ds.num_nodes
        assert back.num_classes == ds.num_classes
        np.testing.assert_array_equal(back.edges, ds.edges)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features.toarray(), ds.features)  # exact float round-trip
        np.testing.assert_array_equal(back.split.labeled_ids, ds.split.labeled_ids)
        np.testing.assert_array_equal(back.split.valid_ids, ds.split.valid_ids)
        np.testing.assert_array_equal(back.split.test_ids, ds.split.test_ids)


def test_sbm_degenerate_probabilities_make_cliques():
    ds = generate_sbm(2, 3, 1.0, 0.0, 4, 0.0, seed=5)
    # p_in=1, p_out=0: two disjoint triangles.
    assert ds.edges.shape[0] == 6
    for u, v in ds.edges:
        assert (u < 3) == (v < 3)


def test_sbm_zero_noise_gives_identical_class_rows():
    ds = generate_sbm(3, 4, 0.5, 0.1, 6, 0.0, seed=9)
    for c in range(3):
        rows = ds.features[ds.labels == c]
        assert np.array_equal(rows, np.repeat(rows[:1], rows.shape[0], axis=0))


def test_sbm_intra_edge_count_within_three_sigma():
    classes, per_class, p_in = 4, 100, 0.1
    ds = generate_sbm(classes, per_class, p_in, 0.01, 8, 0.5, seed=11)
    same = ds.labels[ds.edges[:, 0]] == ds.labels[ds.edges[:, 1]]
    observed = int(same.sum())
    pairs = classes * per_class * (per_class - 1) // 2
    expected = p_in * pairs
    sigma = np.sqrt(pairs * p_in * (1 - p_in))
    assert abs(observed - expected) <= 3 * sigma


def test_sbm_output_passes_loader_validation(tmp_path):
    ds = generate_sbm(3, 10, 0.4, 0.05, 5, 1.0, seed=3)
    save_dataset(ds, tmp_path / "sbm")
    load_dataset(tmp_path / "sbm")  # must not raise


def test_sbm_deterministic_for_seed():
    a = generate_sbm(3, 10, 0.4, 0.05, 5, 1.0, seed=3)
    b = generate_sbm(3, 10, 0.4, 0.05, 5, 1.0, seed=3)
    np.testing.assert_array_equal(a.edges, b.edges)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.split.labeled_ids, b.split.labeled_ids)


def test_sbm_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        generate_sbm(2, 3, 0.2, 0.5, 4, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_sbm(2, 3, 1.2, 0.0, 4, 0.0, seed=0)


def test_make_split_counts_per_class():
    ds = generate_sbm(7, 40, 0.3, 0.02, 8, 0.5, seed=1)
    split = make_split(ds, 20, 5, seed=2)
    assert split.labeled_ids.size == 140
    for c in range(7):
        assert int((ds.labels[split.labeled_ids] == c).sum()) == 20
        assert int((ds.labels[split.valid_ids] == c).sum()) == 5


def test_make_split_boundary_consumes_whole_class():
    ds = generate_sbm(2, 6, 0.6, 0.1, 4, 0.5, seed=4)
    split = make_split(ds, 6, 0, seed=0)
    assert split.test_ids.size == 0
    assert split.labeled_ids.size == 12


def test_make_split_deterministic():
    ds = generate_sbm(3, 12, 0.4, 0.05, 5, 1.0, seed=8)
    a = make_split(ds, 3, 2, seed=77)
    b = make_split(ds, 3, 2, seed=77)
    np.testing.assert_array_equal(a.labeled_ids, b.labeled_ids)
    np.testing.assert_array_equal(a.valid_ids, b.valid_ids)


def test_make_split_class_too_small():
    ds = generate_sbm(2, 4, 0.6, 0.1, 4, 0.5, seed=4)
    with pytest.raises(ValueError, match="class"):
        make_split(ds, 4, 1, seed=0)


def test_split_spec_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        SplitSpec([0, 1], [1], [2])


def test_split_spec_requires_labeled():
    with pytest.raises(ValueError, match="non-empty"):
        SplitSpec([], [0], [1])


@pytest.mark.parametrize("labeled, valid, message", [
    ([1.5, 2.9], [True], "labeled_ids id 1.5 is not an integer"),  # int() would make it [1, 2]
    ([np.float64(3.0)], [], "labeled_ids id np.float64(3.0) is not an integer"),
    ([0], [True], "valid_ids id True is not an integer"),
    ([0], np.array([False]), "valid_ids id np.False_ is not an integer"),
    ([2**63], [], "labeled_ids id 9223372036854775808 lies outside int64"),
    ([0], [np.uint64(2**63)], "valid_ids id np.uint64(9223372036854775808) lies outside int64"),
    ([-2**63 - 1], [], "labeled_ids id -9223372036854775809 lies outside int64"),
], ids=["float", "numpy-float", "bool", "numpy-bool", "beyond-int64", "numpy-beyond-int64", "below-int64"])
def test_split_spec_refuses_an_id_that_is_not_an_integer(labeled, valid, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SplitSpec(labeled, valid, [])


def test_split_spec_takes_python_and_numpy_integers_and_empty_sets():
    split = SplitSpec([np.int32(2), 0], np.array([1], dtype=np.uint8), [])
    np.testing.assert_array_equal(split.labeled_ids, [0, 2])
    assert split.valid_ids.dtype == np.int64 and split.test_ids.size == 0


def test_with_split_replaces_only_split():
    ds = generate_sbm(2, 6, 0.6, 0.1, 4, 0.5, seed=4)
    split = make_split(ds, 2, 1, seed=1)
    ds2 = replace(ds, split=split)  # the same graph, features and labels under another split
    assert ds2.split is split
    np.testing.assert_array_equal(ds2.features, ds.features)
    np.testing.assert_array_equal(ds2.labels, ds.labels)


def test_only_a_loaded_dataset_carries_the_fingerprint_of_its_files(tmp_path):
    ds = generate_sbm(2, 6, 0.6, 0.1, 4, 0.5, seed=4)
    assert ds.fingerprint is None
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path)
    assert loaded.fingerprint == graphio.dataset_fingerprint(tmp_path)
    assert replace(loaded, split=make_split(loaded, 2, 1, seed=1)).fingerprint is None


def test_a_cold_load_peaks_below_two_and_a_half_times_the_features_file(tmp_path):
    """A 3.4 MB features.tsv of Gaussian values is held once as bytes, once
    as parsed entries (24 bytes per ~27-byte line) and then as the CSR, never
    whole as text: an ``io.StringIO`` of it held 4 bytes per character, and
    the load peaked at ~6 times the file's size."""
    features = np.random.default_rng(0).standard_normal((2000, 64))
    save_dataset(features_dataset(features), tmp_path)
    size = os.path.getsize(tmp_path / "features.tsv")
    tracemalloc.start()
    try:
        load_dataset(tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert os.path.exists(tmp_path / graphio.CACHE_FILE)  # the load parsed the text
    assert peak < 2.5 * size, (peak, size)


def test_a_wide_header_costs_only_its_entries(tmp_path):
    """The table is as large as the file's entries, not as N x F: an
    18-byte features.tsv of a 3 x 4,000,000 table loads, and its cache is
    under 1 KB."""
    d = write_dataset_dir(tmp_path, "0\t1\n", "3\t4000000\n0\t0\t1.0\n", "0\n1\n0\n",
                          {"labeled": [0], "valid": [1], "test": [2]})
    assert os.path.getsize(d / "features.tsv") == 18
    for load in ("parsed", "cached"):
        features = load_dataset(d).features
        assert features.shape == (3, 4_000_000), load
        assert (features.indptr.tolist(), features.indices.tolist(), features.data.tolist()) == (
            [0, 1, 1, 1], [0], [1.0]), load
        assert os.path.getsize(d / graphio.CACHE_FILE) < 1024, load


def test_isolated_nodes_are_allowed(tmp_path):
    d = write_dataset_dir(
        tmp_path, "0\t1\n", PATH_FEATURES, "0\n1\n0\n",
        {"labeled": [0], "valid": [], "test": [2]},
    )
    ds = load_dataset(d)
    assert ds.num_nodes == 3  # node 2 has no edges


# --- the parsed-features cache -------------------------------------------

DATASET_FILES = {"edges.tsv", "features.tsv", "labels.tsv", "split.json"}
CACHED_FEATURES = np.array([[-0.0, 5e-324, 0.1 + 0.2], [1.0, 0.0, -1e300], [0.0, 0.0, 0.0]])


@pytest.fixture
def feature_parses(monkeypatch):
    """Counts the parses of features.tsv's text; read it as
    ``len(feature_parses)``."""
    calls = []
    parse = graphio._parse_features

    def counting(path, data):
        calls.append(path)
        return parse(path, data)

    monkeypatch.setattr(graphio, "_parse_features", counting)
    return calls


def cached_dataset_dir(tmp_path):
    ds = Dataset(np.array([[0, 1], [1, 2]]), CACHED_FEATURES, np.array([0, 1, 0]), SplitSpec([0], [1], [2]))
    save_dataset(ds, tmp_path)
    return tmp_path


def test_second_load_reads_the_cache_bit_for_bit(tmp_path, feature_parses):
    d = cached_dataset_dir(tmp_path)
    first = load_dataset(d)
    assert len(feature_parses) == 1
    assert set(os.listdir(d)) == DATASET_FILES | {graphio.CACHE_FILE}
    second = load_dataset(d)
    assert len(feature_parses) == 1  # no parse: -0.0 and 5e-324 came from the cache
    assert dense_table(second.features).tobytes() == dense_table(first.features).tobytes() == CACHED_FEATURES.tobytes()
    for arr in (second.features.data, second.features.indices, second.features.indptr):
        assert not arr.flags.writeable
    np.testing.assert_array_equal(second.edges, first.edges)
    np.testing.assert_array_equal(second.labels, first.labels)


@pytest.mark.parametrize("mode", [0o644, 0o600, 0o444])
def test_the_cache_is_as_readable_as_the_features(tmp_path, mode):
    d = cached_dataset_dir(tmp_path)
    os.chmod(d / "features.tsv", mode)
    load_dataset(d)
    assert os.stat(d / graphio.CACHE_FILE).st_mode & 0o777 == mode


def test_edited_features_are_parsed_and_checked_again(tmp_path, feature_parses):
    d = cached_dataset_dir(tmp_path)
    load_dataset(d)
    text = (d / "features.tsv").read_text()
    (d / "features.tsv").write_text(text.replace("-1e+300", "2.5"))
    assert load_dataset(d).features.toarray()[1, 2] == 2.5
    assert len(feature_parses) == 2
    cache = (d / graphio.CACHE_FILE).read_bytes()

    (d / "features.tsv").write_text(text.replace("-1e+300", "nan"))
    with pytest.raises(DatasetFormatError, match=r"features\.tsv:6: non-finite feature nan of node 1, column 2$"):
        load_dataset(d)
    assert (d / graphio.CACHE_FILE).read_bytes() == cache  # a failed load writes nothing


def test_a_failed_load_leaves_no_cache(tmp_path):
    d = write_dataset_dir(tmp_path, "0\t1\n", TWO_NODE_FEATURES, "0\n-1\n", {"labeled": [0], "valid": [], "test": [1]})
    with pytest.raises(DatasetFormatError, match="negative label"):
        load_dataset(d)
    assert set(os.listdir(d)) == DATASET_FILES


def other_digest(blob):
    """The same cache under another digest: its first hex digit changed."""
    at = blob.index(b"\n") + 1
    return blob[:at] + (b"1" if blob[at:at + 1] == b"0" else b"0") + blob[at + 1:]


def bump_version(blob):
    bumped = blob.replace(b"cache 5\n", b"cache 6\n", 1)
    assert bumped != blob  # the layout version this test was written against
    return bumped


def numpy_file(save, array):
    """The bytes ``np.save`` or ``np.savez`` writes: a file np.load would read."""
    buf = io.BytesIO()
    save(buf, array)
    return buf.getvalue()


CACHE_MAGIC = b"reachmix features.tsv cache 5\n"
CACHE_ARRAYS = ("shape", "data", "indices", "indptr")


def cache_arrays(blob):
    """The shape, data, indices and indptr arrays of a version-5 cache's bytes."""
    buf = io.BytesIO(blob[blob.index(b"\n", len(CACHE_MAGIC)) + 1:])
    return [np.load(buf) for _ in CACHE_ARRAYS]


def cache_file(digest, shape, data, indices, indptr):
    """A version-5 cache of these arrays, laid out as the program writes one."""
    arrays = (np.asarray(shape, dtype=np.int64), data, indices, indptr)
    return CACHE_MAGIC + digest.encode() + b"\n" + b"".join(numpy_file(np.save, a) for a in arrays)


def stored_entries(table):
    """The shape and int32 CSR arrays of a dense table's cells whose bits
    are not +0.0's, built without the program's code."""
    rows, cols = np.nonzero(table.view(np.int64))
    indptr = np.searchsorted(rows, np.arange(table.shape[0] + 1)).astype(np.int32)
    return table.shape, table[rows, cols], cols.astype(np.int32), indptr


def edited(edit):
    """A spoil that decodes the cache's arrays, lets ``edit`` change them,
    and encodes them again under the same header."""
    def spoil(blob):
        arrays = dict(zip(CACHE_ARRAYS, cache_arrays(blob)))
        edit(arrays)
        digest = blob[len(CACHE_MAGIC):blob.index(b"\n", len(CACHE_MAGIC))].decode()
        return cache_file(digest, *(arrays[name] for name in CACHE_ARRAYS))
    return spoil


def column_out_of_range(arrays):
    arrays["indices"][-1] = 3  # F = 3


def unsorted_columns(arrays):
    for name in ("data", "indices"):  # row 0's columns 0, 1, 2 become 1, 0, 2: the same cells, out of order
        arrays[name][[0, 1]] = arrays[name][[1, 0]]


def indptr_short_of_nnz(arrays):
    arrays["indptr"][-2:] -= 1  # [0, 3, 5, 5] -> [0, 3, 4, 4]: scipy's prune would drop the last entry


def stored_plus_zero(arrays):
    arrays["data"] = np.append(arrays["data"], 0.0)  # cell (2, 0), which a load never stores
    arrays["indices"] = np.append(arrays["indices"], 0)
    arrays["indptr"][-1] += 1


def other_shape(arrays):
    arrays["shape"][1] = 4  # the header says 3 x 3


def int64_indices(arrays):
    arrays["indices"] = arrays["indices"].astype(np.int64)  # the form is int32 at this size


@pytest.mark.parametrize("spoil", [
    pytest.param(lambda blob: b"", id="empty"),
    pytest.param(lambda blob: blob[:20], id="cut-in-magic"),
    pytest.param(lambda blob: blob[:len(blob) // 2], id="cut-in-table"),
    pytest.param(lambda blob: blob[:-1], id="last-byte-cut"),
    pytest.param(lambda blob: blob[:160] + b"\xff" * 16 + blob[176:], id="header-garbled"),
    pytest.param(lambda blob: np.random.default_rng(0).bytes(len(blob)), id="random-bytes"),
    pytest.param(other_digest, id="other-digest"),
    pytest.param(bump_version, id="other-version"),
    pytest.param(lambda blob: numpy_file(np.savez, CACHED_FEATURES), id="foreign-npz"),
    pytest.param(lambda blob: numpy_file(np.save, CACHED_FEATURES), id="foreign-npy"),
    pytest.param(lambda blob: blob[:blob.index(b"\n", len(CACHE_MAGIC)) + 1] + numpy_file(np.save, CACHED_FEATURES),
                 id="dense-table"),
    pytest.param(edited(column_out_of_range), id="column-out-of-range"),
    pytest.param(edited(unsorted_columns), id="unsorted-columns"),
    pytest.param(edited(indptr_short_of_nnz), id="indptr-short-of-nnz"),
    pytest.param(edited(stored_plus_zero), id="stored-plus-zero"),
    pytest.param(edited(other_shape), id="other-shape"),
    pytest.param(edited(int64_indices), id="int64-indices"),
])
def test_a_spoiled_cache_is_a_miss_and_is_replaced(tmp_path, feature_parses, spoil):
    d = cached_dataset_dir(tmp_path)
    load_dataset(d)
    cache = d / graphio.CACHE_FILE
    good = cache.read_bytes()
    cache.write_bytes(spoil(good))
    assert dense_table(load_dataset(d).features).tobytes() == CACHED_FEATURES.tobytes()
    assert len(feature_parses) == 2
    assert cache.read_bytes() == good
    load_dataset(d)
    assert len(feature_parses) == 2


def test_a_version_1_cache_is_a_miss(tmp_path, feature_parses):
    # Version 1 was keyed by the SHA-256 of features.tsv alone.
    d = cached_dataset_dir(tmp_path)
    digest = hashlib.sha256((d / "features.tsv").read_bytes()).hexdigest()
    cache = d / graphio.CACHE_FILE
    cache.write_bytes(b"reachmix features.tsv cache 1\n" + digest.encode() + b"\n"
                      + numpy_file(np.save, CACHED_FEATURES))
    ds = load_dataset(d)
    assert len(feature_parses) == 1
    assert cache.read_bytes().startswith(CACHE_MAGIC + ds.fingerprint.encode() + b"\n")


def test_a_cached_table_that_a_parse_would_refuse_names_the_cache(tmp_path):
    d = cached_dataset_dir(tmp_path)
    fingerprint = load_dataset(d).fingerprint
    forged = CACHED_FEATURES.copy()
    forged[2, 1] = np.nan
    cache = d / graphio.CACHE_FILE
    cache.write_bytes(cache_file(fingerprint, *stored_entries(forged)))
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(d)
    assert str(err.value) == f"{cache}: non-finite feature nan of node 2, column 1"


@pytest.mark.parametrize("name, text", [
    ("edges.tsv", "1\t0\n1\t2\n"),
    ("labels.tsv", "0\n1\n1\n"),
    ("split.json", '{"labeled": [1], "valid": [0], "test": [2]}'),
])
def test_the_cache_key_covers_every_dataset_file(tmp_path, feature_parses, name, text):
    d = cached_dataset_dir(tmp_path)
    first = load_dataset(d)
    (d / name).write_text(text)
    second = load_dataset(d)
    assert len(feature_parses) == 2
    assert second.fingerprint == graphio.dataset_fingerprint(d) != first.fingerprint
    load_dataset(d)
    assert len(feature_parses) == 2


def test_a_directory_in_the_cache_place_is_a_miss(tmp_path, feature_parses):
    d = cached_dataset_dir(tmp_path)
    (d / graphio.CACHE_FILE).mkdir()
    assert dense_table(load_dataset(d).features).tobytes() == CACHED_FEATURES.tobytes()
    assert len(feature_parses) == 1
    # the rename over the directory failed, and its temp file is gone
    assert set(os.listdir(d)) == DATASET_FILES | {graphio.CACHE_FILE}


@pytest.mark.parametrize("fails", ["mkstemp", "replace"])
def test_an_unwritable_cache_is_skipped_silently(tmp_path, monkeypatch, fails):
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    d = cached_dataset_dir(tmp_path)
    monkeypatch.setattr(graphio.tempfile if fails == "mkstemp" else graphio.os, fails, denied)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert dense_table(load_dataset(d).features).tobytes() == CACHED_FEATURES.tobytes()
    assert caught == []
    assert set(os.listdir(d)) == DATASET_FILES


def test_a_load_parses_and_caches_the_bytes_it_hashed(tmp_path, monkeypatch):
    d = cached_dataset_dir(tmp_path)
    read = graphio.dataset_fingerprint(d)
    text = (d / "features.tsv").read_text()
    loadtxt = np.loadtxt

    def edit_then_parse(*args, **kwargs):
        (d / "features.tsv").write_text(text.replace("-1e+300", "2.5"))  # after the read, before the parse
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(graphio.np, "loadtxt", edit_then_parse)
    ds = load_dataset(d)
    assert dense_table(ds.features).tobytes() == CACHED_FEATURES.tobytes()
    assert ds.fingerprint == read != graphio.dataset_fingerprint(d)
    cache = (d / graphio.CACHE_FILE).read_bytes()
    assert cache.startswith(CACHE_MAGIC + read.encode() + b"\n")
    shape, data, indices, indptr = cache_arrays(cache)
    table = csr_array((data, indices, indptr), shape=tuple(shape))
    assert dense_table(table).tobytes() == CACHED_FEATURES.tobytes()


_opened = None  # the base names of the files opened, while a test collects them


def _log_open(event, args):
    if event == "open" and _opened is not None and isinstance(args[0], (str, bytes, os.PathLike)):
        _opened.append(os.path.basename(os.fsdecode(args[0])))


sys.addaudithook(_log_open)  # sees numpy's opens too; records only inside opened_files


@contextlib.contextmanager
def opened_files():
    global _opened
    _opened = []
    try:
        yield _opened
    finally:
        _opened = None


@pytest.mark.parametrize("case", ["cache-miss", "cache-hit", "features-row-error"])
def test_a_load_opens_each_dataset_file_once(tmp_path, case):
    d = cached_dataset_dir(tmp_path)
    if case == "cache-hit":
        load_dataset(d)
    if case == "features-row-error":
        (d / "features.tsv").write_text((d / "features.tsv").read_text().replace("-1e+300", "nan"))
    with opened_files() as opened, contextlib.suppress(DatasetFormatError):
        load_dataset(d)
    assert sorted(name for name in opened if name in DATASET_FILES) == sorted(DATASET_FILES)


@pytest.mark.parametrize("text, line", [
    (b"2\t2\r\n0\t0\t1.0\r\n1\t1\t4.0\r\n", None),
    (b"2\t2\r0\t0\t1.0\r1\t1\t4.0", None),
    (b"2\t2\n\n0\t0\t1.0\n\n \t\n1\t1\t4.0\n\n", None),
    (b"\xef\xbb\xbf2\t2\n0\t0\t1.0\n1\t1\t4.0\n", 1),  # a BOM is a character of the header, as of any line
    (b"2\t2\n0\t0\t1.0\n1\t1\n", 3),
    (b"2\t2\n0\t0\t1.0\n1\t1\tabc\n", 3),
], ids=["crlf", "lone-cr", "blank-lines", "utf-8-bom", "ragged", "non-numeric"])
def test_features_parse_as_loadtxt_parses_the_file(tmp_path, text, line):
    d = write_dataset_dir(tmp_path, "0\t1\n", "", "0\n1\n", {"labeled": [0], "valid": [], "test": [1]})
    path = d / "features.tsv"
    path.write_bytes(text)
    if line is None:
        entries = np.loadtxt(path, dtype=graphio._ENTRY, comments=None, ndmin=1, skiprows=1, encoding="utf-8")
        expected = np.zeros((2, 2))
        expected[entries["row"], entries["col"]] = entries["value"]
        assert dense_table(load_dataset(d).features).tobytes() == expected.tobytes()
    else:
        with pytest.raises(DatasetFormatError) as err:
            load_dataset(d)
        assert (err.value.path, err.value.line_no) == (str(path), line)
