import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    with_split,
)


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
        "1.0\t0.0\n0.0\t1.0\n0.5\t0.5\n",
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
        "1.0\n2.0\n",
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
        "1.0\n2.0\n3.0\n4.0\n",
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
        tmp_path, "0\t1\textra\n", "1.0\n2.0\n", "0\n1\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match="edges.tsv:1"):
        load_dataset(d)


def test_out_of_range_edge_endpoint_names_its_line(tmp_path):
    # Line 2 is a comment and line 4 is blank; the first bad edge is on line 5.
    d = write_dataset_dir(
        tmp_path, "0\t1\n# comment\n1\t2\n\n2\t5\n7\t0\n", "1.0\n2.0\n3.0\n", "0\n1\n0\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match=r"edges\.tsv:5: edge endpoint 5 >= num_nodes 3$"):
        load_dataset(d)


def test_self_loop_edge_rejected(tmp_path):
    d = write_dataset_dir(
        tmp_path, "1\t1\n", "1.0\n2.0\n", "0\n1\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match="self-loop"):
        load_dataset(d)


PATH_EDGES = "0\t1\n1\t2\n"
PATH_FEATURES = "1.0\n2.0\n3.0\n"
PATH_LABELS = "0\n1\n0\n"


@pytest.mark.parametrize("file, text, line, message", [
    # The edge faults follow a comment line and a blank line, which hold no row.
    ("edges.tsv", "0\t1\n# comment\n\n2\t2\n", 4, "self-loop 2 not allowed in edge list"),
    ("edges.tsv", "0\t1\n# comment\n\n-1\t2\n", 4, "negative node id"),
    ("edges.tsv", "0\t1\n# comment\n\n1\t3\n", 4, "edge endpoint 3 >= num_nodes 3"),
    ("labels.tsv", "0\n-1\n1\n", 2, "negative label -1"),
    ("labels.tsv", "0\n2\n0\n", 2, "label 2 out of range: class 1 has no nodes, so labels are not contiguous"),
    ("features.tsv", "1.0\n\nnan\n3.0\n", 3, "non-finite feature nan in column 1 of node 1"),
], ids=["self-loop", "negative-id", "endpoint", "negative-label", "label-gap", "non-finite"])
def test_single_fault_names_file_line_and_message(tmp_path, file, text, line, message):
    texts = {"edges.tsv": PATH_EDGES, "features.tsv": PATH_FEATURES, "labels.tsv": PATH_LABELS, file: text}
    d = write_dataset_dir(tmp_path, texts["edges.tsv"], texts["features.tsv"], texts["labels.tsv"],
                          {"labeled": [0], "valid": [1], "test": [2]})
    with pytest.raises(DatasetFormatError) as err:
        load_dataset(d)
    assert str(err.value) == f"{d / file}:{line}: {message}"
    assert (err.value.path, err.value.line_no) == (str(d / file), line)


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


def row_fault(edges=((0, 1),), features=None, labels=(0, 1, 0), num_classes=2):
    features = np.ones((3, 2)) if features is None else features
    with pytest.raises(DatasetRowError) as err:
        Dataset(3, num_classes, np.array(edges), features, np.array(labels), SplitSpec([0], [], []))
    return err.value.table, err.value.row, str(err.value)


def test_dataset_reports_the_first_bad_row_of_each_table():
    assert row_fault(edges=[(0, 1), (2, 1), (0, 3), (1, 1)]) == ("edges", 2, "edge endpoint 3 >= num_nodes 3")
    assert row_fault(edges=[(0, 1), (-1, 5)]) == ("edges", 1, "negative node id")
    assert row_fault(edges=[(2, 1), (-1, -1)]) == ("edges", 1, "self-loop -1 not allowed in edge list")
    assert row_fault(labels=(0, 2, -1)) == ("labels", 1, "label 2 >= num_classes 2")
    assert row_fault(labels=(0, 3, 3), num_classes=4) == (
        "labels", 1, "label 3 out of range: class 1 has no nodes, so labels are not contiguous")
    assert row_fault(labels=(0, 1, 3), num_classes=4) == (
        "labels", 2, "label 3 out of range: class 2 has no nodes, so labels are not contiguous")
    features = np.ones((3, 2))
    features[1, 0] = -np.inf
    assert row_fault(features=features) == ("features", 1, "non-finite feature -inf in column 1 of node 1")


def test_dataset_with_classes_above_every_label_has_no_bad_row():
    with pytest.raises(ValueError, match=r"^classes \[2, 3\] have no nodes") as err:
        Dataset(3, 4, np.zeros((0, 2)), np.ones((3, 1)), np.array([0, 1, 1]), SplitSpec([0], [], []))
    assert not isinstance(err.value, DatasetRowError)


def test_dataset_stores_the_canonical_edge_list(rng):
    raw = np.array([[2, 0], [0, 2], [1, 0], [2, 0], [0, 1], [3, 1], [1, 3]])
    ds = Dataset(4, 1, raw, np.ones((4, 1)), np.zeros(4), SplitSpec([0], [], []))
    assert ds.edges.dtype == np.int64 and not ds.edges.flags.writeable
    np.testing.assert_array_equal(ds.edges, [[0, 1], [0, 2], [1, 3]])
    again = replace(ds, split=SplitSpec([1], [2], []))
    assert again.edges.shape == ds.edges.shape and again.edges.tobytes() == ds.edges.tobytes()
    for _ in range(20):
        n = int(rng.integers(2, 30))
        raw = rng.integers(0, n, size=(int(rng.integers(0, 80)), 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        oracle = sorted({(min(u, v), max(u, v)) for u, v in raw.tolist()})
        edges = Dataset(n, 1, raw, np.ones((n, 1)), np.zeros(n), SplitSpec([0], [], [])).edges
        assert edges.tolist() == [list(e) for e in oracle] and edges.shape == (len(oracle), 2)


def test_dimension_mismatch(tmp_path):
    d = write_dataset_dir(
        tmp_path, "0\t1\n", "1.0\n2.0\n", "0\n1\n0\n",
        {"labeled": [0], "valid": [], "test": []},
    )
    with pytest.raises(DatasetFormatError, match="labels"):
        load_dataset(d)


@pytest.mark.parametrize(
    "features_text, message",
    [
        ("1.0\t2.0\n3.0\n", "columns"),  # ragged row
        ("1.0\t2.0\n3.0\tabc\n", "abc"),  # non-numeric token
        ("1.0\t2.0 # note\n3.0\t4.0\n", "#"),  # '#' is a token, not a comment
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
    # Line 2 is blank, so node 1's row is line 3.
    d = write_dataset_dir(
        tmp_path, "0\t1\n", f"1.0\t2.0\n\n3.0\t{token}\n{token}\t4.0\n", "0\n1\n0\n",
        {"labeled": [0], "valid": [], "test": [1]},
    )
    with pytest.raises(DatasetFormatError,
                       match=rf"features\.tsv:3: non-finite feature {token} in column 2 of node 1$"):
        load_dataset(d)


def test_features_blank_lines_are_skipped(tmp_path):
    d = write_dataset_dir(
        tmp_path, "0\t1\n", "\n1.0\t2.0\n\n  \n3.0\t4.0\n\n", "0\n1\n",
        {"labeled": [0], "valid": [], "test": [1]},
    )
    np.testing.assert_array_equal(load_dataset(d).features, [[1.0, 2.0], [3.0, 4.0]])


def test_save_features_bytes_are_shortest_repr(tmp_path):
    # -0.0 keeps its sign, the smallest subnormal and a value that needs all
    # 17 significant digits are written exactly and read back bit for bit.
    features = np.array([[-0.0, 5e-324, 0.1 + 0.2], [1.0, 0.0, 1e300]])
    ds = Dataset(2, 2, np.array([[0, 1]]), features, np.array([0, 1]), SplitSpec([0], [], [1]))
    save_dataset(ds, tmp_path)
    assert (tmp_path / "features.tsv").read_bytes() == b"-0.0\t5e-324\t0.30000000000000004\n1.0\t0.0\t1e+300\n"
    back = load_dataset(tmp_path).features
    assert back.tobytes() == features.tobytes()


def features_dataset(features):
    n = features.shape[0]
    return Dataset(n, 1, np.zeros((0, 2)), features, np.zeros(n), SplitSpec([0], [], []))


def repr_oracle(features):
    """The features.tsv bytes with every cell formatted on its own."""
    return "".join("\t".join(map(repr, row.tolist())) + "\n" for row in features).encode()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 0.1 + 0.2, 1 / 3, -2 / 3, 1e300, -1e300]
CELLS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
STORED_CELLS = CELLS.filter(lambda v: np.float64(v).view(np.int64) != 0)  # anything but +0.0


@st.composite
def feature_matrices(draw):
    width = draw(st.integers(1, 6))
    rows = draw(st.lists(st.sampled_from(["zero", "dense", "mixed"]), min_size=1, max_size=6))
    cells = {"zero": st.just(0.0), "dense": STORED_CELLS, "mixed": CELLS}
    return np.array([draw(st.lists(cells[kind], min_size=width, max_size=width)) for kind in rows])


@settings(max_examples=60, deadline=None)
@given(feature_matrices())
def test_save_features_match_per_cell_repr_and_reload_bit_for_bit(tmp_path_factory, features):
    out = tmp_path_factory.mktemp("oracle")
    save_dataset(features_dataset(features), out)
    assert (out / "features.tsv").read_bytes() == repr_oracle(features)
    assert load_dataset(out).features.tobytes() == features.tobytes()


def test_save_formats_only_cells_that_are_not_plus_zero(tmp_path, monkeypatch):
    formatted = []

    def counting_repr(value):
        formatted.append(value)
        return repr(value)

    monkeypatch.setattr(graphio, "repr", counting_repr, raising=False)
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
    assert (tmp_path / "zeros" / "features.tsv").read_bytes() == b"0.0\t0.0\t0.0\n" * 4


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(value):
    # Checked where a Dataset is built, so save_dataset never writes a
    # features.tsv that load_dataset would refuse.
    features = np.ones((3, 2))
    features[2, 1] = value
    with pytest.raises(ValueError, match=rf"^non-finite feature {value!r} in column 2 of node 2$"):
        features_dataset(features)


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
        ds = Dataset(n, classes, edges, features, labels, split)
        out = tmp_path / f"ds{trial}"
        save_dataset(ds, out)
        back = load_dataset(out)
        assert back.num_nodes == ds.num_nodes
        assert back.num_classes == ds.num_classes
        np.testing.assert_array_equal(back.edges, ds.edges)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)  # exact float round-trip
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


def test_with_split_replaces_only_split():
    ds = generate_sbm(2, 6, 0.6, 0.1, 4, 0.5, seed=4)
    split = make_split(ds, 2, 1, seed=1)
    ds2 = with_split(ds, split)
    assert ds2.split is split
    np.testing.assert_array_equal(ds2.features, ds.features)


def test_isolated_nodes_are_allowed(tmp_path):
    d = write_dataset_dir(
        tmp_path, "0\t1\n", "1.0\n2.0\n3.0\n", "0\n1\n0\n",
        {"labeled": [0], "valid": [], "test": [2]},
    )
    ds = load_dataset(d)
    assert ds.num_nodes == 3  # node 2 has no edges
