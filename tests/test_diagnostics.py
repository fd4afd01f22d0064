import io
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse import csgraph

from conftest import dense_bfs, random_graph_edges
from reachmix.diagnostics import (
    avg_sp_by_degree,
    cka,
    cka_by_bucket,
    pearson,
    pearson_rc_vs_score,
    rc_buckets,
    reaching_coefficient,
)
from reachmix import diagnostics, graphalg, graphio
from reachmix.graphalg import add_self_loops, from_edges
from reachmix.graphio import Dataset, SplitSpec, generate_sbm, load_dataset, make_split, save_dataset
from reachmix.nn import ModelParams, init_params, softmax
from reachmix.seeding import substream
from reachmix.trainer import TrainConfig, build_operators, train_one


def path_graph(n):
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return from_edges(n, edges)


def test_rc_path_graph_exact_values():
    # Path 0-1-2, labeled {0}, diameter 2: node 1 -> 1 - log1/log2 = 1,
    # node 2 -> 1 - log2/log2 = 0.
    g = path_graph(3)
    report = reaching_coefficient(g, [0])
    np.testing.assert_array_equal(report.node_ids, [1, 2])
    assert report.rc[0] == 1.0
    assert report.rc[1] == 0.0
    assert report.diameter == 2


def test_rc_disconnected_node_contributes_zero():
    # Nodes 0-1-2 in a path, node 3 isolated; labeled {0}.
    g = from_edges(4, np.array([[0, 1], [1, 2]]))
    report = reaching_coefficient(g, [0])
    idx = list(report.node_ids).index(3)
    assert report.rc[idx] == 0.0
    assert report.mean_dist[idx] == report.diameter


def test_rc_requires_diameter_two():
    g = from_edges(2, np.array([[0, 1]]))
    with pytest.raises(ValueError, match="diameter"):
        reaching_coefficient(g, [0])


def test_rc_requires_labeled_nodes():
    g = path_graph(3)
    with pytest.raises(ValueError, match="non-empty"):
        reaching_coefficient(g, [])


def test_rc_values_in_unit_interval_and_match_brute_force(rng):
    for _ in range(30):
        n = int(rng.integers(5, 51))
        g = from_edges(n, random_graph_edges(rng, n, p=0.08))
        labeled = rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False)
        try:
            report = reaching_coefficient(g, labeled)
        except ValueError:
            continue  # diameter < 2
        assert np.all(report.rc >= 0.0) and np.all(report.rc <= 1.0)
        dense = g.toarray()
        diameter = report.diameter
        for pos, i in enumerate(report.node_ids):
            terms = []
            for j in sorted(set(int(v) for v in labeled)):
                d = dense_bfs(dense, [j])[i]
                d = diameter if np.isinf(d) else d
                terms.append(1.0 - np.log(d) / np.log(diameter))
            assert abs(report.rc[pos] - np.mean(terms)) < 1e-12


def test_rc_diameter_is_seeded_by_the_labeled_rows_and_stays_exact(rng, monkeypatch):
    blocks = []
    kernel = graphalg.bfs_distances
    monkeypatch.setattr(graphalg, "bfs_distances", lambda g, s: blocks.append(len(s)) or kernel(g, s))
    # Path 0-...-9 labeled at one end: that row alone bounds every node's
    # eccentricity by 9, the diameter, so no further block runs.
    assert reaching_coefficient(path_graph(10), [0]).diameter == 9
    assert blocks == []
    for _ in range(20):
        n = int(rng.integers(5, 60))
        g = from_edges(n, random_graph_edges(rng, n, p=0.06))
        full = csgraph.shortest_path(g, unweighted=True)
        expected = int(full[np.isfinite(full)].max())
        if expected < 2:
            continue
        labeled = rng.choice(n, size=int(rng.integers(1, n // 2)), replace=False)
        assert reaching_coefficient(g, labeled).diameter == expected
        assert avg_sp_by_degree(g, labeled).node_avg_sp.max() <= expected


def test_rc_buckets_boundary_rules():
    g = path_graph(3)
    base = reaching_coefficient(g, [0])
    m = 0.6
    fake = type(base)(
        node_ids=np.array([10, 11, 12]),
        rc=np.array([0.0, m / 5.0, m]),
        diameter=2,
        min_dist=np.zeros(3),
        mean_dist=np.zeros(3),
    )
    buckets = rc_buckets(fake)
    np.testing.assert_array_equal(buckets[0], [10, 11])  # 0 and m/5 in bucket I
    np.testing.assert_array_equal(buckets[4], [12])  # max lands in bucket V


def test_rc_buckets_all_equal_nonzero_in_bucket_five():
    base = reaching_coefficient(path_graph(3), [0])
    fake = type(base)(
        node_ids=np.array([1, 2]), rc=np.array([0.4, 0.4]), diameter=2,
        min_dist=np.zeros(2), mean_dist=np.zeros(2),
    )
    buckets = rc_buckets(fake)
    np.testing.assert_array_equal(buckets[4], [1, 2])


def test_rc_buckets_all_zero_in_bucket_one():
    base = reaching_coefficient(path_graph(3), [0])
    fake = type(base)(
        node_ids=np.array([1, 2]), rc=np.zeros(2), diameter=2,
        min_dist=np.zeros(2), mean_dist=np.zeros(2),
    )
    buckets = rc_buckets(fake)
    np.testing.assert_array_equal(buckets[0], [1, 2])


def test_rc_buckets_partition(rng):
    ds = generate_sbm(3, 25, 0.2, 0.02, 5, 0.5, seed=6)
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    report = reaching_coefficient(g, ds.split.labeled_ids)
    buckets = rc_buckets(report)
    union = np.concatenate(buckets)
    assert union.size == report.node_ids.size
    np.testing.assert_array_equal(np.sort(union), report.node_ids)


def test_cka_self_similarity_is_one(rng):
    z = rng.standard_normal((20, 6))
    assert abs(cka(z, z) - 1.0) < 1e-10


def test_cka_orthogonal_invariance(rng):
    z = rng.standard_normal((20, 6))
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    assert abs(cka(z, z @ q) - 1.0) < 1e-10


def test_cka_scale_invariance(rng):
    z = rng.standard_normal((15, 4))
    w = rng.standard_normal((15, 4))
    assert abs(cka(z, 3.7 * w) - cka(z, w)) < 1e-10
    assert abs(cka(z, -2.0 * z) - 1.0) < 1e-10


def test_cka_symmetry(rng):
    a = rng.standard_normal((12, 5))
    b = rng.standard_normal((12, 5))
    assert abs(cka(a, b) - cka(b, a)) < 1e-12


def test_cka_bounded(rng):
    for _ in range(10):
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((10, 4))
        v = cka(a, b)
        assert 0.0 <= v <= 1.0 + 1e-12


def test_cka_zero_variance_errors():
    z = np.ones((5, 3))
    with pytest.raises(ValueError, match="zero-variance"):
        cka(z, np.random.default_rng(0).standard_normal((5, 3)))


def test_cka_row_count_mismatch():
    with pytest.raises(ValueError, match="rows"):
        cka(np.zeros((4, 2)) + np.eye(4, 2), np.eye(5, 2))


def sbm_dataset():
    ds = generate_sbm(3, 20, 0.3, 0.03, 6, 0.8, seed=13)
    return replace(ds, split=make_split(ds, 4, 4, seed=3))


def test_cka_by_bucket_degenerate_labeled_bucket_is_one():
    ds = sbm_dataset()
    params = init_params(ds.num_features, 8, ds.num_classes, substream(0, "init")).astype(np.float32)
    buckets = [ds.split.labeled_ids] + [np.zeros(0, dtype=np.int64)] * 4
    report = cka_by_bucket(params, build_operators(ds), buckets, sample_seed=0)
    assert report.values[0] == pytest.approx(1.0, abs=1e-10)
    assert all(v is None for v in report.values[1:])
    assert report.sample_sizes[0] == ds.split.labeled_ids.size


def test_cka_of_two_rows_is_constant_and_of_three_is_not(rng):
    # Two centred rows are v and -v, so linear CKA is 1 whatever the input.
    two = [cka(rng.standard_normal((2, 4)), rng.standard_normal((2, 4))) for _ in range(50)]
    three = [cka(rng.standard_normal((3, 4)), rng.standard_normal((3, 4))) for _ in range(50)]
    np.testing.assert_allclose(two, 1.0, atol=1e-12, rtol=0)
    assert min(three) < 0.9


def test_cka_by_bucket_two_node_bucket_is_absent_and_draws_no_sample():
    ds = sbm_dataset()
    params = init_params(ds.num_features, 8, ds.num_classes, substream(0, "init")).astype(np.float32)
    unlabeled = np.setdiff1d(np.arange(ds.num_nodes), ds.split.labeled_ids)
    empty = np.zeros(0, dtype=np.int64)
    small, large = unlabeled[:2], unlabeled[2:20]
    inputs = build_operators(ds)
    report = cka_by_bucket(params, inputs, [large, small, large, empty, empty], sample_seed=4)
    assert report.values[1] is None and report.sample_sizes[1] == 2
    # The later bucket sees the stream it would see without the small one.
    without = cka_by_bucket(params, inputs, [large, empty, large, empty, empty], sample_seed=4)
    assert report.values[2] == without.values[2] is not None


def test_cka_by_bucket_seed_stability_regression_bound():
    # Cross-set CKA pairs unordered samples, so resampling moves the value;
    # the bound below was measured once on this fixed dataset/model (max
    # pairwise difference 0.33 over six seeds) and frozen as a regression
    # guard against the sampler getting noisier.
    ds = generate_sbm(3, 80, 0.08, 0.008, 8, 0.8, seed=13)
    ds = replace(ds, split=make_split(ds, 10, 10, seed=3))
    inputs = build_operators(ds)
    outcome = train_one(inputs, TrainConfig(max_epochs=60, patience=60, hidden=16), seed=0)
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    report = reaching_coefficient(g, ds.split.labeled_ids)
    buckets = rc_buckets(report)
    r1 = cka_by_bucket(outcome.params, inputs, buckets, sample_seed=1)
    r2 = cka_by_bucket(outcome.params, inputs, buckets, sample_seed=2)
    seen = 0
    for v1, v2 in zip(r1.values, r2.values):
        if v1 is not None and v2 is not None:
            assert abs(v1 - v2) < 0.45
            seen += 1
    assert seen >= 2


def test_avg_sp_star_graph():
    # Star with labeled center: every leaf has degree 1 and distance 1.
    edges = np.array([[0, i] for i in range(1, 6)])
    g = from_edges(6, edges)
    report = avg_sp_by_degree(g, [0])
    np.testing.assert_array_equal(report.degrees, [1])
    np.testing.assert_allclose(report.avg_sp, [1.0])
    assert report.counts[0] == 5


def test_avg_sp_path_graph_groups():
    # Path 0-1-2 with node 0 labeled: node 2 (degree 1) averages 2,
    # node 1 (degree 2) averages 1.
    g = path_graph(3)
    report = avg_sp_by_degree(g, [0])
    np.testing.assert_array_equal(report.degrees, [1, 2])
    np.testing.assert_allclose(report.avg_sp, [2.0, 1.0])


def test_avg_sp_group_means_consistent_with_global_mean():
    ds = sbm_dataset()
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    report = avg_sp_by_degree(g, ds.split.labeled_ids)
    weighted = float((report.avg_sp * report.counts).sum() / report.counts.sum())
    assert abs(weighted - report.node_avg_sp.mean()) < 1e-12


def test_pearson_perfect_affine_relation():
    x = np.linspace(0, 1, 20)
    assert pearson(x, 3.0 * x + 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pearson(x, -2.0 * x + 0.5) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_affine_invariance(rng):
    x = rng.standard_normal(30)
    y = rng.standard_normal(30)
    base = pearson(x, y)
    assert pearson(2.0 * x + 3.0, y) == pytest.approx(base, abs=1e-12)
    assert pearson(x, -0.5 * y + 1.0) == pytest.approx(-base, abs=1e-12)


def test_pearson_zero_variance_errors():
    with pytest.raises(ValueError, match="variance"):
        pearson(np.ones(5), np.arange(5.0))


def test_pearson_rc_vs_score_constant_model_errors():
    ds = sbm_dataset()
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    report = reaching_coefficient(g, ds.split.labeled_ids)
    f = ds.num_features
    zero = ModelParams(np.zeros((f, 4)), np.zeros(4), np.zeros((4, ds.num_classes)), np.zeros(ds.num_classes))
    zero = zero.astype(np.float32)
    with pytest.raises(ValueError, match="variance"):
        pearson_rc_vs_score(zero, build_operators(ds), report)


def test_pearson_rc_vs_score_returns_scores():
    ds = sbm_dataset()
    inputs = build_operators(ds)
    outcome = train_one(inputs, TrainConfig(max_epochs=60, patience=60, hidden=16), seed=1)
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    report = reaching_coefficient(g, ds.split.labeled_ids)
    r, scores = pearson_rc_vs_score(outcome.params, inputs, report)
    assert -1.0 <= r <= 1.0 and r == pearson(report.rc, scores)
    # score i is node_ids[i]'s softmax probability of its true class
    probs = softmax(diagnostics.representations(outcome.params, inputs))
    assert scores.shape == (report.node_ids.size,)
    for node, score in zip(report.node_ids, scores):
        assert score == probs[node, ds.labels[node]] and 0.0 <= score <= 1.0


def test_reach_reports_ignore_self_loops(rng):
    # diagnose measures reach on A; training reads A + I. Both graphs must
    # give the same reports, isolated nodes and split components included.
    for _ in range(20):
        n = int(rng.integers(5, 41))
        g = from_edges(n, random_graph_edges(rng, n, p=0.1))
        labeled = rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False)
        looped = add_self_loops(g)
        try:
            plain = reaching_coefficient(g, labeled)
        except ValueError:
            with pytest.raises(ValueError):
                reaching_coefficient(looped, labeled)
            continue
        again = reaching_coefficient(looped, labeled)
        assert plain.diameter == again.diameter
        for name in ("node_ids", "rc", "min_dist", "mean_dist"):
            np.testing.assert_array_equal(getattr(plain, name), getattr(again, name))
        sp, sp_looped = avg_sp_by_degree(g, labeled), avg_sp_by_degree(looped, labeled)
        for name in ("degrees", "avg_sp", "counts", "node_avg_sp"):
            np.testing.assert_array_equal(getattr(sp, name), getattr(sp_looped, name))


def test_a_graph_with_no_edge_is_refused_naming_its_diameter():
    # Every pair is unreachable and so would count as the diameter, 0: a
    # mean distance of 0, nearer than any neighbour of a labeled node.
    g = from_edges(4, np.zeros((0, 2), dtype=np.int64))
    for report in (avg_sp_by_degree, reaching_coefficient):
        with pytest.raises(ValueError, match="^diameter 0: the graph has no edge"):
            report(g, [0])


# --- the reach cache ------------------------------------------------------

REACH_MAGIC = b"reachmix reach cache 1\n"
REPORT_FIELDS = ("node_ids", "rc", "min_dist", "mean_dist")


@pytest.fixture
def bfs_runs(monkeypatch):
    """Names each labeled-set BFS and exact diameter that diagnostics runs,
    in order; a warm report leaves it empty."""
    calls = []
    for name in ("bfs_distances", "diameter_and_components"):
        def counting(*args, _name=name, _run=getattr(diagnostics, name)):
            calls.append(_name)
            return _run(*args)
        monkeypatch.setattr(diagnostics, name, counting)
    return calls


def reach_dataset_dir(tmp_path):
    """Three classes with no edge between them, so unreachable pairs count
    as the diameter in every entry's matrix."""
    ds = generate_sbm(3, 20, 0.2, 0.0, 6, 0.8, seed=13, labels_per_class=4, valid_per_class=4)
    save_dataset(ds, tmp_path)
    return tmp_path


def reach_of(directory, cached=True):
    """The RC report of the dataset in ``directory``, through its reach cache
    unless ``cached`` is false."""
    ds = load_dataset(directory)
    g = from_edges(ds.num_nodes, ds.edges)
    return reaching_coefficient(g, ds.split.labeled_ids, (str(directory), ds.fingerprint) if cached else None)


def assert_same_report(a, b):
    assert a.diameter == b.diameter
    for name in REPORT_FIELDS:
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name


def reach_entry(blob):
    """The diameter and distance matrix of a reach cache's bytes."""
    buf = io.BytesIO(blob[blob.index(b"\n", len(REACH_MAGIC)) + 1:])
    return np.load(buf), np.load(buf)


def reach_file(blob, diameter, matrix):
    """A reach cache under ``blob``'s two header lines, holding these arrays."""
    buf = io.BytesIO()
    np.save(buf, diameter)
    np.save(buf, matrix)
    return blob[:blob.index(b"\n", len(REACH_MAGIC)) + 1] + buf.getvalue()


def test_a_second_report_reads_the_reach_cache(tmp_path, bfs_runs):
    d = reach_dataset_dir(tmp_path)
    cold = reach_of(d)
    assert bfs_runs == ["bfs_distances", "diameter_and_components"]
    ds = load_dataset(d)
    blob = (d / diagnostics.REACH_CACHE).read_bytes()
    assert blob.startswith(REACH_MAGIC + ds.fingerprint.encode() + b"\n")
    diameter, matrix = reach_entry(blob)
    assert diameter.dtype == np.int64 and diameter.shape == () and diameter == cold.diameter
    assert matrix.dtype == np.uint8 and matrix.shape == (ds.split.labeled_ids.size, cold.node_ids.size)
    assert matrix.max() == cold.diameter  # the unreachable pairs
    warm = reach_of(d)
    assert len(bfs_runs) == 2
    assert_same_report(warm, cold)
    assert_same_report(warm, reach_of(d, cached=False))
    g = from_edges(ds.num_nodes, ds.edges)
    sp, plain = (avg_sp_by_degree(g, ds.split.labeled_ids, cache) for cache in ((str(d), ds.fingerprint), None))
    assert len(bfs_runs) == 6  # the two uncached reports
    for name in ("degrees", "avg_sp", "counts", "node_avg_sp"):
        assert getattr(sp, name).tobytes() == getattr(plain, name).tobytes(), name


def other_digest(blob):
    """The same cache under another digest: its first hex digit changed."""
    at = len(REACH_MAGIC)
    return blob[:at] + (b"1" if blob[at:at + 1] == b"0" else b"0") + blob[at + 1:]


def edited_entry(edit):
    """A spoil that decodes the entry, lets ``edit`` return new arrays, and
    encodes them again under the same header."""
    return lambda blob: reach_file(blob, *edit(*reach_entry(blob)))


@pytest.mark.parametrize("spoil", [
    pytest.param(lambda blob: b"", id="empty"),
    pytest.param(lambda blob: blob[:10], id="cut-in-magic"),
    pytest.param(lambda blob: blob[:len(blob) // 2], id="cut-in-matrix"),
    pytest.param(lambda blob: blob[:-1], id="last-byte-cut"),
    pytest.param(lambda blob: blob[:100] + b"\xff" * 16 + blob[116:], id="garbled"),
    pytest.param(lambda blob: blob.replace(b"cache 1\n", b"cache 2\n", 1), id="other-version"),
    pytest.param(other_digest, id="other-digest"),
    pytest.param(edited_entry(lambda dia, m: (dia, m[:, 1:])), id="one-node-short"),
    pytest.param(edited_entry(lambda dia, m: (dia, m.T.copy())), id="transposed"),
    pytest.param(edited_entry(lambda dia, m: (dia, m.astype(np.uint16))), id="uint16-matrix"),
    pytest.param(edited_entry(lambda dia, m: (dia, m.astype(np.float64))), id="float-matrix"),
    pytest.param(edited_entry(lambda dia, m: (dia.astype(np.float64), m)), id="float-diameter"),
    pytest.param(edited_entry(lambda dia, m: (dia.reshape(1), m)), id="diameter-array"),
    pytest.param(edited_entry(lambda dia, m: (dia, np.where(m == dia, dia + 1, m).astype(m.dtype))),
                 id="entry-above-diameter"),
    pytest.param(edited_entry(lambda dia, m: (dia, np.concatenate([np.zeros_like(m[:, :1]), m[:, 1:]], axis=1))),
                 id="entry-zero"),
    pytest.param(edited_entry(lambda dia, m: (np.int64(0), m * 0)), id="diameter-zero"),
])
def test_a_spoiled_reach_cache_is_a_miss_and_is_replaced(tmp_path, bfs_runs, spoil):
    d = reach_dataset_dir(tmp_path)
    first = reach_of(d)
    cache = d / diagnostics.REACH_CACHE
    good = cache.read_bytes()
    cache.write_bytes(spoil(good))
    assert_same_report(reach_of(d), first)
    assert len(bfs_runs) == 4  # computed again
    assert cache.read_bytes() == good
    reach_of(d)
    assert len(bfs_runs) == 4


def test_a_directory_in_the_reach_cache_place_is_a_miss(tmp_path, bfs_runs):
    d = reach_dataset_dir(tmp_path)
    (d / diagnostics.REACH_CACHE).mkdir()
    first = reach_of(d)
    assert_same_report(reach_of(d), first)
    assert len(bfs_runs) == 4
    # each rename over the directory failed, and its temp file is gone
    assert sorted(os.listdir(d)) == sorted(graphio.DATASET_FILES + (graphio.CACHE_FILE, diagnostics.REACH_CACHE))


@pytest.mark.parametrize("fails", ["mkstemp", "copymode", "replace"])
def test_an_unwritable_data_directory_gets_no_reach_cache_and_no_warning(tmp_path, monkeypatch, fails):
    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    d = reach_dataset_dir(tmp_path)
    plain = reach_of(d, cached=False)  # leaves the features cache
    owner = {"mkstemp": graphio.tempfile, "copymode": graphio.shutil, "replace": graphio.os}[fails]
    monkeypatch.setattr(owner, fails, denied)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert_same_report(reach_of(d), plain)
    assert caught == []
    assert sorted(os.listdir(d)) == sorted(graphio.DATASET_FILES + (graphio.CACHE_FILE,))


@pytest.mark.parametrize("name", ["edges.tsv", "split.json"])
def test_an_edited_graph_or_split_is_measured_again(tmp_path, bfs_runs, name):
    d = reach_dataset_dir(tmp_path)
    before = reach_of(d)
    path = d / name
    if name == "edges.tsv":  # join the first class to the last
        path.write_text(path.read_text() + "0\t59\n")
    else:  # label one more node
        split = load_dataset(d).split
        path.write_text(f'{{"labeled": {split.labeled_ids.tolist() + [int(split.test_ids[0])]}, '
                        f'"valid": {split.valid_ids.tolist()}, "test": {split.test_ids[1:].tolist()}}}')
    after = reach_of(d)
    assert len(bfs_runs) == 4
    assert_same_report(after, reach_of(d, cached=False))
    assert after.rc.tobytes() != before.rc.tobytes()
    reach_of(d)
    assert len(bfs_runs) == 6  # only the uncached report ran


@pytest.mark.parametrize("mode", [0o644, 0o600, 0o444])
def test_the_reach_cache_is_as_readable_as_the_edges(tmp_path, mode):
    d = reach_dataset_dir(tmp_path)
    os.chmod(d / "edges.tsv", mode)
    reach_of(d)
    assert os.stat(d / diagnostics.REACH_CACHE).st_mode & 0o777 == mode


def test_a_labeled_set_of_every_node_is_refused_before_any_bfs_or_cache_read(tmp_path, bfs_runs, monkeypatch):
    d = reach_dataset_dir(tmp_path)
    ds = load_dataset(d)
    g = from_edges(ds.num_nodes, ds.edges)
    reads = []
    read_cache = graphio.read_cache
    monkeypatch.setattr(graphio, "read_cache", lambda *args: reads.append(args) or read_cache(*args))
    with pytest.raises(ValueError, match="^no unlabeled nodes$"):
        reaching_coefficient(g, np.arange(ds.num_nodes), (str(d), ds.fingerprint))
    assert bfs_runs == [] and reads == []
