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
from reachmix import graphalg
from reachmix.graphalg import add_self_loops, from_edges
from reachmix.graphio import Dataset, SplitSpec, generate_sbm, make_split, with_split
from reachmix.nn import ModelParams, init_params
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
    return with_split(ds, make_split(ds, 4, 4, seed=3))


def test_cka_by_bucket_degenerate_labeled_bucket_is_one():
    ds = sbm_dataset()
    params = init_params(ds.num_features, 8, ds.num_classes, substream(0, "init"))
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
    params = init_params(ds.num_features, 8, ds.num_classes, substream(0, "init"))
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
    ds = with_split(ds, make_split(ds, 10, 10, seed=3))
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
    with pytest.raises(ValueError, match="variance"):
        pearson_rc_vs_score(zero, build_operators(ds), report)


def test_pearson_rc_vs_score_returns_pairs():
    ds = sbm_dataset()
    inputs = build_operators(ds)
    outcome = train_one(inputs, TrainConfig(max_epochs=60, patience=60, hidden=16), seed=1)
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    report = reaching_coefficient(g, ds.split.labeled_ids)
    r, pairs = pearson_rc_vs_score(outcome.params, inputs, report)
    assert -1.0 <= r <= 1.0
    assert pairs.shape == (report.node_ids.size, 3)
    assert np.all(pairs[:, 2] >= 0.0) and np.all(pairs[:, 2] <= 1.0)


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
