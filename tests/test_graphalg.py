import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_bfs, dense_mix, random_graph_edges
from reachmix.graphalg import (
    CsrGraph,
    MixSelector,
    add_self_loops,
    bfs_distances,
    connected_components,
    diameter_and_components,
    from_edges,
    hop_distances,
    identity_adjacency,
    matmul_dense,
    mix_adjacency,
    structural_degrees,
    sym_normalize,
)


def graph_equal(a: CsrGraph, b: CsrGraph) -> bool:
    return (
        a.num_nodes == b.num_nodes
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.weights, b.weights)
    )


def test_add_self_loops_on_empty_graph():
    g = from_edges(2, np.zeros((0, 2), dtype=np.int64))
    looped = add_self_loops(g)
    assert looped.nnz == 2
    np.testing.assert_array_equal(looped.to_dense(), np.eye(2))


def test_add_self_loops_idempotent():
    g = add_self_loops(from_edges(4, np.array([[0, 1], [2, 3]])))
    again = add_self_loops(g)
    assert graph_equal(g, again)


def test_add_self_loops_path():
    g = add_self_loops(from_edges(2, np.array([[0, 1]])))
    np.testing.assert_array_equal(g.to_dense(), [[1, 1], [1, 1]])


def test_sym_normalize_single_node():
    g = add_self_loops(from_edges(1, np.zeros((0, 2), dtype=np.int64)))
    norm = sym_normalize(g)
    assert norm.weights[0] == 1.0


def test_sym_normalize_two_nodes_all_half():
    # Degrees are 2 after self-loops: every entry becomes 1/sqrt(2)/sqrt(2).
    g = add_self_loops(from_edges(2, np.array([[0, 1]])))
    norm = sym_normalize(g)
    np.testing.assert_allclose(norm.to_dense(), 0.5 * np.ones((2, 2)), atol=1e-15)


def test_sym_normalize_regular_graph_row_sums_one():
    # 4-cycle plus self-loops: every node has weighted degree 3.
    g = add_self_loops(from_edges(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]])))
    norm = sym_normalize(g)
    np.testing.assert_allclose(norm.to_dense().sum(axis=1), np.ones(4), atol=1e-12)


def test_sym_normalize_requires_positive_degree():
    g = from_edges(2, np.zeros((0, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="degree"):
        sym_normalize(g)


def test_sym_normalize_exactly_symmetric(rng):
    for _ in range(20):
        n = int(rng.integers(2, 15))
        edges = random_graph_edges(rng, n)
        if edges.size == 0:
            continue
        g = add_self_loops(from_edges(n, edges))
        sym_normalize(g).validate()  # compares A with A^T entry by entry


def test_bfs_source_distance_zero():
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    d = bfs_distances(g, [1])
    assert d[1] == 0.0


def test_bfs_path_distances():
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    np.testing.assert_array_equal(bfs_distances(g, [0]), [0, 1, 2])


def test_bfs_unreachable_is_infinite():
    g = from_edges(3, np.array([[0, 1]]))
    d = bfs_distances(g, [0])
    assert np.isinf(d[2])


def test_bfs_ignores_self_loops():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    np.testing.assert_array_equal(bfs_distances(g, [0]), [0, 1, 2])


def test_bfs_multi_source_takes_nearest():
    g = from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    np.testing.assert_array_equal(bfs_distances(g, [0, 4]), [0, 1, 2, 1, 0])


def test_bfs_matches_dense_oracle_and_triangle_inequality(rng):
    for _ in range(25):
        n = int(rng.integers(3, 16))
        edges = random_graph_edges(rng, n)
        g = from_edges(n, edges)
        dense = g.to_dense()
        dist = {u: bfs_distances(g, [u]) for u in range(n)}
        for u in range(n):
            np.testing.assert_array_equal(dist[u], dense_bfs(dense, [u]))
        np.testing.assert_array_equal(hop_distances(g, np.arange(n)[::-1]), np.stack([dist[u] for u in range(n)]))
        for _ in range(20):
            a, b, c = rng.integers(0, n, 3)
            assert dist[a][c] <= dist[a][b] + dist[b][c]


def test_diameter_path_three():
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    diameter, comp = diameter_and_components(g)
    assert diameter == 2
    assert np.unique(comp).size == 1


def test_diameter_two_disjoint_edges():
    g = from_edges(4, np.array([[0, 1], [2, 3]]))
    diameter, comp = diameter_and_components(g)
    assert diameter == 1
    assert np.unique(comp).size == 2


def test_component_ids_follow_smallest_member():
    g = from_edges(6, np.array([[1, 4], [0, 5], [2, 3]]))
    np.testing.assert_array_equal(connected_components(g), [0, 1, 2, 2, 1, 0])


def test_diameter_five_cycle():
    g = from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]))
    diameter, _ = diameter_and_components(g)
    assert diameter == 2


def cycle_and_path_edges(rng, n):
    """A cycle, a path and some isolated nodes, relabelled at random: graphs
    on which eccentricity bounds prune little."""
    cycle = int(rng.integers(3, n - 2))
    path = int(rng.integers(1, n - cycle))
    ring = [(i, (i + 1) % cycle) for i in range(cycle)]
    line = [(cycle + i, cycle + i + 1) for i in range(path - 1)]
    perm = rng.permutation(n)
    pairs = np.sort(perm[np.array(ring + line, dtype=np.int64).reshape(-1, 2)], axis=1)
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


# Five nodes whose diameter, 3 (node 4 to node 2), a double sweep from node 0
# underestimates as 2.
GADGET_EDGES = np.array([[0, 1], [0, 2], [1, 3], [1, 4], [2, 3]])


def test_diameter_matches_brute_force(rng):
    # Oracle: max finite pairwise distance from an independent dense BFS.
    graphs = []
    for trial in range(45):
        n = int(rng.integers(6, 50))
        if trial % 3 == 2:
            edges = cycle_and_path_edges(rng, n)
        else:
            edges = random_graph_edges(rng, n, p=[0.15, 0.05][trial % 3])
        graphs.append(from_edges(n, edges))
    graphs.append(from_edges(5, GADGET_EDGES))
    for g in graphs:
        diameter, _ = diameter_and_components(g)
        dense = g.to_dense()
        best = 0
        for u in range(g.num_nodes):
            d = dense_bfs(dense, [u])
            finite = d[np.isfinite(d)]
            best = max(best, int(finite.max()))
        assert diameter == best


def test_diameter_exact_above_twenty_thousand_nodes():
    # The gadget padded with isolated nodes: component sizes settle those
    # without a BFS, and the result is exact at any size, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diameter, comp = diameter_and_components(from_edges(20_001, GADGET_EDGES))
    assert diameter == 3
    assert comp.max() + 1 == 20_001 - 4


def test_bfs_distance_zero_iff_source(rng):
    g = from_edges(6, np.array([[0, 1], [1, 2], [3, 4]]))
    d = bfs_distances(g, [1, 3])
    assert set(np.nonzero(d == 0.0)[0].tolist()) == {1, 3}


def test_identity_adjacency():
    one = identity_adjacency(1)
    assert one.nnz == 1 and one.weights[0] == 1.0
    three = identity_adjacency(3)
    np.testing.assert_array_equal(three.to_dense(), np.eye(3))


def test_matmul_dense_matches_numpy(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        edges = random_graph_edges(rng, n)
        g = add_self_loops(from_edges(n, edges))
        x = rng.standard_normal((n, 5))
        np.testing.assert_allclose(matmul_dense(g, x), g.to_dense() @ x, atol=1e-12)


def test_structural_degrees_exclude_self_loops():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    np.testing.assert_array_equal(structural_degrees(g), [1, 2, 1])


def test_mix_selector_validation():
    with pytest.raises(ValueError, match="distinct"):
        MixSelector([0, 0], [1, 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="partner"):
        MixSelector([0, 1], [1, 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="lambda"):
        MixSelector([0], [1], [1.5])


def test_mix_adjacency_empty_selector_is_input():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    sel = MixSelector(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    assert mix_adjacency(g, sel) is g


def test_mix_adjacency_lambda_one_is_identity_transform():
    g = add_self_loops(from_edges(4, np.array([[0, 1], [1, 2], [2, 3]])))
    sel = MixSelector([0, 1], [3, 2], [1.0, 1.0])
    mixed = mix_adjacency(g, sel)
    np.testing.assert_array_equal(mixed.to_dense(), g.to_dense())
    mixed.validate()  # the zero-weight partner terms leave no stored zeros


def test_mix_adjacency_hand_case_three_node_path():
    # Path 0-1-2 with self-loops, mix target 0 with partner 2 at lambda 0.5.
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    sel = MixSelector([0], [2], [0.5])
    mixed = mix_adjacency(g, sel)
    expected = dense_mix(g.to_dense(), [0], [2], [0.5])
    np.testing.assert_allclose(mixed.to_dense(), expected, atol=1e-15)


def test_mix_adjacency_matches_dense_oracle(rng):
    for _ in range(60):
        n = int(rng.integers(3, 13))
        edges = random_graph_edges(rng, n)
        if edges.size == 0:
            continue
        g = add_self_loops(from_edges(n, edges))
        k = int(rng.integers(1, max(2, n // 2)))
        perm = rng.permutation(n)
        targets, partners = perm[:k], perm[k:2 * k]
        if partners.size < k:
            continue
        lams = rng.random(k)
        mixed = mix_adjacency(g, MixSelector(targets, partners, lams))
        expected = dense_mix(g.to_dense(), targets, partners, lams)
        np.testing.assert_allclose(mixed.to_dense(), expected, atol=1e-12)
        mixed.validate()  # compares A with A^T entry by entry


def test_mix_adjacency_rejects_out_of_range():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    with pytest.raises(ValueError, match="outside"):
        mix_adjacency(g, MixSelector([0], [5], [0.5]))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_from_edges_always_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    g = from_edges(n, random_graph_edges(rng, n))
    g.validate()  # includes the exact symmetry check
