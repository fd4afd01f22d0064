import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph, csr_array

from conftest import dense_bfs, dense_mix, dense_selector, dense_table, random_graph_edges
from reachmix import graphalg
from reachmix.graphalg import (
    MixSelector,
    add_self_loops,
    bfs_distances,
    diameter_and_components,
    from_edges,
    matmul_dense,
    mix_adjacency,
    structural_degrees,
    sym_normalize,
    validate,
)


def graph_equal(a: csr_array, b: csr_array) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def test_add_self_loops_on_empty_graph():
    g = from_edges(2, np.zeros((0, 2), dtype=np.int64))
    looped = add_self_loops(g)
    assert looped.nnz == 2
    np.testing.assert_array_equal(looped.toarray(), np.eye(2))


def test_add_self_loops_idempotent():
    g = add_self_loops(from_edges(4, np.array([[0, 1], [2, 3]])))
    again = add_self_loops(g)
    assert graph_equal(g, again)


def test_add_self_loops_path():
    g = add_self_loops(from_edges(2, np.array([[0, 1]])))
    np.testing.assert_array_equal(g.toarray(), [[1, 1], [1, 1]])


def test_sym_normalize_single_node():
    g = add_self_loops(from_edges(1, np.zeros((0, 2), dtype=np.int64)))
    norm = sym_normalize(g)
    assert norm.data[0] == 1.0


def test_sym_normalize_two_nodes_all_half():
    # Degrees are 2 after self-loops: every entry becomes 1/sqrt(2)/sqrt(2).
    g = add_self_loops(from_edges(2, np.array([[0, 1]])))
    norm = sym_normalize(g)
    np.testing.assert_allclose(norm.toarray(), 0.5 * np.ones((2, 2)), atol=1e-15)


def test_sym_normalize_regular_graph_row_sums_one():
    # 4-cycle plus self-loops: every node has weighted degree 3.
    g = add_self_loops(from_edges(4, np.array([[0, 1], [1, 2], [2, 3], [0, 3]])))
    norm = sym_normalize(g)
    np.testing.assert_allclose(norm.toarray().sum(axis=1), np.ones(4), atol=1e-12)


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
        validate(sym_normalize(g))  # compares A with A^T entry by entry


def test_bfs_source_distance_zero():
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    d = bfs_distances(g, [1])
    assert d.shape == (1, 3)
    assert d[0, 1] == 0.0


def test_bfs_path_distances():
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    np.testing.assert_array_equal(bfs_distances(g, [0]), [[0, 1, 2]])


def test_bfs_unreachable_is_infinite():
    g = from_edges(3, np.array([[0, 1]]))
    d = bfs_distances(g, [0])
    assert np.isinf(d[0, 2])


def test_bfs_ignores_self_loops():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    np.testing.assert_array_equal(bfs_distances(g, [0]), [[0, 1, 2]])


def test_bfs_multi_source_takes_nearest():
    g = from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    np.testing.assert_array_equal(bfs_distances(g, [0, 4]).min(axis=0), [0, 1, 2, 1, 0])


def test_bfs_matches_dense_oracle_and_triangle_inequality(rng):
    for _ in range(25):
        n = int(rng.integers(3, 16))
        edges = random_graph_edges(rng, n)
        g = from_edges(n, edges)
        dense = g.toarray()
        dist = {u: bfs_distances(g, [u])[0] for u in range(n)}
        for u in range(n):
            np.testing.assert_array_equal(dist[u], dense_bfs(dense, [u]))
        np.testing.assert_array_equal(bfs_distances(g, np.arange(n)[::-1]), np.stack([dist[u] for u in range(n)]))
        for _ in range(20):
            a, b, c = rng.integers(0, n, 3)
            assert dist[a][c] <= dist[a][b] + dist[b][c]


def sparse_graph(rng, n, mean_degree, isolated_ends=False):
    """A seeded sparse random graph without self-loops, with many small
    components beside the largest. With ``isolated_ends`` nodes 0 and n - 1
    get no edge, so their CSR rows store nothing."""
    edges = random_graph_edges(rng, n, p=mean_degree / (n - 1))
    if isolated_ends:
        edges = edges[(edges > 0).all(axis=1) & (edges < n - 1).all(axis=1)]
    return from_edges(n, edges)


def scipy_hops(g, sources):
    return csgraph.shortest_path(g, unweighted=True, indices=np.unique(sources))


@pytest.mark.parametrize("num_sources", [1, 63, 64, 65, 130])
def test_bfs_blocks_match_scipy_and_dense_oracle(rng, num_sources):
    # 64 sources share one word, so 63/64/65 and 130 end blocks on and just
    # past a word boundary. Nodes 0 and n - 1 are isolated: the first and last
    # CSR rows store nothing.
    g = sparse_graph(rng, 200, 2.5, isolated_ends=True)
    assert np.diff(g.indptr)[[0, -1]].tolist() == [0, 0]
    sources = np.sort(rng.choice(g.shape[0], num_sources, replace=False))
    sources[0] = 0
    d = bfs_distances(g, sources)
    assert d.shape == (num_sources, g.shape[0])
    np.testing.assert_array_equal(d, scipy_hops(g, sources))
    dense = g.toarray()
    for row in {0, 62, 63, 64, 65, 127, 128, num_sources - 1} & set(range(num_sources)):
        np.testing.assert_array_equal(d[row], dense_bfs(dense, [sources[row]]))
    np.testing.assert_array_equal(d[0], np.where(np.arange(g.shape[0]) == 0, 0.0, np.inf))


def test_bfs_duplicate_and_unsorted_sources_give_one_ascending_row_each(rng):
    g = sparse_graph(rng, 150, 3.0)
    sources = [149, 5, 3, 5, 140, 3, 0, 149]
    d = bfs_distances(g, sources)
    assert d.shape == (5, 150)
    np.testing.assert_array_equal(d, scipy_hops(g, sources))
    np.testing.assert_array_equal(d[[0, 1, 2, 3, 4], [0, 3, 5, 140, 149]], np.zeros(5))
    many = rng.integers(0, 150, 400)  # ~140 distinct ids over three blocks
    np.testing.assert_array_equal(bfs_distances(g, many), scipy_hops(g, many))
    with pytest.raises(ValueError, match="non-empty"):
        bfs_distances(g, [])
    for bad in ([-1, 3], [3, 150]):
        with pytest.raises(ValueError, match="out of range"):
            bfs_distances(g, bad)


def test_bfs_rows_that_store_nothing():
    # No self-loops anywhere; the isolated first, middle and last nodes are
    # empty reduceat segments, and a graph with no edge has no segment at all.
    g = from_edges(7, np.array([[1, 2], [2, 4], [4, 5]]))
    np.testing.assert_array_equal(bfs_distances(g, np.arange(7)), scipy_hops(g, np.arange(7)))
    np.testing.assert_array_equal(bfs_distances(g, [1])[0], [np.inf, 0, 1, np.inf, 2, 3, np.inf])
    empty = from_edges(3, np.zeros((0, 2), dtype=np.int64))
    np.testing.assert_array_equal(bfs_distances(empty, [2, 0]), [[0, np.inf, np.inf], [np.inf, np.inf, 0]])


def test_bfs_long_path_needs_a_wide_level_counter():
    # Distances up to 299 do not fit in 8 bits.
    n = 300
    g = from_edges(n, np.stack([np.arange(n - 1), np.arange(1, n)], axis=1))
    sources = np.array([0, 150, 299])
    expected = np.abs(np.arange(n)[None, :] - sources[:, None]).astype(np.float64)
    np.testing.assert_array_equal(bfs_distances(g, sources), expected)
    np.testing.assert_array_equal(bfs_distances(add_self_loops(g), sources), expected)
    assert diameter_and_components(g)[0] == n - 1


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
    np.testing.assert_array_equal(diameter_and_components(g)[1], [0, 1, 2, 2, 1, 0])


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
        dense = g.toarray()
        best = 0
        for u in range(g.shape[0]):
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


def test_diameter_over_many_blocks_matches_all_pairs(monkeypatch):
    # Sparse graphs of 200-2000 nodes with several components; every other
    # one also has a 60-node path through its last nodes, which lengthens the
    # diameter. The oracle is the largest finite entry of scipy's all-pairs BFS.
    block_sizes = []
    kernel = graphalg.bfs_distances
    monkeypatch.setattr(graphalg, "bfs_distances", lambda g, s: block_sizes.append(len(s)) or kernel(g, s))
    rounds = []
    for seed, n in enumerate([200, 350, 500, 650, 800, 1000, 1200, 1500, 1750, 2000]):
        rng = np.random.default_rng(seed)
        edges = random_graph_edges(rng, n, p=[1.2, 2.0, 3.0][seed % 3] / (n - 1))
        if seed % 2:
            path = np.stack([np.arange(n - 60, n - 1), np.arange(n - 59, n)], axis=1)
            edges = np.unique(np.concatenate([edges, path]), axis=0)
        g = from_edges(n, edges)
        calls_before = len(block_sizes)
        diameter, comp = diameter_and_components(g)
        rounds.append(len(block_sizes) - calls_before)
        full = csgraph.shortest_path(g, unweighted=True)
        assert np.unique(comp).size > 1
        assert diameter == int(full[np.isfinite(full)].max())
    assert max(rounds) > 1  # more than one block of sources ran
    assert max(block_sizes) == 64


def test_diameter_when_a_smaller_component_sets_the_best_bound_first():
    # Component A is a 101-node path (diameter 100) numbered from its centre
    # outwards, so the first block holds its 63 central nodes; component B is
    # a 100-node path whose end is node 0, so the same block finds B's 99.
    # After that block A's two ends have upper bound exactly 100, one above
    # the best lower bound: an upper bound one too small settles them, and
    # the answer would read 99.
    ids = np.empty(101, dtype=np.int64)
    ids[np.argsort(np.abs(np.arange(101) - 50), kind="stable")] = np.arange(1, 102)
    b = np.concatenate([[0], np.arange(102, 201)])
    edges = np.concatenate([np.stack([ids[:-1], ids[1:]], axis=1), np.stack([b[:-1], b[1:]], axis=1)])
    diameter, comp = diameter_and_components(from_edges(201, np.sort(edges, axis=1)))
    assert diameter == 100
    assert comp.max() == 1


@st.composite
def graphs_and_sources(draw):
    """A graph of 1-40 nodes, often with isolated nodes and several
    components, and any subset of its nodes, the empty one included."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]), max_size=2 * n))
    edges = np.unique(np.sort(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1), axis=0)
    sources = draw(st.lists(node, unique=True, max_size=n))
    return from_edges(n, edges), sources


def seed_rows(g, sources):
    return bfs_distances(g, sources) if sources else np.empty((0, g.shape[0]))


@settings(max_examples=150, deadline=None)
@given(graphs_and_sources())
def test_a_diameter_seeded_with_any_rows_is_exact(case):
    g, sources = case
    full = csgraph.shortest_path(g, unweighted=True)
    expected = int(full[np.isfinite(full)].max())
    blocks = []
    kernel = graphalg.bfs_distances
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graphalg, "bfs_distances", lambda g, s: blocks.append(len(s)) or kernel(g, s))
        seeded, comp = diameter_and_components(g, seed_rows(g, sources))
    assert seeded == diameter_and_components(g)[0] == expected
    np.testing.assert_array_equal(comp, csgraph.connected_components(g, directed=False)[1])
    if len(sources) == g.shape[0]:
        assert blocks == []  # rows from every node settle every node


def test_rows_from_every_node_need_no_bfs(monkeypatch):
    g = from_edges(201, np.stack([np.arange(200), np.arange(1, 201)], axis=1))
    rows = bfs_distances(g, np.arange(201))
    monkeypatch.setattr(graphalg, "bfs_distances", lambda g, s: pytest.fail("a block ran"))
    assert diameter_and_components(g, rows)[0] == 200


@pytest.mark.parametrize("shape", [(3, 6), (3, 4), (5,), (1, 1, 5)])
def test_rows_of_the_wrong_shape_are_refused(shape):
    g = from_edges(5, np.array([[0, 1], [1, 2], [2, 3], [3, 4]]))
    with pytest.raises(ValueError, match=r"^rows must be \(sources, 5\) hop distances"):
        diameter_and_components(g, np.zeros(shape))


def test_bfs_distance_zero_iff_source(rng):
    g = from_edges(6, np.array([[0, 1], [1, 2], [3, 4]]))
    d = bfs_distances(g, [1, 3])
    assert set(np.nonzero(d.min(axis=0) == 0.0)[0].tolist()) == {1, 3}
    assert [np.flatnonzero(row == 0.0).tolist() for row in d] == [[1], [3]]


def test_matmul_dense_matches_numpy(rng):
    for _ in range(10):
        n = int(rng.integers(2, 12))
        edges = random_graph_edges(rng, n)
        g = add_self_loops(from_edges(n, edges))
        x = rng.standard_normal((n, 5))
        np.testing.assert_allclose(matmul_dense(g, x), g.toarray() @ x, atol=1e-12)


def test_structural_degrees_exclude_self_loops():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    np.testing.assert_array_equal(structural_degrees(g), [1, 2, 1])


def test_mix_selector_validation():
    with pytest.raises(ValueError, match="distinct"):
        MixSelector(3, [0, 0], [1, 2], [0.5, 0.5])
    with pytest.raises(ValueError, match="partner"):
        MixSelector(3, [0, 1], [1, 2], [0.5, 0.5])
    for lam in (1.5, -0.1, np.nan):
        with pytest.raises(ValueError, match="lambda"):
            MixSelector(3, [0], [1], [lam])
    with pytest.raises(ValueError, match="outside"):
        MixSelector(3, [-1], [1], [0.5])


def test_mix_selector_apply_is_the_dense_selector_product(rng):
    # Each entry of S m sums at most two nonzero products, and adding an
    # exact zero never rounds, so the elementwise oracle has S m's bits; + 0.0
    # turns a -0.0 sum into the +0.0 that an unstored entry reads as.
    for dtype in (np.float64, np.float32):
        for _ in range(20):
            n, f = int(rng.integers(2, 30)), int(rng.integers(1, 8))
            k = int(rng.integers(0, n // 2 + 1))
            perm = rng.permutation(n)
            lams = rng.random(k)
            lams[: k // 3] = 1.0
            lams[k // 3: 2 * (k // 3)] = 0.0
            sel = MixSelector(n, perm[:k], perm[k:2 * k], lams)
            table = np.where(rng.random((n, f)) < 0.4, rng.standard_normal((n, f)), 0.0)
            m = csr_array(table.astype(dtype))
            s = dense_selector(n, sel.targets, sel.partners, sel.lams)
            want = ((s[:, :, None] * m.toarray().astype(np.float64)[None]).sum(axis=1) + 0.0).astype(dtype)
            got = sel.apply(m)
            assert got.dtype == dtype and got.has_canonical_format
            assert got.nnz == np.count_nonzero(want)  # no stored zero
            assert dense_table(got).astype(dtype).tobytes() == want.tobytes()


def test_mix_adjacency_empty_selector_is_input():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    sel = MixSelector(3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
    np.testing.assert_array_equal(mix_adjacency(g, sel).toarray(), g.toarray())


def test_mix_adjacency_lambda_one_is_identity_transform():
    g = add_self_loops(from_edges(4, np.array([[0, 1], [1, 2], [2, 3]])))
    sel = MixSelector(4, [0, 1], [3, 2], [1.0, 1.0])
    mixed = mix_adjacency(g, sel)
    np.testing.assert_array_equal(mixed.toarray(), g.toarray())
    validate(mixed)  # the zero-weight partner terms leave no stored zeros


def test_mix_adjacency_hand_case_three_node_path():
    # Path 0-1-2 with self-loops, mix target 0 with partner 2 at lambda 0.5.
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    sel = MixSelector(3, [0], [2], [0.5])
    mixed = mix_adjacency(g, sel)
    expected = dense_mix(g.toarray(), [0], [2], [0.5])
    np.testing.assert_allclose(mixed.toarray(), expected, atol=1e-15)


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
        mixed = mix_adjacency(g, MixSelector(n, targets, partners, lams))
        expected = dense_mix(g.toarray(), targets, partners, lams)
        np.testing.assert_allclose(mixed.toarray(), expected, atol=1e-12)
        validate(mixed)  # compares A with A^T entry by entry


def test_mix_adjacency_rejects_out_of_range():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    with pytest.raises(ValueError, match="outside"):
        mix_adjacency(g, MixSelector(g.shape[0], [0], [5], [0.5]))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10_000))
def test_from_edges_always_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    g = from_edges(n, random_graph_edges(rng, n))
    validate(g)  # includes the exact symmetry check


def raw_graph(n, indptr, indices, data):
    """A csr_array of exactly these arrays, which scipy neither sorts nor checks."""
    return csr_array((np.asarray(data, dtype=np.float64), np.asarray(indices), np.asarray(indptr)), shape=(n, n))


# Each graph breaks exactly one invariant; every other one holds.
INVALID_GRAPHS = {
    "not-square": (lambda: csr_array((2, 3)), "square matrix with at least one node"),
    "no-nodes": (lambda: csr_array((0, 0)), "square matrix with at least one node"),
    "zero-weight": (lambda: raw_graph(2, [0, 1, 2], [1, 0], [0.0, 0.0]), "finite and > 0"),
    "negative-weight": (lambda: raw_graph(2, [0, 1, 2], [1, 0], [-1.0, -1.0]), "finite and > 0"),
    "infinite-weight": (lambda: raw_graph(2, [0, 1, 2], [1, 0], [np.inf, np.inf]), "finite and > 0"),
    "nan-weight": (lambda: raw_graph(2, [0, 1, 2], [1, 0], [np.nan, np.nan]), "finite and > 0"),
    "unsorted-columns": (lambda: raw_graph(3, [0, 2, 3, 4], [2, 1, 0, 0], [1.0] * 4), "sorted and distinct"),
    "repeated-column": (lambda: raw_graph(2, [0, 2, 3], [1, 1, 0], [1.0, 1.0, 2.0]), "sorted and distinct"),
    "not-symmetric": (lambda: raw_graph(2, [0, 1, 1], [1], [1.0]), "not symmetric"),
    "asymmetric-weights": (lambda: raw_graph(2, [0, 1, 2], [1, 0], [1.0, 2.0]), "not symmetric"),
}


@pytest.mark.parametrize("name", INVALID_GRAPHS)
def test_validate_refuses_each_broken_invariant(name):
    build, message = INVALID_GRAPHS[name]
    with pytest.raises(ValueError, match=message):
        validate(build())


PATH3 = np.array([[0, 1], [1, 2]])


def path3_mix_selector():
    """Target 0 mixed with partner 2 on the path 0-1-2."""
    return MixSelector(3, [0], [2], [0.5])


GRAPH_BUILDERS = {
    "from_edges": lambda: from_edges(3, PATH3),
    "add_self_loops": lambda: add_self_loops(from_edges(3, PATH3)),
    "add_self_loops-unchanged": lambda: add_self_loops(add_self_loops(from_edges(3, PATH3))),
    "sym_normalize": lambda: sym_normalize(add_self_loops(from_edges(3, PATH3))),
    "mix_adjacency": lambda: mix_adjacency(add_self_loops(from_edges(3, PATH3)), path3_mix_selector()),
}


@pytest.mark.parametrize("name", GRAPH_BUILDERS)
def test_operators_return_canonical_read_only_csr(name):
    g = GRAPH_BUILDERS[name]()
    assert isinstance(g, csr_array)
    assert g.has_canonical_format
    validate(g)  # recomputes the sorted-and-distinct check from the arrays
    for attr in ("indptr", "indices", "data"):
        arr = getattr(g, attr)
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
