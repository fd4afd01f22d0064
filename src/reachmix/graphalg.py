"""Graph operators on ``scipy.sparse`` CSR: self-loops, symmetric
normalization, hop distances, diameter, and the pairwise adjacency-mixing
operator.

All graphs are symmetric weighted CSR. Functions are pure: they never mutate
their inputs and always return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse import csgraph


@dataclass(frozen=True)
class CsrGraph:
    """Symmetric sparse adjacency: a read-only ``scipy.sparse.csr_array``.

    Invariants: column indices sorted within each row without duplicates,
    weights strictly positive, and entry (i, j) present iff (j, i) is present
    with the same weight. The constructor sorts the indices; ``validate``
    checks the rest.
    """

    matrix: csr_array

    def __post_init__(self):
        m = self.matrix
        if not m.has_canonical_format:
            m = m.copy()
            m.sum_duplicates()  # sorts indices; the operators never produce duplicates
            object.__setattr__(self, "matrix", m)
        for arr in (m.indptr, m.indices, m.data):
            arr.setflags(write=False)

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def indptr(self) -> np.ndarray:
        return self.matrix.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.matrix.indices

    @property
    def weights(self) -> np.ndarray:
        return self.matrix.data

    def row_ids(self) -> np.ndarray:
        """Row index of every stored entry (COO expansion of indptr)."""
        return np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))

    def to_dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def validate(self) -> None:
        """Full invariant check; O(nnz). Used by constructors and tests."""
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError("graph must be a square matrix with at least one node")
        m.check_format(full_check=True)
        if np.any(self.weights <= 0) or not np.all(np.isfinite(self.weights)):
            raise ValueError("weights must be finite and > 0")
        rows = self.row_ids()
        if np.any((rows[1:] == rows[:-1]) & (self.indices[1:] <= self.indices[:-1])):
            raise ValueError("columns must be sorted and distinct within each row")
        if (m != m.T).nnz:
            raise ValueError("graph is not symmetric")


def from_edges(num_nodes: int, edges: np.ndarray) -> CsrGraph:
    """Unweighted symmetric CSR from a canonical (E, 2) undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    g = CsrGraph(coo_array((np.ones(rows.size), (rows, cols)), shape=(num_nodes, num_nodes)).tocsr())
    g.validate()
    return g


def matmul_dense(g: CsrGraph, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product g @ x (row-major accumulation, deterministic)."""
    return g.matrix @ np.asarray(x, dtype=np.float64)


def identity_adjacency(n: int) -> CsrGraph:
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return CsrGraph(csr_array((np.ones(n), idx, np.arange(n + 1)), shape=(n, n)))


def add_self_loops(g: CsrGraph) -> CsrGraph:
    """Ensure every node has a self-edge; missing diagonals get weight 1.

    Existing diagonal entries are kept as they are, so the operation is
    idempotent.
    """
    missing = np.flatnonzero(g.matrix.diagonal() == 0)
    if missing.size == 0:
        return g
    loops = coo_array((np.ones(missing.size), (missing, missing)), shape=g.matrix.shape)
    return CsrGraph((g.matrix + loops).tocsr())


def sym_normalize(g: CsrGraph) -> CsrGraph:
    """Return D^{-1/2} A D^{-1/2} with weighted degrees.

    The per-entry scale is computed as s_i * s_j before multiplying the
    weight, which keeps the result exactly symmetric entry-for-entry.
    """
    deg = np.ravel(g.matrix.sum(axis=1))
    if np.any(deg <= 0):
        bad = int(np.nonzero(deg <= 0)[0][0])
        raise ValueError(f"node {bad} has non-positive weighted degree; add self-loops first")
    s = 1.0 / np.sqrt(deg)
    scale = s[g.row_ids()] * s[g.indices]
    return CsrGraph(csr_array((g.weights * scale, g.indices, g.indptr), shape=g.matrix.shape))


def structural_degrees(g: CsrGraph) -> np.ndarray:
    """Per-node neighbor count, self-loops excluded."""
    return (np.diff(g.indptr) - (g.matrix.diagonal() != 0)).astype(np.int64)


def _sources(g: CsrGraph, sources) -> np.ndarray:
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        raise ValueError("sources must be non-empty")
    if sources[0] < 0 or sources[-1] >= g.num_nodes:
        raise ValueError("source id out of range")
    return sources


def bfs_distances(g: CsrGraph, sources) -> np.ndarray:
    """Unweighted multi-source BFS: hop distance to the nearest source.

    Returns float64 with ``np.inf`` for unreachable nodes. Self-loops never
    shorten a path, so they are effectively ignored.
    """
    return csgraph.dijkstra(g.matrix, indices=_sources(g, sources), unweighted=True, min_only=True)


def hop_distances(g: CsrGraph, sources) -> np.ndarray:
    """(|sources|, N) hop distances, one row per distinct source in ascending
    order; ``np.inf`` where unreachable."""
    return csgraph.dijkstra(g.matrix, indices=_sources(g, sources), unweighted=True)


def connected_components(g: CsrGraph) -> np.ndarray:
    """Component id per node; ids are assigned in order of smallest member."""
    _, comp = csgraph.connected_components(g.matrix, directed=False)
    return comp.astype(np.int64)


def _exact_diameter(g: CsrGraph, comp: np.ndarray) -> int:
    """Max eccentricity over all components, from eccentricity bounds.

    A node's eccentricity is at most its component's size - 1, which settles
    small components (isolated nodes above all) without a BFS. A BFS from v
    with eccentricity e bounds every w it reaches by
    max(d(v, w), e - d(v, w)) <= ecc(w) <= e + d(v, w). The diameter is the
    largest lower bound once no upper bound exceeds it. Sources alternate
    between the largest upper and the smallest lower bound (Takes & Kosters,
    CIKM 2011); each BFS settles its source, so the loop ends after at most N
    of them and usually after far fewer.
    """
    lower = np.zeros(g.num_nodes)
    upper = (np.bincount(comp)[comp] - 1).astype(np.float64)
    take_upper = True
    while True:
        open_ids = np.flatnonzero(upper > lower.max())
        if open_ids.size == 0:
            return int(lower.max())
        pick = np.argmax(upper[open_ids]) if take_upper else np.argmin(lower[open_ids])
        take_upper = not take_upper
        d = bfs_distances(g, [open_ids[pick]])
        reach = np.isfinite(d)
        dr = d[reach]
        ecc = dr.max()
        lower[reach] = np.maximum(lower[reach], np.maximum(dr, ecc - dr))
        upper[reach] = np.minimum(upper[reach], ecc + dr)


def diameter_and_components(g: CsrGraph) -> tuple[int, np.ndarray]:
    """Exact diameter (max eccentricity over components) and component ids.

    The ids come from ``connected_components``; the diameter from
    ``_exact_diameter``'s eccentricity-bound loop of ``bfs_distances`` runs,
    at any graph size.
    """
    comp = connected_components(g)
    return _exact_diameter(g, comp), comp


@dataclass(frozen=True)
class MixSelector:
    """A batch of simultaneous pair mixes on a graph of ``num_nodes`` nodes:
    node t becomes lam * t + (1 - lam) * partner for every (t, partner, lam).
    The one place pair ids are checked: equal lengths, lambda in [0, 1],
    distinct targets, no partner that is also a target, ids in [0, n).
    """

    num_nodes: int
    targets: np.ndarray  # int64
    partners: np.ndarray  # int64
    lams: np.ndarray  # float64 in [0, 1]

    def __post_init__(self):
        for name, dtype in (("targets", np.int64), ("partners", np.int64), ("lams", np.float64)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        k = self.targets.size
        if self.partners.size != k or self.lams.size != k:
            raise ValueError("targets, partners, lams must have equal length")
        if np.unique(self.targets).size != k:
            raise ValueError("targets must be distinct")
        if np.intersect1d(self.targets, self.partners).size:
            raise ValueError("a partner may not also be a target")
        if not np.all((self.lams >= 0.0) & (self.lams <= 1.0)):  # NaN fails too
            raise ValueError("lambda values must lie in [0, 1]")
        ids = np.concatenate([self.targets, self.partners])
        if np.any((ids < 0) | (ids >= self.num_nodes)):
            raise ValueError("selector refers to node ids outside the graph")

    def __len__(self) -> int:
        return int(self.targets.size)

    def matrix(self) -> csr_array:
        """The n x n selector S: the identity with row t replaced by
        lam * e_t + (1 - lam) * e_p for every (t, p, lam)."""
        n = self.num_nodes
        diag = np.ones(n)
        diag[self.targets] = self.lams
        rows = np.concatenate([np.arange(n), self.targets])
        cols = np.concatenate([np.arange(n), self.partners])
        vals = np.concatenate([diag, 1.0 - self.lams])
        return coo_array((vals, (rows, cols)), shape=(n, n)).tocsr()

    def pair_rows(self) -> csr_array:
        """The k x n matrix of the mixes alone, row i = row targets[i] of S,
        built from the 2k pair entries (0 x n for an empty batch)."""
        rows = np.tile(np.arange(len(self)), 2)
        cols = np.concatenate([self.targets, self.partners])
        vals = np.concatenate([self.lams, 1.0 - self.lams])
        return coo_array((vals, (rows, cols)), shape=(len(self), self.num_nodes)).tocsr()


def mix_adjacency(a: CsrGraph, s: csr_array) -> CsrGraph:
    """S A S^T for a selector matrix ``s`` (``MixSelector.matrix``), averaged
    with its transpose.

    All pairs apply at once to the original A: order-independent, and for a
    single pair the same as mixing row i then column i. For a symmetric ``a``
    (with the self-loops to mix) the average is exactly symmetric, as float
    addition commutes; sparse products store no zeros, so weights stay > 0.
    """
    m = s @ a.matrix @ s.T
    return CsrGraph((m + m.T) * 0.5)
