"""Graph operators on ``scipy.sparse`` CSR: self-loops, symmetric
normalization, hop distances, diameter, and the pairwise adjacency-mixing
operator.

A graph is a plain ``scipy.sparse.csr_array``: square, symmetric, weights
finite and > 0, column indices sorted and distinct within each row
(canonical form), with read-only ``indptr``, ``indices`` and ``data``.
``from_edges``, ``add_self_loops``, ``sym_normalize`` and ``mix_adjacency``
return graphs in that form; ``validate`` checks all of it. No function
mutates its input, and ``add_self_loops`` returns it when no self-loop is
missing. Every hop distance comes from one kernel, ``bfs_distances``: a
bit-parallel BFS that runs 64 sources per pass over the edges (MS-BFS, Then
et al., VLDB 2014). The exact diameter runs it on blocks of 64 nodes chosen
by eccentricity bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_array, csr_array
from scipy.sparse import csgraph


def _frozen(m: csr_array) -> csr_array:
    """``m`` in the form of every graph the package returns: canonical
    (sorted on a copy) and read-only."""
    if not m.has_canonical_format:
        m = m.copy()  # m may share its arrays with an input graph
        m.sum_duplicates()  # sorts indices; the operators never produce duplicates
    for arr in (m.indptr, m.indices, m.data):
        arr.setflags(write=False)
    return m


def _row_ids(g: csr_array) -> np.ndarray:
    """Row index of every stored entry (COO expansion of indptr)."""
    return np.repeat(np.arange(g.shape[0], dtype=np.int64), np.diff(g.indptr))


def validate(g: csr_array) -> None:
    """Full invariant check; O(nnz). Used by ``from_edges`` and tests."""
    if g.ndim != 2 or g.shape[0] != g.shape[1] or g.shape[0] < 1:
        raise ValueError("graph must be a square matrix with at least one node")
    g.check_format(full_check=True)
    if np.any(g.data <= 0) or not np.all(np.isfinite(g.data)):
        raise ValueError("weights must be finite and > 0")
    rows = _row_ids(g)
    if np.any((rows[1:] == rows[:-1]) & (g.indices[1:] <= g.indices[:-1])):
        raise ValueError("columns must be sorted and distinct within each row")
    if (g != g.T).nnz:
        raise ValueError("graph is not symmetric")


def from_edges(num_nodes: int, edges: np.ndarray) -> csr_array:
    """Unweighted symmetric CSR from a canonical (E, 2) undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    g = _frozen(coo_array((np.ones(rows.size), (rows, cols)), shape=(num_nodes, num_nodes)).tocsr())
    validate(g)
    return g


def matmul_dense(g: csr_array, x: np.ndarray) -> np.ndarray:
    """Sparse-dense product g @ x (row-major accumulation, deterministic)."""
    return g @ np.asarray(x, dtype=np.float64)


def add_self_loops(g: csr_array) -> csr_array:
    """Ensure every node has a self-edge; missing diagonals get weight 1.

    Existing diagonal entries are kept as they are, so the operation is
    idempotent.
    """
    missing = np.flatnonzero(g.diagonal() == 0)
    if missing.size == 0:
        return g
    loops = coo_array((np.ones(missing.size), (missing, missing)), shape=g.shape)
    return _frozen((g + loops).tocsr())


def sym_normalize(g: csr_array) -> csr_array:
    """Return D^{-1/2} A D^{-1/2} with weighted degrees.

    The per-entry scale is computed as s_i * s_j before multiplying the
    weight, which keeps the result exactly symmetric entry-for-entry.
    """
    deg = np.ravel(g.sum(axis=1))
    if np.any(deg <= 0):
        bad = int(np.nonzero(deg <= 0)[0][0])
        raise ValueError(f"node {bad} has non-positive weighted degree; add self-loops first")
    s = 1.0 / np.sqrt(deg)
    scale = s[_row_ids(g)] * s[g.indices]
    return _frozen(csr_array((g.data * scale, g.indices, g.indptr), shape=g.shape))


def structural_degrees(g: csr_array) -> np.ndarray:
    """Per-node neighbor count, self-loops excluded."""
    return (np.diff(g.indptr) - (g.diagonal() != 0)).astype(np.int64)


# Little-endian words, so byte b of a word holds the bits of sources 8b..8b+7.
_WORD = np.dtype("<u8")
_BLOCK = 64  # sources per block: the bits of one word


def _bits(words: np.ndarray) -> np.ndarray:
    """(len(words), 64) array of 0/1: entry (v, j) is bit j of words[v]."""
    return np.unpackbits(words.view(np.uint8), bitorder="little").reshape(words.size, _BLOCK)


def _block_distances(g: csr_array, rows: np.ndarray, starts: np.ndarray, block: np.ndarray) -> np.ndarray:
    """(len(block), N) hop distances from up to 64 distinct sources at once.

    Bit j of a node's word stands for source block[j]. One level ORs the
    frontier words of each node's neighbours (a gather over ``indices``, then
    ``reduceat`` over the non-empty rows ``rows``, which start at ``starts``)
    and keeps the bits the node has not seen. The distances are counted in
    bit-sliced form: before each level adds its nodes, every (source, node)
    pair not yet seen is one level farther, so the level counter of all those
    pairs is incremented at once, bit plane by bit plane. Planes are added as
    the counts grow, so no path length overflows a fixed-width counter.
    """
    n, k = g.shape[0], block.size
    seen = np.zeros(n, _WORD)
    seen[block] = np.left_shift(1, np.arange(k, dtype=_WORD))
    frontier = seen.copy()
    planes = []  # bit j of planes[p][v] is bit p of d(block[j], v)
    while True:
        reached = np.zeros(n, _WORD)
        reached[rows] = np.bitwise_or.reduceat(frontier[g.indices], starts)
        reached &= ~seen
        if not reached.any():
            break
        carry = ~seen  # every pair not seen yet is one level farther
        for p, plane in enumerate(planes):
            planes[p], carry = plane ^ carry, plane & carry
        if carry.any():
            planes.append(carry)
        seen |= reached
        frontier = reached
    levels = np.zeros((n, _BLOCK), np.min_scalar_type((1 << len(planes)) - 1))
    for p, plane in enumerate(planes):
        levels |= np.left_shift(_bits(plane), p, dtype=levels.dtype)
    return np.where(_bits(seen).T[:k], levels.T[:k], np.inf)


def bfs_distances(g: csr_array, sources) -> np.ndarray:
    """(|distinct sources|, N) unweighted hop distances, one row per distinct
    source in ascending order; ``np.inf`` where a node is unreachable.

    The one BFS of the package. Sources run 64 at a time through
    ``_block_distances``, so one pass over the edges per level serves a whole
    block. Memory is O(64 N) per block plus the (|sources|, N) result.
    Self-loops never shorten a path, so they are effectively ignored.
    """
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    if sources.size == 0:
        raise ValueError("sources must be non-empty")
    if sources[0] < 0 or sources[-1] >= g.shape[0]:
        raise ValueError("source id out of range")
    rows = np.flatnonzero(np.diff(g.indptr))  # reduceat needs non-empty segments
    starts = g.indptr[rows]
    blocks = [_block_distances(g, rows, starts, sources[lo:lo + _BLOCK])
              for lo in range(0, sources.size, _BLOCK)]
    # One block is returned as it is: at 100k nodes its copy cost about as
    # much as the BFS.
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def connected_components(g: csr_array) -> np.ndarray:
    """Component id per node; ids are assigned in order of smallest member."""
    _, comp = csgraph.connected_components(g, directed=False)
    return comp.astype(np.int64)


def _exact_diameter(g: csr_array, comp: np.ndarray) -> int:
    """Max eccentricity over all components, from eccentricity bounds.

    A node's eccentricity is at most its component's size - 1, which settles
    small components (isolated nodes above all) without a BFS. A BFS from v
    with eccentricity e bounds every w it reaches by
    max(d(v, w), e - d(v, w)) <= ecc(w) <= e + d(v, w). A node is settled,
    and dropped, once its upper bound is at most the best lower bound; the
    diameter is that bound when no node is open. Each round runs one
    ``bfs_distances`` block of up to 64 open nodes, half with the largest
    upper and half with the smallest lower bound (the two picks of Takes &
    Kosters, CIKM 2011), and tightens the bounds of the open nodes from all
    its rows. A block settles its sources, so the loop ends after at most
    N / 64 rounds and usually after far fewer.

    Distances to settled nodes are not read, so e is taken over the open
    nodes. That keeps the answer exact. Every settled node has eccentricity
    at most the best lower bound, so if ecc(w) exceeds it, w's farthest node
    f (ecc(f) >= d(w, f) = ecc(w)) is open and counted in e, and
    e + d(v, w) >= d(v, f) + d(v, w) >= ecc(w): a bound can only settle a
    node whose eccentricity does not exceed the answer.
    """
    open_ids = np.arange(g.shape[0])
    lower = np.zeros(g.shape[0])
    upper = (np.bincount(comp)[comp] - 1).astype(np.float64)
    best = 0.0
    while True:
        keep = upper > best
        open_ids, lower, upper = open_ids[keep], lower[keep], upper[keep]
        if open_ids.size == 0:
            return int(best)
        by_upper = np.argsort(-upper, kind="stable")
        by_lower = np.argsort(lower, kind="stable")
        interleaved = np.stack([by_upper, by_lower], axis=1).ravel()
        _, first = np.unique(interleaved, return_index=True)
        picked = open_ids[interleaved[np.sort(first)[:_BLOCK]]]
        d = bfs_distances(g, picked)[:, open_ids]
        reach = np.isfinite(d)
        ecc = np.where(reach, d, 0.0).max(axis=1, keepdims=True)
        lower = np.maximum(lower, np.where(reach, np.maximum(d, ecc - d), 0.0).max(axis=0))
        upper = np.minimum(upper, (ecc + d).min(axis=0))
        best = max(best, lower.max())


def diameter_and_components(g: csr_array) -> tuple[int, np.ndarray]:
    """Exact diameter (max eccentricity over components) and component ids.

    The ids come from ``connected_components``; the diameter from
    ``_exact_diameter``, which runs ``bfs_distances`` on blocks of 64 sources
    until the eccentricity bounds meet, at any graph size. No N x N matrix is
    built.
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


def mix_adjacency(a: csr_array, s: csr_array) -> csr_array:
    """S A S^T for a selector matrix ``s`` (``MixSelector.matrix``), averaged
    with its transpose.

    All pairs apply at once to the original A: order-independent, and for a
    single pair the same as mixing row i then column i. For a symmetric ``a``
    (with the self-loops to mix) the average is exactly symmetric, as float
    addition commutes; sparse products store no zeros, so weights stay > 0.
    """
    m = s @ a @ s.T
    return _frozen((m + m.T) * 0.5)  # scipy leaves the sum's indices unsorted
