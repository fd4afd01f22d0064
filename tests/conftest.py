"""Shared fixtures and independent reference implementations.

The reference helpers here are deliberately naive (dense matrices, dict-based
BFS) so library results are checked against a second, independent route.
"""

from __future__ import annotations

import os
from collections import deque

import numpy as np
import pytest

from reachmix import nn
from reachmix.graphio import Dataset, SplitSpec


def path_dataset(n=3, num_classes=2, feature_dim=2):
    """Path graph 0-1-2-...-(n-1) with alternating labels."""
    edges = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    labels = np.arange(n) % num_classes
    rng = np.random.default_rng(0)
    features = rng.standard_normal((n, feature_dim))
    split = SplitSpec([0], [1] if n > 1 else [], list(range(2, n)))
    return Dataset(n, num_classes, edges, features, labels, split)


def random_graph_edges(rng, n, p=0.4):
    mask = np.triu(rng.random((n, n)) < p, k=1)
    rows, cols = np.nonzero(mask)
    return np.stack([rows, cols], axis=1)


def dense_bfs(dense: np.ndarray, sources) -> np.ndarray:
    """Plain queue BFS on a dense adjacency; the independent distance oracle."""
    n = dense.shape[0]
    dist = np.full(n, np.inf)
    q = deque()
    for s in sources:
        dist[s] = 0
        q.append(s)
    while q:
        u = q.popleft()
        for v in range(n):
            if v != u and dense[u, v] != 0 and np.isinf(dist[v]):
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def dense_mix(dense: np.ndarray, targets, partners, lams) -> np.ndarray:
    """Brute-force S A S^T with an explicit dense S."""
    n = dense.shape[0]
    s = np.eye(n)
    for t, p, lam in zip(targets, partners, lams):
        s[t] = 0.0
        s[t, t] = lam
        s[t, p] = 1.0 - lam
    return s @ dense @ s.T


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def blas_count(monkeypatch):
    """A fake process-wide BLAS thread count, starting at 4, in place of
    OpenBLAS's setting; read it as ``blas_count[0]``."""
    count = [4]

    def setter(n):
        previous, count[0] = count[0], n
        return previous

    monkeypatch.setattr(nn, "blas_thread_setter", lambda: setter)
    return count


def cora_directory():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    candidates = [
        os.environ.get("REACHMIX_CORA_DIR"),
        os.path.join(root, "data", "cora"),
    ]
    for path in candidates:
        if path and os.path.isdir(path):
            return path
    return None
