"""Deterministic Cora-shaped dataset for the benchmark.

Shape of the Planetoid Cora citation graph: 2709 nodes in 7 classes, about
5.4k undirected edges with edge homophily near 0.8, 1433 binary bag-of-words
features (about 18 words per node, so about 1.25 % dense) normalised per
row, 20 labeled nodes per class, 500 validation and 1000 test nodes.

The graph and labels come from the program's own ``generate_sbm``; the
features and the split are built here, because ``generate_sbm`` only makes
dense Gaussian features and a per-class validation split. Everything is a
function of the seed alone.

Run it directly to print the shape a seed produces:

    python3 perfbench/cora_like.py --seed 1
"""

from __future__ import annotations

import numpy as np

NUM_CLASSES = 7
NODES_PER_CLASS = 387  # 7 * 387 = 2709 nodes
NUM_FEATURES = 1433
# Expected edges: 7 * C(387, 2) * P_IN ~ 4.37k within classes and
# 21 * 387^2 * P_OUT ~ 1.03k across them, so ~5.4k edges at homophily ~0.81.
P_IN = 0.00837
P_OUT = 0.000326
WORDS_PER_NODE = 18  # mean of 1 + Poisson(17)
TOPIC_WORDS = 60  # class-specific vocabulary, disjoint between classes
# Chance that a word is drawn from the node's class vocabulary rather than
# the shared background. Set so that the baseline GCN scores ~0.75-0.85
# test accuracy, as on Cora, instead of saturating near 1.
TOPIC_SHARE = 0.12
LABELS_PER_CLASS = 20
NUM_VALID = 500
NUM_TEST = 1000


def bag_of_words(labels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Row-normalised binary word-presence matrix with a per-class topic."""
    vocab = rng.permutation(NUM_FEATURES)
    topics = vocab[: NUM_CLASSES * TOPIC_WORDS].reshape(NUM_CLASSES, TOPIC_WORDS)
    # Zipf-like background popularity over the whole vocabulary.
    popularity = 1.0 / (np.arange(NUM_FEATURES) + 10.0)
    background = np.empty(NUM_FEATURES)
    background[vocab] = popularity / popularity.sum()
    x = np.zeros((labels.size, NUM_FEATURES))
    for i, c in enumerate(labels):
        k = 1 + rng.poisson(WORDS_PER_NODE - 1)
        from_topic = min(rng.binomial(k, TOPIC_SHARE), TOPIC_WORDS)
        x[i, rng.choice(topics[c], size=from_topic, replace=False)] = 1.0
        x[i, rng.choice(NUM_FEATURES, size=k - from_topic, replace=False, p=background)] = 1.0
    return x / x.sum(axis=1, keepdims=True)


def cora_split(labels: np.ndarray, rng: np.random.Generator):
    """20 labeled per class, then 500 validation and 1000 test from the rest."""
    from reachmix.graphio import SplitSpec

    labeled = np.concatenate([
        rng.choice(np.flatnonzero(labels == c), size=LABELS_PER_CLASS, replace=False)
        for c in range(NUM_CLASSES)
    ])
    rest = rng.permutation(np.setdiff1d(np.arange(labels.size), labeled))
    return SplitSpec(labeled, rest[:NUM_VALID], rest[NUM_VALID:NUM_VALID + NUM_TEST])


def build(seed: int):
    """The benchmark dataset for ``seed``, as a ``reachmix.graphio.Dataset``."""
    from dataclasses import replace

    from reachmix import graphio

    graph = graphio.generate_sbm(
        num_classes=NUM_CLASSES, nodes_per_class=NODES_PER_CLASS, p_in=P_IN, p_out=P_OUT,
        feature_dim=NUM_CLASSES, feature_noise=0.0, seed=seed,
        labels_per_class=LABELS_PER_CLASS, valid_per_class=0,
    )
    rng = np.random.default_rng([seed, 1433])
    features = bag_of_words(graph.labels, rng)
    return replace(graph, features=features, split=cora_split(graph.labels, rng))


def describe(dataset) -> dict:
    """Shape of a dataset, computed with scipy rather than the program's own
    graph code, so the diameter doubles as a reference for ``diagnose rc``."""
    from scipy.sparse import coo_array
    from scipy.sparse.csgraph import connected_components, shortest_path

    n = dataset.num_nodes
    u, v = dataset.edges[:, 0], dataset.edges[:, 1]
    adj = coo_array((np.ones(u.size), (u, v)), shape=(n, n)).tocsr()
    num_components, _ = connected_components(adj, directed=False)
    hops = shortest_path(adj, directed=False, unweighted=True)
    return {
        "nodes": n,
        "edges": int(u.size),
        "features": dataset.num_features,
        "feature_density": float(np.count_nonzero(dataset.features) / dataset.features.size),
        "edge_homophily": float(np.mean(dataset.labels[u] == dataset.labels[v])),
        "components": int(num_components),
        "diameter": int(hops[np.isfinite(hops)].max()),
        "split": [int(dataset.split.labeled_ids.size), int(dataset.split.valid_ids.size),
                  int(dataset.split.test_ids.size)],
    }


if __name__ == "__main__":
    import argparse
    import json
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    print(json.dumps(describe(build(parser.parse_args().seed))))
