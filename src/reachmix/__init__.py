"""Semi-supervised node classification with node mixup and reachability diagnostics.

A numpy and scipy.sparse implementation: dataset I/O and synthesis, CSR graph
operators, a two-layer GCN with hand-written backprop and Adam, the mixup
training engine (pseudo-labels, neighborhood-label-distribution sampling,
intra/inter-class batches), reachability diagnostics, and a CLI.
"""

__version__ = "0.1.0"

from reachmix.graphio import Dataset, SplitSpec, generate_sbm, load_dataset, make_split, save_dataset
from reachmix.graphalg import (
    MixSelector,
    add_self_loops,
    bfs_distances,
    diameter_and_components,
    mix_adjacency,
    sym_normalize,
)
from reachmix.mixup import MixupConfig
from reachmix.trainer import RunResult, TrainConfig, grid_search, train_multi, train_one

__all__ = [
    "Dataset",
    "SplitSpec",
    "load_dataset",
    "save_dataset",
    "generate_sbm",
    "make_split",
    "MixSelector",
    "add_self_loops",
    "sym_normalize",
    "bfs_distances",
    "diameter_and_components",
    "mix_adjacency",
    "MixupConfig",
    "TrainConfig",
    "RunResult",
    "train_one",
    "train_multi",
    "grid_search",
    "__version__",
]
