import importlib.util
import json
import os
from pathlib import Path

import numpy as np

from conftest import dense_table
from reachmix import cli, diagnostics, graphio
from reachmix.graphalg import from_edges

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"

# Call sites the program no longer has; the benchmark skips them. The
# refresh reuses the previous epoch's eval logits, so nothing calls
# ``trainer.predict_probs``, and its metric reads 0. ``diagnostics`` reads
# A_hat off ``trainer.build_operators``, whose ``trainer.sym_normalize`` site
# still feeds ``graphalg.sym_normalize_s`` on the diagnose workload (see
# ``test_tracer_reads_layers_off_diagnose_cka``). Every other traced site is
# live, ``diagnostics.bfs_distances`` (the labeled-set distances) among them.
KNOWN_MISSING = {
    ("reachmix.trainer", "predict_probs"),
    ("reachmix.diagnostics", "sym_normalize"),
}


def load_module(path, name):
    """A benchmark module, loaded from its file without writing to it."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_module(TRACER, "perfbench_tracer")


def test_the_benchmark_graph_round_trips_through_a_small_features_file(tmp_path):
    """The benchmark's input, ``cora_like.build(1)``, is written and read
    back bit for bit, from the text and then from the cache. Its
    features.tsv holds entries: 1.26 MB, where the dense layout was 16.2 MB;
    its cache holds the CSR arrays with int32 indices: 0.59 MB, where the
    dense table was 31 MB."""
    dataset = load_module(PERFBENCH / "cora_like.py", "perfbench_cora_like").build(1)
    graphio.save_dataset(dataset, tmp_path)
    assert os.path.getsize(tmp_path / "features.tsv") < 1_500_000
    for load in ("parsed", "cached"):
        back = graphio.load_dataset(tmp_path)
        assert os.path.getsize(tmp_path / graphio.CACHE_FILE) < 650_000, load
        assert dense_table(back.features).tobytes() == dataset.features.tobytes(), load
        assert back.num_classes == dataset.num_classes
        np.testing.assert_array_equal(back.edges, dataset.edges)
        np.testing.assert_array_equal(back.labels, dataset.labels)
        for name in ("labeled_ids", "valid_ids", "test_ids"):
            np.testing.assert_array_equal(getattr(back.split, name), getattr(dataset.split, name))


def test_the_benchmark_graph_keeps_a_small_reach_cache(tmp_path):
    """The labeled-set distances of ``cora_like.build(1)`` are 140 x 2569
    bytes: the diameter is below 256, so each fits a uint8. The warm report
    is the cold one, bit for bit."""
    graphio.save_dataset(load_module(PERFBENCH / "cora_like.py", "perfbench_cora_like").build(1), tmp_path)
    dataset = graphio.load_dataset(tmp_path)
    g = from_edges(dataset.num_nodes, dataset.edges)
    cache = (str(tmp_path), dataset.fingerprint)
    cold, warm = (diagnostics.reaching_coefficient(g, dataset.split.labeled_ids, cache) for _ in range(2))
    assert os.path.getsize(tmp_path / diagnostics.REACH_CACHE) < 400_000
    assert cold.diameter == warm.diameter
    for name in ("node_ids", "rc", "min_dist", "mean_dist"):
        assert getattr(cold, name).tobytes() == getattr(warm, name).tobytes(), name


def test_the_benchmark_set_up_describes_its_graph(tmp_path):
    """``cora_like.describe``, which every benchmark set-up calls, reads the
    ``Dataset`` it is given; its scipy diameter is the one ``diagnose rc``
    reports on the saved graph."""
    cora_like = load_module(PERFBENCH / "cora_like.py", "perfbench_cora_like")
    dataset = cora_like.build(1)
    shape = cora_like.describe(dataset)
    assert (shape["nodes"], shape["features"], shape["split"]) == (2709, 1433, [140, 500, 1000])
    graphio.save_dataset(dataset, tmp_path / "data")
    assert cli.main(["diagnose", "rc", "--data", str(tmp_path / "data"), "--out", str(tmp_path / "rc")]) == 0
    assert shape["diameter"] == json.loads((tmp_path / "rc" / "rc_summary.json").read_text())["diameter"] == 13


def test_benchmark_call_sites_exist():
    """A traced name that is deleted or renamed fails here instead of
    silently zeroing a per-layer benchmark metric."""
    missing = {(module.__name__, attr) for module, attr, _, _ in load_tracer().CALL_SITES
               if not hasattr(module, attr)}
    assert missing == KNOWN_MISSING


def write_data_and_config(tmp_path):
    data, config = tmp_path / "data", tmp_path / "config.json"
    assert cli.main(["synth", "--classes", "3", "--per-class", "30", "--p-in", "0.3", "--p-out", "0.02",
                     "--feature-dim", "8", "--noise", "0.5", "--seed", "1", "--labels-per-class", "4",
                     "--valid-per-class", "4", "--out", str(data)]) == 0
    config.write_text(json.dumps({"lr": 0.05, "max_epochs": 15, "patience": 15, "seeds": [0],
                                  "mixup_enabled": True, "mixup": {"warmup_epochs": 2}}))
    return data, config


def test_tracer_reads_counts_off_a_mixup_run(tmp_path):
    """The tracer's info readers (pair counts, pseudo-label counts, flops)
    read fields of the program's arguments and results; a renamed field
    fails here instead of in a ``--trace 1`` benchmark run. The refresh
    chain runs in ``trainer.refresh`` through the traced ``trainer`` names,
    so its spans, ``build_batches`` among them, read above 0."""
    tracer_module = load_tracer()
    data, config = write_data_and_config(tmp_path)
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert cli.main(["train", "--data", str(data), "--config", str(config),
                         "--out", str(tmp_path / "train")]) == 0
        assert cli.main(["diagnose", "rc", "--data", str(data), "--out", str(tmp_path / "rc")]) == 0
    metrics = tracer_module.layer_metrics(tracer, 0.0)
    for name in ("mixup.refreshes", "mixup.pseudo_label_frac", "mixup.intra_pairs", "mixup.inter_pairs",
                 "graphalg.matmul_dense_flops", "graphio.features_bytes", "nn.eval_forward_s",
                 "graphalg.bfs_distances_calls", "nn.mlp_forward_s", "nn.backward_s",
                 "graphalg.mix_adjacency_s", "mixup.loss_and_grads_s", "mixup.compute_nld_s",
                 "mixup.sample_pairs_s", "mixup.build_batches_s", "mixup.refresh_s"):
        assert metrics[name] > 0, name


def test_tracer_reads_layers_off_diagnose_cka(tmp_path):
    """``diagnose cka`` alone feeds the per-layer metrics of the model path
    it takes: one ``build_operators``, its A_hat normalisation and one eval
    forward. A call site that moved out of a traced namespace reads 0 here."""
    tracer_module = load_tracer()
    data, config = write_data_and_config(tmp_path)
    assert cli.main(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "train")]) == 0
    tracer = tracer_module.Tracer()
    with tracer.installed():
        assert cli.main(["diagnose", "cka", "--data", str(data), "--out", str(tmp_path / "cka"),
                         "--checkpoint", str(tmp_path / "train" / "checkpoint_seed0.txt")]) == 0
    metrics = tracer_module.layer_metrics(tracer, 0.0)
    for name in ("graphalg.sym_normalize_s", "nn.eval_forward_s", "trainer.build_operators_s"):
        assert metrics[name] > 0, name
