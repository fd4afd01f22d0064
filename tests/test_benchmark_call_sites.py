import importlib.util
import json
from pathlib import Path

from reachmix import cli

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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


def load_tracer():
    """The benchmark's tracer module, loaded from its file without writing to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
    fails here instead of in a ``--trace 1`` benchmark run."""
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
                 "graphalg.bfs_distances_calls"):
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
