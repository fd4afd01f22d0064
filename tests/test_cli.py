import json
import os

import numpy as np
import pytest

from reachmix.cli import main, parse_seeds
from reachmix.graphio import load_dataset
from reachmix.nn import load_params


def run_cli(argv):
    return main(argv)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def synth_args(out, seed=7, per_class=20):
    return [
        "synth", "--classes", "3", "--per-class", str(per_class),
        "--p-in", "0.3", "--p-out", "0.02", "--feature-dim", "6",
        "--noise", "0.8", "--seed", str(seed),
        "--labels-per-class", "4", "--valid-per-class", "4",
        "--out", str(out),
    ]


def test_parse_seeds():
    assert parse_seeds("0..3") == [0, 1, 2, 3]
    assert parse_seeds("1,5,9") == [1, 5, 9]
    with pytest.raises(Exception):
        parse_seeds("5..1")


def test_synth_creates_loadable_dataset(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(synth_args(out)) == 0
    ds = load_dataset(out)
    assert ds.num_nodes == 60
    assert "60 nodes" in capsys.readouterr().out
    assert os.path.exists(out / "manifest.json")


def test_synth_missing_out_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["synth", "--classes", "2", "--per-class", "5", "--p-in", "0.5", "--p-out", "0.1"])
    assert exc.value.code == 2


def test_synth_deterministic_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(synth_args(a))
    run_cli(synth_args(b))
    for name in ("edges.tsv", "features.tsv", "labels.tsv", "split.json"):
        assert read_bytes(a / name) == read_bytes(b / name)


def test_existing_out_requires_force(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli(synth_args(out)) == 0
    assert run_cli(synth_args(out)) == 1
    assert "exists" in capsys.readouterr().err
    assert run_cli(synth_args(out) + ["--force"]) == 0


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "sbm"
    run_cli(synth_args(out))
    return out


@pytest.fixture(scope="module")
def quick_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    blob = {
        "hidden": 16,
        "max_epochs": 25,
        "patience": 25,
        "seeds": [0, 1],
        "mixup_enabled": True,
        "mixup": {"warmup_epochs": 5},
    }
    path.write_text(json.dumps(blob))
    return path


def test_train_writes_run_directory(tmp_path, dataset_dir, quick_config, capsys):
    out = tmp_path / "run"
    code = run_cli([
        "train", "--data", str(dataset_dir), "--config", str(quick_config), "--out", str(out),
    ])
    assert code == 0
    assert "test_acc mean=" in capsys.readouterr().out
    for name in ("metrics_seed0.tsv", "metrics_seed1.tsv", "checkpoint_seed0.txt",
                 "summary.json", "manifest.json", "timings.tsv"):
        assert os.path.exists(out / name), name
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary["test_acc"]) == {"0", "1"}
    load_params(out / "checkpoint_seed0.txt")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert "dataset_fingerprint" in manifest


def test_train_seed_and_mixup_flags_override_config(tmp_path, dataset_dir, quick_config):
    out = tmp_path / "run"
    run_cli([
        "train", "--data", str(dataset_dir), "--config", str(quick_config),
        "--seeds", "5..6", "--mixup", "off", "--out", str(out),
    ])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seeds"] == [5, 6]
    assert manifest["config"]["mixup_enabled"] is False
    history = (out / "metrics_seed5.tsv").read_text().splitlines()[1:]
    intra = {line.split("\t")[3] for line in history}
    assert intra == {"0.0"}  # mixup off: no auxiliary loss


def test_train_metrics_deterministic_across_invocations(tmp_path, dataset_dir, quick_config):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run_cli(["train", "--data", str(dataset_dir), "--config", str(quick_config), "--out", str(out1)])
    run_cli(["train", "--data", str(dataset_dir), "--config", str(quick_config), "--out", str(out2)])
    for name in ("metrics_seed0.tsv", "metrics_seed1.tsv", "summary.json"):
        assert read_bytes(out1 / name) == read_bytes(out2 / name), name


def test_train_bad_dataset_exits_one(tmp_path, capsys):
    missing = tmp_path / "nope"
    out = tmp_path / "run"
    assert run_cli(["train", "--data", str(missing), "--out", str(out)]) == 1
    assert "error" in capsys.readouterr().err


def test_diagnose_rc_writes_tables(tmp_path, dataset_dir):
    out = tmp_path / "rc"
    assert run_cli(["diagnose", "rc", "--data", str(dataset_dir), "--out", str(out)]) == 0
    lines = (out / "rc.tsv").read_text().splitlines()
    ds = load_dataset(dataset_dir)
    assert len(lines) == 1 + (ds.num_nodes - ds.split.labeled_ids.size)
    json.loads((out / "rc_summary.json").read_text())


def test_diagnose_avgsp(tmp_path, dataset_dir):
    out = tmp_path / "avgsp"
    assert run_cli(["diagnose", "avgsp", "--data", str(dataset_dir), "--out", str(out)]) == 0
    assert (out / "avgsp.tsv").read_text().startswith("degree\t")


def test_diagnose_cka_needs_checkpoint(tmp_path, dataset_dir, capsys):
    out = tmp_path / "cka"
    with pytest.raises(SystemExit) as exc:
        run_cli(["diagnose", "cka", "--data", str(dataset_dir), "--out", str(out)])
    assert exc.value.code == 2


def test_diagnose_cka_with_checkpoint(tmp_path, dataset_dir, quick_config, capsys):
    run_dir = tmp_path / "run"
    run_cli(["train", "--data", str(dataset_dir), "--config", str(quick_config),
             "--seeds", "0", "--out", str(run_dir)])
    out = tmp_path / "cka"
    code = run_cli([
        "diagnose", "cka", "--data", str(dataset_dir),
        "--checkpoint", str(run_dir / "checkpoint_seed0.txt"), "--out", str(out),
    ])
    assert code == 0
    lines = (out / "cka.tsv").read_text().splitlines()
    assert len(lines) == 6  # header + five buckets


def test_diagnose_pearson_degenerate_model_fails_cleanly(tmp_path, dataset_dir, capsys):
    ckpt = tmp_path / "zero.txt"
    from reachmix.nn import ModelParams, save_params

    ds = load_dataset(dataset_dir)
    f, c = ds.num_features, ds.num_classes
    save_params(ckpt, ModelParams(np.zeros((f, 4)), np.zeros(4), np.zeros((4, c)), np.zeros(c)))
    out = tmp_path / "pearson"
    code = run_cli([
        "diagnose", "pearson", "--data", str(dataset_dir),
        "--checkpoint", str(ckpt), "--out", str(out),
    ])
    assert code == 1
    assert "variance" in capsys.readouterr().err


@pytest.mark.parametrize("text, line", [
    pytest.param("param w1 2 6 4\n", 1, id="cut-after-header"),
    pytest.param("param b1 1 2\n0.5 x\n", 2, id="non-numeric"),
    pytest.param("param b1 2 2\n0.5 0.5\n", 1, id="ndim-mismatch"),
    pytest.param("param b1 1 3\n0.5 0.5\n", 2, id="value-count"),
])
def test_diagnose_bad_checkpoint_names_file_and_line(tmp_path, dataset_dir, capsys, text, line):
    ckpt = tmp_path / "bad.txt"
    ckpt.write_text(text, encoding="utf-8")
    code = run_cli([
        "diagnose", "cka", "--data", str(dataset_dir),
        "--checkpoint", str(ckpt), "--out", str(tmp_path / "cka"),
    ])
    assert code == 1
    assert f"{ckpt}:{line}: " in capsys.readouterr().err


def test_gradcheck_passes(capsys):
    assert run_cli(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "max_rel_err" in out


def test_gradcheck_larger_eps_still_bounded(capsys):
    assert run_cli(["gradcheck", "--eps", "1e-3", "--threshold", "1e-4"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("PASS")


def test_gradcheck_deterministic(capsys):
    run_cli(["gradcheck", "--seed", "3"])
    first = capsys.readouterr().out
    run_cli(["gradcheck", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_sweep_single_point(tmp_path, dataset_dir, quick_config, capsys):
    out = tmp_path / "sweep"
    code = run_cli([
        "sweep", "--data", str(dataset_dir), "--config", str(quick_config),
        "--seeds", "0", "--grid", "mixup.gamma=0.9", "--out", str(out),
    ])
    assert code == 0
    lines = (out / "sweep.tsv").read_text().splitlines()
    assert len(lines) == 2  # header + one row
    best = json.loads((out / "best.json").read_text())
    assert best["mixup"]["gamma"] == 0.9


def test_sweep_best_config_is_trainable(tmp_path, dataset_dir, quick_config):
    sweep_out = tmp_path / "sweep"
    run_cli([
        "sweep", "--data", str(dataset_dir), "--config", str(quick_config),
        "--seeds", "0", "--grid", "mixup.gamma=0.7,0.9", "--grid", "lr=0.01",
        "--out", str(sweep_out),
    ])
    train_out = tmp_path / "train"
    code = run_cli([
        "train", "--data", str(dataset_dir), "--config", str(sweep_out / "best.json"),
        "--out", str(train_out),
    ])
    assert code == 0


def test_sweep_empty_grid_usage_error(tmp_path, dataset_dir):
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep", "--data", str(dataset_dir), "--grid", "lr=", "--out", str(tmp_path / "s")])
    assert exc.value.code == 2


def test_data_root_environment_fallback(tmp_path, monkeypatch, capsys):
    root = tmp_path / "datasets"
    root.mkdir()
    run_cli(synth_args(root / "tiny", per_class=10))
    monkeypatch.setenv("REACHMIX_DATA_ROOT", str(root))
    out = tmp_path / "rc"
    code = run_cli(["diagnose", "rc", "--data", "tiny", "--out", str(out)])
    assert code == 0


def test_sweep_parallel_jobs_match_serial(tmp_path, dataset_dir, quick_config):
    serial, parallel = tmp_path / "s1", tmp_path / "s2"
    argv = [
        "sweep", "--data", str(dataset_dir), "--config", str(quick_config),
        "--seeds", "0", "--grid", "hidden=8,16",
    ]
    assert run_cli(argv + ["--out", str(serial)]) == 0
    assert run_cli(argv + ["--jobs", "2", "--out", str(parallel)]) == 0
    assert read_bytes(serial / "sweep.tsv") == read_bytes(parallel / "sweep.tsv")
    assert read_bytes(serial / "best.json") == read_bytes(parallel / "best.json")


def make_planetoid_dump(tmp_path, name="cora"):
    """Synthetic raw dump in the pickled ind.<name>.* layout.

    600 training-region nodes plus 4 test nodes listed out of order in
    test.index, with one id gap (node 603) to exercise the isolated-node
    path.
    """
    import pickle

    import scipy.sparse as sp

    rng = np.random.default_rng(0)
    n_allx, n_feat, n_cls = 600, 5, 3
    allx = sp.csr_matrix(rng.random((n_allx, n_feat)) * (rng.random((n_allx, n_feat)) < 0.3))
    ally = np.zeros((n_allx, n_cls))
    ally[np.arange(n_allx), rng.integers(0, n_cls, n_allx)] = 1
    ally[:n_cls] = np.eye(n_cls)  # make every class non-empty
    test_idx = np.array([601, 600, 604, 602])  # shuffled, gap at 603
    tx = sp.csr_matrix(rng.random((4, n_feat)) + 0.1)
    ty = np.zeros((4, n_cls))
    ty[np.arange(4), rng.integers(0, n_cls, 4)] = 1
    x, y = allx[:20], ally[:20]
    graph = {i: [] for i in range(605)}
    for u, v in [(0, 1), (1, 2), (600, 0), (604, 2), (601, 5), (602, 5), (3, 3)]:
        graph[u].append(v)
        graph[v].append(u)
    raw = tmp_path / "raw"
    raw.mkdir()
    for suffix, obj in [
        ("x", x), ("y", y), ("tx", tx), ("ty", ty),
        ("allx", allx), ("ally", ally), ("graph", graph),
    ]:
        with open(raw / f"ind.{name}.{suffix}", "wb") as fh:
            pickle.dump(obj, fh)
    np.savetxt(raw / f"ind.{name}.test.index", test_idx, fmt="%d")
    return raw, allx, ally, tx, ty, test_idx


def test_convert_planetoid_dump_round_trip(tmp_path):
    pytest.importorskip("scipy")
    raw, allx, ally, tx, ty, test_idx = make_planetoid_dump(tmp_path)
    out = tmp_path / "converted"
    code = run_cli([
        "convert-cora", "--raw", str(raw), "--out", str(out), "--no-row-normalize",
    ])
    assert code == 0
    ds = load_dataset(out)
    assert ds.num_nodes == 605
    # tx row j belongs to the j-th line of test.index.
    dense_tx = np.asarray(tx.todense())
    for j, node in enumerate(test_idx):
        np.testing.assert_allclose(ds.features[node], dense_tx[j])
        assert ds.labels[node] == int(np.argmax(ty[j]))
    np.testing.assert_allclose(ds.features[:600], np.asarray(allx.todense()))
    # The gap id became an isolated zero-feature node labeled 0.
    assert np.all(ds.features[603] == 0.0) and ds.labels[603] == 0
    np.testing.assert_array_equal(ds.split.labeled_ids, np.arange(20))
    np.testing.assert_array_equal(ds.split.valid_ids, np.arange(20, 520))
    np.testing.assert_array_equal(ds.split.test_ids, np.sort(test_idx))
    # Self-citation (3, 3) must have been dropped.
    assert not np.any(ds.edges[:, 0] == ds.edges[:, 1])


def test_convert_row_normalize_default(tmp_path):
    pytest.importorskip("scipy")
    raw, *_ = make_planetoid_dump(tmp_path)
    out = tmp_path / "converted"
    assert run_cli(["convert-cora", "--raw", str(raw), "--out", str(out)]) == 0
    ds = load_dataset(out)
    sums = ds.features.sum(axis=1)
    nonzero = sums > 0
    np.testing.assert_allclose(sums[nonzero], 1.0, atol=1e-9)
