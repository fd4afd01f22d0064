import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reachmix
from reachmix import cli, nn
from reachmix.cli import main, parse_seeds
from reachmix.graphio import generate_sbm, load_dataset, save_dataset
from reachmix.nn import load_params

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(reachmix.__file__).resolve().parents[1]


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


def test_train_mixup_with_isolated_labeled_node_and_candidate(tmp_path):
    """An isolated node's NLD is its own label (its self-loop is its one
    neighbour), so a labeled node and a pseudo-label candidate without
    neighbours get sampling weights like any other. With two classes and
    gamma 0.5, every unlabeled node is a candidate at every refresh."""
    ds = generate_sbm(2, 15, 0.4, 0.05, 6, 0.5, seed=3, labels_per_class=3, valid_per_class=3)
    isolated = [ds.split.labeled_ids[0], ds.split.test_ids[0]]
    data = tmp_path / "data"
    save_dataset(replace(ds, edges=ds.edges[~np.isin(ds.edges, isolated).any(axis=1)]), data)
    assert set(isolated).isdisjoint(load_dataset(data).edges.ravel())
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"hidden": 8, "max_epochs": 8, "patience": 8, "mixup_enabled": True,
                                  "mixup": {"gamma": 0.5, "warmup_epochs": 1}}))
    assert run_cli(["train", "--data", str(data), "--config", str(config), "--out", str(tmp_path / "run")]) == 0


def test_every_config_file_loads():
    paths = sorted(CONFIGS.glob("*.json"))
    assert paths
    for path in paths:
        cli.load_config(str(path))


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


def test_diagnose_cka_needs_checkpoint(tmp_path, dataset_dir, train_run, capsys):
    out = tmp_path / "cka"
    argv = ["diagnose", "cka", "--data", str(dataset_dir), "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert not out.exists()  # so the corrected command needs no --force
    assert run_cli(argv + ["--checkpoint", str(train_run / "checkpoint_seed0.txt")]) == 0


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
def test_diagnose_bad_checkpoint_names_file_and_line(tmp_path, dataset_dir, train_run, capsys, text, line):
    ckpt = tmp_path / "bad.txt"
    ckpt.write_text(text, encoding="utf-8")
    out = tmp_path / "cka"
    argv = ["diagnose", "cka", "--data", str(dataset_dir), "--out", str(out), "--checkpoint"]
    assert run_cli(argv + [str(ckpt)]) == 1
    assert f"{ckpt}:{line}: " in capsys.readouterr().err
    assert not out.exists()  # so the corrected command needs no --force
    assert run_cli(argv + [str(train_run / "checkpoint_seed0.txt")]) == 0


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


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_existing_out_fails_before_training(tmp_path, dataset_dir, monkeypatch, capsys, command):
    def never(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train_multi", never)
    monkeypatch.setattr(cli.trainer, "grid_search", never)
    out = tmp_path / "taken"
    out.mkdir()
    argv = [command, "--data", str(dataset_dir), "--out", str(out)]
    if command == "sweep":
        argv += ["--grid", "lr=0.01"]
    assert run_cli(argv) == 1
    assert "exists" in capsys.readouterr().err


def never_train(*args, **kwargs):
    raise AssertionError("training started")


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_max_epochs_zero_is_rejected(tmp_path, dataset_dir, monkeypatch, capsys, command):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "run"
    argv = [command, "--data", str(dataset_dir), "--max-epochs", "0", "--out", str(out)]
    if command == "sweep":
        argv += ["--grid", "lr=0.01"]
    assert run_cli(argv) == 1
    assert "error: max_epochs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("blob, key", [
    ({"hidden": "64"}, "hidden"),
    ({"hidden": 64.0}, "hidden"),
    ({"hidden": True}, "hidden"),
    ({"mixup_enabled": "no"}, "mixup_enabled"),
    ({"lr": "0.01"}, "lr"),
    ({"seeds": [0, "1"]}, "seeds"),
    ({"mixup": 5}, "mixup"),
    ({"mixup": {"gamma": "0.7"}}, "mixup.gamma"),
    ({"mixup": {"nld_include_self": 1}}, "unknown config keys: ['mixup.nld_include_self']"),  # a former field
    ({"mixup": {"nosuch": 1}}, "mixup.nosuch"),
], ids=["hidden-str", "hidden-float", "hidden-bool", "mixup_enabled-str", "lr-str", "seeds-str",
        "mixup-int", "gamma-str", "nld_include_self-int", "mixup-unknown-key"])
def test_train_bad_config_value_exits_one(tmp_path, dataset_dir, monkeypatch, capsys, blob, key):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(blob))
    out = tmp_path / "run"
    assert run_cli(["train", "--data", str(dataset_dir), "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


def test_train_non_finite_feature_exits_one(tmp_path, dataset_dir, monkeypatch, capsys):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    data = tmp_path / "data"
    data.mkdir()
    for name in ("edges.tsv", "labels.tsv", "split.json"):
        (data / name).write_bytes(read_bytes(dataset_dir / name))
    rows = read_bytes(dataset_dir / "features.tsv").decode().splitlines()
    rows[2] = "\t".join(["nan"] + rows[2].split("\t")[1:])
    (data / "features.tsv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    assert run_cli(["train", "--data", str(data), "--out", str(out)]) == 1
    assert "features.tsv:3: non-finite feature nan in column 1 of node 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, key", [
    ("nosuch=1", "nosuch"),
    ("mixup.gamma=0.7,abc", "mixup.gamma"),  # the bad value is in the last point
], ids=["field", "value"])
def test_sweep_bad_grid_fails_before_training(tmp_path, dataset_dir, monkeypatch, capsys, grid, key):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(dataset_dir), "--grid", "hidden=8,16", "--grid", grid, "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_repeated_seed_exits_one_before_out(tmp_path, dataset_dir, monkeypatch, capsys, command, source):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "run"
    argv = [command, "--data", str(dataset_dir), "--out", str(out)]
    if source == "flag":
        argv += ["--seeds", "0,1,0"]
    else:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seeds": [1, 1]}))
        argv += ["--config", str(config)]
    if command == "sweep":
        argv += ["--grid", "lr=0.01"]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"seed {0 if source == 'flag' else 1} is listed more than once" in err
    assert not out.exists()


@pytest.mark.parametrize("extra, named", [
    (["--jobs", "0"], "--jobs"),
    (["--jobs", "-2"], "--jobs"),
    (["--grid", "hidden=8"], "'hidden'"),
], ids=["jobs-0", "jobs-negative", "grid-field-twice"])
def test_sweep_usage_errors_before_out(tmp_path, dataset_dir, monkeypatch, capsys, extra, named):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(dataset_dir), "--grid", "hidden=4", "--out", str(out)] + extra
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_negative_seed_is_usage_error(tmp_path, dataset_dir, train_run, capsys):
    out = tmp_path / "cka"
    argv = ["diagnose", "cka", "--data", str(dataset_dir), "--out", str(out),
            "--checkpoint", str(train_run / "checkpoint_seed0.txt"), "--seed"]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["-1"])
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()  # so the corrected command needs no --force
    assert run_cli(argv + ["0"]) == 0


@pytest.fixture(scope="module")
def train_run(tmp_path_factory, dataset_dir, quick_config):
    out = tmp_path_factory.mktemp("train") / "run"
    assert run_cli(["train", "--data", str(dataset_dir), "--config", str(quick_config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("command", ["train", "sweep", "rc", "avgsp", "cka", "pearson"])
def test_every_run_table_reads_back(tmp_path, dataset_dir, quick_config, train_run, command):
    out = train_run
    grids = {}
    if command == "sweep":
        out = tmp_path / command
        grids = {"hidden": [8, 16], "mixup_enabled": [False, True]}
        assert run_cli(["sweep", "--data", str(dataset_dir), "--config", str(quick_config), "--seeds", "0",
                        "--grid", "hidden=8,16", "--grid", "mixup_enabled=false,true", "--out", str(out)]) == 0
    elif command != "train":
        out = tmp_path / command
        argv = ["diagnose", command, "--data", str(dataset_dir), "--out", str(out)]
        if command in ("cka", "pearson"):
            argv += ["--checkpoint", str(train_run / "checkpoint_seed0.txt")]
        assert run_cli(argv) == 0
    tables = sorted(out.glob("*.tsv"))
    assert tables
    for table in tables:
        header, *rows = table.read_text(encoding="utf-8").splitlines()
        columns = header.split("\t")
        assert rows, table.name
        for row in rows:
            cells = row.split("\t")
            assert len(cells) == len(columns), (table.name, row)
            for column, cell in zip(columns, cells):
                if column in grids:  # reads back as --grid reads it, with its type
                    value = json.loads(cell)
                    assert any(value == v and type(value) is type(v) for v in grids[column]), (column, cell)
                elif not (table.name == "cka.tsv" and cell == "absent"):
                    float(cell)  # raises on a cell that does not read back


def test_git_describe_runs_in_package_directory(tmp_path, monkeypatch):
    seen = {}

    def fake_run(argv, **kwargs):
        seen.update(kwargs)
        return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(cli.subprocess, "run", fake_run)
    monkeypatch.chdir(tmp_path)
    assert cli._git_describe() == "abc1234"
    assert seen["cwd"] == os.path.dirname(os.path.abspath(reachmix.__file__))


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


def test_convert_non_finite_feature_exits_one(tmp_path, capsys):
    import pickle

    import scipy.sparse as sp

    raw, _, _, tx, *_ = make_planetoid_dump(tmp_path)
    tx = tx.toarray()
    tx[1, 2] = np.nan  # tx row 1 is node 600, the second line of test.index
    with open(raw / "ind.cora.tx", "wb") as fh:
        pickle.dump(sp.csr_matrix(tx), fh)
    out = tmp_path / "converted"
    assert run_cli(["convert-cora", "--raw", str(raw), "--out", str(out), "--no-row-normalize"]) == 1
    assert "non-finite feature nan in column 3 of node 600" in capsys.readouterr().err
    assert not out.exists()


def test_convert_row_normalize_default(tmp_path):
    raw, *_ = make_planetoid_dump(tmp_path)
    out = tmp_path / "converted"
    assert run_cli(["convert-cora", "--raw", str(raw), "--out", str(out)]) == 0
    ds = load_dataset(out)
    sums = ds.features.sum(axis=1)
    nonzero = sums > 0
    np.testing.assert_allclose(sums[nonzero], 1.0, atol=1e-9)


@pytest.mark.parametrize("kind", ["rc", "avgsp", "cka", "pearson"])
def test_diagnose_builds_model_inputs_only_for_a_model(tmp_path, dataset_dir, train_run, monkeypatch, kind):
    calls = []
    build = cli.trainer.build_operators
    monkeypatch.setattr(cli.trainer, "build_operators", lambda ds: calls.append(ds) or build(ds))
    argv = ["diagnose", kind, "--data", str(dataset_dir), "--out", str(tmp_path / kind)]
    if kind in ("cka", "pearson"):
        argv += ["--checkpoint", str(train_run / "checkpoint_seed0.txt")]
    assert run_cli(argv) == 0
    assert len(calls) == (kind in ("cka", "pearson"))


@pytest.mark.parametrize("kind, shapes, message", [
    pytest.param("pearson", {"w2": (4, 2), "b2": (2,)}, "has 6 features and 2 classes, dataset", id="pearson-classes"),
    pytest.param("cka", {"w2": (4, 2), "b2": (2,)}, "has 6 features and 2 classes, dataset", id="cka-classes"),
    pytest.param("cka", {"w1": (5, 4)}, "has 5 features and 3 classes, dataset", id="cka-features"),
    pytest.param("cka", {"b1": (10,)}, ": parameter shapes", id="cka-b1-not-hidden"),
])
def test_diagnose_checkpoint_that_does_not_fit_exits_one(tmp_path, dataset_dir, capsys, kind, shapes, message):
    ds = load_dataset(dataset_dir)
    assert (ds.num_features, ds.num_classes) == (6, 3)
    fits = {"w1": (6, 4), "b1": (4,), "w2": (4, 3), "b2": (3,)}
    rng = np.random.default_rng(0)
    ckpt = tmp_path / "other.txt"
    nn.save_params(ckpt, nn.ModelParams(**{k: rng.standard_normal(shapes.get(k, v)) for k, v in fits.items()}))
    out = tmp_path / kind
    argv = ["diagnose", kind, "--data", str(dataset_dir), "--checkpoint", str(ckpt), "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}") and message in err
    assert not out.exists()


def mixed_epochs_to_best(run_dir, seed):
    """The count read off ``metrics_seed<k>.tsv``: rows up to best_epoch with
    a nonzero intra or inter loss."""
    best = json.loads((run_dir / "summary.json").read_text())["best_epoch"][str(seed)]
    _, *rows = (run_dir / f"metrics_seed{seed}.tsv").read_text().splitlines()
    cells = [row.split("\t") for row in rows]
    return sum(1 for c in cells if int(c[0]) <= best and (float(c[3]) or float(c[4])))


@pytest.mark.parametrize("overrides, expect_zero", [
    ({"mixup_enabled": False}, True),
    ({"mixup": {"warmup_epochs": 30}}, True),  # past max_epochs: no refresh runs
    ({"mixup": {"warmup_epochs": 2, "gamma": 0.5}, "lr": 0.05}, False),
    ({"mixup": {"warmup_epochs": 2, "gamma": 0.5, "lambda_intra": 0.0}, "lr": 0.05}, False),
], ids=["baseline", "warmup-past-max-epochs", "mixup", "inter-branch-only"])
def test_train_reports_mixed_epochs_to_best(tmp_path, dataset_dir, capsys, overrides, expect_zero):
    blob = {"hidden": 16, "max_epochs": 25, "patience": 25, "seeds": [0, 1], "mixup_enabled": True,
            **overrides}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(blob))
    out = tmp_path / "run"
    assert run_cli(["train", "--data", str(dataset_dir), "--config", str(config), "--out", str(out)]) == 0
    counts = json.loads((out / "summary.json").read_text())["mixed_epochs_to_best"]
    assert counts == {str(s): mixed_epochs_to_best(out, s) for s in (0, 1)}
    assert (set(counts.values()) == {0}) == expect_zero
    assert capsys.readouterr().out.rstrip().endswith(f"mixed_epochs_to_best {counts['0']} {counts['1']}")


def run_subprocess(argv, **env):
    """``python -m reachmix.cli argv`` in a fresh interpreter, so that
    stderr shows what a user sees, warnings included."""
    environment = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return subprocess.run([sys.executable, "-m", "reachmix.cli", *argv], capture_output=True, text=True,
                          env=environment, timeout=300)


def test_train_divergence_names_seed_and_epoch(tmp_path, dataset_dir):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr": 1e300, "max_epochs": 5, "patience": 5, "seeds": [1, 2]}))
    proc = run_subprocess(["train", "--data", str(dataset_dir), "--config", str(config), "--out", str(tmp_path / "r")])
    assert proc.returncode == 1
    # One line: no traceback and no numpy warning. Both seeds diverge; the
    # first in seed order is reported.
    assert re.fullmatch(r"error: seed 1, epoch 0: training diverged \(.+\)\n", proc.stderr), proc.stderr


@pytest.mark.skipif(nn.blas_thread_setter() is None or len(os.sched_getaffinity(0)) < 2,
                    reason="needs openblas_set_num_threads_local and 2 usable cores")
def test_trained_bytes_do_not_depend_on_blas_threads(tmp_path):
    # At N >= 2707 and C = 7, OpenBLAS rounds hidden.T @ d_hw differently on
    # 2 threads than on 1, so an unpinned run's checkpoint moves with them.
    # Three seeds on two workers: one seed ends while another still trains.
    data = tmp_path / "data"
    assert run_subprocess(["synth", "--classes", "7", "--per-class", "400", "--p-in", "0.01", "--p-out", "0.0005",
                           "--seed", "0", "--out", str(data)]).returncode == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"hidden": 64, "max_epochs": 10, "patience": 10, "seeds": [0, 1, 2]}))
    runs = {}
    for threads in ("1", "2"):
        runs[threads] = tmp_path / f"threads{threads}"
        proc = run_subprocess(["train", "--data", str(data), "--config", str(config), "--out", str(runs[threads])],
                              OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
    for seed in (0, 1, 2):
        for name in (f"checkpoint_seed{seed}.txt", f"metrics_seed{seed}.tsv"):
            assert read_bytes(runs["1"] / name) == read_bytes(runs["2"] / name), name
