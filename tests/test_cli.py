import base64
import hashlib
import io
import json
import os
import pickle
import re
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reachmix
from conftest import dense_table
from reachmix import cli, diagnostics, graphalg, graphio, nn
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
    assert parse_seeds(" 2, 4,") == [2, 4]


# Every command with its flags, each group declared once in build_parser.
COMMAND_FLAGS = {
    "synth": {"--classes", "--per-class", "--p-in", "--p-out", "--feature-dim", "--noise", "--seed",
              "--labels-per-class", "--valid-per-class", "--out", "--force"},
    "train": {"--data", "--config", "--seeds", "--mixup", "--max-epochs", "--out", "--force"},
    "sweep": {"--data", "--config", "--seeds", "--mixup", "--max-epochs", "--grid", "--out", "--force"},
    "diagnose": {"--data", "--checkpoint", "--seed", "--out", "--force"},
    "gradcheck": {"--eps", "--threshold", "--seed"},
    "convert-cora": {"--raw", "--name", "--row-normalize", "--no-row-normalize", "--out", "--force"},
}


def test_each_command_takes_its_flags():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    assert set(commands) == set(COMMAND_FLAGS)
    for name, parser in commands.items():
        flags = {f for action in parser._actions for f in action.option_strings} - {"-h", "--help"}
        assert flags == COMMAND_FLAGS[name], name


def test_each_readme_command_parses():
    """Every ``reachmix`` line of README's bash blocks, continuations joined
    and comments dropped, is one the parser takes."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["reachmix"]]
    assert len(commands) >= 9  # the examples were found
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize("seeds, message", [
    ("", "need at least one seed"),
    (",", "need at least one seed"),
    ("0..-1", "empty seed range '0..-1'"),
    ("0..x", "bad seed range '0..x'"),
    ("0,x", "bad seed list '0,x'"),
], ids=["empty", "comma", "empty-range", "bad-range", "bad-list"])
def test_a_seed_list_with_no_seeds_or_a_bad_one_is_a_usage_error(tmp_path, dataset_dir, monkeypatch, capsys,
                                                                  command, seeds, message):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "run"
    argv = [command, "--data", str(dataset_dir), "--seeds", seeds, "--out", str(out)]
    if command == "sweep":
        argv += ["--grid", "lr=0.01"]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not out.exists()


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


def test_synth_names_the_class_too_small_for_its_labeled_nodes(tmp_path, capsys):
    # The default validation count is floored at 0, so the error is about the
    # flag that was set, not about --valid-per-class.
    out = tmp_path / "d"
    argv = ["synth", "--classes", "2", "--per-class", "5", "--p-in", "0.5", "--p-out", "0.1",
            "--labels-per-class", "7", "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert "class 0 has 5 nodes, needs 7 for the requested split" in err
    assert "valid_per_class" not in err
    assert not out.exists()


@pytest.mark.parametrize("noise", ["nan", "inf"])
def test_synth_non_finite_noise_is_error_before_out(tmp_path, capsys, noise):
    out = tmp_path / "d"
    argv = synth_args(out)
    argv[argv.index("--noise") + 1] = noise
    assert run_cli(argv) == 1
    assert "feature_noise must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["plain", "force"])
@pytest.mark.parametrize("command", ["synth", "train", "sweep", "diagnose"])
def test_an_out_that_is_a_file_is_refused_before_any_work(tmp_path, dataset_dir, monkeypatch, capsys,
                                                           command, force):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "notes.txt"
    out.write_text("not an output directory\n")
    argv = {"synth": synth_args(out),
            "train": ["train", "--data", str(dataset_dir), "--out", str(out)],
            "sweep": ["sweep", "--data", str(dataset_dir), "--grid", "lr=0.01", "--out", str(out)],
            "diagnose": ["diagnose", "rc", "--data", str(dataset_dir), "--out", str(out)]}[command]
    assert run_cli(argv + force) == 1
    assert capsys.readouterr().err == f"error: --out {str(out)!r} exists and is not a directory\n"
    assert out.read_text() == "not an output directory\n"


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
        "mixup": {"gamma": 0.4, "warmup_epochs": 1},  # mixed pairs from epoch 1 on the 60-node graph
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
    # The config mixes: every epoch after the one-epoch warm-up trains on
    # same-class and different-class pairs, so the runs compared above
    # cover refreshes that mix.
    for seed in (0, 1):
        _, *rows = (out1 / f"metrics_seed{seed}.tsv").read_text().splitlines()
        mixed = [int(epoch) for epoch, _, _, intra, inter, _ in map(str.split, rows) if float(intra) and float(inter)]
        assert mixed == list(range(1, 25)), seed


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
    assert not out.exists()  # so the corrected command needs no --force


def test_diagnose_rc_on_diameter_one_fails_cleanly(tmp_path, capsys):
    ds = generate_sbm(2, 3, 1.0, 0.0, 4, 0.5, seed=0, labels_per_class=1, valid_per_class=1)
    data = tmp_path / "complete"
    save_dataset(replace(ds, edges=np.array([(u, v) for u in range(6) for v in range(u + 1, 6)])), data)
    out = tmp_path / "rc"
    assert run_cli(["diagnose", "rc", "--data", str(data), "--out", str(out)]) == 1
    assert "error: diameter 1 < 2" in capsys.readouterr().err
    assert not out.exists()


def test_diagnose_avgsp_on_a_graph_with_no_edge_fails_cleanly(tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli(synth_args(data)) == 0
    (data / "edges.tsv").write_text("# none\n")
    out = tmp_path / "avgsp"
    assert run_cli(["diagnose", "avgsp", "--data", str(data), "--out", str(out)]) == 1
    assert "error: diameter 0: the graph has no edge" in capsys.readouterr().err
    assert not out.exists()


def test_a_warm_diagnose_of_any_kind_runs_no_bfs(tmp_path, monkeypatch):
    """The first command on a dataset leaves the labeled-set distances and
    the exact diameter in its reach cache; no later kind computes them."""
    data, checkpoint = tmp_path / "data", tmp_path / "checkpoint.txt"
    assert run_cli(synth_args(data)) == 0
    ds = load_dataset(data)
    nn.save_params(checkpoint, nn.init_params(ds.num_features, 8, ds.num_classes, np.random.default_rng(0)))
    calls = []
    for module, name in ((diagnostics, "bfs_distances"), (diagnostics, "diameter_and_components"),
                         (graphalg, "bfs_distances")):
        def counting(*args, _name=name, _run=getattr(module, name)):
            calls.append(_name)
            return _run(*args)
        monkeypatch.setattr(module, name, counting)
    for state in ("cold", "warm"):
        for kind in ("rc", "avgsp", "cka", "pearson"):
            argv = ["diagnose", kind, "--data", str(data), "--out", str(tmp_path / state / kind)]
            assert run_cli(argv + ["--checkpoint", str(checkpoint)] * (kind in ("cka", "pearson"))) == 0
            assert (calls != []) == (state == "cold" and kind == "rc"), (state, kind)
            calls.clear()


@pytest.mark.parametrize("text, line", [
    pytest.param("param w1 2 6 4\n", 2, id="cut-after-header"),
    pytest.param("param w1 1 2\n0.5 x\n", 2, id="non-numeric"),
    pytest.param("param w1 2 2\n0.5 0.5\n", 1, id="ndim-mismatch"),
    pytest.param("param w1 1 3\n" + base64.b64encode(np.array([0.5, 0.5], "<f8").tobytes()).decode() + "\n", 2,
                 id="value-count"),
    pytest.param("{good}param w3 1 1\n" + base64.b64encode(bytes(8)).decode() + "\n", 9, id="unknown-parameter"),
    pytest.param("{good}{good}", 9, id="repeated-parameter"),
])
def test_diagnose_bad_checkpoint_names_file_and_line(tmp_path, dataset_dir, train_run, capsys, text, line):
    good = train_run / "checkpoint_seed0.txt"
    ckpt = tmp_path / "bad.txt"
    ckpt.write_text(text.replace("{good}", good.read_text(encoding="ascii")), encoding="ascii")
    out = tmp_path / "cka"
    argv = ["diagnose", "cka", "--data", str(dataset_dir), "--out", str(out), "--checkpoint"]
    assert run_cli(argv + [str(ckpt)]) == 1
    assert f"{ckpt}:{line}: " in capsys.readouterr().err
    assert not out.exists()  # so the corrected command needs no --force
    assert run_cli(argv + [str(good)]) == 0


@pytest.mark.parametrize("kind", ["cka", "pearson"])
@pytest.mark.parametrize("name, index, value, fault", [
    ("w2", (0, 0), np.nan, "holds a non-finite value"),
    ("b1", (1,), np.inf, "holds a non-finite value"),
    ("w1", (2, 1), -1e300, "holds -1e+300, beyond the largest float32"),  # the model runs in float32
], ids=["nan-w2", "inf-b1", "huge-w1"])
def test_diagnose_refuses_a_checkpoint_with_a_non_finite_value(tmp_path, dataset_dir, train_run, capsys,
                                                                kind, name, index, value, fault):
    params = load_params(train_run / "checkpoint_seed0.txt")
    getattr(params, name)[index] = value
    ckpt = tmp_path / "ckpt.txt"
    nn.save_params(ckpt, params)
    out = tmp_path / kind
    argv = ["diagnose", kind, "--data", str(dataset_dir), "--checkpoint", str(ckpt), "--out", str(out)]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: parameter {name} {fault}\n"
    assert not out.exists()


def test_diagnose_non_text_checkpoint_names_file(tmp_path, dataset_dir, capsys):
    ckpt = tmp_path / "model.png"
    ckpt.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(range(256)))
    out = tmp_path / "cka"
    assert run_cli(["diagnose", "cka", "--data", str(dataset_dir), "--out", str(out), "--checkpoint", str(ckpt)]) == 1
    assert f"error: {ckpt}:1: not a checkpoint" in capsys.readouterr().err
    assert not out.exists()


PATH_TEXTS = {"edges.tsv": "0\t1\n1\t2\n", "features.tsv": "3\t2\n0\t0\t1.0\n1\t1\t2.0\n2\t0\t3.0\n",
              "labels.tsv": "0\n1\n0\n", "split.json": '{"labeled": [0], "valid": [1], "test": [2]}'}


@pytest.mark.parametrize("name, text, where, message", [
    ("edges.tsv", "0\t1\n1\t9223372036854775808\n", ":2", "node id 9223372036854775808 outside the int64 range"),
    ("edges.tsv", "# c\n-9223372036854775809\t1\n", ":2", "node id -9223372036854775809 outside the int64 range"),
    ("labels.tsv", f"0\n\n1\n{10**30}\n", ":4", f"label {10**30} outside the int64 range"),
    ("split.json", '{"labeled": [0], "valid": [92233720368547758080], "test": [2]}', "",
     "valid id 92233720368547758080 outside the int64 range"),
    ("split.json", '{"labeled": [0], "valid": [1.0], "test": [2]}', "", "valid id 1.0 is not an integer"),
    ("split.json", '{"labeled": [0], "valid": [], "test": ["2"]}', "", 'test id "2" is not an integer'),
    ("split.json", '{"labeled": [true], "valid": [], "test": [2]}', "", "labeled id true is not an integer"),
    ("split.json", '["labeled", "valid", "test"]', "", "missing integer array 'labeled'"),
], ids=["edge-above", "edge-below", "label", "split-above", "split-float", "split-string", "split-bool",
        "split-not-an-object"])
def test_ids_that_are_not_int64_integers_exit_one_naming_file_and_value(tmp_path, capsys, name, text, where, message):
    data = tmp_path / "data"
    data.mkdir()
    for file, content in {**PATH_TEXTS, name: text}.items():
        (data / file).write_text(content)
    out = tmp_path / "rc"
    assert run_cli(["diagnose", "rc", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data / name}{where}: {message}\n"
    assert not out.exists()


def test_write_tsv_writes_each_kind_of_cell_as_its_column_rule_says(tmp_path):
    path = tmp_path / "table.tsv"
    cli.write_tsv(path, {
        "name": ["a", "absent", "b c"],
        "flag": [True, False, np.bool_(True)],
        "array_int": np.array([1, -2, 3]),
        "array_float": np.array([0.1 + 0.2, -0.0, np.nan]),
        "python": [float("inf"), -7, 5e-324],
        "numpy": [np.int64(7), np.float64(-0.0), np.float64(-np.inf)],
        "mixed": ["absent", 0.5, np.float64(1e300)],
    })
    assert path.read_bytes() == (b"name\tflag\tarray_int\tarray_float\tpython\tnumpy\tmixed\n"
                                 b"a\ttrue\t1\t0.30000000000000004\tinf\t7\tabsent\n"
                                 b"absent\tfalse\t-2\t-0.0\t-7\t-0.0\t0.5\n"
                                 b"b c\ttrue\t3\tnan\t5e-324\t-inf\t1e+300\n")
    cli.write_tsv(path, {"empty": []})
    assert path.read_bytes() == b"empty\n"
    with pytest.raises(ValueError):
        cli.write_tsv(path, {"a": [1, 2], "b": [1]})


FEATURES_HEADER = "3\t2\n"  # PATH_TEXTS' three nodes, two feature columns


@pytest.mark.parametrize("text, line, message", [
    ("3\n0\t0\t1.0\n", 1, "expected a header 'N<TAB>F' of two non-negative integers, got '3'"),
    ("3\t-2\n0\t0\t1.0\n", 1, "expected a header 'N<TAB>F' of two non-negative integers, got '3\\t-2'"),
    ("\nN\tF\n0\t0\t1.0\n", 2, "expected a header 'N<TAB>F' of two non-negative integers, got 'N\\tF'"),
    ("0\t2\n", 1, "no feature rows: the header gives N = 0"),
    (FEATURES_HEADER + "0\t0\t1.0\n\n1\t1\n", 4, "expected 3 columns 'row<TAB>col<TAB>value', got '1\\t1'"),
    (FEATURES_HEADER + "0\t0\t1.0\t2.0\n", 2,
     "expected 3 columns 'row<TAB>col<TAB>value', got '0\\t0\\t1.0\\t2.0'"),
    (FEATURES_HEADER + "0\t0\t1.0\n1.0\t1\t2.0\n", 3, "non-integer row index '1.0'"),
    (FEATURES_HEADER + "0\tx\t1.0\n", 2, "non-integer column index 'x'"),
    (FEATURES_HEADER + "1_0\t0\t1.0\n", 2, "non-integer row index '1_0'"),
    (FEATURES_HEADER + "0\t0\t1.0\n3\t0\t1.0\n", 3, "row index 3 outside [0, 3)"),
    (FEATURES_HEADER + "0\t-1\t1.0\n", 2, "column index -1 outside [0, 2)"),
    (FEATURES_HEADER + "0\t0\t1.0\n0\t2\t1.0\n", 3, "column index 2 outside [0, 2)"),
    (FEATURES_HEADER + "99999999999999999999\t0\t1.0\n", 2, "row index 99999999999999999999 outside the int64 range"),
    (FEATURES_HEADER + "0\t0\tabc\n", 2, "non-numeric value 'abc'"),
    (FEATURES_HEADER + "0\t0\t1_0\n", 2, "non-numeric value '1_0'"),
    (FEATURES_HEADER + "2\t1\t1.0\n0\t0\tinf\n", 3, "non-finite feature inf of node 0, column 0"),
    (FEATURES_HEADER + "0\t0\t1.0\n1\t1\t2.0\n0\t0\t3.0\n", 4, "node 0, column 0 is given again (first on line 2)"),
    (FEATURES_HEADER + "1\t1\t2.0\n0\t0\t1.0\n1\t1\t-0.0\n", 4, "node 1, column 1 is given again (first on line 2)"),
    ("1.0\t0.5\n2.0\t0.0\n3.0\t1.5\n", 1,
     "a row of F values is the dense layout of earlier versions, which is no longer read; "
     "write the dataset again with `reachmix synth` or `reachmix convert-cora`"),
    # A fact fault on line 3 and a syntax fault on line 4: the syntax fault is named.
    ("3\t1\n0\t0\t1.0\n1\t5\t2.0\n2\tx\t3.0\n", 4, "non-integer column index 'x'"),
    # Headers whose N x F exceeds int64, refused before any allocation.
    (f"5\t{2**62}\n0\t0\t1.0\n4\t0\t1.0\n", 1, f"cannot allocate an N x F table, N = 5, F = {2**62}"),
    (f"3\t{2**63}\n0\t0\t1.0\n", 1, f"cannot allocate an N x F table, N = 3, F = {2**63}"),
    (f"3\t{2**62}\n0\t0\t1.0\n1\t1\t2.0\n", 1, f"cannot allocate an N x F table, N = 3, F = {2**62}"),
    # Row pointers that numpy refuses by their size, before any allocation.
    (f"{2**62}\t1\n0\t0\t1.0\n", 1, f"cannot allocate an N x F table, N = {2**62}, F = 1"),
], ids=["header-one-field", "header-negative", "header-not-integers", "header-no-nodes", "two-fields", "four-fields",
        "row-not-integer", "column-not-integer", "row-underscore", "row-above", "column-negative", "column-above",
        "row-beyond-int64", "value-not-numeric", "value-underscore", "value-infinite", "duplicate",
        "duplicate-unordered", "dense-layout", "syntax-after-fact", "header-cell-keys-wrap", "header-beyond-int64",
        "header-too-big", "header-rows-too-big"])
def test_a_features_fault_exits_one_naming_file_and_line(tmp_path, capsys, text, line, message):
    data = tmp_path / "data"
    data.mkdir()
    for file, content in {**PATH_TEXTS, "features.tsv": text}.items():
        (data / file).write_text(content)
    out = tmp_path / "rc"
    assert run_cli(["diagnose", "rc", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data / 'features.tsv'}:{line}: {message}\n"
    assert not out.exists()


def test_a_dense_layout_that_left_a_cache_is_refused_too(tmp_path, capsys):
    """A dense features.tsv of an earlier version with the cache that
    version wrote for it: the cache is a miss, so the file is refused as it
    would be without one."""
    data = tmp_path / "data"
    data.mkdir()
    for file, content in {**PATH_TEXTS, "features.tsv": "1.0\t0.0\n0.0\t2.0\n3.0\t0.0\n"}.items():
        (data / file).write_text(content)
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]))
    (data / graphio.CACHE_FILE).write_bytes(b"reachmix features.tsv cache 2\n"
                                            + graphio.dataset_fingerprint(data).encode() + b"\n" + buf.getvalue())
    out = tmp_path / "rc"
    assert run_cli(["diagnose", "rc", "--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {data / 'features.tsv'}:1: a row of F values is the dense")
    assert not out.exists()


@pytest.mark.parametrize("name, data, where", [
    ("edges.tsv", b"0\t1\n1\t\xff2\n", ":2: byte 0xff at offset 6"),
    ("features.tsv", b"3\t2\n0\t0\t1.0\r\n\xff1\t1\t2.0\n", ":3: byte 0xff at offset 13"),
    ("labels.tsv", b"0\r1\n0\xff\n", ":3: byte 0xff at offset 5"),
    ("split.json", b'{"labeled": [0], "valid": [1],\r\n "test": [2], "note": "\xff"}', ":2: byte 0xff at offset 55"),
], ids=["edges", "features", "labels", "split"])
def test_a_byte_that_is_not_utf_8_exits_one_naming_file_line_and_offset(tmp_path, capsys, name, data, where):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for file, content in PATH_TEXTS.items():
        (data_dir / file).write_text(content)
    (data_dir / name).write_bytes(data)
    out = tmp_path / "rc"
    assert run_cli(["diagnose", "rc", "--data", str(data_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {data_dir / name}{where} is not UTF-8\n"
    assert not out.exists()


def test_a_warm_command_hashes_each_dataset_byte_once(tmp_path, dataset_dir, monkeypatch):
    assert run_cli(["diagnose", "rc", "--data", str(dataset_dir), "--out", str(tmp_path / "cold")]) == 0
    fed = []
    sha256 = hashlib.sha256

    class CountingSha256:
        def __init__(self):
            self._digest = sha256()

        def update(self, data):
            fed.append(len(data))
            self._digest.update(data)

        def hexdigest(self):
            return self._digest.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", CountingSha256)
    assert run_cli(["diagnose", "rc", "--data", str(dataset_dir), "--out", str(tmp_path / "warm")]) == 0
    assert sum(fed) == sum(len(name) + os.path.getsize(dataset_dir / name) for name in graphio.DATASET_FILES)


def test_the_manifest_fingerprints_the_bytes_the_command_loaded(tmp_path, dataset_dir, quick_config, monkeypatch):
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    loaded = cli.dataset_fingerprint(data)
    train_multi = cli.train_multi

    def edit_then_train(dataset, cfg):
        with open(data / "labels.tsv", "a", encoding="utf-8") as fh:
            fh.write("\n")  # the same labels, other bytes
        return train_multi(dataset, cfg)

    monkeypatch.setattr(cli, "train_multi", edit_then_train)
    out = tmp_path / "run"
    argv = ["train", "--data", str(data), "--config", str(quick_config), "--seeds", "0", "--max-epochs", "2"]
    assert run_cli(argv + ["--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_fingerprint"] == loaded != cli.dataset_fingerprint(data)


def test_gradcheck_passes(capsys):
    assert run_cli(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS")
    assert "max_rel_err" in out


def test_gradcheck_larger_eps_still_bounded(capsys):
    assert run_cli(["gradcheck", "--eps", "1e-3", "--threshold", "1e-4"]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("PASS")


@pytest.mark.parametrize("flag, value", [
    ("--eps", "0"), ("--eps", "-1"), ("--eps", "nan"), ("--eps", "inf"),
    ("--threshold", "0"), ("--threshold", "nan"), ("--threshold", "x"),
], ids=["eps-0", "eps-negative", "eps-nan", "eps-inf", "threshold-0", "threshold-nan", "threshold-not-a-number"])
def test_gradcheck_usage_errors(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gradcheck", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: must be a finite number > 0, got '{value}'" in capsys.readouterr().err


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
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "argument --max-epochs: must be >= 1, got 0" in capsys.readouterr().err
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
    assert err.startswith(f"error: {config}: ") and key in err
    assert not out.exists()


def test_train_non_finite_feature_exits_one(tmp_path, dataset_dir, monkeypatch, capsys):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    data = tmp_path / "data"
    data.mkdir()
    for name in ("edges.tsv", "labels.tsv", "split.json"):
        (data / name).write_bytes(read_bytes(dataset_dir / name))
    lines = read_bytes(dataset_dir / "features.tsv").decode().splitlines()
    row, col, _ = lines[2].split("\t")
    lines[2] = f"{row}\t{col}\tnan"
    (data / "features.tsv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert run_cli(["train", "--data", str(data), "--out", str(out)]) == 1
    assert f"features.tsv:3: non-finite feature nan of node {row}, column {col}\n" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep", "cka", "pearson"])
def test_a_feature_beyond_float32_exits_one_naming_node_column_and_value(tmp_path, dataset_dir, train_run,
                                                                         monkeypatch, capsys, command):
    # The model runs in float32, where 1e300 would be inf and the run would
    # report a divergence instead.
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    data = tmp_path / "data"
    data.mkdir()
    for name in ("edges.tsv", "labels.tsv", "split.json"):
        (data / name).write_bytes(read_bytes(dataset_dir / name))
    lines = read_bytes(dataset_dir / "features.tsv").decode().splitlines()
    row, col, _ = lines[2].split("\t")
    lines[2] = f"{row}\t{col}\t1e300"
    (data / "features.tsv").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    argv = {"train": ["train"], "sweep": ["sweep", "--grid", "lr=0.01"],
            "cka": ["diagnose", "cka", "--checkpoint", str(train_run / "checkpoint_seed0.txt")],
            "pearson": ["diagnose", "pearson", "--checkpoint", str(train_run / "checkpoint_seed0.txt")]}[command]
    assert run_cli(argv + ["--data", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (f"error: feature 1e+300 of node {row}, column {col} "
                                       "exceeds the largest float32 (3.402823e+38)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, empty, message", [
    ("train", "test", "testing requires a non-empty test set"),
    ("train", "valid", "training requires a non-empty validation set"),
    ("sweep", "valid", "training requires a non-empty validation set"),
], ids=["train-test", "train-valid", "sweep-valid"])
def test_an_empty_split_set_exits_one_before_training_and_out(tmp_path, dataset_dir, monkeypatch, capsys,
                                                              command, empty, message):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    data = tmp_path / "data"
    shutil.copytree(dataset_dir, data)
    split = json.loads((data / "split.json").read_text())
    split[empty] = []
    (data / "split.json").write_text(json.dumps(split))
    out = tmp_path / "run"
    argv = [command, "--data", str(data), "--out", str(out)]
    if command == "sweep":
        argv += ["--grid", "lr=0.01"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ('{"lr": 0.01,\n', ":2: invalid JSON: Expecting property name enclosed in double quotes"),
    ("[1, 2]", ": config must be a JSON object, got [1, 2]"),
    ('{"lr": -1}', ": lr must be > 0"),
], ids=["syntax", "not-an-object", "bad-value"])
@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_bad_config_file_exits_one_naming_it(tmp_path, dataset_dir, monkeypatch, capsys, command, text, message):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    config = tmp_path / "cfg.json"
    config.write_text(text)
    out = tmp_path / "run"
    argv = [command, "--data", str(dataset_dir), "--config", str(config), "--out", str(out)]
    if command == "sweep":
        argv += ["--grid", "lr=0.01"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {config}{message}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid, key", [
    ("nosuch=1", "nosuch"),
    ("mixup.gamma=0.7,abc", "mixup.gamma"),  # the bad value is in the last point
    ("mixup.beta_s=1,-0.5", "beta_s must be >= 0, got -0.5"),
    ("mixup.beta_d=0,-0.5", "beta_d must be >= 0, got -0.5"),
], ids=["field", "value", "beta_s-negative", "beta_d-negative"])
def test_sweep_bad_grid_fails_before_training(tmp_path, dataset_dir, monkeypatch, capsys, grid, key):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(dataset_dir), "--grid", "hidden=8,16", "--grid", grid, "--out", str(out)]
    assert run_cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not out.exists()


@pytest.mark.parametrize("source, value, message", [
    ("file", '{"mixup": {"alpha": 1e400}}', "alpha must be finite, got inf"),
    ("file", '{"lr": NaN}', "lr must be finite, got nan"),
    ("file", '{"weight_decay": 1%s}' % ("0" * 400), "weight_decay must be finite, got 1000"),  # an int
    ("file", '{"mixup": {"beta_s": NaN}}', "beta_s must be >= 0, got nan"),  # refused before, as before
    ("grid", "mixup.beta_s=0,Infinity", "beta_s must be finite, got inf"),
], ids=["alpha-1e400", "lr-nan", "weight_decay-int-1e400", "beta_s-nan", "grid-beta_s-inf"])
def test_a_non_finite_config_value_exits_one_before_out(tmp_path, dataset_dir, monkeypatch, capsys,
                                                        source, value, message):
    monkeypatch.setattr(cli.trainer, "train_one", never_train)
    out = tmp_path / "run"
    if source == "file":
        config = tmp_path / "cfg.json"
        config.write_text(value)
        argv = ["train", "--data", str(dataset_dir), "--config", str(config), "--out", str(out)]
    else:
        argv = ["sweep", "--data", str(dataset_dir), "--grid", value, "--out", str(out)]
    assert run_cli(argv) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_switches_each_sampling_factor_off(tmp_path, dataset_dir, quick_config):
    out = tmp_path / "sweep"
    argv = ["sweep", "--data", str(dataset_dir), "--config", str(quick_config), "--seeds", "0", "--max-epochs", "8",
            "--grid", "mixup.beta_s=0,1", "--grid", "mixup.beta_d=0,1", "--out", str(out)]
    assert run_cli(argv) == 0
    with open(out / "sweep.tsv", encoding="utf-8") as fh:
        points = sorted(tuple(line.split("\t")[:2]) for line in fh.read().splitlines()[1:])
    assert points == [("0", "0"), ("0", "1"), ("1", "0"), ("1", "1")]


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
    (["--max-epochs", "-3"], "argument --max-epochs: must be >= 1, got -3"),
    (["--grid", "hidden=8"], "'hidden'"),
], ids=["max-epochs-negative", "grid-field-twice"])
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


@pytest.fixture
def git_runs(monkeypatch):
    """Replaces the ``git describe`` subprocess with a fake that answers
    ``abc1234``; yields the keyword arguments of each run. The process's
    cached answer is forgotten before and after."""
    runs = []

    def fake_run(argv, **kwargs):
        runs.append(kwargs)
        return subprocess.CompletedProcess(argv, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(cli.subprocess, "run", fake_run)
    cli._git_describe.cache_clear()
    yield runs
    cli._git_describe.cache_clear()


def test_git_describe_runs_in_package_directory(tmp_path, monkeypatch, git_runs):
    monkeypatch.chdir(tmp_path)
    assert cli._git_describe() == "abc1234"
    assert git_runs[0]["cwd"] == os.path.dirname(os.path.abspath(reachmix.__file__))


def test_manifests_of_one_process_ask_git_once(tmp_path, git_runs):
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        cli.write_manifest(tmp_path / name, "diagnose", {})
        assert json.loads((tmp_path / name / "manifest.json").read_text())["git"] == "abc1234"
    assert len(git_runs) == 1


def test_data_root_environment_fallback(tmp_path, monkeypatch, capsys):
    root = tmp_path / "datasets"
    root.mkdir()
    run_cli(synth_args(root / "tiny", per_class=10))
    monkeypatch.setenv("REACHMIX_DATA_ROOT", str(root))
    out = tmp_path / "rc"
    code = run_cli(["diagnose", "rc", "--data", "tiny", "--out", str(out)])
    assert code == 0


def test_sweep_parallel_jobs_match_serial(tmp_path, dataset_dir, quick_config, monkeypatch):
    # Two seeds of two points share the cores; with one usable core they run
    # one after another.
    serial, parallel = tmp_path / "s1", tmp_path / "s2"
    argv = [
        "sweep", "--data", str(dataset_dir), "--config", str(quick_config),
        "--seeds", "0,1", "--grid", "hidden=8,16",
    ]
    assert run_cli(argv + ["--out", str(parallel)]) == 0
    monkeypatch.setattr(cli.trainer, "_usable_cores", lambda: 1)
    assert run_cli(argv + ["--out", str(serial)]) == 0
    assert read_bytes(serial / "sweep.tsv") == read_bytes(parallel / "sweep.tsv")
    assert read_bytes(serial / "best.json") == read_bytes(parallel / "best.json")


def make_planetoid_dump(tmp_path, name="cora"):
    """Synthetic raw dump in the pickled ind.<name>.* layout.

    600 training-region nodes plus 4 test nodes listed out of order in
    test.index, with one id gap (node 603) to exercise the isolated-node
    path.
    """
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
    features = dense_table(ds.features)
    # tx row j belongs to the j-th line of test.index.
    dense_tx = np.asarray(tx.todense())
    for j, node in enumerate(test_idx):
        np.testing.assert_allclose(features[node], dense_tx[j])
        assert ds.labels[node] == int(np.argmax(ty[j]))
    np.testing.assert_allclose(features[:600], np.asarray(allx.todense()))
    # The gap id became an isolated zero-feature node labeled 0.
    assert np.all(features[603] == 0.0) and ds.labels[603] == 0
    np.testing.assert_array_equal(ds.split.labeled_ids, np.arange(20))
    np.testing.assert_array_equal(ds.split.valid_ids, np.arange(20, 520))
    np.testing.assert_array_equal(ds.split.test_ids, np.sort(test_idx))
    # Self-citation (3, 3) must have been dropped.
    assert not np.any(ds.edges[:, 0] == ds.edges[:, 1])


def test_convert_non_finite_feature_exits_one(tmp_path, capsys):
    import scipy.sparse as sp

    raw, _, _, tx, *_ = make_planetoid_dump(tmp_path)
    tx = tx.toarray()
    tx[1, 2] = np.nan  # tx row 1 is node 600, the second line of test.index
    with open(raw / "ind.cora.tx", "wb") as fh:
        pickle.dump(sp.csr_matrix(tx), fh)
    out = tmp_path / "converted"
    assert run_cli(["convert-cora", "--raw", str(raw), "--out", str(out), "--no-row-normalize"]) == 1
    assert "non-finite feature nan of node 600, column 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("suffix, damage, message", [
    ("x", lambda data: data[:len(data) // 2], "not a readable pickle: pickle data was truncated"),
    ("graph", lambda data: pickle.dumps([[1], [0]]), "expected a dict, got list"),
    ("tx", lambda data: pickle.dumps([[1.0]]), "expected a scipy sparse matrix, got list"),
    ("ally", lambda data: pickle.dumps([[1.0]]), "expected a numpy array, got list"),
], ids=["truncated-x", "graph-list", "tx-list", "ally-list"])
def test_convert_damaged_pickle_exits_one_naming_it(tmp_path, capsys, suffix, damage, message):
    raw, *_ = make_planetoid_dump(tmp_path)
    path = raw / f"ind.cora.{suffix}"
    path.write_bytes(damage(path.read_bytes()))
    out = tmp_path / "converted"
    assert run_cli(["convert-cora", "--raw", str(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


WRONG_TEST_IDS = "expected 4 distinct non-negative node ids, one per row of ind.cora.tx"


@pytest.mark.parametrize("text, message", [
    ("", WRONG_TEST_IDS),
    ("601\nx\n604\n602\n", "invalid literal for int() with base 10: 'x'"),
    ("601\n-1\n604\n602\n", WRONG_TEST_IDS),
    ("601\n601\n604\n602\n", WRONG_TEST_IDS),
    ("601\n600\n604\n", WRONG_TEST_IDS),
], ids=["empty", "not-an-integer", "negative", "repeated", "too-few"])
def test_convert_bad_test_index_exits_one_naming_it(tmp_path, capsys, text, message):
    raw, *_ = make_planetoid_dump(tmp_path)
    path = raw / "ind.cora.test.index"
    path.write_text(text)
    out = tmp_path / "converted"
    assert run_cli(["convert-cora", "--raw", str(raw), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
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
    assert not (tmp_path / "r").exists()  # so the corrected run needs no --force
    config.write_text(json.dumps({"lr": 0.01, "max_epochs": 2, "patience": 2, "seeds": [1]}))
    assert run_cli(["train", "--data", str(dataset_dir), "--config", str(config), "--out", str(tmp_path / "r")]) == 0


def test_sweep_divergence_names_grid_point(tmp_path, dataset_dir, quick_config):
    argv = ["sweep", "--data", str(dataset_dir), "--config", str(quick_config), "--seeds", "0",
            "--max-epochs", "2", "--grid", "lr=0.01,1e200", "--out", str(tmp_path / "s")]
    proc = run_subprocess(argv)
    assert proc.returncode == 1
    assert re.fullmatch(r"error: grid point lr=1e\+200: seed 0, epoch 0: training diverged \(.+\)\n",
                        proc.stderr), proc.stderr
    assert not (tmp_path / "s").exists()  # so the corrected sweep needs no --force
    argv[argv.index("lr=0.01,1e200")] = "lr=0.01"
    assert run_cli(argv) == 0


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_a_model_too_large_to_allocate_exits_one_before_out(tmp_path, dataset_dir, monkeypatch, capsys, command):
    message = "Unable to allocate 116. TiB for an array with shape (16, 1000000000000) and data type float64"

    def unallocatable(*args, **kwargs):  # what init_params raises for such a hidden width
        raise MemoryError(message)

    monkeypatch.setattr(cli.trainer, "init_params", unallocatable)
    out = tmp_path / "run"
    argv = [command, "--data", str(dataset_dir), "--seeds", "0", "--max-epochs", "2", "--out", str(out)]
    if command == "sweep":
        argv += ["--grid", "lr=0.01"]
    assert run_cli(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_sampling_weights_that_overflow_exit_one_before_out(tmp_path, dataset_dir, quick_config, command):
    """beta_s = 1000 overflows the same-class weights at the first refresh:
    one error line naming beta_s, no numpy warning, no --out."""
    blob = json.loads(quick_config.read_text())
    blob = {**blob, "seeds": [0], "mixup": {**blob["mixup"], **({"beta_s": 1000} if command == "train" else {})}}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(blob))
    argv = [command, "--data", str(dataset_dir), "--config", str(config), "--out", str(tmp_path / "r")]
    if command == "sweep":
        argv += ["--grid", "mixup.beta_s=1,1000"]
    proc = run_subprocess(argv)
    assert proc.returncode == 1
    where = "grid point mixup.beta_s=1000: " if command == "sweep" else ""
    assert re.fullmatch(rf"error: {where}beta_s=1000 and beta_d=1.0 make the sampling weights .+\n",
                        proc.stderr), proc.stderr
    assert not (tmp_path / "r").exists()


def test_a_forced_train_leaves_only_the_per_seed_files_of_its_own_seeds(tmp_path):
    data, out = tmp_path / "data", tmp_path / "r"
    assert run_cli(synth_args(data, per_class=30)) == 0  # 90 nodes
    train = ["train", "--data", str(data), "--max-epochs", "5", "--out", str(out)]
    assert run_cli(train + ["--seeds", "0..3"]) == 0
    (out / "notes.txt").write_text("not a run file\n")
    assert run_cli(train + ["--seeds", "0", "--force"]) == 0
    seeds = json.loads((out / "summary.json").read_text())["seeds"]
    assert seeds == [0]
    per_seed = [f"{kind}_seed{s}.{ext}" for s in seeds for kind, ext in (("checkpoint", "txt"), ("metrics", "tsv"))]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        per_seed + ["manifest.json", "notes.txt", "summary.json", "timings.tsv"])


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


def test_cold_and_warm_loads_write_the_same_outputs(tmp_path, quick_config):
    """The first command on a dataset parses features.tsv and caches the
    table, and the first diagnose command caches the labeled-set distances
    and the exact diameter; every later one reads them. Both write the same
    bytes."""
    data = tmp_path / "data"
    assert run_cli(synth_args(data)) == 0
    features, reach = data / graphio.CACHE_FILE, data / diagnostics.REACH_CACHE
    checkpoint = tmp_path / "cold" / "train" / "checkpoint_seed0.txt"
    commands = {
        "train": ["train", "--config", str(quick_config)],
        "rc": ["diagnose", "rc"],
        "avgsp": ["diagnose", "avgsp"],
        "cka": ["diagnose", "cka", "--checkpoint", str(checkpoint)],
        "pearson": ["diagnose", "pearson", "--checkpoint", str(checkpoint)],
    }
    for state in ("cold", "warm"):
        for name, argv in commands.items():
            if state == "cold":
                features.unlink(missing_ok=True)
                reach.unlink(missing_ok=True)
            assert features.exists() == reach.exists() == (state == "warm")
            assert run_cli(argv + ["--data", str(data), "--out", str(tmp_path / state / name)]) == 0
            assert features.exists()
            assert reach.exists() == (state == "warm" or name != "train")  # train never measures reach
    for name in commands:
        cold, warm = tmp_path / "cold" / name, tmp_path / "warm" / name
        names = sorted(set(os.listdir(cold)) - {"manifest.json", "timings.tsv"})
        assert names == sorted(set(os.listdir(warm)) - {"manifest.json", "timings.tsv"})
        assert len(names) >= 2
        for file in names:
            assert read_bytes(cold / file) == read_bytes(warm / file), (name, file)
