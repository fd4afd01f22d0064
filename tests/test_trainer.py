import json
import pickle
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reachmix.graphio import generate_sbm, make_split, with_split
from reachmix import nn, trainer
from reachmix.mixup import MixupConfig
from reachmix.trainer import (
    TrainConfig,
    apply_grid_point,
    build_operators,
    evaluate,
    grid_search,
    train_multi,
    train_one,
)


def small_dataset(seed=1):
    ds = generate_sbm(3, 25, 0.25, 0.02, 8, 0.8, seed=seed)
    return with_split(ds, make_split(ds, 4, 5, seed=seed))


def quick_cfg(**kw):
    defaults = dict(hidden=16, max_epochs=40, patience=40, seeds=(0,))
    defaults.update(kw)
    return TrainConfig(**defaults)


def history_matrix(outcome):
    return np.array([[r.total, r.supervised, r.intra, r.inter, r.val_acc] for r in outcome.history])


def test_baseline_has_no_mixup_loss_terms():
    outcome = train_one(build_operators(small_dataset()), quick_cfg(), seed=0)
    h = history_matrix(outcome)
    assert np.all(h[:, 2] == 0.0) and np.all(h[:, 3] == 0.0)
    np.testing.assert_array_equal(h[:, 0], h[:, 1])


def test_zero_lambdas_bitwise_equal_to_baseline():
    inputs = build_operators(small_dataset())
    base = train_one(inputs, quick_cfg(), seed=3)
    mixup_off = quick_cfg(
        mixup_enabled=True,
        mixup=MixupConfig(lambda_intra=0.0, lambda_inter=0.0, warmup_epochs=5),
    )
    mixed = train_one(inputs, mixup_off, seed=3)
    np.testing.assert_array_equal(history_matrix(mixed), history_matrix(base))
    for name, arr in base.params.as_dict().items():
        np.testing.assert_array_equal(mixed.params.as_dict()[name], arr)


def test_same_seed_bitwise_reproducible():
    inputs = build_operators(small_dataset())
    cfg = quick_cfg(mixup_enabled=True, mixup=MixupConfig(warmup_epochs=5))
    a = train_one(inputs, cfg, seed=7)
    b = train_one(inputs, cfg, seed=7)
    np.testing.assert_array_equal(history_matrix(a), history_matrix(b))
    assert a.test_acc == b.test_acc


def test_different_seeds_differ():
    inputs = build_operators(small_dataset())
    a = train_one(inputs, quick_cfg(), seed=0)
    b = train_one(inputs, quick_cfg(), seed=1)
    assert not np.array_equal(history_matrix(a), history_matrix(b))


def test_mixup_refresh_hook_fires_and_batches_are_valid():
    ds = small_dataset()
    calls = []

    def hook(epoch, dpl, pairs, batches):
        calls.append(epoch)
        assert np.all(ds.labels[pairs.intra_targets] == pairs.intra_partner_labels)
        assert np.all(ds.labels[pairs.inter_targets] != pairs.inter_partner_labels)

    cfg = quick_cfg(mixup_enabled=True, mixup=MixupConfig(warmup_epochs=5, refresh_every=2))
    train_one(build_operators(ds), cfg, seed=0, on_refresh=hook)
    assert calls and calls[0] == 5
    assert all(b - a == 2 for a, b in zip(calls, calls[1:]))


def test_early_stopping_restores_best_params():
    inputs = build_operators(small_dataset())
    cfg = quick_cfg(max_epochs=60, patience=5)
    outcome = train_one(inputs, cfg, seed=2)
    acc, _ = evaluate(outcome.params, inputs, inputs.split.valid_ids)
    assert acc == outcome.best_val_acc
    assert outcome.best_epoch <= outcome.history[-1].epoch


def test_patience_stops_before_max_epochs():
    outcome = train_one(build_operators(small_dataset()), quick_cfg(max_epochs=200, patience=3), seed=0)
    assert outcome.history[-1].epoch < 199


def test_train_multi_single_seed_zero_std():
    ds = small_dataset()
    result = train_multi(ds, quick_cfg(seeds=(0,)))
    assert result.std == 0.0
    assert result.test_accs.size == 1


def test_train_multi_seed_order_invariant():
    ds = small_dataset()
    fwd = train_multi(ds, quick_cfg(seeds=(0, 1, 2)))
    rev = train_multi(ds, quick_cfg(seeds=(2, 1, 0)))
    assert fwd.mean == rev.mean
    assert fwd.std == rev.std


def test_concurrent_seeds_match_serial_runs_bitwise():
    # More seeds than cores, so seeds queue for workers, and a thread switch
    # after nearly every bytecode: a seed that read another's state, or a
    # BLAS thread count that leaked between threads, would change some bits.
    ds = small_dataset()
    seeds = tuple(range(trainer._usable_cores() + 2))
    cfg = quick_cfg(max_epochs=12, patience=12, seeds=seeds, mixup_enabled=True,
                    mixup=MixupConfig(warmup_epochs=3, gamma=0.5))
    result = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker = threading.Thread(target=lambda: result.update(run=train_multi(ds, cfg)), daemon=True)
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and "run" in result
    inputs = build_operators(ds)
    for seed, outcome in zip(seeds, result["run"].outcomes):
        serial = train_one(inputs, cfg, seed)
        np.testing.assert_array_equal(history_matrix(outcome), history_matrix(serial))
        assert [r.epoch for r in outcome.history] == [r.epoch for r in serial.history]
        for name, arr in outcome.params.as_dict().items():
            assert arr.tobytes() == serial.params.as_dict()[name].tobytes(), (seed, name)


def test_train_multi_without_a_blas_pin_runs_one_worker(monkeypatch):
    sizes = []

    class Recording(trainer.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(trainer, "ThreadPoolExecutor", Recording)
    ds, cfg = small_dataset(), quick_cfg(max_epochs=3, patience=3, seeds=(0, 1, 2))
    pinned = train_multi(ds, cfg)
    workers = min(3, trainer._usable_cores()) if nn.blas_thread_setter() is not None else 1
    monkeypatch.setattr(nn, "blas_thread_setter", lambda: None)
    with nn.one_blas_thread() as pin:
        assert pin is False
    unpinned = train_multi(ds, cfg)
    assert sizes == [workers, 1]
    assert unpinned.test_accs.tolist() == pinned.test_accs.tolist()


def test_train_one_trains_with_blas_held_to_one_thread(blas_count):
    # A sweep point calls train_one directly, with no train_multi around it.
    seen = []
    cfg = quick_cfg(max_epochs=4, patience=4, mixup_enabled=True, mixup=MixupConfig(warmup_epochs=1))
    train_one(build_operators(small_dataset()), cfg, seed=0, on_refresh=lambda *args: seen.append(blas_count[0]))
    assert seen == [1, 1, 1] and blas_count == [4]


def test_interrupt_starts_no_further_seed(monkeypatch):
    # Ctrl-C reaches the main thread while it waits for the seeds.
    started = []

    def sleeping(inputs, cfg, seed):
        started.append(seed)
        time.sleep(0.1)

    def interrupted(futures):
        raise KeyboardInterrupt

    monkeypatch.setattr(trainer, "train_one", sleeping)
    monkeypatch.setattr(trainer, "wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        train_multi(small_dataset(), quick_cfg(seeds=tuple(range(8))))
    time.sleep(1.0)  # longer than the 8 seeds take one after another
    assert len(started) <= trainer._usable_cores()


def test_train_multi_aggregates_match_accs():
    ds = small_dataset()
    result = train_multi(ds, quick_cfg(seeds=(0, 1)))
    assert result.mean == pytest.approx(result.test_accs.mean())
    assert result.std == pytest.approx(result.test_accs.std())
    assert result.sem == pytest.approx(result.std / np.sqrt(2))


def test_grid_search_single_point_returns_it():
    ds = small_dataset()
    cfg = quick_cfg(mixup_enabled=True, mixup=MixupConfig(warmup_epochs=5))
    best, rows = grid_search(ds, cfg, {"mixup.gamma": [0.9]})
    assert best.mixup.gamma == 0.9
    assert len(rows) == 1
    assert "mean_val_acc" in rows[0]


def test_grid_search_cartesian_size():
    ds = small_dataset()
    cfg = quick_cfg(max_epochs=5, patience=5)
    _, rows = grid_search(ds, cfg, {"lr": [0.01, 0.02], "hidden": [8, 16], "dropout": [0.0, 0.5, 0.2]})
    assert len(rows) == 12  # 2 * 2 * 3


def test_grid_search_selects_by_validation_never_test():
    ds = small_dataset()
    cfg = quick_cfg(max_epochs=10, patience=10)
    best, rows = grid_search(ds, cfg, {"hidden": [4, 16]})
    assert all("test" not in " ".join(r.keys()) for r in rows)
    by_val = max(rows, key=lambda r: r["mean_val_acc"])
    assert best.hidden == by_val["hidden"]


def test_grid_search_tie_breaks_to_first_point():
    ds = small_dataset()
    cfg = quick_cfg(max_epochs=3, patience=3)
    # Identical points tie exactly; the first in product order must win.
    best, rows = grid_search(ds, cfg, {"mixup.gamma": [0.7, 0.7]})
    assert rows[0]["mean_val_acc"] == rows[1]["mean_val_acc"]
    assert best.mixup.gamma == 0.7


def test_grid_search_rejects_empty_grid():
    ds = small_dataset()
    with pytest.raises(ValueError, match="non-empty"):
        grid_search(ds, quick_cfg(), {})
    with pytest.raises(ValueError, match="non-empty"):
        grid_search(ds, quick_cfg(), {"lr": []})


def test_apply_grid_point_dotted_paths():
    cfg = quick_cfg()
    out = apply_grid_point(cfg, {"mixup.gamma": 0.5, "lr": 0.1})
    assert out.mixup.gamma == 0.5 and out.lr == 0.1
    with pytest.raises(ValueError, match="mixup.nonsense"):
        apply_grid_point(cfg, {"mixup.nonsense": 1})


def test_config_round_trip_and_validation():
    cfg = quick_cfg(mixup_enabled=True, seeds=(3, 4))
    again = TrainConfig.from_dict(cfg.to_dict())
    assert again == cfg
    with pytest.raises(ValueError):
        TrainConfig(patience=50, max_epochs=10)
    with pytest.raises(ValueError):
        TrainConfig(seeds=())
    with pytest.raises(ValueError, match="unknown"):
        TrainConfig.from_dict({"nope": 1})


@pytest.mark.parametrize("seeds, repeated", [((0, 0, 1), 0), ((3, 1, 2, 1, 3), 3)])
def test_config_refuses_repeated_seeds(seeds, repeated):
    with pytest.raises(ValueError, match=rf"seed {repeated} is listed more than once"):
        TrainConfig(seeds=seeds)
    with pytest.raises(ValueError, match=rf"seed {repeated} "):
        TrainConfig.from_dict({"seeds": list(seeds)})


def test_config_accepts_ints_for_float_fields():
    cfg = TrainConfig.from_dict({"lr": 1, "mixup": {"lambda_intra": 1, "gamma": 1}})
    assert cfg.lr == 1 and cfg.mixup.lambda_intra == 1 and cfg.mixup.gamma == 1
    assert apply_grid_point(cfg, {"mixup.beta_s": 2}).mixup.beta_s == 2


def test_training_requires_validation_set():
    ds = generate_sbm(2, 6, 0.6, 0.1, 4, 0.5, seed=4)
    bare = with_split(ds, type(ds.split)(list(range(4)), [], list(range(4, 12))))
    with pytest.raises(ValueError, match="validation"):
        train_one(build_operators(bare), quick_cfg(), seed=0)


def test_readme_config_schema_matches_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == TrainConfig().to_dict()


def test_build_operators_arrays_are_read_only():
    inputs = build_operators(small_dataset())
    features = inputs.features
    for arr in (features.data, features.indices, features.indptr, inputs.y_hot, inputs.labeled_weights,
                inputs.degrees):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_shared_inputs_match_fresh_inputs_per_seed():
    # No seed leaves state in the inputs the next seed reads.
    ds = small_dataset()
    cfg = quick_cfg(mixup_enabled=True, mixup=MixupConfig(warmup_epochs=5, gamma=0.5))
    shared = build_operators(ds)
    for seed in (0, 1, 2):
        a, b = train_one(shared, cfg, seed), train_one(build_operators(ds), cfg, seed)
        np.testing.assert_array_equal(history_matrix(a), history_matrix(b))
        for name, arr in a.params.as_dict().items():
            assert arr.tobytes() == b.params.as_dict()[name].tobytes(), name


@pytest.fixture
def build_calls(monkeypatch):
    calls = []

    def counting(dataset):
        calls.append(dataset)
        return build_operators(dataset)

    monkeypatch.setattr(trainer, "build_operators", counting)
    return calls


def test_train_multi_builds_inputs_once(build_calls):
    train_multi(small_dataset(), quick_cfg(max_epochs=3, patience=3, seeds=(0, 1, 2)))
    assert len(build_calls) == 1


def test_grid_search_builds_inputs_once(build_calls):
    grid_search(small_dataset(), quick_cfg(max_epochs=3, patience=3, seeds=(0, 1)), {"hidden": [4, 8]}, jobs=1)
    assert len(build_calls) == 1


def test_inputs_leave_the_dense_features_behind(rng):
    # What ``grid_search`` sends to a worker per grid point: a wide table
    # with 1 % stored entries pickles to a small fraction of its dense bytes.
    ds = small_dataset()
    features = np.where(rng.random((ds.num_nodes, 2000)) < 0.01, 1.0, 0.0)
    ds = replace(ds, features=features)
    inputs = build_operators(ds)
    assert (inputs.features.shape[1], inputs.y_hot.shape[1], inputs.labels.size) == (
        ds.num_features, ds.num_classes, ds.num_nodes)
    assert len(pickle.dumps(inputs)) < ds.features.nbytes / 10
