import numpy as np
import pytest

from reachmix.graphio import generate_sbm, make_split, with_split
from reachmix.mixup import MixupConfig, train_inputs
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
    ds = small_dataset()
    outcome = train_one(ds, quick_cfg(), seed=0)
    h = history_matrix(outcome)
    assert np.all(h[:, 2] == 0.0) and np.all(h[:, 3] == 0.0)
    np.testing.assert_array_equal(h[:, 0], h[:, 1])


def test_zero_lambdas_bitwise_equal_to_baseline():
    ds = small_dataset()
    base = train_one(ds, quick_cfg(), seed=3)
    mixup_off = quick_cfg(
        mixup_enabled=True,
        mixup=MixupConfig(lambda_intra=0.0, lambda_inter=0.0, warmup_epochs=5),
    )
    mixed = train_one(ds, mixup_off, seed=3)
    np.testing.assert_array_equal(history_matrix(mixed), history_matrix(base))
    for name, arr in base.params.as_dict().items():
        np.testing.assert_array_equal(mixed.params.as_dict()[name], arr)


def test_same_seed_bitwise_reproducible():
    ds = small_dataset()
    cfg = quick_cfg(mixup_enabled=True, mixup=MixupConfig(warmup_epochs=5))
    a = train_one(ds, cfg, seed=7)
    b = train_one(ds, cfg, seed=7)
    np.testing.assert_array_equal(history_matrix(a), history_matrix(b))
    assert a.test_acc == b.test_acc


def test_different_seeds_differ():
    ds = small_dataset()
    a = train_one(ds, quick_cfg(), seed=0)
    b = train_one(ds, quick_cfg(), seed=1)
    assert not np.array_equal(history_matrix(a), history_matrix(b))


def test_mixup_refresh_hook_fires_and_batches_are_valid():
    ds = small_dataset()
    calls = []

    def hook(epoch, dpl, pairs, batches):
        calls.append(epoch)
        assert np.all(ds.labels[pairs.intra_targets] == pairs.intra_partner_labels)
        assert np.all(ds.labels[pairs.inter_targets] != pairs.inter_partner_labels)

    cfg = quick_cfg(mixup_enabled=True, mixup=MixupConfig(warmup_epochs=5, refresh_every=2))
    train_one(ds, cfg, seed=0, on_refresh=hook)
    assert calls and calls[0] == 5
    assert all(b - a == 2 for a, b in zip(calls, calls[1:]))


def test_early_stopping_restores_best_params():
    ds = small_dataset()
    cfg = quick_cfg(max_epochs=60, patience=5)
    outcome = train_one(ds, cfg, seed=2)
    _, a_norm, _ = build_operators(ds)
    acc, _ = evaluate(outcome.params, train_inputs(ds), a_norm, ds.split.valid_ids)
    assert acc == outcome.best_val_acc
    assert outcome.best_epoch <= outcome.stopped_epoch


def test_patience_stops_before_max_epochs():
    ds = small_dataset()
    outcome = train_one(ds, quick_cfg(max_epochs=200, patience=3), seed=0)
    assert outcome.stopped_epoch < 199


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
    with pytest.raises(KeyError):
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


def test_training_requires_validation_set():
    ds = generate_sbm(2, 6, 0.6, 0.1, 4, 0.5, seed=4)
    bare = with_split(ds, type(ds.split)(list(range(4)), [], list(range(4, 12))))
    with pytest.raises(ValueError, match="validation"):
        train_one(bare, quick_cfg(), seed=0)
