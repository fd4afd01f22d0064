import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from reachmix import nn
from reachmix.graphalg import add_self_loops, from_edges, sym_normalize
from reachmix.graphio import generate_sbm
from reachmix.nn import (
    ModelParams,
    accuracy,
    adam_init,
    adam_step,
    backward,
    gcn_forward,
    gradient_check,
    init_params,
    load_params,
    mlp_forward,
    save_params,
    soft_cross_entropy,
    soft_cross_entropy_with_grad,
    softmax,
)
from reachmix.seeding import substream
from reachmix.trainer import build_operators


def small_params(rng, f=5, h=4, c=3):
    return init_params(f, h, c, rng)


def sparse_features(rng, n=9, f=5, density=0.3):
    x = rng.standard_normal((n, f)) * (rng.random((n, f)) < density)
    return csr_array(x)


def test_gcn_identity_equals_mlp_bitwise(rng):
    x = sparse_features(rng)
    params = small_params(np.random.default_rng(0))
    dlogits = rng.standard_normal((9, 3))
    # An edgeless graph through the training pipeline: weight exactly 1.0 on the diagonal.
    identity = sym_normalize(add_self_loops(from_edges(9, np.zeros((0, 2), dtype=np.int64))))
    assert np.array_equal(identity.toarray(), np.eye(9))
    for train in (False, True):
        gcn_logits, gcn_trace = gcn_forward(x, identity, params, 0.5, train, np.random.default_rng(1))
        mlp_logits, mlp_trace = mlp_forward(x, params, 0.5, train, np.random.default_rng(1))
        assert np.array_equal(gcn_logits, mlp_logits)
        gcn_grads, mlp_grads = backward(gcn_trace, dlogits), backward(mlp_trace, dlogits)
        for name in gcn_grads:
            assert np.array_equal(gcn_grads[name], mlp_grads[name])


def test_dense_and_csr_input_agree_bitwise(rng):
    x = sparse_features(rng)
    params = small_params(np.random.default_rng(0))
    a = sym_normalize(add_self_loops(from_edges(9, np.array([[0, 1], [1, 2], [3, 4], [5, 8]]))))
    dense_logits, _ = gcn_forward(x.toarray(), a, params, 0.5, True, np.random.default_rng(2))
    csr_logits, _ = gcn_forward(x, a, params, 0.5, True, np.random.default_rng(2))
    assert np.array_equal(dense_logits, csr_logits)


def test_input_dropout_acts_on_stored_entries_only(rng):
    x = sparse_features(rng, n=40, f=30, density=0.1)
    params = small_params(np.random.default_rng(0), f=30)
    rate = 0.4
    _, trace = mlp_forward(x, params, rate, True, np.random.default_rng(5))
    dropped = trace.x_in
    # Zeros stay zero: the stored pattern is unchanged and nothing is added.
    assert np.array_equal(dropped.indptr, x.indptr) and np.array_equal(dropped.indices, x.indices)
    # Each stored entry is either dropped or scaled by exactly 1 / (1 - p).
    kept = dropped.data != 0.0
    assert 0 < kept.sum() < x.nnz
    np.testing.assert_array_equal(dropped.data[kept], x.data[kept] / (1.0 - rate))
    # The stream advances by exactly nnz draws for the input layer: the next
    # N x H draws are the hidden-layer mask.
    ref = np.random.default_rng(5)
    np.testing.assert_array_equal(trace.mask1, (ref.random(x.nnz) >= rate) / (1.0 - rate))
    np.testing.assert_array_equal(trace.mask2, (ref.random((40, 4)) >= rate) / (1.0 - rate))


def test_train_mode_same_seed_same_output(rng):
    x = sparse_features(rng, n=20, f=5)
    params = small_params(np.random.default_rng(0))
    a = sym_normalize(add_self_loops(from_edges(20, np.array([[i, i + 1] for i in range(19)]))))
    first, _ = gcn_forward(x, a, params, 0.5, True, np.random.default_rng(9))
    again, _ = gcn_forward(x, a, params, 0.5, True, np.random.default_rng(9))
    other, _ = gcn_forward(x, a, params, 0.5, True, np.random.default_rng(10))
    assert np.array_equal(first, again)
    assert not np.array_equal(first, other)


def test_zero_weights_give_zero_logits(rng):
    x = rng.standard_normal((4, 3))
    params = ModelParams(np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
    a = sym_normalize(add_self_loops(from_edges(4, np.array([[0, 1], [2, 3]]))))
    logits, _ = gcn_forward(x, a, params)
    assert np.all(logits == 0.0)


def test_gcn_hand_computed_two_node_case():
    # Graph 0-1 with self-loops: A_hat is all 0.5. X = [[1], [2]],
    # W1 = [[1]] -> hidden rows both ReLU(1.5) = 1.5; W2 = [[2, -1]],
    # b2 = [0.5, 0] -> logits rows [3.5, -1.5].
    a = sym_normalize(add_self_loops(from_edges(2, np.array([[0, 1]]))))
    params = ModelParams(np.array([[1.0]]), np.zeros(1), np.array([[2.0, -1.0]]), np.array([0.5, 0.0]))
    logits, _ = gcn_forward(np.array([[1.0], [2.0]]), a, params)
    np.testing.assert_allclose(logits, [[3.5, -1.5], [3.5, -1.5]], atol=1e-15)


def test_mlp_row_independence(rng):
    x = rng.standard_normal((6, 5))
    params = small_params(np.random.default_rng(1))
    base, _ = mlp_forward(x, params)
    perm = rng.permutation(6)
    permuted, _ = mlp_forward(x[perm], params)
    np.testing.assert_array_equal(permuted, base[perm])


def test_gcn_permutation_equivariance(rng):
    n = 8
    edges = np.array([[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 7], [0, 7], [2, 6]])
    x = rng.standard_normal((n, 5))
    params = small_params(np.random.default_rng(2))
    a = sym_normalize(add_self_loops(from_edges(n, edges)))
    base, _ = gcn_forward(x, a, params)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    relabeled = np.stack([inv[edges[:, 0]], inv[edges[:, 1]]], axis=1)
    a_perm = sym_normalize(add_self_loops(from_edges(n, relabeled)))
    permuted, _ = gcn_forward(x[perm], a_perm, params)
    np.testing.assert_allclose(permuted, base[perm], atol=1e-12)


def test_eval_mode_deterministic(rng):
    x = rng.standard_normal((5, 5))
    params = small_params(np.random.default_rng(3))
    a = sym_normalize(add_self_loops(from_edges(5, np.array([[0, 1], [1, 2], [3, 4]]))))
    l1, _ = gcn_forward(x, a, params)
    l2, _ = gcn_forward(x, a, params)
    assert np.array_equal(l1, l2)


def test_train_mode_dropout_changes_output(rng):
    x = rng.standard_normal((5, 5))
    params = small_params(np.random.default_rng(3))
    a = sym_normalize(add_self_loops(from_edges(5, np.array([[0, 1], [1, 2], [3, 4]]))))
    eval_logits, _ = gcn_forward(x, a, params)
    train_logits, trace = gcn_forward(x, a, params, dropout_rate=0.5, train=True, rng=np.random.default_rng(0))
    assert not np.array_equal(eval_logits, train_logits)
    assert trace.mask1 is not None and trace.mask2 is not None


def test_dropout_requires_rng():
    params = small_params(np.random.default_rng(3))
    with pytest.raises(ValueError, match="rng"):
        mlp_forward(np.zeros((2, 5)), params, dropout_rate=0.5, train=True)


def test_shape_mismatch_raises(rng):
    params = small_params(np.random.default_rng(3))
    with pytest.raises(ValueError, match="shape"):
        mlp_forward(rng.standard_normal((2, 7)), params)


def test_soft_ce_one_hot_is_minus_log_prob(rng):
    logits = rng.standard_normal((4, 5))
    probs = softmax(logits)
    targets = np.zeros((4, 5))
    targets[np.arange(4), [0, 3, 2, 1]] = 1.0
    loss = soft_cross_entropy(logits, targets, np.ones(4))
    expected = -np.mean([np.log(probs[i, c]) for i, c in enumerate([0, 3, 2, 1])])
    assert abs(loss - expected) < 1e-12


def test_soft_ce_uniform_logits_log_c():
    logits = np.zeros((2, 7))
    targets = np.zeros((2, 7))
    targets[:, 3] = 1.0
    loss = soft_cross_entropy(logits, targets, np.ones(2))
    assert abs(loss - np.log(7.0)) < 1e-12


def test_soft_ce_linear_in_targets(rng):
    logits = rng.standard_normal((3, 4))
    t1 = np.zeros((3, 4))
    t1[:, 0] = 1.0
    t2 = np.zeros((3, 4))
    t2[:, 2] = 1.0
    lam = 0.37
    mixed = lam * t1 + (1 - lam) * t2
    w = np.ones(3)
    lhs = soft_cross_entropy(logits, mixed, w)
    rhs = lam * soft_cross_entropy(logits, t1, w) + (1 - lam) * soft_cross_entropy(logits, t2, w)
    assert abs(lhs - rhs) < 1e-12


def test_soft_ce_positive_for_finite_logits(rng):
    logits = rng.standard_normal((5, 3)) * 10
    targets = np.zeros((5, 3))
    targets[:, 1] = 1.0
    assert soft_cross_entropy(logits, targets, np.ones(5)) > 0.0


def test_soft_ce_rejects_non_simplex():
    logits = np.zeros((2, 3))
    with pytest.raises(ValueError, match="simplex"):
        soft_cross_entropy(logits, np.full((2, 3), 0.5), np.ones(2))


def test_soft_ce_rejects_zero_weights():
    logits = np.zeros((2, 3))
    targets = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError, match="zero"):
        soft_cross_entropy(logits, targets, np.zeros(2))


def test_soft_ce_weighted_mean_masks_rows(rng):
    logits = rng.standard_normal((4, 3))
    targets = np.zeros((4, 3))
    targets[:, 0] = 1.0
    w = np.array([1.0, 0.0, 1.0, 0.0])
    masked = soft_cross_entropy(logits, targets, w)
    manual = soft_cross_entropy(logits[[0, 2]], targets[[0, 2]], np.ones(2))
    assert abs(masked - manual) < 1e-12


def test_backward_zero_upstream_gives_zero_grads(rng):
    x = rng.standard_normal((4, 5))
    params = small_params(np.random.default_rng(4))
    logits, trace = mlp_forward(x, params)
    grads = backward(trace, np.zeros_like(logits))
    assert all(np.all(g == 0.0) for g in grads.values())


def test_backward_single_node_hand_derived_chain_rule():
    # One node, one hidden unit: logits_c = h * w2_c + b2_c with
    # h = ReLU(x * w1 + b1). For cross-entropy with one-hot target t,
    # d/dw2_c = h * (softmax(logits)_c - t_c) and d/db2_c = the same without h.
    x = np.array([[2.0]])
    params = ModelParams(np.array([[0.5]]), np.array([0.1]), np.array([[0.3, -0.2]]), np.zeros(2))
    logits, trace = mlp_forward(x, params)
    h = 2.0 * 0.5 + 0.1
    z = np.array([h * 0.3, h * -0.2])
    p = np.exp(z - z.max())
    p = p / p.sum()
    target = np.array([[1.0, 0.0]])
    _, dlogits = soft_cross_entropy_with_grad(logits, target, np.ones(1))
    grads = backward(trace, dlogits)
    np.testing.assert_allclose(grads["w2"], [(p - target[0]) * h], atol=1e-12)
    np.testing.assert_allclose(grads["b2"], p - target[0], atol=1e-12)
    # First layer: dL/dw1 = x * relu'(pre) * sum_c dlogits_c w2_c.
    expected_w1 = 2.0 * 1.0 * float((p - target[0]) @ np.array([0.3, -0.2]))
    np.testing.assert_allclose(grads["w1"], [[expected_w1]], atol=1e-12)


def test_trace_reuse_raises(rng):
    x = rng.standard_normal((3, 5))
    params = small_params(np.random.default_rng(5))
    logits, trace = mlp_forward(x, params)
    backward(trace, np.zeros_like(logits))
    with pytest.raises(RuntimeError, match="consumed"):
        backward(trace, np.zeros_like(logits))


def test_adam_zero_gradient_keeps_params():
    params = ModelParams(np.ones((2, 3)), np.ones(3), np.ones((3, 2)), np.ones(2))
    state = adam_init(params, lr=0.1)
    zeros = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    adam_step(params, zeros, state)
    assert np.all(params.w1 == 1.0) and np.all(params.b2 == 1.0)
    assert state.step == 1


def test_adam_first_step_moves_by_lr():
    # Bias correction makes the first update lr * g / (|g| + eps) ~ lr * sign(g).
    params = ModelParams(np.array([[0.0]]), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    state = adam_init(params, lr=0.1)
    grads = {"w1": np.array([[1.0]]), "b1": np.zeros(1), "w2": np.zeros((1, 1)), "b2": np.zeros(1)}
    adam_step(params, grads, state)
    assert abs(params.w1[0, 0] - (-0.1)) < 1e-8


def test_adam_step_counter_increments():
    params = ModelParams(np.zeros((1, 1)), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    state = adam_init(params, lr=0.01)
    zeros = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    for expected in (1, 2, 3):
        adam_step(params, zeros, state)
        assert state.step == expected


def test_adam_coupled_weight_decay_shrinks_param():
    params = ModelParams(np.full((1, 1), 2.0), np.zeros(1), np.zeros((1, 1)), np.zeros(1))
    state = adam_init(params, lr=0.1, weight_decay={"w1": 0.5})
    zeros = {k: np.zeros_like(v) for k, v in params.as_dict().items()}
    adam_step(params, zeros, state)
    assert params.w1[0, 0] < 2.0


def test_gradient_check_small_graph():
    ds = generate_sbm(2, 4, 0.9, 0.3, 5, 0.5, seed=0, labels_per_class=2, valid_per_class=1)
    params = init_params(ds.num_features, 6, ds.num_classes, substream(0, "gradcheck"))
    max_rel, checked, _ = gradient_check(build_operators(ds), params, eps=1e-5)
    assert checked > 0
    assert max_rel < 1e-5


def test_gradient_check_sparse_features():
    # Most features zero, so the CSR input stores a minority of the entries.
    from dataclasses import replace

    ds = generate_sbm(2, 4, 0.9, 0.3, 5, 0.5, seed=0, labels_per_class=2, valid_per_class=1)
    keep = np.random.default_rng(3).random(ds.features.shape) < 0.3
    ds = replace(ds, features=ds.features * keep)
    params = init_params(ds.num_features, 6, ds.num_classes, substream(0, "gradcheck"))
    max_rel, checked, _ = gradient_check(build_operators(ds), params, eps=1e-5)
    assert checked > 0
    assert max_rel < 1e-5


def test_gradient_check_linear_region_near_floor():
    # All-positive inputs and weights keep every ReLU strictly active: the
    # network is smooth there and central differences are ~eps^2 accurate.
    ds = generate_sbm(2, 3, 1.0, 0.5, 4, 0.0, seed=1, labels_per_class=1, valid_per_class=1)
    features = np.abs(ds.features) + 1.0
    from dataclasses import replace

    ds = replace(ds, features=features)
    params = ModelParams(
        np.full((4, 3), 0.4), np.full(3, 0.2), np.full((3, 2), 0.3), np.zeros(2)
    )
    max_rel, checked, skipped = gradient_check(build_operators(ds), params, eps=1e-5)
    assert skipped == 0
    assert max_rel < 1e-8


def test_gradient_check_excludes_relu_kink():
    # pre-activation is exactly 0 for the single node: perturbing b1 straddles
    # the kink and must be excluded rather than reported as an error.
    from reachmix.graphio import Dataset, SplitSpec

    ds = Dataset(
        2, 2, np.array([[0, 1]]), np.array([[1.0], [1.0]]), np.array([0, 1]),
        SplitSpec([0], [], [1]),
    )
    params = ModelParams(np.array([[1.0]]), np.array([-1.0]), np.array([[1.0, -1.0]]), np.zeros(2))
    _, _, skipped = gradient_check(build_operators(ds), params, eps=1e-5)
    assert skipped >= 1


@st.composite
def dense_tables(draw):
    """Tables with all-zero, fully dense and mixed rows over the cells that
    tell a conversion apart: +0.0, -0.0 (also a zero) and nan."""
    width = draw(st.integers(1, 5))
    cells = {"zero": st.sampled_from([0.0, -0.0]),
             "dense": st.sampled_from([1.0, -2.5, 5e-324, np.nan]),
             "mixed": st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, np.nan])}
    rows = draw(st.lists(st.sampled_from(sorted(cells)), min_size=0, max_size=7))
    return np.array([draw(st.lists(cells[kind], min_size=width, max_size=width)) for kind in rows]).reshape(-1, width)


@settings(max_examples=80, deadline=None)
@given(dense_tables(), st.integers(1, 12))
def test_as_csr_builds_the_arrays_csr_array_builds(x, mask_cells):
    expected = csr_array(x)
    with mock.patch.object(nn, "_MASK_CELLS", mask_cells):  # rows spread over several mask blocks
        got = nn.as_csr(x)
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_checkpoint_round_trip(tmp_path):
    params = small_params(np.random.default_rng(6))
    params.b1[:] = [-0.0, 5e-324, 0.1 + 0.2, 1e300]
    params.b2[:] = [np.nan, np.inf, -np.inf]
    path = tmp_path / "ckpt.txt"
    save_params(path, params)
    lines = path.read_text(encoding="utf-8").splitlines()
    for k, (name, arr) in enumerate(params.as_dict().items()):
        assert lines[2 * k] == f"param {name} {arr.ndim} " + " ".join(str(d) for d in arr.shape)
        assert lines[2 * k + 1] == " ".join(repr(float(x)) for x in arr.reshape(-1))
    back = load_params(path)
    for name, arr in params.as_dict().items():
        assert back.as_dict()[name].shape == arr.shape
        assert back.as_dict()[name].tobytes() == arr.tobytes()  # bit-exact, -0.0 included


def test_load_params_reads_every_token_as_float_does(tmp_path):
    # A token is a value if float reads it: 1_000 is, nan(1) is not, and a
    # blank value line holds no values.
    path = tmp_path / "ckpt.txt"
    path.write_text("param w1 2 1 2\n1_000 -0.0\nparam b1 1 2\n2 3\nparam w2 2 2 1\n5e-324 1e300\n"
                    "param b2 1 1\nnan\n", encoding="utf-8")
    params = load_params(path)
    assert params.w1.tobytes() == np.array([[1000.0, -0.0]]).tobytes()
    assert params.w2.tobytes() == np.array([[5e-324], [1e300]]).tobytes()
    assert np.isnan(params.b2).all()
    for line, message in (("nan(1)", "could not convert string to float: 'nan(1)'"),
                          ("  ", "0 values for parameter b2 of shape (1,)")):
        path.write_text(f"param b2 1 1\n{line}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}:2: {message}") + "$"):
            load_params(path)


def test_accuracy_basic():
    logits = np.array([[2.0, 1.0], [0.0, 3.0], [1.0, 0.0]])
    labels = np.array([0, 1, 1])
    assert accuracy(logits, labels, np.array([0, 1, 2])) == pytest.approx(2.0 / 3.0)


@pytest.mark.parametrize("shapes", [
    pytest.param({"b1": (10,)}, id="b1-not-H"),
    pytest.param({"w2": (5, 3)}, id="w2-rows-not-H"),
    pytest.param({"b2": (2,)}, id="b2-not-C"),
    pytest.param({"w1": (6,)}, id="w1-not-2d"),
    pytest.param({"w2": (4, 3, 1)}, id="w2-not-2d"),
])
def test_load_params_rejects_shapes_of_no_network(tmp_path, shapes):
    good = {"w1": (6, 4), "b1": (4,), "w2": (4, 3), "b2": (3,)}
    rng = np.random.default_rng(0)
    params = ModelParams(**{name: rng.standard_normal(shapes.get(name, shape)) for name, shape in good.items()})
    path = tmp_path / "ckpt.txt"
    save_params(path, params)
    with pytest.raises(ValueError, match="^" + re.escape(str(path)) + r": parameter shapes .*w1 \(F, H\)"):
        load_params(path)


def test_blas_pin_is_shared_by_overlapping_holders(blas_count):
    # The BLAS thread count is one value for the whole process, so a holder
    # that leaves while another trains must not restore it under the other.
    first, second = nn.one_blas_thread(), nn.one_blas_thread()
    assert first.__enter__() is True and blas_count == [1]
    assert second.__enter__() is True and blas_count == [1]
    first.__exit__(None, None, None)
    assert blas_count == [1]
    second.__exit__(None, None, None)
    assert blas_count == [4]
    with nn.one_blas_thread():
        assert blas_count == [1]
    assert blas_count == [4]
