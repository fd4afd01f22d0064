import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_same_csr, dense_mix
from reachmix import mixup
from reachmix.cli import load_config
from reachmix.graphalg import MixSelector, add_self_loops, from_edges
from reachmix.graphio import Dataset, SplitSpec, generate_sbm
from reachmix.mixup import (
    MixupConfig,
    PairAssignment,
    PseudoLabelSet,
    build_batches,
    build_pseudo_labels,
    compute_nld,
    gradient_check,
    loss_and_grads,
    nld_similarity,
    one_hot,
    sample_pairs,
    sampling_weights,
    sharpen,
)
from reachmix.nn import PARAM_NAMES, adam_init, adam_step, backward, init_params
from reachmix.seeding import substream
from reachmix.trainer import build_operators, refresh


def mix(a, b, lam):
    """Row 0 of S Z for the selector that mixes node 0 with partner node 1,
    where Z stacks the rows a and b: the pair rows that ``build_batches``
    mixes with."""
    z = np.stack([np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)])
    return (MixSelector(2, [0], [1], [lam]).pair_rows() @ z)[0]


def test_mix_lambda_one_returns_a_bitwise():
    a, b = np.array([1.7, -2.3]), np.array([0.4, 9.9])
    assert np.array_equal(mix(a, b, 1.0), a)


def test_mix_lambda_zero_returns_b_bitwise():
    a, b = np.array([1.7, -2.3]), np.array([0.4, 9.9])
    assert np.array_equal(mix(a, b, 0.0), b)


def test_mix_direct_value():
    np.testing.assert_allclose(mix(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.3), [0.3, 0.7], atol=1e-15)


def test_mix_rejects_length_mismatch():
    with pytest.raises(ValueError, match="equal length"):
        MixSelector(3, [0], [1, 2], [0.5])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.lists(st.floats(-100, 100), min_size=1, max_size=6),
    st.floats(0.0, 1.0),
)
def test_mix_symmetry(xs, ys, lam):
    # 1-(1-lam) carries an absolute error up to 2^-54, which scales with the
    # input magnitude; 1e-12 is the guarantee at unit-ish scale.
    k = min(len(xs), len(ys))
    a, b = np.array(xs[:k]), np.array(ys[:k])
    np.testing.assert_allclose(mix(a, b, lam), mix(b, a, 1.0 - lam), atol=1e-12, rtol=0)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 6), st.floats(0.0, 1.0), st.integers(0, 10_000))
def test_mix_preserves_simplex(c, lam, seed):
    rng = np.random.default_rng(seed)
    a = rng.dirichlet(np.ones(c))
    b = rng.dirichlet(np.ones(c))
    mixed = mix(a, b, lam)
    assert np.all(mixed >= 0)
    assert abs(mixed.sum() - 1.0) < 1e-12


def test_one_hot_mix_of_same_class_is_exact():
    a = one_hot(np.array([2]), 4)[0]
    for lam in (0.0, 0.25, 0.3777, 1.0):
        assert np.array_equal(mix(a, a, lam), a)


def test_build_pseudo_labels_confident_node():
    probs = np.array([[0.95, 0.05], [0.6, 0.4]])
    dpl = build_pseudo_labels(probs, np.array([], dtype=np.int64).reshape(0), gamma=0.9)
    np.testing.assert_array_equal(dpl.ids, [0])
    np.testing.assert_array_equal(dpl.labels, [0])


def test_build_pseudo_labels_excludes_labeled():
    probs = np.array([[1.0, 0.0], [0.95, 0.05]])
    dpl = build_pseudo_labels(probs, np.array([0]), gamma=0.9)
    np.testing.assert_array_equal(dpl.ids, [1])


def test_build_pseudo_labels_threshold_inclusive_tie_low_class():
    probs = np.array([[0.5, 0.5]])
    dpl = build_pseudo_labels(probs, np.zeros(0, dtype=np.int64), gamma=0.5)
    assert len(dpl) == 1
    assert dpl.labels[0] == 0  # exact tie resolves to the lowest class index


def test_build_pseudo_labels_empty_result_allowed():
    probs = np.array([[0.6, 0.4]])
    dpl = build_pseudo_labels(probs, np.zeros(0, dtype=np.int64), gamma=0.9)
    assert len(dpl) == 0


def test_compute_nld_direct_average():
    # Node 0's neighbors including itself carry labels 0, 0, 1.
    g = add_self_loops(from_edges(3, np.array([[0, 1], [0, 2]])))
    ybar = one_hot(np.array([0, 0, 1]), 2)
    q = compute_nld(g, ybar)
    np.testing.assert_allclose(q[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_compute_nld_same_class_neighbors_one_hot():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    ybar = one_hot(np.array([1, 1, 1]), 3)
    q = compute_nld(g, ybar)
    np.testing.assert_array_equal(q, one_hot(np.array([1, 1, 1]), 3))


def test_compute_nld_rows_sum_to_one(rng):
    ds = generate_sbm(3, 15, 0.3, 0.05, 5, 0.5, seed=2)
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    q = compute_nld(g, one_hot(ds.labels, 3))
    np.testing.assert_allclose(q.sum(axis=1), np.ones(ds.num_nodes), atol=1e-9)


def test_compute_nld_counts_the_self_loop():
    # Node 2 is isolated: its self-loop is its one neighbor, so its row is
    # its own label rather than a zero row.
    g = add_self_loops(from_edges(3, np.array([[0, 1]])))
    ybar = one_hot(np.array([0, 1, 1]), 2)
    q = compute_nld(g, ybar)
    np.testing.assert_array_equal(q, [[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])


def test_sharpen_tau_one_identity():
    q = np.array([[0.3, 0.2, 0.5]])
    np.testing.assert_allclose(sharpen(q, 1.0), q, atol=1e-15)


def test_sharpen_uniform_fixed_point():
    q = np.full((1, 4), 0.25)
    for tau in (1.0, 0.5, 0.1):
        np.testing.assert_allclose(sharpen(q, tau), q, atol=1e-15)


def test_sharpen_hand_value():
    # (0.8, 0.2) at tau = 1/2: squares (0.64, 0.04) normalized by 0.68.
    out = sharpen(np.array([[0.8, 0.2]]), 0.5)
    np.testing.assert_allclose(out, [[0.64 / 0.68, 0.04 / 0.68]], atol=1e-12)


def test_sharpen_keeps_zeros_zero():
    out = sharpen(np.array([[0.0, 1.0]]), 0.5)
    np.testing.assert_array_equal(out, [[0.0, 1.0]])


def test_sharpen_zero_row_unchanged():
    out = sharpen(np.zeros((1, 3)), 0.5)
    np.testing.assert_array_equal(out, np.zeros((1, 3)))


def test_nld_similarity_identical_is_one():
    q = np.array([[0.3, 0.7]])
    assert nld_similarity(q, q)[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_nld_similarity_disjoint_supports_zero():
    assert nld_similarity(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0, 0] == 0.0


def test_nld_similarity_hand_value():
    s = nld_similarity(np.array([[1.0, 0.0]]), np.array([[0.5, 0.5], [1.0, 0.0], [0.0, 1.0]]))
    np.testing.assert_allclose(s, [[1.0 / np.sqrt(2.0), 1.0, 0.0]], atol=1e-12, rtol=0)


def test_nld_similarity_zero_norm_errors():
    with pytest.raises(ValueError, match="zero"):
        nld_similarity(np.zeros((1, 2)), np.array([[1.0, 0.0]]))


def test_sampling_weight_hand_value():
    for same, expected in ((True, np.e / 2.0), (False, np.exp(-1.0) / 2.0)):
        w = sampling_weights(same, np.array([1.0]), np.array([1]), 1.0, 1.0)[0]
        assert w == pytest.approx(expected, abs=1e-12)


def test_sampling_weight_zero_similarity_both_branches():
    for same in (True, False):
        w = sampling_weights(same, np.zeros(1), np.array([3]), 2.0, 0.5)[0]
        assert w == pytest.approx(1.0 / 2.5, abs=1e-12)


def test_sampling_weights_multiply_by_degree_reciprocal():
    # The pairs drawn depend on the exact bits of the weights; dividing by
    # 1 + beta_d * d instead rounds differently on over a quarter of them.
    rng = np.random.default_rng(0)
    s, d = rng.random((4, 250)), rng.integers(0, 50, 250)
    for same, sign in ((True, 1.0), (False, -1.0)):
        expected = np.exp(sign * 0.7 * s) * (1.0 / (1.0 + 1.3 * d))
        assert np.array_equal(sampling_weights(same, s, d, 0.7, 1.3), expected)


@pytest.mark.parametrize("beta_s, beta_d", [(0.0, 1.3), (0.7, 0.0), (0, 0)], ids=["nld-off", "degree-off", "both-off"])
def test_a_zero_beta_in_a_config_file_switches_its_factor_off(tmp_path, beta_s, beta_d):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mixup": {"beta_s": beta_s, "beta_d": beta_d}}))
    cfg = load_config(str(config)).mixup
    assert (cfg.beta_s, cfg.beta_d) == (beta_s, beta_d)
    rng = np.random.default_rng(0)
    s, d = rng.random((4, 250)), rng.integers(0, 50, 250)
    for same, sign in ((True, 1.0), (False, -1.0)):
        if beta_s:  # the NLD factor alone
            expected = np.exp(sign * beta_s * s)
        elif beta_d:  # the degree factor alone, the same in every row
            expected = np.broadcast_to(1.0 / (1.0 + beta_d * d), s.shape)
        else:
            expected = np.ones(s.shape)
        assert np.array_equal(sampling_weights(same, s, d, cfg.beta_s, cfg.beta_d), expected)


def test_sampling_weight_decreases_with_degree():
    w = sampling_weights(True, np.full(5, 0.7), np.arange(5), 1.0, 1.0)
    assert np.all(np.diff(w) < 0)


def fixed_pools():
    """One labeled node (class 0) plus five candidates with crafted NLD rows.

    Sharpening with tau=0.5 squares-and-normalizes, which keeps one-hot rows
    and the uniform row fixed, so similarities to the labeled node's (1, 0)
    stay hand-computable: 1, 0 for the same-class pool and 1, 0, 1/sqrt(2)
    for the different-class pool.
    """
    q = np.array([
        [1.0, 0.0],  # labeled node 0
        [1.0, 0.0],  # candidate, class 0, s = 1
        [0.0, 1.0],  # candidate, class 0, s = 0
        [1.0, 0.0],  # candidate, class 1, s = 1
        [0.0, 1.0],  # candidate, class 1, s = 0
        [0.5, 0.5],  # candidate, class 1, s = 1/sqrt(2)
    ])
    labels = np.array([0, 0, 0, 1, 1, 1])
    dpl = PseudoLabelSet(ids=np.array([1, 2, 3, 4, 5]), labels=np.array([0, 0, 1, 1, 1]))
    labeled = np.array([0])
    degrees = np.ones(6, dtype=np.int64)
    cfg = MixupConfig(beta_s=1.0, beta_d=1.0, tau=0.5, gamma=0.5, alpha=1.0)
    return labeled, labels, dpl, q, cfg, degrees


def test_sample_pairs_empty_dpl_gives_empty_assignment():
    labeled, labels, _, q, cfg, degrees = fixed_pools()
    empty = PseudoLabelSet(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    rng = np.random.default_rng(0)
    pairs = sample_pairs(labeled, labels, empty, q, cfg, degrees, rng, rng)
    assert pairs.intra_targets.size == 0 and pairs.inter_targets.size == 0


def test_sample_pairs_single_candidate_always_chosen():
    labeled, labels, _, q, cfg, degrees = fixed_pools()
    dpl = PseudoLabelSet(np.array([1]), np.array([0]))
    rng = np.random.default_rng(0)
    pairs = sample_pairs(labeled, labels, dpl, q, cfg, degrees, rng, rng)
    np.testing.assert_array_equal(pairs.intra_partners, [1])
    assert pairs.inter_targets.size == 0  # no different-class candidates


def test_sample_pairs_deterministic_and_valid():
    labeled, labels, dpl, q, cfg, degrees = fixed_pools()
    a = sample_pairs(labeled, labels, dpl, q, cfg, degrees, substream(3, "pairs"), substream(3, "lambda"))
    b = sample_pairs(labeled, labels, dpl, q, cfg, degrees, substream(3, "pairs"), substream(3, "lambda"))
    np.testing.assert_array_equal(a.intra_partners, b.intra_partners)
    np.testing.assert_array_equal(a.inter_partners, b.inter_partners)
    np.testing.assert_array_equal(a.intra_lams, b.intra_lams)
    assert 0.0 <= a.intra_lams.min() and a.intra_lams.max() <= 1.0
    assert a.intra_partner_labels[0] == 0 and a.inter_partner_labels[0] == 1


def test_sample_pairs_never_picks_labeled_partner():
    labeled, labels, dpl, q, cfg, degrees = fixed_pools()
    rng = np.random.default_rng(5)
    for _ in range(50):
        pairs = sample_pairs(labeled, labels, dpl, q, cfg, degrees, rng, rng)
        assert 0 not in pairs.intra_partners
        assert 0 not in pairs.inter_partners


def test_sample_pairs_rejects_labeled_candidates():
    labeled, labels, dpl, q, cfg, degrees = fixed_pools()
    bad = PseudoLabelSet(np.array([0, 1]), np.array([0, 0]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unlabeled"):
        sample_pairs(labeled, labels, bad, q, cfg, degrees, rng, rng)


def test_sample_pairs_empirical_ratio_e_to_one():
    # Same-class pool has weights proportional to (e, 1): equal degrees cancel.
    labeled, labels, dpl, q, cfg, degrees = fixed_pools()
    rng = np.random.default_rng(11)
    draws = 20_000
    picks = np.zeros(2)
    for _ in range(draws):
        pairs = sample_pairs(labeled, labels, dpl, q, cfg, degrees, rng, rng)
        picks[int(pairs.intra_partners[0]) - 1] += 1
    p = np.e / (np.e + 1.0)
    sigma = np.sqrt(draws * p * (1 - p))
    assert abs(picks[0] - draws * p) <= 4 * sigma


@pytest.mark.parametrize("candidates", [None, ([1], [0]), ([3], [1])], ids=["both-pools", "same-class", "different"])
def test_sample_pairs_refuses_weights_that_overflow_or_vanish(candidates):
    """At beta_s = 1000, the same-class weight exp(beta_s * s) of a candidate
    with s = 1 overflows to inf, and its different-class weight
    exp(-beta_s * s) underflows to 0. A draw over a pool of such weights
    would pick its first candidate every time, so it raises instead, without
    a numpy warning (warnings are errors in this suite)."""
    labeled, labels, dpl, q, _, degrees = fixed_pools()
    dpl = dpl if candidates is None else PseudoLabelSet(*map(np.array, candidates))
    cfg = MixupConfig(beta_s=1000, tau=0.5, gamma=0.5)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="beta_s=1000 and beta_d=1.0 make the sampling weights of a class-0 pool"):
        sample_pairs(labeled, labels, dpl, q, cfg, degrees, rng, rng)


def test_alpha_zero_lambda_is_coin_flip():
    labeled, labels, dpl, q, _, degrees = fixed_pools()
    cfg = MixupConfig(beta_s=1.0, beta_d=1.0, tau=0.5, gamma=0.5, alpha=0.0)
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(50):
        pairs = sample_pairs(labeled, labels, dpl, q, cfg, degrees, rng, rng)
        seen.update(pairs.intra_lams.tolist())
    assert seen <= {0.0, 1.0} and len(seen) == 2


def sbm_with_pairs(seed=0, dtype=np.float32):
    """The pairs of one ``trainer.refresh`` under a model that predicts every
    node's class with confidence 1 - 2e-9."""
    ds = generate_sbm(3, 20, 0.35, 0.03, 8, 0.6, seed=seed, labels_per_class=4, valid_per_class=4)
    inputs = build_operators(ds, dtype)
    probs = np.full((ds.num_nodes, 3), 1e-9)
    probs[np.arange(ds.num_nodes), ds.labels] = 1.0 - 2e-9
    cfg = MixupConfig()
    pairs = refresh(inputs, np.log(probs), cfg, substream(seed, "pairs"), substream(seed, "lambda")).pairs
    return ds, inputs, cfg, pairs


def test_build_batches_class_consistency_and_simplex():
    ds, inputs, _, pairs = sbm_with_pairs()
    batches = build_batches(inputs, pairs)
    assert np.all(ds.labels[pairs.intra_targets] == pairs.intra_partner_labels)
    assert np.all(ds.labels[pairs.inter_targets] != pairs.inter_partner_labels)
    np.testing.assert_allclose(batches.intra.targets.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(batches.inter.targets.sum(axis=1), 1.0, atol=1e-12)


def test_build_batches_lambda_one_degenerates_to_originals():
    # At lambda 1 the same-class term holds the supervised term's operators,
    # byte for byte: S X and the mixed A_hat come back sorted, in their dtype.
    ds, inputs, _, pairs = sbm_with_pairs()
    ones = PairAssignment(
        pairs.intra_targets, pairs.intra_partners, pairs.intra_partner_labels,
        np.ones_like(pairs.intra_lams),
        pairs.inter_targets, pairs.inter_partners, pairs.inter_partner_labels,
        np.ones_like(pairs.inter_lams),
    )
    batches = build_batches(inputs, ones)
    assert_same_csr(batches.intra.features, inputs.features, "features")
    assert_same_csr(batches.intra.adjacency, inputs.a_norm, "adjacency")
    np.testing.assert_array_equal(batches.intra.targets, one_hot(ds.labels, 3))


def test_build_batches_identical_rows_fixed_point():
    ds, _, _, pairs = sbm_with_pairs()
    t, p = int(pairs.intra_targets[0]), int(pairs.intra_partners[0])
    features = ds.features.copy()
    features[p] = features[t]
    from dataclasses import replace

    inputs = build_operators(replace(ds, features=features))
    batches = build_batches(inputs, pairs)
    # lam*x + (1-lam)*x re-rounds each product, so equality holds to ~1 ulp.
    np.testing.assert_allclose(batches.intra.features.toarray()[t], inputs.features.toarray()[t], rtol=1e-14, atol=0)


def test_build_batches_single_pair_matches_dense_oracle():
    # 3-node path, labeled node 0 mixed with node 2 at lambda 0.5.
    ds = Dataset(
        np.array([[0, 1], [1, 2]]),
        np.array([[1.0, 0.0], [0.0, 1.0], [4.0, 2.0]]),
        np.array([0, 1, 0]),
        SplitSpec([0], [1], [2]),
    )
    a_loops = add_self_loops(from_edges(3, ds.edges))
    pairs = PairAssignment(
        np.array([0]), np.array([2]), np.array([0]), np.array([0.5]),
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros(0),
    )
    batches = build_batches(build_operators(ds), pairs)
    assert batches.inter is None
    np.testing.assert_allclose(batches.intra.features.toarray()[0], [2.5, 1.0], atol=1e-15)
    expected = dense_mix(a_loops.toarray(), [0], [2], [0.5])
    d = expected.sum(axis=1) ** -0.5
    np.testing.assert_allclose(batches.intra.adjacency.toarray(), d[:, None] * expected * d, atol=1e-12)


@pytest.mark.parametrize("empty", [None, "intra", "inter"])
def test_build_batches_builds_each_selector_once(monkeypatch, empty):
    """All mixing goes through ``MixSelector.mixed_rows``, and only for a
    branch with pairs: the same-class branch through three ``apply`` calls
    (S X, then S A and S (S A)^T in ``mix_adjacency``), the different-class
    branch through one ``mixed_rows`` of its k pair rows. A branch without
    pairs mixes nothing and has no term."""
    from dataclasses import replace

    ds, inputs, _, pairs = sbm_with_pairs()
    if empty:
        names = [f"{empty}_{f}" for f in ("targets", "partners", "partner_labels", "lams")]
        pairs = replace(pairs, **{name: getattr(pairs, name)[:0] for name in names})
    calls = {"apply": 0, "mixed_rows": 0}
    for name in calls:
        def counted(self, m, mix=getattr(MixSelector, name), name=name):
            calls[name] += 1
            return mix(self, m)
        monkeypatch.setattr(MixSelector, name, counted)
    batches = build_batches(inputs, pairs)
    intra, inter = int(empty != "intra"), int(empty != "inter")
    assert calls == {"apply": 3 * intra, "mixed_rows": 3 * intra + inter}
    assert (batches.intra is None) == (empty == "intra")
    assert (batches.inter is None) == (empty == "inter")
    if batches.intra is not None:
        assert batches.intra.features.shape == (ds.num_nodes, ds.num_features)
        assert batches.intra.weights is inputs.labeled_weights
    if batches.inter is not None:
        k = pairs.inter_targets.size
        assert batches.inter.features.shape == (k, ds.num_features) and batches.inter.adjacency is None
        np.testing.assert_array_equal(batches.inter.weights, np.ones(k))


def test_same_class_features_keep_every_non_target_row_of_x():
    # A stored -0.0 and a feature that rounds to a float32 zero, both in rows
    # that are not targets: S X keeps them where the supervised term has them,
    # so input dropout draws over the same pattern there.
    ds = generate_sbm(3, 4, 0.6, 0.1, 4, 0.5, seed=0, labels_per_class=1, valid_per_class=1)
    labeled = set(ds.split.labeled_ids)
    t = int(ds.split.labeled_ids[0])
    p = next(i for i in range(ds.num_nodes) if i not in labeled and ds.labels[i] == ds.labels[t])
    q = next(i for i in range(ds.num_nodes) if i not in labeled and i != p)
    features = ds.features.copy()
    features[p, 0], features[q, 1] = -0.0, 1e-50
    from dataclasses import replace

    inputs = build_operators(replace(ds, features=features))
    assert inputs.features.nnz == ds.num_nodes * ds.num_features  # both zeros stored
    none = np.zeros(0, dtype=np.int64)
    pairs = PairAssignment(np.array([t]), np.array([p]), ds.labels[[t]], np.array([0.25]),
                           none, none, none, np.zeros(0))
    got, want = build_batches(inputs, pairs).intra.features, inputs.features
    for i in sorted(set(range(ds.num_nodes)) - {t}):
        for name in ("indices", "data"):
            a, b = (getattr(x, name)[x.indptr[i]:x.indptr[i + 1]] for x in (got, want))
            assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), f"row {i} {name}"


def test_build_batches_rejects_mismatched_intra_pair():
    ds, inputs, _, pairs = sbm_with_pairs()
    bad = PairAssignment(
        pairs.intra_targets, pairs.intra_partners,
        (pairs.intra_partner_labels + 1) % 3, pairs.intra_lams,
        pairs.inter_targets, pairs.inter_partners, pairs.inter_partner_labels, pairs.inter_lams,
    )
    with pytest.raises(ValueError, match="intra"):
        build_batches(inputs, bad)


@pytest.mark.parametrize("branch, fault, message", [
    ("intra", "unlabeled target", "intra targets must be labeled"),
    ("inter", "unlabeled target", "inter targets must be labeled"),
    ("intra", "labeled partner", "intra partners must be unlabeled"),
    ("inter", "labeled partner", "inter partners must be unlabeled"),
    ("inter", "matching classes", "inter pair with matching classes"),
    ("intra", "partner-label length", "intra pair arrays have inconsistent lengths"),
    ("inter", "partner-label length", "inter pair arrays have inconsistent lengths"),
])
def test_build_batches_rejects_each_broken_pair(branch, fault, message):
    from dataclasses import replace

    ds, inputs, _, pairs = sbm_with_pairs()
    names = [f"{branch}_{f}" for f in ("targets", "partners", "partner_labels", "lams")]
    t, p, y, lam = (getattr(pairs, name).copy() for name in names)
    assert t.size >= 2
    if fault == "unlabeled target":
        t[0] = np.setdiff1d(np.arange(ds.num_nodes), np.concatenate([ds.split.labeled_ids, p]))[0]
    elif fault == "labeled partner":
        # Drop the first pair so its target is labeled but no longer a target
        # (the selector itself rejects a partner that is also a target).
        dropped = t[0]
        t, p, y, lam = t[1:], p[1:], y[1:], lam[1:]
        p[0] = dropped
    elif fault == "matching classes":
        y[0] = ds.labels[t[0]]
    else:
        y = y[:-1]
    bad = replace(pairs, **dict(zip(names, (t, p, y, lam))))
    with pytest.raises(ValueError, match=message):
        build_batches(inputs, bad)


def test_loss_zero_lambdas_equals_supervised_bitwise():
    ds, inputs, _, pairs = sbm_with_pairs()
    cfg0 = MixupConfig(lambda_intra=0.0, lambda_inter=0.0)
    batches = build_batches(inputs, pairs)
    params = init_params(ds.num_features, 8, 3, substream(0, "init")).astype(np.float32)
    parts, grads = loss_and_grads(params, inputs, batches, cfg0)
    base_parts, base_grads = loss_and_grads(params, inputs, None, cfg0)
    assert parts.total == base_parts.supervised == parts.supervised
    for name in grads:
        np.testing.assert_array_equal(grads[name], base_grads[name])


def test_disabling_a_branch_leaves_the_other_terms_bitwise():
    """Each term draws dropout from its own stream, so a lambda at 0 changes
    no other term's loss by a bit."""
    from dataclasses import replace

    ds, inputs, cfg, pairs = sbm_with_pairs()
    batches = build_batches(inputs, pairs)
    params = init_params(ds.num_features, 8, 3, substream(0, "init")).astype(np.float32)

    def parts(**lambdas):
        rngs = {name: substream(5, f"dropout/{name}") for name in ("gnn", "intra", "inter")}
        return loss_and_grads(params, inputs, batches, replace(cfg, **lambdas), dropout=0.5, train=True,
                              rngs=rngs)[0]

    both, no_inter, no_intra = parts(), parts(lambda_inter=0.0), parts(lambda_intra=0.0)
    assert both.intra > 0.0 and both.inter > 0.0
    assert (no_inter.supervised, no_inter.intra, no_inter.inter) == (both.supervised, both.intra, 0.0)
    assert (no_intra.supervised, no_intra.intra, no_intra.inter) == (both.supervised, 0.0, both.inter)


def test_loss_empty_batches_equals_supervised():
    ds, inputs, cfg, _ = sbm_with_pairs()
    params = init_params(ds.num_features, 8, 3, substream(0, "init")).astype(np.float32)
    parts, _ = loss_and_grads(params, inputs, None, cfg)
    assert parts.total == parts.supervised
    assert parts.intra == 0.0 and parts.inter == 0.0


def test_loss_lambda_one_draws_reproduce_supervised_value():
    ds, inputs, cfg, pairs = sbm_with_pairs()
    ones = PairAssignment(
        pairs.intra_targets, pairs.intra_partners, pairs.intra_partner_labels,
        np.ones_like(pairs.intra_lams),
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
        np.zeros(0, dtype=np.int64), np.zeros(0),
    )
    batches = build_batches(inputs, ones)
    params = init_params(ds.num_features, 8, 3, substream(1, "init")).astype(np.float32)
    parts, _ = loss_and_grads(params, inputs, batches, cfg)
    # Same inputs, same adjacency, same mask: the intra term IS the supervised term.
    assert parts.intra == parts.supervised


@pytest.mark.parametrize("lambda_intra,lambda_inter", [(1.0, 1.0), (0.5, 1.5), (0.0, 1.0), (1.0, 0.0)])
def test_total_loss_gradient_matches_finite_differences(lambda_intra, lambda_inter):
    from dataclasses import replace

    _, inputs, cfg, pairs = sbm_with_pairs(seed=4, dtype=np.float64)
    batches = build_batches(inputs, pairs)
    assert batches.intra is not None and batches.inter is not None
    cfg = replace(cfg, lambda_intra=lambda_intra, lambda_inter=lambda_inter)
    max_rel, checked, skipped = gradient_check(inputs, init_params(8, 5, 3, substream(2, "init")), batches, cfg,
                                               eps=1e-6)
    assert (checked, skipped) == (8 * 5 + 5 + 5 * 3 + 3, 0)
    assert max_rel < 1e-5


def test_a_mixup_step_stays_in_float32(monkeypatch):
    """Every large array of a training step is float32: both terms'
    operators, the gradient fed to backward, the gradients, Adam's moments
    and the updated parameters. A float64 operand anywhere would upcast
    every product after it."""
    ds, inputs, cfg, pairs = sbm_with_pairs()
    batches = build_batches(inputs, pairs)
    assert batches.inter.adjacency is None
    for array in (batches.intra.features, batches.intra.adjacency, batches.inter.features):
        assert array.dtype == np.float32
    fed = []

    def recorded(trace, dlogits):
        fed.append(dlogits.dtype)
        return backward(trace, dlogits)

    monkeypatch.setattr(mixup, "backward", recorded)
    params = init_params(ds.num_features, 8, 3, substream(0, "init")).astype(np.float32)
    state = adam_init(params, 0.01, weight_decay={"w1": 5e-4})
    rngs = {name: substream(0, f"dropout/{name}") for name in ("gnn", "intra", "inter")}
    _, grads = loss_and_grads(params, inputs, batches, cfg, dropout=0.5, train=True, rngs=rngs)
    adam_step(params, grads, state)
    assert fed == [np.float32] * 3
    float32 = dict.fromkeys(PARAM_NAMES, np.dtype(np.float32))
    for arrays in (grads, state.m, state.v, params.as_dict()):
        assert {name: arr.dtype for name, arr in arrays.items()} == float32


def test_mixup_config_validation():
    with pytest.raises(ValueError):
        MixupConfig(lambda_intra=1.6)
    with pytest.raises(ValueError):
        MixupConfig(gamma=0.0)
    with pytest.raises(ValueError):
        MixupConfig(tau=1.5)
    for name in ("beta_s", "beta_d"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            MixupConfig(**{name: -0.5})
        with pytest.raises(ValueError, match=f"^{name} must be >= 0"):
            MixupConfig(**{name: float("nan")})
    with pytest.raises(ValueError):
        MixupConfig(refresh_every=0)
    cfg = MixupConfig()
    assert MixupConfig.from_dict(cfg.to_dict()) == cfg
