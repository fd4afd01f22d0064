import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dense_mix
from reachmix.graphalg import MixSelector, add_self_loops, from_edges, sym_normalize
from reachmix.graphio import Dataset, SplitSpec, generate_sbm
from reachmix.mixup import (
    MixupConfig,
    NLDTable,
    PairAssignment,
    PseudoLabelSet,
    build_batches,
    build_pseudo_labels,
    compute_nld,
    loss_and_grads,
    nld_similarity,
    one_hot,
    sample_pairs,
    sampling_weights,
    sharpen,
)
from reachmix.nn import init_params
from reachmix.seeding import substream
from reachmix.trainer import build_operators


def mix(a, b, lam):
    """Row 0 of S Z for the selector that mixes node 0 with partner node 1,
    where Z stacks the rows a and b: the production mix of ``build_batches``."""
    z = np.stack([np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)])
    return (MixSelector(2, [0], [1], [lam]).matrix() @ z)[0]


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
    nld = compute_nld(g, ybar)
    np.testing.assert_allclose(nld.q[0], [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_compute_nld_same_class_neighbors_one_hot():
    g = add_self_loops(from_edges(3, np.array([[0, 1], [1, 2]])))
    ybar = one_hot(np.array([1, 1, 1]), 3)
    nld = compute_nld(g, ybar)
    np.testing.assert_array_equal(nld.q, one_hot(np.array([1, 1, 1]), 3))


def test_compute_nld_rows_sum_to_one(rng):
    ds = generate_sbm(3, 15, 0.3, 0.05, 5, 0.5, seed=2)
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    nld = compute_nld(g, one_hot(ds.labels, 3))
    np.testing.assert_allclose(nld.q.sum(axis=1), np.ones(ds.num_nodes), atol=1e-9)


def test_compute_nld_counts_the_self_loop():
    # Node 2 is isolated: its self-loop is its one neighbor, so its row is
    # its own label rather than a zero row.
    g = add_self_loops(from_edges(3, np.array([[0, 1]])))
    ybar = one_hot(np.array([0, 1, 1]), 2)
    q = compute_nld(g, ybar).q
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
    ybar = one_hot(np.array([0, 0, 0, 1, 1, 1]), 2)
    nld = NLDTable(q, ybar)
    dpl = PseudoLabelSet(ids=np.array([1, 2, 3, 4, 5]), labels=np.array([0, 0, 1, 1, 1]))
    labeled = np.array([0])
    degrees = np.ones(6, dtype=np.int64)
    cfg = MixupConfig(beta_s=1.0, beta_d=1.0, tau=0.5, gamma=0.5, alpha=1.0)
    return labeled, dpl, nld, cfg, degrees


def test_sample_pairs_empty_dpl_gives_empty_assignment():
    labeled, _, nld, cfg, degrees = fixed_pools()
    empty = PseudoLabelSet(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    rng = np.random.default_rng(0)
    pairs = sample_pairs(labeled, empty, nld, cfg, degrees, rng, rng)
    assert pairs.intra_targets.size == 0 and pairs.inter_targets.size == 0


def test_sample_pairs_single_candidate_always_chosen():
    labeled, _, nld, cfg, degrees = fixed_pools()
    dpl = PseudoLabelSet(np.array([1]), np.array([0]))
    rng = np.random.default_rng(0)
    pairs = sample_pairs(labeled, dpl, nld, cfg, degrees, rng, rng)
    np.testing.assert_array_equal(pairs.intra_partners, [1])
    assert pairs.inter_targets.size == 0  # no different-class candidates


def test_sample_pairs_deterministic_and_valid():
    labeled, dpl, nld, cfg, degrees = fixed_pools()
    a = sample_pairs(labeled, dpl, nld, cfg, degrees, substream(3, "pairs"), substream(3, "lambda"))
    b = sample_pairs(labeled, dpl, nld, cfg, degrees, substream(3, "pairs"), substream(3, "lambda"))
    np.testing.assert_array_equal(a.intra_partners, b.intra_partners)
    np.testing.assert_array_equal(a.inter_partners, b.inter_partners)
    np.testing.assert_array_equal(a.intra_lams, b.intra_lams)
    assert 0.0 <= a.intra_lams.min() and a.intra_lams.max() <= 1.0
    assert a.intra_partner_labels[0] == 0 and a.inter_partner_labels[0] == 1


def test_sample_pairs_never_picks_labeled_partner():
    labeled, dpl, nld, cfg, degrees = fixed_pools()
    rng = np.random.default_rng(5)
    for _ in range(50):
        pairs = sample_pairs(labeled, dpl, nld, cfg, degrees, rng, rng)
        assert 0 not in pairs.intra_partners
        assert 0 not in pairs.inter_partners


def test_sample_pairs_rejects_labeled_candidates():
    labeled, dpl, nld, cfg, degrees = fixed_pools()
    bad = PseudoLabelSet(np.array([0, 1]), np.array([0, 0]))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unlabeled"):
        sample_pairs(labeled, bad, nld, cfg, degrees, rng, rng)


def test_sample_pairs_empirical_ratio_e_to_one():
    # Same-class pool has weights proportional to (e, 1): equal degrees cancel.
    labeled, dpl, nld, cfg, degrees = fixed_pools()
    rng = np.random.default_rng(11)
    draws = 20_000
    picks = np.zeros(2)
    for _ in range(draws):
        pairs = sample_pairs(labeled, dpl, nld, cfg, degrees, rng, rng)
        picks[int(pairs.intra_partners[0]) - 1] += 1
    p = np.e / (np.e + 1.0)
    sigma = np.sqrt(draws * p * (1 - p))
    assert abs(picks[0] - draws * p) <= 4 * sigma


def test_alpha_zero_lambda_is_coin_flip():
    labeled, dpl, nld, _, degrees = fixed_pools()
    cfg = MixupConfig(beta_s=1.0, beta_d=1.0, tau=0.5, gamma=0.5, alpha=0.0)
    rng = np.random.default_rng(1)
    seen = set()
    for _ in range(50):
        pairs = sample_pairs(labeled, dpl, nld, cfg, degrees, rng, rng)
        seen.update(pairs.intra_lams.tolist())
    assert seen <= {0.0, 1.0} and len(seen) == 2


def sbm_with_pairs(seed=0):
    ds = generate_sbm(3, 20, 0.35, 0.03, 8, 0.6, seed=seed, labels_per_class=4, valid_per_class=4)
    inputs = build_operators(ds)
    probs = np.full((ds.num_nodes, 3), 1e-9)
    probs[np.arange(ds.num_nodes), ds.labels] = 1.0 - 2e-9
    dpl = build_pseudo_labels(probs, ds.split.labeled_ids, gamma=0.9)
    nld = compute_nld(inputs.adjacency, one_hot(ds.labels, 3))
    cfg = MixupConfig()
    pairs = sample_pairs(ds.split.labeled_ids, dpl, nld, cfg, inputs.degrees,
                         substream(seed, "pairs"), substream(seed, "lambda"))
    return ds, inputs, cfg, pairs


def test_build_batches_class_consistency_and_simplex():
    ds, inputs, _, pairs = sbm_with_pairs()
    batches = build_batches(inputs, pairs)
    assert np.all(ds.labels[pairs.intra_targets] == pairs.intra_partner_labels)
    assert np.all(ds.labels[pairs.inter_targets] != pairs.inter_partner_labels)
    np.testing.assert_allclose(batches.intra_targets.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(batches.inter_targets.sum(axis=1), 1.0, atol=1e-12)


def test_build_batches_lambda_one_degenerates_to_originals():
    ds, inputs, _, pairs = sbm_with_pairs()
    ones = PairAssignment(
        pairs.intra_targets, pairs.intra_partners, pairs.intra_partner_labels,
        np.ones_like(pairs.intra_lams),
        pairs.inter_targets, pairs.inter_partners, pairs.inter_partner_labels,
        np.ones_like(pairs.inter_lams),
    )
    batches = build_batches(inputs, ones)
    np.testing.assert_array_equal(batches.intra_features.toarray(), ds.features)
    np.testing.assert_array_equal(batches.intra_targets, one_hot(ds.labels, 3))
    np.testing.assert_array_equal(batches.adjacency_mixed_norm.toarray(),
                                  sym_normalize(inputs.adjacency).toarray())


def test_build_batches_identical_rows_fixed_point():
    ds, _, _, pairs = sbm_with_pairs()
    t, p = int(pairs.intra_targets[0]), int(pairs.intra_partners[0])
    features = ds.features.copy()
    features[p] = features[t]
    from dataclasses import replace

    ds2 = replace(ds, features=features)
    batches = build_batches(build_operators(ds2), pairs)
    # lam*x + (1-lam)*x re-rounds each product, so equality holds to ~1 ulp.
    np.testing.assert_allclose(batches.intra_features.toarray()[t], features[t], rtol=1e-14, atol=0)


def test_build_batches_single_pair_matches_dense_oracle():
    # 3-node path, labeled node 0 mixed with node 2 at lambda 0.5.
    ds = Dataset(
        3, 2, np.array([[0, 1], [1, 2]]),
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
    np.testing.assert_allclose(batches.intra_features.toarray()[0], [2.5, 1.0], atol=1e-15)
    expected = dense_mix(a_loops.toarray(), [0], [2], [0.5])
    d = expected.sum(axis=1) ** -0.5
    np.testing.assert_allclose(batches.adjacency_mixed_norm.toarray(), d[:, None] * expected * d, atol=1e-12)


@pytest.mark.parametrize("empty", [None, "intra", "inter"])
def test_build_batches_builds_each_selector_once(monkeypatch, empty):
    """One refresh builds the n x n selector once, and only for a same-class
    branch with pairs; the different-class branch builds its k pair rows
    alone, a 0 x n matrix when it has no pairs."""
    from dataclasses import replace

    ds, inputs, _, pairs = sbm_with_pairs()
    if empty:
        names = [f"{empty}_{f}" for f in ("targets", "partners", "partner_labels", "lams")]
        pairs = replace(pairs, **{name: getattr(pairs, name)[:0] for name in names})
    built = {"matrix": 0, "pair_rows": 0}
    for name in built:
        def counted(self, build=getattr(MixSelector, name), name=name):
            built[name] += 1
            return build(self)
        monkeypatch.setattr(MixSelector, name, counted)
    batches = build_batches(inputs, pairs)
    assert built == {"matrix": int(empty != "intra"), "pair_rows": 1}
    assert batches.has_intra == (empty != "intra")
    assert batches.has_inter == (empty != "inter")
    assert batches.inter_features.shape == (pairs.inter_targets.size, ds.num_features)


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
    params = init_params(ds.num_features, 8, 3, substream(0, "init"))
    parts, grads = loss_and_grads(params, inputs, batches, cfg0)
    base_parts, base_grads = loss_and_grads(params, inputs, None, cfg0)
    assert parts.total == base_parts.supervised == parts.supervised
    for name in grads:
        np.testing.assert_array_equal(grads[name], base_grads[name])


def test_loss_empty_batches_equals_supervised():
    ds, inputs, cfg, _ = sbm_with_pairs()
    params = init_params(ds.num_features, 8, 3, substream(0, "init"))
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
    params = init_params(ds.num_features, 8, 3, substream(1, "init"))
    parts, _ = loss_and_grads(params, inputs, batches, cfg)
    # Same inputs, same adjacency, same mask: the intra term IS the supervised term.
    assert parts.intra == parts.supervised


def test_total_loss_gradient_matches_finite_differences():
    ds, inputs, cfg, pairs = sbm_with_pairs(seed=4)
    batches = build_batches(inputs, pairs)
    params = init_params(ds.num_features, 5, 3, substream(2, "init"))
    _, grads = loss_and_grads(params, inputs, batches, cfg)
    eps = 1e-6
    max_rel = 0.0
    for name, arr in params.as_dict().items():
        flat = arr.reshape(-1)
        idx = np.linspace(0, flat.size - 1, min(10, flat.size), dtype=int)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + eps
            up, _ = loss_and_grads(params, inputs, batches, cfg)
            flat[j] = orig - eps
            down, _ = loss_and_grads(params, inputs, batches, cfg)
            flat[j] = orig
            numeric = (up.total - down.total) / (2 * eps)
            a = grads[name].reshape(-1)[j]
            max_rel = max(max_rel, abs(a - numeric) / max(abs(a), abs(numeric), 1e-6))
    assert max_rel < 1e-5


def test_mixup_config_validation():
    with pytest.raises(ValueError):
        MixupConfig(lambda_intra=1.6)
    with pytest.raises(ValueError):
        MixupConfig(gamma=0.0)
    with pytest.raises(ValueError):
        MixupConfig(tau=1.5)
    with pytest.raises(ValueError):
        MixupConfig(beta_s=0.0)
    with pytest.raises(ValueError):
        MixupConfig(refresh_every=0)
    cfg = MixupConfig()
    assert MixupConfig.from_dict(cfg.to_dict()) == cfg
