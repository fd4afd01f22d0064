"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criteria 6 and 7 evaluate accuracy bands and figure trends on the Cora
citation graph; they require the dataset in the documented text format (see
README: `reachmix convert-cora`) at $REACHMIX_CORA_DIR or ./data/cora and
skip with an explicit message when it is absent. Criterion 8 is the
self-contained synthetic stand-in and always runs.
"""

import json
import time

import numpy as np
import pytest
import scipy.stats

from conftest import cora_directory, dense_bfs, dense_mix, random_graph_edges
from reachmix.cli import main as cli_main
from reachmix.diagnostics import (
    avg_sp_by_degree,
    cka,
    cka_by_bucket,
    pearson_rc_vs_score,
    rc_buckets,
    reaching_coefficient,
)
from reachmix.graphalg import MixSelector, add_self_loops, from_edges, mix_adjacency
from reachmix.graphio import generate_sbm, load_dataset, make_split, with_split
from reachmix.mixup import (
    MixupConfig,
    NLDTable,
    PseudoLabelSet,
    build_batches,
    build_pseudo_labels,
    compute_nld,
    loss_and_grads,
    one_hot,
    sample_pairs,
)
from reachmix.nn import gradient_check, init_params
from reachmix.seeding import substream
from reachmix.trainer import TrainConfig, build_operators, train_multi, train_one

CORA_DIR = cora_directory()
requires_cora = pytest.mark.skipif(
    CORA_DIR is None,
    reason="Cora dataset not found: set REACHMIX_CORA_DIR or place it at ./data/cora "
    "(convert a raw dump with `reachmix convert-cora`)",
)


def report(num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_1_gradient_correctness(capsys):
    start = time.monotonic()
    ds = generate_sbm(2, 4, 0.9, 0.3, 5, 0.5, seed=0, labels_per_class=2, valid_per_class=1)
    assert ds.num_nodes == 8
    params = init_params(ds.num_features, 6, ds.num_classes, substream(0, "gradcheck"))
    max_rel, checked, skipped = gradient_check(build_operators(ds), params, eps=1e-5)
    cli_code = cli_main(["gradcheck", "--eps", "1e-5", "--threshold", "1e-5"])
    elapsed = time.monotonic() - start
    with capsys.disabled():
        report(
            1, "gradient correctness", max_rel < 1e-5 and cli_code == 0 and elapsed < 5.0,
            f"max_rel={max_rel:.2e} checked={checked} skipped={skipped} elapsed={elapsed:.2f}s",
        )


def test_criterion_2_mixup_algebra(capsys):
    def mix(z, lam, target=0, partner=1):
        # The production mix: row ``target`` of S Z for a one-pair selector.
        return (MixSelector(z.shape[0], [target], [partner], [lam]).matrix() @ z)[target]

    rng = np.random.default_rng(0)
    ok = True
    for _ in range(200):
        z = rng.standard_normal((2, 5))
        lam = float(rng.random())
        ok &= np.array_equal(mix(z, 1.0), z[0])  # lambda = 1 identity, bitwise
        ok &= np.array_equal(mix(z, 0.0), z[1])  # lambda = 0 identity, bitwise
        ok &= np.max(np.abs(mix(z, lam) - mix(z, 1.0 - lam, target=1, partner=0))) < 1e-12
        mixed = mix(rng.dirichlet(np.ones(5), size=2), lam)
        ok &= bool(np.all(mixed >= 0)) and abs(mixed.sum() - 1.0) < 1e-12

    # Objective degeneration: zero lambdas reduce the total to the supervised
    # term bitwise, gradients included.
    ds = generate_sbm(3, 15, 0.3, 0.05, 6, 0.5, seed=1, labels_per_class=3, valid_per_class=3)
    inputs = build_operators(ds)
    probs = np.full((ds.num_nodes, 3), 0.05)
    probs[np.arange(ds.num_nodes), ds.labels] = 0.9
    dpl = build_pseudo_labels(probs, ds.split.labeled_ids, gamma=0.5)
    nld = compute_nld(inputs.adjacency, one_hot(ds.labels, 3))
    cfg0 = MixupConfig(lambda_intra=0.0, lambda_inter=0.0)
    pair_rng = substream(0, "pairs")
    pairs = sample_pairs(ds.split.labeled_ids, dpl, nld, cfg0, inputs.degrees, pair_rng, pair_rng)
    batches = build_batches(inputs, pairs)
    params = init_params(ds.num_features, 8, 3, substream(0, "init"))
    parts, grads = loss_and_grads(params, inputs, batches, cfg0)
    base_parts, base_grads = loss_and_grads(params, inputs, None, cfg0)
    ok &= parts.total == parts.supervised == base_parts.total
    ok &= all(np.array_equal(grads[k], base_grads[k]) for k in grads)
    with capsys.disabled():
        report(2, "mixup algebra (identities, simplex, degeneration)", bool(ok))


def test_criterion_3_adjacency_mixing_oracle(capsys):
    rng = np.random.default_rng(7)
    trials = 0
    worst = 0.0
    symmetric = True
    while trials < 200:
        n = int(rng.integers(3, 13))
        edges = random_graph_edges(rng, n)
        if edges.size == 0:
            continue
        g = add_self_loops(from_edges(n, edges))
        k = int(rng.integers(1, max(2, n // 2)))
        perm = rng.permutation(n)
        targets, partners = perm[:k], perm[k:2 * k]
        if partners.size < k:
            continue
        lams = rng.random(k)
        mixed = mix_adjacency(g, MixSelector(n, targets, partners, lams).matrix())
        expected = dense_mix(g.to_dense(), targets, partners, lams)
        worst = max(worst, float(np.max(np.abs(mixed.to_dense() - expected))))
        try:
            mixed.validate()  # compares A with A^T entry by entry
        except ValueError:
            symmetric = False
        trials += 1
    with capsys.disabled():
        report(
            3, "adjacency mixing matches dense S A S^T oracle",
            worst < 1e-12 and symmetric, f"200 graphs, max_abs_err={worst:.2e}",
        )


def test_criterion_4_sampling_distribution_chi_squared(capsys):
    # One labeled node of class 0; candidate pools with hand-set NLD rows and
    # equal degrees. Same-class weights are (e^1, e^0); different-class
    # weights (e^-1, e^0, e^-1/sqrt(2)), all over the common degree factor.
    q = np.array([
        [1.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [0.5, 0.5],
    ])
    nld = NLDTable(q, one_hot(np.array([0, 0, 0, 1, 1, 1]), 2))
    dpl = PseudoLabelSet(np.array([1, 2, 3, 4, 5]), np.array([0, 0, 1, 1, 1]))
    labeled = np.array([0])
    degrees = np.ones(6, dtype=np.int64)
    cfg = MixupConfig(beta_s=1.0, beta_d=1.0, tau=0.5, gamma=0.5)
    rng = substream(99, "pairs")

    draws = 100_000
    intra_counts = np.zeros(2)
    inter_counts = np.zeros(3)
    for _ in range(draws):
        pairs = sample_pairs(labeled, dpl, nld, cfg, degrees, rng, rng)
        intra_counts[int(pairs.intra_partners[0]) - 1] += 1
        inter_counts[int(pairs.inter_partners[0]) - 3] += 1

    w_intra = np.exp(np.array([1.0, 0.0])) / 2.0
    w_inter = np.exp(-np.array([1.0, 0.0, 1.0 / np.sqrt(2.0)])) / 2.0
    p_intra = scipy.stats.chisquare(intra_counts, draws * w_intra / w_intra.sum()).pvalue
    p_inter = scipy.stats.chisquare(inter_counts, draws * w_inter / w_inter.sum()).pvalue
    with capsys.disabled():
        report(
            4, "pair sampling matches normalized weights",
            p_intra > 0.001 and p_inter > 0.001,
            f"chi2 p_intra={p_intra:.3f} p_inter={p_inter:.3f} at {draws} draws",
        )


def test_criterion_5_diagnostics_self_consistency(capsys):
    rng = np.random.default_rng(3)
    ok = True
    detail = []

    # CKA: self-similarity and invariances.
    for _ in range(20):
        z = rng.standard_normal((18, 5))
        ok &= abs(cka(z, z) - 1.0) < 1e-10
        qmat, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        ok &= abs(cka(z, z @ qmat) - 1.0) < 1e-10
        ok &= abs(cka(z, -3.3 * z) - 1.0) < 1e-10
        w = rng.standard_normal((18, 5))
        ok &= abs(cka(z, 2.5 * w) - cka(z, w)) < 1e-10
    detail.append("cka invariances ok")

    # Reaching coefficient: exact path-graph values.
    g = from_edges(3, np.array([[0, 1], [1, 2]]))
    rc = reaching_coefficient(g, [0])
    ok &= rc.rc[0] == 1.0 and rc.rc[1] == 0.0
    detail.append(f"path RC=({rc.rc[0]}, {rc.rc[1]})")

    # Brute-force equivalence on random graphs up to 50 nodes.
    worst = 0.0
    done = 0
    while done < 25:
        n = int(rng.integers(5, 51))
        g = from_edges(n, random_graph_edges(rng, n, p=0.08))
        labeled = rng.choice(n, size=int(rng.integers(1, max(2, n // 4))), replace=False)
        try:
            rep = reaching_coefficient(g, labeled)
        except ValueError:
            continue
        dense = g.to_dense()
        for pos, i in enumerate(rep.node_ids):
            terms = []
            for j in sorted(set(int(v) for v in labeled)):
                d = dense_bfs(dense, [j])[i]
                d = rep.diameter if np.isinf(d) else d
                terms.append(1.0 - np.log(d) / np.log(rep.diameter))
            worst = max(worst, abs(rep.rc[pos] - np.mean(terms)))
        done += 1
    ok &= worst < 1e-12
    detail.append(f"brute-force max err {worst:.1e}")
    with capsys.disabled():
        report(5, "diagnostics self-consistency", bool(ok), "; ".join(detail))


def _cora_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return TrainConfig.from_dict(json.load(fh))


@requires_cora
def test_criterion_6_cora_accuracy_bands(capsys):
    import os

    start = time.monotonic()
    ds = load_dataset(CORA_DIR)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    base_cfg = _cora_config(os.path.join(root, "configs", "cora_baseline.json"))
    mix_cfg = _cora_config(os.path.join(root, "configs", "cora_mixup.json"))
    base = train_multi(ds, base_cfg)
    mixed = train_multi(ds, mix_cfg)
    elapsed = time.monotonic() - start
    base_pct = 100.0 * base.mean
    mix_pct = 100.0 * mixed.mean
    gain = mix_pct - base_pct
    ok = (
        80.0 <= base_pct <= 82.5
        and 82.3 <= mix_pct <= 84.5
        and gain >= 0.8
        and elapsed < 1800.0
    )
    with capsys.disabled():
        report(
            6, "Cora accuracy bands",
            ok,
            f"baseline={base_pct:.2f}+-{100 * base.std:.2f} mixup={mix_pct:.2f}+-{100 * mixed.std:.2f} "
            f"gain={gain:+.2f} elapsed={elapsed:.0f}s",
        )


@requires_cora
def test_criterion_7_cora_figure_trends(capsys):
    ds = load_dataset(CORA_DIR)
    g = add_self_loops(from_edges(ds.num_nodes, ds.edges))
    detail = []

    # (a) lower-degree nodes sit farther from the labeled set.
    sp = avg_sp_by_degree(g, ds.split.labeled_ids)
    rho = scipy.stats.spearmanr(sp.degrees, sp.avg_sp).statistic
    ok_a = rho < 0.0
    detail.append(f"spearman(degree, avg_sp)={rho:.3f}")

    # (b) true-class score correlates positively with RC on resampled splits.
    quick = TrainConfig(max_epochs=200, patience=30)
    positives = 0
    for t in (5, 10, 15):
        resampled = with_split(ds, make_split(ds, t, 30, seed=100 + t))
        inputs = build_operators(resampled)
        outcome = train_one(inputs, quick, seed=0)
        rc = reaching_coefficient(g, resampled.split.labeled_ids)
        r, _ = pearson_rc_vs_score(outcome.params, inputs, rc)
        positives += int(r > 0.0)
        detail.append(f"T={t}: r={r:.3f}")
    ok_b = positives >= 2

    # (c) representation alignment grows from the least to the most reachable bucket.
    inputs = build_operators(ds)
    outcome = train_one(inputs, quick, seed=0)
    rc = reaching_coefficient(g, ds.split.labeled_ids)
    buckets = rc_buckets(rc)
    ckar = cka_by_bucket(outcome.params, inputs, buckets, sample_seed=0)
    lo, hi = ckar.values[0], ckar.values[4]
    ok_c = lo is not None and hi is not None and hi >= lo
    detail.append(f"cka I={lo if lo is None else round(lo, 3)} V={hi if hi is None else round(hi, 3)}")
    with capsys.disabled():
        report(7, "Cora figure trends", ok_a and ok_b and ok_c, "; ".join(detail))


def test_criterion_8_synthetic_fallback(capsys):
    # Frozen scenario (measured once: baseline 0.9846, mixup 0.9882 over the
    # same 10 seeds). The -0.5 point bound is the regression guard; feature
    # and schedule settings were fixed when the bound was measured.
    ds = generate_sbm(4, 200, 0.05, 0.005, feature_dim=32, feature_noise=0.5, seed=20)
    ds = with_split(ds, make_split(ds, 5, 25, seed=20))
    seeds = tuple(range(10))
    base_cfg = TrainConfig(max_epochs=200, patience=50, seeds=seeds)
    mix_cfg = TrainConfig(
        max_epochs=200, patience=50, seeds=seeds, mixup_enabled=True,
        mixup=MixupConfig(gamma=0.4, warmup_epochs=8),
    )

    refreshes = 0
    inactive = 0
    def hook(epoch, dpl, pairs, batches):
        nonlocal refreshes, inactive
        refreshes += 1
        # build_batches already enforced the structural invariants; re-check
        # the class constraints against the dataset here.
        assert np.all(ds.labels[pairs.intra_targets] == pairs.intra_partner_labels)
        assert np.all(ds.labels[pairs.inter_targets] != pairs.inter_partner_labels)
        if batches.has_intra:
            assert np.all(np.abs(batches.intra_targets.sum(axis=1) - 1.0) < 1e-9)
        if batches.has_inter:
            assert np.all(np.abs(batches.inter_targets.sum(axis=1) - 1.0) < 1e-9)
        if pairs.intra_targets.size == 0 or pairs.inter_targets.size == 0:
            inactive += 1

    base = train_multi(ds, base_cfg)
    mix_accs = []
    inputs = build_operators(ds)
    for seed in seeds:
        outcome = train_one(inputs, mix_cfg, seed, on_refresh=hook)
        mix_accs.append(outcome.test_acc)
    mix_mean = float(np.mean(mix_accs))
    gain_pts = 100.0 * (mix_mean - base.mean)
    ok = gain_pts >= -0.5 and refreshes > 0 and inactive == 0
    with capsys.disabled():
        report(
            8, "synthetic fallback pipeline",
            ok,
            f"baseline={100 * base.mean:.2f} mixup={100 * mix_mean:.2f} gain={gain_pts:+.2f}pts "
            f"refreshes={refreshes} inactive={inactive}",
        )


def test_criterion_9_cli_determinism(tmp_path, capsys):
    data = tmp_path / "data"
    cli_main([
        "synth", "--classes", "3", "--per-class", "15", "--p-in", "0.3", "--p-out", "0.02",
        "--feature-dim", "6", "--noise", "0.8", "--seed", "4",
        "--labels-per-class", "3", "--valid-per-class", "3", "--out", str(data),
    ])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "hidden": 16, "max_epochs": 20, "patience": 20, "seeds": [0, 1],
        "mixup_enabled": True, "mixup": {"warmup_epochs": 4, "gamma": 0.5},
    }))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli_main(["train", "--data", str(data), "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    identical = True
    for fname in ("metrics_seed0.tsv", "metrics_seed1.tsv", "summary.json"):
        a = (outs[0] / fname).read_bytes()
        b = (outs[1] / fname).read_bytes()
        identical &= a == b
    with capsys.disabled():
        report(9, "deterministic training outputs", identical)
