"""Behavioral invariants of the training loop on the pinned fixture; these
reuse the session benchmark grid where possible."""

import copy

import numpy as np

from coalign import model as M
from coalign import evaluation, objectives, trainer
from coalign.data import natural_batches
from coalign.numerics import mean_entropy, sgd_momentum_step
from conftest import FIXTURE_SEEDS, fixture_config, grid_mean


def test_minimax_step_directions_on_fixture():
    """Averaged over batches, a classifier-only update raises the batch
    entropy and an extractor-only update lowers it."""
    cfg = fixture_config("coal", 1, 100.0)
    source, tgt_train, _, _, _ = trainer.resolve_datasets(cfg)
    params = M.init_model(2, cfg.hidden_dims, 4, temperature=cfg.temperature, seed=1)
    trainer.pretrain(params, source, cfg)
    for epoch in range(3):
        trainer.run_coal_epoch(params, source, tgt_train, cfg, epoch)

    deltas_c, deltas_f = [], []
    head_lrs = {b.name: (0.01 if b.name == "prototypes" else 0.0) for b in params.all_blocks()}
    feat_lrs = {
        b.name: (0.001 if not b.name.startswith(("prototypes", "domain")) else 0.0)
        for b in params.all_blocks()
    }
    for batch in natural_batches(tgt_train, cfg.batch_size, seed=9)[:20]:
        x = tgt_train.features[batch]

        def batch_entropy():
            return mean_entropy(M.forward_full(params, x).probs)[0]

        snapshot = [b.value.copy() for b in params.all_blocks()]
        h0 = batch_entropy()
        for lrs, sink in ((head_lrs, deltas_c), (feat_lrs, deltas_f)):
            params.zero_grads()
            objectives.entropy_objective(params, x, cfg.alpha)
            sgd_momentum_step(params.all_blocks(), lrs, 0.0)
            sink.append(batch_entropy() - h0)
            for b, v in zip(params.all_blocks(), snapshot):
                b.value[...] = v
                b.momentum[...] = 0.0
    assert np.mean(deltas_c) > 0.0
    assert np.mean(deltas_f) < 0.0


def test_pseudo_label_accuracy_trend(benchmark_grid):
    """Selected pseudo labels are at least as accurate late in adaptation as
    early (mean over the fixture seeds)."""
    early, late = [], []
    for seed in FIXTURE_SEEDS:
        report = benchmark_grid[("coal", 100.0, seed)]
        adapt = [r for r in report.metrics["epochs"] if r["phase"] == "adapt"]
        early.append(adapt[1]["masked_pseudo_accuracy"])
        late.append(adapt[25]["masked_pseudo_accuracy"])
    assert np.mean(late) >= np.mean(early)


def test_discriminator_accuracy_trends_toward_chance(benchmark_grid):
    """Adversarial training drives the domain discriminator's batch accuracy
    toward 0.5 (mean over seeds, first epoch vs last five)."""
    gaps_first, gaps_last = [], []
    for seed in FIXTURE_SEEDS:
        report = benchmark_grid[("marginal-align", 100.0, seed)]
        accs = [r["domain_discriminator_accuracy"] for r in report.metrics["epochs"]
                if r["phase"] == "adapt"]
        gaps_first.append(abs(accs[0] - 0.5))
        gaps_last.append(abs(np.mean(accs[-5:]) - 0.5))
    assert np.mean(gaps_last) < np.mean(gaps_first)


def test_marginal_alignment_helps_without_label_shift(benchmark_grid):
    """At degree 0 (no label shift) the adversarial baseline is at least as
    good as source-only; the damage appears only under label shift."""
    assert grid_mean(benchmark_grid, "marginal-align", 0.0) >= grid_mean(
        benchmark_grid, "source-only", 0.0)


def test_estimated_target_distribution_tracks_truth(benchmark_grid):
    """The final pseudo-label distribution estimate lands closer to the true
    target distribution than the source distribution is."""
    for seed in FIXTURE_SEEDS:
        report = benchmark_grid[("coal", 100.0, seed)]
        js_est = report.metrics["final"]["estimated_vs_true_js_distance"]
        true_dist = np.asarray(report.metrics["true_target_distribution"])
        source_dist = true_dist[::-1]  # reversed ranking by construction
        assert js_est < evaluation.js_distance(source_dist, true_dist)
