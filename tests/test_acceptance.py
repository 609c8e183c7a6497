"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -rA`.

Criteria 5-7 and 9 consume the session-scoped benchmark grid from conftest (the
pinned twin-Gaussian fixture: 4 classes, 30-degree rotation, ~2000 samples
per run, seeds 1-3).
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import reference
from coalign import data as D
from coalign import model as M
from coalign import objectives, selftrain, trainer
from coalign.evaluation import compare_distributions, js_distance, per_class_mean_accuracy
from coalign.numerics import mean_entropy
from conftest import FIXTURE_SEEDS, final_accuracy, fixture_config, grid_mean


def report_line(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


def test_criterion_1_gradient_suite():
    """Finite differences confirm the analytic gradients of the supervised
    loss, the entropy, the self-training loss, and the combined adaptive
    routing, both of the per-term references and of the stacked
    coal_objective that training runs, at relative error < 1e-4 over 20
    seeds, in under 30 s."""
    start = time.perf_counter()
    alpha = 0.1
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        params = M.init_model(3, (8, 6), 4, temperature=0.3, seed=seed)
        src_x = rng.normal(size=(8, 3))
        src_y = rng.integers(0, 4, 8)
        tgt_x = rng.normal(size=(8, 3))
        pseudo = rng.integers(0, 4, 8)
        mask = (rng.random(8) > 0.4).astype(np.float64)
        trainable = params.extractor_blocks() + [params.prototypes]
        both = np.vstack([src_x, tgt_x])

        def signature():
            return reference.relu_signature(params, both)

        def supervised():
            params.arena.zero_grad()
            return objectives.source_classification_loss(params, src_x, src_y)["l_sc"]

        def entropy_plain():
            params.arena.zero_grad()
            cache = M.forward_full(params, tgt_x)
            h, d_logits = mean_entropy(cache.probs)
            M.backward_extractor(params, cache, M.backward_head(params, cache, d_logits, d_logits))
            return h

        def self_training():
            params.arena.zero_grad()
            return reference.self_training_loss(params, src_x, src_y, tgt_x, pseudo, mask)[0]

        def adaptive(sign):
            def loss():
                params.arena.zero_grad()
                l_st = reference.self_training_loss(params, src_x, src_y, tgt_x, pseudo, mask)[0]
                l_h = reference.entropy_objective(params, tgt_x, alpha)
                return l_st + sign * alpha * l_h
            return loss

        def stacked(sign):
            def loss():
                params.arena.zero_grad()
                got = objectives.coal_objective(params, src_x, src_y, tgt_x, pseudo, mask, alpha)
                return got["l_st"] + sign * alpha * got["l_h"]
            return loss

        checks = [
            (supervised, trainable),
            (entropy_plain, trainable),
            (self_training, trainable),
            (adaptive(-1.0), [params.prototypes]),
            (adaptive(+1.0), params.extractor_blocks()),
            (stacked(-1.0), [params.prototypes]),
            (stacked(+1.0), params.extractor_blocks()),
        ]
        for loss_fn, blocks in checks:
            errs = reference.finite_difference_check(
                loss_fn, blocks, h=1e-5, rng=np.random.default_rng(seed + 1000),
                max_coords=8, kink_signature=signature)
            worst = max(worst, max(errs.values()))
    elapsed = time.perf_counter() - start
    report_line(1, worst < 1e-4 and elapsed < 30.0,
                f"gradient suite worst rel err {worst:.2e} (<1e-4), {elapsed:.1f}s (<30s)")


def test_criterion_2_reversal_contract():
    """Entropy routing: classifier gradients are exactly -alpha times the
    naive gradients and extractor gradients exactly +alpha times."""
    rng = np.random.default_rng(99)
    alpha = 0.1
    params = M.init_model(2, (16, 8), 4, temperature=0.3, seed=5)
    tgt_x = rng.normal(size=(12, 2))

    cache = M.forward_full(params, tgt_x)
    _, d_logits = mean_entropy(cache.probs)
    M.backward_extractor(params, cache, M.backward_head(params, cache, d_logits, d_logits))
    naive = {b.name: b.grad.copy() for b in params.all_blocks()}
    params.arena.zero_grad()
    reference.entropy_objective(params, tgt_x, alpha)

    c_ok = np.array_equal(params.prototypes.grad, -alpha * naive["prototypes"])
    f_ok = all(
        np.array_equal(b.grad, alpha * naive[b.name]) for b in params.extractor_blocks()
    )
    report_line(2, c_ok and f_ok,
                "classifier grads == -alpha x naive and extractor grads == +alpha x naive, bitwise")


def brute_force_select(labels, confidence, k, num_classes):
    mask = [0] * len(labels)
    for cls in range(num_classes):
        members = [i for i in range(len(labels)) if labels[i] == cls]
        if k <= 0 or not members:
            continue
        if float(k).is_integer():
            quota = (int(k) * len(members) + 99) // 100
        else:
            quota = math.ceil(k * len(members) / 100.0)
        for i in sorted(members, key=lambda i: (-confidence[i], i))[:quota]:
            mask[i] = 1
    return np.asarray(mask)


def test_criterion_3_selection_oracle_and_schedule():
    """select_top_k_per_class matches an independent per-class sort on 200
    random instances (ties included); the default k schedule is 5+5e capped
    at 30 on epochs 0..10."""
    rng = np.random.default_rng(7)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(1, 80))
        c = int(rng.integers(2, 7))
        labels = rng.integers(0, c, n)
        confidence = rng.random(n)
        if trial % 2 == 0:
            confidence = np.round(confidence, 1)  # force ties
        k = float(rng.choice([0.0, 5.0, 10.0, 12.5, 25.0, 30.0, 50.0, 100.0]))
        ours = selftrain.select_top_k_per_class(labels, confidence, k, c).mask
        if not np.array_equal(ours, brute_force_select(labels, confidence, k, c)):
            mismatches += 1
    schedule = {"k0": 5, "k_step": 5, "k_max": 30}
    expected = [5, 10, 15, 20, 25, 30, 30, 30, 30, 30, 30]
    schedule_ok = [selftrain.advance_k(schedule, e) for e in range(11)] == expected
    report_line(3, mismatches == 0 and schedule_ok,
                f"{200 - mismatches}/200 oracle matches; k(0..10) == {expected}")


def test_criterion_4_shift_protocol():
    """Exact (80,20)/(20,80) for the two-class full shift; realized-vs-
    requested JS within the largest-remainder bound for every generated
    spec; total count preserved across degrees."""
    rng = np.random.default_rng(13)
    pool2 = D.LabeledDataset(
        rng.normal(size=(400, 2)), np.repeat([0, 1], 200), 2)
    full = {"pareto_alpha": 1.0, "degree": 100.0, "budget": 100, "seed": 0}
    ut = D.build_shift(pool2, {**full, "direction": D.DIRECTION_TARGET})
    rs = D.build_shift(pool2, {**full, "direction": D.DIRECTION_SOURCE})
    counts_ok = ut.class_counts().tolist() == [80, 20] and rs.class_counts().tolist() == [20, 80]

    js_ok = True
    totals_ok = True
    for _ in range(40):
        c = int(rng.integers(2, 8))
        budget = int(rng.integers(60, 400))
        degree = float(rng.choice([0, 20, 40, 60, 80, 100]))
        direction = str(rng.choice([D.DIRECTION_SOURCE, D.DIRECTION_TARGET]))
        shift = {"pareto_alpha": float(rng.uniform(0.2, 3.0)), "direction": direction,
                 "degree": degree, "budget": budget, "min_per_class": 0, "seed": 1}
        requested = D.shift_proportions(c, shift)
        if (np.floor(requested * budget) < 1).any():
            continue
        pool = D.LabeledDataset(
            rng.normal(size=(c * budget, 2)), np.repeat(np.arange(c), budget), c)
        shifted = D.build_shift(pool, shift)
        totals_ok &= len(shifted) == budget
        realized = shifted.class_counts() / budget
        bound = np.sqrt(np.log(2) * min(1.0, c / (2.0 * budget)))
        js_ok &= js_distance(realized, requested) <= bound
    for degree in (0.0, 20.0, 40.0, 60.0, 80.0, 100.0):
        shift = {"pareto_alpha": 1.0, "direction": D.DIRECTION_TARGET, "degree": degree,
                 "budget": 100, "seed": 2}
        totals_ok &= len(D.build_shift(pool2, shift)) == 100
    report_line(4, counts_ok and js_ok and totals_ok,
                "counts (80,20)/(20,80); realized JS within rounding bound; totals invariant")


def test_criterion_5_shift_phenomenology(benchmark_grid):
    """On the pinned fixture: (a) marginal alignment underperforms
    source-only at full shift, (b) the co-alignment method beats source-only
    by at least 5 points, (c) its accuracy drop across shift degrees is
    strictly smaller than the marginal baseline's."""
    src0 = grid_mean(benchmark_grid, "source-only", 0.0)
    src100 = grid_mean(benchmark_grid, "source-only", 100.0)
    coal0 = grid_mean(benchmark_grid, "coal", 0.0)
    coal100 = grid_mean(benchmark_grid, "coal", 100.0)
    ma0 = grid_mean(benchmark_grid, "marginal-align", 0.0)
    ma100 = grid_mean(benchmark_grid, "marginal-align", 100.0)

    a = ma100 < src100
    b = coal100 >= src100 + 0.05
    c = (coal0 - coal100) < (ma0 - ma100)
    slowest = max(
        report.timing["wall_time_s"]
        for key, report in benchmark_grid.items()
        if key.split("/")[0] in ("source-only", "coal", "marginal-align")
    )
    report_line(
        5, a and b and c and slowest < 300.0,
        f"(a) marginal {ma100:.3f} < source {src100:.3f}; "
        f"(b) coal {coal100:.3f} >= source+5pts {src100 + 0.05:.3f}; "
        f"(c) coal drop {coal0 - coal100:+.3f} < marginal drop {ma0 - ma100:+.3f}; "
        f"slowest run {slowest:.1f}s (<300s)",
    )


def test_criterion_6_ablation_direction_and_exactness(benchmark_grid, tmp_path):
    """Full model >= each single ablation in mean accuracy over 3 seeds;
    with both terms disabled the updates are bit-identical to source-only."""
    full = grid_mean(benchmark_grid, "coal", 100.0)
    no_pseudo = grid_mean(benchmark_grid, "disable-pseudo-term", 100.0)
    no_entropy = grid_mean(benchmark_grid, "disable-entropy-term", 100.0)
    direction_ok = full >= no_pseudo and full >= no_entropy

    both = fixture_config("coal", 1, 100.0, epochs=4,
                          ablations=("disable-pseudo-term", "disable-entropy-term"),
                          out_dir=str(tmp_path / "both"))
    src = fixture_config("source-only", 1, 100.0, epochs=4, out_dir=str(tmp_path / "src"))
    trainer.run_experiment(both)
    trainer.run_experiment(src)
    blocks_a = json.loads((tmp_path / "both" / "checkpoint.json").read_text())["arena"]
    blocks_b = json.loads((tmp_path / "src" / "checkpoint.json").read_text())["arena"]
    exact_ok = blocks_a == blocks_b
    report_line(6, direction_ok and exact_ok,
                f"full {full:.3f} >= no-pseudo {no_pseudo:.3f} and >= no-entropy {no_entropy:.3f}; "
                f"double ablation bit-identical to source-only: {exact_ok}")


def test_criterion_7_balanced_sampler_study(sampler_grid):
    """With an 80/20-imbalanced source, the balanced sampler beats natural
    sampling for source-only training, averaged over 3 seeds."""
    balanced = float(np.mean([final_accuracy(sampler_grid[f"balanced/s{s}"]) for s in FIXTURE_SEEDS]))
    natural = float(np.mean([final_accuracy(sampler_grid[f"natural/s{s}"]) for s in FIXTURE_SEEDS]))
    report_line(7, balanced > natural,
                f"balanced sampler {balanced:.3f} > natural sampler {natural:.3f}")


def test_criterion_8_metric_unit_values():
    """Hand-computed per-class vs overall divergence; closed-form JS
    distance for disjoint one-hots."""
    cm = np.array([[90, 10], [9, 1]])
    per_class = per_class_mean_accuracy(cm)
    overall = cm.trace() / cm.sum()
    metric_ok = per_class == pytest.approx(0.5, abs=1e-12) and overall == pytest.approx(91 / 110, abs=1e-12)
    js = compare_distributions(np.array([1.0, 0.0]), np.array([0.0, 1.0]))["js_distance"]
    js_ok = js == pytest.approx(np.sqrt(np.log(2)), abs=1e-12)
    report_line(8, metric_ok and js_ok,
                f"per-class 0.5 vs overall {overall:.3f}; disjoint JS distance sqrt(ln 2)")


def test_criterion_9_reproducibility(benchmark_grid, tmp_path):
    """The same train invocation run twice in one process yields a
    byte-identical report.json metrics payload; the pinned grid's coal run,
    which writes its artifacts, is the first of the two."""
    trainer.run_experiment(fixture_config("coal", 1, 100.0, out_dir=str(tmp_path)))
    payloads = []
    for out_dir in (benchmark_grid["coal/d100/s1"].config["out_dir"], tmp_path):
        doc = json.loads((Path(out_dir) / "report.json").read_text())
        payloads.append(json.dumps(doc["metrics"], sort_keys=True).encode())
    report_line(9, payloads[0] == payloads[1],
                f"metrics payloads byte-identical ({len(payloads[0])} bytes)")
