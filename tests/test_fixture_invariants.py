"""Behavioral invariants of the training loop on the pinned fixture; these
reuse the session benchmark grid where possible."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from coalign import model as M
from coalign import cli, evaluation, trainer
from coalign.data import natural_batches
from coalign.numerics import mean_entropy, sgd_momentum_step
from conftest import BENCHMARK_CONFIG, FIXTURE_SEEDS, REPO, fixture_config, grid_mean
from pinned_hashes import LEDGER


def test_pinned_outputs_match_the_ledger(ledger):
    """Every session-fixture run's metrics and every pinned artifact, eval
    output and split hash as the committed ledger holds; a failure names
    each line that moved, is missing or is extra."""
    committed, lines = LEDGER.read_text().splitlines(), ledger
    expected, actual = ({name: digest for digest, name in (line.split("  ", 1) for line in side[1:])}
                        for side in (committed, lines))
    changes = ([f"moved {name}" for name in expected if name in actual and actual[name] != expected[name]]
               + [f"missing {name}" for name in expected if name not in actual]
               + [f"extra {name}" for name in actual if name not in expected])
    assert lines == committed, (
        f"{len(changes)} of {len(committed) - 1} lines differ from {LEDGER.name} (written with "
        f"{committed[0][2:]}; this run has {lines[0][2:]}): {', '.join(changes)}")



def test_readme_grid_table_is_rendered_from_the_benchmark_grid(benchmark_grid):
    """README's table of the grid's 24 runs is ``render_table``'s markdown
    of the session's ``benchmark_grid``, byte for byte; it trains nothing."""
    table = evaluation.render_table([r.to_dict() for r in benchmark_grid.values()], "markdown")
    assert f"\n```\n{table}```\n" in (REPO / "README.md").read_text(), table


@pytest.mark.usefixtures("ledger")
def test_readme_wide_table_is_rendered_from_the_ledger_runs(pinned_root):
    """README's per-epoch table of the ledger's ``wide`` runs holds each
    run's holdout ``per_class_mean_accuracy`` per epoch to three digits, as
    the ledger test trained them."""
    rows = [[method] + [f"{epoch['per_class_mean_accuracy']:.3f}".lstrip("0") for epoch in json.loads(
        (pinned_root / "wide" / method / "report.json").read_text())["metrics"]["epochs"]]
        for method in ("coal", "marginal-align")]
    header = ["epoch", *range(len(rows[0]) - 1)]
    table = "".join(f"| {' | '.join(map(str, row))} |\n"
                    for row in (header, ["---"] * len(header), *rows))
    assert f"\n{table}\n" in (REPO / "README.md").read_text(), table


@pytest.mark.usefixtures("ledger")
def test_readme_wide_collapse_is_read_from_the_ledger_dumps(pinned_root):
    """README's account of the ``wide/coal`` collapse, rendered from the
    pseudo-label dumps of the first two adaptation epochs and the report's
    ``true_target_distribution`` that the ledger test wrote: how many of the
    classes the pseudo-labels on ``target_train`` cover, and the top class's
    share of them and of the target."""
    run = pinned_root / "wide" / "coal"
    dumps = [np.loadtxt(run / f"pseudo_epoch_{epoch:03d}.csv", delimiter=",", skiprows=1,
                        usecols=1, dtype=np.int64) for epoch in (1, 2)]
    true = json.loads((run / "report.json").read_text())["metrics"]["true_target_distribution"]
    covered = [len(np.unique(labels)) for labels in dumps]
    top = np.bincount(dumps[1]).argmax()
    shares = [f"{np.mean(labels == top):.1%}" for labels in dumps]
    sentence = (f"After the first adaptation epoch the model predicts {covered[0]} of the {len(true)} "
                f"classes on `target_train`, and after the second only {covered[1]}. Class {top} "
                f"takes {shares[0]} and then {shares[1]} of the predictions, against its true share "
                f"of {true[top]:.1%}.")
    assert sentence in " ".join((REPO / "README.md").read_text().split()), sentence


def test_every_name_readme_cites_exists():
    """Each ``<path>.py::<name>`` chain, repository path and
    ``coalign.<module>[.<name>]`` that README cites names a class or
    function of that file, a file or directory, or a module attribute."""
    readme = (REPO / "README.md").read_text()
    missing = [path for path in re.findall(r"(?<![\w/.-])((?:src|tests|configs|coalbench)/[\w/.-]*)",
                                           readme) if not (REPO / path.rstrip(".")).exists()]
    for path, names in re.findall(r"((?:src|tests|configs|coalbench)/[\w/.-]*\.py)::([\w:]+)", readme):
        body = ast.parse((REPO / path).read_text()).body if (REPO / path).exists() else []
        for name in names.split("::"):
            body = next((node.body for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                         and node.name == name), None)
            if body is None:
                missing.append(f"{path}::{names}")
                break
    for module, name in re.findall(r"(?<![\w.])coalign\.(\w+)(?:\.(\w+))?", readme):
        try:
            found = hasattr(importlib.import_module(f"coalign.{module}"), name) if name else True
        except ImportError:
            found = False
        if not found:
            missing.append(f"coalign.{module}.{name}".rstrip("."))
    assert not missing, missing

# the values each epoch function's steps return; source-only adapts by pretraining
STEP_VALUES = {"pretrain": {"l_sc"}, "source-only": {"l_sc"},
               "coal": {"l_sc", "l_target_pseudo", "l_st", "l_h"},
               "marginal-align": {"l_sc", "l_domain", "domain_discriminator_accuracy"}}
# what an adaptation record holds besides its epoch, phase, step means and holdout scores
ADAPT_EXTRAS = {"source-only": set(), "marginal-align": set(),
                "coal": {"k", "alpha", "estimated_target_distribution", "masked_pseudo_accuracy"}}
HOLDOUT = {"per_class_mean_accuracy", "overall_accuracy"}


def test_metrics_hold_only_what_each_method_measured(benchmark_grid, sampler_grid):
    """No metric of a session-fixture run is null, and each epoch record,
    step line and final block holds exactly the keys its method computes.
    Each step line holds the values its objective returned, so only a coal
    adaptation line holds ``l_st``, and each epoch record's step-value
    means are the means of that epoch's lines, bit for bit."""
    for report in [*benchmark_grid.values(), *sampler_grid.values()]:
        method = report.config["method"]
        # json writes None as null, and no metric is a string that holds "null"
        assert "null" not in report.metrics_payload()
        for record in report.metrics["epochs"]:
            adapt = record["phase"] == "adapt"
            assert record.keys() == ({"epoch", "phase"} | STEP_VALUES[method if adapt else "pretrain"]
                                     | (ADAPT_EXTRAS[method] if adapt else set()) | HOLDOUT)
        estimate = {"estimated_vs_true_js_distance", "estimated_vs_true_l1"}
        assert report.metrics["final"].keys() == (
            HOLDOUT | {"confusion"} | (estimate if method == "coal" else set()))
        if report.config["out_dir"]:
            log = [json.loads(line) for line in
                   Path(report.config["out_dir"], "metrics.jsonl").read_text().splitlines()]
            for entry in log:
                adapt = entry["phase"] == "adapt"
                assert entry.keys() == {"epoch", "phase", "step"} | STEP_VALUES[
                    method if adapt else "pretrain"]
            for record in report.metrics["epochs"]:
                lines = [entry for entry in log if entry["epoch"] == record["epoch"]]
                assert [entry["step"] for entry in lines] == list(range(len(lines)))
                for key in STEP_VALUES[method if record["phase"] == "adapt" else "pretrain"]:
                    # in step order, as the trainer adds; sum() compensates and gives other bits
                    total = 0.0
                    for entry in lines:
                        total += entry[key]
                    assert record[key] == total / len(lines), (record["epoch"], key)


def _load_conftest_by_path(tmp_path, then: str) -> str:
    """The stdout of a fresh process that loads conftest.py by file path, as
    the benchmark does, with only src/ on sys.path, then runs ``then``."""
    tests = Path(__file__).parent
    code = ("import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('pinned', {str(tests / 'conftest.py')!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n" + then)
    result = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(tests.parent / "src")})
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_conftest_loads_by_path_with_only_src_on_the_path(tmp_path):
    """conftest must import no module of tests/ at top level."""
    assert _load_conftest_by_path(
        tmp_path, "print(module.fixture_config('coal', 1, 100.0).method)") == "coal\n"


def test_conftest_loaded_by_path_imports_no_test_framework(tmp_path):
    """Every benchmark process that reads the pinned configuration loads
    conftest.py, so pytest and hypothesis stay out of its imports."""
    assert _load_conftest_by_path(
        tmp_path, "print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))") == "[]\n"


def test_the_config_file_is_the_pinned_fixture(tmp_path, benchmark_grid):
    """``configs/benchmark.json`` holds every config field in the form
    ``TrainConfig.to_dict`` writes, and ``coalign sweep`` on it trains the
    grid's coal seed-1 runs bit for bit."""
    text = BENCHMARK_CONFIG.read_text()
    doc = trainer.TrainConfig.from_dict(json.loads(text)).to_dict()
    assert json.dumps(doc, indent=2, sort_keys=True) == text
    assert cli.main(["sweep", "--config", str(BENCHMARK_CONFIG), "--degrees", "0,100",
                     "--out-dir", str(tmp_path)]) == 0
    for degree in (0.0, 100.0):
        report = json.loads((tmp_path / f"degree_{degree:g}" / "report.json").read_text())
        assert json.dumps(report["metrics"], sort_keys=True) == \
            benchmark_grid[f"coal/d{degree:g}/s1"].metrics_payload(), degree


def test_minimax_step_directions_on_fixture():
    """Averaged over batches, a classifier-only update raises the batch
    entropy and an extractor-only update lowers it."""
    cfg = fixture_config("coal", 1, 100.0)
    data, _ = trainer.resolve_datasets(cfg)
    tgt_train = data[1]
    params = M.init_model(2, cfg.hidden_dims, 4, temperature=cfg.temperature, seed=1)
    for epoch in range(cfg.pretrain_epochs + 3):
        run_epoch = trainer.pretrain if epoch < cfg.pretrain_epochs else trainer.run_coal_epoch
        run_epoch(params, data, cfg, epoch, [])

    deltas_c, deltas_f = [], []
    for batch in natural_batches(tgt_train, cfg.batch_size, seed=9)[:20]:
        x = tgt_train.features[batch]

        def batch_entropy():
            return mean_entropy(M.forward_full(params, x).probs)[0]

        snapshot = [b.value.copy() for b in params.all_blocks()]
        h0 = batch_entropy()
        for blocks, lr, sink in (([params.prototypes], 0.01, deltas_c),
                                 (params.extractor_blocks(), 0.001, deltas_f)):
            params.arena.zero_grad()
            reference.entropy_objective(params, x, cfg.alpha)
            sgd_momentum_step(blocks, lr, 0.0)
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
        report = benchmark_grid[f"coal/d100/s{seed}"]
        adapt = [r for r in report.metrics["epochs"] if r["phase"] == "adapt"]
        early.append(adapt[1]["masked_pseudo_accuracy"])
        late.append(adapt[25]["masked_pseudo_accuracy"])
    assert np.mean(late) >= np.mean(early)


def test_discriminator_accuracy_trends_toward_chance(benchmark_grid):
    """Adversarial training drives the domain discriminator's batch accuracy
    toward 0.5 (mean over seeds, first epoch vs last five)."""
    gaps_first, gaps_last = [], []
    for seed in FIXTURE_SEEDS:
        report = benchmark_grid[f"marginal-align/d100/s{seed}"]
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
        report = benchmark_grid[f"coal/d100/s{seed}"]
        js_est = report.metrics["final"]["estimated_vs_true_js_distance"]
        true_dist = np.asarray(report.metrics["true_target_distribution"])
        source_dist = true_dist[::-1]  # reversed ranking by construction
        assert js_est < evaluation.js_distance(source_dist, true_dist)
