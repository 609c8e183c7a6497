"""Tests of the benchmark harness itself:

    PYTHONPATH=src python -m pytest -q coalbench
"""

from __future__ import annotations

import importlib
import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def small_config(method: str, **overrides):
    return workloads.fixture_config(method, 1, 100.0, epochs=2, pretrain_epochs=1, **overrides)


def test_self_and_busy_time_of_nested_calls():
    toy = types.ModuleType("toy")

    def inner():
        return None

    def outer():
        toy.inner()
        toy.inner()

    toy.inner, toy.outer = inner, outer
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    undo = tracing.patch([toy], {inner: tracer.wrap("toy.inner", inner),
                                 outer: tracer.wrap("toy.outer", outer)})
    toy.outer()
    tracing.unpatch(undo)

    assert toy.outer is outer and toy.inner is inner
    s = tracer.summarize()
    assert s.calls("toy.inner") == 2
    assert s.busy_s("toy.outer") == 10.0
    assert s.self_s("toy.outer") == 7.0
    assert s.busy_s("toy.inner") == 3.0
    # a group covers the outer span once, not the nested inner spans again
    assert s.busy_s("toy.outer", "toy.inner") == 10.0
    assert s.self_s("toy.outer", "toy.inner") == 10.0


def test_trainer_steps_equal_metrics_jsonl_lines(tmp_path):
    trainer = importlib.import_module("coalign.trainer")
    tracer = tracing.Tracer(layers.HOOKS)
    undo = tracer.install(tracing.package_modules())
    try:
        trainer.run_experiment(small_config("coal", out_dir=str(tmp_path)))
    finally:
        tracing.unpatch(undo)
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert tracer.summarize().calls("numerics.sgd_momentum_step") == len(lines) > 0


def test_counts_repeat_across_traced_passes(tmp_path):
    ops = [workloads._run_op(m, small_config(m)) for m in ("coal", "source-only")]
    probe, tracer = run.Probe(), tracing.Tracer(layers.HOOKS)
    metrics, untraced = [], run.run_pass(ops, tmp_path / "pass", probe, None)
    for _ in range(2):
        p = run.run_pass(ops, tmp_path / "pass", probe, tracer)
        assert all(not isinstance(r, BaseException) for r in p.results)
        metrics.append(layers.layer_metrics(tracer.summarize(), bytes_written=0,
                                            hash_mismatch=0, overhead_frac=0.0))
    for name in layers.COUNTS:
        assert metrics[0][name] == metrics[1][name], name
    assert metrics[0]["trainer.steps"] == sum(r.steps for r in untraced.runs) > 0
    assert metrics[0]["numerics.sgd.blocks_per_step"] == 7.0


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A small coal run trained by ``coalign train``, with its artifacts."""
    tmp = tmp_path_factory.mktemp("trained")
    config_path = tmp / "coal.json"
    config_path.write_text(json.dumps(small_config("coal").to_dict()))
    run_dir = tmp / "train" / "run"
    assert workloads.cli_main(["train", "--config", str(config_path),
                               "--out-dir", str(run_dir)])[0] == 0
    return run_dir


def verified_eval(run_dir, work):
    ops = [workloads.eval_op(run_dir, work / "eval")]
    p = run.run_pass(ops, work, run.Probe(), None)
    run.verify(p, ops, work, repeat=0)
    return p


def test_known_manifest_defect_fails_the_eval_but_keeps_the_result(trained_run, tmp_path):
    p = verified_eval(trained_run, tmp_path / "pass")
    assert p.failed == {0: [workloads.HASH_MISMATCH, workloads.SCORED_REGENERATED]}
    assert p.hash_mismatch == 1
    assert p.untrusted == []


@pytest.mark.parametrize("outcome", ["exit 1", "raise"])
def test_eval_broken_beyond_the_known_defect_is_untrusted(trained_run, tmp_path, monkeypatch, outcome):
    def cmd_eval(args):
        if outcome == "raise":
            raise RuntimeError("eval broke")
        return 1

    monkeypatch.setattr(sys.modules["coalign.cli"], "cmd_eval", cmd_eval)
    p = verified_eval(trained_run, tmp_path / "pass")
    assert list(p.failed) == [0]
    assert p.untrusted


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.PER_LAYER]
    assert {w["name"] for w in doc["workloads"]} <= set(workloads.WORKLOADS)
