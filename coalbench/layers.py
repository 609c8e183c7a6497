"""Per-layer metrics of the traced run: which spans and counters make each
one, and which end-to-end metric it should move on which workload.

The layers are the coalign modules. Counts are per pass or per optimizer
step; "computed" counts are derived from argument and result shapes by the
span hooks below, which run inside the span of the call they measure.

This table is the one source of the layer-to-end-to-end map. The grid
workload is not listed in BENCHMARK.json (its timings spread too much from
run to run on a shared host to be gated); cli-sweep trains the same pinned
fixture configuration, so the metrics marked "grid" move there too.
"""

from __future__ import annotations

import numpy as np

from tracing import SpanSummary

# name, unit, better, end-to-end metric it should move, workload it shows on
PER_LAYER = [
    ("kernels.busy_s", "s", "lower", "steps_per_s", "grid"),
    ("kernels.calls_per_step", "calls/step", "lower", "steps_per_s", "grid"),
    ("kernels.bytes_per_step", "B/step", "lower", "steps_per_s", "wide"),
    ("numerics.linear.busy_s", "s", "lower", "steps_per_s", "wide"),
    ("numerics.linear.flops_per_step", "flop/step", "lower", "steps_per_s", "wide"),
    ("numerics.sgd.self_s", "s", "lower", "steps_per_s", "grid"),
    ("numerics.sgd.blocks_per_step", "blocks/step", "lower", "steps_per_s", "grid"),
    ("model.forward.calls_per_step", "calls/step", "lower", "steps_per_s", "grid"),
    ("model.forward.rows_per_step", "rows/step", "lower", "steps_per_s", "grid"),
    ("model.forward.self_s", "s", "lower", "steps_per_s", "grid"),
    ("model.backward.self_s", "s", "lower", "steps_per_s", "wide"),
    ("model.checkpoint.busy_s", "s", "lower", "wall_s", "cli-sweep"),
    ("objectives.self_s", "s", "lower", "steps_per_s", "grid"),
    ("objectives.calls_per_step", "calls/step", "lower", "steps_per_s", "grid"),
    ("selftrain.assign.busy_s", "s", "lower", "wall_s", "wide"),
    ("selftrain.select.busy_s", "s", "lower", "wall_s", "wide"),
    ("selftrain.selected_frac", "fraction", "higher", "pcma_coal (no move under a pure speed change)", "all"),
    ("selftrain.correct_frac", "fraction", "higher", "pcma_coal (no move under a pure speed change)", "all"),
    ("selftrain.dump.busy_s", "s", "lower", "wall_s", "cli-sweep"),
    ("data.plan.busy_s", "s", "lower", "steps_per_s", "grid"),
    ("data.materialize.busy_s", "s", "lower", "setup_s and wall_s", "cli-sweep"),
    ("data.manifest.busy_s", "s", "lower", "wall_s", "cli-sweep"),
    ("trainer.steps", "steps", "higher", "steps_per_s", "all"),
    ("trainer.epoch.self_s", "s", "lower", "steps_per_s", "grid"),
    ("trainer.eval.busy_s", "s", "lower", "wall_s", "wide"),
    ("trainer.artifacts.self_s", "s", "lower", "wall_s", "cli-sweep"),
    ("evaluation.busy_s", "s", "lower", "wall_s", "cli-sweep"),
    ("evaluation.project.busy_s", "s", "lower", "wall_s", "cli-sweep"),
    ("cli.sweep.self_s", "s", "lower", "wall_s", "cli-sweep"),
    ("cli.eval.self_s", "s", "lower", "wall_s", "cli-sweep"),
    ("cli.report.self_s", "s", "lower", "wall_s", "cli-sweep"),
    ("cli.bytes_written", "B", "lower", "wall_s", "cli-sweep"),
    ("cli.eval.hash_mismatch", "count", "lower", "failed ops", "cli-sweep"),
    ("trace.overhead_frac", "fraction", "lower", "none: the cost of tracing", "all"),
]

# metrics that must repeat exactly from pass to pass and run to run
COUNTS = [name for name, *_ in PER_LAYER if name.endswith("_per_step")] + [
    "trainer.steps", "selftrain.selected_frac", "selftrain.correct_frac", "cli.eval.hash_mismatch"]


def _array_bytes(values) -> int:
    return sum(v.nbytes for v in values if type(v) is np.ndarray)


def _kernel_bytes(counters, args, result):
    out = result if type(result) is tuple else (result,)
    counters["kernel_bytes"] += _array_bytes(args) + _array_bytes(out)


def _linear_forward_flops(counters, args, result):
    x, weights = args[0], args[1].value
    counters["linear_flops"] += 2 * x.shape[0] * weights.shape[0] * weights.shape[1]


def _linear_backward_flops(counters, args, result):
    # weight gradient x.T @ g plus input gradient g @ W.T
    x, weights = args[1], args[2].value
    counters["linear_flops"] += 4 * x.shape[0] * weights.shape[0] * weights.shape[1]


def _sgd_blocks(counters, args, result):
    counters["sgd_blocks"] += len(args[0])


def _forward_rows(counters, args, result):
    counters["forward_rows"] += len(args[1])


def _select(counters, args, result):
    selected = int(result.mask.sum())
    counters["pseudo_assessed"] += len(result.mask)
    counters["pseudo_selected"] += selected
    counters["last_selected"] = selected


def _coal_epoch(counters, args, result):
    # the epoch record's masked pseudo accuracy is over the selection the
    # select hook just counted
    accuracy = result["masked_pseudo_accuracy"]
    if accuracy is not None:
        counters["pseudo_correct"] += round(accuracy * counters["last_selected"])


HOOKS = {
    **{f"kernels.{name}": _kernel_bytes for name in
       ("softmax", "xent", "entropy", "normalize_rows", "normalize_rows_bwd", "sgd_update")},
    "numerics.linear_forward": _linear_forward_flops,
    "numerics.linear_backward": _linear_backward_flops,
    "numerics.sgd_momentum_step": _sgd_blocks,
    "model.forward_full": _forward_rows,
    "selftrain.select_top_k_per_class": _select,
    "trainer.run_coal_epoch": _coal_epoch,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: SpanSummary, *, bytes_written: int, hash_mismatch: int,
                  overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced pass."""
    c = s.counters
    steps = s.calls("numerics.sgd_momentum_step")
    kernels = s.prefixed("kernels.")
    objectives = s.prefixed("objectives.")
    return {
        "kernels.busy_s": s.busy_s(*kernels),
        "kernels.calls_per_step": _ratio(s.calls(*kernels), steps),
        "kernels.bytes_per_step": _ratio(c.get("kernel_bytes", 0), steps),
        "numerics.linear.busy_s": s.busy_s("numerics.linear_forward", "numerics.linear_backward"),
        "numerics.linear.flops_per_step": _ratio(c.get("linear_flops", 0), steps),
        "numerics.sgd.self_s": s.self_s("numerics.sgd_momentum_step"),
        "numerics.sgd.blocks_per_step": _ratio(c.get("sgd_blocks", 0), steps),
        "model.forward.calls_per_step": _ratio(s.calls("model.forward_full"), steps),
        "model.forward.rows_per_step": _ratio(c.get("forward_rows", 0), steps),
        "model.forward.self_s": s.self_s("model.forward_full"),
        "model.backward.self_s": s.self_s("model.backward_head", "model.backward_extractor"),
        "model.checkpoint.busy_s": s.busy_s("model.save_checkpoint", "model.load_checkpoint"),
        "objectives.self_s": s.self_s(*objectives),
        "objectives.calls_per_step": _ratio(s.calls(*objectives), steps),
        "selftrain.assign.busy_s": s.busy_s("selftrain.assign_pseudo_labels"),
        "selftrain.select.busy_s": s.busy_s("selftrain.select_top_k_per_class"),
        "selftrain.selected_frac": _ratio(c.get("pseudo_selected", 0), c.get("pseudo_assessed", 0)),
        "selftrain.correct_frac": _ratio(c.get("pseudo_correct", 0), c.get("pseudo_selected", 0)),
        "selftrain.dump.busy_s": s.busy_s("selftrain.write_pseudo_csv"),
        "data.plan.busy_s": s.busy_s("data.balanced_batches", "data.natural_batches"),
        "data.materialize.busy_s": s.busy_s("data.materialize_dataset"),
        "data.manifest.busy_s": s.busy_s("data.write_manifest", "data.dataset_fingerprint"),
        "trainer.steps": steps,
        "trainer.epoch.self_s": s.self_s(
            "trainer.pretrain", "trainer.run_coal_epoch", "trainer.run_marginal_align_epoch"),
        "trainer.eval.busy_s": s.busy_s("trainer.evaluate_model"),
        "trainer.artifacts.self_s": s.self_s("trainer.run_experiment"),
        "evaluation.busy_s": s.busy_s(*s.prefixed("evaluation.")),
        "evaluation.project.busy_s": s.busy_s("evaluation.project_features_2d"),
        "cli.sweep.self_s": s.self_s("cli.cmd_sweep"),
        "cli.eval.self_s": s.self_s("cli.cmd_eval"),
        "cli.report.self_s": s.self_s("cli.cmd_report"),
        "cli.bytes_written": bytes_written,
        "cli.eval.hash_mismatch": hash_mismatch,
        "trace.overhead_frac": overhead_frac,
    }
